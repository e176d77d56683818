"""Measurement: compare a pruned network against its original, sweep thresholds.

compare_outputs measures what pruning actually did to a collection of
examples; sweep runs the whole input-channel pruning pipeline across an
ascending threshold schedule and tabulates cost versus deviation. Both are
deterministic: fixed example order, plain left-to-right accumulation of
totals, no clocks and no global RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _jsonio, linalg
from .errors import ContractViolation
from .model import Network, output
from .prune import LabelMap, PruneConfig, prune_input_channels
from .scene import Scene, channel_sums, roi_pool

__all__ = [
    "DeviationReport",
    "SweepPoint",
    "compare_outputs",
    "sweep",
    "sweep_csv",
    "deviation_json",
    "SWEEP_CSV_HEADER",
]

# Rows scored per batched forward pass: bounds the per-block copies and
# accumulators while keeping the per-column loop in linalg.matmat long.
_BLOCK_ROWS = 256

SWEEP_CSV_HEADER = "tau,pruned_units,param_reduction,mac_reduction,max_abs,argmax_agreement"
# The SweepPoint fields a sweep measures: a CSV row may not hold a NaN or inf here.
_MEASURED = ("param_reduction", "mac_reduction", "max_abs", "argmax_agreement")


@dataclass(frozen=True)
class DeviationReport:
    """How far a pruned network's outputs moved on a collection of examples.

    max_abs/mean_abs are over all compared output coordinates;
    argmax_agreement is the fraction of examples whose winning output is
    preserved. bound, when present, is the certificate the pruning step
    promised; it is carried through untouched so callers can check
    max_abs <= bound.
    """

    n_examples: int
    max_abs: float
    mean_abs: float
    argmax_agreement: float
    bound: float | None = None


@dataclass(frozen=True)
class SweepPoint:
    """One row of a threshold sweep.

    param_reduction and mac_reduction are fractions of the first layer's
    parameter and multiply-accumulate counts (the layer the sweep prunes).
    bound is the collection-wide deviation certificate for this threshold;
    it does not appear in the CSV, which carries the measured max_abs.
    """

    tau: float
    pruned_units: int
    param_reduction: float
    mac_reduction: float
    max_abs: float
    argmax_agreement: float
    bound: float = 0.0


def _columns(xs: np.ndarray, keep: list[int] | None) -> np.ndarray:
    """xs[:, keep], gathered column-major: the layout linalg.matmat reads in place."""
    return xs if keep is None else xs.T[keep].T


def _deviation(
    blocks, kept: Sequence[int] | None = None, bound: float | None = None
) -> DeviationReport:
    """Measure (original_out, pruned_out) row blocks of shape (rows, outputs).

    Totals fold one row at a time, left to right in Python floats, so
    mean_abs does not depend on the block size; np.max/np.maximum keep a NaN
    that max() would drop.
    """
    n = agree = coords = 0
    max_abs = total_abs = 0.0
    for oa, ob in blocks:
        diff = np.abs((oa if kept is None else oa[:, kept]) - ob)
        if diff.size:
            max_abs = float(np.maximum(max_abs, np.max(diff)))
            # diff is C-contiguous, so each row sums exactly as a 1-D diff would
            for row_abs in diff.sum(axis=1).tolist():
                total_abs += row_abs
            coords += diff.size
        rows = oa.shape[0]
        if oa.shape[1] == 0:
            agree += rows
        elif ob.shape[1]:
            picked = np.argmax(ob, axis=1)
            if kept is not None:
                picked = np.asarray(kept)[picked]
            agree += int(np.count_nonzero(picked == np.argmax(oa, axis=1)))
        n += rows
    return DeviationReport(
        n_examples=n,
        max_abs=max_abs,
        mean_abs=total_abs / coords if coords else 0.0,
        argmax_agreement=agree / n if n else 1.0,
        bound=bound,
    )


def compare_outputs(
    original: Network,
    pruned: Network,
    examples: Iterable,
    label_map: LabelMap | None = None,
    input_keep: Sequence[int] | None = None,
    bound: float | None = None,
) -> DeviationReport:
    """Run both networks over the examples and measure output deviation.

    Examples are full-width inputs for the original network. When the pruned
    network's input was shrunk (forward pruning), input_keep lists the
    surviving input coordinates; when its output was shrunk (top-n pruning),
    label_map says which original outputs survive, and deviations are
    measured on those. An example whose original winning output was pruned
    away counts against argmax_agreement. Examples are scored in blocks of
    rows through the batched forward pass; every field equals what scoring
    them one at a time gives.
    """
    kept_out = None
    if label_map is not None:
        kept_out = list(label_map.indices)
        if len(kept_out) != pruned.output_dim:
            raise ContractViolation(
                f"label map keeps {len(kept_out)} outputs but the pruned "
                f"network has {pruned.output_dim}"
            )
        if kept_out and kept_out[-1] >= original.output_dim:
            raise ContractViolation("label map index exceeds the original output width")
    elif original.output_dim != pruned.output_dim:
        raise ContractViolation(
            f"output widths differ ({original.output_dim} vs {pruned.output_dim}); "
            "pass the label map produced by top-n pruning"
        )
    keep = None
    if input_keep is not None:
        keep = list(linalg.check_index_set(input_keep, original.input_dim, "input keep set"))
        if len(keep) != pruned.input_dim:
            raise ContractViolation(
                f"input keep set has {len(keep)} indices but the pruned "
                f"network expects {pruned.input_dim} inputs"
            )
    elif original.input_dim != pruned.input_dim:
        raise ContractViolation(
            f"input widths differ ({original.input_dim} vs {pruned.input_dim}); "
            "pass the keep set from the pruning report"
        )
    width = original.input_dim

    def score(xs):
        return output(original, xs), output(pruned, _columns(xs, keep))

    def blocks():
        # examples are copied straight into one reused block buffer
        buf = np.empty((_BLOCK_ROWS, width))
        rows = 0
        for i, x in enumerate(examples):
            x = linalg.vector(x)
            if x.shape[0] != width:
                raise ContractViolation(
                    f"example {i} has {x.shape[0]} values but the original "
                    f"network expects {width} inputs"
                )
            buf[rows] = x
            rows += 1
            if rows == _BLOCK_ROWS:
                yield score(buf)
                rows = 0
        if rows:
            yield score(buf[:rows])

    return _deviation(blocks(), kept_out, bound)


def sweep(net: Network, scene: Scene, thresholds: Sequence[float]) -> list[SweepPoint]:
    """Prune input channels at each threshold and measure the damage.

    thresholds must be ascending and nonnegative. Every region of the scene
    is pooled and run through the original network once. Each point prunes
    the original network's input channels at that threshold, runs every
    region through the pruned network, and records the channel count,
    first-layer cost reductions, worst output deviation, and argmax
    agreement. Larger thresholds always prune a superset of channels, so
    pruned_units and both reduction columns are non-decreasing.
    """
    taus = [float(t) for t in thresholds]
    if not taus:
        raise ContractViolation("sweep needs at least one threshold")
    for a, b in zip(taus, taus[1:]):
        if b < a:
            raise ContractViolation(f"thresholds must be ascending, got {a} before {b}")
    if not net.layers:
        raise ContractViolation("cannot sweep an empty network")
    if net.input_dim != scene.pooled_width:
        raise ContractViolation(
            f"network expects {net.input_dim} inputs but the scene pools to "
            f"{scene.pooled_width}"
        )
    sums = channel_sums(scene.fmap)
    pooled = np.empty((len(scene.rois), scene.pooled_width))
    for i, r in enumerate(scene.rois):
        pooled[i] = roi_pool(scene.fmap, r, scene.pool_h, scene.pool_w)
    blocks = [pooled[lo : lo + _BLOCK_ROWS] for lo in range(0, len(pooled), _BLOCK_ROWS)]
    base = [output(net, xs) for xs in blocks]
    w0, b0 = net.layers[0].weights.size, net.layers[0].bias.size
    points = []
    for tau in taus:
        cfg = PruneConfig(tau)
        pruned_net, rep = prune_input_channels(net, sums, scene.pool_h, scene.pool_w, cfg)
        keep = list(rep.selections[0].kept)
        dev = _deviation(
            (oa, output(pruned_net, _columns(xs, keep))) for xs, oa in zip(blocks, base)
        )
        wa, ba = rep.params_after.per_layer[0]
        layer_params = w0 + b0
        points.append(
            SweepPoint(
                tau=tau,
                pruned_units=len(rep.channels.pruned),
                param_reduction=(layer_params - wa - ba) / layer_params if layer_params else 0.0,
                mac_reduction=(w0 - wa) / w0 if w0 else 0.0,
                max_abs=dev.max_abs,
                argmax_agreement=dev.argmax_agreement,
                bound=rep.deviation_bound if rep.deviation_bound is not None else 0.0,
            )
        )
    return points


def sweep_csv(points: Sequence[SweepPoint]) -> str:
    """Render sweep points as CSV, floats in shortest round-trip form.

    tau may be inf, but a non-finite measured value (say, a max_abs that
    overflowed to NaN) raises ContractViolation instead of printing a row.
    """
    fmt = linalg.fmt_float
    lines = [SWEEP_CSV_HEADER]
    for p in points:
        measured = [getattr(p, name) for name in _MEASURED]
        for name, value in zip(_MEASURED, measured):
            if not math.isfinite(value):
                raise ContractViolation(f"sweep at tau {fmt(p.tau)}: {name} is {fmt(value)}")
        lines.append(",".join((fmt(p.tau), str(p.pruned_units), *map(fmt, measured))))
    return "\n".join(lines) + "\n"


def deviation_json(report: DeviationReport) -> str:
    """One-line JSON rendering of a DeviationReport, byte-deterministic."""
    return _jsonio.dump_line(
        {
            "n_examples": report.n_examples,
            "max_abs": float(report.max_abs),
            "mean_abs": float(report.mean_abs),
            "argmax_agreement": float(report.argmax_agreement),
            "bound": None if report.bound is None else float(report.bound),
        }
    )
