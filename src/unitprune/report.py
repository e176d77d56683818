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
from .model import ActivationKind, DenseLayer, Network, output
from .prune import LabelMap, PruneConfig, channel_columns, prune_input_channels
from .scene import FeatureMap, Scene, channel_sums, pool_regions

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


def _finish(first: DenseLayer, rest: Network, acc: np.ndarray) -> np.ndarray:
    """Outputs from first-layer sums: bias, activation, then the rest, on a new array.

    acc may be shared with other networks, so it is never changed in place.
    """
    h = acc + first.bias
    if first.activation is ActivationKind.RELU:
        h = linalg.relu(h)
    return output(rest, h)


def _same_first_layer(original: DenseLayer, pruned: DenseLayer, keep: list[int] | None) -> bool:
    """Whether pruned is original on the keep columns, byte for byte."""
    w = original.weights if keep is None else original.weights[:, keep]
    return (
        original.activation is pruned.activation
        and original.bias.tobytes() == pruned.bias.tobytes()
        and w.shape == pruned.weights.shape
        and w.tobytes() == pruned.weights.tobytes()
    )


class _Deviation:
    """Running measurement of (original_out, pruned_out) row blocks of shape (rows, outputs).

    Totals fold one row at a time, left to right in Python floats, so
    mean_abs does not depend on the block size; np.max/np.maximum keep a NaN
    that max() would drop.
    """

    def __init__(self, kept: Sequence[int] | None = None):
        self.kept = kept
        self.n = self.agree = self.coords = 0
        self.max_abs = self.total_abs = 0.0

    def add(self, oa: np.ndarray, ob: np.ndarray) -> None:
        kept = self.kept
        # inf - inf is NaN; the NaN is what gets reported
        with np.errstate(invalid="ignore"):
            diff = np.abs((oa if kept is None else oa[:, kept]) - ob)
        if diff.size:
            self.max_abs = float(np.maximum(self.max_abs, np.max(diff)))
            # diff is C-contiguous, so each row sums exactly as a 1-D diff would
            for row_abs in diff.sum(axis=1).tolist():
                self.total_abs += row_abs
            self.coords += diff.size
        rows = oa.shape[0]
        if oa.shape[1] == 0:
            self.agree += rows
        elif ob.shape[1]:
            picked = np.argmax(ob, axis=1)
            if kept is not None:
                picked = np.asarray(kept)[picked]
            self.agree += int(np.count_nonzero(picked == np.argmax(oa, axis=1)))
        self.n += rows

    def report(self, bound: float | None = None) -> DeviationReport:
        return DeviationReport(
            n_examples=self.n,
            max_abs=self.max_abs,
            mean_abs=self.total_abs / self.coords if self.coords else 0.0,
            argmax_agreement=self.agree / self.n if self.n else 1.0,
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

    When the pruned first layer is the original one on the input_keep
    columns (same bytes, bias and activation), both first layers run in one
    two-member linalg.nested_matmat pass, as in sweep, and the later layers
    run once per distinct sum; otherwise each network runs on its own.
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

    dev = _Deviation(kept_out)
    shared = bool(original.layers and pruned.layers) and _same_first_layer(
        original.layers[0], pruned.layers[0], keep
    )
    if shared:
        first, rest_a, rest_b = original.layers[0], original.layers[1:], pruned.layers[1:]
        same_rest = rest_a == rest_b
        rest_a, rest_b = Network(rest_a), Network(rest_b)
        # member 0 is the original network, keeping every column; member 1 the pruned one
        depth = np.ones(width, dtype=np.intp)
        depth[slice(None) if keep is None else keep] += 1

    def score(xs):
        if not shared:
            dev.add(output(original, xs), output(pruned, _columns(xs, keep)))
            return
        acc_a, acc_b = linalg.nested_matmat(first.weights, xs, depth, 2)
        oa = _finish(first, rest_a, acc_a)
        dev.add(oa, oa if acc_b is acc_a and same_rest else _finish(first, rest_b, acc_b))

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
            score(buf)
            rows = 0
    if rows:
        score(buf[:rows])
    return dev.report(bound)


def sweep(net: Network, scene: Scene, thresholds: Sequence[float]) -> list[SweepPoint]:
    """Prune input channels at each threshold and measure the damage.

    thresholds must be ascending and nonnegative. Each point prunes the
    original network's input channels at that threshold and records the
    channel count, first-layer cost reductions, worst output deviation over
    every region, and argmax agreement. Larger thresholds always prune a
    superset of channels, so pruned_units and both reduction columns are
    non-decreasing.

    The regions are pooled and scored a block at a time, in one pass shared
    by the original network and every threshold: each pruned first layer is
    the original one on a nested subset of its columns, so one
    linalg.nested_matmat pass over the block gives every network's
    first-layer sums, byte for byte what each pruned network computes.
    Networks whose sums agree share the rest of the forward pass. Only the
    channels with a nonzero sum are pooled and multiplied: a zero-sum
    channel of the nonnegative map pools to exact zeros in every region,
    columns the pass would skip anyway.
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
    reports = [
        prune_input_channels(net, sums, scene.pool_h, scene.pool_w, PruneConfig(tau))[1]
        for tau in taus
    ]
    # member 0 is the original network, member i + 1 the one pruned at taus[i];
    # the keep sets shrink as tau grows, so depth[j] members keep column j
    depth = np.ones(net.input_dim, dtype=np.intp)
    for rep in reports:
        depth[list(rep.selections[0].kept)] += 1
    first, rest = net.layers[0], Network(net.layers[1:])
    fmap, weights = scene.fmap, first.weights
    live = np.flatnonzero(sums)
    if live.size < sums.size:
        cols = list(channel_columns(live, sums.size, scene.pool_h, scene.pool_w))
        weights, depth = weights[:, cols], depth[cols]
        # a feature map has at least one channel; with none live, nothing is pooled
        fmap = FeatureMap(fmap.data[live]) if live.size else None

    devs = [_Deviation() for _ in taus]
    rois = scene.rois
    for lo in range(0, len(rois), _BLOCK_ROWS):
        block = rois[lo : lo + _BLOCK_ROWS]
        if fmap is None:
            xs = np.zeros((len(block), 0))
        else:
            xs = pool_regions(fmap, block, scene.pool_h, scene.pool_w)
        accs = linalg.nested_matmat(weights, xs, depth, len(taus) + 1)
        outs = {}
        for acc in accs:
            if id(acc) not in outs:
                outs[id(acc)] = _finish(first, rest, acc)
        base = outs[id(accs[0])]
        for dev, acc in zip(devs, accs[1:]):
            dev.add(base, outs[id(acc)])
    w0, b0 = first.weights.size, first.bias.size
    points = []
    for tau, rep, dev in zip(taus, reports, devs):
        measured = dev.report()
        wa, ba = rep.params_after.per_layer[0]
        layer_params = w0 + b0
        points.append(
            SweepPoint(
                tau=tau,
                pruned_units=len(rep.channels.pruned),
                param_reduction=(layer_params - wa - ba) / layer_params if layer_params else 0.0,
                mac_reduction=(w0 - wa) / w0 if w0 else 0.0,
                max_abs=measured.max_abs,
                argmax_agreement=measured.argmax_agreement,
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
