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
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _jsonio, linalg, prune
from .errors import ContractViolation
from .model import DenseLayer, Network, output
from .prune import LabelMap, PruneConfig, channel_columns, channel_drop_bound, select_channels
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

# Regions pooled and scored per block: bounds the per-block copies and
# accumulators while keeping the per-column loop long.
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


def _columns(xs: np.ndarray, keep: np.ndarray | None) -> np.ndarray:
    """xs[:, keep], gathered column-major: the layout linalg.matmat reads in place."""
    return xs if keep is None else xs.T[keep].T


def _finish(first: DenseLayer, rest: Network, acc: np.ndarray) -> np.ndarray:
    """Outputs from first-layer sums: bias, activation, then the rest, on a new array.

    acc may be shared with other networks, so it is never changed in place.
    """
    return output(rest, first.activate(acc))


def _same_first_layer(original: DenseLayer, pruned: DenseLayer, keep: np.ndarray | None) -> bool:
    """Whether pruned is original on the keep columns, byte for byte."""
    return pruned == (original if keep is None else prune._drop_inputs(original, keep))


def _region_blocks(scene: Scene, fmap: FeatureMap | None) -> Iterator[np.ndarray]:
    """The scene's regions max-pooled from fmap, _BLOCK_ROWS rows at a time.

    fmap is the scene's map or a map of some of its channels; with None,
    nothing is pooled and each block has shape (rows, 0).
    """
    rois = scene.rois
    for lo in range(0, len(rois), _BLOCK_ROWS):
        block = rois[lo : lo + _BLOCK_ROWS]
        if fmap is None:
            yield np.zeros((len(block), 0))
        else:
            yield pool_regions(fmap, block, scene.pool_h, scene.pool_w)


class _Deviation:
    """Running measurement of (original_out, pruned_out) row blocks of shape (rows, outputs).

    Totals fold one row at a time, left to right in Python floats, so
    mean_abs does not depend on the block size; np.max/np.maximum keep a NaN
    that max() would drop.
    """

    def __init__(self, kept: np.ndarray | None = None):
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
                picked = kept[picked]
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
    blocks: Iterable,
    label_map: LabelMap | None = None,
    input_keep: Sequence[int] | None = None,
    bound: float | None = None,
) -> DeviationReport:
    """Run both networks over blocks of examples and measure output deviation.

    Each block is a (rows, d) array of examples, d the original network's
    input width; blocks are scored as given, and every field equals what
    scoring the examples one at a time gives. When the pruned network's
    input was shrunk (forward pruning), input_keep lists the surviving input
    coordinates; when its output was shrunk (top-n pruning), label_map says
    which original outputs survive, and deviations are measured on those. An
    example whose original winning output was pruned away counts against
    argmax_agreement.

    When the pruned first layer is the original one on the input_keep
    columns (same bytes, bias and activation), both first layers run in one
    two-member linalg.nested_matmat pass, as in sweep, and the later layers
    run once per distinct sum; otherwise each network runs on its own.
    """
    kept_out = None
    if label_map is not None:
        kept_out = linalg.index_array(label_map.indices, original.output_dim, "label map")
        if kept_out.size != pruned.output_dim:
            raise ContractViolation(
                f"label map keeps {kept_out.size} outputs but the pruned "
                f"network has {pruned.output_dim}"
            )
    elif original.output_dim != pruned.output_dim:
        raise ContractViolation(
            f"output widths differ ({original.output_dim} vs {pruned.output_dim}); "
            "pass the label map produced by top-n pruning"
        )
    keep = None
    if input_keep is not None:
        keep = linalg.index_array(input_keep, original.input_dim, "input keep set")
        if keep.size != pruned.input_dim:
            raise ContractViolation(
                f"input keep set has {keep.size} indices but the pruned "
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

    for xs in blocks:
        xs = linalg.matrix(xs)
        if xs.shape[1] != width:
            raise ContractViolation(
                f"example {dev.n} has {xs.shape[1]} values but the original "
                f"network expects {width} inputs"
            )
        # each branch drops the block once its first layers have read it, so
        # no block is alive while the caller's iterator pools the next one
        if shared:
            acc_a, acc_b = linalg.nested_matmat(first.weights, xs, depth, 2)
            del xs
            oa = _finish(first, rest_a, acc_a)
            dev.add(oa, oa if acc_b is acc_a and same_rest else _finish(first, rest_b, acc_b))
        else:
            oa, ob = output(original, xs), output(pruned, _columns(xs, keep))
            del xs
            dev.add(oa, ob)
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
    first-layer sums, byte for byte what each pruned network computes. A
    pruned network whose sums are the original's (it drops no live column)
    reuses the original's outputs, as in compare_outputs. Only the
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
    cells = scene.pool_h * scene.pool_w
    # member 0 is the original network, member i + 1 the one pruned at taus[i];
    # the keep sets shrink as tau grows, so depth[c] members keep channel c
    channel_depth = np.ones(sums.size, dtype=np.intp)
    selections, bounds = [], []
    for tau in taus:
        sel = select_channels(sums, PruneConfig(tau))
        channel_depth[sel.kept] += 1
        # the bound prune_input_channels certifies, without building the pruned network
        bounds.append(channel_drop_bound(net, sums, scene.pool_h, scene.pool_w, sel.pruned))
        selections.append(sel)
    depth = np.repeat(channel_depth, cells)
    first, rest = net.layers[0], Network(net.layers[1:])
    fmap, live = scene.fmap, np.flatnonzero(sums)
    cols = channel_columns(live, sums.size, scene.pool_h, scene.pool_w)
    # gathered once, column-major: nested_matmat reads it in place for every
    # block whose columns are all live
    weights, depth = _columns(first.weights, cols), depth[cols]
    if live.size < sums.size:
        # a feature map has at least one channel; with none live, nothing is pooled
        fmap = FeatureMap(fmap.data[live]) if live.size else None

    devs = [_Deviation() for _ in taus]
    for xs in _region_blocks(scene, fmap):
        accs = linalg.nested_matmat(weights, xs, depth, len(taus) + 1)
        # drop the block now, so it is not alive while _region_blocks pools the next
        del xs
        base = _finish(first, rest, accs[0])
        for dev, acc in zip(devs, accs[1:]):
            dev.add(base, base if acc is accs[0] else _finish(first, rest, acc))
    # a pruned first layer keeps every unit and bias, and cells columns per kept channel
    w0, b0 = first.weights.size, first.bias.size
    points = []
    for tau, sel, bound, dev in zip(taus, selections, bounds, devs):
        measured = dev.report()
        wa = first.units * sel.kept.size * cells
        layer_params = w0 + b0
        points.append(
            SweepPoint(
                tau=tau,
                pruned_units=sel.pruned.size,
                param_reduction=(layer_params - wa - b0) / layer_params if layer_params else 0.0,
                mac_reduction=(w0 - wa) / w0 if w0 else 0.0,
                max_abs=measured.max_abs,
                argmax_agreement=measured.argmax_agreement,
                bound=bound,
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
