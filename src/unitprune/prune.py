"""Unit pruning transforms and their accounting.

Two primitive rewrites on a dense layer, plus the compositions that keep a
network consistent:

* backward prune: remove units of layer k itself (weight rows and bias
  entries). Standalone this only leaves a consistent network on the final
  layer, where it restricts the output vocabulary (prune_output_topn).
* forward prune: remove input columns of layer k. Standalone this only makes
  sense on layer 0, where it shrinks the network's input width
  (prune_input_channels, driven by per-channel statistics of a scene).
* prune_units: both at once for a hidden layer k; units leave layer k and
  their columns leave layer k+1, so the chain stays consistent.

Selections come from activation magnitudes on a probe input, one layer of
the tuple forward returns. At threshold 0 only units that output exactly
0.0 are selected, and because matvec accumulates in a pinned order,
removing those columns is bit-identical. For positive thresholds the
report's deviation_bound certifies how far the probe's output can move:
prune_units takes column_drop_bound of the next layer, with the probe's
|activation| as the magnitudes of the dropped columns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import _jsonio, linalg
from .errors import ContractViolation, FormatError, ValidationError
from .model import DenseLayer, Network, ParamCount, check_finite, param_count

__all__ = [
    "PruneConfig",
    "PruneSelection",
    "LabelMap",
    "PruneReport",
    "select_units",
    "select_channels",
    "channel_columns",
    "backward_prune",
    "forward_prune",
    "prune_units",
    "prune_input_channels",
    "prune_output_topn",
    "column_drop_bound",
    "channel_drop_bound",
    "save_report",
    "load_report",
    "save_labelmap",
    "load_labelmap",
]

REPORT_KINDS = ("units", "input-channels", "topn")


@dataclass(frozen=True)
class PruneConfig:
    """Selection rule: prune where |activation| <= threshold.

    threshold is nonnegative and may be +inf. At 0.0 only exact zeros are
    selected and outputs stay bit-identical; above it the deviation_bound
    certificate says how far they can move.
    """

    threshold: float = 0.0

    def __post_init__(self):
        t = float(self.threshold)
        if not t >= 0.0:
            raise ContractViolation(f"threshold must be nonnegative, got {self.threshold}")
        object.__setattr__(self, "threshold", t)


@dataclass(frozen=True)
class PruneSelection:
    """A partition of range(size) into pruned and kept indices, both ascending.

    layer records which layer's units (or, for column selections, whose
    inputs) the indices refer to. pruned and kept are read-only intp arrays,
    so selections compare by value.
    """

    layer: int
    pruned: np.ndarray
    kept: np.ndarray

    def __post_init__(self):
        size = len(self.pruned) + len(self.kept)
        pruned = linalg.index_array(self.pruned, size, "pruned set")
        kept = linalg.index_array(self.kept, size, "kept set")
        seen = np.zeros(size, dtype=bool)
        seen[pruned] = True
        both = seen[kept]
        if both.any():
            raise ContractViolation(f"index {int(kept[both.argmax()])} is both pruned and kept")
        # lengths add up to size and there is no overlap, so coverage follows
        object.__setattr__(self, "layer", int(self.layer))
        object.__setattr__(self, "pruned", pruned)
        object.__setattr__(self, "kept", kept)

    def __eq__(self, other):
        if not isinstance(other, PruneSelection):
            return NotImplemented
        return (
            self.layer == other.layer
            and np.array_equal(self.pruned, other.pruned)
            and np.array_equal(self.kept, other.kept)
        )

    @property
    def size(self) -> int:
        return len(self.pruned) + len(self.kept)

    @classmethod
    def from_pruned(cls, pruned: Sequence[int], size: int, layer: int = 0) -> "PruneSelection":
        pruned = linalg.index_array(pruned, size, "pruned set")
        return cls(layer=layer, pruned=pruned, kept=linalg.complement(pruned, size))


@dataclass(frozen=True)
class LabelMap:
    """Kept output indices (a read-only ascending intp array) with their names, if any."""

    indices: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        # the original output width is not known here, so only the lower bound
        # is checked; compare_outputs checks the upper one
        idx = linalg._integers(self.indices, "label map indices")
        negative = idx[idx < 0]
        if negative.size:
            raise ContractViolation(
                f"label map indices must be nonnegative, got {int(negative[0])}"
            )
        idx = linalg.index_array(idx, np.iinfo(np.intp).max, "label map indices")
        names = self.names
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != len(idx):
                raise ContractViolation(
                    f"{len(names)} names for {len(idx)} kept outputs"
                )
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "names", names)

    def __eq__(self, other):
        if not isinstance(other, LabelMap):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and self.names == other.names


@dataclass(frozen=True)
class PruneReport:
    """What a pruning call did: one selection, exact counts, and the certificate.

    channels is the channel-level selection behind an input-channels report,
    and None for the other kinds. deviation_bound is None when no probe was
    supplied, 0.0 for transforms that cannot change the surviving outputs,
    and otherwise an upper bound on the infinity-norm output change for the
    probe (or, for input-channels pruning, for every region of the scene at
    once), so it is never negative. The reduction fractions are derived from
    the counts, which may only shrink. In an input-channels report the
    selection prunes exactly the columns of the pruned channels, each
    channel owning the same whole number of columns.
    """

    kind: str
    selections: tuple[PruneSelection, ...]
    params_before: ParamCount
    params_after: ParamCount
    deviation_bound: float | None = None
    channels: PruneSelection | None = None

    def __post_init__(self):
        if self.kind not in REPORT_KINDS:
            raise ValidationError(f"unknown report kind {self.kind!r}")
        sels = tuple(self.selections)
        if len(sels) != 1:
            raise ValidationError(f"a report holds exactly one selection, got {len(sels)}")
        if (self.channels is None) == (self.kind == "input-channels"):
            raise ValidationError("channels are present exactly in input-channels reports")
        if self.channels is not None:
            cols, chans = sels[0], self.channels
            cells = cols.size // chans.size if chans.size else 1
            if not (
                cells >= 1
                and cells * chans.size == cols.size
                and np.array_equal(cols.pruned, channel_columns(chans.pruned, chans.size, cells, 1))
            ):
                raise ValidationError(
                    "selection 0 does not prune exactly the columns of the pruned channels"
                )
        if self.deviation_bound is not None and self.deviation_bound < 0.0:
            raise ValidationError(
                f"deviation_bound must be nonnegative, got {self.deviation_bound}"
            )
        before, after = self.params_before.per_layer, self.params_after.per_layer
        if len(before) != len(after):
            raise ValidationError(
                f"params_before has {len(before)} layers but params_after has {len(after)}"
            )
        for k, ((wb, bb), (wa, ba)) in enumerate(zip(before, after)):
            if wa > wb or ba > bb:
                raise ValidationError(f"layer {k} has more parameters after pruning than before")
        object.__setattr__(self, "selections", sels)

    @property
    def layer_reduction(self) -> tuple[tuple[int, float], ...]:
        """(layer, fraction of its parameters removed) for each changed layer."""
        return tuple(
            (k, (wb + bb - wa - ba) / (wb + bb))
            for k, ((wb, bb), (wa, ba)) in enumerate(
                zip(self.params_before.per_layer, self.params_after.per_layer)
            )
            if (wb, bb) != (wa, ba)
        )

    @property
    def total_reduction(self) -> float:
        """Fraction of all parameters removed."""
        before = self.params_before.total
        return (before - self.params_after.total) / before if before else 0.0


# -- selection --------------------------------------------------------------


def select_units(activations, config: PruneConfig, layer: int = 0) -> PruneSelection:
    """Select units whose |activation| <= config.threshold.

    At threshold 0 this picks exactly the units that output 0.0 (or -0.0).
    """
    h = linalg.vector(activations)
    pruned = np.flatnonzero(np.abs(h) <= config.threshold)
    return PruneSelection.from_pruned(pruned, h.shape[0], layer=layer)


def select_channels(sums, config: PruneConfig) -> PruneSelection:
    """Select channels whose total activation mass is <= config.threshold.

    sums must be nonnegative (channel sums of a post-relu feature map). Zero
    sum means the channel is zero at every position, so at threshold 0 the
    selected channels cannot contribute to any pooled region.
    """
    s = linalg.vector(sums)
    if (s < 0.0).any():
        raise ContractViolation("channel sums must be nonnegative")
    return select_units(s, config, layer=0)


def channel_columns(
    channels: Sequence[int], n_channels: int, pool_h: int, pool_w: int
) -> np.ndarray:
    """Input columns owned by an ascending set of channels under channel-major pooling.

    Channel c owns the contiguous block [c * pool_h * pool_w,
    (c + 1) * pool_h * pool_w); the result is an intp array, ascending
    because the channel indices are.
    """
    idx = linalg.index_array(channels, n_channels, "channel set")
    if pool_h < 1 or pool_w < 1:
        raise ContractViolation(f"pool grid must be at least 1x1, got {pool_h}x{pool_w}")
    cells = pool_h * pool_w
    return (idx[:, None] * cells + np.arange(cells)).ravel()


# -- transforms -------------------------------------------------------------


def _check_layer(net: Network, layer: int) -> None:
    if not 0 <= layer < len(net.layers):
        raise ContractViolation(
            f"layer index {layer} out of range for a {len(net.layers)}-layer network"
        )


def _check_covers(sel: PruneSelection, layer: int, count: int, what: str, where: str) -> None:
    if sel.size != count:
        raise ContractViolation(f"selection covers {sel.size} {what} but {where} has {count}")
    if sel.layer != layer:
        raise ContractViolation(f"selection is for layer {sel.layer}, not layer {layer}")


def _profile_layer(profile: tuple[np.ndarray, ...], k: int) -> np.ndarray:
    """Layer k of a profile from forward on one probe, as a 1-D array.

    A k outside the profile, -1 included, or a layer of any other shape
    (forward on a batch gives (n, units) layers) is a ContractViolation.
    """
    if not 0 <= k < len(profile):
        raise ContractViolation(f"profile has layers 0..{len(profile) - 1}, got {k}")
    h = profile[k]
    if h.ndim != 1:
        raise ContractViolation(
            f"profile must come from one probe, but layer {k} has shape {h.shape}"
        )
    return h


def _drop_units(lay: DenseLayer, keep: np.ndarray) -> DenseLayer:
    return DenseLayer(lay.weights[keep], lay.bias[keep], lay.activation)


def _drop_inputs(lay: DenseLayer, keep: np.ndarray) -> DenseLayer:
    return DenseLayer(np.ascontiguousarray(lay.weights[:, keep]), lay.bias, lay.activation)


def backward_prune(net: Network, layer: int, sel: PruneSelection) -> Network:
    """Remove the selected units of one layer (weight rows and bias entries).

    Standalone this yields a consistent network only on the final layer,
    where it shrinks the output (labels are subset accordingly); anywhere
    else the next layer is left expecting the old width and network
    validation rejects the result. Pair with a forward prune of layer+1 via
    prune_units for hidden layers.
    """
    _check_layer(net, layer)
    lay = net.layers[layer]
    _check_covers(sel, layer, lay.units, "units", f"layer {layer}")
    new = _drop_units(lay, sel.kept)
    labels = net.labels
    if labels is not None and layer == len(net.layers) - 1:
        labels = tuple(labels[i] for i in sel.kept)
    return Network(net.layers[:layer] + (new,) + net.layers[layer + 1 :], labels=labels)


def forward_prune(net: Network, layer: int, sel: PruneSelection) -> Network:
    """Remove the selected input columns of one layer.

    The new layer computes the same per-unit dot products restricted to the
    kept inputs, so callers must feed it inputs with the pruned coordinates
    removed. Standalone this yields a consistent network only on layer 0
    (the network's input shrinks); for hidden layers use prune_units.
    """
    _check_layer(net, layer)
    lay = net.layers[layer]
    _check_covers(sel, layer, lay.inputs, "inputs", f"layer {layer}")
    new = _drop_inputs(lay, sel.kept)
    return Network(net.layers[:layer] + (new,) + net.layers[layer + 1 :], labels=net.labels)


def prune_units(
    net: Network,
    layer: int,
    sel: PruneSelection,
    profile: tuple[np.ndarray, ...] | None = None,
) -> tuple[Network, PruneReport]:
    """Remove hidden units: backward prune layer, forward prune layer+1.

    With q of p units removed from a layer with m inputs feeding a layer of
    n units, exactly q*(m+1) + n*q parameters and q*m + n*q
    multiply-accumulates disappear; the report carries the exact counts.

    When the profile the selection came from (forward's per-layer
    activations on one probe) is given, the report also carries
    deviation_bound for that probe: column_drop_bound of layer+1 for the
    pruned units' |activation|. Selections of exactly-zero units get bound
    0.0 and bit-identical outputs. A profile with a non-finite activation in
    any layer is refused.
    """
    _check_layer(net, layer)
    if layer == len(net.layers) - 1:
        raise ContractViolation(
            "prune_units needs a hidden layer; use prune_output_topn for the final layer"
        )
    lay = net.layers[layer]
    nxt = net.layers[layer + 1]
    _check_covers(sel, layer, lay.units, "units", f"layer {layer}")
    bound = None
    if profile is not None:
        check_finite(profile)
        h = _profile_layer(profile, layer)
        _check_covers(sel, layer, h.shape[0], "units", "the profile")
        bound = column_drop_bound(net, layer + 1, np.abs(h), sel.pruned)
    new = (_drop_units(lay, sel.kept), _drop_inputs(nxt, sel.kept))
    layers = net.layers[:layer] + new + net.layers[layer + 2 :]
    pruned_net = Network(layers, labels=net.labels)
    report = PruneReport("units", (sel,), param_count(net), param_count(pruned_net), bound)
    return pruned_net, report


def prune_input_channels(
    net: Network, sums, pool_h: int, pool_w: int, config: PruneConfig
) -> tuple[Network, PruneReport]:
    """Forward prune layer 0 by dropping whole channels of pooled input.

    sums are per-channel totals of a nonnegative feature map; a channel is
    dropped when its total is <= config.threshold, taking all pool_h*pool_w
    of its input columns with it. The reported deviation_bound is
    channel_drop_bound's, which holds for every region at once, not just one
    probe. At threshold 0 the dropped columns only ever carry exact zeros and
    outputs are bit-identical for every region.
    """
    s = linalg.vector(sums)
    cells = int(pool_h) * int(pool_w)
    if pool_h < 1 or pool_w < 1:
        raise ContractViolation(f"pool grid must be at least 1x1, got {pool_h}x{pool_w}")
    if not net.layers:
        raise ContractViolation("cannot prune the input of an empty network")
    n_cols = s.shape[0] * cells
    if net.input_dim != n_cols:
        raise ContractViolation(
            f"layer 0 expects {net.input_dim} inputs but {s.shape[0]} channels "
            f"pooled {pool_h}x{pool_w} give {n_cols}"
        )
    csel = select_channels(s, config)
    cols = channel_columns(csel.pruned, s.shape[0], pool_h, pool_w)
    colsel = PruneSelection.from_pruned(cols, n_cols, layer=0)
    pruned_net = forward_prune(net, 0, colsel)
    bound = channel_drop_bound(net, s, pool_h, pool_w, csel.pruned)
    report = PruneReport(
        "input-channels", (colsel,), param_count(net), param_count(pruned_net), bound, csel
    )
    return pruned_net, report


def prune_output_topn(
    net: Network, scores, n: int
) -> tuple[Network, LabelMap, PruneReport]:
    """Keep only the n highest-scoring output units (ties go to lower index).

    The surviving outputs are computed bit-identically to before; the label
    map records which original output each new coordinate corresponds to.
    """
    if not net.layers:
        raise ContractViolation("cannot prune the outputs of an empty network")
    s = linalg.vector(scores)
    out_dim = net.output_dim
    if s.shape[0] != out_dim:
        raise ContractViolation(
            f"{s.shape[0]} scores for {out_dim} output units"
        )
    if not 1 <= int(n) <= out_dim:
        raise ContractViolation(f"n must be in 1..{out_dim}, got {n}")
    # stable sort on negated scores: ties resolve to the lower index
    order = np.argsort(-s, kind="stable")
    last = len(net.layers) - 1
    sel = PruneSelection.from_pruned(np.sort(order[int(n) :]), out_dim, layer=last)
    pruned_net = backward_prune(net, last, sel)
    label_map = LabelMap(indices=sel.kept, names=pruned_net.labels)
    report = PruneReport("topn", (sel,), param_count(net), param_count(pruned_net), 0.0)
    return pruned_net, label_map, report


# -- deviation certificate ---------------------------------------------------


def _inf_op_norm(w: np.ndarray) -> float:
    """Operator norm for the infinity norm: max absolute row sum."""
    if w.shape[0] == 0:
        return 0.0
    return float(np.abs(w).sum(axis=1).max())


def column_drop_bound(net: Network, layer: int, magnitudes, cols: Sequence[int]) -> float:
    """Bound the output change (infinity norm) of dropping input columns.

    magnitudes must dominate, entrywise, the absolute value of whatever is
    fed to the given layer's inputs. Dropping columns `cols` changes the
    layer's pre-activation by at most max_i sum_{j in cols} |w[i, j]| * mag[j]
    (biases cancel in the difference); relu is 1-Lipschitz, so each later
    layer amplifies an input gap by at most its max absolute row sum.

    The certificate must hold for outputs as actually computed in float64,
    not just in real arithmetic, so a first-order rounding allowance is added
    on top: each layer evaluation carries per-row summation error below
    (m+1) * u * S, where u is the unit roundoff and S envelopes the row's
    absolute term sum, and both the original and the pruned evaluation incur
    it. The allowance is inflated 8x to absorb second-order terms. When every
    dropped column contributes an exactly-zero product the evaluations are
    bit-identical and the bound is exactly 0.0.
    """
    _check_layer(net, layer)
    w = net.layers[layer].weights
    idx = linalg.index_array(cols, w.shape[1], "column set")
    mags = linalg.vector(magnitudes)
    if mags.shape[0] != w.shape[1]:
        raise ContractViolation(
            f"{mags.shape[0]} magnitudes for a layer with {w.shape[1]} inputs"
        )
    if (mags < 0.0).any():
        raise ContractViolation("magnitudes must be nonnegative")
    if not idx.size:
        return 0.0
    per_row = linalg.matvec(np.abs(w[:, idx]), mags[idx])
    head = float(per_row.max()) if per_row.size else 0.0
    if head == 0.0:
        # every dropped product is +-0.0, so the accumulation is unchanged
        return 0.0
    amp = 1.0
    u = float(np.finfo(np.float64).eps) / 2.0
    in_env = float(mags.max())
    real_gap = 0.0
    fp = 0.0
    for i, lay in enumerate(net.layers[layer:]):
        norm = _inf_op_norm(lay.weights)
        if i:
            amp *= norm
        bmax = float(np.abs(lay.bias).max()) if lay.bias.size else 0.0
        s = norm * (in_env + real_gap) + bmax
        fp = fp * norm + 2.0 * (lay.inputs + 1) * u * s
        real_gap = head if i == 0 else real_gap * norm
        in_env = s
    return head * amp + 8.0 * fp


def channel_drop_bound(
    net: Network, sums, pool_h: int, pool_w: int, channels: Sequence[int]
) -> float:
    """column_drop_bound of layer 0 for dropping whole channels, sound for every region.

    sums are the per-channel totals of a nonnegative feature map. A pooled
    coordinate of channel c is a max over entries of c, so it never exceeds
    c's total: the totals, repeated over each channel's cells, are magnitudes
    that dominate every region's pooled vector at once.
    """
    s = linalg.vector(sums)
    cols = channel_columns(channels, s.shape[0], pool_h, pool_w)
    return column_drop_bound(net, 0, np.repeat(s, pool_h * pool_w), cols)


# -- serialization ----------------------------------------------------------


def _params_doc(params: ParamCount) -> dict:
    return {"per_layer": params.per_layer, "total": params.total, "macs": params.macs}


def save_report(report: PruneReport) -> bytes:
    """Serialize a PruneReport to deterministic valid JSON.

    Selections are written field for field, in their dataclass order; the
    derived totals and reduction fractions are written too, for readers of
    the file, and load_report checks them against the per-layer counts.
    """
    return _jsonio.dump_doc(_report_fields(report))


def _report_fields(report: PruneReport) -> dict:
    """The fields of report's document (the CLI streams them to a file)."""
    bound, channels = report.deviation_bound, report.channels
    return {
        "kind": report.kind,
        "layer_reduction": report.layer_reduction,
        "total_reduction": report.total_reduction,
        "deviation_bound": None if bound is None else float(bound),
        "params_before": _params_doc(report.params_before),
        "params_after": _params_doc(report.params_after),
        "selections": _jsonio.Lines(map(asdict, report.selections)),
        "channels": None if channels is None else asdict(channels),
    }


def _selection_from_doc(entry, where: str) -> PruneSelection:
    layer = _jsonio.get(entry, "layer", int, where)
    pruned = _jsonio.int_list(_jsonio.get(entry, "pruned", list, where), f"{where} pruned")
    kept = _jsonio.int_list(_jsonio.get(entry, "kept", list, where), f"{where} kept")
    with _jsonio.building(where):
        return PruneSelection(layer=layer, pruned=pruned, kept=kept)


def _params_from_doc(entry, where: str) -> ParamCount:
    raw = _jsonio.get(entry, "per_layer", list, where)
    per = []
    for i, pair in enumerate(raw):
        vals = _jsonio.int_list(pair, f"{where} per_layer[{i}]")
        if len(vals) != 2 or vals[0] < 0 or vals[1] < 0:
            raise FormatError(f"{where} per_layer[{i}]: expected two nonnegative integers")
        per.append((vals[0], vals[1]))
    total = _jsonio.get(entry, "total", int, where)
    macs = _jsonio.get(entry, "macs", int, where)
    if total != sum(w + b for w, b in per) or macs != sum(w for w, _ in per):
        raise FormatError(f"{where}: totals do not match per-layer counts")
    return ParamCount(tuple(per))


def _same_numbers(stored, derived) -> bool:
    """A parsed JSON value equals derived numbers, nested tuples as arrays.

    Numbers compare by value, so 1 matches 1.0; a bool never matches.
    """
    if isinstance(derived, tuple):
        return (
            isinstance(stored, list)
            and len(stored) == len(derived)
            and all(map(_same_numbers, stored, derived))
        )
    return not isinstance(stored, bool) and isinstance(stored, (int, float)) and stored == derived


def load_report(data: bytes | str) -> PruneReport:
    """Parse the version-1 report format.

    The stored reduction fractions must equal the ones the counts give.
    """
    doc = _jsonio.parse_doc(data, "report")
    kind = _jsonio.get(doc, "kind", str, "report")
    bound = doc.get("deviation_bound")
    if bound is not None:
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            raise FormatError("report: deviation_bound must be null or a number")
        bound = _jsonio.get(doc, "deviation_bound", float, "report")
    pb = _params_from_doc(_jsonio.get(doc, "params_before", dict, "report"), "params_before")
    pa = _params_from_doc(_jsonio.get(doc, "params_after", dict, "report"), "params_after")
    raw_sels = _jsonio.get(doc, "selections", list, "report")
    sels = tuple(
        _selection_from_doc(entry, f"selection {i}") for i, entry in enumerate(raw_sels)
    )
    channels = doc.get("channels")
    if channels is not None:
        channels = _selection_from_doc(channels, "channels")
    with _jsonio.building("report"):
        report = PruneReport(kind, sels, pb, pa, bound, channels)
    for key in ("layer_reduction", "total_reduction"):
        if not _same_numbers(_jsonio.get(doc, key, object, "report"), getattr(report, key)):
            raise FormatError(f"report: {key} does not match params_before and params_after")
    return report


def save_labelmap(label_map: LabelMap) -> bytes:
    """Serialize a LabelMap to deterministic valid JSON."""
    return _jsonio.dump_doc(_labelmap_fields(label_map))


def _labelmap_fields(label_map: LabelMap) -> dict:
    """The fields of label_map's document (the CLI streams them to a file)."""
    return {"kept": label_map.indices, "labels": label_map.names}


def load_labelmap(data: bytes | str) -> LabelMap:
    """Parse the version-1 label map format."""
    doc = _jsonio.parse_doc(data, "label map")
    kept = _jsonio.int_list(_jsonio.get(doc, "kept", list, "label map"), "label map kept")
    with _jsonio.building("label map"):
        return LabelMap(indices=kept, names=_jsonio.labels(doc, "label map"))
