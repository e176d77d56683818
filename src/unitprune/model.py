"""Feedforward network container and the version-1 text model format.

Networks are immutable: layer arrays are private copies with the writeable
flag cleared, so a loaded model can be shared across threads and pruning
always builds new objects. Serialization is deterministic byte for byte;
floats are written in shortest round-trip form, one matrix row per line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import BinaryIO, Sequence

import numpy as np

from . import _jsonio, linalg
from .errors import ContractViolation, FormatError, ValidationError

__all__ = [
    "ActivationKind",
    "DenseLayer",
    "Network",
    "ParamCount",
    "forward",
    "output",
    "param_count",
    "gen_network",
    "save_network",
    "load_network",
]

class ActivationKind(enum.Enum):
    RELU = "relu"
    IDENTITY = "identity"


@dataclass(frozen=True, eq=False)
class DenseLayer:
    """One fully connected layer: out = activation(bias + weights @ input).

    weights has shape (units, inputs); row i feeds unit i.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: ActivationKind = ActivationKind.RELU

    def __post_init__(self):
        # private copies, so callers cannot mutate us and vice versa
        w, b = linalg.matrix(self.weights), linalg.vector(self.bias)
        self._settle(np.array(w, order="C"), np.array(b, order="C"))

    @classmethod
    def _adopt(cls, weights: np.ndarray, bias: np.ndarray, activation: ActivationKind):
        """A layer that keeps float64 arrays no one else holds, as a loader has, without a copy."""
        layer = object.__new__(cls)
        object.__setattr__(layer, "activation", activation)
        layer._settle(linalg.matrix(weights), linalg.vector(bias))
        return layer

    def _settle(self, w: np.ndarray, b: np.ndarray) -> None:
        """Check the float64 arrays against each other; keep them C-ordered and read-only."""
        if b.shape[0] != w.shape[0]:
            raise ValidationError(
                f"bias has {b.shape[0]} entries but the layer has {w.shape[0]} units"
            )
        if not isinstance(self.activation, ActivationKind):
            raise ValidationError(f"unknown activation: {self.activation!r}")
        for name, a in (("weights", w), ("bias", b)):
            a = np.ascontiguousarray(a)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def units(self) -> int:
        return self.weights.shape[0]

    def activate(self, sums: np.ndarray) -> np.ndarray:
        """Activations from this layer's weighted sums: bias, then activation, on a new array."""
        h = sums + self.bias
        return linalg.relu(h) if self.activation is ActivationKind.RELU else h

    @property
    def inputs(self) -> int:
        return self.weights.shape[1]

    def __eq__(self, other):
        """Same activation, shapes and bytes, compared in place (linalg._same_bytes)."""
        if not isinstance(other, DenseLayer):
            return NotImplemented
        return (
            self.activation is other.activation
            and linalg._same_bytes(self.bias, other.bias)
            and linalg._same_bytes(self.weights, other.weights)
        )


@dataclass(frozen=True, eq=False)
class Network:
    """A chain of dense layers, optionally with output labels.

    Hidden layers must use relu; only the final layer may be identity.
    Layer k's input width must equal layer k-1's unit count.
    """

    layers: tuple[DenseLayer, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        layers = tuple(self.layers)
        for lay in layers:
            if not isinstance(lay, DenseLayer):
                raise ValidationError(f"layers must be DenseLayer, got {type(lay).__name__}")
        for k in range(len(layers) - 1):
            if layers[k + 1].inputs != layers[k].units:
                raise ValidationError(
                    f"layer {k} has {layers[k].units} units but layer {k + 1} "
                    f"expects {layers[k + 1].inputs} inputs"
                )
            if layers[k].activation is not ActivationKind.RELU:
                raise ValidationError(
                    f"layer {k} uses {layers[k].activation.value}; "
                    "only the final layer may be non-relu"
                )
        labels = self.labels
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if not layers:
                raise ValidationError("labels given for an empty network")
            if len(labels) != layers[-1].units:
                raise ValidationError(
                    f"{len(labels)} labels for {layers[-1].units} output units"
                )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "labels", labels)

    @property
    def input_dim(self) -> int:
        return self.layers[0].inputs if self.layers else 0

    @property
    def output_dim(self) -> int:
        return self.layers[-1].units if self.layers else 0

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return self.labels == other.labels and self.layers == other.layers


@dataclass(frozen=True)
class ParamCount:
    """Exact parameter and multiply-accumulate counts.

    per_layer holds (weight_count, bias_count) pairs; total and macs are
    derived from it, with one multiply-accumulate per weight.
    """

    per_layer: tuple[tuple[int, int], ...]

    @property
    def total(self) -> int:
        return sum(w + b for w, b in self.per_layer)

    @property
    def macs(self) -> int:
        return sum(w for w, _ in self.per_layer)


def forward(net: Network, x) -> tuple[np.ndarray, ...]:
    """Run the network on one input (d,) or a batch (n, d), capturing every layer.

    Returns one read-only post-activation array per layer: (units,) each, or
    (n, units) for a batch. One input runs through linalg.matvec and a batch
    through linalg.matmat, so row r of each batch layer is byte-identical to
    that layer for x[r].
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ContractViolation(f"forward: input must be (d,) or (n, d), got shape {x.shape}")
    if net.layers and x.shape[-1] != net.input_dim:
        raise ContractViolation(
            f"forward: layer 0 expects {net.input_dim} inputs, got {x.shape[-1]}"
        )
    product = linalg.matvec if x.ndim == 1 else linalg.matmat
    per = []
    h = x
    for lay in net.layers:
        h = lay.activate(product(lay.weights, h))
        h.setflags(write=False)
        per.append(h)
    return tuple(per)


def output(net: Network, x) -> np.ndarray:
    """Final layer of forward(net, x): shape (out,) for one input, (n, out) for a batch.

    An empty network returns a copy of x.
    """
    per = forward(net, x)
    return per[-1] if per else np.array(x, dtype=np.float64)


def check_finite(profile: tuple[np.ndarray, ...]) -> None:
    """Raise ContractViolation naming the first layer of forward's result that is not finite.

    Finite weights can still overflow to inf, and inf - inf to NaN; a NaN
    activation fails |a| <= tau and would be kept without a word.
    """
    for k, h in enumerate(profile):
        if not linalg._all_finite(h):
            raise ContractViolation(f"layer {k} activations on the probe are not finite")


def param_count(net: Network) -> ParamCount:
    return ParamCount(tuple((int(lay.weights.size), int(lay.bias.size)) for lay in net.layers))


def gen_network(sizes: Sequence[int], sparsity: float = 0.0, seed: int = 0) -> Network:
    """Deterministic random network for the given layer sizes.

    sizes lists the input width followed by each layer's unit count. Hidden
    layers are relu and the last layer identity. sparsity is the fraction of
    each hidden layer's units whose weight row and bias are forced to exact
    zero; those units output exactly 0.0 for every input, which gives
    zero-threshold pruning known targets. The count per layer is
    round(sparsity * units). Same seed, same bytes.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ContractViolation("gen_network: sizes must be nonempty")
    if any(s < 0 for s in sizes):
        raise ContractViolation(f"gen_network: sizes must be nonnegative, got {sizes}")
    if not 0.0 <= float(sparsity) <= 1.0:
        raise ContractViolation(f"gen_network: sparsity must be in [0, 1], got {sparsity}")
    if seed < 0:
        raise ContractViolation(f"seed must be nonnegative, got {seed}")
    n_layers = len(sizes) - 1
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(n_layers):
        fan_in, units = sizes[k], sizes[k + 1]
        hidden = k < n_layers - 1
        w = rng.uniform(-1.0, 1.0, size=(units, fan_in))
        b = rng.uniform(-0.1, 0.1, size=units)
        if hidden and sparsity > 0.0 and units > 0:
            dead = int(round(float(sparsity) * units))
            if dead:
                rows = np.sort(rng.choice(units, size=dead, replace=False))
                w[rows, :] = 0.0
                b[rows] = 0.0
        act = ActivationKind.RELU if hidden else ActivationKind.IDENTITY
        # the arrays come straight from the rng and nothing else holds them
        layers.append(DenseLayer._adopt(w, b, act))
    return Network(tuple(layers))


# -- serialization ----------------------------------------------------------


def save_network(net: Network) -> bytes:
    """Serialize to the version-1 text format; output is byte-deterministic.

    The stream is valid JSON laid out for diffing: fixed key order, one
    weight row per line, floats in shortest round-trip decimal form.
    """
    return _jsonio.dump_doc(_network_fields(net))


def _network_fields(net: Network) -> dict:
    """The fields of net's model document (the CLI streams them to a file)."""
    layers = [
        {
            "activation": lay.activation.value,
            "rows": lay.units,
            "cols": lay.inputs,
            "weights": _jsonio.Rows(lay.weights),
            "bias": lay.bias,
        }
        for lay in net.layers
    ]
    return {"labels": net.labels, "layers": _jsonio.Lines(layers)}


def load_network(data: bytes | str | BinaryIO) -> Network:
    """Parse the version-1 text model format from bytes, text or a binary file.

    A file is read a line at a time, from where it stands to its end; then
    _network_doc builds the document, as it builds every parse-cache hit.
    Raises FormatError for anything unparseable and ValidationError when the
    layers do not form a consistent network.
    """
    doc = _jsonio.parse_doc(data, "model", arrays=("weights", "bias"))
    del data  # parsed: the input can go before the layers are built
    return _network_doc(doc)


def _network_doc(doc: dict) -> Network:
    """The Network of a model document whose "weights" and "bias" may be float64 arrays."""
    raw_layers = _jsonio.get(doc, "layers", list, "model")
    layers = []
    for k in range(len(raw_layers)):
        layers.append(_load_layer(raw_layers[k], f"layer {k}"))
        # the layer adopts the parsed arrays, so nothing else may keep them
        raw_layers[k] = None
    return Network(tuple(layers), labels=_jsonio.labels(doc, "model"))


def _load_layer(entry, where: str) -> DenseLayer:
    """One parsed layer object as a DenseLayer."""
    act_name = _jsonio.get(entry, "activation", str, where)
    try:
        act = ActivationKind(act_name)
    except ValueError:
        raise FormatError(f"{where}: unknown activation {act_name!r}") from None
    units = _jsonio.get(entry, "rows", int, where)
    inputs = _jsonio.get(entry, "cols", int, where)
    if units < 0 or inputs < 0:
        raise FormatError(f"{where}: rows and cols must be nonnegative")
    flat = _jsonio.number_list(
        _jsonio.get(entry, "weights", _jsonio.NUMBERS, where), f"{where} weights"
    )
    if len(flat) != units * inputs:
        raise FormatError(f"{where} weights: expected {units * inputs} values, got {len(flat)}")
    bias = _jsonio.number_list(_jsonio.get(entry, "bias", _jsonio.NUMBERS, where), f"{where} bias")
    if len(bias) != units:
        raise FormatError(f"{where} bias: expected {units} values, got {len(bias)}")
    with _jsonio.building(where):
        return DenseLayer._adopt(flat.reshape(units, inputs), bias, act)
