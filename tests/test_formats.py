"""Golden layouts: the exact bytes of every artifact format for tiny inputs.

Round-trip and determinism tests cannot see a layout change, because both
sides of the comparison come from the same writer. These pin the bytes.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitprune import (
    ActivationKind,
    ContractViolation,
    DenseLayer,
    FeatureMap,
    LabelMap,
    Network,
    ParamCount,
    PruneConfig,
    PruneReport,
    PruneSelection,
    Scene,
    prune_input_channels,
    prune_output_topn,
    prune_units,
    load_report,
    save_labelmap,
    save_network,
    save_report,
    save_scene,
)
from unitprune import _jsonio
from unitprune.errors import FormatError
from unitprune.report import DeviationReport, deviation_json


def head(labels=None):
    """3 inputs -> 2 relu units -> 2 identity outputs."""
    return Network(
        (
            DenseLayer([[1.5, -0.0, 2.0], [0.1, 0.0, -3.0]], [0.25, 0.0]),
            DenseLayer([[1.0, -1.0], [0.5, 2.0]], [0.0, -1.0], ActivationKind.IDENTITY),
        ),
        labels=labels,
    )


def test_model_with_labels_empty_layer_and_negative_zero():
    net = Network(
        (
            DenseLayer(np.zeros((3, 0)), [0.5, -0.0, 1e-300]),
            DenseLayer([[1.0, -0.0, 2.5], [0.1, 3.0, -7.0]], [0.0, 1e20], ActivationKind.IDENTITY),
        ),
        labels=("cat", 'say "hi"'),
    )
    assert save_network(net) == b"""{
"version": 1,
"labels": ["cat", "say \\"hi\\""],
"layers": [
{
"activation": "relu",
"rows": 3,
"cols": 0,
"weights": [],
"bias": [0.5, -0.0, 1e-300]
},
{
"activation": "identity",
"rows": 2,
"cols": 3,
"weights": [
1.0, -0.0, 2.5,
0.1, 3.0, -7.0
],
"bias": [0.0, 1e+20]
}
]
}
"""


def test_model_without_layers():
    assert save_network(Network(())) == b'{\n"version": 1,\n"labels": null,\n"layers": [\n]\n}\n'


def scene(rois):
    data = np.arange(12, dtype=np.float64).reshape(2, 2, 3) / 4.0
    return Scene(FeatureMap(data), tuple(rois), 1, 2)


def test_scene_without_rois():
    assert save_scene(scene([])) == b"""{
"version": 1,
"C": 2,
"H": 2,
"W": 3,
"pool_h": 1,
"pool_w": 2,
"data": [
0.0, 0.25, 0.5,
0.75, 1.0, 1.25,
1.5, 1.75, 2.0,
2.25, 2.5, 2.75
],
"rois": [
]
}
"""


def test_scene_with_two_rois():
    text = save_scene(scene([(0, 1, 3, 2), (1, 0, 2, 2)]))
    assert text.endswith(b'"rois": [\n[0, 1, 3, 2],\n[1, 0, 2, 2]\n]\n}\n')


def test_units_report_with_null_bound():
    _, rep = prune_units(head(), 0, PruneSelection.from_pruned([1], 2))
    assert save_report(rep) == b"""{
"version": 1,
"kind": "units",
"layer_reduction": [[0, 0.5], [1, 0.3333333333333333]],
"total_reduction": 0.42857142857142855,
"deviation_bound": null,
"params_before":
{
"per_layer": [[6, 2], [4, 2]],
"total": 14,
"macs": 10
},
"params_after":
{
"per_layer": [[3, 1], [2, 2]],
"total": 8,
"macs": 5
},
"selections": [
{
"layer": 0,
"pruned": [1],
"kept": [0]
}
],
"channels": null
}
"""


def test_input_channels_report_with_channels():
    _, rep = prune_input_channels(head(), [0.0, 2.0, 1.0], 1, 1, PruneConfig.exact_zero())
    assert save_report(rep) == b"""{
"version": 1,
"kind": "input-channels",
"layer_reduction": [[0, 0.25]],
"total_reduction": 0.14285714285714285,
"deviation_bound": 0.0,
"params_before":
{
"per_layer": [[6, 2], [4, 2]],
"total": 14,
"macs": 10
},
"params_after":
{
"per_layer": [[4, 2], [4, 2]],
"total": 12,
"macs": 8
},
"selections": [
{
"layer": 0,
"pruned": [0],
"kept": [1, 2]
}
],
"channels":
{
"layer": 0,
"pruned": [0],
"kept": [1, 2]
}
}
"""


def test_topn_report_and_named_label_map():
    _, label_map, rep = prune_output_topn(head(("cat", "dog")), [0.1, 0.9], 1)
    assert save_report(rep) == b"""{
"version": 1,
"kind": "topn",
"layer_reduction": [[1, 0.5]],
"total_reduction": 0.21428571428571427,
"deviation_bound": 0.0,
"params_before":
{
"per_layer": [[6, 2], [4, 2]],
"total": 14,
"macs": 10
},
"params_after":
{
"per_layer": [[6, 2], [2, 1]],
"total": 11,
"macs": 8
},
"selections": [
{
"layer": 1,
"pruned": [0],
"kept": [1]
}
],
"channels": null
}
"""
    assert save_labelmap(label_map) == b'{\n"version": 1,\n"kept": [1],\n"labels": ["dog"]\n}\n'


def test_label_map_without_names():
    text = save_labelmap(LabelMap((0, 2, 5)))
    assert text == b'{\n"version": 1,\n"kept": [0, 2, 5],\n"labels": null\n}\n'


def test_deviation_json_coerces_to_float():
    rep = DeviationReport(2, 0, 0.1, 1, None)
    assert deviation_json(rep) == (
        '{"n_examples": 2, "max_abs": 0.0, "mean_abs": 0.1, '
        '"argmax_agreement": 1.0, "bound": null}'
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_refused(bad):
    with pytest.raises(ContractViolation, match="non-finite 'max_abs'"):
        deviation_json(DeviationReport(1, bad, 0.0, 1.0))
    with pytest.raises(ContractViolation, match="non-finite 'bias'"):
        _jsonio.dump_doc({"bias": np.array([0.0, bad])})
    with pytest.raises(ContractViolation, match="non-finite 'weights'"):
        _jsonio.dump_doc({"weights": _jsonio.Rows(np.array([[1.0], [bad]]))})


# -- number decoding --------------------------------------------------------------

_BIGGEST = int(sys.float_info.max)
json_numbers = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.integers(-(2**64), 2**64),
        st.integers(2**53 - 4, 2**53 + 4).flatmap(lambda k: st.sampled_from([k, -k])),
        st.integers(-_BIGGEST, _BIGGEST),
        st.sampled_from([_BIGGEST, -_BIGGEST, 0, -0.0]),
    ),
    max_size=20,
)


@settings(deadline=None, max_examples=300)
@given(json_numbers)
def test_number_list_rounds_like_float(val):
    got = _jsonio.number_list(val, "data")
    assert got.dtype == np.float64 and got.shape == (len(val),)
    assert got.tobytes() == np.array([float(v) for v in val], dtype=np.float64).tobytes()


@settings(deadline=None, max_examples=100)
@given(json_numbers)
def test_parse_vector_rounds_like_float(val):
    text = "[" + ", ".join(map(repr, val)) + "]"
    got = _jsonio.parse_vector(text, "probe")
    assert got.tobytes() == np.array([float(v) for v in val], dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "val, found", [([1, True], "bool"), ([1.0, "2"], "str"), ([None], "NoneType"), ([[1]], "list")]
)
def test_number_list_names_the_first_non_number(val, found):
    with pytest.raises(FormatError, match=f"data: expected numbers, found {found}$"):
        _jsonio.number_list(val, "data")


def test_integers_too_large_for_a_float_are_format_errors():
    huge = 10**400
    with pytest.raises(FormatError, match="data: integer too large for a float"):
        _jsonio.number_list([1.0, huge], "data")
    with pytest.raises(FormatError, match="probe file: integer too large"):
        _jsonio.parse_vector(f"[1, {huge}]", "probe")
    with pytest.raises(FormatError, match="key 'x' is too large for a float"):
        _jsonio.get({"x": huge}, "x", float, "doc")
    _, rep = prune_input_channels(head(), [0.0, 2.0, 1.0], 1, 1, PruneConfig.exact_zero())
    doc = save_report(rep).replace(b'"deviation_bound": 0.0', b'"deviation_bound": 1' + b"0" * 400)
    with pytest.raises(FormatError, match="'deviation_bound' is too large for a float"):
        load_report(doc)


# -- index sets ------------------------------------------------------------------

INDEX_KINDS = ("list", "tuple", "int8", "int32", "int64", "uint64")


@st.composite
def index_partitions(draw):
    """(layer, pruned, kept, kind): a partition of range(size) and the form to pass it in."""
    size = draw(st.integers(0, 40))
    pruned = sorted(draw(st.sets(st.integers(0, max(size - 1, 0)), max_size=size)))
    kept = [i for i in range(size) if i not in pruned]
    return draw(st.integers(0, 3)), pruned, kept, draw(st.sampled_from(INDEX_KINDS))


def as_kind(values, kind):
    if kind == "list":
        return list(values)
    if kind == "tuple":
        return tuple(values)
    return np.array(values, dtype=kind)


@settings(max_examples=200, deadline=None)
@given(index_partitions())
def test_index_sets_write_as_lists_of_python_ints(case):
    layer, pruned, kept, kind = case
    sel = PruneSelection(layer=layer, pruned=as_kind(pruned, kind), kept=as_kind(kept, kind))
    params = ParamCount(((6, 2),))
    rep = PruneReport("units", (sel,), params, params, None)
    counts = {"per_layer": [[6, 2]], "total": 8, "macs": 6}
    fields = {
        "kind": "units",
        "layer_reduction": [],
        "total_reduction": 0.0,
        "deviation_bound": None,
        "params_before": counts,
        "params_after": counts,
        "selections": _jsonio.Lines([{"layer": layer, "pruned": pruned, "kept": kept}]),
        "channels": None,
    }
    assert save_report(rep) == _jsonio.dump_doc(fields)
    names = tuple(f"n{i}" for i in kept)
    lm = LabelMap(as_kind(kept, kind), names)
    assert save_labelmap(lm) == _jsonio.dump_doc({"kept": kept, "labels": list(names)})
    for stored in (sel.pruned, sel.kept, lm.indices):
        assert stored.dtype == np.intp and not stored.flags.writeable

    # a caller's writable intp array is copied, never frozen or changed
    mine = np.array(kept, dtype=np.intp)
    sel2 = PruneSelection(layer=layer, pruned=np.array(pruned, dtype=np.intp), kept=mine)
    lm2 = LabelMap(mine)
    assert mine.flags.writeable and mine.tolist() == kept
    assert sel2 == sel and lm2.indices.tolist() == kept
    mine += 1
    assert sel2.kept.tolist() == kept and lm2.indices.tolist() == kept
