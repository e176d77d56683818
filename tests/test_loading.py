"""Loading converts each named numeric field as the parser closes its object.

A loaded model or scene must equal what a plain json.loads of the same text
gives, byte for byte, whether it comes as bytes, text or a binary file; a
malformed file must fail with the same exception class and message, in the
same order, as when every field was checked after parsing; and a load must
hold less memory than json.loads' lists of floats.
"""

import json
import os
import sys
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitprune import (
    ActivationKind,
    DenseLayer,
    FeatureMap,
    Network,
    Scene,
    gen_network,
    gen_scene,
    load_network,
    load_scene,
    save_network,
    save_scene,
)
from unitprune import _jsonio
from unitprune.errors import FormatError, ValidationError


def plain_network(text):
    """The network a plain json.loads of the text describes."""
    doc = json.loads(text)
    layers = tuple(
        DenseLayer(
            np.array(lay["weights"], dtype=np.float64).reshape(lay["rows"], lay["cols"]),
            np.array(lay["bias"], dtype=np.float64),
            ActivationKind(lay["activation"]),
        )
        for lay in doc["layers"]
    )
    return Network(layers, labels=doc.get("labels"))


def assert_same_network(got, want):
    assert got == want
    assert got.labels == want.labels
    for a, b in zip(got.layers, want.layers):
        for x, y in ((a.weights, b.weights), (a.bias, b.bias)):
            assert x.dtype == y.dtype == np.float64
            assert x.shape == y.shape
            assert x.tobytes() == y.tobytes()
            assert not x.flags.writeable


def model_text(layers, labels=None, **top):
    return json.dumps({"version": 1, **top, "labels": labels, "layers": layers})


def layer(rows, cols, weights, bias, activation="relu"):
    return {"activation": activation, "rows": rows, "cols": cols,
            "weights": weights, "bias": bias}


# -- valid files ---------------------------------------------------------------


@pytest.mark.parametrize("sizes,labels", [
    ([7, 5, 3], None),
    ([12, 9, 9, 4], ["a", "b", "c", "d"]),
    ([6, 0, 2], None),
    ([4], None),
])
def test_generated_model_equals_the_plain_parse(sizes, labels):
    net = gen_network(sizes, sparsity=0.3, seed=5)
    if labels is not None:
        net = Network(net.layers, labels=labels)
    data = save_network(net)
    for given in (data, data.decode("utf-8")):
        got = load_network(given)
        assert_same_network(got, plain_network(data))
        assert save_network(got) == data


def test_hand_written_numbers_equal_the_plain_parse():
    # ints, ints beyond 2**53 and 2**64, -0.0, subnormals and the float extremes
    weights = [1, -2, 2**53 + 1, 2**64 + 3, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
    text = model_text([
        layer(2, 4, weights, [0, -0.0]),
        layer(1, 2, [3, 2**70], [10**20], activation="identity"),
    ])
    assert_same_network(load_network(text), plain_network(text))


def test_parse_doc_makes_the_named_fields_arrays():
    text = model_text([layer(1, 2, [1, 2.5], [0])], weights=[4, 5])
    doc = _jsonio.parse_doc(text, "model", arrays=("weights", "bias"))
    lay = doc["layers"][0]
    for key in ("weights", "bias"):
        assert isinstance(lay[key], np.ndarray) and lay[key].dtype == np.float64
        assert lay[key].tobytes() == np.array(json.loads(text)["layers"][0][key], float).tobytes()
    # every object is converted, the top-level one too; unnamed fields are not
    assert isinstance(doc["weights"], np.ndarray)
    assert doc["layers"][0]["rows"] == 1
    assert isinstance(_jsonio.parse_doc(text, "model")["layers"][0]["weights"], list)


def test_number_list_passes_an_array_through():
    a = np.array([1.0, 2.0])
    assert _jsonio.number_list(a, "x") is a


@pytest.mark.parametrize("c,h,w,n_rois", [(3, 4, 5, 6), (1, 1, 1, 0), (8, 7, 7, 20)])
def test_generated_scene_equals_the_plain_parse(c, h, w, n_rois):
    sc = gen_scene(c, h, w, zero_channels=min(1, c - 1), n_rois=n_rois, pool_h=2, pool_w=2,
                   seed=3)
    data = save_scene(sc)
    doc = json.loads(data)
    want = np.array(doc["data"], dtype=np.float64).reshape(c, h, w)
    for given in (data, data.decode("utf-8")):
        got = load_scene(given)
        assert got.fmap.data.tobytes() == want.tobytes()
        assert got.fmap.data.shape == want.shape
        assert got.rois.tolist() == doc["rois"]
        assert (got.pool_h, got.pool_w) == (2, 2)
        assert save_scene(got) == data


def test_hand_written_scene_numbers_equal_the_plain_parse():
    values = [0, 1, 2**60, 0.5, 5e-324, 3]
    text = json.dumps({"version": 1, "C": 1, "H": 2, "W": 3, "pool_h": 1, "pool_w": 1,
                       "data": values, "rois": [[0, 0, 3, 2]]})
    got = load_scene(text)
    want = Scene(FeatureMap(np.array(values, dtype=np.float64).reshape(1, 2, 3)),
                 ((0, 0, 3, 2),), 1, 1)
    assert got.fmap.data.tobytes() == want.fmap.data.tobytes()
    assert got.rois.tolist() == want.rois.tolist()


# -- malformed files: same class, same message ----------------------------------


GOOD = layer(1, 2, [1.0, 2.0], [0.5])


def bad_layer(**fields):
    return {**GOOD, **fields}


def raises(load, text):
    with pytest.raises(Exception) as info:
        load(text)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("text,want", [
    # the parser stops at the syntax error after converting nothing it could not
    (model_text([bad_layer(weights=[True, 1])])[:-1] + " oops",
     "model parse error at line 1 column 126: Expecting ',' delimiter"),
    (model_text([bad_layer(weights=[1, True])]),
     "layer 0 weights: expected numbers, found bool"),
    (model_text([bad_layer(weights=[1, 10**400])]),
     "layer 0 weights: integer too large for a float"),
    (model_text([bad_layer(bias=[10**400])]),
     "layer 0 bias: integer too large for a float"),
    (model_text([bad_layer(weights="1, 2")]),
     "layer 0: key 'weights' has wrong type str"),
    (model_text([{k: v for k, v in GOOD.items() if k != "bias"}]),
     "layer 0: missing key 'bias'"),
    (model_text([bad_layer(weights=[1, None])]),
     "layer 0 weights: expected numbers, found NoneType"),
    (model_text([bad_layer(weights={"weights": [1, 2]})]),
     "layer 0: key 'weights' has wrong type dict"),
    (model_text([GOOD, bad_layer(weights=[1.0, 2.0, 3.0])]),
     "layer 1 weights: expected 2 values, got 3"),
    (model_text([bad_layer(bias=[0.5, 1.0])]),
     "layer 0 bias: expected 1 values, got 2"),
    (model_text([bad_layer(bias=[float("nan")])]),
     "non-finite constant 'NaN' is not allowed in model files"),
])
def test_model_errors_are_unchanged(text, want):
    assert raises(load_network, text) == (FormatError, want)


@pytest.mark.parametrize("text,want", [
    # an earlier field's fault is reported before a later layer's converted-away one
    (model_text([bad_layer(activation="tanh", weights=[True]), bad_layer(weights=[10**400])]),
     "layer 0: unknown activation 'tanh'"),
    (model_text([bad_layer(rows=-1, weights=[10**400])]),
     "layer 0: rows and cols must be nonnegative"),
    (model_text([bad_layer(weights=[1.0]), bad_layer(weights=[True, 1])]),
     "layer 0 weights: expected 2 values, got 1"),
    (model_text([bad_layer(weights=[True, 1], bias=[10**400])]),
     "layer 0 weights: expected numbers, found bool"),
    (model_text([bad_layer(weights=[1, 2], bias="x"), bad_layer(weights=[10**400, 1])]),
     "layer 0: key 'bias' has wrong type str"),
    # the two layers do not chain either, but that is checked after every layer is read
    (model_text([GOOD, bad_layer(bias=[True])]),
     "layer 1 bias: expected numbers, found bool"),
])
def test_model_errors_keep_their_order(text, want):
    assert raises(load_network, text) == (FormatError, want)


def test_top_level_weights_are_ignored():
    plain = model_text([GOOD])
    for extra in ([1, 2, 3], [True], [10**400], "weights"):
        text = model_text([GOOD], weights=extra, bias=extra)
        assert_same_network(load_network(text), load_network(plain))


def test_no_layers():
    assert load_network(model_text([])) == Network(())
    cls, msg = raises(load_network, model_text([], labels=["a"]))
    assert (cls, msg) == (ValidationError, "labels given for an empty network")


def test_non_list_layers_unchanged():
    cls, msg = raises(load_network, json.dumps({"version": 1, "layers": {"weights": [1]}}))
    assert (cls, msg) == (FormatError, "model: key 'layers' has wrong type dict")


def scene_text(**fields):
    doc = {"version": 1, "C": 1, "H": 1, "W": 2, "pool_h": 1, "pool_w": 1,
           "data": [0.5, 1.0], "rois": [[0, 0, 1, 1]]}
    return json.dumps({**doc, **fields})


@pytest.mark.parametrize("text,want", [
    (scene_text(data=[0.5, True]), "scene data: expected numbers, found bool"),
    (scene_text(data=[0.5, 10**400]), "scene data: integer too large for a float"),
    (scene_text(data="0.5"), "scene: key 'data' has wrong type str"),
    (scene_text(data=[0.5]), "scene data: expected 2 values, got 1"),
    # data is read before the dimensions are checked
    (scene_text(C=0, data=[10**400]), "scene data: integer too large for a float"),
    (scene_text(C=0, data=[0.5]), "scene dimensions must be >= 1, got 0x1x2"),
    (scene_text(pool_h="1", data=[True]), "scene: key 'pool_h' must be an integer"),
    (scene_text(rois=[{"data": [1]}]), "roi 0: expected an array of integers"),
    (scene_text(data=[0.5, 1.0])[:-1] + ",", "scene parse error at line 1 column 109: "
     "Expecting property name enclosed in double quotes"),
])
def test_scene_errors_are_unchanged(text, want):
    assert raises(load_scene, text) == (FormatError, want)


@pytest.mark.parametrize("path,value,want", [
    (("selections", 0, "pruned"), [0, 1.0], "selection 0 pruned: expected integers, found float"),
    (("selections", 0, "kept"), [True], "selection 0 kept: expected integers, found bool"),
    (("channels", "pruned"), ["0"], "channels pruned: expected integers, found str"),
    (("params_before", "per_layer", 0), 8,
     "params_before per_layer[0]: expected an array of integers"),
])
def test_report_integer_lists(path, value, want):
    from unitprune import PruneConfig, load_report, prune_input_channels, save_report

    _, rep = prune_input_channels(gen_network([4, 3], seed=1), [0.0, 1.0], 1, 2, PruneConfig(0.0))
    doc = json.loads(save_report(rep))
    *keys, last = path
    entry = doc
    for key in keys:
        entry = entry[key]
    entry[last] = value
    assert raises(load_report, json.dumps(doc)) == (FormatError, want)


@pytest.mark.parametrize("load,what", [(load_network, "model"), (load_scene, "scene")])
def test_bytes_that_are_not_utf8_are_a_format_error(load, what):
    data = b"\xff\xfe" + model_text([GOOD]).encode("utf-16-le")
    assert raises(load, data) == (
        FormatError, f"{what} file is not UTF-8: invalid start byte at byte 0"
    )


# -- memory ----------------------------------------------------------------------


def traced_peak(fn, text) -> int:
    tracemalloc.start()
    try:
        fn(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_holds_less_than_the_plain_parse():
    # two equal layers: json.loads holds both as Python floats at the end of the
    # parse; load_network holds one layer's floats plus float64 arrays
    text = save_network(gen_network([200, 200, 200], seed=1)).decode("utf-8")
    plain = traced_peak(json.loads, text)
    lean = traced_peak(load_network, text)
    assert lean < plain



# -- objects that parse but are invalid: FormatError caused by the violation -----


def violation_message(load, text):
    """The FormatError message, checking that a ContractViolation caused it."""
    from unitprune.errors import ContractViolation

    with pytest.raises(FormatError) as info:
        load(text)
    assert isinstance(info.value.__cause__, ContractViolation)
    return str(info.value)


@pytest.mark.parametrize("layers,huge,want", [
    ([bad_layer(weights=[1.0, "HUGE"])], "1e400", "layer 0: matrix contains non-finite values"),
    ([GOOD, bad_layer(bias=["HUGE"])], "-1e400", "layer 1: vector contains non-finite values"),
])
def test_model_layer_that_overflows_to_inf(layers, huge, want):
    # a float literal beyond the float range parses to inf; the layer refuses it
    text = model_text(layers).replace('"HUGE"', huge)
    assert violation_message(load_network, text) == want


@pytest.mark.parametrize("path,value,want", [
    (("selections", 0, "kept"), [1, 2, 3], "selection 0: index 1 is both pruned and kept"),
    (("channels", "kept"), [0], "channels: index 0 is both pruned and kept"),
    (("deviation_bound",), -5.0, "report: deviation_bound must be nonnegative, got -5.0"),
])
def test_invalid_report_objects(path, value, want):
    from unitprune import PruneConfig, load_report, prune_input_channels, save_report

    _, rep = prune_input_channels(gen_network([4, 3], seed=1), [0.0, 1.0], 1, 2, PruneConfig(0.0))
    doc = json.loads(save_report(rep))
    *keys, last = path
    entry = doc
    for key in keys:
        entry = entry[key]
    entry[last] = value
    assert violation_message(load_report, json.dumps(doc)) == want


# -- the block path: the writer's layout, parsed a chunk of rows at a time --------
#
# save_network and save_scene write each "weights" or "data" field as a block,
# one row per line, which parse_doc reads a chunk of rows at a time. Each case
# below edits such a file and checks the result against the whole-document
# parse alone: the same arrays, or the same exception class and message.


def whole_parse_only(load, data):
    """load(data) with the block path turned off: the one reference parse."""
    with mock.patch.object(_jsonio, "_block_doc", lambda data, arrays: None):
        return load(data)


def outcome(load, data):
    """What load(data) gives: ("ok", saved bytes) or (exception class, message)."""
    try:
        got = load(data)
    except Exception as e:  # any class: the class is what is compared
        return type(e), str(e)
    return "ok", (save_network(got) if isinstance(got, Network) else save_scene(got))


def assert_same_as_whole_parse(load, data):
    want = outcome(lambda d: whole_parse_only(load, d), data)
    assert outcome(load, data) == want
    return want


# every value distinct, so an edit can name the one it replaces
BLOCK_NET = Network((
    DenseLayer(np.array([[0.25, 0.5, 0.75], [1.25, 1.5, 1.75]]), np.array([0.125, 0.375])),
    DenseLayer(np.array([[2.25, 2.5], [3.25, 3.5]]), np.array([0.625, 0.875]),
               ActivationKind.IDENTITY),
))
BLOCK_SCENE = Scene(FeatureMap(np.array([[[0.25, 0.5], [0.75, 1.25]]])), ((0, 0, 2, 2),), 1, 1)


def edit(data: bytes, *pairs) -> bytes:
    """data with each (old, new) text replaced once; old must occur."""
    for old, new in pairs:
        assert data.count(old.encode()) >= 1, old
        data = data.replace(old.encode(), new.encode(), 1)
    return data


def test_saved_files_take_the_block_path():
    for data, arrays in ((save_network(BLOCK_NET), ("weights", "bias")),
                         (save_scene(BLOCK_SCENE), ("data",))):
        for given in (data, data.decode("utf-8")):
            assert _jsonio._block_doc(given, arrays) is not None
    assert load_network(save_network(BLOCK_NET)) == BLOCK_NET
    assert load_scene(save_scene(BLOCK_SCENE)).fmap == BLOCK_SCENE.fmap


@pytest.fixture(params=[None, 1], ids=["one-chunk", "row-chunks"])
def chunk_bytes(request):
    """The default chunk, or one row per chunk, so faults land in a later chunk too."""
    if request.param is None:
        yield
    else:
        with mock.patch.object(_jsonio, "_CHUNK_BYTES", request.param):
            yield


# the row faults of test_model_errors_are_unchanged and
# test_model_errors_keep_their_order, written into save_network's layout
MODEL_ROW_FAULTS = [
    ((("1.5, 1.75", "1.5 1.75"),),
     "model parse error at line 11 column 11: Expecting ',' delimiter"),
    ((("0.5", "true"),), "layer 0 weights: expected numbers, found bool"),
    ((("1.75", "1" + "0" * 400),), "layer 0 weights: integer too large for a float"),
    ((("0.375", "1" + "0" * 400),), "layer 0 bias: integer too large for a float"),
    ((("1.25", "null"),), "layer 0 weights: expected numbers, found NoneType"),
    ((("1.25", '"x"'),), "layer 0 weights: expected numbers, found str"),
    ((("3.5", "3.5, 4.5"),), "layer 1 weights: expected 4 values, got 5"),
    ((("0.375", "0.375, 1.0"),), "layer 0 bias: expected 2 values, got 3"),
    ((("0.375", "NaN"),), "non-finite constant 'NaN' is not allowed in model files"),
    ((("1.5", "NaN"),), "non-finite constant 'NaN' is not allowed in model files"),
    ((("2.5", "-Infinity"),), "non-finite constant '-Infinity' is not allowed in model files"),
    ((('"relu"', '"tanh"'), ("0.5", "true"), ("2.5", "1" + "0" * 400)),
     "layer 0: unknown activation 'tanh'"),
    ((('"rows": 2', '"rows": -1'), ("0.5", "1" + "0" * 400)),
     "layer 0: rows and cols must be nonnegative"),
    ((("1.5, 1.75", "1.5"), ("2.5", "true")), "layer 0 weights: expected 6 values, got 5"),
    ((("0.5", "true"), ("0.375", "1" + "0" * 400)),
     "layer 0 weights: expected numbers, found bool"),
    ((("[0.125, 0.375]", '"x"'), ("2.25", "1" + "0" * 400)),
     "layer 0: key 'bias' has wrong type str"),
    ((("0.875", "true"),), "layer 1 bias: expected numbers, found bool"),
]


@pytest.mark.parametrize("pairs,want", MODEL_ROW_FAULTS)
def test_model_row_faults_are_unchanged(chunk_bytes, pairs, want):
    data = edit(save_network(BLOCK_NET), *pairs)
    assert assert_same_as_whole_parse(load_network, data) == (FormatError, want)


# the row faults of test_scene_errors_are_unchanged, written into save_scene's layout
SCENE_ROW_FAULTS = [
    ((("0.5", "true"),), "scene data: expected numbers, found bool"),
    ((("1.25", "1" + "0" * 400),), "scene data: integer too large for a float"),
    ((("0.75, 1.25", "0.75"),), "scene data: expected 4 values, got 3"),
    ((('"C": 1', '"C": 0'), ("0.75", "1" + "0" * 400)), "scene data: integer too large for a float"),
    ((('"C": 1', '"C": 0'),), "scene dimensions must be >= 1, got 0x2x2"),
    ((('"pool_h": 1', '"pool_h": "1"'), ("0.5", "true")), "scene: key 'pool_h' must be an integer"),
    ((("[0, 0, 2, 2]", '{\n"data": [\n1\n]\n}'),), "roi 0: expected an array of integers"),
    ((("0.25, 0.5,", "0.25, 0.5,,"),),
     "scene parse error at line 9 column 11: Expecting value"),
]


@pytest.mark.parametrize("pairs,want", SCENE_ROW_FAULTS)
def test_scene_row_faults_are_unchanged(chunk_bytes, pairs, want):
    data = edit(save_scene(BLOCK_SCENE), *pairs)
    assert assert_same_as_whole_parse(load_scene, data) == (FormatError, want)


UTF8_BOM = b"\xef\xbb\xbf"


ODD_LAYOUTS = [
    # the parse of the whole document judges each of these
    lambda d: d.replace(b"0.5, 0.75,\n", b"0.5, 0.75\n"),  # a row without its comma
    lambda d: d.replace(b"1.75\n]", b"1.75,\n]"),  # a comma after the last row
    lambda d: d.replace(b"0.75,\n", b"0.75,\n]\n"),  # a stray ] between rows
    lambda d: d.replace(b"0.75,\n", b"0.75]\n"),
    lambda d: d.replace(b"\n", b"\r\n"),  # CRLF line ends
    lambda d: d.replace(b"1.75\n]", b"1.75\r\n]"),
    lambda d: UTF8_BOM + d,
    lambda d: d.replace(b"1.5", b"1.\xff5"),  # a byte that is not UTF-8, in a row
    lambda d: d.replace(b"1.5", b"1.\xc3\xa95"),  # UTF-8, but not a number
    lambda d: d.replace(b"0.375]", b"0.375\xff]"),  # not UTF-8, outside the rows
    lambda d: d.replace(b'"labels": null', b'"labels": ["a\xffb", "b"]'),
    lambda d: d.replace(b"1.5", b"[1.5]"),
    lambda d: d.replace(b"1.5", b"{}"),
    lambda d: d.replace(b"1.25, 1.5, 1.75\n]", b"\n]"),  # an empty last row
    lambda d: d.replace(b"0.25, 0.5, 0.75,\n1.25, 1.5, 1.75\n", b""),  # no rows at all
    lambda d: d.replace(b"1.75\n]", b"1.75\n]]"),  # text after the closing ]
    lambda d: d.replace(b"1.75\n]", b"1.75\n]5"),
    lambda d: d.replace(b"1.75\n]", b"1.75\n"),  # no closing line
    lambda d: d[: d.index(b"1.5")],  # the file ends inside a block
    # valid, and read as json reads them
    lambda d: d.replace(b'"labels": null', b'"labels": ["%s", "b"]' % _jsonio._SENTINEL.encode()),
    lambda d: d.replace(b'"labels": null', b'"labels": null, "x": %s' % _jsonio._SENTINEL.encode()),
    lambda d: d.replace(b'"labels": null', b'"labels": null, "x": 1%s5' % _jsonio._SENTINEL.encode()),
    lambda d: d.replace(b'"labels": null', b'"labels": ["\\u002d0.0E-0000", "b"]'),
    lambda d: d.replace(b'"bias": [0.125, 0.375]', b'"bias": [0.125, 0.375],\n"weights": [\n'
                        b'9.0, 8.0, 7.0,\n6.0, 5.0, 4.0\n]'),  # duplicate "weights": the last wins
    lambda d: d.replace(b'"rows": 2,\n"cols": 3,\n"weights"', b'"rows": 2,\n"cols": 3,\n'
                        b'"weights": [\n9.0\n],\n"weights"'),
    lambda d: d.replace(b'"labels": null', b'"labels": null,\n"extra": {\n"weights": [\n'
                        b'1.0, true\n]\n}'),  # a block in a nested object, not all numbers
    lambda d: d.replace(b'"labels": null', b'"labels": null,\n"extra": {\n"weights": [\n'
                        b'1.0, 2.0\n],\n"bias": [\n3\n]\n}'),
    lambda d: d.replace(b'"weights": [\n0.25', b'"weights": {\n"weights": [\n0.25')
               .replace(b"1.75\n]", b"1.75\n]\n}"),  # a block in a nested object
    lambda d: d.replace(b"0.5, 0.75,\n1.25", b"0.5, 0.75,\n\n1.25"),  # a blank line
    lambda d: d.replace(b"0.5, 0.75,\n1.25", b"0.5,0.75 ,\n   1.25"),
    lambda d: d.replace(b"0.5", b"5e-1").replace(b"1.5", b"15E-1").replace(b"2.5", b"-0"),
    lambda d: d.replace(b'"activation": "identity"', b'"weights": [\n1.0\n],\n"activation": "identity"'),
    lambda d: d.replace(b'"labels"', b'"\\u0077eights": [\n1\n],\n"labels"'),
]


@pytest.mark.parametrize("change", ODD_LAYOUTS)
def test_block_faults_and_odd_layouts_are_read_as_the_whole_parse(chunk_bytes, change):
    data = change(save_network(BLOCK_NET))
    assert data != save_network(BLOCK_NET)
    assert_same_as_whole_parse(load_network, data)


@pytest.mark.parametrize("change", [
    lambda d: d.replace(b"\n", b"\r\n"),
    lambda d: UTF8_BOM + d,
    lambda d: d.replace(b"1.5", b"1.\xff5"),
    lambda d: d.replace(b'"labels": null', b'"labels": ["a\xffb", "b"]'),
    lambda d: d.replace(b'"labels": null', b'"labels": ["%s", "b"]' % _jsonio._SENTINEL.encode()),
    lambda d: d.replace(b"1.75", b"1" + b"0" * 400),
])
def test_the_block_path_declines_what_it_cannot_vouch_for(change):
    data = change(save_network(BLOCK_NET))
    assert _jsonio._block_doc(data, ("weights", "bias")) is None


def test_duplicate_and_nested_blocks_keep_json_semantics():
    # the later of two "weights" wins, as in json.loads
    data = save_network(BLOCK_NET).replace(
        b'"bias": [0.125, 0.375]',
        b'"bias": [0.125, 0.375],\n"weights": [\n9.0, 8.0, 7.0,\n6.0, 5.0, 4.0\n]')
    assert _jsonio._block_doc(data, ("weights", "bias")) is not None
    assert load_network(data).layers[0].weights.tolist() == [[9.0, 8.0, 7.0], [6.0, 5.0, 4.0]]
    # a block inside a nested object becomes that object's array
    nested = save_network(BLOCK_NET).replace(b'"labels": null', b'"labels": null,\n"extra": {\n'
                                             b'"weights": [\n1, 2\n]\n}')
    doc = _jsonio.parse_doc(nested, "model", arrays=("weights", "bias"))
    assert doc["extra"]["weights"].tolist() == [1.0, 2.0]
    assert load_network(nested) == BLOCK_NET


# number tokens as a writer or a person might put them in a row
_tokens = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from([2**53 + 1, 2**64 + 3, -(2**64) - 1]).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "-0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
                     "1e400", "-1e400", "1E-400", "0.1e1"]),
)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda rc: st.tuples(st.just(rc), st.lists(_tokens, min_size=rc[0] * rc[1],
                                                   max_size=rc[0] * rc[1]))),
    chunk=st.sampled_from([1, 7, 40, None]),
)
def test_block_rows_convert_as_the_plain_parse(shape, chunk):
    (rows, cols), tokens = shape
    lines = [", ".join(tokens[r * cols : (r + 1) * cols]) for r in range(rows)]
    text = "\n".join([
        "{", '"version": 1,', '"labels": null,', '"layers": [', "{",
        '"activation": "identity",', f'"rows": {rows},', f'"cols": {cols},',
        '"weights": [', ",\n".join(lines), "],", f'"bias": [{", ".join(["0.5"] * rows)}]',
        "}", "]", "}", "",
    ]).encode()
    with mock.patch.object(_jsonio, "_CHUNK_BYTES", chunk or _jsonio._CHUNK_BYTES):
        assert _jsonio._block_doc(text, ("weights", "bias")) is not None
        doc = _jsonio.parse_doc(text, "model", arrays=("weights", "bias"))
        got = doc["layers"][0]["weights"]
        want = np.array(json.loads(text)["layers"][0]["weights"], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if np.isfinite(want).all():
            assert_same_network(load_network(text), plain_network(text))
        else:
            assert outcome(load_network, text) == (
                FormatError, "layer 0: matrix contains non-finite values")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 a caller keeps its "
                    "arguments alive until the call returns, so the loader cannot drop the text "
                    "before the layers are copied")
def test_a_load_holds_its_text_and_about_one_copy_of_the_arrays(tmp_path):
    # json.loads would hold the text, then a layer of Python floats (32 bytes a
    # value) and its array; the block path holds the text, one chunk's floats
    # and the array, and the CLI's input goes before the layers are copied
    net = gen_network([784, 512, 10], seed=3)
    path = tmp_path / "m.net"
    path.write_bytes(save_network(net))
    text_bytes = path.stat().st_size
    array_bytes = sum(lay.weights.nbytes + lay.bias.nbytes for lay in net.layers)
    peak = traced_peak(lambda p: load_network(p.read_bytes()), path)
    assert peak < text_bytes + 2 * array_bytes


# -- the block path from a file: read a piece at a time ---------------------------
#
# A binary file is read _CHUNK_BYTES at a time, so with 1, 7 and 40 rows and
# opener lines are cut by reads at every offset; each case above must come
# out the same as from bytes.


@pytest.fixture(params=[1, 7, 40])
def read_size(request):
    with mock.patch.object(_jsonio, "_CHUNK_BYTES", request.param):
        yield request.param


def from_file(load, data: bytes):
    """load(f) for a seekable binary file f that holds data."""
    with tempfile.TemporaryFile() as f:
        f.write(data)
        f.seek(0)
        return load(f)


def assert_file_reads_as_the_whole_parse(load, data):
    want = outcome(lambda d: whole_parse_only(load, d), data)
    assert outcome(lambda d: from_file(load, d), data) == want
    return want


def test_saved_files_take_the_block_path_from_a_file(read_size):
    for data, arrays in ((save_network(BLOCK_NET), ("weights", "bias")),
                         (save_scene(BLOCK_SCENE), ("data",))):
        assert from_file(lambda f: _jsonio._block_doc(f, arrays), data) is not None
    assert from_file(load_network, save_network(BLOCK_NET)) == BLOCK_NET
    assert from_file(load_scene, save_scene(BLOCK_SCENE)).fmap == BLOCK_SCENE.fmap


def test_a_file_is_read_from_where_it_stands():
    data = save_network(BLOCK_NET)
    with tempfile.TemporaryFile() as f:
        f.write(b"ignored" + data)
        f.seek(len(b"ignored"))
        assert load_network(f) == BLOCK_NET
        # a file the block path declines is read again from there, whole
        f.seek(0)
        f.write(b"ignored" + data.replace(b"\n", b"\r\n"))
        f.seek(len(b"ignored"))
        assert load_network(f) == BLOCK_NET


@pytest.mark.parametrize("pairs,want", MODEL_ROW_FAULTS)
def test_model_row_faults_from_a_file_are_unchanged(read_size, pairs, want):
    data = edit(save_network(BLOCK_NET), *pairs)
    assert assert_file_reads_as_the_whole_parse(load_network, data) == (FormatError, want)


@pytest.mark.parametrize("pairs,want", SCENE_ROW_FAULTS)
def test_scene_row_faults_from_a_file_are_unchanged(read_size, pairs, want):
    data = edit(save_scene(BLOCK_SCENE), *pairs)
    assert assert_file_reads_as_the_whole_parse(load_scene, data) == (FormatError, want)


@pytest.mark.parametrize("change", ODD_LAYOUTS)
def test_block_faults_and_odd_layouts_from_a_file_are_read_as_the_whole_parse(read_size, change):
    assert_file_reads_as_the_whole_parse(load_network, change(save_network(BLOCK_NET)))


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xe2\x82"])
def test_bytes_that_are_not_utf8_from_a_file_are_a_format_error(read_size, bad):
    # a byte sequence cut short or invalid, in a row and at the very end
    for data in (save_network(BLOCK_NET).replace(b"1.5", b"1." + bad + b"5"),
                 save_network(BLOCK_NET) + bad):
        cls, msg = assert_file_reads_as_the_whole_parse(load_network, data)
        assert cls is FormatError and msg.startswith("model file is not UTF-8: ")


def test_a_fault_found_mid_stream_reads_the_file_again(tmp_path):
    data = save_network(gen_network([40, 30, 5], seed=2))
    close = data.rindex(b"\n],\n")  # the closing line of the last block
    row = data.rindex(b"\n", 0, close) + 1
    data = data[:row] + b"true, " + data[row:]
    path = tmp_path / "m.net"
    path.write_bytes(data)
    block_doc, stops = _jsonio._block_doc, []

    def spy(f, arrays):
        doc = block_doc(f, arrays)
        stops.append((doc, f.tell()))
        return doc

    with mock.patch.object(_jsonio, "_CHUNK_BYTES", 7), \
            mock.patch.object(_jsonio, "_block_doc", spy), \
            mock.patch.object(_jsonio, "_loads", wraps=_jsonio._loads) as loads:
        with open(path, "rb") as f:
            got = outcome(load_network, f)
    [(doc, stopped_at)] = stops
    # the block path gave up past the fault and before the end, then the
    # whole parse read the file again from its start
    assert doc is None and close < stopped_at < len(data)
    assert loads.call_args.args[0] == data
    assert got == outcome(load_network, data) == (
        FormatError, "layer 1 weights: expected numbers, found bool")


def test_a_pipe_is_read_whole_and_gives_the_same_network(tmp_path):
    net = gen_network([20, 10, 3], sparsity=0.3, seed=4)
    fifo = tmp_path / "m.net"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(save_network(net),), daemon=True)
    writer.start()
    try:
        with open(fifo, "rb") as f:
            assert not f.seekable()
            got = load_network(f)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert_same_network(got, net)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda rc: st.tuples(st.just(rc), st.lists(_tokens, min_size=rc[0] * rc[1],
                                                   max_size=rc[0] * rc[1]))),
    chunk=st.sampled_from([1, 7, 40]),
)
def test_block_rows_from_a_file_convert_as_the_plain_parse(shape, chunk):
    (rows, cols), tokens = shape
    lines = [", ".join(tokens[r * cols : (r + 1) * cols]) for r in range(rows)]
    text = "\n".join([
        "{", '"version": 1,', '"labels": null,', '"layers": [', "{",
        '"activation": "identity",', f'"rows": {rows},', f'"cols": {cols},',
        '"weights": [', ",\n".join(lines), "],", f'"bias": [{", ".join(["0.5"] * rows)}]',
        "}", "]", "}", "",
    ]).encode()
    with mock.patch.object(_jsonio, "_CHUNK_BYTES", chunk):
        assert from_file(lambda f: _jsonio._block_doc(f, ("weights", "bias")), text) is not None
        doc = from_file(lambda f: _jsonio.parse_doc(f, "model", arrays=("weights", "bias")), text)
        got = doc["layers"][0]["weights"]
        want = np.array(json.loads(text)["layers"][0]["weights"], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert outcome(lambda d: from_file(load_network, d), text) == outcome(load_network, text)


def test_a_load_from_a_file_holds_about_one_copy_of_the_arrays(tmp_path):
    # no text and no second copy: the parsed arrays become the layers'
    net = gen_network([1024, 1024, 10], seed=3)
    path = tmp_path / "m.net"
    path.write_bytes(save_network(net))
    array_bytes = sum(lay.weights.nbytes + lay.bias.nbytes for lay in net.layers)

    def load(p):
        with open(p, "rb") as f:
            return load_network(f)

    assert traced_peak(load, path) < 1.5 * array_bytes
