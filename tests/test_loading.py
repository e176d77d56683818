"""Loading converts each named numeric field as the parser closes its object.

A loaded model or scene must equal what a plain json.loads of the same text
gives, byte for byte; a malformed file must fail with the same exception
class and message, in the same order, as when every field was checked after
parsing; and a load must hold less memory than json.loads' lists of floats.
"""

import json
import tracemalloc

import numpy as np
import pytest

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
