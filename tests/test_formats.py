"""Golden layouts: the exact bytes of every artifact format for tiny inputs.

Round-trip and determinism tests cannot see a layout change, because both
sides of the comparison come from the same writer. These pin the bytes.
"""

import math

import numpy as np
import pytest

from unitprune import (
    ActivationKind,
    ContractViolation,
    DenseLayer,
    FeatureMap,
    LabelMap,
    Network,
    PruneConfig,
    PruneSelection,
    Roi,
    Scene,
    prune_input_channels,
    prune_output_topn,
    prune_units,
    save_labelmap,
    save_network,
    save_report,
    save_scene,
)
from unitprune import _jsonio
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
    text = save_scene(scene([Roi(0, 1, 3, 2), Roi(1, 0, 2, 2)]))
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
