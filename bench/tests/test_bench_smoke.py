"""Tiny-size runs of every workload, untraced and traced."""

import json
from dataclasses import replace

import pytest

from conftest import ROOT
from run import run
from workloads import DeepSizes, SceneSizes, probe_deep, roi_eval, roi_sweep

SCENE = SceneSizes(channels=8, zero_channels=3, n_rois=5, tau_pruned=6, sweep_pruned=(4, 5, 7))
TINY = {
    "roi-eval": roi_eval(1, replace(SCENE, net="392,16,8,20")),
    "roi-sweep": roi_sweep(2, replace(SCENE, net="392,8,20")),
    "probe-deep": probe_deep(3, DeepSizes(net="64,32,32,16,10", top=4)),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted(name, trace):
    result = run(f"smoke-{name}", TINY[name], 0.1, trace, ROOT)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
