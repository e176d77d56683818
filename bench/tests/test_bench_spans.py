import numpy as np
import pytest

import unitprune
from unitprune import linalg, model
from spans import Tracer, self_times, totals


def test_self_time_subtracts_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),  # overlaps its sibling a on [3, 4]
        ("c", 8.0, 12.0, 0, 0),  # runs past its parent; clipped to [8, 10]
        ("d", 1.5, 2.5, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_self_time_of_nested_identical_siblings():
    spans = [
        ("root", 0.0, 4.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("leaf", 0.0, 1.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 2.0, 1.0])
    t = totals(spans)
    assert t["a"] == pytest.approx({"calls": 2, "s": 4.0, "self_s": 4.0})
    assert t["root"]["self_s"] == pytest.approx(2.0)


def test_tracer_spans_nested_calls_and_restores_originals():
    net = model.gen_network([6, 4, 3], seed=1)
    x = np.linspace(-1.0, 1.0, 6)
    originals = (model.output, model.forward, linalg.matvec, unitprune.output)
    tracer = Tracer()
    tracer.install()
    try:
        assert unitprune.output is model.output  # re-exports are rebound too
        got = unitprune.output(net, x)
    finally:
        tracer.uninstall()
    assert (model.output, model.forward, linalg.matvec, unitprune.output) == originals
    assert linalg.fmt_float.__module__ == "unitprune.linalg"
    names = [s[0] for s in tracer.spans]
    assert names.count("model.output") == 1
    assert names.count("linalg.matvec") == 2
    assert "linalg.fmt_float" not in names
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    for s in tracer.spans:
        if s[0] == "linalg.matvec":
            assert by_index[s[3]][0] == "model.forward"
    assert tracer.counts["linalg.matvec.macs"] == 6 * 4 + 4 * 3
    assert got.tobytes() == model.output(net, x).tobytes()
