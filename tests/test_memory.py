"""Peak memory of the exact passes: each holds one bounded block, never a
second copy of the layer it reads.

Every test runs on a 256x3136 layer (6.4 MB of float64, the size of the
README head's layer 0) and measures with tracemalloc, as the pooled-block
tests in test_report.py do: the peak of the call, as a fraction of the
layer's bytes, with the layer and the inputs made before measuring starts.
The gen_network test measures the call that draws such a layer, against the
bytes of the model it returns.

The last tests check that eval holds each first-layer weight once: when the
pruned first layer is the original's on the kept columns, compare_outputs
lets it go before scoring, as long as it was given the only reference. A
prune given the only reference to its model likewise lets each source layer
go once its narrowed copy is built, the smaller first.
"""

import json
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from unitprune import _jsonio, cli, linalg, prune
from unitprune.model import ActivationKind, DenseLayer, Network, forward, gen_network, load_network
from unitprune.prune import (
    PruneConfig,
    _narrow,
    channel_drop_bound,
    prune_input_channels,
    prune_output_topn,
    prune_units,
    select_units,
)
from unitprune.report import _region_blocks, _same_first_layer, compare_outputs, sweep
from unitprune.scene import channel_sums, gen_scene

UNITS, INPUTS = 256, 64 * 49
LAYER_BYTES = UNITS * INPUTS * 8


def peak_fraction(run):
    """Peak bytes tracemalloc sees while run() runs, over the layer's bytes."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / LAYER_BYTES


def layer(seed=0):
    rng = np.random.default_rng(seed)
    return DenseLayer(rng.uniform(-1.0, 1.0, (UNITS, INPUTS)), rng.uniform(-1.0, 1.0, UNITS))


def half_the_columns(seed=0):
    return np.sort(np.random.default_rng(seed).choice(INPUTS, INPUTS // 2, replace=False))


def test_matvec():
    w = layer().weights
    v = np.zeros(INPUTS)
    v[np.random.default_rng(1).choice(INPUTS, 1024, replace=False)] = 0.5
    # a whole product matrix of the live columns would be a third of the layer
    assert peak_fraction(lambda: linalg.matvec(w, v)) < 0.1


def test_nested_matmat_on_a_block():
    w = layer().weights
    xs = np.zeros((256, INPUTS), order="F")
    xs[:, half_the_columns()] = 0.5
    depth = np.ones(INPUTS, dtype=np.intp)
    depth[::3] = 2
    # the accumulator, its copy where the members part and a product buffer,
    # each 256x256, make a quarter of the layer; whole gathers would add all of it
    assert peak_fraction(lambda: linalg.nested_matmat(w, xs, depth, 2)) < 0.5


def test_channel_drop_bound():
    net = Network((layer(), DenseLayer(np.ones((4, UNITS)), np.zeros(4), ActivationKind.IDENTITY)))
    sums = np.random.default_rng(2).uniform(1.0, 2.0, 64)
    # 16 dropped channels gather a quarter of the layer; |w| is read a block at a time
    assert peak_fraction(lambda: channel_drop_bound(net, sums, 7, 7, np.arange(0, 64, 4))) < 0.5


def test_same_first_layer():
    keep = half_the_columns()
    original = Network((layer(),))
    pruned = _narrow(original, 0, keep)
    # a narrowed copy of the layer would be half of it
    assert peak_fraction(lambda: _same_first_layer(original, pruned, keep)) < 0.25
    assert peak_fraction(lambda: _same_first_layer(original, original, None)) < 0.25


def test_same_first_layer_compares_a_row_at_a_time():
    keep = half_the_columns()
    original = Network((layer(),))
    pruned = _narrow(original, 0, keep)
    # a block of linalg._BLOCK rows of the keep columns would be an eighth of the layer
    assert peak_fraction(lambda: _same_first_layer(original, pruned, keep)) < 0.05
    assert peak_fraction(lambda: _same_first_layer(original, original, None)) < 0.05


@pytest.mark.parametrize("check", [linalg.matrix, lambda w: _jsonio._check_finite(w, "weights")])
def test_finiteness_checks_read_a_block_of_rows_at_a_time(check):
    w = layer().weights
    # np.isfinite of the whole layer would be a bool array an eighth of its bytes
    assert peak_fraction(lambda: check(w)) < 1 / 16


def test_narrow_adopts_what_it_gathers():
    net = Network((layer(),))
    # the new layer is half the old one; a second copy of it would make a whole
    assert peak_fraction(lambda: _narrow(net, 0, half_the_columns())) < 0.75


def test_dense_layer_equality_compares_in_place():
    a, b = layer(), layer()
    # tobytes() of both would be two whole layers; comparing 64 rows at a time
    # makes a bool array of 64 rows, a 32nd of the layer's bytes
    assert peak_fraction(lambda: a == b) < 1 / 16


def test_sweep_holds_one_block_of_sums():
    sc = gen_scene(64, 14, 14, zero_channels=30, n_rois=1024, seed=3)
    net = Network((layer(), DenseLayer(np.ones((20, UNITS)), np.zeros(20), ActivationKind.IDENTITY)))
    sums = np.sort(channel_sums(sc.fmap))
    taus = [0.0, float(sums[40]), float(sums[50])]
    tracemalloc.start()
    try:
        sweep(net, sc, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block's first-layer sums: at most one 256x256 accumulator per member,
    # the original and each threshold's network; the last block's sums held
    # while the next is scored would take about twice that
    block_sums = (len(taus) + 1) * 256 * UNITS * 8
    assert peak < 1.75 * block_sums


def test_gen_network_adopts_what_it_draws():
    sizes = (INPUTS, UNITS, 64, 20)
    tracemalloc.start()
    try:
        net = gen_network(sizes, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    model_bytes = sum(lay.weights.nbytes + lay.bias.nbytes for lay in net.layers)
    # each layer is the rng's own arrays; a copy of layer 0 would add most of the model again
    assert peak / model_bytes < 1.5


# CPython 3.10 keeps a call's arguments on the caller's stack until the call
# returns, so a callee cannot hold the only reference to one there.
callee_owns_its_arguments = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="the caller holds each argument until the call returns"
)


@callee_owns_its_arguments
def test_compare_outputs_lets_a_shared_first_layer_go_before_scoring():
    sc = gen_scene(64, 14, 14, zero_channels=30, n_rois=20, seed=3)
    net = gen_network((sc.pooled_width, 32, 4), seed=3)
    pruned, rep = prune_input_channels(
        net, channel_sums(sc.fmap), sc.pool_h, sc.pool_w, PruneConfig(0.0)
    )
    first = weakref.ref(pruned.layers[0])
    alive = []

    def blocks():
        alive.append(first() is not None)
        yield from _region_blocks(sc)

    only = [pruned]
    del pruned
    got = compare_outputs(net, only.pop(), blocks(), input_keep=rep.selections[0].kept)
    assert got.max_abs == 0.0 and got.n_examples == 20
    assert alive == [False]


@callee_owns_its_arguments
@pytest.mark.parametrize("cache", ["hit", "parse"])
def test_eval_holds_one_copy_of_the_shared_first_layer(tmp_path, monkeypatch, capsys, cache):
    # the README session's head and scene; the tau=0 prune keeps 34 of 64 channels
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["gen-scene", "--c", "64", "--h", "14", "--w", "14", "--zero-channels", "30",
         "--n-rois", "200", "--seed", "3", "--out", "s.scene"],
        ["gen-net", "--sizes", "3136,256,64,20", "--seed", "3", "--out", "a.net"],
        ["prune", "--model", "a.net", "--scene", "s.scene", "--tau", "0", "--out", "b.net",
         "--report", "b.report"],
    ):
        assert cli.main(argv) == 0
    if cache == "parse":
        # a regular file can hold no cache directory, so every load parses its text
        (tmp_path / "no-cache").touch()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "no-cache"))
    models = sum(a.nbytes for name in ("a.net", "b.net")
                 for layer in load_network((tmp_path / name).read_bytes()).layers
                 for a in (layer.weights, layer.bias))
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert cli.main(["eval", "--model-a", "a.net", "--model-b", "b.net",
                         "--scene", "s.scene", "--report", "b.report"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert '"max_abs": 0.0' in capsys.readouterr().out
    # model-b's first layer (256x1666, 3.4 MB) is gone before scoring, whose
    # accumulators and windows would otherwise come on top of both models
    # (1.94 MB); what is left is a load's text and buffers (1.1 MB when parsing)
    assert peak - models < 1.5e6


def model_bytes(net):
    return sum(lay.weights.nbytes + lay.bias.nbytes for lay in net.layers)


@callee_owns_its_arguments
def test_prune_units_lets_each_source_layer_go_once_it_is_narrowed():
    # the benchmark's probe-deep model, pruned at layer 0 by a probe at threshold 0
    tracemalloc.start()
    try:
        net = gen_network((1024, 512, 512, 512, 256, 100), sparsity=0.3, seed=5)
        profile = forward(net, np.random.default_rng(5).uniform(-1.0, 1.0, 1024))
        sel = select_units(profile[0], PruneConfig(0.0), layer=0)
        only = [net]
        del net
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pruned, _ = prune_units(only.pop(), 0, sel, profile=profile)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    k = sel.kept.size
    assert pruned.layers[0].weights.shape == (k, 1024) and pruned.layers[1].inputs == k
    # layer 1's k kept columns (512 x k) are built first and its source goes;
    # then layer 0's k kept rows (k x 1024) take less than that source gave back.
    # Holding the source model while both new layers are built adds 3x as much.
    smaller = 512 * k * 8
    assert peak < smaller + 0.25e6


@callee_owns_its_arguments
@pytest.mark.parametrize("cache", ["hit", "parse"])
def test_probe_prune_holds_less_than_both_models(tmp_path, monkeypatch, cache):
    # two large layers, 512x1024 and 512x512, and a small output layer
    monkeypatch.chdir(tmp_path)
    probe = np.random.default_rng(3).uniform(-1.0, 1.0, 1024)
    (tmp_path / "probe.json").write_text(json.dumps(probe.tolist()))
    assert cli.main(["gen-net", "--sizes", "1024,512,512,10", "--sparsity", "0.3",
                     "--seed", "3", "--out", "a.net"]) == 0
    if cache == "parse":
        # a regular file can hold no cache directory, so the load parses the text
        (tmp_path / "no-cache").touch()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "no-cache"))
    tracemalloc.start()
    try:
        assert cli.main(["prune", "--model", "a.net", "--probe", "probe.json", "--layer", "0",
                         "--tau", "0", "--out", "b.net", "--report", "b.report"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    models = sum(model_bytes(load_network((tmp_path / name).read_bytes()))
                 for name in ("a.net", "b.net"))
    # holding the source model while both narrowed layers are built is both
    # models' bytes here, the output layer aside; layer 1's source (2.1 MB)
    # goes before layer 0's kept rows (about 1.5 MB) are built
    assert peak < models - 0.5e6


def source_alive_at_report(monkeypatch, source_layer):
    """Whether source_layer was alive each time a prune built its report, after _narrow.

    The one layer a prune at the input or the output rebuilds goes as soon
    as its narrowed copy exists, if no one but the prune held its network.
    """
    alive, source, build = [], weakref.ref(source_layer), prune.PruneReport
    del source_layer

    def report(*args):
        alive.append(source() is not None)
        return build(*args)

    monkeypatch.setattr(prune, "PruneReport", report)
    return alive


@callee_owns_its_arguments
def test_prune_input_channels_lets_the_source_layer_go_once_it_is_narrowed(monkeypatch):
    sc = gen_scene(64, 14, 14, zero_channels=30, n_rois=1, seed=3)
    net = gen_network((sc.pooled_width, 32, 4), seed=3)
    alive = source_alive_at_report(monkeypatch, net.layers[0])
    only = [net]
    del net
    pruned, rep = prune_input_channels(
        only.pop(), channel_sums(sc.fmap), sc.pool_h, sc.pool_w, PruneConfig(0.0)
    )
    assert pruned.input_dim == 34 * 49 and rep.kind == "input-channels"
    assert alive == [False]


@callee_owns_its_arguments
def test_prune_output_topn_lets_the_source_layer_go_once_it_is_narrowed(monkeypatch):
    net = gen_network((16, 8, 5), seed=4)
    alive = source_alive_at_report(monkeypatch, net.layers[-1])
    only = [net]
    del net
    pruned, label_map, rep = prune_output_topn(only.pop(), [0.3, 0.9, 0.1, 0.8, 0.5], 2)
    assert label_map.indices.tolist() == [1, 3] and pruned.output_dim == 2
    assert rep.kind == "topn" and alive == [False]
