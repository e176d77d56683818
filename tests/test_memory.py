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
lets it go before scoring, as long as it was given the only reference.
"""

import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from unitprune import _jsonio, cli, linalg
from unitprune.model import ActivationKind, DenseLayer, Network, gen_network, load_network
from unitprune.prune import PruneConfig, _narrow, channel_drop_bound, prune_input_channels
from unitprune.report import _region_blocks, _same_first_layer, compare_outputs
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
