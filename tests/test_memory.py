"""Peak memory of the exact passes: each holds one bounded block, never a
second copy of the layer it reads.

Every test runs on a 256x3136 layer (6.4 MB of float64, the size of the
README head's layer 0) and measures with tracemalloc, as the pooled-block
tests in test_report.py do: the peak of the call, as a fraction of the
layer's bytes, with the layer and the inputs made before measuring starts.
The gen_network test measures the call that draws such a layer, against the
bytes of the model it returns.
"""

import tracemalloc

import numpy as np

from unitprune import linalg
from unitprune.model import ActivationKind, DenseLayer, Network, gen_network
from unitprune.prune import _narrow, channel_drop_bound
from unitprune.report import _same_first_layer

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
