"""model tests: forward semantics, accounting, generation, serialization."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitprune.errors import ContractViolation, FormatError, ValidationError
from unitprune.model import (
    ActivationKind,
    DenseLayer,
    Network,
    forward,
    gen_network,
    load_network,
    output,
    param_count,
    save_network,
)


def ref_forward(layers, x):
    """Reference forward pass: plain loops, left-to-right sums seeded at 0.0."""
    h = [float(v) for v in x]
    for w, b, act in layers:
        z = []
        for i in range(len(b)):
            acc = 0.0
            for j in range(len(h)):
                acc = acc + w[i][j] * h[j]
            acc = b[i] + acc
            z.append(max(acc, 0.0) if act == "relu" else acc)
        h = z
    return h


def relu_layer(w, b):
    return DenseLayer(np.array(w, dtype=float), np.array(b, dtype=float))


def id_layer(w, b):
    return DenseLayer(
        np.array(w, dtype=float), np.array(b, dtype=float), ActivationKind.IDENTITY
    )


class TestForward:
    def test_single_layer_positive(self):
        net = Network((relu_layer([[1, 2], [3, 4]], [0, 0]),))
        prof = forward(net, [1.0, 1.0])
        assert prof[0].tolist() == [3.0, 7.0]

    def test_relu_clamps(self):
        net = Network((relu_layer([[1, -1]], [-5]),))
        assert forward(net, [1.0, 2.0])[0].tolist() == [0.0]

    def test_two_layer_chain(self):
        net = Network(
            (relu_layer([[1, 0], [0, 1]], [0, 0]), id_layer([[1, 1]], [0]))
        )
        assert output(net, [2.0, 3.0]).tolist() == [5.0]

    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        w0 = rng.uniform(-1, 1, size=(5, 3))
        b0 = rng.uniform(-1, 1, size=5)
        w1 = rng.uniform(-1, 1, size=(2, 5))
        b1 = rng.uniform(-1, 1, size=2)
        net = Network((DenseLayer(w0, b0), id_layer(w1, b1)))
        x = rng.uniform(-1, 1, size=3)
        want = ref_forward(
            [(w0.tolist(), b0.tolist(), "relu"), (w1.tolist(), b1.tolist(), "id")],
            x,
        )
        assert output(net, x).tobytes() == np.array(want).tobytes()

    def test_dimension_mismatch_names_layer(self):
        net = Network((relu_layer([[1, 2]], [0]),))
        with pytest.raises(ContractViolation, match="layer 0"):
            forward(net, [1.0, 2.0, 3.0])

    def test_empty_output_network(self):
        net = Network((relu_layer(np.zeros((0, 3)), np.zeros(0)),))
        assert output(net, [1.0, 2.0, 3.0]).shape == (0,)

    def test_identity_affine(self):
        net = Network((id_layer([[2]], [1]),))
        assert output(net, [3.0]).tolist() == [7.0]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_relu_profile_nonnegative(self, seed):
        net = gen_network([4, 6, 5, 3], seed=seed)
        x = np.random.default_rng(seed ^ 0xA5).uniform(-2, 2, size=4)
        prof = forward(net, x)
        for h in prof[:-1]:
            assert (h >= 0.0).all()

    def test_concurrent_forward_bit_identical(self):
        net = gen_network([30, 20, 10], seed=2)
        x = np.random.default_rng(7).uniform(-1, 1, size=30)
        want = output(net, x).tobytes()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: output(net, x).tobytes(), range(32)))
        assert all(r == want for r in results)


class TestValidation:
    def test_bias_length_mismatch(self):
        with pytest.raises(ValidationError):
            DenseLayer(np.ones((2, 2)), np.ones(3))

    def test_chain_mismatch_names_layers(self):
        with pytest.raises(ValidationError, match="layer 0.*layer 1"):
            Network((relu_layer([[1, 2]], [0]), relu_layer([[1, 1]], [0])))

    def test_identity_only_final(self):
        with pytest.raises(ValidationError):
            Network((id_layer([[1]], [0]), relu_layer([[1]], [0])))

    def test_labels_wrong_length(self):
        with pytest.raises(ValidationError):
            Network((relu_layer([[1], [2]], [0, 0]),), labels=("a",))

    def test_arrays_read_only(self):
        lay = relu_layer([[1.0]], [0.0])
        with pytest.raises(ValueError):
            lay.weights[0, 0] = 9.0

    def test_a_layer_copies_the_caller_arrays_and_a_loaded_one_keeps_the_parsed(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        lay = DenseLayer(w, b)
        assert not np.shares_memory(lay.weights, w) and not np.shares_memory(lay.bias, b)
        assert w.flags.writeable and b.flags.writeable
        # the loader hands over arrays nothing else holds, so they are not copied
        kept = DenseLayer._adopt(w, b, ActivationKind.RELU)
        assert np.shares_memory(kept.weights, w) and np.shares_memory(kept.bias, b)
        assert not kept.weights.flags.writeable and not kept.bias.flags.writeable
        with pytest.raises(ValidationError, match="bias has 3 entries"):
            DenseLayer._adopt(w, np.zeros(3), ActivationKind.RELU)


class TestParamCount:
    def test_3_4_2(self):
        net = gen_network([3, 4, 2], seed=0)
        pc = param_count(net)
        assert pc.total == 26
        assert pc.macs == 20
        assert pc.per_layer == ((12, 4), (8, 2))

    def test_wide_stub(self):
        # 512 channels pooled 7x7 into 4096 units
        cols = 512 * 7 * 7
        assert cols == 25088
        lay = DenseLayer(np.zeros((4096, cols)), np.zeros(4096))
        pc = param_count(Network((lay,)))
        assert pc.total == 4096 * 25088 + 4096 == 102764544

    def test_empty_network(self):
        pc = param_count(Network(()))
        assert pc.total == 0 and pc.macs == 0 and pc.per_layer == ()

    def test_closed_form_matches_generator(self):
        sizes = [7, 5, 6, 2]
        pc = param_count(gen_network(sizes, seed=1))
        want = sum(sizes[k + 1] * sizes[k] + sizes[k + 1] for k in range(len(sizes) - 1))
        assert pc.total == want


class TestGen:
    def test_determinism(self):
        a = save_network(gen_network([10, 8, 3], sparsity=0.4, seed=9))
        b = save_network(gen_network([10, 8, 3], sparsity=0.4, seed=9))
        assert a == b

    def test_different_seeds_differ(self):
        a = save_network(gen_network([4, 3], seed=0))
        b = save_network(gen_network([4, 3], seed=1))
        assert a != b

    def test_sparsity_one_kills_hidden_layer(self):
        net = gen_network([6, 8, 2], sparsity=1.0, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            prof = forward(net, rng.uniform(-5, 5, size=6))
            assert prof[0].tolist() == [0.0] * 8

    def test_sparsity_fraction_exact(self):
        net = gen_network([100, 50, 10], sparsity=0.3, seed=7)
        w = net.layers[0].weights
        zero_rows = int((~w.any(axis=1)).sum())
        assert zero_rows == 15  # round(0.3 * 50)
        assert all(net.layers[0].bias[i] == 0.0 for i in range(50) if not w[i].any())

    def test_invalid_sparsity(self):
        with pytest.raises(ContractViolation):
            gen_network([3, 2], sparsity=1.5)
        with pytest.raises(ContractViolation):
            gen_network([3, 2], sparsity=-0.1)

    def test_empty_sizes(self):
        with pytest.raises(ContractViolation):
            gen_network([])

    def test_negative_seed(self):
        with pytest.raises(ContractViolation, match="^seed must be nonnegative, got -1$"):
            gen_network([3, 2], seed=-1)


class TestSerialization:
    def test_round_trip_equality(self):
        net = gen_network([3, 4, 2], sparsity=0.5, seed=5)
        again = load_network(save_network(net))
        assert again == net

    def test_save_load_save_byte_identical(self):
        net = gen_network([5, 4, 3], sparsity=0.25, seed=8)
        blob = save_network(net)
        assert save_network(load_network(blob)) == blob

    def test_negative_zero_survives(self):
        lay = id_layer([[-0.0, 1.5]], [0.0])
        blob = save_network(Network((lay,)))
        back = load_network(blob)
        assert back.layers[0].weights.tobytes() == lay.weights.tobytes()
        assert b"-0.0" in blob

    def test_labels_round_trip(self):
        net = Network((id_layer([[1], [2]], [0, 0]),), labels=("cat", "dog"))
        assert load_network(save_network(net)).labels == ("cat", "dog")

    def test_truncated_stream(self):
        blob = save_network(gen_network([3, 2], seed=0))
        with pytest.raises(FormatError):
            load_network(blob[: len(blob) // 2])

    def test_chain_violation_in_file(self):
        doc = """{"version": 1, "labels": null, "layers": [
            {"activation": "relu", "rows": 1, "cols": 2, "weights": [1, 2], "bias": [0]},
            {"activation": "relu", "rows": 1, "cols": 3, "weights": [1, 1, 1], "bias": [0]}
        ]}"""
        with pytest.raises(ValidationError, match="layer 0"):
            load_network(doc)

    def test_weight_count_mismatch(self):
        doc = """{"version": 1, "layers": [
            {"activation": "relu", "rows": 2, "cols": 2, "weights": [1, 2, 3], "bias": [0, 0]}
        ]}"""
        with pytest.raises(FormatError, match="expected 4"):
            load_network(doc)

    def test_nan_rejected(self):
        doc = """{"version": 1, "layers": [
            {"activation": "relu", "rows": 1, "cols": 1, "weights": [NaN], "bias": [0]}
        ]}"""
        with pytest.raises(FormatError):
            load_network(doc)

    def test_unknown_activation(self):
        doc = """{"version": 1, "layers": [
            {"activation": "tanh", "rows": 1, "cols": 1, "weights": [1], "bias": [0]}
        ]}"""
        with pytest.raises(FormatError, match="tanh"):
            load_network(doc)

    def test_unsupported_version(self):
        with pytest.raises(FormatError, match="version"):
            load_network('{"version": 2, "layers": []}')

    def test_zero_dim_layers_round_trip(self):
        net = Network((relu_layer(np.zeros((0, 4)), np.zeros(0)),))
        assert load_network(save_network(net)) == net

    def test_zero_input_layer_round_trip(self):
        # rows with no entries must still serialize to parseable weights
        net = Network(
            (DenseLayer(np.zeros((3, 0)), np.array([0.5, -0.5, 1.0]), ActivationKind.IDENTITY),)
        )
        back = load_network(save_network(net))
        assert back == net
        assert output(back, np.zeros(0)).tolist() == [0.5, -0.5, 1.0]


# -- one forward for one input or a batch ---------------------------------------


@st.composite
def net_and_batch(draw):
    """Up to three layers, zero-unit ones included, and an (n, d) batch with n from 0.

    Weights mix ±0.0 and subnormals with values up to 1.7e308, so sums can
    overflow to inf and inf - inf to NaN; inputs mix ±0.0 and subnormals too.
    """
    sizes = draw(st.lists(st.integers(0, 5), min_size=2, max_size=4))
    scale = draw(st.sampled_from([1.0, 1e-300, 1.7e308]))
    tiny = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308])
    weight = st.one_of(tiny, st.floats(-1.0, 1.0, width=64).map(lambda t: t * scale))
    layers = []
    for k, (fan_in, units) in enumerate(zip(sizes, sizes[1:])):
        w = draw(st.lists(weight, min_size=units * fan_in, max_size=units * fan_in))
        b = draw(st.lists(weight, min_size=units, max_size=units))
        last = k == len(sizes) - 2
        act = ActivationKind.IDENTITY if last and draw(st.booleans()) else ActivationKind.RELU
        layers.append(DenseLayer(np.array(w, dtype=float).reshape(units, fan_in), b, act))
    n = draw(st.integers(0, 4))
    x = st.one_of(tiny, st.floats(-1e10, 1e10, allow_nan=False, width=64))
    xs = draw(st.lists(x, min_size=n * sizes[0], max_size=n * sizes[0]))
    return Network(tuple(layers)), np.array(xs, dtype=float).reshape(n, sizes[0])


@st.composite
def wide_net_and_batch(draw):
    """A first layer of 4096 inputs or more, then a narrow one, and an (n, d) batch.

    Hypothesis cannot draw that many floats one by one, so a drawn seed fills
    the arrays and drawn positions take ±0.0 and subnormals; weights are
    scaled to 1e-300 or 1.7e308, where long sums underflow or overflow.
    """
    fan_in = draw(st.sampled_from([4096, 4097, 6000]))
    units, outputs, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 4))
    scale = draw(st.sampled_from([1e-300, 1.7e308]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tiny = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308])
    w = rng.uniform(-1.0, 1.0, (units, fan_in)) * scale
    xs = rng.uniform(-1e10, 1e10, (n, fan_in))
    for a in (w, xs):
        for _ in range(draw(st.integers(0, 8)) if a.size else 0):
            a.flat[draw(st.integers(0, a.size - 1))] = draw(tiny)
    act = ActivationKind.IDENTITY if draw(st.booleans()) else ActivationKind.RELU
    layers = (
        DenseLayer(w, rng.uniform(-1.0, 1.0, units) * scale),
        DenseLayer(rng.uniform(-1.0, 1.0, (outputs, units)) * scale, np.zeros(outputs), act),
    )
    return Network(layers), xs


@settings(deadline=None, max_examples=300)
@given(net_and_batch())
def test_batch_forward_rows_equal_single_forwards(nx):
    assert_rows_equal_single_forwards(*nx)


@settings(deadline=None, max_examples=40)
@given(wide_net_and_batch())
def test_wide_batch_forward_rows_equal_single_forwards(nx):
    assert_rows_equal_single_forwards(*nx)


def assert_rows_equal_single_forwards(net, xs):
    # the overflow to inf/NaN is the result under test, not a fault
    with np.errstate(over="ignore", invalid="ignore"):
        batch = forward(net, xs)
        singles = [forward(net, x) for x in xs]
        out = output(net, xs)
    assert len(batch) == len(net.layers)
    for k, (lay, h) in enumerate(zip(net.layers, batch)):
        assert h.shape == (xs.shape[0], lay.units)
        assert not h.flags.writeable
        for r, per in enumerate(singles):
            assert h[r].tobytes() == per[k].tobytes()
    assert out.tobytes() == batch[-1].tobytes()


def test_batch_forward_overflow_example_has_nan():
    w = np.full((2, 2), 1.7e308)
    net = Network((DenseLayer(w, [0.0, 0.0]), DenseLayer([[1.0, -1.0], [1.0, 1.0]], [0.0, 0.0])))
    xs = np.array([[1.0, 1.0], [2.0, -0.0], [0.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        batch = forward(net, xs)
        singles = [forward(net, x) for x in xs]
    assert np.isinf(batch[0][0, 0]) and np.isnan(batch[1][0, 0])
    for k in range(2):
        assert batch[k].tobytes() == np.stack([s[k] for s in singles]).tobytes()


def test_output_of_an_empty_network_is_a_fresh_copy():
    net = Network(())
    for x in (np.array([1.0, -0.0]), np.array([[1.0, 2.0], [3.0, -0.0]])):
        got = output(net, x)
        assert got.shape == x.shape and got.tobytes() == x.tobytes()
        assert not np.shares_memory(got, x)
        got[...] = 7.0
        assert 7.0 not in x
    assert output(net, [[1, 2]]).dtype == np.float64


def test_forward_shape_errors_name_forward():
    net = gen_network([3, 2], seed=0)
    with pytest.raises(ContractViolation, match=r"forward: input must be \(d,\) or \(n, d\)"):
        forward(net, np.zeros((1, 1, 3)))
    with pytest.raises(ContractViolation, match="forward: layer 0 expects 3 inputs, got 4"):
        output(net, np.zeros((2, 4)))
