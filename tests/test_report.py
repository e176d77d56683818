"""report tests: deviation measurement over collections and threshold sweeps."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from unitprune import cli, linalg, report
from unitprune.errors import ContractViolation
from unitprune.model import (
    ActivationKind,
    DenseLayer,
    Network,
    gen_network,
    load_network,
    output,
)
from unitprune.prune import PruneConfig, prune_input_channels, prune_output_topn
from unitprune.report import (
    SWEEP_CSV_HEADER,
    _region_blocks,
    DeviationReport,
    SweepPoint,
    compare_outputs,
    deviation_json,
    sweep,
    sweep_csv,
)
from unitprune.scene import (
    FeatureMap,
    Scene,
    _boxes,
    _PooledBlock,
    channel_sums,
    gen_scene,
    pool_regions,
    roi_pool,
)


def id_net(w, b):
    layer = DenseLayer(np.array(w, dtype=float), np.array(b, dtype=float), ActivationKind.IDENTITY)
    return Network((layer,))


def pooled_examples(scene):
    return [roi_pool(scene.fmap, r, scene.pool_h, scene.pool_w) for r in scene.rois]


class TestCompareOutputs:
    def test_identical_networks(self):
        net = gen_network([4, 6, 3], seed=9)
        xs = [np.random.default_rng(i).uniform(-1, 1, size=4) for i in range(5)]
        rep = compare_outputs(net, net, [np.array(xs)])
        assert rep.n_examples == 5
        assert rep.max_abs == 0.0 and rep.mean_abs == 0.0
        assert rep.argmax_agreement == 1.0
        assert rep.bound is None

    def test_exact_zero_scene_pruning(self):
        sc = gen_scene(10, 5, 5, zero_channels=4, n_rois=30, pool_h=2, pool_w=2, seed=7)
        net = gen_network([40, 8, 5], seed=2)
        pruned, prep = prune_input_channels(
            net, channel_sums(sc.fmap), 2, 2, PruneConfig(0.0)
        )
        rep = compare_outputs(
            net,
            pruned,
            [np.array(pooled_examples(sc))],
            input_keep=prep.selections[0].kept,
            bound=prep.deviation_bound,
        )
        assert rep.max_abs == 0.0 and rep.mean_abs == 0.0
        assert rep.argmax_agreement == 1.0
        assert rep.bound == 0.0

    def test_topn_excluding_a_winner_counts_against(self):
        net = id_net([[1, 0], [0, 1], [0, 0]], [0, 0, 0])
        pruned, lm, _ = prune_output_topn(net, [0.9, 0.1, 0.5], 1)
        assert lm.indices.tolist() == [0]
        xs = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]  # winners 1 then 0
        rep = compare_outputs(net, pruned, [np.array(xs)], label_map=lm)
        assert rep.argmax_agreement == 0.5
        assert rep.max_abs == 0.0  # the surviving coordinate itself is untouched

    def test_mean_at_most_max(self):
        sc = gen_scene(6, 4, 4, zero_channels=1, n_rois=20, pool_h=2, pool_w=2, seed=3)
        net = gen_network([24, 7, 4], seed=11)
        sums = channel_sums(sc.fmap)
        tau = float(np.sort(sums)[3])
        pruned, prep = prune_input_channels(net, sums, 2, 2, PruneConfig(tau))
        rep = compare_outputs(
            net, pruned, [np.array(pooled_examples(sc))], input_keep=prep.selections[0].kept
        )
        assert 0.0 <= rep.mean_abs <= rep.max_abs
        assert 0.0 <= rep.argmax_agreement <= 1.0

    def test_width_mismatch_needs_keep_set(self):
        net = gen_network([6, 3], seed=0)
        narrow = gen_network([4, 3], seed=0)
        with pytest.raises(ContractViolation, match="input widths"):
            compare_outputs(net, narrow, [np.zeros((1, 6))])

    def test_output_mismatch_needs_label_map(self):
        net = gen_network([4, 5], seed=0)
        pruned, lm, _ = prune_output_topn(net, [5.0, 4.0, 3.0, 2.0, 1.0], 2)
        with pytest.raises(ContractViolation, match="output widths"):
            compare_outputs(net, pruned, [np.zeros((1, 4))])
        rep = compare_outputs(net, pruned, [np.zeros((1, 4))], label_map=lm)
        assert rep.n_examples == 1

    def test_wrong_keep_size(self):
        net = gen_network([6, 3], seed=0)
        narrow = gen_network([4, 3], seed=0)
        with pytest.raises(ContractViolation, match="keep set"):
            compare_outputs(net, narrow, [np.zeros((1, 6))], input_keep=(0, 1, 2))

    def test_no_examples(self):
        net = gen_network([3, 2], seed=0)
        rep = compare_outputs(net, net, [])
        assert rep.n_examples == 0
        assert rep.max_abs == 0.0 and rep.argmax_agreement == 1.0


class TestSweep:
    def make(self):
        sc = gen_scene(8, 6, 6, zero_channels=3, n_rois=25, pool_h=2, pool_w=2, seed=42)
        net = gen_network([32, 5, 4], seed=3)
        return net, sc

    def test_zero_threshold_point(self):
        net, sc = self.make()
        (pt,) = sweep(net, sc, [0.0])
        assert pt.tau == 0.0
        assert pt.pruned_units == 3
        assert pt.max_abs == 0.0
        assert pt.argmax_agreement == 1.0
        assert pt.bound == 0.0

    def test_full_schedule_monotone_and_sound(self):
        net, sc = self.make()
        sums = np.sort(channel_sums(sc.fmap))
        taus = [0.0, float(sums[4]), float(sums[6]), math.inf]
        points = sweep(net, sc, taus)
        assert [p.tau for p in points] == taus
        for a, b in zip(points, points[1:]):
            assert a.pruned_units <= b.pruned_units
            assert a.param_reduction <= b.param_reduction
            assert a.mac_reduction <= b.mac_reduction
        for p in points:
            assert 0.0 <= p.param_reduction <= 1.0
            assert 0.0 <= p.mac_reduction <= 1.0
            assert p.max_abs <= p.bound

    def test_infinite_threshold_degenerates_to_bias(self):
        net, sc = self.make()
        points = sweep(net, sc, [0.0, math.inf])
        last = points[-1]
        assert last.pruned_units == 8
        assert last.mac_reduction == 1.0
        w0 = net.layers[0].weights.size
        b0 = net.layers[0].bias.size
        assert last.param_reduction == pytest.approx(w0 / (w0 + b0))

    def test_unsorted_thresholds_rejected(self):
        net, sc = self.make()
        with pytest.raises(ContractViolation, match="ascending"):
            sweep(net, sc, [0.5, 0.1])

    def test_empty_thresholds_rejected(self):
        net, sc = self.make()
        with pytest.raises(ContractViolation, match="at least one"):
            sweep(net, sc, [])

    def test_geometry_mismatch_rejected(self):
        _, sc = self.make()
        with pytest.raises(ContractViolation, match="pools to"):
            sweep(gen_network([10, 4], seed=0), sc, [0.0])

    def test_deterministic(self):
        net, sc = self.make()
        taus = [0.0, 1.0, 5.0]
        assert sweep(net, sc, taus) == sweep(net, sc, taus)
        assert sweep_csv(sweep(net, sc, taus)) == sweep_csv(sweep(net, sc, taus))


class TestRendering:
    def test_csv_shape(self):
        net = gen_network([32, 5, 4], seed=3)
        sc = gen_scene(8, 6, 6, zero_channels=3, n_rois=10, pool_h=2, pool_w=2, seed=42)
        text = sweep_csv(sweep(net, sc, [0.0, 2.0]))
        lines = text.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[0] == "tau,pruned_units,param_reduction,mac_reduction,max_abs,argmax_agreement"
        assert len(lines) == 3
        assert text.endswith("\n")
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[1] == "3" and first[4] == "0.0"
        for row in lines[1:]:
            cells = row.split(",")
            assert len(cells) == 6
            float(cells[0])
            int(cells[1])
            for c in cells[2:]:
                assert math.isfinite(float(c))

    def test_deviation_json(self):
        rep = DeviationReport(3, 0.5, 0.25, 1.0, bound=0.75)
        text = deviation_json(rep)
        assert text == (
            '{"n_examples": 3, "max_abs": 0.5, "mean_abs": 0.25, '
            '"argmax_agreement": 1.0, "bound": 0.75}'
        )

    def test_deviation_json_null_bound(self):
        rep = DeviationReport(1, 0.0, 0.0, 1.0)
        assert deviation_json(rep).endswith('"bound": null}')


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_reports_nan_deviation_as_nan():
    # 1e308 weights are finite but overflow: inf - inf leaves NaN differences
    big = np.full((2, 2), 1e308)
    net = Network((DenseLayer(big, [0.0, 0.0]),
                   DenseLayer(big, [0.0, 0.0], ActivationKind.IDENTITY)))
    sc = gen_scene(2, 2, 2, n_rois=3, pool_h=1, pool_w=1, seed=1)
    (pt,) = sweep(net, sc, [0.0])
    assert math.isnan(pt.max_abs)


@pytest.mark.parametrize(
    "column", ["param_reduction", "mac_reduction", "max_abs", "argmax_agreement"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sweep_csv_refuses_non_finite_measurement(column, value):
    good = SweepPoint(0.0, 1, 0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ContractViolation, match=column):
        sweep_csv([good, dataclasses.replace(good, **{column: value})])


def test_sweep_csv_writes_infinite_tau():
    text = sweep_csv([SweepPoint(math.inf, 3, 1.0, 1.0, 2.5, 0.5)])
    assert text.splitlines()[1] == "inf,3,1.0,1.0,2.5,0.5"


# -- per-example reference ----------------------------------------------------
# The scoring loop as it was before batching: one 1-D output() per example and
# network, totals folded one example at a time. The batched report functions
# must reproduce every field of it byte for byte.


def ref_deviation(pairs, kept=None, bound=None):
    n = agree = coords = 0
    max_abs = total_abs = 0.0
    for oa, ob in pairs:
        diff = np.abs((oa if kept is None else oa[kept]) - ob)
        if diff.size:
            max_abs = float(np.maximum(max_abs, diff.max()))
            total_abs += float(diff.sum())
            coords += diff.size
        if oa.size == 0:
            agree += 1
        elif ob.size:
            picked = int(np.argmax(ob))
            agree += (picked if kept is None else kept[picked]) == int(np.argmax(oa))
        n += 1
    return DeviationReport(
        n_examples=n,
        max_abs=max_abs,
        mean_abs=total_abs / coords if coords else 0.0,
        argmax_agreement=agree / n if n else 1.0,
        bound=bound,
    )


def ref_compare(original, pruned, examples, label_map=None, input_keep=None, bound=None):
    kept = None if label_map is None else label_map.indices.tolist()
    keep = None if input_keep is None else list(input_keep)
    pairs = (
        (output(original, x), output(pruned, x if keep is None else x[keep]))
        for x in examples
    )
    return ref_deviation(pairs, kept, bound)


def ref_sweep(net, scene, taus):
    pooled = pooled_examples(scene)
    base = [output(net, x) for x in pooled]
    w0, b0 = net.layers[0].weights.size, net.layers[0].bias.size
    points = []
    for tau in taus:
        pruned, rep = prune_input_channels(
            net, channel_sums(scene.fmap), scene.pool_h, scene.pool_w,
            PruneConfig(tau),
        )
        keep = list(rep.selections[0].kept)
        dev = ref_deviation((oa, output(pruned, x[keep])) for x, oa in zip(pooled, base))
        wa, ba = rep.params_after.per_layer[0]
        points.append(
            SweepPoint(
                tau=tau,
                pruned_units=len(rep.channels.pruned),
                param_reduction=(w0 + b0 - wa - ba) / (w0 + b0),
                mac_reduction=(w0 - wa) / w0,
                max_abs=dev.max_abs,
                argmax_agreement=dev.argmax_agreement,
                bound=rep.deviation_bound if rep.deviation_bound is not None else 0.0,
            )
        )
    return points


def fields(record):
    """Every field in shortest round-trip form, so NaN compares equal to NaN."""
    return [repr(v) for v in dataclasses.astuple(record)]


class TestBatchedMatchesPerExample:
    def scene_and_net(self, n_rois, out=5, seed=4):
        sc = gen_scene(6, 8, 8, zero_channels=2, n_rois=n_rois, pool_h=2, pool_w=2, seed=seed)
        return sc, gen_network([24, 9, out], sparsity=0.3, seed=seed)

    def test_input_keep_with_label_map(self):
        sc, net = self.scene_and_net(40)
        sums = channel_sums(sc.fmap)
        narrow, prep = prune_input_channels(
            net, sums, 2, 2, PruneConfig(float(np.sort(sums)[3]))
        )
        top, lm, _ = prune_output_topn(narrow, [0.3, 0.9, 0.1, 0.8, 0.5], 3)
        xs = pooled_examples(sc)
        keep = prep.selections[0].kept
        got = compare_outputs(net, top, [np.array(xs)], label_map=lm, input_keep=keep, bound=1.5)
        assert fields(got) == fields(ref_compare(net, top, xs, lm, keep, 1.5))
        assert got.max_abs > 0.0 and got.argmax_agreement < 1.0

    def test_several_row_blocks(self):
        # 600 regions: two full blocks of 256 and a partial one
        sc, net = self.scene_and_net(600)
        sums = channel_sums(sc.fmap)
        pruned, prep = prune_input_channels(
            net, sums, 2, 2, PruneConfig(float(np.sort(sums)[2]))
        )
        xs = pooled_examples(sc)
        keep = prep.selections[0].kept
        blocks = (np.array(xs[lo : lo + 256]) for lo in range(0, 600, 256))
        got = compare_outputs(net, pruned, blocks, input_keep=keep)
        assert got.n_examples == 600
        assert fields(got) == fields(ref_compare(net, pruned, xs, input_keep=keep))
        taus = [0.0, float(np.sort(sums)[2]), float(np.sort(sums)[4]), math.inf]
        assert [fields(p) for p in sweep(net, sc, taus)] == [
            fields(p) for p in ref_sweep(net, sc, taus)
        ]

    def test_wide_output_mean_abs(self):
        # 150 outputs per row: numpy's pairwise row sums must fold like before
        sc, net = self.scene_and_net(30, out=150)
        sums = channel_sums(sc.fmap)
        pruned, prep = prune_input_channels(
            net, sums, 2, 2, PruneConfig(float(np.sort(sums)[4]))
        )
        xs = pooled_examples(sc)
        keep = prep.selections[0].kept
        got = compare_outputs(net, pruned, [np.array(xs)], input_keep=keep)
        assert fields(got) == fields(ref_compare(net, pruned, xs, input_keep=keep))

    def test_no_examples(self):
        _, net = self.scene_and_net(1)
        assert fields(compare_outputs(net, net, [])) == fields(ref_compare(net, net, []))

    def test_example_width_checked(self):
        _, net = self.scene_and_net(1)
        with pytest.raises(ContractViolation, match="example 1 has 5 values"):
            compare_outputs(net, net, [np.zeros((1, 24)), np.zeros((2, 5))])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_deviation(self):
        big = np.full((2, 2), 1e308)
        net = Network((DenseLayer(big, [0.0, 0.0]),
                       DenseLayer(big, [0.0, 0.0], ActivationKind.IDENTITY)))
        sc = gen_scene(2, 2, 2, n_rois=3, pool_h=1, pool_w=1, seed=1)
        xs = pooled_examples(sc)
        got = compare_outputs(net, net, [np.array(xs)])
        assert math.isnan(got.max_abs)
        assert fields(got) == fields(ref_compare(net, net, xs))
        assert [fields(p) for p in sweep(net, sc, [0.0])] == [
            fields(p) for p in ref_sweep(net, sc, [0.0])
        ]


class TestRowBlocks:
    def case(self, n_rois=300):
        sc = gen_scene(6, 8, 8, zero_channels=2, n_rois=n_rois, pool_h=2, pool_w=2, seed=9)
        net = gen_network([24, 9, 5], sparsity=0.3, seed=9)
        sums = channel_sums(sc.fmap)
        pruned, prep = prune_input_channels(net, sums, 2, 2, PruneConfig(float(np.sort(sums)[3])))
        return net, pruned, prep.selections[0].kept, np.array(pooled_examples(sc))

    @pytest.mark.parametrize("rows", [1, 255, 256, 300])
    def test_block_size_does_not_matter(self, rows):
        net, pruned, keep, xs = self.case()
        blocks = [xs[lo : lo + rows] for lo in range(0, len(xs), rows)]
        got = compare_outputs(net, pruned, blocks, input_keep=keep)
        assert got.n_examples == 300 and got.max_abs > 0.0
        assert fields(got) == fields(compare_outputs(net, pruned, [xs], input_keep=keep))
        assert fields(got) == fields(ref_compare(net, pruned, xs, input_keep=keep))

    @pytest.mark.parametrize("block,match", [
        (np.zeros(24), "must be 2-dimensional"),
        (np.zeros((2, 3, 24)), "must be 2-dimensional"),
        (np.zeros((3, 23)), "example 4 has 23 values but the original network expects 24"),
        (np.full((3, 24), np.nan), "non-finite"),
    ])
    def test_bad_block_is_a_contract_violation(self, block, match):
        net, pruned, keep, xs = self.case(n_rois=4)
        with pytest.raises(ContractViolation, match=match) as info:
            compare_outputs(net, pruned, [xs, block], input_keep=keep)
        assert type(info.value) is ContractViolation


class TestBatchedOutput:
    def test_rows_equal_single_outputs(self):
        sc = gen_scene(6, 8, 8, zero_channels=2, n_rois=20, pool_h=2, pool_w=2, seed=8)
        net = gen_network([24, 9, 7, 5], sparsity=0.3, seed=8)
        xs = np.array(pooled_examples(sc))
        got = output(net, xs)
        assert got.shape == (20, 5)
        assert got.tobytes() == np.stack([output(net, x) for x in xs]).tobytes()

    def test_empty_batch_and_empty_network(self):
        net = gen_network([4, 3, 2], seed=1)
        assert output(net, np.zeros((0, 4))).shape == (0, 2)
        xs = np.arange(6.0).reshape(2, 3)
        assert output(Network(()), xs).tobytes() == xs.tobytes()

    def test_width_mismatch(self):
        with pytest.raises(ContractViolation, match="expects 4 inputs"):
            output(gen_network([4, 2], seed=1), np.zeros((3, 5)))


# -- one column pass per sweep --------------------------------------------------


class TestNestedSweep:
    def scene_and_net(self, n_rois=300, sizes=(24, 9, 5), seed=6):
        sc = gen_scene(6, 8, 8, zero_channels=2, n_rois=n_rois, pool_h=2, pool_w=2, seed=seed)
        return sc, gen_network(list(sizes), sparsity=0.3, seed=seed)

    def test_only_a_later_tau_drops_a_live_channel(self):
        sc, net = self.scene_and_net()
        live = np.sort(channel_sums(sc.fmap))[2:]
        # 0 and a tau below every live channel drop only the zero channels, so
        # they share every column with the original network; the last tau parts
        taus = [0.0, float(live[0]) / 2, float(live[0]) / 2, float(live[1])]
        points = sweep(net, sc, taus)
        assert [p.pruned_units for p in points] == [2, 2, 2, 4]
        assert [p.max_abs for p in points[:3]] == [0.0, 0.0, 0.0]
        assert points[3].max_abs > 0.0
        assert [fields(p) for p in points] == [fields(p) for p in ref_sweep(net, sc, taus)]

    def test_one_layer_network_and_equal_thresholds(self):
        sc, net = self.scene_and_net(n_rois=40, sizes=(24, 3))
        sums = np.sort(channel_sums(sc.fmap))
        taus = [float(sums[3])] * 3 + [math.inf]
        assert [fields(p) for p in sweep(net, sc, taus)] == [
            fields(p) for p in ref_sweep(net, sc, taus)
        ]

    def test_no_regions(self):
        sc, net = self.scene_and_net(n_rois=0)
        assert [fields(p) for p in sweep(net, sc, [0.0, 1.0])] == [
            fields(p) for p in ref_sweep(net, sc, [0.0, 1.0])
        ]

    def test_tail_layers_leave_shared_sums_alone(self, monkeypatch):
        calls = []

        def recording(*args):
            accs = real(*args)
            calls.append([(acc, acc.tobytes()) for acc in accs])
            return accs

        real = linalg.nested_matmat
        monkeypatch.setattr(linalg, "nested_matmat", recording)
        sc, net = self.scene_and_net()
        taus = [0.0, 0.0, float(np.sort(channel_sums(sc.fmap))[3])]
        points = sweep(net, sc, taus)
        assert len(calls) == 2  # 300 regions: two blocks
        for accs in calls:
            assert accs[0][0] is accs[1][0] is accs[2][0]  # members do share
            for acc, before in accs:
                assert acc.tobytes() == before
        assert [fields(p) for p in points] == [fields(p) for p in ref_sweep(net, sc, taus)]


def test_overflowing_sweep_warns_nothing():
    big = np.full((2, 2), 1e308)
    net = Network((DenseLayer(big, [0.0, 0.0]),
                   DenseLayer(big, [0.0, 0.0], ActivationKind.IDENTITY)))
    sc = gen_scene(2, 2, 2, n_rois=3, pool_h=1, pool_w=1, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (pt,) = sweep(net, sc, [0.0])
    assert math.isnan(pt.max_abs)


# -- one pooled block alive at a time ----------------------------------------


def peak_in_blocks(run):
    """Peak bytes tracemalloc sees while run() scores a 64-channel scene at 7x7,
    in 256-region pooled blocks: 700 regions make three of them."""
    sc = gen_scene(64, 14, 14, n_rois=700, pool_h=7, pool_w=7, seed=3)
    net = gen_network([64 * 49, 8, 4], seed=3)
    tracemalloc.start()
    try:
        run(sc, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (256 * 64 * 49 * 8)


def test_sweep_holds_one_pooled_block_at_a_time():
    assert peak_in_blocks(lambda sc, net: sweep(net, sc, [0.0, 0.5, 1.0])) < 2


@pytest.mark.parametrize("pruned_seed", [3, 4])  # the shared first-layer pass, and two passes
def test_compare_outputs_holds_one_pooled_block_at_a_time(pruned_seed):
    def run(sc, net):
        pruned = gen_network([64 * 49, 8, 4], seed=pruned_seed)
        compare_outputs(net, pruned, _region_blocks(sc))

    assert peak_in_blocks(run) < 2


def assembled(block):
    """A pooled block's channel groups as one (n, d) array, +0.0 where no group reaches;
    the groups' columns must be ascending and disjoint."""
    out = np.zeros(block.shape)
    at = 0
    for cols, rows in block:
        assert cols.dtype == np.intp and cols[0] >= at and (np.diff(cols) > 0).all()
        assert rows.shape == (cols.size, block.shape[0])
        out[:, cols] = rows.T
        at = cols[-1] + 1
    assert at <= block.shape[1]
    return out


def whole_blocks(scene):
    """_region_blocks as arrays: each block of 256 regions pooled at once by pool_regions."""
    for lo in range(0, len(scene.rois), 256):
        yield pool_regions(scene.fmap, scene.rois[lo : lo + 256], scene.pool_h, scene.pool_w)


def test_region_blocks_pool_as_pool_regions():
    sc = gen_scene(5, 9, 9, n_rois=600, pool_h=2, pool_w=3, seed=2)
    blocks = list(_region_blocks(sc))
    assert [xs.shape for xs in blocks] == [(256, 30), (256, 30), (88, 30)]
    for lo, xs in zip(range(0, 600, 256), blocks):
        want = pool_regions(sc.fmap, sc.rois[lo : lo + 256], 2, 3)
        assert assembled(xs).tobytes() == want.tobytes()


def test_pooled_blocks_score_as_whole_blocks(monkeypatch):
    sc = gen_scene(6, 8, 8, zero_channels=2, n_rois=600, pool_h=2, pool_w=2, seed=5)
    net = gen_network([24, 7, 3], sparsity=0.3, seed=5)
    sums = channel_sums(sc.fmap)
    taus = [0.0, float(np.sort(sums)[3]), math.inf]
    pruned, rep = prune_input_channels(net, sums, 2, 2, PruneConfig(taus[1]))
    keep = rep.selections[0].kept

    def scores(blocks):
        return (
            [fields(p) for p in sweep(net, sc, taus)],
            fields(compare_outputs(net, pruned, blocks(sc), input_keep=keep)),
            fields(compare_outputs(net, gen_network([24, 7, 3], seed=6), blocks(sc))),
        )

    pooled = scores(_region_blocks)
    monkeypatch.setattr(report, "_region_blocks", whole_blocks)
    assert scores(whole_blocks) == pooled


# -- window edges: channel groups of 1, 2, 3 and the default 4 ------------------
# 64 channels at 2x2 make 256 columns; a group of k channels owns 4k of them.
# Column 17 (channel 4) is inside a window for every k; column 48 (channel 12)
# starts one for every k, since 12 is a multiple of 1, 2, 3 and 4.


def ref_pool(scene):
    """Every region's pooled row, one np.max per cell: no gather, no channel groups."""
    ph, pw = scene.pool_h, scene.pool_w
    rows = np.zeros((len(scene.rois), scene.pooled_width))

    def span(lo, hi, i, cells):
        start = min(i * (hi - lo) // cells, hi - lo - 1)
        return lo + start, lo + max((i + 1) * (hi - lo) // cells, start + 1)

    for r, (x0, y0, x1, y1) in enumerate(scene.rois.tolist()):
        for i in range(ph):
            ya, yb = span(y0, y1, i, ph)
            for j in range(pw):
                xa, xb = span(x0, x1, j, pw)
                rows[r, i * pw + j :: ph * pw] = scene.fmap.data[:, ya:yb, xa:xb].max(axis=(1, 2))
    return rows


def edge_case(name):
    """(scene, input columns the compared pruned model drops, tau rank the sweep prunes up to)."""
    kw = dict(pool_h=2, pool_w=2)
    if name == "no live channel":
        return gen_scene(64, 6, 6, zero_channels=64, n_rois=20, seed=21, **kw), [17, 48], 0
    if name == "no regions":
        return gen_scene(64, 6, 6, zero_channels=16, n_rois=0, seed=22, **kw), [17, 48], 20
    if name == "one region":
        return gen_scene(64, 6, 6, zero_channels=16, n_rois=1, seed=23, **kw), [17, 48], 20
    if name == "short last block":
        return gen_scene(64, 6, 6, zero_channels=16, n_rois=260, seed=24, **kw), [17, 48], 20
    # nested members part at column 17, inside a window, or at column 48, which
    # starts one; the sweep prunes channel 13 (inside a window for k > 1) or 12
    sc = gen_scene(64, 6, 6, n_rois=40, seed=25, **kw)
    inside = name == "part inside a window"
    data = sc.fmap.data.copy()
    data[13 if inside else 12] *= 1e-3  # the smallest channel sum
    sc = Scene(FeatureMap(data), sc.rois, 2, 2)
    return sc, [17] if inside else [48, 49, 50, 51], 0


EDGE_CASES = ["no live channel", "no regions", "one region", "short last block",
              "part inside a window", "part at a window's first column"]


@pytest.mark.parametrize("group", [1, 2, 3, None], ids=["1", "2", "3", "default"])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_window_edges_score_as_whole_blocks(monkeypatch, case, group):
    sc, drop, rank = edge_case(case)
    if group is not None:
        monkeypatch.setattr(_PooledBlock, "group_channels", lambda self: group)
    assert _PooledBlock(sc.fmap, sc.rois, 2, 2).group_channels() == (group or 4)
    whole = ref_pool(sc)
    assert pool_regions(sc.fmap, sc.rois, 2, 2).tobytes() == whole.tobytes()
    assert assembled(_PooledBlock(sc.fmap, sc.rois, 2, 2)).tobytes() == whole.tobytes()
    for lo, xs in zip(range(0, len(sc.rois), 256), _region_blocks(sc)):
        assert assembled(xs).tobytes() == whole[lo : lo + 256].tobytes()
    if case.startswith("part"):
        live = whole.any(axis=0)
        assert live[drop[0]] and live[16] and live[47]  # the members part where named

    net = gen_network([256, 9, 6, 5], seed=25)
    keep = np.setdiff1d(np.arange(256), drop)
    first = net.layers[0]
    w = first.weights[:, keep]
    shared = Network((DenseLayer(w, first.bias),) + net.layers[1:])
    w = w.copy()
    w.view(np.uint64)[3, 5] ^= 1  # one weight bit off: each network runs on its own
    apart = Network((DenseLayer(w, first.bias),) + net.layers[1:])
    for pruned in (shared, apart):
        top, lm, _ = prune_output_topn(pruned, [0.3, 0.9, 0.1, 0.8, 0.5], 3)
        got = compare_outputs(net, top, _region_blocks(sc), label_map=lm,
                              input_keep=keep)
        blocks = [whole[lo : lo + 256] for lo in range(0, len(sc.rois), 256)]
        assert fields(got) == fields(compare_outputs(net, top, blocks, label_map=lm,
                                                     input_keep=keep))
        assert fields(got) == fields(ref_compare(net, top, whole, lm, keep))

    sums = channel_sums(sc.fmap)
    if case.startswith("part"):
        assert np.argmin(sums) == (13 if case == "part inside a window" else 12)
    order = np.sort(sums)
    taus = [0.0, float(order[rank] + order[rank + 1]) / 2, math.inf]
    points = [fields(p) for p in sweep(net, sc, taus)]
    assert points == [fields(p) for p in ref_sweep(net, sc, taus)]
    monkeypatch.setattr(report, "_region_blocks", whole_blocks)
    assert [fields(p) for p in sweep(net, sc, taus)] == points


# -- dead channels: all +0.0 by bit pattern, so never pooled ---------------------


def test_signed_zero_and_subnormal_channels_pool_as_ref_pool(monkeypatch):
    sc = gen_scene(6, 6, 6, n_rois=300, pool_h=2, pool_w=2, seed=26)
    data = sc.fmap.data.copy()
    data[1] = 0.0  # dead
    data[3] = -0.0  # pools to -0.0, so it must be pooled
    data[4] = 0.0
    data[4, 2, 3] = 5e-324  # the one nonzero entry is the smallest subnormal
    sc = Scene(FeatureMap(data), sc.rois, 2, 2)
    whole = ref_pool(sc)
    assert np.signbit(whole[:, 12:16]).all() and whole[:, 16:20].max() == 5e-324
    groups = record_groups(monkeypatch)
    assert pool_regions(sc.fmap, sc.rois, 2, 2).tobytes() == whole.tobytes()
    assert assembled(_PooledBlock(sc.fmap, sc.rois, 2, 2)).tobytes() == whole.tobytes()
    for lo, xs in zip(range(0, 300, 256), _region_blocks(sc)):
        assert assembled(xs).tobytes() == whole[lo : lo + 256].tobytes()
    # pool_regions, the whole block, then two blocks of regions: each leaves out channel 1 only
    assert [pooled_channels(cols, 4) for cols in groups] == [[0, 2, 3, 4, 5]] * 4


@pytest.mark.parametrize("shared", [True, False])  # one shared first-layer pass, or two
def test_compare_outputs_over_region_blocks_pools_no_dead_channel(monkeypatch, shared):
    sc = gen_scene(8, 6, 6, zero_channels=3, n_rois=300, pool_h=2, pool_w=2, seed=27)
    net = gen_network([32, 7, 4], seed=27)
    sums = channel_sums(sc.fmap)
    if shared:
        pruned, rep = prune_input_channels(net, sums, 2, 2, PruneConfig(0.0))
        keep = rep.selections[0].kept
    else:
        pruned, keep = gen_network([32, 7, 4], seed=28), None
    want = fields(ref_compare(net, pruned, pooled_examples(sc), input_keep=keep))
    groups = record_groups(monkeypatch)
    assert fields(compare_outputs(net, pruned, _region_blocks(sc), input_keep=keep)) == want
    live = np.flatnonzero(sums).tolist()
    assert len(live) == 5
    # two blocks of regions, each pooled once per first-layer pass
    assert [pooled_channels(cols, 4) for cols in groups] == [live] * (2 if shared else 4)


# -- no pooled block held: bounds well below one block --------------------------


def test_sweep_holds_no_pooled_block():
    assert peak_in_blocks(lambda sc, net: sweep(net, sc, [0.0, 0.5, 1.0])) < 0.25


@pytest.mark.parametrize("pruned_seed", [3, 4])  # the shared first-layer pass, and two passes
def test_compare_outputs_holds_no_pooled_block(pruned_seed):
    def run(sc, net):
        pruned = gen_network([64 * 49, 8, 4], seed=pruned_seed)
        compare_outputs(net, pruned, _region_blocks(sc))

    assert peak_in_blocks(run) < 0.25


def test_eval_command_holds_no_pooled_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["gen-scene", "--c", "64", "--h", "14", "--w", "14", "--zero-channels", "30",
         "--n-rois", "200", "--pool-h", "7", "--pool-w", "7", "--seed", "3", "--out", "s.scene"],
        ["gen-net", "--sizes", "3136,64,10", "--seed", "3", "--out", "a.net"],
        ["prune", "--model", "a.net", "--scene", "s.scene", "--tau", "0", "--out", "b.net",
         "--report", "b.report"],
    ):
        assert cli.main(argv) == 0
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
    # the two models, and a pass that pools a few channels at a time: less
    # above the models than the 200x3136 block that pooling it whole would take
    assert peak - models < 200 * 3136 * 8


# -- live channels only, and one shared first-layer pass in compare_outputs -----


def record_nested(monkeypatch):
    """Record the batch width and the results of every linalg.nested_matmat call."""
    calls = []
    real = linalg.nested_matmat

    def recording(m, xs, depth, members):
        accs = real(m, xs, depth, members)
        calls.append((xs.shape[1], [(acc, acc.tobytes()) for acc in accs]))
        return accs

    monkeypatch.setattr(linalg, "nested_matmat", recording)
    return calls


def test_a_scenes_regions_are_checked_once(monkeypatch):
    sc = gen_scene(64, 14, 14, zero_channels=30, n_rois=2000, seed=3)
    net = gen_network([3136, 32, 20], seed=0)
    calls = []

    def counted(rois, fmap):
        calls.append(len(rois))
        return _boxes(rois, fmap)

    monkeypatch.setattr("unitprune.scene._boxes", counted)
    # the scene checked its 2000 regions when it was made; its 8 blocks check nothing
    sweep(net, sc, [0.0, 1.0])
    assert calls == []
    compare_outputs(net, net, _region_blocks(sc))
    assert calls == []
    # pool_regions checks its regions once, as a Scene
    pool_regions(sc.fmap, sc.rois, 7, 7)
    assert calls == [2000]


def record_groups(monkeypatch):
    """Record the columns of every channel group pooled: one list per pass over a pooled block."""
    passes = []
    real = _PooledBlock.__iter__

    def recording(self):
        passes.append([])
        for cols, rows in real(self):
            passes[-1].append(cols.copy())
            yield cols, rows

    monkeypatch.setattr(_PooledBlock, "__iter__", recording)
    return passes


def pooled_channels(groups, cells):
    """The channels a pass over a pooled block pooled, ascending, each owning all its cells."""
    cols = np.concatenate(groups) if groups else np.zeros(0, dtype=np.intp)
    channels = np.unique(cols // cells)
    assert np.array_equal(cols, (channels[:, None] * cells + np.arange(cells)).ravel())
    return channels.tolist()


def assert_sums_untouched(calls):
    for _, accs in calls:
        for acc, before in accs:
            assert acc.tobytes() == before


class TestLiveChannelSweep:
    @pytest.mark.parametrize("zero_channels", [5, 0, 4])  # all, none, all but one
    def test_matches_reference(self, monkeypatch, zero_channels):
        sc = gen_scene(5, 6, 6, zero_channels=zero_channels, n_rois=300, pool_h=2, pool_w=2,
                       seed=zero_channels)
        net = gen_network([20, 7, 4], seed=zero_channels)
        sums = channel_sums(sc.fmap)
        live = np.flatnonzero(sums).tolist()
        taus = [0.0, float(np.max(sums)) / 2, math.inf]
        calls = record_nested(monkeypatch)
        groups = record_groups(monkeypatch)
        points = [fields(p) for p in sweep(net, sc, taus)]
        # two blocks of regions, each pooled over the live channels' 2x2 cells only
        assert len(calls) == 2
        assert [pooled_channels(cols, 4) for cols in groups] == [live] * 2
        assert_sums_untouched(calls)
        assert points == [fields(p) for p in ref_sweep(net, sc, taus)]

    def test_every_channel_zero_needs_no_feature_map(self):
        sc = gen_scene(3, 4, 4, zero_channels=3, n_rois=7, pool_h=1, pool_w=2, seed=2)
        net = gen_network([6, 4, 3], seed=2)
        points = sweep(net, sc, [0.0, 1.0])
        assert [p.pruned_units for p in points] == [3, 3]
        assert [p.max_abs for p in points] == [0.0, 0.0]
        assert [fields(p) for p in points] == [fields(p) for p in ref_sweep(net, sc, [0.0, 1.0])]


class TestSharedComparePass:
    def case(self, tau_rank=None, sizes=(24, 9, 6, 5), n_rois=300, seed=5):
        sc = gen_scene(6, 8, 8, zero_channels=2, n_rois=n_rois, pool_h=2, pool_w=2, seed=seed)
        net = gen_network(list(sizes), seed=seed)
        sums = channel_sums(sc.fmap)
        tau = 0.0 if tau_rank is None else float(np.sort(sums)[tau_rank])
        pruned, prep = prune_input_channels(net, sums, 2, 2, PruneConfig(tau))
        return net, pruned, prep, pooled_examples(sc)

    def test_exact_zero_report_shares_every_sum(self, monkeypatch):
        net, pruned, prep, xs = self.case()
        keep = prep.selections[0].kept
        calls = record_nested(monkeypatch)
        blocks = [np.array(xs[:256]), np.array(xs[256:])]
        got = compare_outputs(net, pruned, blocks, input_keep=keep, bound=prep.deviation_bound)
        assert got.max_abs == 0.0 and got.bound == 0.0
        assert fields(got) == fields(
            ref_compare(net, pruned, xs, input_keep=keep, bound=prep.deviation_bound)
        )
        assert len(calls) == 2  # 300 regions: two blocks, one pass each
        for _, accs in calls:
            assert accs[0][0] is accs[1][0]
        assert_sums_untouched(calls)

    def test_dropped_live_columns_split_the_sums(self, monkeypatch):
        net, pruned, prep, xs = self.case(tau_rank=3)
        keep = prep.selections[0].kept
        calls = record_nested(monkeypatch)
        got = compare_outputs(
            net, pruned, [np.array(xs)], input_keep=keep, bound=prep.deviation_bound
        )
        assert 0.0 < got.max_abs <= got.bound
        assert fields(got) == fields(
            ref_compare(net, pruned, xs, input_keep=keep, bound=prep.deviation_bound)
        )
        assert calls and all(accs[0][0] is not accs[1][0] for _, accs in calls)
        assert_sums_untouched(calls)

    def test_topn_label_map_finishes_a_shared_sum_twice(self, monkeypatch):
        net, pruned, prep, xs = self.case()
        top, lm, _ = prune_output_topn(pruned, [0.3, 0.9, 0.1, 0.8, 0.5], 2)
        keep = prep.selections[0].kept
        calls = record_nested(monkeypatch)
        got = compare_outputs(net, top, [np.array(xs)], label_map=lm, input_keep=keep, bound=0.0)
        assert fields(got) == fields(ref_compare(net, top, xs, lm, keep, 0.0))
        assert got.argmax_agreement < 1.0
        assert calls and all(accs[0][0] is accs[1][0] for _, accs in calls)
        assert_sums_untouched(calls)

    def test_one_weight_bit_off_takes_two_passes(self, monkeypatch):
        net, pruned, prep, xs = self.case()
        first = pruned.layers[0]
        w = first.weights.copy()
        w.view(np.uint64)[3, 5] ^= 1  # flip the lowest mantissa bit of one weight
        altered = Network((DenseLayer(w, first.bias, first.activation),) + pruned.layers[1:])
        keep = prep.selections[0].kept
        calls = record_nested(monkeypatch)
        got = compare_outputs(net, altered, [np.array(xs)], input_keep=keep)
        assert calls == []
        assert fields(got) == fields(ref_compare(net, altered, xs, input_keep=keep))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_net_reports_nan(self):
        big = np.full((2, 2), 1e308)
        net = Network((DenseLayer(big, [0.0, 0.0]),
                       DenseLayer(big, [0.0, 0.0], ActivationKind.IDENTITY)))
        sc = gen_scene(2, 2, 2, n_rois=3, pool_h=1, pool_w=1, seed=1)
        xs = pooled_examples(sc)
        pruned, prep = prune_input_channels(net, channel_sums(sc.fmap), 1, 1, PruneConfig(0.0))
        keep = prep.selections[0].kept
        got = compare_outputs(net, pruned, [np.array(xs)], input_keep=keep)
        assert math.isnan(got.max_abs)
        assert fields(got) == fields(ref_compare(net, pruned, xs, input_keep=keep))


def test_empty_networks_agree_on_every_example():
    got = compare_outputs(Network(()), Network(()), [np.zeros((3, 0))])
    assert got == DeviationReport(
        n_examples=3, max_abs=0.0, mean_abs=0.0, argmax_agreement=1.0, bound=None
    )
