"""prune tests: selection rules, the two transforms, accounting, certificate."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitprune.errors import ContractViolation, FormatError, ValidationError
from unitprune.model import (
    ActivationKind,
    DenseLayer,
    Network,
    ParamCount,
    forward,
    gen_network,
    output,
    param_count,
)
from unitprune.prune import (
    LabelMap,
    PruneConfig,
    PruneReport,
    PruneSelection,
    backward_prune,
    channel_columns,
    channel_drop_bound,
    column_drop_bound,
    forward_prune,
    load_labelmap,
    load_report,
    prune_input_channels,
    prune_output_topn,
    prune_units,
    save_labelmap,
    save_report,
    select_channels,
    select_units,
)


def id_layer(w, b):
    return DenseLayer(np.array(w, dtype=float), np.array(b, dtype=float), ActivationKind.IDENTITY)


def relu_layer(w, b):
    return DenseLayer(np.array(w, dtype=float), np.array(b, dtype=float))


class TestPruneConfig:
    def test_exact_zero(self):
        cfg = PruneConfig(0.0)
        assert cfg.threshold == 0.0

    def test_negative_tau_rejected(self):
        with pytest.raises(ContractViolation):
            PruneConfig(-1.0)

    def test_for_threshold_dispatch(self):
        assert PruneConfig(float("inf")).threshold == float("inf")


class TestPruneSelection:
    def test_partition_enforced(self):
        with pytest.raises(ContractViolation):
            PruneSelection(layer=0, pruned=(0, 1), kept=(1, 2))
        with pytest.raises(ContractViolation):
            PruneSelection(layer=0, pruned=(0,), kept=(2,))

    def test_from_pruned(self):
        sel = PruneSelection.from_pruned((1, 3), 5, layer=2)
        assert sel.kept.tolist() == [0, 2, 4]
        assert sel.size == 5 and sel.layer == 2

    def test_empty_and_full(self):
        assert PruneSelection.from_pruned((), 3).kept.tolist() == [0, 1, 2]
        assert PruneSelection.from_pruned((0, 1, 2), 3).kept.tolist() == []


class TestSelection:
    def test_thresholded(self):
        sel = select_units([0.0, 0.003, 0.8, 0.0005], PruneConfig(0.001))
        assert sel.pruned.tolist() == [0, 3]

    def test_exact_zero_only(self):
        sel = select_units([0.0, 0.003, 0.8, 0.0005], PruneConfig(0.0))
        assert sel.pruned.tolist() == [0]

    def test_threshold_above_max_prunes_all(self):
        sel = select_units([0.5, 0.2], PruneConfig(0.5))
        assert sel.pruned.tolist() == [0, 1]

    def test_absolute_value_rule(self):
        # identity-layer profiles can be negative; magnitude decides
        sel = select_units([-0.01, 0.5, -0.9], PruneConfig(0.05))
        assert sel.pruned.tolist() == [0]

    def test_negative_zero_is_zero(self):
        sel = select_units([-0.0, 1.0], PruneConfig(0.0))
        assert sel.pruned.tolist() == [0]

    def test_select_channels(self):
        assert select_channels([0.0, 10.0], PruneConfig(0.0)).pruned.tolist() == [0]
        sel = select_channels([0.5, 10.0, 0.2], PruneConfig(0.5))
        assert sel.pruned.tolist() == [0, 2]

    def test_select_channels_rejects_negative(self):
        with pytest.raises(ContractViolation):
            select_channels([-0.1, 1.0], PruneConfig(0.0))

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(st.floats(0, 10, allow_nan=False, width=64), min_size=1, max_size=20),
        st.floats(0, 5, allow_nan=False),
        st.floats(0, 5, allow_nan=False),
    )
    def test_monotone_in_threshold(self, vals, t1, t2):
        lo, hi = sorted((t1, t2))
        a = select_units(vals, PruneConfig(lo))
        b = select_units(vals, PruneConfig(hi))
        assert set(a.pruned) <= set(b.pruned)


class TestChannelColumns:
    def test_middle_channel(self):
        assert channel_columns((1,), 3, 2, 2).tolist() == [4, 5, 6, 7]

    def test_empty(self):
        assert channel_columns((), 3, 2, 2).tolist() == []

    def test_first_channel_wide_pool(self):
        assert channel_columns((0,), 512, 7, 7).tolist() == list(range(49))

    def test_accepts_selection(self):
        sel = PruneSelection.from_pruned((1,), 3)
        assert channel_columns(sel.pruned, 3, 2, 2).tolist() == [4, 5, 6, 7]

    def test_out_of_range(self):
        with pytest.raises(ContractViolation):
            channel_columns((3,), 3, 2, 2)


class TestForwardPrune:
    def test_compacted_preactivation_matches_full(self):
        # dropped inputs carry exact zeros, so both nets agree bitwise
        net = Network((id_layer([[1, 2, 3], [4, 5, 6]], [0.5, -0.5]),))
        x = np.array([0.0, 2.0, 0.0])
        full = output(net, x)
        assert full.tolist() == [4.5, 9.5]
        sel = PruneSelection.from_pruned((0, 2), 3)
        pruned = forward_prune(net, 0, sel)
        got = output(pruned, x[list(sel.kept)])
        assert got.tobytes() == full.tobytes()

    def test_empty_selection_identity(self):
        net = gen_network([4, 3], seed=0)
        pruned = forward_prune(net, 0, PruneSelection.from_pruned((), 4))
        assert pruned == net

    def test_all_inputs_pruned_bias_only(self):
        net = Network((relu_layer([[1, 1], [2, 2]], [0.5, -0.5]),))
        pruned = forward_prune(net, 0, PruneSelection.from_pruned((0, 1), 2))
        assert pruned.layers[0].weights.shape == (2, 0)
        assert output(pruned, np.zeros(0)).tolist() == [0.5, 0.0]

    def test_size_mismatch(self):
        net = gen_network([4, 3], seed=0)
        with pytest.raises(ContractViolation):
            forward_prune(net, 0, PruneSelection.from_pruned((0,), 3))

    def test_hidden_layer_breaks_chain(self):
        net = gen_network([4, 3, 2], seed=0)
        with pytest.raises(ContractViolation, match="layer 0"):
            forward_prune(net, 1, PruneSelection.from_pruned((0,), 3, layer=1))


class TestBackwardPrune:
    def test_drop_rows_case(self):
        net = Network((id_layer([[1, 0], [0, 1], [2, 2]], [0, 0, 1]),))
        pruned = backward_prune(net, 0, PruneSelection.from_pruned((0,), 3))
        assert pruned.layers[0].weights.tolist() == [[0, 1], [2, 2]]
        assert pruned.layers[0].bias.tolist() == [0, 1]

    def test_empty_selection_identity(self):
        net = gen_network([3, 2], seed=1)
        assert backward_prune(net, 0, PruneSelection.from_pruned((), 2)) == net

    def test_all_units_pruned(self):
        net = Network((relu_layer([[1, 1]], [0]),))
        pruned = backward_prune(net, 0, PruneSelection.from_pruned((0,), 1))
        assert pruned.layers[0].weights.shape == (0, 2)
        assert output(pruned, [1.0, 2.0]).shape == (0,)

    def test_final_layer_labels_subset(self):
        net = Network(
            (id_layer([[1], [2], [3]], [0, 0, 0]),), labels=("a", "b", "c")
        )
        pruned = backward_prune(net, 0, PruneSelection.from_pruned((1,), 3))
        assert pruned.labels == ("a", "c")

    def test_hidden_layer_breaks_chain(self):
        net = gen_network([4, 3, 2], seed=0)
        with pytest.raises(ContractViolation, match="layer"):
            backward_prune(net, 0, PruneSelection.from_pruned((0,), 3))


class TestPruneUnits:
    def test_param_counts_3_4_2(self):
        net = gen_network([3, 4, 2], seed=0)
        assert param_count(net).total == 26
        sel = PruneSelection.from_pruned((1,), 4)
        pruned, rep = prune_units(net, 0, sel)
        # remove one unit: its row (3 weights + 1 bias) and one column of 2
        assert param_count(pruned).total == 20
        assert rep.params_before.total == 26 and rep.params_after.total == 20

    def test_empty_selection_zero_deltas(self):
        net = gen_network([3, 4, 2], seed=0)
        pruned, rep = prune_units(net, 0, PruneSelection.from_pruned((), 4))
        assert pruned == net
        assert rep.params_before == rep.params_after
        assert rep.total_reduction == 0.0 and rep.layer_reduction == ()

    def test_exact_zero_selection_bit_identical_output(self):
        net = gen_network([10, 16, 8, 4], sparsity=0.5, seed=21)
        x = np.random.default_rng(3).uniform(-1, 1, size=10)
        prof = forward(net, x)
        for k in (0, 1):
            sel = select_units(prof[k], PruneConfig(0.0), layer=k)
            pruned, rep = prune_units(net, k, sel, profile=prof)
            assert output(pruned, x).tobytes() == output(net, x).tobytes()
            assert rep.deviation_bound == 0.0

    def test_final_layer_rejected(self):
        net = gen_network([3, 4, 2], seed=0)
        with pytest.raises(ContractViolation, match="hidden"):
            prune_units(net, 1, PruneSelection.from_pruned((), 2))

    def test_selection_for_another_layer_rejected(self):
        # the selection covers layer 1's 4 units but was made for layer 0
        net = gen_network([6, 5, 4, 3], seed=1)
        with pytest.raises(ContractViolation, match="selection is for layer 0, not layer 1"):
            prune_units(net, 1, PruneSelection.from_pruned((0,), 4))

    def test_backward_prune_checks_the_layer(self):
        net = gen_network([6, 5, 4, 3], seed=1)
        with pytest.raises(ContractViolation, match="selection is for layer 0, not layer 2"):
            backward_prune(net, 2, PruneSelection.from_pruned((0,), 3))

    def test_forward_prune_checks_the_layer(self):
        net = gen_network([6, 5, 4, 3], seed=1)
        with pytest.raises(ContractViolation, match="selection is for layer 2, not layer 0"):
            forward_prune(net, 0, PruneSelection.from_pruned((0,), 6, layer=2))

    def test_deviation_bound_checks_the_layer(self):
        net = gen_network([6, 5, 4, 3], seed=1)
        prof = forward(net, np.ones(6))
        sel = PruneSelection.from_pruned((0,), 4, layer=0)
        with pytest.raises(ContractViolation, match="selection is for layer 0, not layer 1"):
            prune_units(net, 1, sel, profile=prof)[1].deviation_bound

    def test_accounting_closed_form(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            sizes = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(3, 6)))]
            net = gen_network(sizes, seed=int(rng.integers(0, 1000)))
            k = int(rng.integers(0, len(net.layers) - 1))
            units = net.layers[k].units
            q = int(rng.integers(0, units + 1))
            picked = sorted(rng.choice(units, size=q, replace=False).tolist())
            sel = PruneSelection.from_pruned(picked, units, layer=k)
            _, rep = prune_units(net, k, sel)
            m = net.layers[k].inputs
            p = net.layers[k + 1].units
            assert rep.params_before.total - rep.params_after.total == q * (m + 1) + p * q
            assert rep.params_before.macs - rep.params_after.macs == q * m + p * q


class TestPruneInputChannels:
    def test_exact_zero_collection_identity(self):
        sc_channels, pool = 6, 2
        rng = np.random.default_rng(8)
        data = rng.uniform(0, 1, size=(sc_channels, 5, 5))
        data[[1, 4]] = 0.0
        from unitprune.scene import FeatureMap, channel_sums, roi_pool

        fm = FeatureMap(data)
        sums = channel_sums(fm)
        net = gen_network([sc_channels * pool * pool, 7, 3], seed=2)
        pruned, rep = prune_input_channels(net, sums, pool, pool, PruneConfig(0.0))
        assert rep.channels.pruned.tolist() == [1, 4]
        assert len(rep.selections[0].pruned) == 2 * pool * pool
        assert rep.deviation_bound == 0.0
        keep = list(rep.selections[0].kept)
        for roi in ((0, 0, 5, 5), (1, 2, 3, 4), (4, 4, 5, 5)):
            x = roi_pool(fm, roi, pool, pool)
            assert output(pruned, x[keep]).tobytes() == output(net, x).tobytes()

    def test_dimension_mismatch(self):
        net = gen_network([10, 2], seed=0)
        with pytest.raises(ContractViolation, match="expects 10"):
            prune_input_channels(net, [0.0, 1.0], 2, 2, PruneConfig(0.0))

    def test_bound_covers_every_region(self):
        # thresholded channel pruning: the reported bound holds for all rois
        from unitprune.scene import channel_sums, gen_scene, roi_pool

        sc = gen_scene(8, 6, 6, zero_channels=2, n_rois=40, pool_h=2, pool_w=2, seed=13)
        sums = channel_sums(sc.fmap)
        net = gen_network([8 * 4, 6, 3], seed=5)
        tau = float(np.sort(sums)[4])  # prunes at least five channels
        pruned, rep = prune_input_channels(
            net, sums, 2, 2, PruneConfig(tau)
        )
        keep = list(rep.selections[0].kept)
        worst = 0.0
        for roi in sc.rois:
            x = roi_pool(sc.fmap, roi, 2, 2)
            d = np.abs(output(net, x) - output(pruned, x[keep])).max()
            worst = max(worst, float(d))
        assert worst <= rep.deviation_bound
        assert worst > 0.0  # the case actually bites


class TestTopN:
    def test_selection_and_weights(self):
        net = Network((id_layer([[1, 0], [0, 1], [2, 2]], [0, 0, 1]),))
        pruned, lm, rep = prune_output_topn(net, [0.1, 0.3, 0.6], 2)
        assert lm.indices.tolist() == [1, 2]
        assert pruned.layers[0].weights.tolist() == [[0, 1], [2, 2]]
        assert pruned.layers[0].bias.tolist() == [0, 1]
        assert rep.kind == "topn"

    def test_keep_all_identity(self):
        net = gen_network([3, 5], seed=4)
        pruned, lm, rep = prune_output_topn(net, [5.0, 4.0, 3.0, 2.0, 1.0], 5)
        assert pruned == net
        assert lm.indices.tolist() == [0, 1, 2, 3, 4]
        assert rep.params_before == rep.params_after

    def test_tie_break_lower_index(self):
        net = gen_network([3, 2], seed=0)
        _, lm, _ = prune_output_topn(net, [0.5, 0.5], 1)
        assert lm.indices.tolist() == [0]

    def test_n_out_of_range(self):
        net = gen_network([3, 2], seed=0)
        with pytest.raises(ContractViolation):
            prune_output_topn(net, [1.0, 2.0], 0)
        with pytest.raises(ContractViolation):
            prune_output_topn(net, [1.0, 2.0], 3)

    def test_labels_carried(self):
        net = Network((id_layer([[1], [2], [3]], [0, 0, 0]),), labels=("a", "b", "c"))
        pruned, lm, _ = prune_output_topn(net, [3.0, 1.0, 2.0], 2)
        assert lm.indices.tolist() == [0, 2]
        assert lm.names == ("a", "c")
        assert pruned.labels == ("a", "c")

    def test_kept_outputs_bit_identical(self):
        net = gen_network([6, 5, 9], seed=17)
        x = np.random.default_rng(1).uniform(-1, 1, size=6)
        scores = np.random.default_rng(2).uniform(size=9)
        pruned, lm, _ = prune_output_topn(net, scores, 4)
        full = output(net, x)
        got = output(pruned, x)
        assert got.tobytes() == full[list(lm.indices)].tobytes()

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_argmax_preserved_when_kept(self, seed):
        rng = np.random.default_rng(seed)
        out_dim = int(rng.integers(2, 12))
        net = gen_network([3, 4, out_dim], seed=seed)
        x = rng.uniform(-1, 1, size=3)
        scores = rng.uniform(size=out_dim)
        n = int(rng.integers(1, out_dim + 1))
        pruned, lm, _ = prune_output_topn(net, scores, n)
        full = output(net, x)
        winner = int(np.argmax(full))
        if winner in lm.indices:
            mapped = lm.indices[int(np.argmax(output(pruned, x)))]
            assert mapped == winner


class TestDeviationBound:
    def test_hand_case(self):
        # one pruned unit with activation 0.5 feeding |column| [1, 2]:
        # bound = max(1*0.5, 2*0.5) = 1.0, no downstream amplification;
        # the reported value sits a rounding allowance above that
        net = Network(
            (relu_layer([[1.0]], [0.0]), id_layer([[1.0], [2.0]], [0.0, 0.0]))
        )
        prof = forward(net, [0.5])
        assert prof[0].tolist() == [0.5]
        sel = PruneSelection.from_pruned((0,), 1)
        got = prune_units(net, 0, sel, profile=prof)[1].deviation_bound
        assert got == pytest.approx(1.0, rel=1e-12)
        assert got >= 1.0

    def test_empty_selection(self):
        net = gen_network([3, 4, 2], seed=0)
        prof = forward(net, np.ones(3))
        sel = PruneSelection.from_pruned((), 4)
        assert prune_units(net, 0, sel, profile=prof)[1].deviation_bound == 0.0

    def test_zero_activations_give_zero(self):
        net = gen_network([5, 8, 3], sparsity=0.5, seed=6)
        x = np.random.default_rng(0).uniform(-1, 1, size=5)
        prof = forward(net, x)
        sel = select_units(prof[0], PruneConfig(0.0), layer=0)
        assert len(sel.pruned) >= 4
        assert prune_units(net, 0, sel, profile=prof)[1].deviation_bound == 0.0

    def test_downstream_amplification(self):
        # bound multiplies by the max absolute row sum of each later layer
        net = Network(
            (
                relu_layer([[1.0]], [0.0]),
                relu_layer([[1.0], [2.0]], [0.0, 0.0]),
                id_layer([[3.0, -4.0]], [0.0]),
            )
        )
        prof = forward(net, [0.5])
        sel = PruneSelection.from_pruned((0,), 1)
        # head term max(1*0.5, 2*0.5) = 1.0, amplification |3| + |-4| = 7
        got = prune_units(net, 0, sel, profile=prof)[1].deviation_bound
        assert got == pytest.approx(7.0, rel=1e-12)
        assert got >= 7.0

    def test_final_layer_rejected(self):
        net = gen_network([3, 2], seed=0)
        prof = forward(net, np.ones(3))
        sel = PruneSelection.from_pruned((), 2)
        with pytest.raises(ContractViolation):
            prune_units(net, 0, sel, profile=prof)[1].deviation_bound

    def test_soundness_on_probe(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            sizes = [int(rng.integers(2, 8)) for _ in range(int(rng.integers(3, 5)))]
            net = gen_network(sizes, seed=int(rng.integers(10_000)))
            x = rng.uniform(-1, 1, size=sizes[0])
            prof = forward(net, x)
            k = int(rng.integers(0, len(net.layers) - 1))
            tau = float(rng.uniform(0, 0.5))
            sel = select_units(prof[k], PruneConfig(tau), layer=k)
            pruned, rep = prune_units(net, k, sel, profile=prof)
            actual = float(np.abs(output(net, x) - output(pruned, x)).max())
            assert actual <= rep.deviation_bound

    def test_column_drop_bound_validation(self):
        net = gen_network([3, 2], seed=0)
        with pytest.raises(ContractViolation, match="nonnegative"):
            column_drop_bound(net, 0, [-1.0, 0.0, 0.0], (0,))
        with pytest.raises(ContractViolation, match="magnitudes"):
            column_drop_bound(net, 0, [1.0], (0,))


class TestReportSerialization:
    def test_units_report_round_trip(self):
        net = gen_network([5, 6, 3], sparsity=0.3, seed=11)
        x = np.random.default_rng(5).uniform(-1, 1, size=5)
        prof = forward(net, x)
        sel = select_units(prof[0], PruneConfig(0.2), layer=0)
        _, rep = prune_units(net, 0, sel, profile=prof)
        blob = save_report(rep)
        back = load_report(blob)
        assert save_report(back) == blob
        assert back.kind == "units"
        assert back.selections == rep.selections
        assert back.deviation_bound == rep.deviation_bound

    def test_channels_report_round_trip(self):
        net = gen_network([8, 3], seed=1)
        _, rep = prune_input_channels(
            net, [0.0, 3.0, 0.0, 1.0], 1, 2, PruneConfig(0.0)
        )
        blob = save_report(rep)
        back = load_report(blob)
        assert save_report(back) == blob
        assert back.channels.pruned.tolist() == [0, 2]

    def test_report_without_bound(self):
        net = gen_network([3, 4, 2], seed=0)
        _, rep = prune_units(net, 0, PruneSelection.from_pruned((1,), 4))
        assert rep.deviation_bound is None
        assert load_report(save_report(rep)).deviation_bound is None

    def test_tampered_totals_rejected(self):
        net = gen_network([3, 4, 2], seed=0)
        _, rep = prune_units(net, 0, PruneSelection.from_pruned((1,), 4))
        text = save_report(rep).decode()
        bad = text.replace('"total": 26', '"total": 27')
        with pytest.raises(FormatError, match="totals"):
            load_report(bad)

    @staticmethod
    def units_doc():
        net = gen_network([3, 4, 2], seed=0)
        _, rep = prune_units(net, 0, PruneSelection.from_pruned((1,), 4))
        return json.loads(save_report(rep))

    def test_tampered_layer_reduction_rejected(self):
        doc = self.units_doc()
        doc["layer_reduction"][0][1] = 0.5
        with pytest.raises(FormatError, match="layer_reduction"):
            load_report(json.dumps(doc))

    def test_tampered_total_reduction_rejected(self):
        doc = self.units_doc()
        doc["total_reduction"] = 0.25
        with pytest.raises(FormatError, match="total_reduction"):
            load_report(json.dumps(doc))

    def test_bool_layer_index_rejected(self):
        doc = self.units_doc()
        assert doc["layer_reduction"][1][0] == 1
        doc["layer_reduction"][1][0] = True
        with pytest.raises(FormatError, match="layer_reduction"):
            load_report(json.dumps(doc))

    def test_integer_fraction_accepted(self):
        net = gen_network([3, 4, 2], seed=0)
        _, rep = prune_units(net, 0, PruneSelection.from_pruned((0, 1, 2, 3), 4))
        doc = json.loads(save_report(rep))
        assert doc["layer_reduction"][0] == [0, 1.0]
        doc["layer_reduction"][0][1] = 1
        assert load_report(json.dumps(doc)).layer_reduction == rep.layer_reduction

    @pytest.mark.parametrize("before", [None, [[0, 0], [8, 2]]])
    def test_params_after_larger_than_before_rejected(self, before):
        doc = self.units_doc()
        doc["params_before"], doc["params_after"] = doc["params_after"], doc["params_before"]
        if before is not None:
            # a zero-parameter layer that grows would divide by zero in its fraction
            doc["params_before"] = {"per_layer": before, "total": 10, "macs": 8}
        with pytest.raises(FormatError, match="more parameters after pruning"):
            load_report(json.dumps(doc))

    def test_report_shape_enforced(self):
        net = gen_network([4, 3], seed=1)
        _, rep = prune_input_channels(net, [0.0, 1.0], 1, 2, PruneConfig(0.0))
        sel, pb, pa = rep.selections[0], rep.params_before, rep.params_after
        with pytest.raises(ValidationError, match="exactly one selection"):
            PruneReport("input-channels", (sel, sel), pb, pa, 0.0, rep.channels)
        with pytest.raises(ValidationError, match="channels"):
            PruneReport("input-channels", (sel,), pb, pa, 0.0)
        with pytest.raises(ValidationError, match="channels"):
            PruneReport("topn", (sel,), pb, pa, 0.0, rep.channels)
        with pytest.raises(ValidationError, match="layers"):
            PruneReport("input-channels", (sel,), pb, ParamCount(()), 0.0, rep.channels)

    def test_unknown_kind_rejected(self):
        net = gen_network([3, 4, 2], seed=0)
        _, rep = prune_units(net, 0, PruneSelection.from_pruned((), 4))
        bad = save_report(rep).decode().replace('"kind": "units"', '"kind": "magic"')
        with pytest.raises(FormatError, match="kind"):
            load_report(bad)


class TestLabelMapSerialization:
    def test_round_trip_with_names(self):
        lm = LabelMap((0, 2, 5), ("a", "b", "c"))
        blob = save_labelmap(lm)
        back = load_labelmap(blob)
        assert back == lm and save_labelmap(back) == blob

    def test_round_trip_without_names(self):
        lm = LabelMap((1, 3))
        assert load_labelmap(save_labelmap(lm)) == lm

    def test_unsorted_rejected(self):
        with pytest.raises(FormatError):
            load_labelmap('{"version": 1, "kept": [3, 1], "labels": null}')

    def test_negative_index_is_named(self):
        with pytest.raises(FormatError, match="label map indices must be nonnegative, got -1$"):
            load_labelmap(b'{"version": 1, "kept": [-1, 2], "labels": null}')


def test_prune_units_refuses_a_non_finite_profile():
    net = gen_network([4, 3, 3, 2], seed=1)
    h0 = np.array([0.0, 1.0, 2.0])
    for bad, layer in ((np.nan, 1), (np.inf, 2)):
        per = [h0, np.array([1.0, 0.0, 1.0]), np.array([1.0, 2.0])]
        per[layer] = per[layer].copy()
        per[layer][0] = bad
        profile = tuple(per)
        sel = select_units(h0, PruneConfig(0.0), layer=0)
        with pytest.raises(ContractViolation, match=f"layer {layer} activations"):
            prune_units(net, 0, sel, profile=profile)


@pytest.mark.parametrize("rows", [5, 4])
def test_prune_units_refuses_a_batch_profile(rows):
    net = gen_network([3, 4, 2], seed=0)
    batch = np.random.default_rng(0).uniform(size=(rows, 3))
    sel = PruneSelection.from_pruned((1,), 4)
    match = rf"profile must come from one probe, but layer 0 has shape \({rows}, 4\)"
    with pytest.raises(ContractViolation, match=match):
        prune_units(net, 0, sel, profile=forward(net, batch))


def test_negative_deviation_bound_refused():
    net = gen_network([3, 4, 2], seed=0)
    _, rep = prune_units(net, 0, PruneSelection.from_pruned((1,), 4))
    args = (rep.kind, rep.selections, rep.params_before, rep.params_after)
    with pytest.raises(ValidationError, match="deviation_bound must be nonnegative, got -5.0"):
        PruneReport(*args, -5.0)
    for ok in (None, 0.0, -0.0, 3.5, float("inf")):
        assert PruneReport(*args, ok).deviation_bound == ok
    doc = json.loads(save_report(rep))
    doc["deviation_bound"] = -5.0
    with pytest.raises(FormatError, match="^report: deviation_bound must be nonnegative"):
        load_report(json.dumps(doc))


def test_input_channels_report_prunes_the_columns_of_its_channels():
    net = gen_network([12, 5, 3], seed=4)
    _, rep = prune_input_channels(net, [0.0, 2.5, 7.0, 1.0], 1, 3, PruneConfig(0.0))
    assert rep.channels.pruned.tolist() == [0]
    rest = (rep.params_before, rep.params_after, rep.deviation_bound)

    def report(cols, channels=rep.channels):
        return PruneReport("input-channels", (cols,), *rest, channels)

    assert report(rep.selections[0]) == rep
    for cols in (
        PruneSelection.from_pruned((), 12),  # keeps every column of channel 0
        PruneSelection.from_pruned((1, 2, 3), 12),  # another channel's columns
        PruneSelection.from_pruned((0, 1), 11),  # 11 columns are no whole cells
        PruneSelection.from_pruned((0,), 3),  # fewer columns than channels
    ):
        with pytest.raises(ValidationError, match="columns of the pruned channels"):
            report(cols)
    # no channels and no columns is consistent; columns without channels are not
    none = PruneSelection.from_pruned((), 0)
    assert report(none, none).channels == none
    with pytest.raises(ValidationError, match="columns of the pruned channels"):
        report(PruneSelection.from_pruned((), 3), none)
    doc = json.loads(save_report(rep))
    doc["selections"][0] = {"layer": 0, "pruned": [], "kept": list(range(12))}
    with pytest.raises(FormatError, match="^report: selection 0 does not prune exactly"):
        load_report(json.dumps(doc))


def test_channel_drop_bound_is_the_bound_of_repeated_sums():
    net = gen_network([12, 5, 3], seed=4)
    sums = np.array([0.0, 2.5, 0.0, 7.0])
    for tau in (0.0, 3.0, 10.0):
        _, rep = prune_input_channels(net, sums, 1, 3, PruneConfig(tau))
        cols = channel_columns(rep.channels.pruned, 4, 1, 3)
        want = column_drop_bound(net, 0, np.repeat(sums, 3), cols)
        assert channel_drop_bound(net, sums, 1, 3, rep.channels.pruned) == want
        assert rep.deviation_bound == want
    assert want > 0.0
