"""CLI tests, run in-process through main(argv)."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import unitprune
from unitprune.cli import _Input, main
from unitprune.model import (
    ActivationKind,
    DenseLayer,
    Network,
    load_network,
    param_count,
    save_network,
)
from unitprune.prune import load_labelmap, load_report
from unitprune.report import compare_outputs, deviation_json, sweep, sweep_csv
from unitprune.scene import channel_sums, load_scene, roi_pool


def run(*argv):
    return main([str(a) for a in argv])


def gen_net(path, sizes="6,10,4", sparsity=0.4, seed=5):
    assert run("gen-net", "--sizes", sizes, "--sparsity", sparsity, "--seed", seed, "--out", path) == 0
    return path


def gen_scene_file(path, **kw):
    args = ["gen-scene", "--out", path]
    for flag, val in kw.items():
        args += ["--" + flag.replace("_", "-"), val]
    assert run(*args) == 0
    return path


class TestGenNet:
    def test_writes_loadable_model(self, tmp_path):
        path = gen_net(tmp_path / "m.net", sizes="8,5,3", sparsity=0.3, seed=7)
        net = load_network(path.read_bytes())
        assert net.input_dim == 8 and net.output_dim == 3

    def test_deterministic(self, tmp_path):
        a = gen_net(tmp_path / "a.net", seed=7)
        b = gen_net(tmp_path / "b.net", seed=7)
        assert a.read_bytes() == b.read_bytes()
        c = gen_net(tmp_path / "c.net", seed=8)
        assert a.read_bytes() != c.read_bytes()

    def test_bad_sparsity_is_usage_error(self, tmp_path):
        assert run("gen-net", "--sizes", "4,2", "--sparsity", "1.5", "--out", tmp_path / "x") == 1

    def test_bad_sizes_string(self, tmp_path):
        assert run("gen-net", "--sizes", "4,two", "--out", tmp_path / "x") == 1

    def test_missing_required_flag(self, tmp_path):
        assert run("gen-net", "--sizes", "4,2") == 1


class TestGenScene:
    def test_defaults_geometry(self, tmp_path):
        path = gen_scene_file(tmp_path / "s.scene", n_rois=3)
        sc = load_scene(path.read_bytes())
        assert sc.fmap.data.shape == (512, 14, 14)
        assert sc.pool_h == 7 and sc.pool_w == 7
        assert len(sc.rois) == 3

    def test_zero_channel_recount(self, tmp_path):
        path = gen_scene_file(tmp_path / "s.scene", c=64, h=6, w=6, zero_channels=30, n_rois=5)
        sums = channel_sums(load_scene(path.read_bytes()).fmap)
        assert int((sums == 0.0).sum()) == 30

    def test_empty_collection_legal(self, tmp_path):
        path = gen_scene_file(tmp_path / "s.scene", c=4, h=3, w=3)
        assert load_scene(path.read_bytes()).rois.shape == (0, 4)

    def test_deterministic(self, tmp_path):
        a = gen_scene_file(tmp_path / "a.scene", c=8, h=5, w=5, n_rois=4, seed=3)
        b = gen_scene_file(tmp_path / "b.scene", c=8, h=5, w=5, n_rois=4, seed=3)
        assert a.read_bytes() == b.read_bytes()


class TestPrune:
    def test_scene_mode_exact_zero(self, tmp_path):
        scene = gen_scene_file(tmp_path / "s.scene", c=8, h=5, w=5, zero_channels=3, n_rois=10,
                               pool_h=2, pool_w=2, seed=1)
        model = gen_net(tmp_path / "m.net", sizes="32,6,4", sparsity=0.0, seed=2)
        out = tmp_path / "p.net"
        report = tmp_path / "p.report"
        assert run("prune", "--model", model, "--scene", scene, "--tau", 0,
                   "--out", out, "--report", report) == 0
        rep = load_report(report.read_bytes())
        assert rep.kind == "input-channels"
        assert rep.deviation_bound == 0.0
        assert rep.channels.pruned.tolist() == (
            np.flatnonzero(channel_sums(load_scene(scene.read_bytes()).fmap) == 0.0).tolist()
        )
        pruned = load_network(out.read_bytes())
        assert pruned.input_dim == 32 - 3 * 4
        assert rep.params_after.total == param_count(pruned).total
        # only layer-0 columns drop: 6 units times 12 dropped inputs
        assert rep.params_before.total - rep.params_after.total == 6 * 12

    def test_negative_tau_usage_error(self, tmp_path):
        scene = gen_scene_file(tmp_path / "s.scene", c=4, h=3, w=3, pool_h=1, pool_w=1)
        model = gen_net(tmp_path / "m.net", sizes="4,2", sparsity=0.0)
        assert run("prune", "--model", model, "--scene", scene, "--tau", -1,
                   "--out", tmp_path / "x") == 1

    def test_scene_and_probe_mutually_exclusive(self, tmp_path):
        model = gen_net(tmp_path / "m.net")
        assert run("prune", "--model", model, "--out", tmp_path / "x") == 1
        assert run("prune", "--model", model, "--scene", "a", "--probe", "b",
                   "--out", tmp_path / "x") == 1

    def test_scene_mode_rejects_nonzero_layer(self, tmp_path):
        scene = gen_scene_file(tmp_path / "s.scene", c=4, h=3, w=3, pool_h=1, pool_w=1)
        model = gen_net(tmp_path / "m.net", sizes="4,3,2", sparsity=0.0)
        assert run("prune", "--model", model, "--scene", scene, "--layer", 1,
                   "--out", tmp_path / "x") == 1

    def test_probe_mode_idempotent_at_zero(self, tmp_path):
        model = gen_net(tmp_path / "m.net", sizes="6,10,4", sparsity=0.4, seed=5)
        probe = tmp_path / "probe.json"
        probe.write_text("[0.5, -0.25, 1.0, 0.125, -1.5, 2.0]\n")
        first = tmp_path / "p1.net"
        rep1 = tmp_path / "p1.report"
        assert run("prune", "--model", model, "--probe", probe, "--tau", 0,
                   "--layer", 0, "--out", first, "--report", rep1) == 0
        r1 = load_report(rep1.read_bytes())
        assert len(r1.selections[0].pruned) >= 4  # the planted dead units
        second = tmp_path / "p2.net"
        rep2 = tmp_path / "p2.report"
        assert run("prune", "--model", first, "--probe", probe, "--tau", 0,
                   "--layer", 0, "--out", second, "--report", rep2) == 0
        r2 = load_report(rep2.read_bytes())
        assert r2.selections[0].pruned.tolist() == []
        assert r2.total_reduction == 0.0
        assert second.read_bytes() == first.read_bytes()

    def test_dimension_mismatch_names_layer(
        self, tmp_path, capsys
    ):
        scene = gen_scene_file(tmp_path / "s.scene", c=4, h=3, w=3, pool_h=1, pool_w=1)
        model = gen_net(tmp_path / "m.net", sizes="9,2", sparsity=0.0)
        assert run("prune", "--model", model, "--scene", scene, "--out", tmp_path / "x") == 1
        assert "layer 0" in capsys.readouterr().err


class TestTopn:
    def test_keep_all_is_identity(self, tmp_path):
        model = gen_net(tmp_path / "m.net", sizes="5,20", sparsity=0.0, seed=9)
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps(list(np.linspace(1.0, 0.1, 20))))
        out, lmap = tmp_path / "t.net", tmp_path / "t.labels"
        assert run("topn", "--model", model, "--scores", scores, "--n", 20,
                   "--out", out, "--labelmap", lmap) == 0
        assert out.read_bytes() == model.read_bytes()
        assert load_labelmap(lmap.read_bytes()).indices.tolist() == list(range(20))

    def test_keep_six_of_twenty(self, tmp_path):
        model = gen_net(tmp_path / "m.net", sizes="5,20", sparsity=0.0, seed=9)
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps(list(np.linspace(1.0, 0.1, 20))))
        out, lmap, rep_path = tmp_path / "t.net", tmp_path / "t.labels", tmp_path / "t.report"
        assert run("topn", "--model", model, "--scores", scores, "--n", 6,
                   "--out", out, "--labelmap", lmap, "--report", rep_path) == 0
        pruned = load_network(out.read_bytes())
        assert pruned.output_dim == 6
        rep = load_report(rep_path.read_bytes())
        assert rep.kind == "topn"
        assert rep.layer_reduction == ((0, 0.7),)
        assert load_labelmap(lmap.read_bytes()).indices.tolist() == list(range(6))

    def test_invalid_n(self, tmp_path):
        model = gen_net(tmp_path / "m.net", sizes="5,20", sparsity=0.0)
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps([0.0] * 20))
        for n in (0, 21):
            assert run("topn", "--model", model, "--scores", scores, "--n", n,
                       "--out", tmp_path / "x", "--labelmap", tmp_path / "y") == 1

    def test_malformed_scores_file(self, tmp_path):
        model = gen_net(tmp_path / "m.net", sizes="5,20", sparsity=0.0)
        scores = tmp_path / "scores.json"
        scores.write_text('{"not": "an array"}')
        assert run("topn", "--model", model, "--scores", scores, "--n", 6,
                   "--out", tmp_path / "x", "--labelmap", tmp_path / "y") == 2


class TestEval:
    def setup_pair(self, tmp_path, tau):
        scene = gen_scene_file(tmp_path / "s.scene", c=8, h=5, w=5, zero_channels=3,
                               n_rois=12, pool_h=2, pool_w=2, seed=1)
        model = gen_net(tmp_path / "m.net", sizes="32,6,4", sparsity=0.0, seed=2)
        out, report = tmp_path / "p.net", tmp_path / "p.report"
        assert run("prune", "--model", model, "--scene", scene, "--tau", tau,
                   "--out", out, "--report", report) == 0
        return scene, model, out, report

    def read_json(self, capsys):
        return json.loads(capsys.readouterr().out.strip())

    def test_identical_models(self, tmp_path, capsys):
        scene = gen_scene_file(tmp_path / "s.scene", c=4, h=3, w=3, n_rois=5,
                               pool_h=1, pool_w=1, seed=0)
        model = gen_net(tmp_path / "m.net", sizes="4,3", sparsity=0.0)
        assert run("eval", "--model-a", model, "--model-b", model, "--scene", scene) == 0
        doc = self.read_json(capsys)
        assert doc["max_abs"] == 0.0 and doc["argmax_agreement"] == 1.0
        assert doc["n_examples"] == 5 and doc["bound"] is None

    def test_exact_zero_pair(self, tmp_path, capsys):
        scene, model, out, report = self.setup_pair(tmp_path, tau=0)
        assert run("eval", "--model-a", model, "--model-b", out, "--scene", scene,
                   "--report", report) == 0
        doc = self.read_json(capsys)
        assert doc["max_abs"] == 0.0 and doc["mean_abs"] == 0.0
        assert doc["argmax_agreement"] == 1.0 and doc["bound"] == 0.0

    def test_thresholded_pair_within_bound(self, tmp_path, capsys):
        scene, model, out, report = self.setup_pair(tmp_path, tau=6.0)
        rep = load_report(report.read_bytes())
        assert len(rep.channels.pruned) > 3  # threshold actually bites
        assert run("eval", "--model-a", model, "--model-b", out, "--scene", scene,
                   "--report", report) == 0
        doc = self.read_json(capsys)
        assert doc["max_abs"] > 0.0
        assert doc["max_abs"] <= doc["bound"]

    def test_topn_pair_with_labelmap(self, tmp_path, capsys):
        scene = gen_scene_file(tmp_path / "s.scene", c=4, h=3, w=3, n_rois=8,
                               pool_h=1, pool_w=1, seed=4)
        model = gen_net(tmp_path / "m.net", sizes="4,5", sparsity=0.0, seed=6)
        scores = tmp_path / "scores.json"
        scores.write_text("[0.1, 0.9, 0.3, 0.8, 0.2]")
        out, lmap = tmp_path / "t.net", tmp_path / "t.labels"
        assert run("topn", "--model", model, "--scores", scores, "--n", 2,
                   "--out", out, "--labelmap", lmap) == 0
        assert run("eval", "--model-a", model, "--model-b", out, "--scene", scene,
                   "--labelmap", lmap) == 0
        doc = self.read_json(capsys)
        assert doc["max_abs"] == 0.0  # surviving rows are copied verbatim
        assert 0.0 <= doc["argmax_agreement"] <= 1.0

    def test_units_report_prints_a_null_bound(self, tmp_path, capsys):
        # a units report bounds its one probe; the scene's regions move further
        scene = gen_scene_file(tmp_path / "s.scene", c=8, h=6, w=6, n_rois=50,
                               pool_h=2, pool_w=2, seed=1)
        model = gen_net(tmp_path / "m.net", sizes="32,16,5", sparsity=0.0, seed=2)
        probe = tmp_path / "probe.json"
        probe.write_text(json.dumps([0.5] * 32))
        out, report = tmp_path / "p.net", tmp_path / "p.report"
        assert run("prune", "--model", model, "--probe", probe, "--layer", 0, "--tau", 0,
                   "--out", out, "--report", report) == 0
        assert load_report(report.read_bytes()).deviation_bound == 0.0
        assert run("eval", "--model-a", model, "--model-b", out, "--scene", scene,
                   "--report", report) == 0
        doc = self.read_json(capsys)
        assert doc["max_abs"] == 3.178560087590656 and doc["bound"] is None

    def test_report_of_another_model_is_refused(self, tmp_path, capsys):
        # a topn report certifies 0.0; printed next to another pair's max_abs
        # it would be a false certificate
        scene = gen_scene_file(tmp_path / "s.scene", c=8, h=5, w=5, n_rois=6,
                               pool_h=2, pool_w=2, seed=1)
        small = gen_net(tmp_path / "small.net", sizes="16,4", sparsity=0.0, seed=2)
        scores = tmp_path / "scores.json"
        scores.write_text("[0.1, 0.9, 0.3, 0.8]")
        report = tmp_path / "t.report"
        assert run("topn", "--model", small, "--scores", scores, "--n", 4, "--out",
                   tmp_path / "t.net", "--labelmap", tmp_path / "t.labels",
                   "--report", report) == 0
        a = gen_net(tmp_path / "a.net", sizes="32,6,4", sparsity=0.0, seed=3)
        b = gen_net(tmp_path / "b.net", sizes="32,6,4", sparsity=0.0, seed=4)
        capsys.readouterr()
        assert run("eval", "--model-a", a, "--model-b", b, "--scene", scene,
                   "--report", report) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: report was made from a model with 68 parameters, "
            "but --model-a has 226\n"
        )

    def test_missing_labelmap_for_narrow_model(self, tmp_path):
        scene = gen_scene_file(tmp_path / "s.scene", c=4, h=3, w=3, n_rois=2,
                               pool_h=1, pool_w=1, seed=4)
        model = gen_net(tmp_path / "m.net", sizes="4,5", sparsity=0.0, seed=6)
        scores = tmp_path / "scores.json"
        scores.write_text("[0.1, 0.9, 0.3, 0.8, 0.2]")
        out, lmap = tmp_path / "t.net", tmp_path / "t.labels"
        assert run("topn", "--model", model, "--scores", scores, "--n", 2,
                   "--out", out, "--labelmap", lmap) == 0
        assert run("eval", "--model-a", model, "--model-b", out, "--scene", scene) == 1


class TestSweep:
    def setup(self, tmp_path):
        scene = gen_scene_file(tmp_path / "s.scene", c=8, h=5, w=5, zero_channels=3,
                               n_rois=10, pool_h=2, pool_w=2, seed=1)
        model = gen_net(tmp_path / "m.net", sizes="32,6,4", sparsity=0.0, seed=2)
        return scene, model

    def test_single_zero_threshold(self, tmp_path):
        scene, model = self.setup(tmp_path)
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--model", model, "--scene", scene, "--thresholds", "0",
                   "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,pruned_units,param_reduction,mac_reduction,max_abs,argmax_agreement"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "0.0" and cells[1] == "3" and cells[4] == "0.0"

    def test_stdout_default(self, tmp_path, capsys):
        scene, model = self.setup(tmp_path)
        assert run("sweep", "--model", model, "--scene", scene, "--thresholds", "0,4,9") == 0
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert len(lines) == 4
        units = [int(r.split(",")[1]) for r in lines[1:]]
        assert units == sorted(units)
        reductions = [float(r.split(",")[2]) for r in lines[1:]]
        assert reductions == sorted(reductions)

    def test_unsorted_thresholds(self, tmp_path):
        scene, model = self.setup(tmp_path)
        assert run("sweep", "--model", model, "--scene", scene, "--thresholds", "3,1") == 1

    def test_negative_threshold(self, tmp_path):
        scene, model = self.setup(tmp_path)
        assert run("sweep", "--model", model, "--scene", scene, "--thresholds", "-2,1") == 1

    def test_bad_threshold_string(self, tmp_path):
        scene, model = self.setup(tmp_path)
        assert run("sweep", "--model", model, "--scene", scene, "--thresholds", "a,b") == 1


class TestManyRegions:
    """600 regions, so eval and sweep score them in more than one block."""

    def setup(self, tmp_path):
        scene = gen_scene_file(tmp_path / "s.scene", c=8, h=5, w=5, zero_channels=3,
                               n_rois=600, pool_h=2, pool_w=2, seed=3)
        model = gen_net(tmp_path / "m.net", sizes="32,6,4", sparsity=0.0, seed=2)
        return scene, model

    @pytest.mark.parametrize("tau", [0, 6.0])
    def test_eval_matches_compare_outputs_one_region_at_a_time(self, tmp_path, capsys, tau):
        scene, model = self.setup(tmp_path)
        out, report = tmp_path / "p.net", tmp_path / "p.report"
        assert run("prune", "--model", model, "--scene", scene, "--tau", tau,
                   "--out", out, "--report", report) == 0
        capsys.readouterr()
        assert run("eval", "--model-a", model, "--model-b", out, "--scene", scene,
                   "--report", report) == 0
        sc = load_scene(scene.read_bytes())
        rep = load_report(report.read_bytes())
        assert len(rep.channels.pruned) == (6 if tau else 3)
        examples = [roi_pool(sc.fmap, roi, sc.pool_h, sc.pool_w) for roi in sc.rois]
        want = compare_outputs(load_network(model.read_bytes()), load_network(out.read_bytes()),
                               [np.array(examples)], input_keep=rep.selections[0].kept,
                               bound=rep.deviation_bound)
        assert want.n_examples == 600 and (want.max_abs > 0.0) == bool(tau)
        assert capsys.readouterr().out == deviation_json(want) + "\n"

    def test_sweep_csv_matches_the_library(self, tmp_path):
        scene, model = self.setup(tmp_path)
        csv = tmp_path / "sweep.csv"
        assert run("sweep", "--model", model, "--scene", scene, "--thresholds", "0,2,6,inf",
                   "--out", csv) == 0
        points = sweep(load_network(model.read_bytes()), load_scene(scene.read_bytes()),
                       [0.0, 2.0, 6.0, float("inf")])
        assert csv.read_text() == sweep_csv(points)
        assert points[2].max_abs > 0.0


class TestErrorPaths:
    def test_missing_file_is_io_error(self, tmp_path):
        assert run("prune", "--model", tmp_path / "nope.net", "--probe", tmp_path / "p.json",
                   "--out", tmp_path / "x") == 2

    def test_malformed_model_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("{ not json")
        assert run("prune", "--model", bad, "--probe", bad, "--out", tmp_path / "x") == 2

    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_no_command(self):
        assert run() == 1


class TestPipelineDeterminism:
    def run_pipeline(self, root):
        root.mkdir(exist_ok=True)
        scene = gen_scene_file(root / "s.scene", c=8, h=5, w=5, zero_channels=3,
                               n_rois=10, pool_h=2, pool_w=2, seed=1)
        model = gen_net(root / "m.net", sizes="32,6,4", sparsity=0.0, seed=2)
        assert run("prune", "--model", model, "--scene", scene, "--tau", 0,
                   "--out", root / "p.net", "--report", root / "p.report") == 0
        scores = root / "scores.json"
        scores.write_text("[0.4, 0.1, 0.25, 0.9]")
        assert run("topn", "--model", root / "p.net", "--scores", scores, "--n", 2,
                   "--out", root / "t.net", "--labelmap", root / "t.labels") == 0
        assert run("sweep", "--model", model, "--scene", scene, "--thresholds", "0,2,5",
                   "--out", root / "sweep.csv") == 0
        names = ["s.scene", "m.net", "p.net", "p.report", "t.net", "t.labels", "sweep.csv"]
        return {n: (root / n).read_bytes() for n in names}

    def test_two_runs_byte_identical(self, tmp_path):
        a = self.run_pipeline(tmp_path / "a")
        b = self.run_pipeline(tmp_path / "b")
        assert a == b


def test_non_finite_probe_rejected(tmp_path):
    model = gen_net(tmp_path / "m.net", sizes="2,2", sparsity=0.0)
    probe = tmp_path / "probe.json"
    probe.write_text("[1.0, Infinity]")
    assert run("prune", "--model", model, "--probe", probe, "--out", tmp_path / "x") == 2


def overflow_model(path):
    """Finite 1e308 weights: any forward pass overflows to inf and then NaN."""
    big = np.full((2, 2), 1e308)
    net = Network((DenseLayer(big, [0.0, 0.0]),
                   DenseLayer(big, [0.0, 0.0], ActivationKind.IDENTITY)))
    path.write_bytes(save_network(net))
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_bound_refused_and_nothing_written(tmp_path):
    model = overflow_model(tmp_path / "big.net")
    scene = gen_scene_file(tmp_path / "s.scene", c=2, h=2, w=2, n_rois=3,
                           pool_h=1, pool_w=1, seed=1)
    out, report = tmp_path / "p.net", tmp_path / "p.report"
    assert run("prune", "--model", model, "--scene", scene, "--tau", 5,
               "--out", out, "--report", report) == 1
    assert not out.exists() and not report.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_of_overflowing_model_exits_1(tmp_path, capsys):
    model = overflow_model(tmp_path / "big.net")
    scene = gen_scene_file(tmp_path / "s.scene", c=2, h=2, w=2, n_rois=3,
                           pool_h=1, pool_w=1, seed=1)
    assert run("eval", "--model-a", model, "--model-b", model, "--scene", scene) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_of_overflowing_model_exits_1_and_writes_nothing(tmp_path, capsys):
    gen_net(tmp_path / "m.net", sizes="16,8,3", sparsity=0.0, seed=3)
    net = load_network((tmp_path / "m.net").read_bytes())
    big = Network(tuple(DenseLayer(lay.weights * 1e300, lay.bias, lay.activation)
                        for lay in net.layers))
    model = tmp_path / "big.net"
    model.write_bytes(save_network(big))
    scene = gen_scene_file(tmp_path / "s.scene", c=4, h=4, w=4, n_rois=3,
                           pool_h=2, pool_w=2, seed=1)
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--model", model, "--scene", scene, "--thresholds", "0,1,inf",
               "--out", out) == 1
    assert not out.exists()
    assert run("sweep", "--model", model, "--scene", scene, "--thresholds", "0") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "max_abs" in captured.err


def test_eval_with_empty_selection_report_is_format_error(tmp_path, capsys):
    scene = gen_scene_file(tmp_path / "s.scene", c=4, h=4, w=4, zero_channels=2,
                           n_rois=3, pool_h=2, pool_w=2, seed=1)
    model = gen_net(tmp_path / "m.net", sizes="16,5,3", sparsity=0.0)
    report = tmp_path / "p.report"
    assert run("prune", "--model", model, "--scene", scene, "--out", tmp_path / "p.net",
               "--report", report) == 0
    doc = json.loads(report.read_text())
    doc["selections"] = []
    report.write_text(json.dumps(doc))
    assert run("eval", "--model-a", model, "--model-b", tmp_path / "p.net", "--scene", scene,
               "--report", report) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("format error: ")


def test_eval_with_a_negative_label_map_index_is_one_format_error_line(tmp_path, capsys):
    scene = gen_scene_file(tmp_path / "s.scene", c=4, h=3, w=3, n_rois=2,
                           pool_h=1, pool_w=1, seed=4)
    model = gen_net(tmp_path / "m.net", sizes="4,5", sparsity=0.0, seed=6)
    scores = tmp_path / "scores.json"
    scores.write_text("[0.1, 0.9, 0.3, 0.8, 0.2]")
    out, lmap = tmp_path / "t.net", tmp_path / "t.labels"
    assert run("topn", "--model", model, "--scores", scores, "--n", 2,
               "--out", out, "--labelmap", lmap) == 0
    capsys.readouterr()
    lmap.write_bytes(b'{"version": 1, "kept": [-1, 2], "labels": null}')
    assert run("eval", "--model-a", model, "--model-b", out, "--scene", scene,
               "--labelmap", lmap) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "format error: label map: label map indices must be nonnegative, got -1\n"
    )


@pytest.mark.parametrize("flag", ["--report", "--labelmap"])
def test_eval_with_an_empty_input_path_is_an_io_error(tmp_path, capsys, flag):
    # an empty path names no file, as for any other input; it does not mean "none"
    scene = gen_scene_file(tmp_path / "s.scene", c=4, h=3, w=3, n_rois=2,
                           pool_h=1, pool_w=1, seed=4)
    model = gen_net(tmp_path / "m.net", sizes="4,5", sparsity=0.0, seed=6)
    assert run("eval", "--model-a", model, "--model-b", model, "--scene", scene, flag, "") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "i/o error: [Errno 2] No such file or directory: ''\n"


def test_a_failed_rename_names_the_output_alone(tmp_path, capsys, monkeypatch):
    # '' resolves to the working directory, and no file can be renamed over it
    model = gen_net(tmp_path / "m.net", sizes="6,10,4")
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps([0.5] * 6))
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    assert run("prune", "--model", model, "--probe", probe, "--out", "p.net",
               "--report", "") == 2
    assert capsys.readouterr().err == "i/o error: [Errno 21] Is a directory: ''\n"
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


@pytest.mark.parametrize("report", ["", "work", "work/sub/.."],
                         ids=["empty", "directory", "dotdot"])
def test_an_output_that_is_a_directory_leaves_no_other_output(tmp_path, capsys, monkeypatch,
                                                               report):
    # every destination is checked before any file is made, so p.net is not written either
    model = gen_net(tmp_path / "m.net", sizes="6,10,4")
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps([0.5] * 6))
    (tmp_path / "work" / "sub").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.rglob("*"))
    assert run("prune", "--model", model, "--probe", probe, "--out", "work/p.net",
               "--report", report) == 2
    assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: {report!r}\n"
    assert not (tmp_path / "work" / "p.net").exists()
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


def test_a_model_input_measures_its_size_as_its_bytes_do(tmp_path):
    model = gen_net(tmp_path / "m.net")
    with _Input(model) as f:
        assert len(f) == len(model.read_bytes())
        assert load_network(f) == load_network(model.read_bytes())
    assert f.closed


def test_a_model_read_through_a_pipe_prunes_as_from_its_file(tmp_path):
    model = gen_net(tmp_path / "m.net")
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps([0.5] * 6))
    assert run("prune", "--model", model, "--probe", probe, "--out", tmp_path / "a.net") == 0
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(model.read_bytes(),), daemon=True)
    writer.start()
    try:
        assert run("prune", "--model", fifo, "--probe", probe, "--out", tmp_path / "b.net") == 0
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert (tmp_path / "b.net").read_bytes() == (tmp_path / "a.net").read_bytes()


HUGE = "1" + "0" * 400  # an integer JSON literal far beyond float range


def with_huge_first_value(path, key):
    """Rewrite an artifact so the first number after "key": [ is HUGE."""
    text = path.read_text()
    start = text.index("[", text.index(f'"{key}":')) + 1
    start += len(text[start:]) - len(text[start:].lstrip())
    end = min(text.index(c, start) for c in ",]")
    path.write_text(text[:start] + HUGE + text[end:])
    return path


@pytest.mark.parametrize("which", ["model", "scene", "probe"])
def test_integer_too_large_for_a_float_is_format_error(tmp_path, capsys, which):
    model = gen_net(tmp_path / "m.net", sizes="16,5,3", sparsity=0.0)
    scene = gen_scene_file(tmp_path / "s.scene", c=4, h=4, w=4, n_rois=3,
                           pool_h=2, pool_w=2, seed=1)
    probe = tmp_path / "p.json"
    probe.write_text("[" + ", ".join(["1"] * 15 + ["2"]) + "]")
    if which == "model":
        with_huge_first_value(model, "weights")
    elif which == "scene":
        with_huge_first_value(scene, "data")
    else:
        probe.write_text(f"[1, 2, {HUGE}]")
    args = ["--scene", scene] if which == "scene" else ["--probe", probe]
    assert run("prune", "--model", model, *args, "--tau", 0, "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert err.startswith("format error:") and "integer too large for a float" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("literal", ["1e400", "-1e400"])
@pytest.mark.parametrize("command", ["prune --probe", "topn --scores", "eval --report"])
def test_float_literal_too_large_for_a_float_is_format_error(tmp_path, capsys, command, literal):
    # json reads such a literal as inf: refused as the file's fault, before anything is written
    model = gen_net(tmp_path / "m.net", sizes="16,5,3", sparsity=0.0)
    scene = gen_scene_file(tmp_path / "s.scene", c=4, h=4, w=4, n_rois=3,
                           pool_h=2, pool_w=2, seed=1)
    numbers = tmp_path / "v.json"
    numbers.write_text(f"[{', '.join(['1.5'] * 15)}, {literal}]")
    out = tmp_path / "x"
    if command == "prune --probe":
        argv = ["prune", "--model", model, "--probe", numbers, "--tau", 0, "--out", out]
        message = "probe file: number too large for a float"
    elif command == "topn --scores":
        numbers.write_text(f"[0.5, 1.5, {literal}]")
        argv = ["topn", "--model", model, "--scores", numbers, "--n", 2, "--out", out,
                "--labelmap", tmp_path / "x.labels"]
        message = "scores file: number too large for a float"
    else:
        report = tmp_path / "p.report"
        assert run("prune", "--model", model, "--scene", scene, "--tau", 0,
                   "--out", tmp_path / "p.net", "--report", report) == 0
        text = report.read_text()
        assert '"deviation_bound": 0.0' in text
        report.write_text(text.replace('"deviation_bound": 0.0', f'"deviation_bound": {literal}'))
        argv = ["eval", "--model-a", model, "--model-b", tmp_path / "p.net", "--scene", scene,
                "--report", report]
        message = "report: key 'deviation_bound' is too large for a float"
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr() == ("", f"format error: {message}\n")
    assert not out.exists() and not (tmp_path / "x.labels").exists()


def test_overflowing_sweep_prints_only_the_error(tmp_path):
    gen_net(tmp_path / "m.net", sizes="16,8,3", sparsity=0.0, seed=3)
    net = load_network((tmp_path / "m.net").read_bytes())
    big = Network(tuple(DenseLayer(lay.weights * 1e300, lay.bias, lay.activation)
                        for lay in net.layers))
    model = tmp_path / "big.net"
    model.write_bytes(save_network(big))
    scene = gen_scene_file(tmp_path / "s.scene", c=4, h=4, w=4, n_rois=3,
                           pool_h=2, pool_w=2, seed=1)
    # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr as they do for users
    src = Path(unitprune.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "unitprune.cli", "sweep", "--model", str(model),
         "--scene", str(scene), "--thresholds", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: sweep at tau 0.0: max_abs is nan\n"


@pytest.mark.parametrize("flag, message", [
    (["--thresholds", "3,1"], "error: thresholds must be ascending, got 3.0 before 1.0\n"),
    (["--thresholds=-2,1"], "error: threshold must be nonnegative, got -2.0\n"),
])
def test_unordered_or_negative_thresholds_are_one_error_line(tmp_path, flag, message):
    model = gen_net(tmp_path / "m.net", sizes="16,5,3", sparsity=0.0)
    scene = gen_scene_file(tmp_path / "s.scene", c=4, h=4, w=4, n_rois=3,
                           pool_h=2, pool_w=2, seed=1)
    csv = tmp_path / "sweep.csv"
    src = Path(unitprune.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "unitprune.cli", "sweep", "--model", str(model),
         "--scene", str(scene), *flag, "--out", str(csv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == message
    assert not csv.exists()


def test_overflowing_probe_is_refused_by_layer(tmp_path):
    # 1e300 weights and a probe of 1.5s: layer 0 stays finite, layer 1 overflows
    gen_net(tmp_path / "m.net", sizes="16,8,3", sparsity=0.0, seed=3)
    net = load_network((tmp_path / "m.net").read_bytes())
    big = Network(tuple(DenseLayer(lay.weights * 1e300, lay.bias, lay.activation)
                        for lay in net.layers))
    model = tmp_path / "big.net"
    model.write_bytes(save_network(big))
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps([1.5] * 16))
    src = Path(unitprune.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "unitprune.cli", "prune", "--model", str(model),
         "--probe", str(probe), "--tau", "0", "--out", str(tmp_path / "out.net"),
         "--report", str(tmp_path / "out.report")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: layer 1 activations on the probe are not finite\n"
    assert not (tmp_path / "out.net").exists() and not (tmp_path / "out.report").exists()


# every file the CLI reads, by flag: which command reads it and what the error calls it
_NON_UTF8_CASES = [
    ("prune", "--model", "model"),
    ("prune", "--scene", "scene"),
    ("prune", "--probe", "probe"),
    ("topn", "--model", "model"),
    ("topn", "--scores", "scores"),
    ("eval", "--model-a", "model"),
    ("eval", "--model-b", "model"),
    ("eval", "--scene", "scene"),
    ("eval", "--labelmap", "label map"),
    ("eval", "--report", "report"),
    ("sweep", "--model", "model"),
    ("sweep", "--scene", "scene"),
]


@pytest.mark.parametrize("command,flag,what", _NON_UTF8_CASES)
def test_non_utf8_input_is_one_format_error_line(tmp_path, command, flag, what):
    model = gen_net(tmp_path / "m.net", sizes="8,5,3", sparsity=0.0, seed=2)
    scene = gen_scene_file(tmp_path / "s.scene", c=2, h=4, w=4, n_rois=3, pool_h=2, pool_w=2)
    (tmp_path / "probe.json").write_text(json.dumps([0.5] * 8))
    (tmp_path / "scores.json").write_text(json.dumps([0.1, 0.9, 0.3]))
    assert run("topn", "--model", model, "--scores", tmp_path / "scores.json", "--n", "2",
               "--out", tmp_path / "top.net", "--labelmap", tmp_path / "top.labels") == 0
    assert run("prune", "--model", model, "--scene", scene, "--out", tmp_path / "p.net",
               "--report", tmp_path / "p.report") == 0
    inputs = {
        "prune": {"--model": model, "--probe": tmp_path / "probe.json"},
        "topn": {"--model": model, "--scores": tmp_path / "scores.json", "--n": "2"},
        "eval": {"--model-a": model, "--model-b": tmp_path / "p.net", "--scene": scene,
                 "--report": tmp_path / "p.report", "--labelmap": tmp_path / "top.labels"},
        "sweep": {"--model": model, "--scene": scene, "--thresholds": "0"},
    }[command]
    if flag == "--scene" and command == "prune":
        del inputs["--probe"]
    outputs = {
        "prune": {"--out": tmp_path / "out.net", "--report": tmp_path / "out.report"},
        "topn": {"--out": tmp_path / "out.net", "--labelmap": tmp_path / "out.labels"},
        "eval": {},
        "sweep": {"--out": tmp_path / "out.csv"},
    }[command]
    bad = tmp_path / "bad.file"
    # a UTF-16 byte-order mark, then UTF-16 text
    bad.write_bytes(b"\xff\xfe" + '{"version": 1}'.encode("utf-16-le"))
    inputs[flag] = bad
    argv = [command, *(str(a) for pair in {**inputs, **outputs}.items() for a in pair)]
    src = Path(unitprune.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "unitprune.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"format error: {what} file is not UTF-8: invalid start byte at byte 0\n"
    assert not any(path.exists() for path in outputs.values())


def test_negative_deviation_bound_in_a_report_is_a_format_error(tmp_path):
    model = gen_net(tmp_path / "m.net", sizes="16,5,3", sparsity=0.0)
    scene = gen_scene_file(tmp_path / "s.scene", c=4, h=4, w=4, n_rois=3,
                           pool_h=2, pool_w=2, seed=1)
    report = tmp_path / "p.report"
    assert run("prune", "--model", model, "--scene", scene, "--tau", 5,
               "--out", tmp_path / "p.net", "--report", report) == 0
    doc = json.loads(report.read_text())
    doc["deviation_bound"] = -5.0
    report.write_text(json.dumps(doc))
    src = Path(unitprune.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "unitprune.cli", "eval", "--model-a", str(model),
         "--model-b", str(tmp_path / "p.net"), "--scene", str(scene), "--report", str(report)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "format error: report: deviation_bound must be nonnegative, got -5.0\n"


def test_input_channels_report_with_other_columns_is_a_format_error(tmp_path):
    # eval would print the channels' bound next to a measurement on other columns
    model = gen_net(tmp_path / "m.net", sizes="16,5,3", sparsity=0.0)
    scene = gen_scene_file(tmp_path / "s.scene", c=4, h=4, w=4, zero_channels=1, n_rois=3,
                           pool_h=2, pool_w=2, seed=1)
    report = tmp_path / "p.report"
    assert run("prune", "--model", model, "--scene", scene, "--tau", 0,
               "--out", tmp_path / "p.net", "--report", report) == 0
    doc = json.loads(report.read_text())
    assert doc["channels"]["pruned"]
    doc["selections"][0] = {"layer": 0, "pruned": [], "kept": list(range(16))}
    report.write_text(json.dumps(doc))
    src = Path(unitprune.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "unitprune.cli", "eval", "--model-a", str(model),
         "--model-b", str(model), "--scene", str(scene), "--report", str(report)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        "format error: report: selection 0 does not prune exactly the columns "
        "of the pruned channels\n"
    )


@pytest.mark.parametrize("argv", [
    ["gen-net", "--sizes", "4,3"],
    ["gen-scene", "--c", "4"],
], ids=["gen-net", "gen-scene"])
def test_negative_seed_is_one_error_line(tmp_path, argv):
    out = tmp_path / "x.out"
    src = Path(unitprune.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "unitprune.cli", *argv, "--seed", "-1", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("layer, message", [
    (-1, "profile has layers 0..2, got -1"),
    (3, "profile has layers 0..2, got 3"),
    (9, "profile has layers 0..2, got 9"),
    (2, "prune_units needs a hidden layer; use prune_output_topn for the final layer"),
])
def test_probe_layer_out_of_range_is_one_error_line(tmp_path, capsys, layer, message):
    model = gen_net(tmp_path / "m.net", sizes="8,6,4,3", sparsity=0.0)
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps([0.5] * 8))
    out = tmp_path / "out.net"
    assert run("prune", "--model", model, "--probe", probe, "--layer", layer,
               "--out", out) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,outputs,clash", [
    ("prune", {"--out": "x.json", "--report": "x.json"}, ("x.json", "x.json")),
    ("prune", {"--out": "x.json", "--report": "sub/../x.json"}, ("x.json", "sub/../x.json")),
    ("topn", {"--out": "x.json", "--labelmap": "x.json"}, ("x.json", "x.json")),
    ("topn", {"--out": "t.net", "--labelmap": "x.json", "--report": "link.json"},
     ("x.json", "link.json")),
    ("topn", {"--out": "t.net", "--labelmap": "l.json", "--report": "t.net"}, ("t.net", "t.net")),
])
def test_two_outputs_that_name_one_file_are_a_usage_error(
    tmp_path, capsys, command, outputs, clash
):
    model = gen_net(tmp_path / "m.net", sizes="8,5,3", sparsity=0.0, seed=2)
    scene = gen_scene_file(tmp_path / "s.scene", c=2, h=4, w=4, n_rois=3, pool_h=2, pool_w=2)
    (tmp_path / "scores.json").write_text(json.dumps([0.1, 0.9, 0.3]))
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.json").symlink_to(tmp_path / "x.json")
    (tmp_path / "t.net").write_bytes(b"old")
    inputs = {
        "prune": ["--model", model, "--scene", scene],
        "topn": ["--model", model, "--scores", tmp_path / "scores.json", "--n", 2],
    }[command]
    argv = [command, *inputs, *(a for flag, name in outputs.items() for a in (flag, tmp_path / name))]
    capsys.readouterr()
    assert run(*argv) == 1
    first, second = (str(tmp_path / name) for name in clash)
    assert capsys.readouterr() == (
        "", f"usage error: outputs {first!r} and {second!r} name the same file\n"
    )
    # nothing is created, and a file that was there is left as it was
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.json", "m.net", "s.scene", "scores.json", "sub", "t.net"]
    assert (tmp_path / "t.net").read_bytes() == b"old"


def test_outputs_may_share_a_character_device(tmp_path):
    model = gen_net(tmp_path / "m.net", sizes="8,5,3", sparsity=0.0, seed=2)
    scene = gen_scene_file(tmp_path / "s.scene", c=2, h=4, w=4, n_rois=3, pool_h=2, pool_w=2)
    assert run("prune", "--model", model, "--scene", scene,
               "--out", os.devnull, "--report", os.devnull) == 0


@pytest.mark.parametrize("argv, code, message", [
    (["eval", "--model-a", "m.net", "--model-b", "m.net", "--scene", "s.scene"], 1,
     "error: model expects 16 inputs but the scene pools to 3136"),
    (["prune", "--model", "list.net", "--scene", "s.scene", "--out", "p.net"], 2,
     "format error: model: expected a top-level object"),
    (["prune", "--model", "empty.net", "--scene", "s.scene", "--out", "p.net"], 1,
     "error: cannot prune the input of an empty network"),
    (["topn", "--model", "empty.net", "--scores", "scores.json", "--n", 1, "--out", "p.net",
      "--labelmap", "p.labels"], 1, "error: cannot prune the outputs of an empty network"),
], ids=["eval-input-width", "top-level-list", "prune-empty-model", "topn-empty-model"])
def test_a_refused_input_is_one_error_line_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                              argv, code, message):
    monkeypatch.chdir(tmp_path)
    gen_net("m.net", sizes="16,8,3", sparsity=0.0)
    gen_net("empty.net", sizes="4")  # no layers
    gen_scene_file("s.scene", c=64, h=8, w=8, n_rois=2)  # pools 64 x 7 x 7
    Path("list.net").write_text("[1, 2]")
    Path("scores.json").write_text("[0.5]")
    before = sorted(os.listdir())
    capsys.readouterr()
    assert run(*argv) == code
    assert capsys.readouterr() == ("", message + "\n")
    assert sorted(os.listdir()) == before


PRUNE = ["prune", "--model", "m.net", "--scene", "s.scene", "--out", "x.net",
         "--report", "x.report"]
EVAL_REPORT = ["eval", "--model-a", "m.net", "--model-b", "p.net", "--scene", "s.scene",
               "--report", "p.report"]


@pytest.mark.parametrize("argv, edit, code, message", [
    (PRUNE, ("m.net", '"labels": ', ",\n", "[1, 2, 3, 4]"), 2,
     "format error: model: labels must be null or an array of strings"),
    (PRUNE, ("m.net", '"layers": [\n', ",\n{", "1"), 2,
     "format error: layer 0: expected an object"),
    (EVAL_REPORT, ("p.report", '"per_layer": [', ", [", "[1, -2]"), 2,
     "format error: params_before per_layer[0]: expected two nonnegative integers"),
    (EVAL_REPORT, ("p.report", '"deviation_bound": ', ",\n", '"x"'), 2,
     "format error: report: deviation_bound must be null or a number"),
    (PRUNE, ("s.scene", '"rois": [\n', ",\n", "[0, 0, 1]"), 2,
     "format error: roi 0: expected four integers [x0, y0, x1, y1]"),
    (PRUNE, ("s.scene", '"pool_h": ', ",\n", "0"), 2,
     "format error: scene: pool grid must be at least 1x1, got 0x2"),
    (PRUNE, ("s.scene", '"data": [\n', ",", "1e400"), 2,
     "format error: scene: feature map contains non-finite values"),
    (["gen-net", "--sizes", "4,-1", "--out", "x.net"], None, 1,
     "error: gen_network: sizes must be nonnegative, got [4, -1]"),
    (["topn", "--model", "m.net", "--scores", "three.json", "--n", 2, "--out", "x.net",
      "--labelmap", "x.labels"], None, 1, "error: 3 scores for 4 output units"),
    (["sweep", "--model", "empty.net", "--scene", "s.scene", "--thresholds", "0"], None, 1,
     "error: cannot sweep an empty network"),
    (["eval", "--model-a", "m.net", "--model-b", "m.net", "--scene", "s.scene",
      "--labelmap", "t.labels"], None, 1,
     "error: label map keeps 2 outputs but the pruned network has 4"),
], ids=["model-labels", "model-layer", "report-params", "report-bound", "scene-roi",
        "scene-pool-grid", "scene-data", "gen-net-sizes", "topn-scores", "sweep-empty",
        "eval-labelmap"])
def test_a_refused_field_is_one_error_line_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                              argv, edit, code, message):
    monkeypatch.chdir(tmp_path)
    gen_net("m.net", sizes="16,6,4", sparsity=0.0, seed=1)
    gen_net("empty.net", sizes="4")  # no layers
    gen_scene_file("s.scene", c=4, h=5, w=5, n_rois=3, pool_h=2, pool_w=2, seed=1)
    assert run("prune", "--model", "m.net", "--scene", "s.scene", "--tau", 0,
               "--out", "p.net", "--report", "p.report") == 0
    Path("scores.json").write_text("[0.1, 0.9, 0.3, 0.8]")
    Path("three.json").write_text("[0.1, 0.9, 0.3]")
    assert run("topn", "--model", "m.net", "--scores", "scores.json", "--n", 2,
               "--out", "t.net", "--labelmap", "t.labels") == 0
    if edit:
        # the value after the first `after` in the file, up to the next `until`, becomes `value`
        name, after, until, value = edit
        text = Path(name).read_text()
        start = text.index(after) + len(after)
        Path(name).write_text(text[:start] + value + text[text.index(until, start):])
    before = sorted(os.listdir())
    capsys.readouterr()
    assert run(*argv) == code
    assert capsys.readouterr() == ("", message + "\n")
    assert sorted(os.listdir()) == before
