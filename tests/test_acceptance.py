"""Acceptance gate: the six end-to-end guarantees this package promises.

Each test prints one PASS/FAIL line with the measured numbers, then asserts.
Run `pytest -v tests/test_acceptance.py` to see one verdict line per
criterion.
"""

import time

import numpy as np

from unitprune.cli import main
from unitprune.model import forward, gen_network, load_network, output, param_count, save_network
from unitprune.prune import (
    PruneConfig,
    PruneSelection,
    prune_input_channels,
    prune_output_topn,
    prune_units,
    select_units,
)
from unitprune.report import sweep, sweep_csv
from unitprune.scene import channel_sums, gen_scene, load_scene, roi_pool, save_scene


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_exact_zero_propagation():
    t0 = time.perf_counter()
    sc = gen_scene(64, 14, 14, zero_channels=30, n_rois=1000, pool_h=7, pool_w=7, seed=2026)
    net = gen_network([3136, 256, 64, 20], seed=11)
    pruned, rep = prune_input_channels(
        net, channel_sums(sc.fmap), 7, 7, PruneConfig(0.0)
    )
    keep = list(rep.selections[0].kept)
    dropped = len(rep.selections[0].pruned)
    identical = 0
    for roi in sc.rois:
        x = roi_pool(sc.fmap, roi, 7, 7)
        if output(net, x).tobytes() == output(pruned, x[keep]).tobytes():
            identical += 1
    elapsed = time.perf_counter() - t0
    ok = identical == 1000 and dropped == 1470 and net.input_dim == 3136 and elapsed < 10.0
    verdict(
        ok,
        "criterion 1 (exact zero propagation)",
        f"{identical}/1000 rois bit-identical, {dropped}/3136 columns dropped, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_accounting_identity():
    rng = np.random.default_rng(501)
    exact = 0
    trials = 50
    for _ in range(trials):
        depth = int(rng.integers(3, 6))
        sizes = [int(rng.integers(1, 30)) for _ in range(depth)]
        net = gen_network(sizes, seed=int(rng.integers(1_000_000)))
        k = int(rng.integers(0, depth - 2))
        units = net.layers[k].units
        q = int(rng.integers(0, units + 1))
        picked = sorted(rng.choice(units, size=q, replace=False).tolist())
        sel = PruneSelection.from_pruned(picked, units, layer=k)
        _, rep = prune_units(net, k, sel)
        m = net.layers[k].inputs
        p = net.layers[k + 1].units
        d_params = rep.params_before.total - rep.params_after.total
        d_macs = rep.params_before.macs - rep.params_after.macs
        if d_params == q * (m + 1) + p * q and d_macs == q * m + p * q:
            exact += 1
    ok = exact == trials
    verdict(
        ok,
        "criterion 2 (accounting identity)",
        f"{exact}/{trials} networks with exact parameter and mac deltas",
    )


def test_criterion_3_deviation_bound_soundness():
    rng = np.random.default_rng(502)
    sound = 0
    trials = 100
    for _ in range(trials):
        depth = int(rng.integers(3, 6))
        sizes = [int(rng.integers(1, 25)) for _ in range(depth)]
        net = gen_network(
            sizes,
            sparsity=float(rng.uniform(0, 0.5)),
            seed=int(rng.integers(1_000_000)),
        )
        x = rng.uniform(-2, 2, size=sizes[0])
        prof = forward(net, x)
        k = int(rng.integers(0, depth - 2))
        tau = float(rng.uniform(0, 1.0))
        sel = select_units(prof[k], PruneConfig(tau), layer=k)
        pruned, rep = prune_units(net, k, sel, profile=prof)
        base = output(net, x)
        delta = float(np.abs(base - output(pruned, x)).max()) if base.size else 0.0
        if delta <= rep.deviation_bound:
            sound += 1
    zero_ok = 0
    zero_trials = 20
    for _ in range(zero_trials):
        sizes = [int(rng.integers(2, 15)) for _ in range(3)]
        net = gen_network(sizes, sparsity=0.5, seed=int(rng.integers(1_000_000)))
        x = rng.uniform(-2, 2, size=sizes[0])
        prof = forward(net, x)
        sel = select_units(prof[0], PruneConfig(0.0), layer=0)
        _, rep = prune_units(net, 0, sel, profile=prof)
        if rep.deviation_bound == 0.0:
            zero_ok += 1
    ok = sound == trials and zero_ok == zero_trials
    verdict(
        ok,
        "criterion 3 (deviation bound soundness)",
        f"{sound}/{trials} thresholded triples within bound, "
        f"{zero_ok}/{zero_trials} exact-zero selections with bound 0",
    )


def test_criterion_4_topn_argmax_preservation():
    rng = np.random.default_rng(503)
    qualifying = 0
    preserved = 0
    trials = 1000
    for _ in range(trials):
        out_dim = int(rng.integers(2, 15))
        sizes = [int(rng.integers(2, 10)), int(rng.integers(2, 10)), out_dim]
        net = gen_network(sizes, seed=int(rng.integers(1_000_000)))
        x = rng.uniform(-2, 2, size=sizes[0])
        scores = rng.uniform(size=out_dim)
        n = int(rng.integers(1, out_dim + 1))
        pruned, lm, _ = prune_output_topn(net, scores, n)
        winner = int(np.argmax(output(net, x)))
        if winner in lm.indices:
            qualifying += 1
            mapped = lm.indices[int(np.argmax(output(pruned, x)))]
            if mapped == winner:
                preserved += 1
    net20 = gen_network([8, 20], seed=77)
    pruned20, lm20, rep20 = prune_output_topn(net20, rng.uniform(size=20), 6)
    rows_before = net20.layers[-1].units
    rows_after = pruned20.layers[-1].units
    row_reduction = (rows_before - rows_after) / rows_before
    ok = qualifying == preserved and qualifying > 0 and row_reduction == 0.7
    verdict(
        ok,
        "criterion 4 (top-n argmax preservation)",
        f"{preserved}/{qualifying} qualifying triples preserved "
        f"(of {trials} total), 20-class n=6 row reduction {row_reduction:.0%}",
    )


def test_criterion_5_sweep_monotonicity():
    sc = gen_scene(64, 14, 14, zero_channels=30, n_rois=50, pool_h=7, pool_w=7, seed=2027)
    net = gen_network([3136, 64, 10], seed=12)
    sums = np.sort(channel_sums(sc.fmap))
    live = sums[sums > 0]
    qs = np.quantile(live, np.linspace(0.05, 0.95, 19))
    taus = [0.0] + [float(t) for t in np.sort(qs)]
    assert len(taus) == 20
    points = sweep(net, sc, taus)
    csv = sweep_csv(points)
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    units_col = [int(r[1]) for r in rows]
    param_col = [float(r[2]) for r in rows]
    mac_col = [float(r[3]) for r in rows]
    monotone = (
        units_col == sorted(units_col)
        and param_col == sorted(param_col)
        and mac_col == sorted(mac_col)
    )
    zero_exact = float(rows[0][4]) == 0.0 and rows[0][0] == "0.0"
    zero_frac = 30 / 64
    ok = monotone and zero_exact and max(param_col) >= 0.40 and zero_frac >= 0.40
    verdict(
        ok,
        "criterion 5 (sweep monotonicity)",
        f"20 thresholds, monotone columns: {monotone}, max_abs at tau 0: {rows[0][4]}, "
        f"peak first-layer param reduction {max(param_col):.1%} "
        f"on a scene with {zero_frac:.1%} zero channels",
    )


def test_criterion_6_determinism(tmp_path):
    net_a = gen_network([50, 20, 5], sparsity=0.25, seed=9)
    net_b = gen_network([50, 20, 5], sparsity=0.25, seed=9)
    lib_net = save_network(net_a) == save_network(net_b)
    round_trip = save_network(load_network(save_network(net_a))) == save_network(net_a)
    sc_a = gen_scene(12, 9, 9, zero_channels=4, n_rois=15, pool_h=3, pool_w=3, seed=8)
    sc_b = gen_scene(12, 9, 9, zero_channels=4, n_rois=15, pool_h=3, pool_w=3, seed=8)
    lib_scene = save_scene(sc_a) == save_scene(sc_b)
    scene_trip = save_scene(load_scene(save_scene(sc_a))) == save_scene(sc_a)

    files = {}
    for tag in ("x", "y"):
        d = tmp_path / tag
        d.mkdir()
        args = lambda *a: [str(v) for v in a]  # noqa: E731
        assert main(args("gen-net", "--sizes", "27,9,4", "--sparsity", "0.3",
                         "--seed", "3", "--out", d / "m.net")) == 0
        assert main(args("gen-scene", "--c", "3", "--h", "6", "--w", "6",
                         "--zero-channels", "1", "--n-rois", "8", "--pool-h", "3",
                         "--pool-w", "3", "--seed", "4", "--out", d / "s.scene")) == 0
        assert main(args("prune", "--model", d / "m.net", "--scene", d / "s.scene",
                         "--tau", "0", "--out", d / "p.net",
                         "--report", d / "p.report")) == 0
        assert main(args("sweep", "--model", d / "m.net", "--scene", d / "s.scene",
                         "--thresholds", "0,1,10", "--out", d / "sweep.csv")) == 0
        files[tag] = {
            n: (d / n).read_bytes()
            for n in ("m.net", "s.scene", "p.net", "p.report", "sweep.csv")
        }
    cli_identical = files["x"] == files["y"]
    ok = lib_net and round_trip and lib_scene and scene_trip and cli_identical
    verdict(
        ok,
        "criterion 6 (determinism and round-trip)",
        f"library gen repeatable: {lib_net and lib_scene}, "
        f"save-load-save byte-identical: {round_trip and scene_trip}, "
        f"cli pipeline repeatable: {cli_identical}",
    )
