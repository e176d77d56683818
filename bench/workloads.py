"""The benchmark's workloads: seeded inputs, timed CLI commands, output checks.

Every input derives from the workload seed: the gen-scene/gen-net seeds, the
probe vector and the score files. The program sees only the generated files
and the command-line flags. Why each workload exists, and which layer it
stresses, is in README.md.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SWEEP_CSV_HEADER = "tau,pruned_units,param_reduction,mac_reduction,max_abs,argmax_agreement"

# A check returns (label, passed) pairs; each pair is one counted operation.
Check = Callable[[str, Path], list]


@dataclass(frozen=True)
class Step:
    """One CLI command: `unitprune <argv>` run in the work directory."""

    name: str
    kind: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    check: Check | None = None


@dataclass(frozen=True)
class Plan:
    """Everything one run of a workload executes.

    session builds the timed command sequence once set-up has written the
    inputs, because some flags derive from the generated scene.
    """

    files: dict[str, str]  # generated input files, written during set-up
    setup: tuple[Step, ...]
    session: Callable[[Path], tuple[Step, ...]]
    regions: int = 0  # regions scored by one eval or sweep command
    library_check: Check | None = None  # run once, after the timed section


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""

    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


def eval_doc(stdout: str) -> dict | None:
    """The deviation report an eval printed, or None if it is not valid."""
    try:
        doc = strict_json(stdout)
    except ValueError:
        return None
    ok = isinstance(doc, dict) and all(
        isinstance(doc.get(k), (int, float)) and not isinstance(doc.get(k), bool)
        for k in ("max_abs", "bound")
    )
    return doc if ok else None


def check_exact_eval(stdout: str, workdir: Path) -> list:
    doc = eval_doc(stdout)
    return [
        ("eval stdout is strict JSON", doc is not None),
        ("tau=0 eval: max_abs == 0 and bound == 0",
         doc is not None and doc["max_abs"] == 0.0 and doc["bound"] == 0.0),
    ]


def check_bounded_eval(stdout: str, workdir: Path) -> list:
    doc = eval_doc(stdout)
    return [
        ("eval stdout is strict JSON", doc is not None),
        ("tau>0 eval: max_abs <= bound", doc is not None and doc["max_abs"] <= doc["bound"]),
    ]


def sweep_checker(taus: list[float], pruned: list[int]) -> Check:
    def check(stdout: str, workdir: Path) -> list:
        lines = (workdir / "sweep.csv").read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        shaped = len(rows) == len(taus) and all(len(r) == 6 for r in rows)
        units = [int(r[1]) for r in rows] if shaped else []
        return [
            ("sweep header is pinned", lines[:1] == [SWEEP_CSV_HEADER]),
            ("sweep has one row per tau", shaped and [float(r[0]) for r in rows] == taus),
            ("sweep pruned_units never decreases",
             shaped and all(a <= b for a, b in zip(units, units[1:]))),
            ("sweep prunes the planned channel counts", units == pruned),
            ("sweep tau=0 row has max_abs 0", shaped and float(rows[0][4]) == 0.0),
        ]

    return check


def scene_channel_sums(path: Path) -> list[float]:
    doc = strict_json(path.read_text(encoding="utf-8"))
    cells = doc["H"] * doc["W"]
    data = doc["data"]
    return [math.fsum(data[c * cells : (c + 1) * cells]) for c in range(doc["C"])]


def tau_pruning(sums: list[float], count: int) -> float:
    """A threshold that prunes exactly the `count` smallest channel sums.

    A fixed tau prunes a seed-dependent number of channels (39 to 45 of 64
    for tau=48 over seeds 1-10), which makes the work, and so the timings,
    vary with the seed. Thresholds halfway between neighbouring sums keep the
    work the same for every seed.
    """
    s = sorted(sums)
    return (s[count - 1] + s[count]) / 2


def _vector_file(rng: random.Random, n: int, lo: float, hi: float) -> str:
    return json.dumps([rng.uniform(lo, hi) for _ in range(n)]) + "\n"


@dataclass(frozen=True)
class SceneSizes:
    channels: int = 64
    height: int = 14
    width: int = 14
    zero_channels: int = 30
    n_rois: int = 200
    net: str = "3136,256,64,20"  # 64 channels x 7 x 7 pooled inputs
    tau_pruned: int = 47  # channels the tau>0 prune drops
    sweep_pruned: tuple[int, ...] = (33, 36, 40, 47, 55, 61)  # after tau=0 drops the dead ones


def _scene_setup(sizes: SceneSizes, rng: random.Random) -> tuple[Step, ...]:
    scene_seed, net_seed = rng.randrange(2**31), rng.randrange(2**31)
    return (
        Step("gen-scene", "gen-scene",
             ("gen-scene", "--c", str(sizes.channels), "--h", str(sizes.height),
              "--w", str(sizes.width), "--zero-channels", str(sizes.zero_channels),
              "--n-rois", str(sizes.n_rois), "--seed", str(scene_seed), "--out", "base.scene"),
             ("base.scene",)),
        Step("gen-net", "gen-net",
             ("gen-net", "--sizes", sizes.net, "--seed", str(net_seed), "--out", "base.net"),
             ("base.net",)),
    )


def roi_eval(seed: int, sizes: SceneSizes = SceneSizes()) -> Plan:
    """README detection session: prune at tau=0 and tau>0, top-n, eval each."""
    rng = random.Random(seed)
    setup = _scene_setup(sizes, rng)
    files = {"scores.json": _vector_file(rng, int(sizes.net.split(",")[-1]), 0.0, 1.0)}

    def prune(name, tau):
        return Step(f"prune-{name}", "prune",
                    ("prune", "--model", "base.net", "--scene", "base.scene", "--tau", tau,
                     "--out", f"{name}.net", "--report", f"{name}.report"),
                    (f"{name}.net", f"{name}.report"))

    def evaluate(name, model, report, check, extra=()):
        return Step(name, "eval",
                    ("eval", "--model-a", "base.net", "--model-b", model,
                     "--scene", "base.scene", *extra, "--report", report),
                    (), check)

    def session(workdir: Path) -> tuple[Step, ...]:
        tau = tau_pruning(scene_channel_sums(workdir / "base.scene"), sizes.tau_pruned)
        return (
            prune("p0", "0"),
            evaluate("eval-p0", "p0.net", "p0.report", check_exact_eval),
            prune("ptau", repr(tau)),
            evaluate("eval-ptau", "ptau.net", "ptau.report", check_bounded_eval),
            Step("topn", "topn",
                 ("topn", "--model", "p0.net", "--scores", "scores.json", "--n", "6",
                  "--out", "top.net", "--labelmap", "top.labels"),
                 ("top.net", "top.labels")),
            evaluate("eval-top", "top.net", "p0.report", check_exact_eval,
                     ("--labelmap", "top.labels")),
        )

    return Plan(files, setup, session, regions=sizes.n_rois)


def roi_sweep(seed: int, sizes: SceneSizes = SceneSizes(n_rois=2000, net="3136,32,20")) -> Plan:
    """Many regions through a slim head, across a tau schedule."""
    rng = random.Random(seed)
    setup = _scene_setup(sizes, rng)

    def session(workdir: Path) -> tuple[Step, ...]:
        sums = scene_channel_sums(workdir / "base.scene")
        taus = [0.0] + [tau_pruning(sums, k) for k in sizes.sweep_pruned]
        pruned = [sizes.zero_channels, *sizes.sweep_pruned]
        return (
            Step("sweep", "sweep",
                 ("sweep", "--model", "base.net", "--scene", "base.scene",
                  "--thresholds", ",".join(map(repr, taus)), "--out", "sweep.csv"),
                 ("sweep.csv",), sweep_checker(taus, pruned)),
        )

    return Plan({}, setup, session, regions=sizes.n_rois * (1 + len(sizes.sweep_pruned)))


@dataclass(frozen=True)
class DeepSizes:
    net: str = "1024,512,512,512,256,100"
    sparsity: float = 0.3
    tau: float = 0.05
    top: int = 10


def probe_deep(seed: int, sizes: DeepSizes = DeepSizes()) -> Plan:
    """Probe-mode specialization of a deep MLP: a chain of exact prunes, top-n."""
    rng = random.Random(seed)
    net_seed = rng.randrange(2**31)
    widths = [int(s) for s in sizes.net.split(",")]
    files = {
        "probe.json": _vector_file(rng, widths[0], -1.0, 1.0),
        "scores.json": _vector_file(rng, widths[-1], 0.0, 1.0),
    }
    setup = (
        Step("gen-net", "gen-net",
             ("gen-net", "--sizes", sizes.net, "--sparsity", str(sizes.sparsity),
              "--seed", str(net_seed), "--out", "base.net"),
             ("base.net",)),
    )
    exact = [f"d{layer}.net" for layer in range(len(widths) - 2)]
    chain = []
    model = "base.net"
    for layer, out in enumerate(exact):
        chain.append(Step(f"prune-d{layer}", "prune",
                          ("prune", "--model", model, "--probe", "probe.json",
                           "--layer", str(layer), "--tau", "0", "--out", out),
                          (out,)))
        model = out
    steps = (
        *chain,
        Step("prune-dtau", "prune",
             ("prune", "--model", "base.net", "--probe", "probe.json", "--layer", "0",
              "--tau", f"{sizes.tau:g}", "--out", "dtau.net", "--report", "dtau.report"),
             ("dtau.net", "dtau.report")),
        Step("topn", "topn",
             ("topn", "--model", model, "--scores", "scores.json", "--n", str(sizes.top),
              "--out", "dtop.net", "--labelmap", "dtop.labels"),
             ("dtop.net", "dtop.labels")),
    )

    def library_check(stdout: str, workdir: Path) -> list:
        import numpy as np
        from unitprune import load_network, load_report, output

        probe = np.asarray(strict_json((workdir / "probe.json").read_text()), dtype=np.float64)
        ref = output(load_network((workdir / "base.net").read_bytes()), probe)
        results = []
        for name in exact:
            got = output(load_network((workdir / name).read_bytes()), probe)
            results.append((f"{name} reproduces the base output bit for bit",
                            got.tobytes() == ref.tobytes()))
        bound = load_report((workdir / "dtau.report").read_bytes()).deviation_bound
        got = output(load_network((workdir / "dtau.net").read_bytes()), probe)
        results.append(("dtau.net deviation <= certified bound",
                        bound is not None and float(np.abs(got - ref).max()) <= bound))
        return results

    return Plan(files, setup, lambda workdir: steps, library_check=library_check)


WORKLOADS: dict[str, Callable[[int], Plan]] = {
    "roi-eval": roi_eval,
    "roi-sweep": roi_sweep,
    "probe-deep": probe_deep,
}
