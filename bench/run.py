"""Benchmark for the unitprune CLI: replays seeded sessions, times and checks them.

Run from the repository root:

    python3 bench/run.py --workload roi-eval --seed 1 --seconds 30 --trace 0

--trace 0 runs every timed command in a fresh process, as a user would, one
after another (one client, closed loop), and reports the end-to-end metrics
named in BENCHMARK.json. --trace 1 runs the same commands in-process through
unitprune.cli.main, alternating untraced and traced passes, and reports the
per-layer metrics. Every command's outputs are checked; the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics. Work files go to .bench_work/ under the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, totals
from workloads import WORKLOADS, Plan, Step, eval_doc

MIN_SESSIONS = 3  # a median of three shrugs off one session in a slow phase
STARTUP_REPS = 5
COMMAND_TIMEOUT_S = 120
TIMED_KINDS = ("prune", "eval", "topn", "sweep")


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout


@dataclass
class Ops:
    """Operations attempted and failed: one per command and one per check."""

    attempted: int = 0
    failed: list = field(default_factory=list)

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)

    def run_check(self, label: str, check, stdout: str, workdir: Path) -> None:
        try:
            results = check(stdout, workdir)
        except Exception as e:  # a crashing check is a failed check, not a crash
            results = [(f"{label}: {type(e).__name__}: {e}", False)]
        for name, ok in results:
            self.record(f"{label}: {name}", ok)


@dataclass
class Ran:
    wall: float
    code: int | None
    stdout: str
    maxrss_mb: float


def spawn(argv: list[str], workdir: Path, env: dict) -> Ran:
    """Run one process to completion; wall time and rusage come from wait4."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except CommandTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        proc.returncode = -1 if code is None else code
        out.seek(0)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
        if code != 0 and stderr:
            print(f"  {argv[3:4]} exit {code}: {stderr.strip()[-300:]}")
        return Ran(wall, code, out.read().decode("utf-8", "replace"), usage.ru_maxrss * 1024 / 1e6)


def cli_argv(step: Step) -> list[str]:
    return [sys.executable, "-m", "unitprune.cli", *step.argv]


def digests(steps, workdir: Path, stdout: dict) -> dict:
    out = {}
    for step in steps:
        for name in step.outputs:
            path = workdir / name
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        if stdout.get(step.name):
            out[f"{step.name}.stdout"] = hashlib.sha256(stdout[step.name].encode()).hexdigest()
    return out


def compare_digests(ops: Ops, first: dict, again: dict, what: str) -> None:
    for name, digest in first.items():
        ops.record(f"{what}: {name} is byte-identical", digest is not None and again.get(name) == digest)


def run_checks(steps, stdout: dict, workdir: Path, ops: Ops) -> None:
    for step in steps:
        if step.check is not None:
            ops.run_check(step.name, step.check, stdout.get(step.name, ""), workdir)


@dataclass
class Session:
    wall: float
    walls: list  # (kind, seconds) per command, in order
    stdout: dict
    maxrss_mb: float


def run_session(steps, workdir: Path, env: dict, ops: Ops) -> Session:
    walls, stdout, rss = [], {}, 0.0
    start = time.perf_counter()
    for step in steps:
        ran = spawn(cli_argv(step), workdir, env)
        walls.append((step.kind, ran.wall))
        stdout[step.name] = ran.stdout
        rss = max(rss, ran.maxrss_mb)
        ops.record(f"{step.name} exits 0", ran.code == 0)
    wall = time.perf_counter() - start
    return Session(wall, walls, stdout, rss)


def run_setup(plan: Plan, workdir: Path, env: dict, ops: Ops) -> float:
    start = time.perf_counter()
    for name, text in plan.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    run_session(plan.setup, workdir, env, ops)
    return time.perf_counter() - start


def describe(values: list[float]) -> str:
    """Median, quartiles, and the highest percentile with ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (med, med, med)
    text = f"median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}"
    p = int(100 * (1 - 10 / n))
    if p > 50:
        text += f"  p{p} {statistics.quantiles(values, n=100)[p - 1]:.4g}"
    return f"{text}  n={n}"


def end_to_end(plan: Plan, workdir: Path, env: dict, seconds: float, ops: Ops) -> dict:
    setup_walls, sessions = [], []
    setup_first = first = steps = None
    deadline = time.perf_counter() + seconds
    while True:
        # a set-up before every session spreads its samples over the whole run
        setup_walls.append(run_setup(plan, workdir, env, ops))
        got = digests(plan.setup, workdir, {})
        got.update({name: hashlib.sha256(text.encode()).hexdigest() for name, text in plan.files.items()})
        if setup_first is None:
            setup_first = got
            steps = plan.session(workdir)
        else:
            compare_digests(ops, setup_first, got, f"set-up {len(setup_walls) - 1}")

        s = run_session(steps, workdir, env, ops)
        sessions.append(s)
        run_checks(steps, s.stdout, workdir, ops)
        got = digests(steps, workdir, s.stdout)
        if first is None:
            first = got
        else:
            compare_digests(ops, first, got, f"session {len(sessions) - 1}")
        if len(sessions) >= MIN_SESSIONS and time.perf_counter() + setup_walls[-1] + s.wall > deadline:
            break
    if plan.library_check is not None:
        ops.run_check("library", plan.library_check, "", workdir)

    artifact_bytes = sum(
        (workdir / name).stat().st_size
        for step in steps
        for name in step.outputs
        if (workdir / name).exists()
    )
    values = {
        "session_s": statistics.median(s.wall for s in sessions),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": max(s.maxrss_mb for s in sessions),
        "artifact_mb": artifact_bytes / 1e6,
    }

    print(f"sessions {len(sessions)}, each after a set-up")
    print(f"  session_s      {describe([s.wall for s in sessions])}")
    print(f"  setup_s        {describe(setup_walls)}")
    for kind in TIMED_KINDS:
        walls = [w for s in sessions for k, w in s.walls if k == kind]
        if walls:
            print(f"  {kind + '_s':<14} {describe(walls)}")
    scoring = [w for s in sessions for k, w in s.walls if k in ("eval", "sweep")]
    if scoring and plan.regions:
        rates = [plan.regions / w for w in scoring]
        print(f"  regions_per_s  {describe(rates)}")
    doc = eval_doc(sessions[0].stdout.get("eval-ptau", ""))
    if doc is not None and doc["max_abs"] > 0:
        print(f"  bound_ratio    {doc['bound'] / doc['max_abs']:.6g}  (bound {doc['bound']:.6g}, max_abs {doc['max_abs']:.6g})")
    for step in (*plan.setup, *steps):
        print(f"  command unitprune {' '.join(step.argv)}")
    for name, digest in sorted({**setup_first, **first}.items()):
        print(f"  sha256 {digest} {name}")
    return values


def in_process_pass(steps, workdir: Path, ops: Ops, tracer: Tracer | None) -> tuple:
    """Run the session through unitprune.cli.main; returns (wall, stdout)."""
    import unitprune.cli as cli

    stdout = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for i, step in enumerate(steps):
            if tracer is not None:
                tracer.command = i
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(list(step.argv))
                except Exception as e:  # an uncaught error is a failed command
                    code = f"{type(e).__name__}: {e}"
            stdout[step.name] = buf.getvalue()
            ops.record(f"{step.name} returns 0 in-process", code == 0)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.chdir(cwd)
    return wall, stdout


def layer_value(name: str, t: dict, counts: dict, extra: dict) -> float:
    """Resolve a per-layer metric name against span totals and counters."""
    if name in extra:
        return extra[name]
    if name == "linalg.matvec.macs_per_s":
        busy = t.get("linalg.matvec", {}).get("self_s", 0.0)
        return counts.get("linalg.matvec.macs", 0) / busy if busy else 0.0
    if name == "prune.macs_kept_frac":
        before = sum(v for k, v in counts.items() if k.endswith(".macs_before"))
        after = sum(v for k, v in counts.items() if k.endswith(".macs_after"))
        return after / before if before else 0.0
    span, _, what = name.rpartition(".")
    if what in ("calls", "s", "self_s"):
        return t.get(span, {}).get(what, 0)
    if name in counts or what in ("macs", "bytes", "values", "examples", "thresholds"):
        return counts.get(name, 0)
    raise KeyError(f"unknown per-layer metric {name!r}")


def traced(plan: Plan, workdir: Path, env: dict, seconds: float, ops: Ops, names) -> dict:
    run_setup(plan, workdir, env, ops)
    startup = []
    for _ in range(STARTUP_REPS):
        ran = spawn([sys.executable, "-c", "import unitprune.cli"], workdir, env)
        ops.record("import unitprune.cli exits 0", ran.code == 0)
        startup.append(ran.wall)

    steps = plan.session(workdir)
    plain, with_trace, tracers = [], [], []
    reference = None
    deadline = time.perf_counter() + seconds
    while True:
        for tracer in (None, Tracer()):
            wall, stdout = in_process_pass(steps, workdir, ops, tracer)
            (plain if tracer is None else with_trace).append(wall)
            if tracer is not None:
                tracers.append(tracer)
            run_checks(steps, stdout, workdir, ops)
            got = digests(steps, workdir, stdout)
            if reference is None:
                reference = got
            else:
                compare_digests(ops, reference, got, f"in-process pass {len(plain) + len(with_trace)}")
        if time.perf_counter() + plain[-1] + with_trace[-1] > deadline:
            break
    if plan.library_check is not None:
        ops.run_check("library", plan.library_check, "", workdir)
    tracers[-1].write(workdir / "spans.jsonl")

    per_pass = []
    for tracer in tracers:
        t = totals(tracer.spans)
        extra = {
            "cli.startup_s": statistics.median(startup),
            "trace.spans": len(tracer.spans),
            "trace.overhead_frac": statistics.median(with_trace) / statistics.median(plain) - 1,
        }
        per_pass.append({n: layer_value(n, t, tracer.counts, extra) for n in names})
    values = {n: statistics.median(p[n] for p in per_pass) for n in names}

    print(f"in-process passes: {len(plain)} untraced, {len(with_trace)} traced")
    print(f"  untraced wall  {describe(plain)}")
    print(f"  traced wall    {describe(with_trace)}")
    t = totals(tracers[-1].spans)
    print("  self time by function (last traced pass):")
    for span, row in sorted(t.items(), key=lambda kv: -kv[1]["self_s"])[:15]:
        print(f"    {span:<32} self {row['self_s']:8.3f} s  incl {row['s']:8.3f} s  calls {row['calls']}")
    return values


def run(workload: str, plan: Plan, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if trace else "end_to_end"]
    workdir = root / ".bench_work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    ops = Ops()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        names = [m["name"] for m in metrics]
        if trace:
            values = traced(plan, workdir, env, seconds, ops, names)
        else:
            values = end_to_end(plan, workdir, env, seconds, ops)
            values["ops_ok_frac"] = (ops.attempted - len(ops.failed)) / ops.attempted
    finally:
        signal.signal(signal.SIGALRM, previous)
    for label in ops.failed:
        print(f"  FAILED {label}")
    return {
        "correct": not ops.failed,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "unitprune" / "cli.py").is_file():
        print("run from the repository root: src/unitprune is missing", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    plan = WORKLOADS[args.workload](args.seed)
    result = run(args.workload, plan, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
