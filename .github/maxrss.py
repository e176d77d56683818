"""Peak memory of each command a benchmark run printed, per tree, as a Markdown table.

    python3 .github/maxrss.py --runs 5 --commands "$RUNNER_TEMP/head-{}.out" \
        --tree base "$RUNNER_TEMP/base" "$RUNNER_TEMP/base-cache" \
        --tree head . "$RUNNER_TEMP/head-cache" roi-sweep roi-eval probe-deep

For each workload, the "  command unitprune ..." lines of its bench/run.py
output (--commands, with {} standing for the workload) are run again, in
order, in each tree's .bench_work/<workload> directory, with that tree's
src/ on PYTHONPATH and its parse cache in XDG_CACHE_HOME ("-" keeps the
environment's). Each is a new process that fork and exec make: a preexec_fn
keeps subprocess from using vfork, whose child would take the high-water mark
of the process that starts it. One command's peak varies by about 0.15 MiB
from run to run, so each runs --runs times per tree, the tree that goes first
alternating, and the table shows each tree's median and, with two trees, the
second's minus the first's. For reading only: a command's exit status is not
checked and nothing is gated on the numbers.
"""

import argparse
import os
import statistics
import subprocess
import sys

PREFIX = "  command unitprune "


def maxrss(tree: str, cache: str, workload: str, args: list[str]) -> float:
    """The peak resident set of one command, in MiB."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    if cache != "-":
        env["XDG_CACHE_HOME"] = cache
    p = subprocess.Popen(
        [sys.executable, "-m", "unitprune.cli", *args],
        cwd=os.path.join(tree, ".bench_work", workload),
        env=env,
        stdout=subprocess.DEVNULL,
        preexec_fn=lambda: None,
    )
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, required=True)
    ap.add_argument("--commands", required=True, help="bench/run.py output, {} the workload")
    ap.add_argument("--tree", nargs=3, action="append", required=True,
                    metavar=("LABEL", "DIR", "CACHE"))
    ap.add_argument("workloads", nargs="+")
    a = ap.parse_args()
    trees = [(label, os.path.abspath(tree), cache) for label, tree, cache in a.tree]
    cols = [f"{label} MiB, median of {a.runs}" for label, _, _ in trees]
    if len(trees) == 2:
        cols.append(f"{trees[1][0]} - {trees[0][0]} MiB")
    print("| workload | command | " + " | ".join(cols) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in cols) + " |")
    for workload in a.workloads:
        with open(a.commands.format(workload)) as f:
            lines = [line[len(PREFIX):].split() for line in f if line.startswith(PREFIX)]
        for args in lines:
            runs = [[] for _ in trees]
            for i in range(a.runs):
                for k in range(len(trees)) if i % 2 == 0 else reversed(range(len(trees))):
                    runs[k].append(maxrss(trees[k][1], trees[k][2], workload, args))
            medians = [statistics.median(r) for r in runs]
            cells = ["%.2f" % m for m in medians]
            if len(trees) == 2:
                cells.append("%+.2f" % (medians[1] - medians[0]))
            print(f"| {workload} | `{' '.join(args)}` | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
