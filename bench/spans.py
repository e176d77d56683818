"""In-memory call spans around the public functions of the unitprune modules.

A Tracer wraps every function a submodule exports (its ``__all__``, or its
public module-level functions when it has none) and rebinds the wrapper in
every ``unitprune`` module that imported the name, so calls between modules
go through it as well. Each call records one span: name, start, end, parent
span and command id. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict
from pathlib import Path

# Per-scalar helpers: a span per call would cost more than the call itself
# (linalg.fmt_float runs millions of times per model save). Their time stays
# in the caller's self time.
EXCLUDED = frozenset({"linalg.fmt_float"})


def layer_name(module_name: str) -> str:
    """'unitprune._jsonio' -> 'jsonio': metric names must start with a letter."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n
        for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


def _macs_before_after(args, kwargs, result):
    report = result[-1]
    return {"macs_before": report.params_before.macs, "macs_after": report.params_after.macs}


def _matvec(args, kwargs, result):
    m = args[0]
    rows, cols = m.shape
    # computed, not measured: matrix and vector read once, result written once
    return {"macs": rows * cols, "bytes": 8 * (rows * cols + cols + rows)}


# Work counted at a span boundary, from argument shapes and return values.
COUNTERS = {
    "linalg.matvec": _matvec,
    "model.load_network": lambda a, k, r: {"bytes": len(a[0])},
    "model.save_network": lambda a, k, r: {"bytes": len(r)},
    "jsonio.parse_doc": lambda a, k, r: {"bytes": len(a[0])},
    "jsonio.number_list": lambda a, k, r: {"values": len(r)},
    "report.compare_outputs": lambda a, k, r: {"examples": r.n_examples},
    "report.sweep": lambda a, k, r: {"thresholds": len(r)},
    "prune.prune_input_channels": _macs_before_after,
    "prune.prune_units": _macs_before_after,
    "prune.prune_output_topn": _macs_before_after,
}


class Tracer:
    """Records spans while installed; uninstall() restores the originals."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, command id)
        self.counts: dict[str, int] = defaultdict(int)
        self.command = -1
        self._stack: list[int] = []
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command)
            if counter is not None:
                for what, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{what}"] += value
            return result

        return traced

    def install(self) -> None:
        pkg = importlib.import_module("unitprune")
        modules = [pkg] + [
            importlib.import_module(f"unitprune.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrappers = {}
        for mod in modules[1:]:
            for fname in public_functions(mod):
                name = f"{layer_name(mod.__name__)}.{fname}"
                if name not in EXCLUDED:
                    original = getattr(mod, fname)
                    wrappers[id(original)] = (original, self._wrap(name, original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and may overlap one another;
    overlapping time is subtracted once.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds 's', and 'self_s'."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        t = out[span[0]]
        t["calls"] += 1
        t["s"] += span[2] - span[1]
        t["self_s"] += own
    return dict(out)

