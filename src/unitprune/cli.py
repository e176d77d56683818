"""Command-line surface: generation, pruning, evaluation, sweeps.

Every command is deterministic given its flags (randomness only comes from
--seed, default 0), so reruns write byte-identical files. Exit codes: 0
success, 1 usage or validation error, 2 I/O or parse error.

Inputs: a model or scene file is read a line at a time by its loader (a
pipe is read whole); the small inputs (probes, scores, reports, label maps)
are read whole.

Parse cache: a model or scene that gen-net, gen-scene, prune or topn writes
to a regular file is also kept as its document, arrays raw, named by the
BLAKE2b digest of its bytes, under $XDG_CACHE_HOME/unitprune (~/.cache/unitprune
by default). A later load of a regular file with those bytes builds the object
from the entry, through the loader's document step; anything else is parsed. An
entry is used only when it and the directory are the user's own, not
writable by group or others, and its checksum matches; together they stay
under 256 MiB, the least recently used going first. Remove the directory
to clear it; XDG_CACHE_HOME=/dev/null turns it off. The cache never changes
an output byte, message or exit code.

Writing: prune and topn of a --model loaded from the cache copy its weight
rows from the file's text, the writer's own (_reuse). The file is hashed
again as it is read; if it changed, the output is formatted from the
arrays before it is renamed into place (an output to a pipe or device then
fails). Everything else is formatted.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import os
import stat
import sys
from collections.abc import Iterator

import numpy as np

from . import _cache, _jsonio
from .errors import ContractViolation, FormatError, UsageError
from .model import _network_fields, check_finite, forward, gen_network, load_network, param_count
from .prune import (
    PruneConfig,
    _labelmap_fields,
    _profile_layer,
    _report_fields,
    load_labelmap,
    load_report,
    prune_input_channels,
    prune_output_topn,
    prune_units,
    select_units,
)
from .report import _region_blocks, compare_outputs, deviation_json, sweep, sweep_csv
from .scene import _scene_fields, channel_sums, gen_scene, load_scene

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; we want usage errors on 1."""

    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> bytes:
    """The file's bytes, for the small inputs: probes, scores, reports and label maps."""
    with open(path, "rb") as f:
        return f.read()


class _Input(io.FileIO):
    """A model or scene file open for reading; len() is its size, as it is for bytes input.

    load_network and load_scene take bytes, text or such a file, and a caller
    that measures an input by len() (bench/spans.py counts the bytes loaded
    that way) gets the same count for either.
    """

    def __len__(self) -> int:
        return os.fstat(self.fileno()).st_size


def _load(what: str, path: str) -> tuple:
    """The "model" or "scene" at path, and the digest of the bytes the parse cache held.

    The digest is None when the file goes to its loader instead, which reads
    it a line at a time; a pipe or a device cannot seek, so the loader reads
    it whole first. The file is closed on return.
    """
    with _Input(path) as f:
        got = _cache.fetch(f, what)
        if got is None:
            got = (load_network if what == "model" else load_scene)(f), None
        return got


def _pruned_chunks(net, path: str, digest: bytes | None, rep) -> Iterator[bytes]:
    """The document of net, which rep's selection pruned from the model at path.

    When the parse cache held that file as digest, the weight rows are copied
    from its text (see _reuse); otherwise every number is formatted.
    """
    if digest is None:
        return _jsonio.dump_chunks(_network_fields(net))
    from . import _reuse

    # the width and positions prune._narrow kept
    sel = rep.selections[0]
    width = 0 if rep.kind == "input-channels" else sel.layer + 1
    return _reuse.chunks(net, path, digest, width, sel.kept)


def _write(outputs: list[tuple]) -> None:
    """Stream each (path, chunks[, obj]) output to its file, all moved into place at the end.

    Every destination is checked before any file is created: an empty path
    or a directory is an IsADirectoryError, and two outputs that name the
    same file are a usage error, since one document would silently replace
    the other. Each output then goes to a new file beside its path, created
    with the mode a plain write would give, and every one is renamed into
    place only after all are complete, so a failed write neither creates an
    output nor truncates one. A path that names a device or pipe is written
    in place, since renaming over it would replace it.

    obj, when given, is the Network or Scene the chunks encode. Its bytes are
    hashed as they stream to a regular file, and once every output is in
    place, obj goes into the parse cache under that digest.
    """
    root = _cache.directory() if any(len(out) > 2 for out in outputs) else None
    temps: list[tuple[str, str, str]] = []  # (temporary, destination, output path)
    kept = []  # (digest, obj) for the parse cache
    try:
        olds = []  # each destination's stat, or None when there is no file yet
        seen: dict[str, str] = {}  # real path -> the output that named it first
        for path, *_ in outputs:
            try:
                old = os.stat(path)
            except FileNotFoundError:
                old = None
            if not path or old is not None and stat.S_ISDIR(old.st_mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            olds.append(old)
            if old is not None and not stat.S_ISREG(old.st_mode):
                continue  # a device or pipe takes each output in turn
            real = os.path.realpath(path)
            if real in seen:
                raise UsageError(f"outputs {seen[real]!r} and {path!r} name the same file")
            seen[real] = path
        for out, old in zip(outputs, olds):
            path, chunks = out[:2]
            if old is not None and not stat.S_ISREG(old.st_mode):
                with open(path, "wb") as f:
                    _stream(f, chunks, None)
                continue
            # through a symlink, the file it names is replaced, as a plain write would
            dest = os.path.realpath(path)
            head, tail = os.path.split(dest)
            tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
            # O_EXCL opens no file that already exists; the umask applies to 0o666
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append((tmp, dest, path))
            digest = _cache.hasher() if len(out) > 2 and root is not None else None
            with open(fd, "wb") as f:
                if old is not None:
                    os.fchmod(fd, stat.S_IMODE(old.st_mode))
                digest = _stream(f, chunks, digest)
            if digest is not None:
                kept.append((digest.digest(), out[2]))
        for tmp, dest, path in temps:
            os.replace(tmp, dest)
    except OSError as e:
        # name the output alone, not its temporary or the rename's destination
        raise OSError(e.errno, e.strerror, path) from e
    finally:
        for tmp, _, _ in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    for digest, obj in kept:
        _cache.store(root, digest, obj)


def _stream(f, chunks, digest):
    """Write chunks to f, and to digest when given; returns the digest of what f holds.

    A stream that copies text which changed under it raises _jsonio.Stale:
    what it wrote is then replaced by the formatted document it carries (a
    pipe, which cannot be rewound, fails with an OSError).
    """
    try:
        for chunk in chunks:
            f.write(chunk)
            if digest is not None:
                digest.update(chunk)
            del chunk  # freed before the next chunk is made
    except _jsonio.Stale as e:
        f.seek(0)
        f.truncate()
        return _stream(f, e.chunks, None if digest is None else _cache.hasher())
    return digest


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"--sizes must be comma-separated integers, got {text!r}") from None


def _parse_thresholds(text: str) -> list[float]:
    # sweep checks the order and PruneConfig the sign, as for prune --tau
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"--thresholds must be comma-separated numbers, got {text!r}") from None


def _cmd_gen_net(args) -> int:
    net = gen_network(_parse_sizes(args.sizes), sparsity=args.sparsity, seed=args.seed)
    _write([(args.out, _jsonio.dump_chunks(_network_fields(net)), net)])
    return 0


def _cmd_gen_scene(args) -> int:
    sc = gen_scene(
        args.c,
        args.h,
        args.w,
        zero_channels=args.zero_channels,
        n_rois=args.n_rois,
        pool_h=args.pool_h,
        pool_w=args.pool_w,
        seed=args.seed,
    )
    _write([(args.out, _jsonio.dump_chunks(_scene_fields(sc)), sc)])
    return 0


def _cmd_prune(args) -> int:
    if (args.scene is None) == (args.probe is None):
        raise UsageError("exactly one of --scene or --probe is required")
    net, digest = _load("model", args.model)
    cfg = PruneConfig(args.tau)
    if args.scene is not None:
        if args.layer != 0:
            raise UsageError("--layer must be 0 when pruning from a scene")
        sc, _ = _load("scene", args.scene)
        pruned_net, rep = prune_input_channels(
            net, channel_sums(sc.fmap), sc.pool_h, sc.pool_w, cfg
        )
    else:
        probe = _jsonio.parse_vector(_read(args.probe), "probe")
        # an overflow is refused below, by layer, instead of warned about here
        with np.errstate(over="ignore", invalid="ignore"):
            profile = forward(net, probe)
        check_finite(profile)
        sel = select_units(_profile_layer(profile, args.layer), cfg, layer=args.layer)
        pruned_net, rep = prune_units(net, args.layer, sel, profile=profile)
    del net  # the layers pruning replaced go before the write, which sets the peak
    # check every document first, so a refused one leaves no file behind
    files = [(args.out, _pruned_chunks(pruned_net, args.model, digest, rep), pruned_net)]
    if args.report is not None:
        files.append((args.report, _jsonio.dump_chunks(_report_fields(rep))))
    _write(files)
    return 0


def _cmd_topn(args) -> int:
    net, digest = _load("model", args.model)
    scores = _jsonio.parse_vector(_read(args.scores), "scores")
    pruned_net, label_map, rep = prune_output_topn(net, scores, args.n)
    del net  # the write needs only the pruned model, as in prune
    files = [
        (args.out, _pruned_chunks(pruned_net, args.model, digest, rep), pruned_net),
        (args.labelmap, _jsonio.dump_chunks(_labelmap_fields(label_map))),
    ]
    if args.report is not None:
        files.append((args.report, _jsonio.dump_chunks(_report_fields(rep))))
    _write(files)
    return 0


def _cmd_eval(args) -> int:
    original, _ = _load("model", args.model_a)
    pruned, _ = _load("model", args.model_b)
    sc, _ = _load("scene", args.scene)
    label_map = load_labelmap(_read(args.labelmap)) if args.labelmap is not None else None
    input_keep = None
    bound = None
    if args.report is not None:
        rep = load_report(_read(args.report))
        # a report of another model would pair its bound with this model's deviation
        made = param_count(original)
        if rep.params_before != made:
            raise ContractViolation(
                f"report was made from a model with {rep.params_before.total} parameters, "
                f"but --model-a has {made.total}"
            )
        # a units report bounds its one probe, not the scene's regions
        if rep.kind != "units":
            bound = rep.deviation_bound
        if rep.kind == "input-channels":
            input_keep = rep.selections[0].kept
    if original.input_dim != sc.pooled_width:
        raise ContractViolation(
            f"model expects {original.input_dim} inputs but the scene pools to "
            f"{sc.pooled_width}"
        )
    blocks = _region_blocks(sc)
    dr = compare_outputs(
        original, pruned, blocks, label_map=label_map, input_keep=input_keep, bound=bound
    )
    print(deviation_json(dr))
    return 0


def _cmd_sweep(args) -> int:
    net, _ = _load("model", args.model)
    sc, _ = _load("scene", args.scene)
    text = sweep_csv(sweep(net, sc, _parse_thresholds(args.thresholds)))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write([(args.out, [text.encode("utf-8")])])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="unitprune",
        description="Specialize a feedforward network by pruning inactive units.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("gen-net", help="generate a seeded random network")
    p.add_argument("--sizes", required=True, help="comma-separated widths, input first")
    p.add_argument("--sparsity", type=float, default=0.0, help="fraction of dead hidden units")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_gen_net)

    p = sub.add_parser("gen-scene", help="generate a seeded random scene")
    p.add_argument("--c", type=int, default=512, help="channels")
    p.add_argument("--h", type=int, default=14, help="feature map height")
    p.add_argument("--w", type=int, default=14, help="feature map width")
    p.add_argument("--zero-channels", type=int, default=0)
    p.add_argument("--n-rois", type=int, default=0)
    p.add_argument("--pool-h", type=int, default=7)
    p.add_argument("--pool-w", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="scene file to write")
    p.set_defaults(func=_cmd_gen_scene)

    p = sub.add_parser("prune", help="prune a model against a scene or probe vector")
    p.add_argument("--model", required=True)
    p.add_argument("--scene", help="scene file; prunes input channels of layer 0")
    p.add_argument("--probe", help="JSON vector file; prunes hidden units of --layer")
    p.add_argument("--tau", type=float, default=0.0, help="activation threshold")
    p.add_argument("--layer", type=int, default=0, help="hidden layer to prune (probe mode)")
    p.add_argument("--out", required=True, help="pruned model file to write")
    p.add_argument("--report", help="optional report file to write")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("topn", help="keep only the n highest-scoring outputs")
    p.add_argument("--model", required=True)
    p.add_argument("--scores", required=True, help="JSON vector file, one score per output")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="pruned model file to write")
    p.add_argument("--labelmap", required=True, help="label map file to write")
    p.add_argument("--report", help="optional report file to write")
    p.set_defaults(func=_cmd_topn)

    p = sub.add_parser("eval", help="compare two models over a scene's regions")
    p.add_argument("--model-a", required=True, help="original model")
    p.add_argument("--model-b", required=True, help="pruned model")
    p.add_argument("--scene", required=True)
    p.add_argument("--labelmap", help="label map written by topn")
    p.add_argument("--report", help="report written by prune; maps shrunk inputs")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="prune at each threshold and emit CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--thresholds", required=True, help="comma-separated ascending values")
    p.add_argument("--out", default="-", help="CSV path, or - for standard output")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return 2
    except ContractViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
