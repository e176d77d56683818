"""Command-line surface: generation, pruning, evaluation, sweeps.

Every command is deterministic given its flags (randomness only ever comes
from --seed, default 0), so repeated invocations produce byte-identical
output files. Exit codes: 0 success, 1 usage or validation error, 2 I/O or
parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import _jsonio
from .errors import ContractViolation, FormatError, UsageError
from .model import _network_fields, check_finite, forward, gen_network, load_network
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
    """The file's bytes: the loaders decode them, a model's or scene's rows a chunk at a time."""
    return Path(path).read_bytes()


def _write(outputs: list[tuple[str, Iterable[bytes]]]) -> None:
    """Stream each (path, chunks) output to its file, all moved into place at the end.

    Each output goes to a new file beside its path, created with the mode a
    plain write would give, and every one is renamed into place only after
    all are complete, so a failed write neither creates an output nor
    truncates one. A path that names a device or pipe is written in place,
    since renaming over it would replace it. Two outputs that name the same
    file are a usage error, raised before any file is created: one document
    would silently replace the other.
    """
    seen: dict[str, str] = {}  # real path -> the output that named it first
    for path, _ in outputs:
        try:
            if not stat.S_ISREG(os.stat(path).st_mode):
                continue  # a device or pipe takes each output in turn
        except OSError:
            pass  # a new file, or one the write below reports
        real = os.path.realpath(path)
        if real in seen:
            raise UsageError(f"outputs {seen[real]!r} and {path!r} name the same file")
        seen[real] = path
    temps: list[tuple[str, str, str]] = []  # (temporary, destination, output path)
    try:
        for path, chunks in outputs:
            try:
                old = os.stat(path)
            except FileNotFoundError:
                old = None
            if old is not None and not stat.S_ISREG(old.st_mode):
                with open(path, "wb") as f:
                    f.writelines(chunks)
                continue
            # through a symlink, the file it names is replaced, as a plain write would
            dest = os.path.realpath(path)
            head, tail = os.path.split(dest)
            tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
            # O_EXCL opens no file that already exists; the umask applies to 0o666
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append((tmp, dest, path))
            with open(fd, "wb") as f:
                if old is not None:
                    os.fchmod(fd, stat.S_IMODE(old.st_mode))
                f.writelines(chunks)
        for tmp, dest, path in temps:
            os.replace(tmp, dest)
    except OSError as e:
        # name the output, not its temporary
        e.filename, e.filename2 = path, None
        raise
    finally:
        for tmp, _, _ in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"--sizes must be comma-separated integers, got {text!r}") from None
    if not sizes:
        raise UsageError("--sizes must name at least one width")
    return sizes


def _parse_thresholds(text: str) -> list[float]:
    # sweep checks the order and PruneConfig the sign, as for prune --tau
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"--thresholds must be comma-separated numbers, got {text!r}") from None


def _cmd_gen_net(args) -> int:
    net = gen_network(_parse_sizes(args.sizes), sparsity=args.sparsity, seed=args.seed)
    _write([(args.out, _jsonio.dump_chunks(_network_fields(net)))])
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
    _write([(args.out, _jsonio.dump_chunks(_scene_fields(sc)))])
    return 0


def _cmd_prune(args) -> int:
    if (args.scene is None) == (args.probe is None):
        raise UsageError("exactly one of --scene or --probe is required")
    net = load_network(_read(args.model))
    cfg = PruneConfig(args.tau)
    if args.scene is not None:
        if args.layer != 0:
            raise UsageError("--layer must be 0 when pruning from a scene")
        sc = load_scene(_read(args.scene))
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
    # check every document first, so a refused one leaves no file behind
    files = [(args.out, _jsonio.dump_chunks(_network_fields(pruned_net)))]
    if args.report is not None:
        files.append((args.report, _jsonio.dump_chunks(_report_fields(rep))))
    _write(files)
    return 0


def _cmd_topn(args) -> int:
    net = load_network(_read(args.model))
    scores = _jsonio.parse_vector(_read(args.scores), "scores")
    pruned_net, label_map, rep = prune_output_topn(net, scores, args.n)
    files = [
        (args.out, _jsonio.dump_chunks(_network_fields(pruned_net))),
        (args.labelmap, _jsonio.dump_chunks(_labelmap_fields(label_map))),
    ]
    if args.report is not None:
        files.append((args.report, _jsonio.dump_chunks(_report_fields(rep))))
    _write(files)
    return 0


def _cmd_eval(args) -> int:
    original = load_network(_read(args.model_a))
    pruned = load_network(_read(args.model_b))
    sc = load_scene(_read(args.scene))
    label_map = load_labelmap(_read(args.labelmap)) if args.labelmap else None
    input_keep = None
    bound = None
    if args.report:
        rep = load_report(_read(args.report))
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
    blocks = _region_blocks(sc, sc.fmap)
    dr = compare_outputs(
        original, pruned, blocks, label_map=label_map, input_keep=input_keep, bound=bound
    )
    print(deviation_json(dr))
    return 0


def _cmd_sweep(args) -> int:
    net = load_network(_read(args.model))
    sc = load_scene(_read(args.scene))
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
