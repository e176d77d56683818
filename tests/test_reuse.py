"""Pruned models written from their source file's text: the same bytes as the formatter.

prune and topn copy a pruned model's weight rows from the text of a model
loaded from the parse cache (unitprune._reuse). Every test runs with its
own empty cache directory (tests/conftest.py points XDG_CACHE_HOME at it).
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitprune import ActivationKind, DenseLayer, Network, gen_network, save_network
from unitprune import _cache, _jsonio, _reuse, cli
from unitprune.model import _network_fields
from unitprune.prune import _narrow

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-7, 1.7e308, -1.7e308, 123456789.0]


def run(*argv):
    return cli.main([str(a) for a in argv])


def digest_of(data: bytes) -> bytes:
    h = _cache.hasher()
    h.update(data)
    return h.digest()


def formatted(net: Network) -> bytes:
    return _jsonio.dump_doc(_network_fields(net))


def no_formatted_rows(rows, end):
    raise AssertionError("a weight row was formatted, not copied")


def copied(net: Network, width: int, keep, chunk: int = _jsonio._CHUNK_VALUES) -> bytes:
    """The bytes _reuse writes for _narrow(net, width, keep), with net's text as the source."""
    keep = np.asarray(keep, dtype=np.intp)
    source = save_network(net)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.net")
        with open(path, "wb") as f:
            f.write(source)
        with mock.patch.object(_jsonio, "_CHUNK_VALUES", chunk), \
                mock.patch.object(_jsonio, "_row_block", no_formatted_rows):
            return b"".join(_reuse.chunks(_narrow(net, width, keep), path,
                                          digest_of(source), width, keep))


def vector_size(net: Network, width: int) -> int:
    return net.input_dim if width == 0 else net.layers[width - 1].units


@st.composite
def networks(draw):
    """gen_network widths with zero-unit layers, special weights and, sometimes, labels."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=2, max_size=5))
    net = gen_network(sizes, sparsity=draw(st.sampled_from([0.0, 0.5])),
                      seed=draw(st.integers(0, 9)))
    layers = []
    for lay in net.layers:
        w = lay.weights.copy()
        if w.size:
            picks = draw(st.lists(st.sampled_from(SPECIAL), min_size=w.size, max_size=w.size))
            mask = np.array(draw(st.lists(st.booleans(), min_size=w.size, max_size=w.size)))
            w.flat[mask] = np.array(picks)[mask]
        layers.append(DenseLayer(w, lay.bias, lay.activation))
    labels = None
    if draw(st.booleans()):
        labels = tuple(draw(st.lists(st.text(max_size=3), min_size=layers[-1].units,
                                     max_size=layers[-1].units)))
    return Network(tuple(layers), labels=labels)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), net=networks(), chunk=st.sampled_from([1, 2, 5, _jsonio._CHUNK_VALUES]))
def test_copied_rows_are_the_formatted_bytes(data, net, chunk):
    width = data.draw(st.integers(0, len(net.layers)), label="width")
    size = vector_size(net, width)
    keep = sorted(data.draw(st.sets(st.integers(0, size - 1)) if size else st.just(set()),
                            label="keep"))
    assert copied(net, width, keep, chunk) == formatted(_narrow(net, width, keep))


def three_layers(labels=None):
    return Network(gen_network([5, 4, 3, 3], seed=3).layers, labels=labels)


@pytest.mark.parametrize("net, width, keep", [
    # an empty keep: layer 0 keeps no rows and layer 1 no columns, both "weights": []
    (three_layers(), 1, []),
    (three_layers(), 0, []),
    (three_layers(), 3, []),
    # a source layer whose weights are [] (zero units; then zero inputs)
    (gen_network([3, 0, 2], seed=1), 0, [0, 2]),
    (gen_network([3, 0, 2], seed=1), 2, [1]),
    (gen_network([0, 3, 2], seed=1), 1, [0, 2]),
    # exactly one kept column: itemgetter of one index gives the token itself
    (three_layers(), 0, [2]),
    (three_layers(), 2, [1]),
    # labels follow the kept outputs of the identity output layer
    (three_layers(("a", 'b"', "\n")), 3, [0, 2]),
    (three_layers(("a", 'b"', "\n")), 3, [1]),
    (three_layers(("a", 'b"', "\n")), 1, [0, 3]),
], ids=["empty-hidden", "empty-input", "empty-output", "empty-layer-input",
        "empty-layer-output", "no-inputs", "one-input-column", "one-hidden-column",
        "labels", "one-label", "labels-kept"])
def test_edge_cases_are_the_formatted_bytes(net, width, keep):
    assert net.layers[-1].activation is ActivationKind.IDENTITY
    assert copied(net, width, keep) == formatted(_narrow(net, width, keep))


@pytest.mark.parametrize("width, keep", [(0, [0, 3, 4]), (1, [1, 2, 5, 9]), (2, [0, 4])])
def test_rows_that_span_blocks_are_the_formatted_bytes(width, keep):
    # 4 values a block: each layer's rows take several blocks, and so do the kept ones
    net = gen_network([6, 10, 7, 5], seed=8)
    assert copied(net, width, keep, chunk=4) == formatted(_narrow(net, width, keep))


# -- a source that is not the one the cache lookup hashed ---------------------


def change_a_digit(data: bytes, line: int) -> bytes:
    """data with one digit of the given line, counted from 0, made another digit."""
    lines = data.split(b"\n")
    i = next(i for i, c in enumerate(lines[line]) if chr(c).isdigit())
    digit = b"%d" % ((lines[line][i] - ord("0") + 1) % 10)
    lines[line] = lines[line][:i] + digit + lines[line][i + 1:]
    return b"\n".join(lines)


def weights_line(data: bytes, layer: int) -> int:
    """The number of the first weight row line of a layer."""
    lines = data.split(b"\n")
    openers = [i for i, line in enumerate(lines) if line == b'"weights": [']
    return openers[layer] + 1


def stale(net, width, keep, edit) -> _jsonio.Stale:
    """What a copy raises once edit(path, text) changed its source after it was hashed."""
    keep = np.asarray(keep, dtype=np.intp)
    source = save_network(net)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.net"
        path.write_bytes(source)
        chunks = _reuse.chunks(_narrow(net, width, keep), str(path), digest_of(source),
                               width, keep)
        edit(path, source)
        with pytest.raises(_jsonio.Stale) as caught:
            b"".join(chunks)
    return caught.value


def rewritten(change):
    return lambda path, data: path.write_bytes(change(data))


def with_line(data: bytes, number: int, line: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[number] = line
    return b"\n".join(lines)


@pytest.mark.parametrize("edit", [
    # a digit of a row the prune drops: only the digest can tell
    rewritten(lambda data: change_a_digit(data, weights_line(data, 0) + 1)),
    # a digit after every copied row (the output layer's bias)
    rewritten(lambda data: change_a_digit(data, len(data.split(b"\n")) - 5)),
    rewritten(lambda data: data[: len(data) // 2]),
    rewritten(lambda data: data.replace(b", ", b",  ", 1)),
    # a row of layer 1 with fewer tokens than its kept columns need
    rewritten(lambda data: with_line(data, weights_line(data, 1), b"0.5,")),
    rewritten(lambda data: data + b"\n"),
    lambda path, data: path.unlink(),
], ids=["dropped-row", "last-bias", "truncated", "respaced", "short-row", "longer",
        "removed"])
def test_a_changed_source_is_stale_with_the_formatted_document(edit):
    net = gen_network([4, 3, 5, 2], seed=6)
    e = stale(net, 1, [0, 2], edit)
    assert b"".join(e.chunks) == formatted(_narrow(net, 1, np.array([0, 2])))


# -- through the CLI ----------------------------------------------------------


@pytest.fixture
def session(tmp_path, monkeypatch):
    """A model and a scene written by the CLI (so the cache holds them), a probe and scores."""
    monkeypatch.chdir(tmp_path)
    assert run("gen-net", "--sizes", "8,10,6,4", "--sparsity", 0.3, "--seed", 2,
               "--out", "m.net") == 0
    assert run("gen-scene", "--c", 2, "--h", 4, "--w", 4, "--zero-channels", 1, "--n-rois", 3,
               "--pool-h", 2, "--pool-w", 2, "--seed", 1, "--out", "s.scene") == 0
    Path("probe.json").write_text(json.dumps([0.5, -0.25, 1.0, 0.0, 0.75, -1.0, 0.125, 2.0]))
    Path("scores.json").write_text(json.dumps([0.1, 0.9, 0.3, 0.7]))
    return tmp_path


COMMANDS = {
    "scene": ["prune", "--model", "m.net", "--scene", "s.scene", "--tau", 0.5,
              "--out", "p.net", "--report", "p.report"],
    "probe": ["prune", "--model", "m.net", "--probe", "probe.json", "--layer", 0, "--tau", 0.1,
              "--out", "p.net"],
    "topn": ["topn", "--model", "m.net", "--scores", "scores.json", "--n", 2,
             "--out", "p.net", "--labelmap", "p.labels"],
}


def reference(argv, monkeypatch) -> tuple:
    """The exit code and every output's bytes when the model is parsed and formatted."""
    with monkeypatch.context() as m:
        m.setenv("XDG_CACHE_HOME", os.devnull)
        code = run(*argv)
    return code, outputs(argv)


def outputs(argv) -> dict:
    flags = ("--out", "--report", "--labelmap")
    return {argv[i + 1]: Path(argv[i + 1]).read_bytes()
            for i, a in enumerate(argv) if a in flags}


def no_temporaries(where: Path) -> bool:
    return not [p for p in where.rglob("*") if p.name.endswith(".tmp")]


@pytest.fixture
def opened(monkeypatch):
    """Every source file _reuse opens."""
    files = []

    def recording(*args, **kwargs):
        f = open(*args, **kwargs)
        files.append(f)
        return f

    monkeypatch.setattr(_reuse, "open", recording, raising=False)
    return files


@pytest.fixture
def copies(monkeypatch):
    """The arguments of every copy the CLI sets up."""
    calls = []
    chunks = _reuse.chunks

    def recording(*args):
        calls.append(args)
        return chunks(*args)

    monkeypatch.setattr(_reuse, "chunks", recording)
    return calls


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_cached_source_is_copied_into_the_formatted_bytes(session, monkeypatch, opened,
                                                            command):
    argv = COMMANDS[command]
    want = reference(argv, monkeypatch)
    assert not opened
    monkeypatch.setattr(_jsonio, "_row_block", no_formatted_rows)
    assert (run(*argv), outputs(argv)) == want
    assert len(opened) == 1 and opened[0].closed
    assert no_temporaries(session)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_source_rewritten_before_the_write_is_formatted(session, monkeypatch, opened,
                                                          command):
    # the same length, one digit of the last layer (copied whole) changed
    argv = COMMANDS[command]
    want = reference(argv, monkeypatch)
    data = Path("m.net").read_bytes()
    changed = change_a_digit(data, weights_line(data, 2) + 1)
    assert len(changed) == len(data) and changed != data
    load = cli._load

    def load_then_rewrite(what, path):
        got = load(what, path)
        if path == "m.net":
            assert got[1] is not None  # a cache hit
            Path(path).write_bytes(changed)
        return got

    monkeypatch.setattr(cli, "_load", load_then_rewrite)
    assert (run(*argv), outputs(argv)) == want
    assert len(opened) == 1 and opened[0].closed
    assert no_temporaries(session)
    # the output's cache entry is filed under the digest of the bytes written
    assert load("model", "p.net")[1] == digest_of(want[1]["p.net"])


def through_layer_0s_first_row(data: bytes) -> bytes:
    """data cut after the first weight row line of layer 0: the source ends inside it."""
    lines = data.split(b"\n")
    return b"\n".join(lines[: weights_line(data, 0) + 1]) + b"\n"


def with_rowless_layer_0(data: bytes) -> bytes:
    """Another model, whose layer 0 has no input columns: its weights line is "weights": [],"""
    return save_network(gen_network([0, 3, 2], seed=1))


@pytest.mark.parametrize("rewrite", [through_layer_0s_first_row, with_rowless_layer_0],
                         ids=["ends-early", "rowless-layer-0"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_source_cut_or_replaced_before_the_write_is_formatted(session, monkeypatch, opened,
                                                                 command, rewrite):
    argv = COMMANDS[command]
    want = reference(argv, monkeypatch)
    load = cli._load

    def load_then_rewrite(what, path):
        got = load(what, path)
        if path == "m.net":
            assert got[1] is not None  # a cache hit
            Path(path).write_bytes(rewrite(Path(path).read_bytes()))
        return got

    monkeypatch.setattr(cli, "_load", load_then_rewrite)
    assert (run(*argv), outputs(argv)) == want
    assert want[0] == 0
    assert len(opened) == 1 and opened[0].closed
    assert no_temporaries(session)


def test_a_hand_written_source_is_parsed_and_formatted(session, monkeypatch, opened):
    # tokens the writer never makes: the model is parsed, so nothing is copied
    Path("m.net").write_text(json.dumps({
        "version": 1, "labels": None, "layers": [
            {"activation": "relu", "rows": 2, "cols": 2, "weights": [1e-3, 0.10, 2, -0.5],
             "bias": [0.0, 1]},
            {"activation": "identity", "rows": 4, "cols": 2,
             "weights": [1, 2, 3, 4, 5, 6, 7, 8], "bias": [0, 0, 0, 0]}]}, indent=0))
    argv = COMMANDS["topn"]
    want = reference(argv, monkeypatch)
    assert (run(*argv), outputs(argv)) == want
    assert not opened
    assert b"0.10" not in want[1]["p.net"] and b"0.001" in Path("p.net").read_bytes()
    assert no_temporaries(session)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_an_unusable_cache_formats(session, monkeypatch, opened, command):
    argv = COMMANDS[command]
    want = reference(argv, monkeypatch)
    monkeypatch.setenv("XDG_CACHE_HOME", os.devnull)
    assert (run(*argv), outputs(argv)) == want
    assert not opened
    assert no_temporaries(session)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_an_output_that_replaces_its_source(session, monkeypatch, opened, command):
    argv = [("m.net" if a == "p.net" else a) for a in COMMANDS[command]]
    source = Path("m.net").read_bytes()
    want = reference(argv, monkeypatch)
    Path("m.net").write_bytes(source)
    assert cli._load("model", "m.net")[1] is not None  # still a cache hit
    assert (run(*argv), outputs(argv)) == want
    assert len(opened) == 1 and opened[0].closed
    assert no_temporaries(session)


# -- the source file is opened only inside the stream, and always closed -----


def test_a_refused_document_opens_no_source(tmp_path, monkeypatch, opened, copies):
    # a cached model whose forward pass overflows: the report's bound is inf
    monkeypatch.chdir(tmp_path)
    big = np.full((2, 2), 1e308)
    net = Network((DenseLayer(big, [0.0, 0.0]),
                   DenseLayer(big, [0.0, 0.0], ActivationKind.IDENTITY)))
    cli._write([("big.net", _jsonio.dump_chunks(_network_fields(net)), net)])
    assert run("gen-scene", "--c", 2, "--h", 2, "--w", 2, "--n-rois", 3, "--pool-h", 1,
               "--pool-w", 1, "--seed", 1, "--out", "s.scene") == 0
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("prune", "--model", "big.net", "--scene", "s.scene", "--tau", 5,
                   "--out", "p.net", "--report", "p.report") == 1
    assert len(copies) == 1 and not opened
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.net", "s.scene"]


@pytest.mark.parametrize("outputs", [
    ["--out", "p.net", "--report", "sub"],
    ["--out", "p.net", "--report", ""],
    ["--out", "p.net", "--report", "sub/../p.net"],
], ids=["directory", "empty", "clash"])
def test_an_output_refused_before_the_write_opens_no_source(session, opened, copies, outputs):
    Path("sub").mkdir()
    before = sorted(p.name for p in session.rglob("*"))
    assert run("prune", "--model", "m.net", "--probe", "probe.json", *outputs) in (1, 2)
    assert len(copies) == 1 and not opened
    assert sorted(p.name for p in session.rglob("*")) == before


def test_a_failed_rename_closes_the_source(session, monkeypatch, opened, capsys):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    assert run(*COMMANDS["probe"]) == 2
    assert capsys.readouterr().err == "i/o error: [Errno 13] Permission denied: 'p.net'\n"
    assert len(opened) == 1 and opened[0].closed
    assert no_temporaries(session) and not Path("p.net").exists()


def test_a_failed_write_closes_the_source(session, monkeypatch, opened, capsys):
    # the write fails at its third chunk, with the copy part way through its source
    written = []

    def failing(f, chunks, digest):
        for chunk in chunks:
            written.append(chunk)
            if len(written) > 2:
                raise OSError(28, "No space left on device")
        return digest

    monkeypatch.setattr(cli, "_stream", failing)
    assert run(*COMMANDS["probe"]) == 2
    assert len(opened) == 1 and opened[0].closed
    assert no_temporaries(session) and not Path("p.net").exists()


# -- who imports the copy -----------------------------------------------------


@pytest.mark.parametrize("usable", [True, False], ids=["cache", "no-cache"])
def test_only_prune_and_topn_of_a_cached_model_import_the_copy(tmp_path, monkeypatch, usable):
    # a module imported at start-up adds to every command's memory, sweep's included
    monkeypatch.chdir(tmp_path)
    steps = [
        ["gen-net", "--sizes", "8,6,4", "--seed", 1, "--out", "m.net"],
        ["gen-scene", "--c", 2, "--h", 4, "--w", 4, "--n-rois", 2, "--pool-h", 2, "--pool-w", 2,
         "--out", "s.scene"],
        ["eval", "--model-a", "m.net", "--model-b", "m.net", "--scene", "s.scene"],
        ["sweep", "--model", "m.net", "--scene", "s.scene", "--thresholds", "0,1",
         "--out", "sweep.csv"],
        ["topn", "--model", "m.net", "--scores", "scores.json", "--n", 2, "--out", "t.net",
         "--labelmap", "t.labels"],
    ]
    Path("scores.json").write_text("[0.1, 0.2, 0.3, 0.4]")
    code = ("import contextlib, io, sys, unitprune.cli as cli\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv.split()) == 0\n"
            "    print(argv.split()[0], 'unitprune._reuse' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    if not usable:
        env["XDG_CACHE_HOME"] = os.devnull
    out = subprocess.run([sys.executable, "-c", code, *(" ".join(map(str, s)) for s in steps)],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["gen-net False", "gen-scene False", "eval False", "sweep False",
                               f"topn {usable}", ""]
