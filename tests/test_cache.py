"""The CLI's parse cache: a hit is the strict parse, and anything in doubt is a parse.

Every test runs with its own empty cache directory (tests/conftest.py points
XDG_CACHE_HOME at it).
"""

import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from unitprune import (
    DenseLayer,
    FeatureMap,
    Network,
    Scene,
    gen_network,
    gen_scene,
    load_network,
    load_scene,
)
from unitprune import _cache, _jsonio, cli
from unitprune.model import _network_fields
from unitprune.scene import _scene_fields

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]
LABELS = st.text(
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", " ", "\ud800", "é", "a", "/"]),
    max_size=4,
)


def run(*argv):
    return cli.main([str(a) for a in argv])


def cache_dir() -> Path:
    return Path(os.environ["XDG_CACHE_HOME"]) / "unitprune"


def entry_of(path) -> Path:
    h = _cache.hasher()
    h.update(Path(path).read_bytes())
    return cache_dir() / h.hexdigest()


def entries() -> set:
    return {p.name for p in cache_dir().iterdir()} if cache_dir().exists() else set()


@pytest.fixture
def parses(monkeypatch):
    """The kinds the CLI parsed from text, in order; a cache hit adds nothing."""
    seen = []

    def counting(kind, load):
        def wrapped(f):
            seen.append(kind)
            return load(f)

        return wrapped

    monkeypatch.setattr(cli, "load_network", counting("model", cli.load_network))
    monkeypatch.setattr(cli, "load_scene", counting("scene", cli.load_scene))
    return seen


@st.composite
def networks(draw):
    """gen_network widths with zero-unit layers, -0.0 and extreme weights, escaped labels."""
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    net = gen_network(sizes, sparsity=draw(st.sampled_from([0.0, 0.5])),
                      seed=draw(st.integers(0, 9)))
    layers = []
    for lay in net.layers:
        w = lay.weights.copy()
        if w.size:
            picks = draw(st.lists(st.sampled_from(SPECIAL), min_size=w.size, max_size=w.size))
            keep = draw(st.lists(st.booleans(), min_size=w.size, max_size=w.size))
            w.flat[np.array(keep)] = np.array(picks)[np.array(keep)]
        layers.append(DenseLayer(w, lay.bias, lay.activation))
    labels = None
    if layers and draw(st.booleans()):
        labels = tuple(draw(st.lists(LABELS, min_size=layers[-1].units,
                                     max_size=layers[-1].units)))
    return Network(tuple(layers), labels=labels)


@st.composite
def scenes(draw):
    """gen_scene with 0 to 3 regions, some entries set to -0.0 or the smallest subnormal."""
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    sc = gen_scene(c, h, w, zero_channels=draw(st.integers(0, c)), n_rois=draw(st.integers(0, 3)),
                   pool_h=draw(st.integers(1, 3)), pool_w=draw(st.integers(1, 3)),
                   seed=draw(st.integers(0, 9)))
    data = sc.fmap.data.copy()
    flips = draw(st.lists(st.sampled_from([-0.0, 5e-324]), min_size=data.size,
                          max_size=data.size))
    keep = np.array(draw(st.lists(st.booleans(), min_size=data.size, max_size=data.size)))
    data.flat[keep] = np.array(flips)[keep]
    return Scene(FeatureMap(data), sc.rois, sc.pool_h, sc.pool_w)


def same_arrays(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            and not a.flags.writeable and not b.flags.writeable and a.flags.c_contiguous)


def assert_same_network(got: Network, ref: Network):
    assert got.labels == ref.labels
    assert len(got.layers) == len(ref.layers)
    for g, r in zip(got.layers, ref.layers):
        assert g.activation is r.activation
        assert same_arrays(g.weights, r.weights)
        assert same_arrays(g.bias, r.bias)


def assert_same_scene(got: Scene, ref: Scene):
    assert (got.pool_h, got.pool_w) == (ref.pool_h, ref.pool_w)
    assert same_arrays(got.fmap.data, ref.fmap.data)
    assert same_arrays(got.rois, ref.rois)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(net=networks(), sc=scenes())
def test_a_hit_is_the_strict_parse(net, sc, monkeypatch):
    with tempfile.TemporaryDirectory() as d:
        model, scene = os.path.join(d, "m.net"), os.path.join(d, "s.scene")
        cli._write([(model, _jsonio.dump_chunks(_network_fields(net)), net),
                    (scene, _jsonio.dump_chunks(_scene_fields(sc)), sc)])
        ref_net = load_network(Path(model).read_bytes())
        ref_scene = load_scene(Path(scene).read_bytes())
        with monkeypatch.context() as m:
            # a hit never reaches the loaders
            m.setattr(cli, "load_network", None)
            m.setattr(cli, "load_scene", None)
            got_net, _ = cli._load("model", model)
            got_scene, _ = cli._load("scene", scene)
    assert_same_network(got_net, ref_net)
    assert_same_scene(got_scene, ref_scene)
    assert got_net == net


@pytest.fixture
def session(tmp_path, monkeypatch):
    """A scene, a model and its tau=0 prune, written by the CLI in tmp_path."""
    monkeypatch.chdir(tmp_path)
    assert run("gen-scene", "--c", 4, "--h", 5, "--w", 5, "--zero-channels", 1, "--n-rois", 6,
               "--pool-h", 2, "--pool-w", 2, "--seed", 3, "--out", "s.scene") == 0
    assert run("gen-net", "--sizes", "16,8,3", "--seed", 4, "--out", "m.net") == 0
    assert run("prune", "--model", "m.net", "--scene", "s.scene", "--out", "p.net",
               "--report", "p.report") == 0
    assert {entry_of(p).name for p in ("s.scene", "m.net", "p.net")} == entries()
    return tmp_path


EVAL = ("eval", "--model-a", "m.net", "--model-b", "p.net", "--scene", "s.scene",
        "--report", "p.report")
# a model named as the scene: its entry is for another kind, so the parse reports it
WRONG_KIND = ("eval", "--model-a", "m.net", "--model-b", "p.net", "--scene", "p.net")


def outcome(capsys, argv):
    code = run(*argv)
    out, err = capsys.readouterr()
    return code, out, err


def without_cache(capsys, monkeypatch, argv):
    with monkeypatch.context() as m:
        m.setenv("XDG_CACHE_HOME", os.devnull)
        return outcome(capsys, argv)


@pytest.mark.parametrize("argv", [EVAL, WRONG_KIND], ids=["eval", "wrong-kind"])
def test_a_warm_cache_changes_no_output(session, capsys, monkeypatch, parses, argv):
    expected = without_cache(capsys, monkeypatch, argv)
    parses.clear()
    assert outcome(capsys, argv) == expected
    # the models and the eval's scene were hits; only the model read as a scene was parsed
    assert parses == ([] if argv == EVAL else ["scene"])
    assert expected[0] == (0 if argv == EVAL else 2)


def truncate(entry: Path):
    entry.write_bytes(entry.read_bytes()[:-1])


def flip_a_weight_bit(entry: Path):
    data = bytearray(entry.read_bytes())
    data[-40] ^= 1  # in the last bias, before the checksum
    entry.write_bytes(bytes(data))


def respace_the_header(entry: Path):
    # the same header in meaning and length: only the checksum tells
    entry.write_bytes(entry.read_bytes().replace(b'"kind": "model"', b'"kind":\t"model"', 1))


def filed_under_another_name(entry: Path):
    # the scene's entry, copied to the model's name: its header names another file
    shutil.copyfile(entry_of("s.scene"), entry)


def group_writable(entry: Path):
    entry.chmod(0o620)


def world_writable(entry: Path):
    entry.chmod(0o602)


def a_symlink(entry: Path):
    real = entry.with_name("elsewhere")
    os.replace(entry, real)
    entry.symlink_to(real.name)


def foreign_owned(entry: Path, monkeypatch):
    if os.geteuid() == 0:
        os.chown(entry, 4321, 4321)
        return
    # without the right to give a file away, the entry's fstat reports another owner
    mine = os.stat(entry)
    real = os.fstat

    def fstat(fd):
        st = real(fd)
        if (st.st_dev, st.st_ino) != (mine.st_dev, mine.st_ino):
            return st
        return os.stat_result((st.st_mode, st.st_ino, st.st_dev, st.st_nlink, st.st_uid + 1,
                               st.st_gid, st.st_size, st.st_atime, st.st_mtime, st.st_ctime))

    monkeypatch.setattr(os, "fstat", fstat)


BREAKS = [truncate, flip_a_weight_bit, respace_the_header, filed_under_another_name,
          group_writable, world_writable, a_symlink, foreign_owned]


@pytest.mark.parametrize("argv", [EVAL, WRONG_KIND], ids=["eval", "wrong-kind"])
@pytest.mark.parametrize("damage", BREAKS, ids=lambda f: f.__name__)
def test_an_entry_in_doubt_is_ignored(session, capsys, monkeypatch, parses, damage, argv):
    expected = without_cache(capsys, monkeypatch, argv)
    entry = entry_of("p.net")
    if damage is foreign_owned:
        damage(entry, monkeypatch)
    else:
        damage(entry)
    parses.clear()
    assert outcome(capsys, argv) == expected
    assert parses == (["model"] if argv == EVAL else ["model", "scene"])


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
def test_a_directory_others_may_write_is_neither_read_nor_written(session, capsys, monkeypatch,
                                                                   parses, mode):
    cache_dir().chmod(mode)
    before = entries()
    expected = without_cache(capsys, monkeypatch, EVAL)
    parses.clear()
    assert outcome(capsys, EVAL) == expected
    assert parses == ["model", "model", "scene"]
    assert run("gen-net", "--sizes", "16,8,3", "--seed", 5, "--out", "n.net") == 0
    assert entries() == before


def test_an_unusable_cache_is_silent(session, capsys, monkeypatch, parses):
    expected = without_cache(capsys, monkeypatch, EVAL)
    not_a_dir = session / "not-a-dir"
    not_a_dir.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_dir))
    parses.clear()
    assert outcome(capsys, EVAL) == expected
    assert parses == ["model", "model", "scene"]
    assert run("gen-net", "--sizes", "16,8,3", "--seed", 5, "--out", "n.net") == 0
    assert not_a_dir.read_text() == ""


def test_a_relative_cache_home_is_ignored(tmp_path, monkeypatch):
    # the XDG rule: a relative path is invalid, so ~/.cache is used
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    assert _cache.directory() == str(tmp_path / "home" / ".cache" / "unitprune")


def test_a_file_edited_after_it_was_written_misses(session, parses):
    text = Path("m.net").read_text()
    first = text.index('"weights": [\n') + 13
    digit = next(i for i in range(first, len(text)) if text[i] in "123456789")
    edited = text[:digit] + str(int(text[digit]) % 9 + 1) + text[digit + 1:]
    Path("m.net").write_text(edited)
    got, _ = cli._load("model", "m.net")
    assert parses == ["model"]
    assert got == load_network(edited.encode())
    assert got != load_network(text.encode())


def test_a_fifo_is_never_looked_up(session, monkeypatch, parses):
    hashed = []
    monkeypatch.setattr(_cache, "_digest_of", lambda f: hashed.append(f) or b"")
    fifo = session / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(Path("m.net").read_bytes(),),
                              daemon=True)
    writer.start()
    try:
        got, _ = cli._load("model", str(fifo))
    finally:
        writer.join(timeout=10)
    assert got == load_network(Path("m.net").read_bytes())
    assert hashed == [] and parses == ["model"]


def test_a_device_is_never_hashed(session, capsys, monkeypatch):
    # a device may never end (/dev/zero), so only a regular file is read for its digest
    expected = without_cache(capsys, monkeypatch, ("eval", "--model-a", os.devnull,
                                                   "--model-b", "p.net", "--scene", "s.scene"))
    hashed = []
    monkeypatch.setattr(_cache, "_digest_of", lambda f: hashed.append(f) or b"")
    assert outcome(capsys, ("eval", "--model-a", os.devnull, "--model-b", "p.net",
                            "--scene", "s.scene")) == expected
    assert expected[0] == 2 and hashed == []


@pytest.mark.parametrize("command", [
    ("gen-net", "--sizes", "16,8,3", "--seed", 9),
    ("gen-scene", "--c", 4, "--h", 5, "--w", 5, "--seed", 9),
], ids=["gen-net", "gen-scene"])
def test_a_device_output_is_never_stored(session, command):
    before = entries()
    assert run(*command, "--out", os.devnull) == 0
    assert entries() == before


def test_a_failed_write_stores_nothing(session, capsys):
    before = entries()
    Path("probe.json").write_text(json.dumps([0.5] * 16))
    assert run("prune", "--model", "m.net", "--probe", "probe.json", "--out", "q.net",
               "--report", session / "missing" / "q.report") == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not Path("q.net").exists()
    assert entries() == before


def test_a_failed_rename_stores_nothing(session, capsys, monkeypatch):
    # the model is renamed into place, then the report's rename fails
    before = entries()
    renames = []
    real = os.replace

    def replace(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise PermissionError(13, "Permission denied")
        real(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace)
    assert run("topn", "--model", "m.net", "--scores", write_scores(), "--n", 2,
               "--out", "t.net", "--labelmap", "t.labels") == 2
    assert capsys.readouterr().err == "i/o error: [Errno 13] Permission denied: 't.labels'\n"
    assert len(renames) == 2
    assert entries() == before


def write_scores() -> str:
    Path("scores.json").write_text(json.dumps([0.3, 0.9, 0.1]))
    return "scores.json"


def test_the_cap_evicts_the_least_recently_used(tmp_path, monkeypatch, parses):
    monkeypatch.chdir(tmp_path)
    names = []
    for seed in (11, 12):
        assert run("gen-net", "--sizes", "16,8,3", "--seed", seed, "--out", f"n{seed}.net") == 0
        names.append(entry_of(f"n{seed}.net").name)
    assert entries() == set(names)
    now = (cache_dir() / names[0]).stat().st_mtime
    for age, name in zip((200, 100), names):
        os.utime(cache_dir() / name, (now - age, now - age))
    # a hit makes the oldest entry the most recently used
    assert cli._load("model", "n11.net")[0] == load_network(Path("n11.net").read_bytes())
    assert parses == []
    size = (cache_dir() / names[0]).stat().st_size
    monkeypatch.setattr(_cache, "_CAP", 2 * size + 50)
    assert run("gen-net", "--sizes", "16,8,3", "--seed", 13, "--out", "n13.net") == 0
    assert entries() == {names[0], entry_of("n13.net").name}
    assert sum((cache_dir() / n).stat().st_size for n in entries()) <= _cache._CAP


def test_an_entry_larger_than_the_cap_is_not_stored(session, monkeypatch):
    # nor does it push out the entries there are
    before = entries()
    monkeypatch.setattr(_cache, "_CAP", 1000)
    assert run("gen-net", "--sizes", "16,8,3", "--seed", 13, "--out", "n13.net") == 0
    assert entries() == before
    assert not any(p.name.endswith(".tmp") for p in cache_dir().iterdir())


def test_entries_are_private_to_the_user(session):
    assert not cache_dir().stat().st_mode & 0o022
    for name in entries():
        assert stat.S_IMODE((cache_dir() / name).stat().st_mode) == 0o600


@pytest.mark.parametrize("usable", [True, False], ids=["usable", "unusable"])
def test_the_hash_never_loads_openssl(tmp_path, monkeypatch, usable):
    # hashlib would load OpenSSL, megabytes of memory per command; an unusable
    # cache loads no hash module at all (gen-net is left out: numpy.random
    # imports hashlib itself)
    monkeypatch.chdir(tmp_path)
    assert run("gen-net", "--sizes", "4,3", "--out", "m.net") == 0
    code = ("import sys, unitprune.cli as cli; "
            "cli.main(['topn', '--model', 'm.net', '--scores', 's.json', '--n', '2', "
            "'--out', 't.net', '--labelmap', 't.labels']); "
            "print(sorted(m for m in ('_blake2', '_hashlib', 'hashlib') if m in sys.modules))")
    Path("s.json").write_text("[0.1, 0.2, 0.3]")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    if not usable:
        env["XDG_CACHE_HOME"] = os.devnull
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert Path("t.net").exists()
    assert entry_of("t.net").exists() == usable
    assert out == ("['_blake2']\n" if usable else "[]\n")


def test_writing_the_same_bytes_again_keeps_the_entry(session, parses):
    entry = entry_of("m.net")
    before = entry.stat()
    os.utime(entry, (before.st_atime - 100, before.st_mtime - 100))
    assert run("gen-net", "--sizes", "16,8,3", "--seed", 4, "--out", "m.net") == 0
    after = entry.stat()
    assert after.st_ino == before.st_ino and after.st_mtime > before.st_mtime - 100


@pytest.mark.parametrize("damage", [flip_a_weight_bit, truncate, group_writable],
                         ids=lambda f: f.__name__)
def test_a_damaged_entry_is_written_anew(session, parses, damage):
    damage(entry_of("p.net"))
    assert cli._load("model", "p.net")[0] == load_network(Path("p.net").read_bytes())
    assert parses == ["model"]
    assert run("prune", "--model", "m.net", "--scene", "s.scene", "--out", "p.net") == 0
    assert stat.S_IMODE(entry_of("p.net").stat().st_mode) == 0o600
    parses.clear()
    assert cli._load("model", "p.net")[0] == load_network(Path("p.net").read_bytes())
    assert parses == []


def layout_1_entry(net: Network, name: str) -> bytes:
    """net's entry as the first layout kept it: [activation, units, inputs] triples, then arrays."""
    head = {"kind": "model", "labels": None if net.labels is None else list(net.labels),
            "layers": [[lay.activation.value, lay.units, lay.inputs] for lay in net.layers],
            "source": name}
    body = b"unitprune parse cache 1\n" + json.dumps(head).encode("ascii") + b"\n"
    for lay in net.layers:
        body += lay.weights.astype("<f8").tobytes() + lay.bias.astype("<f8").tobytes()
    h = _cache.hasher()
    h.update(body)
    return body + h.digest()


def test_an_entry_of_the_first_layout_is_a_miss_and_written_anew(session, capsys, monkeypatch,
                                                                  parses):
    # a cache shared with an older version of the CLI holds entries of its layout
    entry = entry_of("m.net")
    old = layout_1_entry(load_network(Path("m.net").read_bytes()), entry.name)
    entry.write_bytes(old)
    assert stat.S_IMODE(entry.stat().st_mode) == 0o600
    expected = without_cache(capsys, monkeypatch, EVAL)
    parses.clear()
    assert outcome(capsys, EVAL) == expected
    assert parses == ["model"]
    assert entry.read_bytes() == old
    # the same bytes written again replace it: an entry of this layout is never as long
    assert run("gen-net", "--sizes", "16,8,3", "--seed", 4, "--out", "m.net") == 0
    assert entry.read_bytes().startswith(_cache._MAGIC) and entry.stat().st_size != len(old)
    parses.clear()
    assert cli._load("model", "m.net")[0] == load_network(Path("m.net").read_bytes())
    assert parses == []


@pytest.mark.parametrize("old, new", [
    (rb'"activation": "identity"', b'"activation": "tanh"'),
    (rb'"shape": \[\d+\]', b'"shape": [1000000000000000]'),
], ids=["activation-the-loader-refuses", "an-array-larger-than-memory"])
def test_a_whole_entry_of_a_refused_document_is_a_miss(session, capsys, monkeypatch, parses,
                                                       old, new):
    # the entry is as store writes it, checksum and all, but its document is refused
    entry = entry_of("p.net")
    data = re.sub(old, new, entry.read_bytes()[:-_cache._DIGEST], count=1)
    h = _cache.hasher()
    h.update(data)
    entry.write_bytes(data + h.digest())
    expected = without_cache(capsys, monkeypatch, EVAL)
    parses.clear()
    assert outcome(capsys, EVAL) == expected
    assert parses == ["model"]
