"""Writing files: the streamed bytes, the writer's memory, and failed writes.

The CLI streams each document to disk as _jsonio.dump_chunks gives it, a
block of rows at a time, through a temporary file that is renamed into place
only once every output of the command is written.
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import unitprune
from unitprune import (
    ActivationKind,
    DenseLayer,
    FeatureMap,
    Network,
    Scene,
    gen_network,
    prune_output_topn,
    save_labelmap,
    save_network,
    save_report,
    save_scene,
)
from unitprune import _jsonio, cli
from unitprune.model import _network_fields
from unitprune.scene import _scene_fields

# ±0.0, subnormals, the smallest normal and values up to the largest double
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
           sys.float_info.max]
value = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def around_a_block(chunk: int, cols: int):
    """Row counts 0, 1, and at, one below and one above the first two block ends."""
    b = max(1, chunk // max(cols, 1))  # rows per chunk, as _jsonio counts them
    return st.sampled_from(sorted({0, 1, b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1}))


@st.composite
def chunked_net_and_scene(draw):
    """A chunk size, a network whose layers end near its block ends, and a scene."""
    chunk = draw(st.integers(1, 9))
    cols = draw(st.integers(0, 4))
    rows = draw(around_a_block(chunk, cols))
    rows2 = draw(around_a_block(chunk, rows))
    layers = []
    for fan_in, units in ((cols, rows), (rows, rows2)):
        w = draw(st.lists(value, min_size=units * fan_in, max_size=units * fan_in))
        b = draw(st.lists(value, min_size=units, max_size=units))
        layers.append(DenseLayer(np.array(w, dtype=float).reshape(units, fan_in), b))
    width = draw(st.integers(1, 4))
    channels = max(1, draw(around_a_block(chunk, width)))
    data = draw(st.lists(value.map(abs), min_size=channels * width, max_size=channels * width))
    fmap = FeatureMap(np.array(data, dtype=float).reshape(channels, 1, width))
    scene = Scene(fmap, ((0, 0, width, 1),), 1, 1)
    return chunk, Network(tuple(layers)), scene


def stream_through_cli(fields: dict, directory: str) -> bytes:
    path = os.path.join(directory, "out")
    cli._write([(path, _jsonio.dump_chunks(fields))])
    return Path(path).read_bytes()


@settings(deadline=None, max_examples=150)
@given(chunked_net_and_scene())
def test_cli_writes_the_bytes_of_dump_doc_and_save(case):
    chunk, net, scene = case
    # a small chunk puts block ends inside these tiny arrays; a huge one formats each
    # Rows body as one piece, the layout the golden tests pin
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as d:
        mp.setattr(_jsonio, "_CHUNK_VALUES", 10**9)
        whole = save_network(net), save_scene(scene)
        mp.setattr(_jsonio, "_CHUNK_VALUES", chunk)
        model_fields, scene_fields = _network_fields(net), _scene_fields(scene)
        assert stream_through_cli(model_fields, d) == _jsonio.dump_doc(model_fields)
        assert stream_through_cli(scene_fields, d) == _jsonio.dump_doc(scene_fields)
        assert (save_network(net), save_scene(scene)) == whole


def test_every_file_topn_writes_equals_its_save(tmp_path):
    net = gen_network([5, 4, 3], seed=2)
    (tmp_path / "m.net").write_bytes(save_network(net))
    scores = [0.2, 0.9, 0.4]
    (tmp_path / "s.json").write_text(json.dumps(scores))
    assert cli.main(["topn", "--model", str(tmp_path / "m.net"), "--scores",
                     str(tmp_path / "s.json"), "--n", "2", "--out", str(tmp_path / "t.net"),
                     "--labelmap", str(tmp_path / "t.l"), "--report",
                     str(tmp_path / "t.report")]) == 0
    pruned, label_map, rep = prune_output_topn(net, np.array(scores), 2)
    assert (tmp_path / "t.net").read_bytes() == save_network(pruned)
    assert (tmp_path / "t.l").read_bytes() == save_labelmap(label_map)
    assert (tmp_path / "t.report").read_bytes() == save_report(rep)


def test_writing_a_large_model_holds_a_small_fraction_of_it(tmp_path):
    net = gen_network([1024, 800], seed=3)
    path = tmp_path / "big.net"
    tracemalloc.start()
    try:
        cli._write([(str(path), _jsonio.dump_chunks(_network_fields(net)))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 16 * 2**20
    assert peak < size / 4


# -- failed writes ---------------------------------------------------------------


def run_cli(*argv):
    """The CLI in a fresh interpreter, as a user runs it."""
    src = Path(unitprune.__file__).parents[1]
    return subprocess.run(
        [sys.executable, "-m", "unitprune.cli", *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )


@pytest.fixture
def small_inputs(tmp_path):
    net = Network((DenseLayer(np.arange(8.0).reshape(2, 4), [0.0, 1.0]),
                   DenseLayer([[1.0, -1.0], [0.5, 2.0], [0.0, 1.0]], [0.0, 0.0, 0.5],
                              ActivationKind.IDENTITY)))
    (tmp_path / "n.net").write_bytes(save_network(net))
    (tmp_path / "s.scene").write_bytes(
        save_scene(Scene(FeatureMap(np.ones((1, 2, 2))), ((0, 0, 2, 2),), 2, 2)))
    (tmp_path / "scores.json").write_text("[0.3, 0.1, 0.9]")
    return tmp_path


def failing_commands(d: Path, missing: Path):
    """(argv, output that should stay as it was) pairs whose last output cannot be opened."""
    return [
        (["prune", "--model", d / "n.net", "--scene", d / "s.scene", "--out", d / "p.net",
          "--report", missing / "r.report"], d / "p.net"),
        (["topn", "--model", d / "n.net", "--scores", d / "scores.json", "--n", 2,
          "--out", d / "t.net", "--labelmap", missing / "t.l"], d / "t.net"),
    ]


@pytest.mark.parametrize("which", [0, 1], ids=["prune", "topn"])
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_write_creates_and_changes_no_output(small_inputs, which, existing):
    d = small_inputs
    argv, kept = failing_commands(d, d / "nonexistent")[which]
    if existing:
        kept.write_bytes(b"an earlier output\n")
    done = run_cli(*argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("i/o error: ") and done.stderr.count("\n") == 1
    assert str(d / "nonexistent") in done.stderr and ".tmp" not in done.stderr
    if existing:
        assert kept.read_bytes() == b"an earlier output\n"
    else:
        assert not kept.exists()
    assert sorted(p.name for p in d.iterdir()) == sorted(
        ["n.net", "s.scene", "scores.json", *([kept.name] if existing else [])])


def test_new_outputs_take_the_umask_and_existing_ones_keep_their_mode(small_inputs):
    d = small_inputs
    (d / "old.net").write_bytes(b"")
    os.chmod(d / "old.net", 0o600)
    old_mask = os.umask(0o027)
    try:
        assert cli.main(["prune", "--model", str(d / "n.net"), "--scene", str(d / "s.scene"),
                         "--out", str(d / "old.net"), "--report", str(d / "new.report")]) == 0
    finally:
        os.umask(old_mask)
    assert stat.S_IMODE((d / "new.report").stat().st_mode) == 0o640
    assert stat.S_IMODE((d / "old.net").stat().st_mode) == 0o600
    assert (d / "old.net").read_bytes().startswith(b'{\n"version": 1,')
    assert not [p for p in d.iterdir() if p.name.endswith(".tmp")]


def test_output_through_a_symlink_replaces_its_target(small_inputs):
    d = small_inputs
    (d / "target.net").write_bytes(b"")
    (d / "link.net").symlink_to(d / "target.net")
    assert cli.main(["gen-net", "--sizes", "3,2", "--out", str(d / "link.net")]) == 0
    assert (d / "link.net").is_symlink()
    assert (d / "target.net").read_bytes().startswith(b'{\n"version": 1,')


def test_output_to_a_pipe_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # a reader that does not block, so the writer can open the pipe; the model fits its buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert cli.main(["gen-net", "--sizes", "3,2", "--out", str(fifo)]) == 0
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert data == save_network(gen_network([3, 2]))
    assert stat.S_ISFIFO(fifo.stat().st_mode)
