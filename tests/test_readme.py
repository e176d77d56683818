"""The README's library example and its CLI session run as written against the package."""

import re
import shlex
from pathlib import Path

from unitprune import cli

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    exec(compile(code, f"{README.name} ## Library", "exec"), {})


def session_commands():
    """[argv, the stdout the README shows or None] per command of its "A full session" block."""
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^A full session:\n\n```sh\n(.*?)^```$", text, flags=re.S | re.M)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("# {"):
            commands[-1][1] = line[2:] + "\n"
        elif line and not line.startswith("#"):
            commands.append([shlex.split(line), None])
    return commands


def test_full_session_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    commands = session_commands()
    names = [argv[1] if argv[0] == "unitprune" else argv[0] for argv, _ in commands]
    assert names == ["gen-scene", "gen-net", "prune", "eval", "echo", "topn", "sweep"]
    for argv, want in commands:
        if argv[0] == "echo":
            text, redirect, path = argv[1:]
            assert redirect == ">"
            Path(path).write_text(text + "\n")
            continue
        assert cli.main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        assert out == (want or ""), argv
    assert commands[3][1].startswith('{"n_examples": 200, "max_abs": 0.0')
    assert (tmp_path / "sweep.csv").read_text().startswith("tau,")
