"""README examples run as written: the library snippet, the configuration and the command-line sessions."""

import re
import shlex
import shutil
from pathlib import Path

from nerveline import Regime, estimate_p, load_config
from nerveline.cli import main

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text(encoding="utf-8")


def _section(title):
    """Text of the ``## title`` section, up to the next ``## `` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end]


def _blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, re.DOTALL)


def _sessions(text):
    """``(argv, expected output lines)`` for each ``$`` prompt, in document order."""
    for block in _blocks(text, "text"):
        for chunk in block.strip().split("\n\n"):
            prompt, *output = chunk.splitlines()
            assert prompt.startswith("$ "), prompt
            yield shlex.split(prompt[2:]), output


def test_library_use_block(capsys):
    (code,) = _blocks(_section("Library use"), "python")
    namespace = {}
    exec(code, namespace)
    estimate = estimate_p(namespace["filtered"], namespace["cal"])
    assert capsys.readouterr().out == f"{estimate}\n"
    assert estimate.regime is Regime.BODY
    assert round(estimate.p) == 43


def test_configuration_block_is_the_shipped_config(tmp_path):
    (block,) = _blocks(_section("Configuration"), "yaml")
    path = tmp_path / "c.yaml"
    path.write_text(block, encoding="utf-8")
    assert load_config(path) == load_config(REPO / "configs" / "default.yaml")


def test_command_line_sessions(tmp_path, monkeypatch, capsys):
    for name in ("configs", "scenarios"):
        shutil.copytree(REPO / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    sessions = list(_sessions(_section("Command line")))
    assert [argv[0] for argv, _ in sessions] == ["nerveline", "head"] * 4
    for argv, expected in sessions:
        if argv[0] == "nerveline":
            assert main(argv[1:]) == 0, argv
            got = capsys.readouterr().out.splitlines()
        else:
            lines = int(argv[1].removeprefix("-"))
            got = Path(argv[2]).read_text().splitlines()[:lines]
        assert got == expected, argv
