"""The README's examples run: both quick-start Python blocks, and every
`stringraph` line of the command-line block, in order, each with exit 0. The
module attributes its prose names exist."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import stringraph
from stringraph.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else len(README)]


def _blocks(section: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


def test_quick_start_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = _blocks(_section("Library quick start"), "python")
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_command_line_block_runs_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (block,) = _blocks(_section("Command line"), "sh")
    lines = [line.split("#")[0].strip() for line in block.splitlines()]
    commands = [shlex.split(line) for line in lines if line.startswith("stringraph ")]
    assert len(commands) >= 15
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
        capsys.readouterr()


def test_backticked_module_names_resolve():
    """Every backticked `module.name` (or `stringraph.module.name`) of a
    stringraph module names an attribute of that module, so a rename or a
    deletion updates the README with it. File names such as `oracles.py`
    are not names."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    modules = {m.name for m in pkgutil.iter_modules(stringraph.__path__)}
    checked, missing = [], []
    for span in re.findall(r"`([^`]+)`", prose):
        named = re.match(r"(?:stringraph\.)?(\w+)\.(\w+)", span)
        if named is None or named[1] not in modules or re.fullmatch(r"[\w/.]+\.py", span):
            continue
        module = importlib.import_module(f"stringraph.{named[1]}")
        (checked if hasattr(module, named[2]) else missing).append(span)
    assert not missing, missing
    assert len(checked) >= 10, checked
