"""The README's code, the demos and the package exports name only what exists."""

import argparse
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coordgame
from coordgame.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PYTHON_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S
)
SUBMODULES = ("bounds", "classical", "cli", "game", "quantum")
MODULES = ["coordgame", *(f"coordgame.{name}" for name in SUBMODULES)]
# the submodules whose ``__all__`` the package re-exports, in its order
RE_EXPORTED = ("game", "classical", "quantum", "bounds")


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md block {index}", "exec"), {})


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_readme_lists_every_public_name():
    section = README.read_text(encoding="utf-8").split("## Public names\n")[1].split("\n## ")[0]
    listed = {name for bullet in section.split("\n- ")[1:] for name in re.findall(r"`(\w+)`", bullet)}
    assert sorted(listed - set(SUBMODULES)) == sorted(coordgame.__all__)


# each subcommand's parser, and the text after its name in README's "Command line" block
SUBPARSERS = next(
    action.choices for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
)
README_COMMANDS = dict(
    re.fullmatch(r"coordgame (\w+) *(.*)", line).groups()
    for line in README.read_text(encoding="utf-8")
    .split("## Command line\n")[1]
    .split("```sh\n")[1]
    .split("```")[0]
    .splitlines()
)
COMMON_DESTS = ("help", "seed", "format", "out")


def test_readme_command_line_lists_every_subcommand_in_order():
    assert list(README_COMMANDS) == list(SUBPARSERS)


@pytest.mark.parametrize("subcommand", SUBPARSERS)
def test_readme_command_line_gives_each_flag_and_default_of_the_parser(subcommand):
    own = [action for action in SUBPARSERS[subcommand]._actions if action.dest not in COMMON_DESTS]
    listed = re.findall(r"\[[^\]]*\]|\S+", README_COMMANDS[subcommand])
    assert len(listed) == len(own)
    for text, action in zip(listed, own):
        if not action.option_strings:
            assert text == action.dest.upper()
            continue
        flag, value = re.fullmatch(r"\[(--[\w-]+) (\S+)\]", text).groups()
        assert flag == action.option_strings[0]
        if action.choices is None:
            assert value == str(action.default)
        elif value != "...":
            assert value.split("|") == [action.default, *(c for c in action.choices if c != action.default)]


@pytest.mark.parametrize("subcommand", SUBPARSERS)
def test_every_help_text_renders_the_parsed_default(subcommand):
    subparser = SUBPARSERS[subcommand]
    positionals = [action for action in subparser._actions if not action.option_strings]
    parsed = build_parser().parse_args([subcommand, *["0"] * len(positionals)])
    # the rendered help of each option, keyed by its first flag, whitespace-normalised
    entries = re.split(r"^  (?=-)", subparser.format_help(), flags=re.M)[1:]
    rendered = {entry.split()[0]: " ".join(entry.split()) for entry in entries}
    helped = [a for a in subparser._actions if a.help is not None and a.dest != "help"]
    assert helped
    for action in helped:
        default = getattr(parsed, action.dest)
        shown = "stdout" if default is None else default  # --out's None writes to stdout
        assert rendered[action.option_strings[0]].endswith(f"(default {shown})")


def test_package_re_exports_something():
    assert set(coordgame.__all__) > {"__version__"}


def test_package_all_is_the_version_then_each_submodule_all():
    lists = [importlib.import_module(f"coordgame.{name}").__all__ for name in RE_EXPORTED]
    assert coordgame.__all__ == ["__version__", *(name for names in lists for name in names)]
    assert len(set(coordgame.__all__)) == len(coordgame.__all__)


@pytest.mark.parametrize("submodule", sorted(RE_EXPORTED))
def test_re_exports_are_in_the_submodule_all(submodule):
    # ``from coordgame.<submodule> import *`` and ``coordgame`` give the same objects
    module = importlib.import_module(f"coordgame.{submodule}")
    assert [name for name in module.__all__ if getattr(coordgame, name) is not getattr(module, name)] == []


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # the only run of the demos, on every tier-1 leg: a numpy floating-point
    # warning or any stderr output fails
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not proc.stderr
