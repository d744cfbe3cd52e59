"""The README's code, the demos and the package exports name only what exists."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coordgame

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
