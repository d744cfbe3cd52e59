"""The README's code and the package exports name only what exists."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S
)
SUBMODULES = ("bounds", "classical", "cli", "game", "quantum")
MODULES = ["coordgame", *(f"coordgame.{name}" for name in SUBMODULES)]


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
