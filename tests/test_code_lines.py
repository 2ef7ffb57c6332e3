import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment beside code counts

# a comment alone does not


def f(x):
    """Function docstring."""
    "a bare string statement"
    return (x +
            1)


TEXT = """a string that is
not a statement"""
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(code_lines, tmp_path):
    # import, def, the two lines of the return, the two of TEXT
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 6


def test_prints_the_package_total(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("y = 2\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], check=True,
                         capture_output=True, text=True).stdout
    assert out == "7\n"
