import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "convert_relations.py"


@pytest.fixture(scope="module")
def convert():
    spec = importlib.util.spec_from_file_location("convert_relations", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_matrix_rejects_fractional_cell(convert, tmp_path):
    matrix = tmp_path / "rel0.txt"
    matrix.write_text("0 1\n0.5 ?\n")
    with pytest.raises(SystemExit) as exc:
        convert(["--format", "matrix", "--n-objects", "2", "--n-relations", "1",
                 "--out", str(tmp_path / "out.tsv"), str(matrix)])
    assert exc.value.code not in (0, None)
    assert "rel0.txt" in str(exc.value.code) and "row 1, column 0" in str(exc.value.code)
    assert not (tmp_path / "out.tsv").exists()


def test_edgelist_rejects_index_out_of_range(convert, tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1 0\n0 3 0\n")
    with pytest.raises(SystemExit) as exc:
        convert(["--format", "edgelist", "--n-objects", "3", "--n-relations", "1",
                 "--out", str(tmp_path / "out.tsv"), str(edges)])
    assert "edges.txt: line 2" in str(exc.value.code)


def test_edgelist_closed_world_symmetrized_bytes(convert, tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("# i j t\n0 1 0\n1 2 1\n")
    out = tmp_path / "out.tsv"
    convert(["--format", "edgelist", "--n-objects", "3", "--n-relations", "2",
             "--closed-world", "--symmetrize", "--out", str(out), str(edges)])
    positives = {(0, 1, 0), (1, 0, 0), (1, 2, 1), (2, 1, 1)}
    expected = "3 2\n" + "".join(f"{i} {j} {t} {int((i, j, t) in positives)}\n"
                                 for i in range(3) for j in range(3) for t in range(2))
    assert out.read_bytes() == expected.encode()


def test_edgelist_rejects_extra_fields(convert, tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1 0\n# weight\n0 1 0 7\n")
    with pytest.raises(SystemExit) as exc:
        convert(["--format", "edgelist", "--n-objects", "3", "--n-relations", "1",
                 "--out", str(tmp_path / "out.tsv"), str(edges)])
    assert "edges.txt: line 3" in str(exc.value.code)
    assert not (tmp_path / "out.tsv").exists()


def test_matrix_drop_self_pairs_symmetrized_bytes(convert, tmp_path):
    rel0, rel1 = tmp_path / "rel0.txt", tmp_path / "rel1.txt"
    rel0.write_text("1 1 ?\n? 0 0\n? ? 1\n")
    rel1.write_text("0 ? 1\n? 1 ?\n? ? 0\n")
    out = tmp_path / "out.tsv"
    convert(["--format", "matrix", "--n-objects", "3", "--n-relations", "2",
             "--drop-self-pairs", "--symmetrize", "--out", str(out), str(rel0), str(rel1)])
    expected = ("3 2\n"
                "0 1 0 1\n0 2 1 1\n"
                "1 0 0 1\n1 2 0 0\n"
                "2 0 1 1\n2 1 0 0\n")
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("fmt,body", [("edgelist", "0 1 0\n1 0 0\n"),
                                      ("matrix", "? 1\n0 ?\n")], ids=["edgelist", "matrix"])
def test_inputs_with_a_byte_order_mark_convert_as_without(convert, tmp_path, fmt, body):
    outputs = []
    for name, text in (("plain", body), ("marked", "\ufeff" + body)):
        src, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.tsv"
        src.write_text(text, encoding="utf-8")
        convert(["--format", fmt, "--n-objects", "2", "--n-relations", "1",
                 "--out", str(out), str(src)])
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_edge_lists_convert_alike_with_and_without_a_comment(convert, tmp_path):
    # without "#" the edge list is parsed from disk, with one through its line strings
    outputs = []
    for name, text in (("plain", "0 1 0\n2\t0 1\n"),
                       ("crlf", "\ufeff\r\n0 1 0\r\n\r\n2\t0 1"),
                       ("commented", "# i j t\r\n0 1 0\r\n# next\r\n2\t0 1")):
        src, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.tsv"
        with open(src, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        convert(["--format", "edgelist", "--n-objects", "3", "--n-relations", "2",
                 "--out", str(out), str(src)])
        outputs.append(out.read_bytes())
    assert outputs == [b"3 2\n0 1 0 1\n2 0 1 1\n"] * 3


def test_script_runs_from_another_directory(tmp_path):
    # the script finds the package beside it, not under the working directory
    (tmp_path / "edges.txt").write_text("0 1 0\n")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--format", "edgelist", "--n-objects", "2",
         "--n-relations", "1", "--out", "out.tsv", "edges.txt"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out.tsv").read_bytes() == b"2 1\n0 1 0 1\n"
