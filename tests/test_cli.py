import json
import os
import subprocess
import sys

import pytest

import omcanon
from omcanon.cli import run

from conftest import PENTAGON_ROWS


def line4_doc():
    labels = ["0", "1", "2", "3"]
    table = {f"{i},{j}": "+" for i in range(4) for j in range(i + 1, 4)}
    return {"format": "chirotope", "rank": 2, "elements": labels,
            "chirotope": table}


def pentagon_doc():
    return {"format": "matrix", "rank": 3,
            "elements": ["1", "2", "3", "4", "5"],
            "matrix": [[str(x) for x in row] for row in PENTAGON_ROWS]}


@pytest.fixture
def line4_path(tmp_path):
    path = tmp_path / "line4.json"
    path.write_text(json.dumps(line4_doc()))
    return str(path)


@pytest.fixture
def pentagon_path(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(pentagon_doc()))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_line4(capsys, line4_path):
    code, out, _ = invoke(capsys, "info", "--input", line4_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2
    assert doc["n_topes"] == 8
    assert doc["reduced_dims"] == [1, 3]
    assert doc["beta"] == 2
    assert doc["os_dims"] == [1, 4, 3]
    assert doc["tutte"]["1,0"] == 2


def test_info_pentagon(capsys, pentagon_path):
    code, out, _ = invoke(capsys, "info", "--input", pentagon_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3
    assert len(doc["atoms"]) == 5
    assert doc["n_topes"] == 22
    assert doc["beta"] == 3


def test_info_malformed_chirotope(capsys, tmp_path):
    doc = line4_doc()
    doc["chirotope"]["1,3"] = "-"  # breaks the three-term relation
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "info", "--input", str(path))
    assert code == 2
    assert "three-term" in err and not out


def test_info_loop_diagnostic(capsys, tmp_path):
    doc = {"format": "chirotope", "rank": 2, "elements": ["0", "1", "2"],
           "chirotope": {"0,1": "+"}}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    code, _, err = invoke(capsys, "info", "--input", str(path))
    assert code == 2 and "loop: 2" in err


def test_info_bad_json_has_line_diagnostics(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "chirotope",\n  broken\n}')
    code, _, err = invoke(capsys, "info", "--input", str(path))
    assert code == 2 and ":2:" in err


def test_canonical_line4(capsys, line4_path):
    code, out, _ = invoke(capsys, "canonical", "--input", line4_path,
                          "--tope", "+,+,-,-")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"grade": 1, "terms": {"1": "-1", "2": "1"}}


def test_canonical_pentagon(capsys, pentagon_path):
    code, out, _ = invoke(capsys, "canonical", "--input", pentagon_path,
                          "--tope", "+,+,+,+,+")
    assert code == 0
    doc = json.loads(out)
    assert doc["grade"] == 2
    assert doc["terms"]["1,2"] == "1" and doc["terms"]["1,4"] == "-1"


def test_canonical_nonreduced(capsys, line4_path):
    code, out, _ = invoke(capsys, "canonical", "--input", line4_path,
                          "--tope", "+,+,-,-", "--nonreduced")
    assert code == 0
    doc = json.loads(out)
    # -e_{12} resolved to NBC coordinates
    assert doc == {"grade": 2, "terms": {"0,1": "1", "0,2": "-1"}}


def test_canonical_not_a_tope(capsys, line4_path):
    code, out, err = invoke(capsys, "canonical", "--input", line4_path,
                            "--tope", "+,-,+,-")
    assert code == 2
    assert "not a tope" in err and "nearest topes" in err


def test_basis_line4(capsys, line4_path):
    code, out, _ = invoke(capsys, "basis", "--input", line4_path,
                          "--grade", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["grade"] == 1
    assert len(doc["basis"]) == 3
    assert all(entry["element"]["grade"] == 1 for entry in doc["basis"])


def test_basis_grade_out_of_range(capsys, line4_path):
    code, _, err = invoke(capsys, "basis", "--input", line4_path,
                          "--grade", "2")
    assert code == 2 and "grade" in err


def test_aomoto_generic(capsys, line4_path):
    code, out, _ = invoke(capsys, "aomoto", "--input", line4_path,
                          "--weights", "1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_H"] == 2 and doc["is_generic"] is True
    assert len(doc["basis_images"]) == 2


def test_aomoto_degenerate(capsys, line4_path):
    code, out, _ = invoke(capsys, "aomoto", "--input", line4_path,
                          "--weights", "1,1,-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_generic"] is False


def test_aomoto_bad_weights(capsys, line4_path):
    code, _, err = invoke(capsys, "aomoto", "--input", line4_path,
                          "--weights", "1,1")
    assert code == 2 and "weights" in err


def test_verify_all_pentagon(capsys, pentagon_path):
    code, out, _ = invoke(capsys, "verify", "--input", pentagon_path,
                          "--suite", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all("seconds" in c for c in doc["checks"])
    names = {c["name"].split(":")[0] for c in doc["checks"]}
    assert names == {"residues", "simplex", "triangulation", "bases", "aomoto"}


def test_verify_triangulation_skipped_for_chirotope(capsys, line4_path):
    code, out, _ = invoke(capsys, "verify", "--input", line4_path,
                          "--suite", "triangulation")
    assert code == 0
    doc = json.loads(out)
    assert "skipped" in doc["checks"][0].get("detail", "")


def test_verify_residues_line4(capsys, line4_path):
    code, out, _ = invoke(capsys, "verify", "--input", line4_path,
                          "--suite", "residues")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_roundtrip_byte_identical(tmp_path):
    from omcanon import serialize as ser
    doc = json.loads(ser.dumps_canonical(
        ser.input_to_document(ser.parse_input(line4_doc()))))
    first = ser.dumps_canonical(doc)
    second = ser.dumps_canonical(
        ser.input_to_document(ser.parse_input(json.loads(first))))
    assert first.encode() == second.encode()


def test_validate_env_off(capsys, tmp_path):
    doc = line4_doc()
    doc["chirotope"]["1,3"] = "-"  # invalid, but validation is off
    path = tmp_path / "skip.json"
    path.write_text(json.dumps(doc))
    os.environ["OMCANON_VALIDATE"] = "off"
    try:
        code, out, _ = invoke(capsys, "info", "--input", str(path))
    finally:
        del os.environ["OMCANON_VALIDATE"]
    assert code == 0 and json.loads(out)["rank"] == 2


def run_module(*argv):
    """`python -m omcanon ...` against the package these tests import."""
    src = os.path.dirname(os.path.dirname(omcanon.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    return subprocess.run([sys.executable, "-m", "omcanon", *argv],
                          capture_output=True, text=True, env=env)


def test_module_entry_point(line4_path):
    proc = run_module("info", "--input", line4_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_topes"] == 8


def test_cli_validates_beyond_ten_elements(tmp_path):
    """The constructor validates only up to 10 elements; the CLI always."""
    labels = [str(i) for i in range(11)]
    table = {f"{i},{j}": "+" for i in range(11) for j in range(i + 1, 11)}
    table["1,3"] = "-"  # breaks the three-term relation
    path = tmp_path / "bad11.json"
    path.write_text(json.dumps({"format": "chirotope", "rank": 2,
                                "elements": labels, "chirotope": table}))
    proc = run_module("info", "--input", str(path))
    assert proc.returncode == 2
    assert "three-term" in proc.stderr
    assert "Traceback" not in proc.stderr and not proc.stdout


def test_verify_failure_exits_one(capsys, line4_path, monkeypatch):
    import omcanon.bases as bases_mod
    # force every sampled weight vector to the degenerate sum-zero choice
    monkeypatch.setattr(
        bases_mod, "sample_weight_vectors",
        lambda om, base=None, seed=0, count=5: [{"1": 1, "2": 1, "3": -2}] * 5)
    code, out, _ = invoke(capsys, "verify", "--input", line4_path,
                          "--suite", "aomoto")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert any(not c["passed"] for c in doc["checks"])
