import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omcanon
from omcanon import forms
from omcanon import om as om_module
from omcanon import serialize as ser
from omcanon._memo import clear_caches
from omcanon.cli import run

import label_walk
from conftest import PENTAGON_ROWS, count_bounded_topes, nonpappus_chirotope
from tuple_signvec import SignVector as TupleSignVector


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


def test_console_script_runs_the_cli(capsys, monkeypatch):
    """The `omcanon` command that pyproject.toml installs reads sys.argv
    and matches `run` on the same arguments, stdout and exit code."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["omcanon"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    argv = ["info", "--input", os.path.join(root, "demos", "data",
                                            "line4.json")]
    monkeypatch.setattr(sys, "argv", ["omcanon", *argv])
    got = entry(), capsys.readouterr().out
    assert got == invoke(capsys, *argv)[:2]
    assert got[0] == 0 and json.loads(got[1])["n_topes"] == 8


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


@pytest.mark.parametrize("tope, nearest", [
    ("+,-,+,-,+", "+,+,+,-,+, +,-,+,+,+, -,-,+,-,+"),
    ("0,+,-,+,0", "+,+,-,+,+, +,+,-,+,-, +,+,+,+,+"),
])
def test_canonical_not_a_tope_diagnostic(capsys, pentagon_path, tope, nearest):
    """The nearest topes are those at least Hamming distance, ties broken
    by sort_key; checked against the tuple-based sign vectors too."""
    code, out, err = invoke(capsys, "canonical", "--input", pentagon_path,
                            "--tope", tope)
    assert code == 2 and out == ""
    assert err == f"error: not a tope; nearest topes: {nearest}\n"
    om = omcanon.OrientedMatroid(ser.parse_input(pentagon_doc()).chi)
    x = TupleSignVector(om.ground,
                        ser.sign_vector_from_str(om.ground, tope).signs)
    ranked = sorted((TupleSignVector(om.ground, t.signs) for t in om.topes),
                    key=lambda t: (sum(a != b for a, b in zip(t.signs, x.signs)),
                                   t.sort_key()))
    assert nearest == ", ".join(
        ",".join("+0-"[1 - s] for s in t.signs) for t in ranked[:3])


@pytest.mark.parametrize("flags", [[], ["--nonreduced"]])
@pytest.mark.parametrize("tope, expected", [("+,+,-,-", 0), ("+,-,+,-", 2),
                                            ("-,-,+,+", 0), ("-,+,-,+", 2)])
def test_canonical_checks_the_tope_once(capsys, monkeypatch, line4_path,
                                        flags, tope, expected):
    """`canonical` asks whether its vector is a tope once, in the form's own
    table read: with the form memos empty, one `om._conformal_rows` call
    (in `forms._facet_targets`) and no `is_tope` call, for a tope and for
    a non-tope, read at their own minus mask or, position 0 minus, at the
    complement's."""
    calls, gates = [], []
    rows, is_tope = om_module._conformal_rows, omcanon.OrientedMatroid.is_tope

    def counting(*args):
        calls.append(args)
        return rows(*args)

    def gate(self, *args):
        gates.append(args)
        return is_tope(self, *args)
    for module in (om_module, forms):
        monkeypatch.setattr(module, "_conformal_rows", counting)
    monkeypatch.setattr(omcanon.OrientedMatroid, "is_tope", gate)
    clear_caches()
    code, _, _ = invoke(capsys, "canonical", "--input", line4_path,
                        f"--tope={tope}", *flags)
    assert code == expected
    assert len(calls) == 1 and not gates


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


def test_aomoto_one_element_takes_blank_weights(capsys, tmp_path):
    """With one element there is nothing to weigh: a blank --weights is the
    empty weight list, and the document is the library's report."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"format": "chirotope", "rank": 1,
                                "elements": ["a"], "chirotope": {"a": "+"}}))
    code, out, err = invoke(capsys, "aomoto", "--input", str(path),
                            "--weights", "")
    assert (code, err) == (0, "")
    om = omcanon.OrientedMatroid(omcanon.Chirotope(("a",), 1, (1,)))
    report = omcanon.aomoto(om, {})
    assert json.loads(out) == {
        "dim_H": report.dim_h, "beta": report.beta,
        "dim_matches_beta": report.dim_matches_beta,
        "v_spans": report.v_spans, "is_generic": report.is_generic,
        "bounded_topes": [ser.sign_vector_to_str(t)
                          for t in report.bounded_topes],
        "basis_images": [ser.oselement_to_document(f)
                         for f in report.basis_forms]}
    assert (report.dim_h, report.is_generic) == (1, True)


@pytest.mark.parametrize("weight", ["1.5", "1e5", "1e100000000", "0x1", "",
                                    "1/0", "- 1", "1/-2"])
def test_aomoto_rejects_non_rational_weights(capsys, line4_path, weight):
    """Weights are "p/q" or "n" only; anything else exits 2 at once."""
    code, out, err = invoke(capsys, "aomoto", "--input", line4_path,
                            "--weights", f"1,{weight},1")
    assert code == 2 and not out
    assert err.startswith(f"error: bad rational {weight!r}")


@pytest.mark.parametrize("entry", ["1/0", "-3/00"])
def test_zero_denominator_is_named(capsys, tmp_path, line4_path, entry):
    """A zero denominator is named in words, as a weight and as a matrix
    entry, not by the repr of the Fraction that could not be made."""
    line = f"error: bad rational {entry!r}: zero denominator\n"
    code, out, err = invoke(capsys, "aomoto", "--input", line4_path,
                            "--weights", f"1,{entry},1")
    assert (code, out, err) == (2, "", line)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_with_entry(pentagon_doc(), entry)))
    code, out, err = invoke(capsys, "info", "--input", str(path))
    assert (code, out, err) == (2, "", line)


def test_rationals_in_documented_forms(capsys, line4_path):
    code, out, _ = invoke(capsys, "aomoto", "--input", line4_path,
                          "--weights", " +1 ,-2/3, 4/2")
    assert code == 0 and json.loads(out)["is_generic"] is True


@pytest.mark.parametrize("value, text", [
    (3, "3"), (Fraction(3), "3"), (Fraction(6, 2), "3"),
    (-3, "-3"), (Fraction(-3), "-3"), (Fraction(-3, 2), "-3/2"),
    (Fraction(3, -2), "-3/2"), (0, "0")])
def test_rational_to_str(value, text):
    assert ser.rational_to_str(value) == text


def test_verify_all_pentagon(capsys, pentagon_path):
    code, out, _ = invoke(capsys, "verify", "--input", pentagon_path,
                          "--suite", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all("seconds" in c for c in doc["checks"])
    names = {c["name"].split(":")[0] for c in doc["checks"]}
    assert names == {"residues", "simplex", "triangulation", "bases", "aomoto"}


def test_verify_aomoto_computes_bounded_topes_once(capsys, pentagon_path,
                                                  monkeypatch):
    """The suite reads |T^0| and beta from the report it already has."""
    counts = count_bounded_topes(monkeypatch)
    code, out, _ = invoke(capsys, "verify", "--input", pentagon_path,
                          "--suite", "aomoto")
    assert code == 0 and json.loads(out)["passed"] is True
    assert counts == {"om": 1, "ext": 0}


def test_verify_triangulation_makes_no_acyclicity_test(
        capsys, pentagon, pentagon_path, monkeypatch):
    """A tope's reorientation is acyclic, so the suite places it under every
    insertion order without testing it."""
    calls = []
    original = omcanon.om.is_acyclic

    def counting(chi):
        calls.append(chi)
        return original(chi)
    for module in (omcanon.om, omcanon.realization):
        monkeypatch.setattr(module, "is_acyclic", counting)
    monkeypatch.setattr(omcanon.cli, "is_acyclic", counting, raising=False)
    assert pentagon.is_acyclic() and calls  # the counter sees calls
    calls.clear()
    code, out, _ = invoke(capsys, "verify", "--input", pentagon_path,
                          "--suite", "triangulation")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 11  # 22 topes, one of each pair -t, t
    assert calls == []


@pytest.mark.parametrize("faulty, named", [
    ("every order", ['1', '2', '3', '4', '5']),
    ("the shuffles", ['3', '2', '1', '5', '4'])], ids=["all", "shuffles"])
def test_verify_triangulation_fails_on_a_dropped_simplex(
        capsys, pentagon_path, monkeypatch, faulty, named):
    """A placing that loses a simplex, under every insertion order or only
    under the seeded shuffles, fails every tope's check at the first
    order it spoils: deduplication skips only triangulations already
    summed.  Exit 1, `"passed": false`."""
    place = omcanon.cli._place

    def dropping(chi, places, core, m):
        tri = place(chi, places, core, m)
        if faulty == "the shuffles" and places == list(range(len(chi.ground))):
            return tri
        return tri[:-1]
    monkeypatch.setattr(omcanon.cli, "_place", dropping)
    code, out, _ = invoke(capsys, "verify", "--input", pentagon_path,
                          "--suite", "triangulation")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False and len(doc["checks"]) == 11
    for check in doc["checks"]:
        assert check["passed"] is False
        assert check["detail"] == (f"AssertionError: insertion order "
                                   f"{named} disagrees")


@pytest.mark.parametrize("suite", ["triangulation", "all"])
def test_verify_rank1_matrix(capsys, tmp_path, suite):
    """A rank-1 matrix places its one simplex; the document is pinned,
    timings aside."""
    path = tmp_path / "rank1.json"
    path.write_text(json.dumps({"format": "matrix", "rank": 1,
                                "elements": ["a", "b"],
                                "matrix": [["1", "2"]]}))
    code, out, _ = invoke(capsys, "verify", "--input", str(path),
                          "--suite", suite)
    doc = json.loads(out)
    for check in doc["checks"]:
        del check["seconds"]
    checks = [{"name": "triangulation:+,+", "passed": True}]
    if suite == "all":
        checks = [
            {"name": "residues:+,+", "passed": True},
            {"name": "residues:-,-", "passed": True},
            {"name": "simplex:all-bases", "passed": True,
             "detail": "2 bases checked"},
            *checks,
            {"name": "bases:flag-levels", "passed": True,
             "detail": "1 levels checked"},
            {"name": "aomoto:bounded-basis", "passed": True,
             "detail": "generic weights found; dim_H = 1"}]
    assert code == 0
    assert doc == {"suite": suite, "passed": True, "checks": checks}


def test_verify_triangulation_skipped_for_chirotope(capsys, line4_path):
    code, out, _ = invoke(capsys, "verify", "--input", line4_path,
                          "--suite", "triangulation")
    assert code == 0
    doc = json.loads(out)
    assert "skipped" in doc["checks"][0].get("detail", "")
    check, = doc["checks"]  # an entry like every other, from `_timed`
    assert sorted(check) == ["detail", "name", "passed", "seconds"]
    assert check["name"] == "triangulation" and check["passed"] is True


def test_verify_simplex_times_its_extension(capsys, pentagon_path,
                                            monkeypatch):
    """The simplex suite builds its extension inside its timed check, so
    the build counts in that check's seconds and its failure is that
    check's failure."""
    def failing(om, base=None):
        raise RuntimeError("no perturbation")
    monkeypatch.setattr(omcanon.bases, "bounded_extension", failing)
    code, out, _ = invoke(capsys, "verify", "--input", pentagon_path,
                          "--suite", "simplex")
    assert code == 1
    check, = json.loads(out)["checks"]
    assert check["name"] == "simplex:all-bases" and check["passed"] is False
    assert check["detail"] == "RuntimeError: no perturbation"


def test_verify_residues_line4(capsys, line4_path):
    code, out, _ = invoke(capsys, "verify", "--input", line4_path,
                          "--suite", "residues")
    assert code == 0
    assert json.loads(out)["passed"] is True


HERE = os.path.dirname(os.path.abspath(__file__))
DEMO_DATA = os.path.join(HERE, os.pardir, "demos", "data")
DATA_FILES = [os.path.join(DEMO_DATA, f) for f in sorted(os.listdir(DEMO_DATA))
              if f.endswith(".json")] + [
                  os.path.join(HERE, "data", f)
                  for f in ("nonpappus.json", "nonpappus_ext10.json")]


@pytest.mark.parametrize("path", DATA_FILES, ids=os.path.basename)
def test_info_counts_agree(capsys, path):
    """info's n_topes = sum(os_dims) = 2 * sum(reduced_dims) = T(2, 0)."""
    code, out, _ = invoke(capsys, "info", "--input", path)
    assert code == 0
    doc = json.loads(out)
    t20 = sum(c * 2 ** int(key.split(",")[0])
              for key, c in doc["tutte"].items() if key.split(",")[1] == "0")
    assert (doc["n_topes"] == sum(doc["os_dims"])
            == 2 * sum(doc["reduced_dims"]) == t20)


@pytest.mark.parametrize("name", ["rank1_matrix", "rank1_chirotope"])
def test_verify_all_rank1(capsys, name):
    """Rank 1 has no facet contraction to recurse into: the residue suite
    checks the single atom against the base value instead."""
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.json")
    code, out, _ = invoke(capsys, "verify", "--input", path, "--suite", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and all(c["passed"] for c in doc["checks"])
    residues = [c for c in doc["checks"] if c["name"].startswith("residues:")]
    assert len(residues) == 2


def test_nonpappus_data_file():
    """The non-realizable input that CI runs `verify` on is the non-Pappus
    chirotope of the fixtures, with its labels as strings."""
    path = os.path.join(os.path.dirname(__file__), "data", "nonpappus.json")
    with open(path) as fh:
        parsed = ser.parse_input(json.load(fh))
    chi = nonpappus_chirotope()
    assert parsed.matrix is None
    assert parsed.chi == omcanon.Chirotope(
        tuple(str(e) for e in chi.ground), chi.rank, chi.signs)


def test_nonpappus_extension_data_file():
    """The second non-realizable CI input is the lex extension of the first
    by [6^+, 7^-, 0^+], as the label walk computes it."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "nonpappus_ext10.json")
    with open(path) as fh:
        parsed = ser.parse_input(json.load(fh))
    chi = nonpappus_chirotope()
    om = omcanon.OrientedMatroid(omcanon.Chirotope(
        tuple(str(e) for e in chi.ground), chi.rank, chi.signs))
    assert parsed.matrix is None
    assert parsed.chi == label_walk.lex_extension(
        om, (("6", 1), ("7", -1), ("0", 1)), label="9")


def _without_seconds(doc):
    if isinstance(doc, dict):
        return {k: _without_seconds(v) for k, v in doc.items()
                if k != "seconds"}
    if isinstance(doc, list):
        return [_without_seconds(v) for v in doc]
    return doc


def _relabel_keys(doc, old, new):
    """doc with the label old read as new in every comma-separated key."""
    if isinstance(doc, dict):
        return {",".join(new if e == old else e for e in k.split(",")):
                _relabel_keys(v, old, new) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_relabel_keys(v, old, new) for v in doc]
    return doc


def test_element_labelled_q(capsys):
    """An element may be called q, the default label of an extension:
    line4 with 3 renamed q gives line4's outputs with 3 read as q."""
    line4 = os.path.join(DEMO_DATA, "line4.json")
    renamed = os.path.join(HERE, "data", "line4_q.json")
    for argv in (["basis", "--grade", "0"], ["basis", "--grade", "1"],
                 ["aomoto", "--weights", "1,2,3"], ["verify", "--suite", "all"]):
        code, out, _ = invoke(capsys, *argv, "--input", line4)
        assert code == 0
        expected = ser.dumps_canonical(
            _relabel_keys(_without_seconds(json.loads(out)), "3", "q"))
        code, out, err = invoke(capsys, *argv, "--input", renamed)
        assert code == 0, err
        assert ser.dumps_canonical(_without_seconds(json.loads(out))) == expected


def input_to_document(parsed: ser.ParsedInput) -> dict:
    """The input document of a parsed input, in canonical form."""
    chi = parsed.chi
    if parsed.matrix is not None:
        return {
            "format": "matrix",
            "rank": chi.rank,
            "elements": list(chi.ground),
            "matrix": [[ser.rational_to_str(x) for x in row]
                       for row in parsed.matrix.rows],
        }
    table = {}
    for key in combinations(chi.ground, chi.rank):
        table[",".join(key)] = ser.SIGN_CHARS[chi.value(key)]
    return {
        "format": "chirotope",
        "rank": chi.rank,
        "elements": list(chi.ground),
        "chirotope": table,
    }


def test_roundtrip_byte_identical():
    for source in (line4_doc(), pentagon_doc()):
        doc = json.loads(ser.dumps_canonical(
            input_to_document(ser.parse_input(source))))
        first = ser.dumps_canonical(doc)
        second = ser.dumps_canonical(
            input_to_document(ser.parse_input(json.loads(first))))
        assert first.encode() == second.encode()


def test_validate_env_var_is_ignored(capsys, tmp_path, monkeypatch):
    """Validation has no switch: with the OMCANON_VALIDATE=off of earlier
    versions set, an invalid chirotope still exits 2."""
    doc = line4_doc()
    doc["chirotope"]["1,3"] = "-"  # breaks the three-term relation
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("OMCANON_VALIDATE", "off")
    code, out, err = invoke(capsys, "info", "--input", str(path))
    assert code == 2 and "three-term" in err and not out


def run_module(*argv, **extra_env):
    """`python -m omcanon ...` against the package these tests import."""
    src = os.path.dirname(os.path.dirname(omcanon.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **extra_env,
               PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    return subprocess.run([sys.executable, "-m", "omcanon", *argv],
                          capture_output=True, text=True, env=env)


def test_module_entry_point(line4_path):
    proc = run_module("info", "--input", line4_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_topes"] == 8


@pytest.mark.parametrize("first, second", [
    (["canonical", "--tope=+,+,-,-", "--nonreduced"],
     ["canonical", "--tope=+,+,-,-"]),
    (["aomoto", "--weights=1,2,3", "--base=2"],
     ["aomoto", "--weights=1,2,3"]),
    (["verify", "--suite=residues"], ["verify"]),
], ids=["canonical", "aomoto", "verify"])
def test_shared_parser_keeps_defaults(capsys, line4_path, first, second):
    """`run` parses every command line with one parser per process: an
    option given on one line does not carry over to the next, which prints
    what a fresh `python -m omcanon` prints for it."""
    for argv in (first, second):
        argv = [argv[0], "--input", line4_path] + argv[1:]
        code, out, _ = invoke(capsys, *argv)
        proc = run_module(*argv)
        assert code == proc.returncode == 0
        assert (_without_seconds(json.loads(out))
                == _without_seconds(json.loads(proc.stdout)))


def test_basis_takes_no_seed(line4_path):
    """`basis` builds one extension and draws nothing at random, so a seed
    is an unrecognized argument: exit 2 with argparse's usage line."""
    proc = run_module("basis", "--input", line4_path, "--grade", "1",
                      "--seed", "0")
    assert proc.returncode == 2 and not proc.stdout
    usage, error = proc.stderr.splitlines()
    assert usage.startswith("usage: omcanon ")
    assert error == "omcanon: error: unrecognized arguments: --seed 0"


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


def test_validation_diagnostic_independent_of_hash_seed(tmp_path):
    """The failing exchange element is reported in ground order; these two
    hash seeds once named different elements."""
    path = tmp_path / "exchange.json"
    path.write_text(json.dumps({"format": "chirotope", "rank": 2,
                                "elements": ["a", "b", "c", "d"],
                                "chirotope": {"a,b": "+", "c,d": "+"}}))
    procs = [run_module("info", "--input", str(path), PYTHONHASHSEED=seed)
             for seed in ("1", "2")]
    assert [p.returncode for p in procs] == [2, 2]
    assert procs[0].stderr == procs[1].stderr
    assert "basis exchange fails" in procs[0].stderr and "at a" in procs[0].stderr


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
    # the detail names the number of samples drawn, not the default count
    monkeypatch.setattr(
        bases_mod, "sample_weight_vectors",
        lambda om, base=None, seed=0, count=5: [{"1": 1, "2": 1, "3": -2}] * 3)
    code, out, _ = invoke(capsys, "verify", "--input", line4_path,
                          "--suite", "aomoto")
    check, = json.loads(out)["checks"]
    assert (code, check["detail"]) == (
        1, "AssertionError: no generic weight vector among 3 samples")


def _with(doc, **changes):
    return dict(doc, **changes)


def _with_entry(doc, entry):
    """doc with its first matrix entry replaced."""
    rows = [list(row) for row in doc["matrix"]]
    rows[0][0] = entry
    return dict(doc, matrix=rows)


def _repeated_chirotope_key(doc) -> str:
    """doc as JSON text whose chirotope lists "0,1" twice, "-" first; a
    loader that keeps the last value sees a valid document."""
    return json.dumps(doc).replace('"chirotope": {',
                                   '"chirotope": {"0,1": "-", ', 1)


@pytest.mark.parametrize("doc, message", [
    (_with(line4_doc(), elements=[0, "0", 2, 3]), "unique"),
    (_with(line4_doc(), elements=["0", ["1"], "2", "3"]), "labels"),
    (_with(line4_doc(), elements=[0, 1, 2, True]), "labels"),
    (_with(line4_doc(), rank=True), "rank must be a positive integer"),
    (_with(pentagon_doc(), rank=True), "rank must be a positive integer"),
    (_with(pentagon_doc(), rank=2), "rank 2 does not match 3 matrix rows"),
    (_with(pentagon_doc(), rank=4,
           matrix=[["0"] + [str(x) for x in row[1:]] for row in PENTAGON_ROWS]),
     "rank 4 does not match 3 matrix rows"),
    (_with(pentagon_doc(), elements=["a,b", "2", "3", "4", "5"]),
     "label 'a,b' must be non-empty, without ','"),
    ({"format": "chirotope", "rank": 1, "elements": [" a", "b"],
      "chirotope": {" a": "+", "b": "-"}},
     "label ' a' must be non-empty, without ','"),
    (_with(line4_doc(), elements=["0", "1", "2", "3 "]), "label '3 '"),
    (_with(line4_doc(), elements=["", "1", "2", "3"]), "label ''"),
    (_with(line4_doc(), chirotope=dict(line4_doc()["chirotope"],
                                       **{"0, 1": "-"})),
     "key '0, 1' repeats an earlier key"),
    (_repeated_chirotope_key(line4_doc()), "key '0,1' repeats an earlier key"),
    ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply"),
    (_with_entry(pentagon_doc(), "1.5"), "bad rational '1.5'"),
    (_with_entry(pentagon_doc(), "1e5"), "bad rational '1e5'"),
    (_with_entry(pentagon_doc(), "1e100000000"), "bad rational '1e100000000'"),
    (_with_entry(pentagon_doc(), 1.5), "bad rational 1.5"),
    (_with_entry(pentagon_doc(), True), "bad rational True"),
    (_with_entry(pentagon_doc(), "1/0"), "bad rational '1/0'"),
], ids=["int_and_str_label", "list_label", "bool_label", "bool_rank",
        "bool_rank_matrix", "rank_below_rows", "rank_above_rows_zero_column",
        "comma_label", "leading_space_label", "trailing_space_label",
        "empty_label", "repeated_key", "verbatim_repeated_key",
        "deeply_nested", "decimal_entry", "exponent_entry",
        "huge_exponent_entry", "float_entry", "bool_entry", "zero_denominator"])
def test_malformed_documents_exit_two(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = invoke(capsys, "info", "--input", str(path))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


# ---- fuzzing `info` with small JSON documents -------------------------------

_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
            | st.floats(allow_nan=False, allow_infinity=False, width=16)
            | st.sampled_from(["", "0", "1", "-1", "2/3", "1/0", "1.5", "+",
                               "-", "0,1", "1, 2", "a", "chirotope",
                               "matrix"]))
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.sampled_from(
                      ["format", "rank", "elements", "chirotope", "matrix",
                       "0,1", "1,2", "0,2", "a"]), kids, max_size=4)),
    max_leaves=12)
_LABELS = st.lists(st.sampled_from(["0", "1", "2", "3", "a", 4, " b", "1,2"]),
                   min_size=1, max_size=5)
_SIGNS = st.sampled_from(["+", "-", "0", "*", 1])
_CHIROTOPE_DOCS = st.fixed_dictionaries({
    "format": st.just("chirotope"), "rank": st.integers(0, 3),
    "elements": _LABELS,
    "chirotope": st.dictionaries(
        st.sampled_from(["0", "1", "0,1", "0,2", "1,2", "0,3", "1,3", "2,3",
                         "2,1", "0,1,2", "0,1,3", "a,0"]), _SIGNS,
        max_size=6)})
_ENTRIES = st.sampled_from(["0", "1", "-1", "2", "1/2", 3, "x"])
_MATRIX_DOCS = st.integers(1, 5).flatmap(lambda n: st.fixed_dictionaries(
    {"format": st.just("matrix"),
     "elements": st.just([str(i) for i in range(n)]) | _LABELS,
     "matrix": st.lists(st.lists(_ENTRIES, min_size=n, max_size=n)
                        | st.lists(_ENTRIES, max_size=5),
                        min_size=1, max_size=3)},
    optional={"rank": st.integers(0, 4)}))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_VALUES, _CHIROTOPE_DOCS, _MATRIX_DOCS))
def test_info_fuzz_never_raises(tmp_path_factory, doc):
    """Any small JSON document ends `info` with exit 0, 1 or 2: one JSON
    document on stdout, or one diagnostic line on stderr, never a
    traceback."""
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["info", "--input", str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        assert json.loads(out.getvalue())["elements"]
    else:
        assert not out.getvalue()
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def _weighted(*branches):
    """Draw from the (weight, strategy) branches in proportion to weight;
    shrinking moves towards the first branch."""
    return st.sampled_from([s for w, s in branches for _ in range(w)]).flatmap(
        lambda s: s)


# The valid documents and arguments fitting the document's element count
# are drawn most of the time, so that exits 0 and 1 are exercised and not
# only the error path.
_SIGN_WORDS = st.sampled_from(["+", "-"])
_WEIGHT_WORDS = st.sampled_from(["1", "-1", "2/3", "-3/2", "2"])


def _commands(n: int):
    """Subcommand argument lists for a document with n elements."""
    topes = _weighted(
        (4, st.lists(_SIGN_WORDS, min_size=n, max_size=n)),
        (1, st.lists(_SIGN_WORDS, min_size=4, max_size=5)),
        (1, st.lists(st.sampled_from(["+", "-", "0", "1", "*", ""]),
                     max_size=6))).map(",".join)
    weights = _weighted(
        (4, st.lists(_WEIGHT_WORDS, min_size=n - 1, max_size=n - 1)),
        (1, st.lists(_WEIGHT_WORDS, min_size=3, max_size=5)),
        (1, st.lists(st.sampled_from(["1", "0", "1/0", "x", ""]),
                     max_size=6))).map(",".join)
    bases = _weighted((4, st.none()),
                      (1, st.sampled_from(["0", "1", "3", "5", "a", ""])))
    grades = _weighted((4, st.integers(0, 1)), (1, st.integers(-1, 4)))
    return st.one_of(
        st.tuples(topes, st.booleans()).map(
            lambda t: ["canonical", f"--tope={t[0]}"]
            + ["--nonreduced"] * t[1]),
        grades.map(lambda g: ["basis", f"--grade={g}"]),
        st.tuples(weights, bases).map(
            lambda t: ["aomoto", f"--weights={t[0]}"]
            + ([] if t[1] is None else [f"--base={t[1]}"])),
        st.sampled_from(["residues", "simplex", "triangulation", "bases",
                         "aomoto", "all"]).map(
            lambda s: ["verify", f"--suite={s}"]))


_DOCS_AND_COMMANDS = _weighted(
    (6, st.sampled_from([line4_doc(), pentagon_doc()])),
    (1, _CHIROTOPE_DOCS | _MATRIX_DOCS)).flatmap(
    lambda doc: st.tuples(st.just(doc), _commands(len(doc["elements"]))))


@settings(max_examples=40, deadline=None)
@given(_DOCS_AND_COMMANDS)
def test_subcommand_fuzz_never_raises(tmp_path_factory, doc_and_command):
    """canonical, basis, aomoto and verify on small documents with drawn
    arguments end with exit 0, 1 or 2: JSON on stdout, or one diagnostic
    line on stderr, never a traceback. Exit 1 means exactly that the
    document reports `"passed": false`."""
    doc, command = doc_and_command
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([command[0], "--input", str(path)] + command[1:])
    assert code in (0, 1, 2)
    if code == 2:
        assert not out.getvalue()
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        doc = json.loads(out.getvalue())
        assert code == (1 if doc.get("passed") is False else 0)
        assert "Traceback" not in err.getvalue()
