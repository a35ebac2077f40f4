"""Golden CLI outputs on the demo inputs, pinned demo stdout, and the
public names.

The stdout of `info`, `canonical` (reduced and --nonreduced, every tope),
`basis` (every grade), `aomoto` and `verify` on each `demos/data/*.json`
and each `tests/data/*.json` (the non-realizable, rank-1 and `q`-labelled
inputs) must match `tests/golden/<input>.json` byte for byte; `verify`'s
timing fields are dropped first.  The stdout of each `demos/<demo>.py`,
run with `-W error`, must match `tests/golden/<demo>.txt`.  Regenerate
both kinds of file (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import omcanon
from omcanon import serialize as ser
from omcanon.cli import run
from omcanon.om import OrientedMatroid

HERE = os.path.dirname(os.path.abspath(__file__))
DEMO_DATA = os.path.join(HERE, os.pardir, "demos", "data")
TEST_DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")
PATHS = {f[:-len(".json")]: os.path.join(DEMO_DATA, f)
         for f in sorted(os.listdir(DEMO_DATA)) if f.endswith(".json")}
PATHS.update((name, os.path.join(TEST_DATA, name + ".json"))
             for name in ("line4_q", "nonpappus", "nonpappus_ext10",
                          "rank1_chirotope", "rank1_matrix"))
INPUTS = sorted(PATHS)
DEMOS = os.path.join(HERE, os.pardir, "demos")
DEMO_NAMES = sorted(f[:-len(".py")] for f in os.listdir(DEMOS)
                    if f.endswith(".py"))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(omcanon.__file__)))


def _stdout(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    assert code == 0, argv
    return buf.getvalue()


def _without_seconds(out: str) -> str:
    doc = json.loads(out)
    for check in doc["checks"]:
        del check["seconds"]
    return ser.dumps_canonical(doc)


def outputs(name: str) -> dict:
    """{command line: stdout} for every golden command on one input."""
    path = PATHS[name]
    with open(path, encoding="utf-8") as fh:
        parsed = ser.parse_input(json.load(fh))
    om = OrientedMatroid(parsed.chi, validate=False)
    rest = parsed.chi.ground[1:]
    weights = ",".join(f"{k + 1}/{k + 3}" for k in range(len(rest)))
    commands = [["info"]]
    for tope in om.sorted_topes():
        t = ser.sign_vector_to_str(tope)
        commands += [["canonical", f"--tope={t}"],
                     ["canonical", f"--tope={t}", "--nonreduced"]]
    commands += [["basis", "--grade", str(k)] for k in range(om.rank)]
    commands += [["aomoto", f"--weights={weights}"], ["verify"]]
    out = {}
    for cmd in commands:
        text = _stdout([cmd[0], "--input", path] + cmd[1:])
        out[" ".join(cmd)] = _without_seconds(text) if cmd[0] == "verify" else text
    return out


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN, name + ".json")


@pytest.mark.parametrize("name", INPUTS)
def test_cli_outputs_match_golden(name):
    with open(_golden_path(name), encoding="utf-8") as fh:
        want = json.load(fh)
    got = outputs(name)
    assert list(got) == list(want)
    for cmd, text in got.items():
        assert text == want[cmd], f"{name}: {cmd}"


def demo_stdout(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-W", "error", os.path.join(DEMOS, name + ".py")],
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": "utf-8"},
        capture_output=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _demo_pin(name: str) -> str:
    return os.path.join(GOLDEN, name + ".txt")


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_stdout_matches_pin(name):
    with open(_demo_pin(name), encoding="utf-8") as fh:
        assert demo_stdout(name) == fh.read()


PUBLIC_NAMES = [
    "AomotoReport", "Chirotope", "Extension", "Flag", "FlagStage",
    "InvalidChirotope", "LinearMap", "NotATope", "OSAlgebra", "OSElement",
    "OrientedMatroid", "RationalMatrix", "SignVector", "UnderlyingMatroid",
    "acyclicity_witness", "algebra_of", "aomoto", "aomoto_degree_ranks",
    "bounded_extension", "build_flag", "canonical_form_from_triangulation",
    "canonical_form_om", "canonical_form_tope", "chamber_of",
    "check_residue_axioms", "chirotope_diagnostic", "chirotope_from_matrix",
    "expand_in_basis", "graded_basis", "interior_point",
    "nonreduced_canonical_form", "nonreduced_from_triangulation",
    "oriented_matroid_for", "os_algebra_for", "perturbation_signature",
    "placing_triangulation", "sample_weight_vectors",
    "simplex_identity_check", "structure_constants", "transport_to_base",
    "tq_basis", "tutte_eval", "validate_chirotope",
]


def test_public_names_unchanged():
    """The output contract keeps `omcanon.__all__` as it is, in order, and
    every name in it importable."""
    assert len(PUBLIC_NAMES) == 43
    assert omcanon.__all__ == PUBLIC_NAMES
    assert all(hasattr(omcanon, name) for name in PUBLIC_NAMES)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name in INPUTS:
        with open(_golden_path(name), "w", encoding="utf-8") as fh:
            json.dump(outputs(name), fh, indent=1)
            fh.write("\n")
        print(f"wrote {_golden_path(name)}", file=sys.stderr)
    for name in DEMO_NAMES:
        with open(_demo_pin(name), "w", encoding="utf-8") as fh:
            fh.write(demo_stdout(name))
        print(f"wrote {_demo_pin(name)}", file=sys.stderr)
