"""The memo registry: one owner of every module-level memo, and a command
stream that reaches a plateau of memo entries in one process."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re

import omcanon
from omcanon import forms, osalg
from omcanon import serialize as ser
from omcanon._memo import cache_sizes, clear_caches
from omcanon.cli import run
from omcanon.om import OrientedMatroid

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(omcanon.__file__)
DEMO_DATA = os.path.join(HERE, os.pardir, "demos", "data")

TABLES = {
    "omcanon.signvec.ground_positions",
    "omcanon.chirotope._mask_index",
    "omcanon.chirotope._keys_through",
    "omcanon.chirotope._minor_slots",
    "omcanon.chirotope._hyperplane_slots",
    "omcanon.osalg._algebra",
    "omcanon.forms.oriented_matroid_for",
    "omcanon.forms._stack",
    "omcanon.forms._top_form",
    "omcanon.forms._canonical_form",
}


def test_every_module_memo_goes_through_the_registry():
    """Only `_memo` makes a memo; the registry names the ten tables, and
    each keeps the lru_cache interface."""
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "_memo.py":
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            text = fh.read()
        assert not re.search(r"lru_cache|functools\.cache\b|"
                             r"from functools import[^\n]*\bcache\b", text), name
    assert set(cache_sizes()) == TABLES
    assert not hasattr(osalg, "_ALGEBRAS")
    info = forms.oriented_matroid_for.cache_info()
    assert info.maxsize is None
    assert forms._top_form.__wrapped__.__name__ == "_top_form"


def test_forms_after_a_clear_live_in_the_new_algebras(pentagon):
    """A clear drops the algebras with the forms, so a form computed after
    it lives in the algebra that `algebra_of` returns after it, and not in
    the one a form from before the clear holds."""
    tope = pentagon.sorted_topes()[0]
    before = omcanon.canonical_form_tope(pentagon, tope)
    clear_caches()
    alg = omcanon.algebra_of(pentagon)
    assert alg is not before.algebra
    after = omcanon.canonical_form_tope(pentagon, tope)
    assert after.algebra is alg and after.terms == before.terms


def _stream() -> list:
    """canonical, basis --grade 1, aomoto and verify --suite all on each
    demo input, as in the cli_stream benchmark workload."""
    commands = []
    for name in sorted(os.listdir(DEMO_DATA)):
        path = os.path.join(DEMO_DATA, name)
        with open(path, encoding="utf-8") as fh:
            parsed = ser.parse_input(json.load(fh))
        om = OrientedMatroid(parsed.chi, validate=False)
        tope = ser.sign_vector_to_str(om.sorted_topes()[0])
        weights = ",".join(f"{k + 1}/{k + 3}"
                           for k in range(len(parsed.chi.ground) - 1))
        commands += [["canonical", "--input", path, f"--tope={tope}"],
                     ["basis", "--input", path, "--grade", "1"],
                     ["aomoto", "--input", path, f"--weights={weights}"],
                     ["verify", "--input", path, "--suite", "all"]]
    return commands


def _outputs(commands: list) -> list:
    """Each command's stdout, verify's wall times dropped."""
    outs = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run(argv) == 0, argv
        doc = json.loads(buf.getvalue())
        for check in doc.get("checks", ()) if argv[0] == "verify" else ():
            del check["seconds"]
        outs.append(ser.dumps_canonical(doc))
    return outs


def test_command_stream_reaches_a_memo_plateau():
    """A second pass of the stream in the same process adds no memo entry;
    after a clear, a third pass prints the same."""
    commands = _stream()
    clear_caches()
    first = _outputs(commands)
    sizes = cache_sizes()
    assert _outputs(commands) == first
    assert cache_sizes() == sizes
    clear_caches()
    assert set(cache_sizes().values()) == {0}
    assert _outputs(commands) == first
    assert cache_sizes() == sizes
