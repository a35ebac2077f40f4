"""Command-line surface and verification suites.

`run` is the one place that loads the input, prints the document and sets
the exit code: 0 success, 1 when the document reports `"passed": false`
(only `verify` does), 2 input/validation errors. stdout carries exactly
one JSON document; diagnostics go to stderr. Every input chirotope is
validated exhaustively. Each `cmd_*` builds its command's document from
the parsed arguments, the parsed input and its oriented matroid.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import bases as bases_mod
from . import serialize as ser
from .forms import (_triangulation_sum, algebra_of, canonical_form_tope,
                    check_residue_axioms, nonreduced_canonical_form)
from .om import NotATope, OrientedMatroid
from .realization import _insertion, _place


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key is an input error,
    where json.load would keep its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ser.InputError(f"key {key!r} repeats an earlier key")
        out[key] = value
    return out


def _load(path: str) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ser.InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ser.InputError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ser.InputError(f"{path}: JSON nested too deeply") from None
    parsed = ser.parse_input(doc)
    om = OrientedMatroid(parsed.chi)
    return parsed, om


def cmd_info(args, parsed, om) -> dict:
    alg = algebra_of(om)
    m = om.underlying
    return {
        "rank": om.rank,
        "elements": list(om.ground),
        "atoms": [sorted(a, key=om.ground.index) for a in m.atoms],
        "n_circuits": len(om.circuits),
        "n_cocircuits": len(om.cocircuits),
        "n_topes": len(om.topes),
        "os_dims": [alg.dim(k) for k in range(om.rank + 1)],
        "reduced_dims": [alg.reduced_dim(k) for k in range(om.rank)],
        "beta": m.beta(),
        "tutte": {f"{i},{j}": c for (i, j), c in sorted(m.tutte().items())},
    }


def cmd_canonical(args, parsed, om) -> dict:
    tope = ser.sign_vector_from_str(om.ground, args.tope)
    form = nonreduced_canonical_form if args.nonreduced else canonical_form_tope
    try:
        element = form(om, tope)
    except NotATope:
        nearest = sorted(om.topes, key=lambda t: (
            ((t.plus ^ tope.plus) | (t.minus ^ tope.minus)).bit_count(),
            t.sort_key()))
        names = ", ".join(ser.sign_vector_to_str(t) for t in nearest[:3])
        raise ser.InputError(f"not a tope; nearest topes: {names}") from None
    return ser.oselement_to_document(element)


def cmd_basis(args, parsed, om) -> dict:
    if not 0 <= args.grade <= om.rank - 1:
        raise ser.InputError(f"grade must be in 0..{om.rank - 1}")
    flag = bases_mod.build_flag(om)
    pairs = bases_mod.graded_basis(flag, om.rank - args.grade)
    return {
        "grade": args.grade,
        "basis": [{"tope": ser.sign_vector_to_str(t),
                   "element": ser.oselement_to_document(f)}
                  for t, f in pairs],
    }


def cmd_aomoto(args, parsed, om) -> dict:
    base = args.base if args.base is not None else om.ground[0]
    if base not in om.ground:
        raise ser.InputError(f"unknown base element {base!r}")
    rest = [e for e in om.ground if e != base]
    text = args.weights.strip()  # blank is no weights, not one blank one
    parts = [p.strip() for p in text.split(",")] if text else []
    if len(parts) != len(rest):
        raise ser.InputError(
            f"expected {len(rest)} weights for elements {rest}")
    weights = {e: ser.rational_from_str(p) for e, p in zip(rest, parts)}
    report = bases_mod.aomoto(om, weights, base=base)
    return {
        "dim_H": report.dim_h,
        "beta": report.beta,
        "dim_matches_beta": report.dim_matches_beta,
        "v_spans": report.v_spans,
        "is_generic": report.is_generic,
        "bounded_topes": [ser.sign_vector_to_str(t)
                          for t in report.bounded_topes],
        "basis_images": [ser.oselement_to_document(f)
                         for f in report.basis_forms],
    }


# ---- verification suites ---------------------------------------------------


def _timed(name, fn, checks):
    start = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    entry = {"name": name, "passed": passed,
             "seconds": round(time.perf_counter() - start, 6)}
    if isinstance(detail, str) and detail:
        entry["detail"] = detail
    checks.append(entry)


def _suite_residues(parsed, om, seed, checks):
    for tope in om.sorted_topes():
        def run(t=tope):
            report = check_residue_axioms(om, t)
            bad = [str(a) for a, ok in report.items() if not ok]
            if bad:
                raise AssertionError(f"failing atoms: {bad}")
        _timed(f"residues:{ser.sign_vector_to_str(tope)}", run, checks)


def _suite_simplex(parsed, om, seed, checks):
    def run():
        ext = bases_mod.bounded_extension(om)
        for basis in om.chi.nonzero_keys:
            result = bases_mod.simplex_identity_check(ext, basis)
            if not result["passed"]:
                raise AssertionError(f"basis {basis} fails")
        return f"{len(om.chi.nonzero_keys)} bases checked"
    _timed("simplex:all-bases", run, checks)


def _suite_triangulation(parsed, om, seed, checks):
    if parsed.matrix is None:
        _timed("triangulation",
               lambda: "skipped: requires a matrix realization", checks)
        return
    seen = set()
    topes = [t for t in om.sorted_topes()
             if t not in seen and not seen.update((t, -t))]
    rng = random.Random(seed)
    orders = [list(om.ground)]
    for _ in range(4):
        orders.append(list(om.ground))
        rng.shuffle(orders[-1])

    # a tope's reorientation is acyclic (its all-plus vector is a tope),
    # so each order's one insertion places every tope without an acyclicity
    # test; each distinct triangulation is summed once, in the top grade,
    # where d is injective, against the tope's non-reduced form
    insertions = [(order, _insertion(om.chi, order)) for order in orders]
    for tope in topes:
        def run(t=tope):
            expected = nonreduced_canonical_form(om, t)
            summed = set()
            for order, (places, core) in insertions:
                tri = _place(om.chi, places, core, t.minus)
                key = frozenset(tri)
                if key in summed:
                    continue
                summed.add(key)
                if _triangulation_sum(om.chi, tri, t.minus) != expected:
                    raise AssertionError(f"insertion order {order} disagrees")
        _timed(f"triangulation:{ser.sign_vector_to_str(tope)}", run, checks)


def _suite_bases(parsed, om, seed, checks):
    def run():
        flag = bases_mod.build_flag(om)
        for k in range(1, om.rank + 1):
            # asserts as many forms as the dimension, and full rank
            for _, f in bases_mod.graded_basis(flag, k):
                if not f.is_integral:
                    raise AssertionError("non-integral basis coordinates")
        return f"{om.rank} levels checked"
    _timed("bases:flag-levels", run, checks)


def _suite_aomoto(parsed, om, seed, checks):
    def run():
        samples = bases_mod.sample_weight_vectors(om, seed=seed)
        for weights in samples:
            report = bases_mod.aomoto(om, weights)
            n0, beta = len(report.bounded_topes), report.beta
            if n0 != beta:
                raise AssertionError(f"|T^0| = {n0} but beta = {beta}")
            if report.is_generic:
                return f"generic weights found; dim_H = {report.dim_h}"
        raise AssertionError("no generic weight vector among "
                             f"{len(samples)} samples")
    _timed("aomoto:bounded-basis", run, checks)


_SUITES = {
    "residues": _suite_residues,
    "simplex": _suite_simplex,
    "triangulation": _suite_triangulation,
    "bases": _suite_bases,
    "aomoto": _suite_aomoto,
}


def cmd_verify(args, parsed, om) -> dict:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks: list = []
    for name in names:
        _SUITES[name](parsed, om, args.seed, checks)
    return {"suite": args.suite,
            "passed": all(c["passed"] for c in checks), "checks": checks}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omcanon",
        description="Exact canonical forms of oriented-matroid topes "
                    "in Orlik-Solomon algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="summary invariants of an input")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("canonical", help="canonical form of a tope")
    p.add_argument("--input", required=True)
    p.add_argument("--tope", required=True,
                   help='sign string such as "+,+,-,-"')
    p.add_argument("--nonreduced", action="store_true",
                   help="emit the top-grade form instead of the reduced one")
    p.set_defaults(fn=cmd_canonical)

    p = sub.add_parser("basis", help="canonical-form basis of a reduced grade")
    p.add_argument("--input", required=True)
    p.add_argument("--grade", type=int, required=True)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("aomoto", help="weighted top-degree cohomology report")
    p.add_argument("--input", required=True)
    p.add_argument("--weights", required=True,
                   help='comma list of rationals such as "1,2,-3/2"')
    p.add_argument("--base", default=None)
    p.set_defaults(fn=cmd_aomoto)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--input", required=True)
    p.add_argument("--suite", default="all",
                   choices=["residues", "simplex", "triangulation",
                            "bases", "aomoto", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)
    return parser


_PARSER = build_parser()


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        parsed, om = _load(args.input)
        doc = args.fn(args, parsed, om)
    except ValueError as exc:  # InputError, InvalidChirotope, NotATope too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(ser.dumps_canonical(doc))
    return 1 if doc.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(run())
