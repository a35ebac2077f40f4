"""JSON wire formats.

Rationals travel as decimal-free strings "p/q" (q > 0, reduced) or "n".
Signs are the characters "+", "-", "0"; sign vectors and chirotope keys
are comma-joined with whitespace ignored, so a label is non-empty, has
no ',' and no surrounding whitespace.  Ascending always means the order
of the document's elements list.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from ._record import Record
from .chirotope import Chirotope
from .osalg import OSElement
from .realization import RationalMatrix, chirotope_from_matrix
from .signvec import SignVector

SIGN_CHARS = {1: "+", 0: "0", -1: "-"}
CHAR_SIGNS = {"+": 1, "0": 0, "-": -1}
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class InputError(ValueError):
    pass


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def rational_to_str(x: int | Fraction) -> str:
    """x as "p/q" or "n"; an int or a Fraction already prints so."""
    return str(x)


def rational_from_str(s) -> Fraction:
    """A rational from "p/q" or "n", surrounding whitespace ignored, or from
    a JSON integer; decimals, exponents and floats are input errors."""
    text = str(s).strip() if isinstance(s, str) or _is_int(s) else ""
    if not _RATIONAL.fullmatch(text):
        raise InputError(f'bad rational {s!r}: expected "p/q" or "n"')
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"bad rational {s!r}: zero denominator") from None
    except ValueError as exc:
        raise InputError(f"bad rational {s!r}: {exc}") from None


def sign_vector_to_str(x: SignVector) -> str:
    return ",".join(SIGN_CHARS[s] for s in x.signs)


def sign_vector_from_str(ground: tuple, s: str) -> SignVector:
    parts = [p.strip() for p in s.split(",")]
    if len(parts) != len(ground):
        raise InputError(
            f"sign vector has {len(parts)} entries, expected {len(ground)}")
    try:
        return SignVector(ground, tuple(CHAR_SIGNS[p] for p in parts))
    except KeyError as exc:
        raise InputError(f"bad sign character {exc.args[0]!r}") from None


class ParsedInput(Record):
    """chi, and the matrix of a matrix input.  A mutable value: equal iff
    both are, unhashable, printed as `ParsedInput(chi=..., matrix=...)`."""

    _fields = ("chi", "matrix")

    def __init__(self, chi: Chirotope, matrix: RationalMatrix | None):
        self.chi = chi
        self.matrix = matrix


def parse_input(doc: dict) -> ParsedInput:
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    fmt = doc.get("format")
    if fmt not in ("chirotope", "matrix"):
        raise InputError('format must be "chirotope" or "matrix"')
    labels = doc.get("elements")
    if isinstance(labels, list) and all(isinstance(e, str) or _is_int(e)
                                        for e in labels):
        labels = tuple(str(e) for e in labels)  # unique after coercion
    if (not isinstance(labels, tuple) or not labels
            or len(set(labels)) != len(labels)):
        raise InputError("elements must be a non-empty list of unique "
                         "string or integer labels")
    for e in labels:
        if not e or "," in e or e != e.strip():
            raise InputError(f"label {e!r} must be non-empty, without ',' "
                             "and without surrounding whitespace")
    if ("chirotope" in doc) == ("matrix" in doc):
        raise InputError("exactly one of chirotope/matrix must be present")

    if fmt == "matrix":
        rows = doc.get("matrix")
        if not isinstance(rows, list) or not rows:
            raise InputError("matrix must be a non-empty list of rows")
        parsed_rows = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(labels):
                raise InputError(f"matrix row {i} must list one entry per element")
            parsed_rows.append([rational_from_str(x) for x in row])
        rank = doc.get("rank", len(rows))
        if not _is_int(rank) or rank < 1:
            raise InputError("rank must be a positive integer")
        if rank != len(rows):
            raise InputError(f"rank {rank} does not match {len(rows)} matrix rows")
        mat = RationalMatrix.from_rows(labels, parsed_rows)
        try:
            chi = chirotope_from_matrix(mat)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        return ParsedInput(chi, mat)

    rank = doc.get("rank")
    if not _is_int(rank) or rank < 1:
        raise InputError("rank must be a positive integer")
    table = doc.get("chirotope")
    if not isinstance(table, dict):
        raise InputError("chirotope must be an object of ascending keys")
    pos = {e: i for i, e in enumerate(labels)}
    values = {}
    for raw_key, raw_sign in table.items():
        parts = tuple(p.strip() for p in str(raw_key).split(","))
        if len(parts) != rank:
            raise InputError(f"key {raw_key!r} must list {rank} elements")
        for p in parts:
            if p not in pos:
                raise InputError(f"key {raw_key!r} names unknown element {p!r}")
        if len(set(parts)) != rank or list(parts) != sorted(parts, key=pos.get):
            raise InputError(f"key {raw_key!r} is not strictly ascending")
        if parts in values:
            raise InputError(f"key {raw_key!r} repeats an earlier key")
        if str(raw_sign) not in CHAR_SIGNS:
            raise InputError(f"bad sign {raw_sign!r} for key {raw_key!r}")
        values[parts] = CHAR_SIGNS[str(raw_sign)]
    # missing keys default to 0; validation reports loops/axiom failures
    chi = Chirotope.from_map(labels, rank, values)
    return ParsedInput(chi, None)


def oselement_to_document(x: OSElement) -> dict:
    terms = {}
    for key in sorted(x.terms, key=x.algebra.key_sort):
        terms[",".join(str(a) for a in key)] = rational_to_str(x.terms[key])
    return {"grade": x.grade, "terms": terms}


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
