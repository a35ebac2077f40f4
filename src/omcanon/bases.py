"""Canonical-form bases, truncation flags, structure constants, and the
Aomoto complex with its bounded-tope cohomology basis."""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from ._record import FrozenRecord, Record
from .chirotope import _earliest_basis, _mask
from .forms import algebra_of, canonical_form_tope
from .om import Extension, OrientedMatroid
from .osalg import OSAlgebra, OSElement, _coeff
from .signvec import SignVector, _position, ground_positions


def perturbation_signature(om: OrientedMatroid, base=None) -> tuple:
    """(base, +) then the lexicographically smallest basis completion, signed -.

    Realizes a general perturbation of the base element on every input:
    see `bounded_extension` and `Flag` for why its extension keeps
    the 0-bounded topes bounded and is always general.
    """
    base = om.ground[0] if base is None else base
    rest = [e for e in om.ground if e != base]
    chosen = _earliest_basis(om.chi, [base] + rest)
    return ((base, 1),) + tuple((e, -1) for e in chosen[1:])


def _perturbation(om: OrientedMatroid, base=None) -> Extension:
    """The extension by the perturbation signature of base, labelled q,
    primed until it is not in the ground set."""
    label = "q"
    while label in om.ground:
        label += "'"
    return om.lex_extension(perturbation_signature(om, base), label)


def bounded_extension(om: OrientedMatroid, base=None) -> Extension:
    """A general perturbation of base with T^0 contained in T^ext.

    The extension by the perturbation signature always qualifies.  Its
    first element is (base, +), so every covector Z of M u q with
    Z(base) != 0 has Z(q) = Z(base) (Bjoerner et al., Oriented Matroids,
    7.2).  Every nonzero face of a T^0 tope P is positive at base, so
    (P, +) is a tope of M u q bounded at q.  The inclusion is still
    asserted at runtime, and a failure is an error, never silent.
    """
    base = om.ground[0] if base is None else base
    t0 = om.bounded_topes(base)
    ext = _perturbation(om, base)
    if not t0 <= ext.bounded_topes():
        raise RuntimeError(f"no perturbation of {base!r} kept the bounded "
                           "topes bounded")
    return ext


def tq_basis(ext: Extension) -> list:
    """[(tope, form)] over the topes of ext.base bounded at q, checked to
    be a basis: `graded_basis`'s level 1, on ext alone."""
    return _bounded_basis(ext, algebra_of(ext.base), 1)


def simplex_identity_check(ext: Extension, basis) -> dict:
    """Both sides of the simplex expansion over a basis B of ext.base.

    Left: (-1)^(|C^-|-1) chi(B) d e_B for the fundamental circuit C of
    B u q.  Right: the sum of the canonical forms of the topes agreeing
    with C on B.  Returns {"passed": bool, "lhs": ..., "rhs": ...}.
    """
    om = ext.base
    alg = algebra_of(om)
    circuit = ext.fundamental_circuit(basis)  # rejects unknown labels
    pos = ground_positions(om.ground)
    basis = tuple(sorted(basis, key=pos.get))
    sign = (-1) ** (circuit.minus.bit_count() - 1)
    lhs = alg.boundary(alg.monomial(basis)).scale(sign * om.chi.value(basis))
    # the extended ground is om's with q last, so positions agree on B
    on_b = _mask(pos[e] for e in basis)
    signs = (circuit.plus & on_b, circuit.minus & on_b)
    members = [t for t in om.topes if (t.plus & on_b, t.minus & on_b) == signs]
    rhs = alg.combination(om.rank - 1, (
        term for t in members
        for term in canonical_form_tope(om, t).terms.items()))
    return {"passed": lhs == rhs, "lhs": lhs, "rhs": rhs,
            "topes": sorted(members, key=SignVector.sort_key)}


class FlagStage(FrozenRecord):
    """A frozen value over ext alone: equal iff ext is, hashed by it, printed
    as `FlagStage(ext=...)`, AttributeError on assignment or deletion."""

    _fields = ("ext",)

    def __init__(self, ext: Extension):
        self.__dict__.update(ext=ext)

    @property
    def om(self) -> OrientedMatroid:
        return self.ext.base


class Flag(FrozenRecord):
    """The general truncations of om down to rank 1: `stages`, derived,
    holds a FlagStage per rank r, ..., 1, stage 0 over om and each later
    one over the contraction of the previous extension by its q, on om's
    ground set (checked).  Each extension is by the perturbation signature,
    always general: an independent (r-1)-set K misses some b of its basis
    with K + b a basis, so the cascade is never 0 on K (and `Extension`
    re-checks).  A frozen value over om alone: equal iff om is (by
    identity), hashed by it, printed as `Flag(om=...)`, AttributeError on
    assignment or deletion."""

    _fields = ("om",)

    def __init__(self, om: OrientedMatroid):
        stages, current = [], om
        for _ in range(om.rank):
            ext = _perturbation(current)
            stages.append(FlagStage(ext))
            if current.rank > 1:
                current = ext.om_ext.contract(ext.label)
                if current.ground != om.ground:
                    raise RuntimeError("internal invariant violation: "
                                       "truncation changed the ground set")
        self.__dict__.update(om=om, stages=tuple(stages))


def build_flag(om: OrientedMatroid) -> Flag:
    """`Flag(om)`: the general truncations of om down to rank 1."""
    return Flag(om)


def transport_to_base(base_alg: OSAlgebra, form: OSElement) -> OSElement:
    """Re-express a truncation's reduced form inside the base algebra.

    A general truncation T of M on the same ground has the dependent sets
    of M up to size rank(T), and the Orlik-Solomon relations in degree p
    only see dependent sets of size up to p + 1.  So A(T)_p = A(M)_p, with
    the same NBC keys, for p < rank(T), and the form keeps its coordinates.
    """
    if form.algebra.matroid.ground != base_alg.matroid.ground:
        raise ValueError("the form lives on another ground set")
    if form.grade >= form.algebra.rank:
        raise ValueError(f"grade {form.grade} is not below the rank "
                         f"{form.algebra.rank} of the form's algebra")
    return base_alg.from_terms(form.grade, form.terms)


def graded_basis(flag: Flag, k: int) -> list:
    """[(tope, form)] basis of the reduced algebra of flag.om in degree
    rank - k: the forms of the topes bounded by the extension of stage k,
    computed in the (k-1)-st truncation and transported to the base
    algebra; exact full rank is asserted."""
    if not 1 <= k <= len(flag.stages):
        raise ValueError(f"flag level must be in 1..{len(flag.stages)}")
    return _bounded_basis(flag.stages[k - 1].ext, algebra_of(flag.om), k)


def _bounded_basis(ext: Extension, base_alg: OSAlgebra, k: int) -> list:
    """[(tope, form)] over the topes of ext.base bounded at q, each form
    transported to base_alg and checked to be a basis in degree rank - k."""
    topes = sorted(ext.bounded_topes(), key=SignVector.sort_key)
    pairs = [(t, transport_to_base(base_alg,
                                   canonical_form_tope(ext.base, t)))
             for t in topes]
    expected = base_alg.reduced_dim(base_alg.rank - k)
    rank = len(linalg.greedy_independent([f.terms for _, f in pairs]))
    if len(pairs) != expected or rank != expected:
        raise RuntimeError("internal invariant violation: k-bounded forms "
                           f"are not a basis at level {k} (got {len(pairs)} "
                           f"for dimension {expected})")
    return pairs


def _forms(basis: list) -> list:
    """The forms of a basis given as [(tope, form)] pairs or as forms."""
    return [f for _, f in basis] if basis and isinstance(basis[0], tuple) else basis


def expand_in_basis(x: OSElement, basis: list) -> list:
    """Exact coordinates; raises if x lies outside the span."""
    coords = x.algebra.coordinates_in(x, _forms(basis))
    if coords is None:
        raise RuntimeError("internal invariant violation: element outside "
                           "the span of the given basis")
    return coords


def structure_constants(src_basis: list, target_basis: list,
                        i: int, j: int) -> list:
    """Coordinates of src[i] wedge src[j] in the target graded basis."""
    forms = _forms(src_basis)
    return expand_in_basis(forms[i].wedge(forms[j]), target_basis)


class AomotoReport(Record):
    """A mutable value: equal iff its eight fields are, unhashable, printed
    as `AomotoReport(dim_h=..., ..., weights=...)`."""

    _fields = ("dim_h", "beta", "dim_matches_beta", "v_spans", "is_generic",
               "bounded_topes", "basis_forms", "weights")

    def __init__(self, dim_h: int, beta: int, dim_matches_beta: bool,
                 v_spans: bool, is_generic: bool, bounded_topes: list,
                 basis_forms: list, weights: dict):
        self.dim_h = dim_h
        self.beta = beta
        self.dim_matches_beta = dim_matches_beta
        self.v_spans = v_spans
        self.is_generic = is_generic
        self.bounded_topes = bounded_topes
        self.basis_forms = basis_forms  # forms of the 0-bounded topes
        self.weights = weights


def aomoto(om: OrientedMatroid, weights: dict, base=None) -> AomotoReport:
    """Cohomology of the weighted degree-one multiplication in top degree.

    One elimination over the omega-image columns followed by the forms of
    the 0-bounded topes T^0 reads both answers: dim_h is the corank of the
    image in the top reduced grade, and v_spans says that the T^0 forms
    complement it exactly.  Genericity is dim_h == beta and v_spans; no
    extension is built and no seed is drawn.
    """
    base = om.ground[0] if base is None else base
    alg = algebra_of(om)
    r = om.rank
    omega = _weight_form(alg, weights, base)

    top_dim = alg.reduced_dim(r - 1)
    image_cols = _wedge_columns(alg, omega, r - 2) if r >= 2 else []

    beta = om.underlying.beta()
    t0 = sorted(om.bounded_topes(base), key=SignVector.sort_key)

    v_forms = [canonical_form_tope(om, t) for t in t0]
    v_cols = [f.terms for f in v_forms]
    # the earliest-first pivots inside the prefix image_cols are its basis
    pivots = linalg.greedy_independent(image_cols + v_cols)
    image_rank = sum(p < len(image_cols) for p in pivots)
    dim_h = top_dim - image_rank
    v_spans = (len(pivots) == top_dim
               and image_rank + len(v_cols) == top_dim)

    dim_matches_beta = dim_h == beta
    return AomotoReport(
        dim_h=dim_h,
        beta=beta,
        dim_matches_beta=dim_matches_beta,
        v_spans=v_spans,
        is_generic=dim_matches_beta and v_spans,
        bounded_topes=t0,
        basis_forms=v_forms,
        weights=dict(weights),
    )


def _weight_form(alg: OSAlgebra, weights: dict, base) -> OSElement:
    """omega = sum_e weights[e] (e_e - e_base); the weights must cover
    exactly the elements other than base."""
    ground = alg.matroid.ground
    _position(ground_positions(ground), base)  # refuses an unknown base
    expected_keys = {e for e in ground if e != base}
    if set(weights) != expected_keys:
        raise ValueError(f"weights must cover exactly {sorted(map(str, expected_keys))}")
    weights = {e: _coeff(lam) for e, lam in weights.items()}
    omega = alg.combination(1, [((e,), lam) for e, lam in weights.items()]
                            + [((base,), -sum(weights.values()))])
    if not alg.boundary(omega).is_zero:
        raise RuntimeError("internal invariant violation: weight form is "
                           "not boundary-closed")
    return omega


def aomoto_degree_ranks(om: OrientedMatroid, weights: dict,
                        base=None) -> list:
    """Diagnostic: ranks of the weighted multiplication in every degree.

    Entry k is the exact rank of the map from reduced degree k to k+1.
    Informational only; no pass/fail contract is attached to degrees below
    the top one.
    """
    base = om.ground[0] if base is None else base
    alg = algebra_of(om)
    omega = _weight_form(alg, weights, base)
    return [len(linalg.greedy_independent(_wedge_columns(alg, omega, k)))
            for k in range(om.rank - 1)]


def _wedge_columns(alg: OSAlgebra, omega: OSElement, k: int) -> list:
    """The terms of omega wedge each reduced basis element of grade k, in
    grade k + 1."""
    return [omega.wedge(b).terms for b in alg.reduced_basis(k)]


def sample_weight_vectors(om: OrientedMatroid, base=None, seed: int = 0,
                          count: int = 5) -> list:
    """Seeded rational weight candidates for genericity hunting."""
    base = om.ground[0] if base is None else base
    _position(ground_positions(om.ground), base)  # refuses an unknown base
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append({e: Fraction(rng.randint(1, 9), rng.randint(1, 3))
                    * rng.choice((1, -1))
                    for e in om.ground if e != base})
    return out
