"""Canonical forms of oriented matroids and their topes.

The reduced form of an acyclic pair lives in the top reduced grade and is
pinned down by its residues at atom contractions: with this library's
boundary/residue conventions the characterizing recursion reads

    Res_a W(M, chi) = -W(M/a, chi/a)   (a an acyclic atom, 0 otherwise),

with rank-1 base value chi(i).  The triangulation evaluation
sum_B chi(B) d e_B satisfies the same recursion, so both paths agree.  The
non-reduced top-grade form satisfies the sign-free recursion
Res_a W = W(M/a, chi/P a) and has base value chi(()) in rank 0.
"""

from __future__ import annotations

from functools import lru_cache

from .chirotope import Chirotope
from .matroid import UnderlyingMatroid
from .om import OrientedMatroid, is_acyclic
from .osalg import OSAlgebra, OSElement, os_algebra_for
from .signvec import SignVector


@lru_cache(maxsize=None)
def oriented_matroid_for(chi: Chirotope) -> OrientedMatroid:
    return OrientedMatroid(chi, validate=False)


def algebra_of(om: OrientedMatroid) -> OSAlgebra:
    return os_algebra_for(om.underlying)


@lru_cache(maxsize=None)
def _canonical_form(chi: Chirotope) -> OSElement:
    r = chi.rank
    if r == 0:
        raise ValueError("the reduced form needs rank at least 1")
    alg = os_algebra_for(UnderlyingMatroid.from_chirotope(chi))
    if not is_acyclic(chi):
        return alg.zero(r - 1)
    if r == 1:
        return alg.one().scale(chi.value((chi.ground[0],)))
    stack = alg.residue_stack
    targets = {}
    for a in alg.atoms:
        atom = alg.matroid.atom_of(a)
        sub_chi = chi.contract(a, drop=atom - {a})
        # recursion: Res_a x = -W(M/a, chi/a)
        targets[a] = _canonical_form(sub_chi).scale(-1)
    return stack.solve(targets)


def canonical_form_om(om: OrientedMatroid) -> OSElement:
    """Reduced canonical form of (M, chi); zero when M is not acyclic."""
    return _canonical_form(om.chi)


def canonical_form_tope(om: OrientedMatroid, tope: SignVector) -> OSElement:
    """Reduced canonical form of a tope: reorient so the tope is all-plus."""
    om.require_tope(tope)
    return _canonical_form(om.chi.reorient(tope))


def canonical_form_from_triangulation(chi: Chirotope, bases) -> OSElement:
    """sum over the triangulation of chi(B) d e_B.

    The bases are trusted to triangulate the (acyclic) oriented matroid;
    garbage in, garbage out.
    """
    om = oriented_matroid_for(chi)
    alg = algebra_of(om)
    out = alg.zero(chi.rank - 1)
    for basis in bases:
        basis = tuple(basis)
        sign = chi.value(basis)
        if sign == 0:
            raise ValueError(f"{basis} is not a basis")
        out = out + alg.boundary(alg.monomial(basis)).scale(sign)
    return out


def nonreduced_from_triangulation(chi: Chirotope, bases) -> OSElement:
    """sum over the triangulation of chi(B) e_B (top grade, non-reduced)."""
    om = oriented_matroid_for(chi)
    alg = algebra_of(om)
    out = alg.zero(chi.rank)
    for basis in bases:
        basis = tuple(basis)
        sign = chi.value(basis)
        if sign == 0:
            raise ValueError(f"{basis} is not a basis")
        out = out + alg.monomial(basis, coeff=sign)
    return out


def nonreduced_canonical_form(om: OrientedMatroid, tope: SignVector) -> OSElement:
    """Top-grade form: the unique boundary preimage of the reduced form."""
    alg = algebra_of(om)
    if om.rank == 0:
        return alg.one().scale(om.chi.value(()))
    reduced = canonical_form_tope(om, tope)
    return alg.inverse_boundary(reduced)


def contracted_tope_chirotope(om: OrientedMatroid, tope: SignVector, rep):
    """chi/P at an atom: value on (I, i) scaled by the tope sign at i."""
    atom = om.underlying.atom_of(rep)
    chi = om.chi.contract(rep, drop=atom - {rep})
    return chi.scale(tope.value(rep))


def check_residue_axioms(om: OrientedMatroid, tope: SignVector) -> dict:
    """Per-atom check of the facet recursion for a tope's reduced form.

    For a facet atom the residue must equal minus the independently
    recomputed facet form; for a non-facet atom it must vanish.  Returns
    {atom representative: bool}.
    """
    om.require_tope(tope)
    alg = algebra_of(om)
    form = canonical_form_tope(om, tope)
    report = {}
    for a in om.atom_reps:
        res = alg.residue(a, form)
        if om.is_facet(tope, a):
            sub_chi = contracted_tope_chirotope(om, tope, a)
            sub_om = oriented_matroid_for(sub_chi)
            sub_tope = tope.restrict(sub_chi.ground)
            expected = canonical_form_tope(sub_om, sub_tope)
            report[a] = (res == expected.scale(-1))
        else:
            report[a] = res.is_zero
    return report
