"""Reference circuit rules, greedy bases, lexicographic extensions and
placing triangulations, as they were before they were read off the sign
table by position mask.

Circuits, extensions and the placing triangulation's facet and cone tests
here walk labels through `Chirotope.value`; the basis that greedy
insertion picks grows by one rank query per element, or, in the placing
triangulation, is the minimum over the nonzero keys of their sorted places
in the insertion order.  They are kept as the oracles that
`chirotope._circuit`, `chirotope._earliest_basis`,
`OrientedMatroid.lex_extension` and `realization._placing` are compared
against.  `random_signature` draws the seeded random basis signatures
that the extension tests take as inputs.
"""

from __future__ import annotations

import random
from itertools import combinations

from omcanon.chirotope import Chirotope
from omcanon.om import is_acyclic
from omcanon.signvec import SignVector, ground_positions


def circuits(chi) -> frozenset:
    """The signed circuits, one from each (r+1)-subset with a nonzero
    circuit vector, and their negatives."""
    if chi.rank == 0 or len(chi.ground) <= chi.rank:
        return frozenset()
    out = set()
    for sub in combinations(chi.ground, chi.rank + 1):
        signs = [(-1) ** i * chi.value(sub[:i] + sub[i + 1:])
                 for i in range(len(sub))]
        if any(signs):
            vec = SignVector.from_map(chi.ground, dict(zip(sub, signs)))
            out.add(vec)
            out.add(-vec)
    return frozenset(out)


def fundamental_circuit(ext, basis) -> SignVector:
    """The signed circuit in basis u {q}, normalized to value - at q."""
    pos = ground_positions(ext.base.ground)
    b = tuple(sorted(basis, key=pos.get))
    if ext.base.chi.value(b) == 0:
        raise ValueError("not a basis")
    seq = b + (ext.label,)
    values = {}
    for i, e in enumerate(seq):
        rest = seq[:i] + seq[i + 1:]
        values[e] = (-1) ** i * ext.chi_ext.value(rest)
    if values[ext.label] == 1:
        values = {e: -v for e, v in values.items()}
    return SignVector.from_map(ext.chi_ext.ground, values)


def lex_extension(om, signature, label="q") -> Chirotope:
    """The chirotope of `OrientedMatroid.lex_extension`: keys through q by
    the cascade over the signature, generality by one rank query per
    (r-1)-set."""
    if label in om.ground:
        raise ValueError(f"label {label!r} already in the ground set")
    signature = tuple((b, int(s)) for b, s in signature)
    pos = ground_positions(om.ground)
    basis = tuple(sorted((b for b, _ in signature), key=pos.get))
    if len(signature) != om.rank or om.chi.value(basis) == 0:
        raise ValueError("signature elements must form a basis")

    def cascade(key) -> int:
        for b, s in signature:
            v = om.chi.value(tuple(key) + (b,))
            if v:
                return s * v
        return 0

    ground_ext = om.ground + (label,)
    values = {}
    for key in combinations(ground_ext, om.rank):
        if label in key:
            values[key] = cascade(key[:-1])  # label sorts last
        else:
            values[key] = om.chi.value(key)
    chi_ext = Chirotope.from_map(ground_ext, om.rank, values)
    for key in combinations(om.ground, om.rank - 1):
        if om.underlying.rank_of(key) == len(key) and cascade(key) == 0:
            raise RuntimeError(
                f"internal invariant violation: extension not general at {key}")
    return chi_ext


def perturbation_signature(om, base=None) -> tuple:
    """(base, +) then the lexicographically smallest basis completion,
    signed -, grown with one rank query per element."""
    base = om.ground[0] if base is None else base
    chosen = [base]
    for e in om.ground:
        if len(chosen) == om.rank:
            break
        if e != base and om.underlying.rank_of(set(chosen) | {e}) > len(chosen):
            chosen.append(e)
    if len(chosen) < om.rank:
        raise ValueError("base element completes to no basis")
    return ((base, 1),) + tuple((e, -1) for e in chosen[1:])


def random_signature(om, rng: random.Random, base=None) -> tuple:
    """A random basis through the base element, base signed +, rest random."""
    base = om.ground[0] if base is None else base
    elements = [e for e in om.ground if e != base]
    rng.shuffle(elements)
    chosen = [base]
    for e in elements:
        if len(chosen) == om.rank:
            break
        if om.underlying.rank_of(set(chosen) | {e}) > len(chosen):
            chosen.append(e)
    return ((base, 1),) + tuple((e, rng.choice((1, -1))) for e in chosen[1:])


def in_cone(chi, basis: tuple, label) -> tuple:
    """Barycentric sign pattern of label over an ordered basis.

    Entry j is the sign of the coefficient of basis[j]; the point lies in
    the closed simplicial cone iff no entry opposes the basis orientation.
    """
    signs = []
    orient = chi.value(basis)
    for j in range(len(basis)):
        repl = basis[:j] + (label,) + basis[j + 1:]
        signs.append(chi.value(repl) * orient)
    return tuple(signs)


def min_core(chi, order) -> list | None:
    """The basis whose elements come earliest in order, compared as sorted
    place lists, listed in order; None when chi has no basis."""
    at = {e: i for i, e in enumerate(order)}
    first = min((sorted(at[e] for e in key) for key in chi.nonzero_keys),
                default=None)
    return None if first is None else [order[i] for i in first]


def placing(chi, insertion_order=None) -> list:
    """`realization._placing` with its core from `min_core` and rank 1
    answered up front."""
    if not is_acyclic(chi):
        raise ValueError("configuration is not acyclic")
    order = list(insertion_order if insertion_order is not None else chi.ground)
    pos = ground_positions(chi.ground)
    if sorted(order, key=pos.get) != list(chi.ground):
        raise ValueError("insertion order must be a permutation of the labels")
    r = chi.rank
    if r == 1:
        return [(order[0],)]
    core = min_core(chi, order)
    if core is None:
        raise ValueError("matrix is rank deficient")
    deferred = [e for e in order if e not in core]
    simplices = [tuple(sorted(core, key=pos.get))]
    for p in deferred:
        facet_count: dict = {}
        facet_apex: dict = {}
        for simplex in simplices:
            for i in range(r):
                facet = simplex[:i] + simplex[i + 1:]
                facet_count[facet] = facet_count.get(facet, 0) + 1
                facet_apex[facet] = simplex[i]
        added = False
        for facet, count in facet_count.items():
            if count != 1:
                continue
            inner = chi.value(facet + (facet_apex[facet],))
            outer = chi.value(facet + (p,))
            if outer == -inner and outer != 0:
                simplices.append(tuple(sorted(facet + (p,), key=pos.get)))
                added = True
        if not added:
            covered = any(all(s >= 0 for s in in_cone(chi, b, p))
                          for b in simplices)
            if not covered:
                raise RuntimeError(
                    "degenerate placing: point beyond no facet yet outside "
                    "the hull; try another insertion order")
    return simplices
