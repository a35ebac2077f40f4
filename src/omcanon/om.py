"""Oriented matroids from chirotopes.

Derived data (signed circuits, cocircuits, covectors, topes) is computed
once, on first use, deterministically from the chirotope, and never
mutated afterwards.  Sign-vector sets are closed under negation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .chirotope import Chirotope, validate_chirotope
from .matroid import UnderlyingMatroid
from .signvec import SignVector, ground_positions


class NotATope(ValueError):
    pass


def _auto_validate(chi: Chirotope) -> bool:
    if os.environ.get("OMCANON_VALIDATE", "").lower() == "off":
        return False
    return len(chi.ground) <= 10


class OrientedMatroid:
    def __init__(self, chi: Chirotope, validate: bool | None = None):
        if validate is None:
            validate = _auto_validate(chi)
        if validate:
            validate_chirotope(chi)
        self.chi = chi
        self.ground = chi.ground
        self.rank = chi.rank
        self.underlying = UnderlyingMatroid.from_chirotope(chi)
        self._faces_cache: dict = {}

    @cached_property
    def circuits(self) -> frozenset:
        return _circuits(self.chi)

    @cached_property
    def cocircuits(self) -> frozenset:
        return _cocircuits(self.chi)

    @cached_property
    def covectors(self) -> frozenset:
        return _covector_closure(self.ground, self.cocircuits)

    @cached_property
    def topes(self) -> frozenset:
        return frozenset(x for x in self.covectors if x.has_full_support)

    # ---- basic structure -------------------------------------------------

    @property
    def atoms(self) -> tuple:
        return self.underlying.atoms

    @property
    def atom_reps(self) -> tuple:
        return self.underlying.atom_reps

    def zero_vector(self) -> SignVector:
        return SignVector(self.ground, (0,) * len(self.ground))

    def sorted_topes(self) -> list:
        return sorted(self.topes, key=SignVector.sort_key)

    def is_tope(self, x: SignVector) -> bool:
        return x in self.topes

    def require_tope(self, x: SignVector) -> SignVector:
        if not self.is_tope(x):
            raise NotATope(f"{x} is not a tope")
        return x

    def is_acyclic(self) -> bool:
        return is_acyclic(self.chi)

    # ---- covector machinery ----------------------------------------------

    def is_covector(self, x: SignVector) -> bool:
        """Conformal cocircuit composition test (no full enumeration)."""
        if x.is_zero:
            return True
        acc = self.zero_vector()
        for y in self.cocircuits:
            if y.conforms_to(x):
                acc = acc.compose(y)
        return acc == x

    def faces(self, tope: SignVector) -> frozenset:
        """Covectors conformal to the tope, including 0 and the tope itself."""
        self.require_tope(tope)
        cached = self._faces_cache.get(tope)
        if cached is not None:
            return cached
        conformal = [y for y in self.cocircuits if y.conforms_to(tope)]
        supports = {frozenset(): self.zero_vector()}
        frontier = [self.zero_vector()]
        while frontier:
            nxt = []
            for x in frontier:
                for y in conformal:
                    z = x.compose(y)
                    s = z.support
                    if s not in supports:
                        supports[s] = z
                        nxt.append(z)
            frontier = nxt
        result = frozenset(supports.values()) | {tope}
        self._faces_cache[tope] = result
        return result

    def is_facet(self, tope: SignVector, rep) -> bool:
        """True iff zeroing the atom of rep yields a covector."""
        atom = self.underlying.atom_of(rep)
        return self.is_covector(tope.zero_out(atom))

    def facets(self, tope: SignVector) -> tuple:
        return tuple(a for a in self.atom_reps if self.is_facet(tope, a))

    def bounded_topes(self, base) -> frozenset:
        """Topes all of whose nonzero faces are strictly positive at base."""
        if base not in self.ground:
            raise ValueError(f"unknown element {base!r}")
        out = []
        for t in self.topes:
            if t.value(base) != 1:
                continue
            if all(x.is_zero or x.value(base) == 1 for x in self.faces(t)):
                out.append(t)
        return frozenset(out)

    # ---- reorientation and minors -----------------------------------------

    def reorient(self, tope: SignVector) -> "OrientedMatroid":
        """Reorientation by a full-support sign vector (an involution)."""
        if tope.ground != self.ground or not tope.has_full_support:
            raise ValueError("reorientation requires a full-support sign vector")

        def flip(x: SignVector) -> SignVector:
            return SignVector(self.ground, tuple(
                a * b for a, b in zip(x.signs, tope.signs)))

        om = object.__new__(OrientedMatroid)
        om.chi = self.chi.reorient(tope)
        om.ground = self.ground
        om.rank = self.rank
        om.underlying = self.underlying
        om.circuits = frozenset(flip(c) for c in self.circuits)
        om.cocircuits = frozenset(flip(y) for y in self.cocircuits)
        om.covectors = frozenset(flip(x) for x in self.covectors)
        om.topes = frozenset(flip(t) for t in self.topes)
        om._faces_cache = {}
        return om

    def contract(self, element) -> "OrientedMatroid":
        """Contraction by the parallel class of element (evaluated last)."""
        atom = self.underlying.atom_of(element)
        chi = self.chi.contract(element, drop=atom - {element})
        return OrientedMatroid(chi, validate=False)

    def delete(self, element) -> "OrientedMatroid":
        chi = self.chi.delete(element)  # raises on coloops
        return OrientedMatroid(chi, validate=False)

    # ---- single-element lexicographic extensions ---------------------------

    def lex_extension(self, signature, label="q") -> "Extension":
        """Extension by q = [b1^s1, ..., br^sr]; the signature must be a basis."""
        if label in self.ground:
            raise ValueError(f"label {label!r} already in the ground set")
        signature = tuple((b, int(s)) for b, s in signature)
        pos = ground_positions(self.ground)
        basis = tuple(sorted((b for b, _ in signature), key=pos.get))
        if len(signature) != self.rank or self.chi.value(basis) == 0:
            raise ValueError("signature elements must form a basis")

        def cascade(key) -> int:
            for b, s in signature:
                v = self.chi.value(tuple(key) + (b,))
                if v:
                    return s * v
            return 0

        ground_ext = self.ground + (label,)
        values = {}
        for key in combinations(ground_ext, self.rank):
            if label in key:
                values[key] = cascade(key[:-1])  # label sorts last
            else:
                values[key] = self.chi.value(key)
        chi_ext = Chirotope.from_map(ground_ext, self.rank, values)
        for key in combinations(self.ground, self.rank - 1):
            if self.underlying.is_independent(key) and cascade(key) == 0:
                raise RuntimeError(
                    f"internal invariant violation: extension not general at {key}")
        return Extension(self, label, signature, chi_ext)


@dataclass(frozen=True)
class Extension:
    """A general single-element extension M u q with its extended chirotope."""

    base: OrientedMatroid
    label: object
    signature: tuple
    chi_ext: Chirotope
    om_ext: OrientedMatroid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "om_ext",
                           OrientedMatroid(self.chi_ext, validate=False))

    def bounded_topes(self) -> frozenset:
        """Topes P of M such that (P, +) is bounded at q in M u q."""
        ext_ground = self.chi_ext.ground
        out = []
        for t in self.base.topes:
            lifted = t.extend(ext_ground, fill=1)
            if lifted not in self.om_ext.topes:
                continue
            if all(x.is_zero or x.value(self.label) == 1
                   for x in self.om_ext.faces(lifted)):
                out.append(t)
        return frozenset(out)

    def fundamental_circuit(self, basis) -> SignVector:
        """The signed circuit in basis u {q}, normalized to value - at q."""
        pos = ground_positions(self.base.ground)
        b = tuple(sorted(basis, key=pos.get))
        if self.base.chi.value(b) == 0:
            raise ValueError("not a basis")
        seq = b + (self.label,)
        values = {}
        for i, e in enumerate(seq):
            rest = seq[:i] + seq[i + 1:]
            values[e] = (-1) ** i * self.chi_ext.value(rest)
        if values[self.label] == 1:
            values = {e: -v for e, v in values.items()}
        return SignVector.from_map(self.chi_ext.ground, values)


# ---- derived sign-vector data -------------------------------------------


def _canonical_pair(vec: SignVector):
    first = next((s for s in vec.signs if s != 0), 1)
    canon = vec if first > 0 else -vec
    return canon


def _circuit_signs(chi: Chirotope):
    """(subset, signs) for each (r+1)-subset with a nonzero circuit vector."""
    if chi.rank == 0 or len(chi.ground) <= chi.rank:
        return
    for sub in combinations(chi.ground, chi.rank + 1):
        signs = [(-1) ** i * chi.value(sub[:i] + sub[i + 1:])
                 for i in range(len(sub))]
        if any(signs):
            yield sub, signs


def _circuits(chi: Chirotope) -> frozenset:
    out = set()
    for sub, signs in _circuit_signs(chi):
        vec = _canonical_pair(SignVector.from_map(chi.ground,
                                                  dict(zip(sub, signs))))
        out.add(vec)
        out.add(-vec)
    return frozenset(out)


def is_acyclic(chi: Chirotope) -> bool:
    """True iff no signed circuit of chi is one-signed; stops at the first."""
    return not any(min(signs) >= 0 or max(signs) <= 0
                   for _, signs in _circuit_signs(chi))


def _cocircuits(chi: Chirotope) -> frozenset:
    if chi.rank == 0:
        return frozenset()
    out = set()
    for hyp in combinations(chi.ground, chi.rank - 1):
        values = {e: chi.value(hyp + (e,)) for e in chi.ground if e not in hyp}
        if not any(values.values()):
            continue
        vec = _canonical_pair(SignVector.from_map(chi.ground, values))
        out.add(vec)
        out.add(-vec)
    return frozenset(out)


def _covector_closure(ground: tuple, cocircuits: frozenset) -> frozenset:
    """All compositions of cocircuits, plus the zero covector."""
    zero = SignVector(ground, (0,) * len(ground))
    seen = {zero} | set(cocircuits)
    frontier = list(cocircuits)
    while frontier:
        nxt = []
        for x in frontier:
            for y in cocircuits:
                z = x.compose(y)
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)
