"""Orlik-Solomon algebra over exact rationals in NBC coordinates.

Generators are atom representatives of the underlying matroid.  Monomials
on dependent sets vanish; monomials containing a broken circuit are
rewritten through the circuit relations (boundary of a circuit monomial is
zero) until only no-broken-circuit monomials remain.  The rewrite replaces
an element of the broken circuit by the smaller circuit minimum, so the
lexicographic position strictly decreases and the process terminates; the
result is the unique NBC coordinate vector.

Boundary removes entries from the END of a monomial first:
    d e_(s1..sk) = sum_{i=0}^{k-1} (-1)^i e_(S minus s_{k-i}).
Residue at an atom a extracts a TRAILING e_a:
    Res_a e_(i1..i_{k-1}, a) = e_(i1..i_{k-1}),  Res_a e_I = 0 if a not in I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import linalg
from .chirotope import perm_parity_sign
from .matroid import UnderlyingMatroid
from .signvec import ground_positions

_ALGEBRAS: dict = {}


def os_algebra_for(matroid: UnderlyingMatroid) -> "OSAlgebra":
    key = matroid.fingerprint
    alg = _ALGEBRAS.get(key)
    if alg is None:
        alg = OSAlgebra(matroid)
        _ALGEBRAS[key] = alg
    return alg


@dataclass
class OSElement:
    algebra: "OSAlgebra"
    grade: int
    terms: dict  # ascending atom-rep tuple -> nonzero Fraction

    def __post_init__(self):
        self.terms = {k: v for k, v in self.terms.items() if v != 0}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, OSElement)
                and self.algebra is other.algebra
                and self.grade == other.grade
                and self.terms == other.terms)

    def __add__(self, other: "OSElement") -> "OSElement":
        if other.algebra is not self.algebra or other.grade != self.grade:
            raise ValueError("grade/context mismatch")
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + v
        return OSElement(self.algebra, self.grade, terms)

    def __sub__(self, other: "OSElement") -> "OSElement":
        return self + (-other)

    def __neg__(self) -> "OSElement":
        return OSElement(self.algebra, self.grade,
                         {k: -v for k, v in self.terms.items()})

    def scale(self, c) -> "OSElement":
        c = Fraction(c)
        return OSElement(self.algebra, self.grade,
                         {k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c) -> "OSElement":
        return self.scale(c)

    def wedge(self, other: "OSElement") -> "OSElement":
        return self.algebra.wedge(self, other)

    def __matmul__(self, other: "OSElement") -> "OSElement":
        return self.wedge(other)

    @property
    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.terms.values())

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for key in sorted(self.terms, key=self.algebra.key_sort):
            c = self.terms[key]
            name = "e_{%s}" % ",".join(str(a) for a in key) if key else "1"
            bits.append(f"{c}*{name}")
        return " + ".join(bits)


class OSAlgebra:
    def __init__(self, matroid: UnderlyingMatroid):
        self.matroid = matroid
        self.rank = matroid.rank
        self.atoms = matroid.atom_reps
        self._pos = ground_positions(matroid.ground) if matroid.ground else {}
        self.nbc = {k: matroid.nbc_sets(k) for k in range(self.rank + 1)}
        self._nbc_pos = {k: {key: i for i, key in enumerate(keys)}
                         for k, keys in self.nbc.items()}
        self._straight_cache: dict = {}
        self._residue_algebras: dict = {}
        self._deletion_algebras: dict = {}
        self._reduced: dict = {}
        self._maps: dict = {}

    def key_sort(self, key: tuple) -> tuple:
        return tuple(self._pos[a] for a in key)

    # ---- constructors ------------------------------------------------------

    def zero(self, grade: int) -> OSElement:
        return OSElement(self, grade, {})

    def one(self) -> OSElement:
        return OSElement(self, 0, {(): Fraction(1)})

    def dim(self, k: int) -> int:
        return len(self.nbc.get(k, ()))

    def nbc_keys(self, k: int) -> tuple:
        return tuple(self.nbc.get(k, ()))

    def from_terms(self, grade: int, terms: dict) -> OSElement:
        for key in terms:
            if key not in self._nbc_pos.get(grade, {}):
                raise ValueError(f"{key} is not an NBC set of grade {grade}")
        return OSElement(self, grade, {k: Fraction(v) for k, v in terms.items()})

    def monomial(self, seq, coeff=Fraction(1)) -> OSElement:
        """e_seq straightened into NBC coordinates; seq lists ground elements."""
        seq = tuple(seq)
        coeff = Fraction(coeff)
        try:
            reps = tuple(self.matroid.rep_of(e) for e in seq)
        except KeyError as exc:
            raise ValueError(f"unknown element label {exc.args[0]!r}") from None
        if len(set(reps)) != len(reps):
            return self.zero(len(seq))
        positions = [self._pos[a] for a in reps]
        sign = perm_parity_sign(positions)
        ordered = tuple(a for _, a in sorted(zip(positions, reps)))
        expansion = self._straighten(ordered)
        return OSElement(self, len(seq),
                         {k: coeff * sign * v for k, v in expansion.items()})

    # ---- straightening ------------------------------------------------------

    def _find_broken_circuit(self, key_set: frozenset):
        for broken, circuit in self.matroid.broken_circuits():
            if broken <= key_set:
                return broken, circuit
        return None

    def _straighten(self, key: tuple) -> dict:
        cached = self._straight_cache.get(key)
        if cached is None:
            cached = self._straighten_with(key, chooser=None)
            self._straight_cache[key] = cached
        return cached

    def _straighten_with(self, key: tuple, chooser) -> dict:
        """Expansion of e_key in NBC coordinates.

        chooser picks among the applicable broken circuits (None = first in
        the fixed circuit order); any choice yields the same expansion.
        """
        if len(key) > self.rank or self.matroid.atom_rank(key) < len(key):
            return {}
        key_set = frozenset(key)
        if chooser is None:
            hit = self._find_broken_circuit(key_set)
        else:
            options = [bc for bc in self.matroid.broken_circuits()
                       if bc[0] <= key_set]
            hit = chooser(options) if options else None
        if hit is None:
            return {key: Fraction(1)}
        broken, circuit = hit
        c0 = circuit[0]
        rest = tuple(a for a in key if a not in broken)
        full = tuple(circuit[1:])  # the broken circuit, ascending
        sign_outer = perm_parity_sign(
            [self._pos[a] for a in full + rest])
        out: dict = {}
        for j in range(1, len(circuit)):
            # relation: e_full = sum_j (-1)^{j+1} e_{circuit minus c_j}
            repl = tuple(a for a in circuit if a != circuit[j])
            if c0 in rest:
                continue  # repeated atom, term vanishes
            seq = repl + rest
            sign_inner = perm_parity_sign([self._pos[a] for a in seq])
            sub = tuple(sorted(seq, key=self._pos.get))
            coeff = Fraction((-1) ** (j + 1) * sign_outer * sign_inner)
            expansion = (self._straighten(sub) if chooser is None
                         else self._straighten_with(sub, chooser))
            for k, v in expansion.items():
                out[k] = out.get(k, Fraction(0)) + coeff * v
        return {k: v for k, v in out.items() if v != 0}

    # ---- algebra operations --------------------------------------------------

    def wedge(self, x: OSElement, y: OSElement) -> OSElement:
        if x.algebra is not self or y.algebra is not self:
            raise ValueError("context mismatch")
        out = self.zero(x.grade + y.grade)
        for s, c in x.terms.items():
            for t, d in y.terms.items():
                out = out + self.monomial(s + t, coeff=c * d)
        return out

    def boundary(self, x: OSElement) -> OSElement:
        """d with removal from the END first; NBC sets are downward closed."""
        if x.grade == 0:
            return self.zero(0)
        terms: dict = {}
        for key, c in x.terms.items():
            k = len(key)
            for i in range(k):
                sub = key[:k - 1 - i] + key[k - i:]
                coeff = c * (-1) ** i
                terms[sub] = terms.get(sub, Fraction(0)) + coeff
        return OSElement(self, x.grade - 1, terms)

    # ---- residue and deletion maps --------------------------------------------

    def residue_algebra(self, rep) -> "OSAlgebra":
        alg = self._residue_algebras.get(rep)
        if alg is None:
            alg = os_algebra_for(self.matroid.contract_atom(rep))
            self._residue_algebras[rep] = alg
        return alg

    def deletion_algebra(self, rep) -> "OSAlgebra":
        alg = self._deletion_algebras.get(rep)
        if alg is None:
            alg = os_algebra_for(self.matroid.delete_atom(rep))
            self._deletion_algebras[rep] = alg
        return alg

    def residue(self, rep, x: OSElement) -> OSElement:
        """Res at an atom; lands in the contraction's algebra (atoms may merge)."""
        if rep not in self.atoms:
            raise ValueError(f"{rep!r} is not an atom representative")
        target = self.residue_algebra(rep)
        out = target.zero(x.grade - 1)
        for key, c in x.terms.items():
            if rep not in key:
                continue
            j = key.index(rep)
            sign = (-1) ** (len(key) - 1 - j)
            out = out + target.monomial(key[:j] + key[j + 1:], coeff=c * sign)
        return out

    def iota(self, rep, x: OSElement) -> OSElement:
        """Inclusion from the deletion's algebra (e_I maps to e_I)."""
        src = self.deletion_algebra(rep)
        if x.algebra is not src:
            raise ValueError("iota expects an element of the deletion algebra")
        out = self.zero(x.grade)
        for key, c in x.terms.items():
            out = out + self.monomial(key, coeff=c)
        return out

    # ---- linear-algebra views ---------------------------------------------------

    def dense(self, x: OSElement, grade: int | None = None) -> list:
        grade = x.grade if grade is None else grade
        vec = [Fraction(0)] * self.dim(grade)
        index = self._nbc_pos.get(grade, {})
        for key, c in x.terms.items():
            vec[index[key]] = c
        return vec

    def from_dense(self, grade: int, vec) -> OSElement:
        return OSElement(self, grade,
                         {key: Fraction(v)
                          for key, v in zip(self.nbc_keys(grade), vec)})

    def boundary_map(self, k: int) -> "LinearMap":
        key = ("boundary", k)
        lm = self._maps.get(key)
        if lm is None:
            dom = [self.from_terms(k, {key_: 1}) for key_ in self.nbc_keys(k)]
            cod = [self.from_terms(k - 1, {key_: 1})
                   for key_ in self.nbc_keys(k - 1)]
            cols = [self.dense(self.boundary(b), k - 1) for b in dom]
            lm = LinearMap(dom, cod, linalg.columns_matrix(cols))
            self._maps[key] = lm
        return lm

    def residue_map(self, rep, k: int) -> "LinearMap":
        key = ("residue", rep, k)
        lm = self._maps.get(key)
        if lm is None:
            target = self.residue_algebra(rep)
            dom = [self.from_terms(k, {key_: 1}) for key_ in self.nbc_keys(k)]
            cod = [target.from_terms(k - 1, {key_: 1})
                   for key_ in target.nbc_keys(k - 1)]
            cols = [target.dense(self.residue(rep, b), k - 1) for b in dom]
            lm = LinearMap(dom, cod, linalg.columns_matrix(cols))
            self._maps[key] = lm
        return lm

    def iota_map(self, rep, k: int) -> "LinearMap":
        key = ("iota", rep, k)
        lm = self._maps.get(key)
        if lm is None:
            src = self.deletion_algebra(rep)
            dom = [src.from_terms(k, {key_: 1}) for key_ in src.nbc_keys(k)]
            cod = [self.from_terms(k, {key_: 1}) for key_ in self.nbc_keys(k)]
            cols = [self.dense(self.iota(rep, b), k) for b in dom]
            lm = LinearMap(dom, cod, linalg.columns_matrix(cols))
            self._maps[key] = lm
        return lm

    # ---- reduced subalgebra ---------------------------------------------------

    def reduced_basis(self, k: int) -> list:
        """Basis of the degree-k part of the kernel/image of the boundary.

        Obtained as boundaries of NBC (k+1)-monomials, thinned to a maximal
        independent family (earliest candidates win).
        """
        cached = self._reduced.get(k)
        if cached is not None:
            return cached
        if k == 0:
            basis = [self.one()] if self.rank >= 0 else []
        elif k >= self.rank:
            basis = []
        else:
            candidates = [self.boundary(self.from_terms(k + 1, {key: 1}))
                          for key in self.nbc[k + 1]]
            vectors = [self.dense(c, k) for c in candidates]
            chosen = linalg.greedy_independent(vectors)
            basis = [candidates[i] for i in chosen]
        self._reduced[k] = basis
        return basis

    def reduced_dim(self, k: int) -> int:
        return len(self.reduced_basis(k))

    @cached_property
    def residue_stack(self) -> "_ResidueStack":
        return _ResidueStack(self)

    def coordinates_in(self, x: OSElement, basis: list) -> list | None:
        """Exact coordinates of x in the given basis, or None if outside."""
        if not basis:
            return [] if x.is_zero else None
        grade = basis[0].grade
        mat = linalg.columns_matrix([self.dense(b, grade) for b in basis])
        target = self.dense(x, grade)
        sol = linalg.solve(mat, target)
        if sol is None:
            return None
        check = linalg.mat_vec(mat, sol)
        return sol if check == target else None

    def inverse_boundary(self, y: OSElement) -> OSElement:
        """The unique top-grade element whose boundary is y."""
        r = self.rank
        if y.grade != r - 1:
            raise ValueError(f"expected grade {r - 1}, got {y.grade}")
        if not self.boundary(y).is_zero:
            raise ValueError("input is not boundary-closed")
        lm = self.boundary_map(r)
        sol = lm.solve(self.dense(y, r - 1))
        if sol is None:
            raise RuntimeError(
                "internal invariant violation: element not in the boundary "
                "image (suspect an invalid chirotope)")
        return self.from_dense(r, sol)


@dataclass
class LinearMap:
    """Exact map between graded pieces; columns = images of domain vectors."""

    domain_basis: list
    codomain_basis: list
    matrix: list

    def rank(self) -> int:
        return linalg.rank(self.matrix)

    def solve(self, target: list) -> list | None:
        if not self.matrix:
            return [] if not any(target) else None
        sol = linalg.solve(self.matrix, target)
        if sol is None:
            return None
        return sol if linalg.mat_vec(self.matrix, sol) == target else None


class _ResidueStack:
    """Stacked residue maps on the top reduced grade, with a left inverse.

    The joint residue map is injective there, so the stacked matrix has
    full column rank; a cached left inverse turns every canonical-form
    solve into a matrix-vector product plus a consistency check.  Canonical
    forms are integral, so the matrix is kept over int and the left inverse
    as an int matrix `left` over one positive denominator `denom`.
    """

    def __init__(self, alg: OSAlgebra):
        self.alg = alg
        r = alg.rank
        self.reduced = alg.reduced_basis(r - 1)
        rows: list = []
        self.blocks = []  # (atom, target algebra, whether it has rows)
        for a in alg.atoms:
            target = alg.residue_algebra(a)
            has_rows = bool(self.reduced) and target.dim(r - 2) > 0
            if has_rows:
                images = [target.dense(alg.residue(a, b), r - 2)
                          for b in self.reduced]
                rows.extend(linalg.columns_matrix(images))
            self.blocks.append((a, target, has_rows))
        if any(x.denominator != 1 for row in rows for x in row):
            raise RuntimeError("internal invariant violation: residue map "
                               "has non-integer entries")
        self.matrix = [[int(x) for x in row] for row in rows]
        # The reduced basis in NBC coordinates, one int row per element.
        self.basis = [[int(x) for x in alg.dense(b, r - 1)]
                      for b in self.reduced]
        self.left, self.denom = [], 1
        if self.reduced:
            left = linalg.left_inverse(rows)
            if left is None:
                raise RuntimeError(
                    "internal invariant violation: joint residue map is not "
                    "injective (suspect an invalid chirotope)")
            self.denom = lcm(*(x.denominator for row in left for x in row))
            self.left = [[x.numerator * (self.denom // x.denominator)
                          for x in row] for row in left]

    def solve(self, targets: dict) -> OSElement:
        """The top-reduced-grade element x with Res_a x = targets[a]."""
        r = self.alg.rank
        stacked: list = []
        for a, target, has_rows in self.blocks:
            if has_rows:
                stacked.extend(target.dense(targets[a], r - 2))
            elif not targets[a].is_zero:
                raise RuntimeError("internal invariant violation: "
                                   "inconsistent residue system")
        if any(v.denominator != 1 for v in stacked):
            raise RuntimeError("internal invariant violation: residue "
                               "targets have non-integer coordinates")
        stacked = [int(v) for v in stacked]
        nums = [sum(x * v for x, v in zip(row, stacked)) for row in self.left]
        if any(n % self.denom for n in nums):
            raise RuntimeError("internal invariant violation: canonical form "
                               "has non-integer coordinates")
        coeffs = [n // self.denom for n in nums]
        if [sum(x * c for x, c in zip(row, coeffs))
                for row in self.matrix] != stacked:
            raise RuntimeError(
                "internal invariant violation: residue system is "
                "inconsistent (suspect an invalid chirotope)")
        dense = [sum(c * row[j] for c, row in zip(coeffs, self.basis))
                 for j in range(self.alg.dim(r - 1))]
        return self.alg.from_dense(r - 1, dense)
