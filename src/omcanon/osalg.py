"""Orlik-Solomon algebra over exact rationals in NBC coordinates.

A coefficient is an int when it is integral and a `fractions.Fraction`
only when it is not; `_coeff` is the one gate every coefficient passes,
an `OSElement`'s own terms included: it refuses a float with TypeError.
Every straightening relation has coefficients +-1 and canonical forms are
integral, so canonical forms and their boundaries and residues run on
Python ints; only weighted forms such as Aomoto's carry Fractions.

Generators are atom representatives of the underlying matroid.  Monomials
on dependent sets vanish; an independent monomial that is not NBC is
rewritten by the relation (the boundary of a circuit monomial is zero) of
the circuit the NBC criterion names in it (`_rewrite_circuit`) until only
NBC monomials remain.  The rewrite replaces an element of the broken
circuit by the smaller circuit minimum, so the lexicographic position
strictly decreases and the process terminates; the result is the unique
NBC coordinate vector.  Every linear combination of monomials is
straightened as one sum, by `OSAlgebra.combination`: a tuple that is an
NBC key passes through; any other term reads its atoms' positions and
representatives from one table, `_rep_at`, takes the parity of their
inversions as its sign and adds the expansion of the sorted representatives,
memoized in `_straight_cache` only for keys some term had to straighten.

Boundary removes entries from the END of a monomial first:
    d e_(s1..sk) = sum_{i=0}^{k-1} (-1)^i e_(S minus s_{k-i}).
Residue at an atom a extracts a TRAILING e_a:
    Res_a e_(i1..i_{k-1}, a) = e_(i1..i_{k-1}),  Res_a e_I = 0 if a not in I.

The reduced algebra (the image of d) is read off the first atom a0, which
is first in ground order (Orlik-Terao, Arrangements of Hyperplanes,
3.1-3.2; Bjorner 1992, 7):
  - a0 is never in a broken circuit, since a circuit through a0 has
    minimum a0.  So every NBC basis K contains a0: otherwise K + a0 holds
    a circuit with minimum a0 whose broken part lies inside K.
  - d removes entries from the end, so the only term of d e_K (K an NBC
    k-set with K[0] = a0) without a0 is (-1)^(k-1) e_(K minus a0), and
    K -> K minus a0 is injective.  These boundaries are independent, one
    per NBC k-set containing a0, and they span the image of d.
  - Straightening e_a0 * e_J keeps a0 in every term, and every boundary y
    satisfies y = +-d(e_a0 * y): the top-grade lift of y reads the
    coefficients of y off the a0-free keys.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from ._memo import memo
from ._record import Record
from .chirotope import Chirotope, perm_parity_sign
from .linalg import _exact
from .matroid import UnderlyingMatroid
from .signvec import ground_positions


def os_algebra_for(matroid: UnderlyingMatroid) -> "OSAlgebra":
    """The algebra of the matroid, one per (ground, rank, support)."""
    return _algebra(*matroid.fingerprint)


def os_algebra_of_chirotope(chi: Chirotope) -> "OSAlgebra":
    """The algebra of chi's underlying matroid, found by its support."""
    return _algebra(chi.ground, chi.rank, chi.support)


@memo
def _algebra(ground: tuple, rank: int, support: int) -> "OSAlgebra":
    """The algebra of the matroid (ground, rank, support); the matroid is
    built only when no algebra for it is memoized yet."""
    return OSAlgebra(UnderlyingMatroid(ground, rank, support))


def _coeff(c):
    """c as a coefficient: an int when it is integral and a Fraction when
    not.  A value that is neither passes `_exact`, which refuses a float."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = _exact(c)
    return c.numerator if c.denominator == 1 else c


def _residue_key(key: tuple, a) -> tuple | None:
    """(rest, sign) with Res_a e_key = sign * e_rest, where rest is key
    minus its entry a = key[j] and sign = (-1)^(len(key)-1-j); None when a
    is not in key."""
    if a not in key:
        return None
    j = key.index(a)
    return key[:j] + key[j + 1:], (-1) ** (len(key) - 1 - j)


class OSElement:
    """A mutable value: equal iff of the same algebra (by identity), grade
    and terms, unhashable, and printed as its sum of terms."""

    def __init__(self, algebra: "OSAlgebra", grade: int, terms: dict):
        self.algebra = algebra
        self.grade = grade
        # ascending atom-rep tuple -> nonzero int, or Fraction when not
        # integral; every other value passes `_coeff`
        self.terms = {k: c for k, v in terms.items()
                      if (c := v if type(v) is int else _coeff(v))}

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
            terms[k] = terms.get(k, 0) + v
        return OSElement(self.algebra, self.grade, terms)

    def __sub__(self, other: "OSElement") -> "OSElement":
        return self + (-other)

    def __neg__(self) -> "OSElement":
        return OSElement(self.algebra, self.grade,
                         {k: -v for k, v in self.terms.items()})

    def scale(self, c) -> "OSElement":
        c = _coeff(c)
        return OSElement(self.algebra, self.grade,
                         {k: c * v for k, v in self.terms.items()})

    def __rmul__(self, c) -> "OSElement":
        return self.scale(c)

    def wedge(self, other: "OSElement") -> "OSElement":
        return self.algebra.wedge(self, other)

    @property
    def is_integral(self) -> bool:
        return all(type(v) is int for v in self.terms.values())

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
        self._pos = ground_positions(matroid.ground)
        # ground label -> (position of its atom representative, the
        # representative); empty in rank 0, where every element is a loop
        self._rep_at = {e: (self._pos[rep], rep) for rep, atom in
                        zip(self.atoms, matroid.atoms) for e in atom}
        self.nbc = {k: matroid.nbc_sets(k) for k in range(self.rank + 1)}
        self._nbc_pos = {k: {key: i for i, key in enumerate(keys)}
                         for k, keys in self.nbc.items()}
        self._straight_cache: dict = {}
        self._residue_algebras: dict = {}
        self._reduced: dict = {}

    def key_sort(self, key: tuple) -> tuple:
        return tuple(self._pos[a] for a in key)

    # ---- constructors ------------------------------------------------------

    def zero(self, grade: int) -> OSElement:
        return OSElement(self, grade, {})

    def one(self) -> OSElement:
        return OSElement(self, 0, {(): 1})

    def dim(self, k: int) -> int:
        return len(self.nbc.get(k, ()))

    def from_terms(self, grade: int, terms: dict) -> OSElement:
        for key in terms:
            if key not in self._nbc_pos.get(grade, {}):
                raise ValueError(f"{key} is not an NBC set of grade {grade}")
        return OSElement(self, grade, terms)

    def monomial(self, seq, coeff=1) -> OSElement:
        """e_seq straightened into NBC coordinates; seq lists ground elements."""
        seq = tuple(seq)
        return self.combination(len(seq), [(seq, coeff)])

    def combination(self, grade: int, pairs) -> OSElement:
        """sum of c * e_seq over the (seq, c) pairs, each seq any iterable of
        grade ground elements in any order, in NBC coordinates; a seq
        repeating an atom contributes zero, and an NBC key passes through."""
        terms: dict = {}
        nbc = self._nbc_pos.get(grade, {})
        for seq, c in pairs:
            c = _coeff(c)
            if type(seq) is tuple and seq in nbc:
                terms[seq] = terms.get(seq, 0) + c
            else:
                self._straighten_into(terms, grade, seq, c)
        return OSElement(self, grade, terms)

    # ---- straightening ------------------------------------------------------

    def _straighten(self, key: tuple) -> dict:
        """Expansion of e_key, an ascending tuple of distinct atom
        representatives, in NBC coordinates: zero when it is dependent, as
        the basis bitsets tell (`UnderlyingMatroid.is_independent`), and
        otherwise rewritten at the circuit the NBC criterion names
        (`UnderlyingMatroid._rewrite_circuit`).  The NBC coordinates are
        unique, so the expansion does not depend on that choice."""
        cached = self._straight_cache.get(key)
        if cached is not None:
            return cached
        if not self.matroid.is_independent(key):  # dependent: e_key = 0
            out: dict = {}
        elif key in self._nbc_pos[len(key)]:
            out = {key: 1}
        else:  # independent, not NBC: it holds a broken circuit
            out = self._rewrite(key, self.matroid._rewrite_circuit(key))
        self._straight_cache[key] = out
        return out

    def _rewrite(self, key: tuple, circuit: tuple) -> dict:
        """e_key by the relation of a circuit whose broken part lies in key.
        key must be independent, as `_straighten` checks first: then it
        cannot hold the whole circuit, so no replacement repeats an atom."""
        full = circuit[1:]  # the broken circuit, ascending
        rest = tuple(a for a in key if a not in full)
        sign_outer = perm_parity_sign(
            [self._pos[a] for a in full + rest])
        out: dict = {}
        for j in range(1, len(circuit)):
            # relation: e_full = sum_j (-1)^{j+1} e_{circuit minus c_j}
            repl = tuple(a for a in circuit if a != circuit[j])
            self._straighten_into(out, len(key), repl + rest,
                                  (-1) ** (j + 1) * sign_outer)
        return {k: v for k, v in out.items() if v != 0}

    def _straighten_into(self, terms: dict, grade: int, seq, c) -> None:
        """terms += c * e_seq in NBC coordinates, for grade ground elements
        seq in any order, signed by the inversions of their atoms' positions."""
        try:
            placed = [self._rep_at[e] for e in seq]
        except KeyError as exc:
            self.matroid.rep_of(exc.args[0])  # names the label, or its loop
            raise
        if len(placed) != grade:
            raise ValueError(f"expected {grade} entries, got {len(placed)}")
        positions = [p for p, _ in placed]
        if len(set(positions)) < grade:  # an atom repeats: e_seq = 0
            return
        c *= perm_parity_sign(positions)
        ordered = tuple(rep for _, rep in sorted(placed))
        for k, v in self._straighten(ordered).items():
            terms[k] = terms.get(k, 0) + c * v

    # ---- algebra operations --------------------------------------------------

    def _own(self, *elements: OSElement) -> None:
        """Refuse elements of another algebra."""
        if any(x.algebra is not self for x in elements):
            raise ValueError("context mismatch")

    def wedge(self, x: OSElement, y: OSElement) -> OSElement:
        self._own(x, y)
        return self.combination(x.grade + y.grade,
                                ((s + t, c * d) for s, c in x.terms.items()
                                 for t, d in y.terms.items()))

    def boundary(self, x: OSElement) -> OSElement:
        """d with removal from the END first; NBC sets are downward closed."""
        self._own(x)
        if x.grade == 0:
            return self.zero(0)
        terms: dict = {}
        for key, c in x.terms.items():
            k = len(key)
            for i in range(k):
                sub = key[:k - 1 - i] + key[k - i:]
                coeff = c * (-1) ** i
                terms[sub] = terms.get(sub, 0) + coeff
        return OSElement(self, x.grade - 1, terms)

    # ---- residue maps --------------------------------------------------------

    def residue_algebra(self, rep) -> "OSAlgebra":
        alg = self._residue_algebras.get(rep)
        if alg is None:
            alg = _algebra(*self.matroid.contraction_fingerprint(rep))
            self._residue_algebras[rep] = alg
        return alg

    def residue(self, rep, x: OSElement) -> OSElement:
        """Res at an atom; lands in the contraction's algebra (atoms may merge)."""
        if rep not in self.atoms:
            raise ValueError(f"{rep!r} is not an atom representative")
        self._own(x)
        pairs = ((_residue_key(key, rep), c) for key, c in x.terms.items()
                 if rep in key)
        return self.residue_algebra(rep).combination(
            x.grade - 1, ((rest, c * sign) for (rest, sign), c in pairs))

    # ---- reduced subalgebra ---------------------------------------------------

    def reduced_basis(self, k: int) -> list:
        """Basis of the degree-k part of the kernel/image of the boundary.

        The boundaries of the NBC (k+1)-monomials through the first atom a0,
        in lexicographic order.  Their a0-free terms are distinct, so they
        are independent; they span the image of d; and they come first among
        all NBC (k+1)-monomials, so they are the earliest-first maximal
        independent family of all those boundaries.  Grade 0 is spanned by
        1; a negative grade, like one from the rank up, has no basis.
        """
        cached = self._reduced.get(k)
        if cached is not None:
            return cached
        if k == 0:
            basis = [self.one()]
        elif not 0 < k < self.rank:
            basis = []
        else:
            a0 = self.atoms[0]
            basis = [self.boundary(self.from_terms(k + 1, {key: 1}))
                     for key in self.nbc[k + 1] if key[0] == a0]
        self._reduced[k] = basis
        return basis

    def reduced_dim(self, k: int) -> int:
        return len(self.reduced_basis(k))

    def coordinates_in(self, x: OSElement, basis: list) -> list | None:
        """Exact coordinates of x in the given basis, or None if outside."""
        self._own(x, *basis)
        grade = basis[0].grade if basis else x.grade
        for y in (*basis, x):
            if y.grade != grade:
                raise ValueError(f"expected grade {grade}, got {y.grade}")
        keys = self.nbc.get(grade, ())
        if not (basis and keys):  # no columns or no rows: x must be zero
            return None if x.terms else [0] * len(basis)
        # one row per NBC key of the grade, x's terms in the last column
        aug = linalg.columns_matrix([*(b.terms for b in basis), x.terms], keys)
        return linalg.solve([row[:-1] for row in aug],
                            [row[-1] for row in aug])

    def inverse_boundary(self, y: OSElement) -> OSElement:
        """The unique top-grade element whose boundary is y.

        Every NBC r-set K contains the first atom a0, and the a0-free term of
        d e_K is (-1)^(r-1) e_(K minus a0), so x_K = (-1)^(r-1) y_(K minus a0).
        """
        self._own(y)
        r = self.rank
        if y.grade != r - 1:
            raise ValueError(f"expected grade {r - 1}, got {y.grade}")
        if not self.boundary(y).is_zero:
            raise ValueError("input is not boundary-closed")
        sign = (-1) ** (r - 1)
        x = OSElement(self, r, {key: sign * y.terms[key[1:]]
                                for key in self.nbc[r] if key[1:] in y.terms})
        if self.boundary(x) != y:
            raise RuntimeError(
                "internal invariant violation: element not in the boundary "
                "image (suspect an invalid chirotope)")
        return x


class LinearMap(Record):
    """Exact map between graded pieces; columns = images of domain vectors.
    A mutable value: equal iff its three fields are, unhashable, printed as
    `LinearMap(domain_basis=..., codomain_basis=..., matrix=...)`."""

    _fields = ("domain_basis", "codomain_basis", "matrix")

    def __init__(self, domain_basis: list, codomain_basis: list,
                 matrix: list):
        self.domain_basis = domain_basis
        self.codomain_basis = codomain_basis
        self.matrix = matrix

    def rank(self) -> int:
        return len(linalg.greedy_independent(self.matrix))  # row rank

    def solve(self, target: list) -> list | None:
        if not self.matrix:  # no rows: the whole domain maps to zero
            return None if any(target) else [0] * len(self.domain_basis)
        return linalg.solve(self.matrix, target)
