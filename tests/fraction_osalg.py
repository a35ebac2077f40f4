"""Reference straightening over `fractions.Fraction`.

This is the library's earlier Orlik-Solomon arithmetic, in which every
coefficient, the straightening seeds included, was a `Fraction`.  It is
kept as the oracle that the int-coefficient kernel of `omcanon.osalg` is
compared against.  A `FractionAlgebra` reads the matroid and the ground
positions of an `OSAlgebra` and nothing else; it rewrites at the first
broken circuit of the label-frozenset oracle (`oracle_broken_circuits`),
so it does not depend on the circuit the library rewrites at.  Its
elements are (grade, terms) pairs with `Fraction` values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from omcanon.chirotope import perm_parity_sign

from frozenset_matroid import UnderlyingMatroid as FrozensetMatroid


@lru_cache(maxsize=None)
def oracle_broken_circuits(fingerprint: tuple) -> tuple:
    """The (broken circuit, circuit) pairs, shortest first, of the
    label-frozenset oracle of a library matroid's fingerprint."""
    return FrozensetMatroid.from_fingerprint(*fingerprint).broken_circuits()


class FractionAlgebra:
    def __init__(self, alg):
        self.alg = alg
        self.matroid = alg.matroid
        self._pos = alg._pos
        self._straight_cache: dict = {}

    def _straighten(self, key: tuple) -> dict:
        cached = self._straight_cache.get(key)
        if cached is not None:
            return cached
        if self.matroid.rank_of(key) < len(key):  # dependent: e_key = 0
            out: dict = {}
        else:
            key_set = frozenset(key)
            hit = next((pair for pair in oracle_broken_circuits(
                self.matroid.fingerprint) if pair[0] <= key_set), None)
            out = {key: Fraction(1)} if hit is None else self._rewrite(key, *hit)
        self._straight_cache[key] = out
        return out

    def _rewrite(self, key: tuple, broken: frozenset, circuit: tuple) -> dict:
        rest = tuple(a for a in key if a not in broken)
        full = circuit[1:]
        sign_outer = perm_parity_sign([self._pos[a] for a in full + rest])
        out: dict = {}
        for j in range(1, len(circuit)):
            repl = tuple(a for a in circuit if a != circuit[j])
            self._straighten_into(out, repl + rest,
                                  Fraction((-1) ** (j + 1) * sign_outer))
        return {k: v for k, v in out.items() if v != 0}

    def _straighten_into(self, terms: dict, reps: tuple, c: Fraction) -> None:
        positions = [self._pos[a] for a in reps]
        c *= perm_parity_sign(positions)
        ordered = tuple(a for _, a in sorted(zip(positions, reps)))
        for k, v in self._straighten(ordered).items():
            terms[k] = terms.get(k, 0) + c * v

    def combination(self, grade: int, pairs) -> tuple:
        terms: dict = {}
        for seq, c in pairs:
            c = Fraction(c)
            reps = tuple(self.matroid.rep_of(e) for e in seq)
            assert len(reps) == grade
            if len(set(reps)) == len(reps):
                self._straighten_into(terms, reps, c)
        return grade, {k: v for k, v in terms.items() if v != 0}

    def boundary(self, x: tuple) -> tuple:
        grade, x_terms = x
        if grade == 0:
            return 0, {}
        terms: dict = {}
        for key, c in x_terms.items():
            k = len(key)
            for i in range(k):
                sub = key[:k - 1 - i] + key[k - i:]
                terms[sub] = terms.get(sub, Fraction(0)) + c * (-1) ** i
        return grade - 1, {k: v for k, v in terms.items() if v != 0}

    def wedge(self, x: tuple, y: tuple) -> tuple:
        return self.combination(x[0] + y[0], [
            (s + t, c * d) for s, c in x[1].items() for t, d in y[1].items()])

    def residue(self, rep, x: tuple) -> tuple:
        """Res at rep, in the oracle of the contraction's algebra."""
        pairs = []
        for key, c in x[1].items():
            if rep in key:
                j = key.index(rep)
                pairs.append((key[:j] + key[j + 1:],
                              c * (-1) ** (len(key) - 1 - j)))
        return FractionAlgebra(self.alg.residue_algebra(rep)).combination(
            x[0] - 1, pairs)

    def document(self, x: tuple) -> dict:
        """The earlier `serialize.oselement_to_document` of x."""
        grade, terms = x
        return {"grade": grade,
                "terms": {",".join(str(a) for a in key): str(Fraction(terms[key]))
                          for key in sorted(terms, key=self.alg.key_sort)}}
