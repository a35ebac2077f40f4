"""The top-grade form of a tope read off its face lattice, with no residue
recursion: a second route to `nonreduced_canonical_form`.

Setting.  chi is an acyclic chirotope of rank r on the ground set E, T its
all-plus tope, M its matroid, and A the Orlik-Solomon algebra of M in NBC
coordinates: an NBC r-set K = (k_1 < ... < k_r) of atom representatives
names the basis monomial e_K of the top grade.  W(chi) in A^r is the form
the library computes: chi(()) in rank 0, and for r >= 1 the element with
Res_a W(chi) = W(chi/a) when the atom of a is a facet of T and 0 at every
other atom, which the boundary's injectivity on the top grade makes
unique.  Here chi/a contracts the atom of a with a evaluated last, so
(chi/a)(x_1, ..., x_(r-1)) = chi(x_1, ..., x_(r-1), a), and Res_a is the
residue of the deletion-restriction sequence: on a monomial of
representatives it drops a with the sign of moving it to the end, and
gives 0 when a is absent (`osalg._residue_key`).

Theorem.  The coefficient of e_K in W(chi) is chi(K) when every flat of
the chain F_r = cl{k_r} c F_(r-1) = cl{k_(r-1), k_r} c ... c F_1 = E is
the zero set of a face of T, and 0 otherwise.  The zero sets of the faces
of T are E and the intersections of the zero sets of the nonnegative
cocircuits.

Proof.
(a) Faces.  The faces of T are the nonnegative covectors.  Each is the
composition of the nonnegative cocircuits conformal to it, so its zero set
is the intersection of theirs; the zero covector gives E.

(b) Iterated residues.  For a chain F as above, let Res_F take the residue
at the atom F_r, then at the atom F_(r-1) of M/F_r, and so on down to rank
0.  On a monomial e_S of r representatives, each step keeps only the term
whose dropped element lies in the current atom, and two elements in one
atom of a contraction make the monomial vanish.  So Res_F e_S = 0 unless S
can be listed as (s_1, ..., s_r) with s_j in F_j - F_(j+1) (F_(r+1) empty).
For S = K and F = F_K, the chain of K, the ascending listing is one, and
each step drops the last element, so it contributes +1.

(c) Duality.  For NBC r-sets K and K', Res_(F_K) e_(K') is 1 if K' = K
and 0 otherwise.  Take a listing (s_1, ..., s_r) of K' as in (b) for the
chain of K; we show s_j = k_j, from j = r down.  Both s_r and k_r are the
representative of the atom F_r.  Given s_i = k_i for i > j, put x = k_j,
y = s_j and B = {k_(j+1), ..., k_r}, a basis of F_(j+1).  If x != y, then
B + x + y lies in F_j, of rank |B| + 1, so it holds a circuit C, which
contains x and y because B + x and B + y are independent.  Every element of
B exceeds x.  If x < y, C's least element is x and C - x lies in
B + y, inside K': a broken circuit in K'.  If y < x, C's least element is
y and C - y lies in B + x, inside K: a broken circuit in K.  Either way a
set is not NBC, so x = y.  Hence K' = K, listed ascending, which gives +1
by (b).  The same argument shows that k_j is the least representative in
F_j - F_(j+1), so the residue at the atom F_j of M/F_(j+1), taken at that
contraction's representative, is taken at k_j.

(d) Induction.  Claim: for a chain F_1 = E > ... > F_r of flats, F_j of
rank r - j + 1, and k_j the least element of F_j - F_(j+1), Res_F W(chi) =
chi(k_1, ..., k_r) if every F_j is the zero set of a face of T, else 0.
In rank 0 both sides are chi(()).  For r >= 1, the atom F_r of k_r is a
facet of T iff it is a face's zero set.  If not, Res_(k_r) W(chi) = 0.  If
so, Res_(k_r) W(chi) = W(chi/k_r), where chi/k_r is acyclic, its all-plus
tope is the facet of T at k_r, and its faces are the faces of T vanishing
on F_r, restricted to E - F_r (Bjoerner et al., Oriented Matroids, 3.3
and 4.1).  So F_j - F_r (j < r) is a face's zero set of chi/k_r iff F_j is
one of T, and the claim in rank r - 1 for the chain F_j - F_r gives
(chi/k_r)(k_1, ..., k_(r-1)) = chi(k_1, ..., k_r) or 0.  With (c), the
coefficient of e_K is Res_(F_K) W(chi), which the claim evaluates.
"""

from __future__ import annotations

from omcanon.signvec import ground_positions

from frozenset_matroid import UnderlyingMatroid as FrozensetMatroid


def face_zero_sets(chi) -> set:
    """Zero sets of the faces of the all-plus tope of an acyclic chi, as
    masks over ground positions: E and every intersection of the zero sets
    of the one-signed cocircuits (one sign of each is nonnegative)."""
    full = (1 << len(chi.ground)) - 1
    out = {full}
    for plus, minus in zip(*chi._hyperplanes):
        if bool(plus) != bool(minus):
            zero = full & ~(plus | minus)
            out |= {zero & z for z in out}
    return out


_CHAINS: dict = {}  # (ground, rank, support) -> `_nbc_chains`


def _nbc_chains(chi) -> list:
    """(K, masks of the flats cl{k_j, ..., k_r}, j = 1..r) over the NBC
    r-sets K of chi's matroid, kept per matroid: a reorientation keeps
    it."""
    key = (chi.ground, chi.rank, chi.support)
    chains = _CHAINS.get(key)
    if chains is None:
        m = FrozensetMatroid.from_chirotope(chi)
        pos = ground_positions(chi.ground)
        chains = _CHAINS[key] = [
            (k, [sum(1 << pos[e] for e in m.closure(k[j:]))
                 for j in range(chi.rank)])
            for k in m.nbc_sets(chi.rank)]
    return chains


def face_flag_form(chi) -> dict:
    """{K: chi(K)} over the NBC r-sets K whose chain of flats
    cl{k_j, ..., k_r}, j = 1..r, consists of face zero sets of the all-plus
    tope of the acyclic chi: the terms of its top-grade form."""
    faces = face_zero_sets(chi)
    return {key: chi.value(key) for key, flats in _nbc_chains(chi)
            if all(flat in faces for flat in flats)}
