import json
import os
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from omcanon import (Chirotope, OrientedMatroid, RationalMatrix, SignVector,
                     acyclicity_witness, canonical_form_from_triangulation,
                     canonical_form_tope, chamber_of, check_residue_axioms,
                     chirotope_from_matrix, interior_point,
                     nonreduced_canonical_form, placing_triangulation)
from omcanon import chirotope as chirotope_module
from omcanon import om as om_module
from omcanon.forms import _triangulation_sum
from omcanon.realization import _insertion, _place, _placing
from omcanon.serialize import parse_input
from omcanon.signvec import _labels, ground_positions

import fraction_linalg
import label_walk
from conftest import (FIXTURES, NONUNIFORM, SEEDED_CASES,
                      all_full_support_vectors, named_om, nonuniform_matrix,
                      oracle_topes, outcome, random_arrangements)


def test_chirotope_from_pentagon_matrix(pentagon_matrix):
    chi = chirotope_from_matrix(pentagon_matrix)
    assert chi.value((1, 2, 5)) == 1
    assert chi.value((1, 4, 5)) == -1
    assert chi.value((2, 3, 5)) == 1


def test_chirotope_from_identity():
    mat = RationalMatrix.from_rows((0, 1, 2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    chi = chirotope_from_matrix(mat)
    assert chi.value((0, 1, 2)) == 1


@pytest.mark.parametrize("name", list(NONUNIFORM) + ["arrangements"])
def test_chirotope_from_matrix_matches_minor_map(name):
    """The sign table equals the {basis: sign of its minor} map read back
    through from_map, on matrices with vanishing minors and string labels."""
    if name == "arrangements":
        mats = random_arrangements(3, seed=5)
    else:
        mats = [nonuniform_matrix(*NONUNIFORM[name])]
    mats += [RationalMatrix.from_rows(tuple(f"x{e}" for e in m.labels),
                                      m.rows) for m in mats]
    for mat in mats:
        # a minor, taken with its columns as rows (one determinant)
        minors = {key: fraction_linalg.det([mat.column(e) for e in key])
                  for key in combinations(mat.labels, mat.nrows)}
        assert chirotope_from_matrix(mat) == Chirotope.from_map(
            mat.labels, mat.nrows,
            {key: (m > 0) - (m < 0) for key, m in minors.items()})


# Column 1 is -4/3 times column 0 and column 4 is column 0 plus column 2,
# so some minors vanish; the denominators differ within every column.
MIXED_ROWS = [["1/2", "-2/3", "0", "3/4", "1/2", "-5/6"],
              ["1/3", "-4/9", "1", "-1/2", "4/3", "0"],
              ["-1/5", "4/15", "-2/7", "1", "-17/35", "3"]]


def test_chirotope_from_matrix_matches_fraction_minors():
    """Mixed denominators, negative entries and vanishing minors, and
    seeded rank-2 to rank-4 matrices of small fractions: each sign is that
    of the minor's determinant over Fraction."""
    rng = random.Random(7)
    mats = [RationalMatrix.from_rows(tuple("abcdef"), MIXED_ROWS)]
    for r in (2, 3, 4):
        for _ in range(4):
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                     for _ in range(r + 3)] for _ in range(r)]
            rows[0] = [x or Fraction(1, 3) for x in rows[0]]  # no zero column
            mats.append(RationalMatrix.from_rows(tuple(range(r + 3)), rows))
    zeros = 0
    for mat in mats:
        chi = chirotope_from_matrix(mat)
        for key, sign in zip(chi.keys, chi.signs):
            d = fraction_linalg.det([[row[mat.labels.index(e)] for e in key]
                                     for row in mat.rows])
            assert sign == (d > 0) - (d < 0)
            zeros += sign == 0
    assert chirotope_from_matrix(mats[0]).value(("a", "b", "c")) == 0
    assert zeros > 4


def test_rank_deficient_and_zero_column_rejected():
    with pytest.raises(ValueError, match="rank deficient"):
        chirotope_from_matrix(RationalMatrix.from_rows((0, 1), [[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="zero column"):
        chirotope_from_matrix(RationalMatrix.from_rows((0, 1), [[1, 0], [0, 0]]))


def test_chamber_of_pentagon(pentagon_matrix):
    assert chamber_of(pentagon_matrix, (0, 0, 1)).signs == (1, 1, 1, 1, 1)
    t = chamber_of(pentagon_matrix, (2, 0, 1))
    assert t.value(3) == -1  # third functional is -x + z
    with pytest.raises(ValueError, match="hyperplane"):
        chamber_of(pentagon_matrix, (1, 1, -1))  # on functional 1: x + z = 0


@pytest.mark.parametrize("point", [(0, 0), (1, 2, 3, 4, 5), ()])
def test_chamber_of_refuses_a_point_of_another_length(pentagon_matrix,
                                                      point):
    """A point is not cut to the rank, or padded to it."""
    with pytest.raises(ValueError, match=f"^point has {len(point)} "
                                         "coordinates, expected 3$"):
        chamber_of(pentagon_matrix, point)


FLOAT_INPUTS = {
    "constructor": lambda m: RationalMatrix(
        (0, 1, 2), ((0.1, 1, 0), (0, 1, 1))),
    "from_rows": lambda m: RationalMatrix.from_rows(
        (0, 1, 2), [[0.1, 1, 0], [0, 1, 1]]),
    "functional": lambda m: m.functional(1, (0.3, 0.7, 1)),
    "chamber_of": lambda m: chamber_of(m, (0, 0, 1.0)),
}


def test_a_matrix_built_on_a_list_is_the_tuple_one():
    """The labels are kept as a tuple: a matrix built on a list equals the
    tuple-built one and hashes alike (it once compared unequal, and hashing
    it raised TypeError on the unhashable list)."""
    a = RationalMatrix(("a", "b"), [[1, 2]])
    b = RationalMatrix(["a", "b"], [[1, 2]])
    assert type(b.labels) is tuple
    assert b == a and hash(b) == hash(a)
    assert RationalMatrix.from_rows(["a", "b"], [[1, 2]]) == a


@pytest.mark.parametrize("labels, repeat", [(("a", "a", "b"), "a"),
                                            ((0, 1, 2, 1, 0), 1)])
def test_repeated_labels_are_refused(labels, repeat):
    """A repeated label is refused, by the constructor and by `from_rows`,
    the first repeat in label order named as a chirotope's check names it.
    Such a matrix was once accepted: `placing_triangulation` then refused
    every insertion order as no permutation of the labels,
    `acyclicity_witness` found its witness no cocircuit, and `chamber_of`
    returned a sign vector over the repeated labels."""
    rows = [[1] * len(labels), list(range(len(labels)))]
    for build in (RationalMatrix, RationalMatrix.from_rows):
        with pytest.raises(ValueError) as err:
            build(labels, rows)
        assert str(err.value) == f"label {repeat!r} repeats an earlier label"


@pytest.mark.parametrize("entry", list(FLOAT_INPUTS))
def test_float_entries_are_refused(entry, pentagon_matrix):
    """No float enters a matrix or a point: Fraction(0.1) would keep its
    binary expansion, 3602879701896397/36028797018963968, as if it were
    exact."""
    with pytest.raises(TypeError, match="float"):
        FLOAT_INPUTS[entry](pentagon_matrix)


def test_exact_entries_still_enter(pentagon_matrix):
    """An int, a Fraction and a numeric string are exact, as matrix entries
    and as coordinates of a point."""
    mat = RationalMatrix.from_rows((0, 1, 2), [[1, Fraction(1, 2), "3/2"],
                                               ["-2", 0, 1]])
    assert mat.rows == ((1, Fraction(1, 2), Fraction(3, 2)), (-2, 0, 1))
    assert all(type(x) is Fraction for row in mat.rows for x in row)
    assert RationalMatrix(mat.labels, (("1", 0, 2), (0, Fraction(1, 2), 1))
                          ).rows == ((1, 0, 2), (0, Fraction(1, 2), 1))
    m = pentagon_matrix  # functional 1 is x + z
    assert m.functional(1, (1, "1/2", Fraction(3, 2))) == Fraction(5, 2)
    assert chamber_of(m, ("0", Fraction(0), 1)) == chamber_of(m, (0, 0, 1))


@pytest.mark.parametrize("case", ["other labels", "reordered labels",
                                  "shorter", "zero entry"])
def test_matrix_reorient_refuses_a_non_tope_vector(case, pentagon_matrix):
    """As `Chirotope.reorient`: the sign vector must be over the matrix's
    labels, in their order, with full support."""
    labels = pentagon_matrix.labels
    bad = {"other labels": SignVector(tuple(range(10, 15)), (1, -1, 1, 1, 1)),
           "reordered labels": SignVector(labels[::-1], (1, -1, 1, 1, 1)),
           "shorter": SignVector(labels[:3], (1, -1, 1)),
           "zero entry": SignVector(labels, (1, -1, 0, 1, 1))}[case]
    with pytest.raises(ValueError, match="^reorientation requires a "
                                         "full-support sign vector$"):
        pentagon_matrix.reorient(bad)


def test_matrix_reorient_matches_chirotope_reorient(pentagon_matrix,
                                                    pentagon_inf_matrix):
    """Negating the columns on the minus part reorients the chirotope."""
    for mat in (pentagon_matrix, pentagon_inf_matrix):
        chi = chirotope_from_matrix(mat)
        for t in all_full_support_vectors(mat.labels):
            assert chirotope_from_matrix(mat.reorient(t)) == chi.reorient(t)


def test_topes_match_sampled_chambers(pentagon_matrix, pentagon):
    for t in pentagon.topes:
        point = interior_point(pentagon_matrix, pentagon, t)
        assert chamber_of(pentagon_matrix, point) == t


def test_acyclicity_witness(pentagon_matrix, pentagon):
    w = acyclicity_witness(pentagon_matrix)
    assert all(pentagon_matrix.functional(e, w) > 0
               for e in pentagon_matrix.labels)
    nontope = SignVector(pentagon.ground, (1, -1, 1, -1, 1))
    assert nontope not in pentagon.topes
    flip = pentagon_matrix.reorient(nontope)
    with pytest.raises(ValueError, match="not acyclic"):
        acyclicity_witness(flip)


def test_placing_three_collinear_points():
    mat = RationalMatrix.from_rows((0, 1, 2), [[0, 1, 2], [1, 1, 1]])
    tri = placing_triangulation(mat)
    assert tri == [(0, 1), (1, 2)]


def test_placing_boolean_simplex():
    mat = RationalMatrix.from_rows((0, 1, 2),
                                   [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert placing_triangulation(mat) == [(0, 1, 2)]


def test_placing_rank1():
    mat = RationalMatrix.from_rows((0, 1), [[1, 2]])
    assert placing_triangulation(mat) == [(0,)]


def test_placing_rejects_nonacyclic(pentagon_matrix, pentagon):
    flip = pentagon_matrix.reorient(SignVector(pentagon.ground,
                                               (1, -1, 1, -1, 1)))
    with pytest.raises(ValueError, match="not acyclic"):
        placing_triangulation(flip)


def test_placing_requires_permutation(pentagon_matrix):
    with pytest.raises(ValueError, match="permutation"):
        placing_triangulation(pentagon_matrix, (1, 2, 3))
    with pytest.raises(ValueError, match="^unknown element label 'x'$"):
        placing_triangulation(pentagon_matrix, (1, 2, 3, 4, "x"))


def test_pentagon_insertion_orders_agree(pentagon_matrix, pentagon):
    plus = SignVector(pentagon.ground, (1,) * 5)
    expected = canonical_form_tope(pentagon, plus)
    rng = random.Random(11)
    orders = [list(pentagon.ground)]
    for _ in range(5):
        order = list(pentagon.ground)
        rng.shuffle(order)
        orders.append(order)
    for order in orders:
        tri = placing_triangulation(pentagon_matrix, order)
        assert (canonical_form_from_triangulation(pentagon.chi, tri)
                == expected)


def test_union_of_cones(pentagon_matrix, pentagon):
    chi = pentagon.chi
    tri = placing_triangulation(pentagon_matrix)
    rng = random.Random(2)
    witness = acyclicity_witness(pentagon_matrix)
    samples = [witness]
    for basis in tri:
        cols = [pentagon_matrix.column(e) for e in basis]
        samples.append([sum(c[i] for c in cols) for i in range(3)])
    for _ in range(10):
        coeffs = [Fraction(rng.randint(1, 5)) for _ in pentagon.ground]
        cols = [pentagon_matrix.column(e) for e in pentagon.ground]
        samples.append([
            sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(3)])
    pos = {e: i for i, e in enumerate(pentagon_matrix.labels)}
    for point in samples:
        # express the point as an extra column and reuse the sign tests
        labels = pentagon_matrix.labels + ("pt",)
        rows = tuple(tuple(row) + (point[i],)
                     for i, row in enumerate(pentagon_matrix.rows))
        ext = chirotope_from_matrix(RationalMatrix(labels, rows))
        strict = 0
        touching = 0
        for basis in tri:
            signs = label_walk.in_cone(ext, basis, "pt")
            if all(s > 0 for s in signs):
                strict += 1
            elif all(s >= 0 for s in signs):
                touching += 1
        assert strict + touching >= 1
        assert strict <= 1
        if touching == 0:
            assert strict == 1


def test_random_arrangements_are_valid():
    from omcanon import validate_chirotope
    mats = random_arrangements(3, seed=4)
    for mat in mats:
        chi = chirotope_from_matrix(mat)
        validate_chirotope(chi)
        om = OrientedMatroid(chi, validate=False)
        assert om.topes == oracle_topes(om)


@lru_cache(maxsize=1)
def _reference_witnessed_om(mat):
    """A fresh OrientedMatroid whose closure holds the all-plus tope, with
    its witness point checked; None when the configuration is cyclic.
    Memoized so the insertion orders of one matrix share the closure."""
    om = OrientedMatroid(chirotope_from_matrix(mat), validate=False)
    plus = SignVector(mat.labels, (1,) * len(mat.labels))
    if plus not in om.topes:
        return None
    interior_point(mat, om, plus)
    return om


def reference_placing_triangulation(mat, insertion_order=None) -> list:
    """The placing triangulation as it was before it read acyclicity off the
    chirotope: acyclicity from the covector closure of an OrientedMatroid,
    checked by an acyclicity witness."""
    om = _reference_witnessed_om(mat)
    if om is None:
        raise ValueError("configuration is not acyclic")
    chi = om.chi
    order = list(insertion_order if insertion_order is not None else mat.labels)
    if sorted(order, key=ground_positions(mat.labels).get) != list(mat.labels):
        raise ValueError("insertion order must be a permutation of the labels")
    pos = ground_positions(mat.labels)
    r = mat.nrows
    if r == 1:
        return [(order[0],)]
    core: list = []
    deferred: list = []
    for e in order:
        if len(core) < r and om.underlying.rank_of(set(core) | {e}) > len(core):
            core.append(e)
        else:
            deferred.append(e)
    if len(core) < r:
        raise ValueError("matrix is rank deficient")
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
            covered = any(all(s >= 0 for s in label_walk.in_cone(chi, b, p))
                          for b in simplices)
            if not covered:
                raise RuntimeError(
                    "degenerate placing: point beyond no facet yet outside "
                    "the hull; try another insertion order")
    return simplices


# Columns 2 and 5 are antiparallel and 0, 1, 4 lie in one plane.  Its extra
# insertion orders start with three dependent columns, so the core must skip
# a parallel element or a coplanar one.
PARALLEL6_ROWS = [[1, 0, 0, 1, 2, 0], [0, 1, 0, 1, 4, 0], [0, 0, 1, 1, 0, -3]]
PARALLEL6_ORDERS = [[2, 5, 0, 1, 3, 4], [4, 0, 1, 5, 3, 2]]


@pytest.mark.parametrize("name", ["pentagon", "pentagon_inf", "random6",
                                  "parallel6"])
def test_placing_matches_reference(name, request):
    """Every reorientation, default order plus 4 seeded insertion orders:
    equal simplex lists, or the same exception type and message, also from
    the chirotope entry point that `verify` uses."""
    orders = [None]
    if name == "random6":
        mat = random_arrangements(1, seed=6, min_lines=6, max_lines=6)[0]
    elif name == "parallel6":
        mat = RationalMatrix.from_rows(tuple(range(6)), PARALLEL6_ROWS)
        orders += PARALLEL6_ORDERS
    else:
        mat = request.getfixturevalue(f"{name}_matrix")
    rng = random.Random(3)
    for _ in range(4):
        order = list(mat.labels)
        rng.shuffle(order)
        orders.append(order)
    chi = chirotope_from_matrix(mat)
    acyclic = 0
    for x in all_full_support_vectors(mat.labels):
        flip = mat.reorient(x)
        for order in orders:
            got = outcome(placing_triangulation, flip, order)
            assert got == outcome(reference_placing_triangulation, flip, order)
            assert got == outcome(_placing, chi.reorient(x), order)
        acyclic += isinstance(got, list)
    assert 0 < acyclic < 2 ** len(mat.labels)


def verify_orders(labels, seed: int = 0) -> list:
    """The five insertion orders of `verify`'s triangulation suite."""
    rng = random.Random(seed)
    orders = [list(labels)]
    for _ in range(4):
        orders.append(list(labels))
        rng.shuffle(orders[-1])
    return orders


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_placing_matches_min_core(name, request):
    """On every tope's acyclic reorientation and `verify`'s five insertion
    orders, `_placing` equals the one whose core was a min over the
    nonzero keys: the same simplices, or the same error."""
    om = named_om(name, request)
    orders = verify_orders(om.ground)
    for x in om.sorted_topes():
        chi = om.chi.reorient(x)
        for order in orders:
            assert (outcome(_placing, chi, order)
                    == outcome(label_walk.placing, chi, order))


def test_verify_paths_build_no_covector_closure(pentagon_matrix, monkeypatch):
    """Tope tests, forms, residue checks and placing stay closure-free."""
    def closure(*args):
        raise AssertionError("covector closure built")
    monkeypatch.setattr(om_module, "_covector_closure", closure)
    om = OrientedMatroid(chirotope_from_matrix(pentagon_matrix))
    plus = SignVector(om.ground, (1,) * 5)
    om.require_tope(plus)
    canonical_form_tope(om, plus)
    assert all(check_residue_axioms(om, plus).values())
    assert placing_triangulation(pentagon_matrix)
    assert "covectors" not in om.__dict__
    assert "topes" not in om.__dict__


def test_placing_reads_no_labels(pentagon_inf_matrix, monkeypatch):
    """Facet and cone tests read circuits off the sign table by mask, never
    through `Chirotope.value`."""
    def no_value(self, seq):
        raise AssertionError("Chirotope.value called")

    orders = verify_orders(pentagon_inf_matrix.labels)
    expected = [label_walk.placing(chirotope_from_matrix(pentagon_inf_matrix),
                                   order) for order in orders]
    monkeypatch.setattr(Chirotope, "value", no_value)
    assert [placing_triangulation(pentagon_inf_matrix, order)
            for order in orders] == expected


@pytest.mark.parametrize("name", SEEDED_CASES)
def test_place_under_reorientation_matches_label_walk(name, request):
    """On every tope t and five seeded insertion orders, `_place` on the
    chirotope under t's minus mask equals the label walk's placing of the
    reorientation by t: the same simplices, or the same error."""
    om = named_om(name, request)
    orders = verify_orders(om.ground, seed=1)
    for t in om.sorted_topes():
        flip = om.chi.reorient(t)
        for order in orders:
            got = outcome(lambda: _place(om.chi, *_insertion(om.chi, order),
                                         t.minus))
            if isinstance(got, list):
                got = [_labels(om.ground, b) for b in got]
            assert got == outcome(label_walk.placing, flip, order)


@pytest.mark.parametrize("name", ["nonpappus", "nonpappus_ext10"])
def test_placing_sums_match_the_recursion_without_a_matrix(name):
    """On the non-realizable chirotope inputs, which have no matrix, the
    placing sum of every tope under three seeded insertion orders equals
    its non-reduced form from the residue solve: placing reads only
    the chirotope, and every acyclic oriented matroid has placing
    triangulations (Santos, Mem. AMS 741, 2002)."""
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        parsed = parse_input(json.load(fh))
    assert parsed.matrix is None
    om = OrientedMatroid(parsed.chi)
    orders = []
    for seed in range(3):
        orders.append(list(om.ground))
        random.Random(seed).shuffle(orders[-1])
    for t in om.sorted_topes():
        expected = nonreduced_canonical_form(om, t)
        for order in orders:
            tri = _place(om.chi, *_insertion(om.chi, order), t.minus)
            assert _triangulation_sum(om.chi, tri, t.minus) == expected


def test_placing_reads_each_circuit_once(pentagon, monkeypatch):
    """Placing every tope under every insertion order reads each circuit
    once, into the chirotope's circuit table, and `OrientedMatroid.circuits`
    reads the same table."""
    chi = Chirotope(pentagon.ground, pentagon.rank, pentagon.chi.signs)
    reads = []
    circuit = chirotope_module._circuit

    def counting(signs, index, s):
        reads.append(s)
        return circuit(signs, index, s)
    monkeypatch.setattr(chirotope_module, "_circuit", counting)
    orders = verify_orders(chi.ground)
    for t in pentagon.sorted_topes():
        for order in orders:
            _place(chi, *_insertion(chi, order), t.minus)
    assert sorted(reads) == sorted(chi._circuit_table)
    assert len(reads) == 5  # one per 4-subset of the 5 columns
    assert OrientedMatroid(chi).circuits == pentagon.circuits
    assert len(reads) == 5
