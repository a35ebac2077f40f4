import json
import os
from fractions import Fraction

import pytest

from omcanon import (SignVector, algebra_of, aomoto, bounded_extension,
                     build_flag, canonical_form_tope, expand_in_basis,
                     graded_basis, perturbation_signature,
                     sample_weight_vectors, simplex_identity_check,
                     structure_constants, tq_basis)

import fraction_linalg as oracle
import label_walk
from conftest import (FIXTURES, NONUNIFORM, SEEDED_CASES, boolean_om,
                      count_bounded_topes, named_om, rank1_om,
                      random_arrangements, relabellings)
from omcanon import (Chirotope, Extension, Flag, OrientedMatroid,
                     aomoto_degree_ranks, chirotope_from_matrix)
from omcanon import (nonreduced_from_triangulation, placing_triangulation,
                     transport_to_base)
from omcanon import linalg
from omcanon.bases import _wedge_columns, _weight_form
from omcanon.osalg import OSElement
from omcanon.serialize import parse_input

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DATA_FILES = sorted(
    os.path.join(ROOT, folder, "data", f) for folder in ("demos", "tests")
    for f in os.listdir(os.path.join(ROOT, folder, "data"))
    if f.endswith(".json"))


def data_om(path: str) -> OrientedMatroid:
    with open(path, encoding="utf-8") as fh:
        return OrientedMatroid(parse_input(json.load(fh)).chi)


def test_perturbation_signature_default(line4):
    assert perturbation_signature(line4) == ((0, 1), (1, -1))


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_signatures_match_greedy_rank_queries(name, request):
    """The perturbation signature equals the rank-query greedy it replaced,
    for every base element."""
    om = named_om(name, request)
    for base in om.ground:
        assert (perturbation_signature(om, base)
                == label_walk.perturbation_signature(om, base))


def test_signatures_reject_unknown_base(line4):
    with pytest.raises(ValueError, match="^unknown element label 99$"):
        perturbation_signature(line4, 99)


def test_simplex_identity_rejects_unknown_label(line4):
    ext = bounded_extension(line4)
    with pytest.raises(ValueError, match="^unknown element label 9$"):
        simplex_identity_check(ext, (0, 9))


def test_tq_basis_line4(line4):
    alg = algebra_of(line4)
    ext = bounded_extension(line4, 0)
    pairs = tq_basis(ext)
    forms = {repr(f) for _, f in pairs}
    e = lambda i: alg.monomial((i,))
    assert forms == {repr(e(1) - e(0)), repr(e(2) - e(1)), repr(e(3) - e(2))}


def test_tq_basis_pentagon_rank(pentagon):
    ext = bounded_extension(pentagon, 1)
    pairs = tq_basis(ext)
    assert len(pairs) == algebra_of(pentagon).reduced_dim(2) == 6


def test_tq_basis_rank1():
    om = rank1_om((1,))
    ext = bounded_extension(om, 0)
    pairs = tq_basis(ext)
    assert len(pairs) == 1
    assert abs(next(iter(pairs[0][1].terms.values()))) == 1


def test_tq_basis_reads_the_extensions_own_oriented_matroid():
    """An extension of line4 reoriented by its fourth sorted tope gives the
    reorientation's 3 bounded-tope forms, two of them on topes that line4
    does not have: the extension is the one source of the stage's oriented
    matroid, so no second one can disagree with it."""
    line4 = data_om(os.path.join(ROOT, "demos", "data", "line4.json"))
    other = OrientedMatroid(line4.chi.reorient(line4.sorted_topes()[3]))
    ext = bounded_extension(other)
    pairs = tq_basis(ext)
    topes = sorted(ext.bounded_topes(), key=SignVector.sort_key)
    assert pairs == [(t, canonical_form_tope(other, t)) for t in topes]
    assert [line4.is_tope(t) for t in topes] == [False, False, True]


@pytest.mark.parametrize("case", SEEDED_CASES + DATA_FILES,
                         ids=os.path.basename)
def test_tq_basis_is_level_one_of_the_flag(case, request):
    """`tq_basis` of `bounded_extension` and level 1 of `build_flag` give
    the same topes and forms, in the same order."""
    om = data_om(case) if case in DATA_FILES else named_om(case, request)
    assert tq_basis(bounded_extension(om)) == graded_basis(build_flag(om), 1)


def test_simplex_identity_line4_instance(line4):
    # basis {i, j} with i < j < 3 sums the forms of the topes between them
    alg = algebra_of(line4)
    ext = bounded_extension(line4, 0)
    e = lambda i: alg.monomial((i,))
    result = simplex_identity_check(ext, (0, 2))
    assert result["passed"]
    assert result["lhs"] == e(2) - e(0)
    assert len(result["topes"]) == 2


def test_simplex_identity_exhaustive(line4, pentagon):
    for om, base in ((line4, 0), (pentagon, 1)):
        ext = bounded_extension(om, base)
        for basis in om.chi.nonzero_keys:
            assert simplex_identity_check(ext, basis)["passed"], basis


def test_simplex_identity_boolean():
    om = boolean_om(2)
    ext = bounded_extension(om, 0)
    result = simplex_identity_check(ext, (0, 1))
    assert result["passed"]
    assert len(result["topes"]) == 1  # the unique bounded tope of a simplex


@pytest.mark.parametrize("name", ["line4", "pentagon", "pentagon_inf",
                                  "nonpappus"])
def test_simplex_identity_builds_no_oriented_matroid(name, request,
                                                     monkeypatch):
    """On every basis, in both orders, the check passes, sums the topes
    that agree in sign with the fundamental circuit on the basis, and
    builds no OrientedMatroid."""
    om = request.getfixturevalue(name)
    ext = bounded_extension(om)
    topes = om.sorted_topes()
    builds = []
    init = OrientedMatroid.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OrientedMatroid, "__init__", counting_init)
    for key in om.chi.nonzero_keys:
        for basis in (key, key[::-1]):
            result = simplex_identity_check(ext, basis)
            circuit = ext.fundamental_circuit(basis)
            assert result["passed"], basis
            assert result["topes"] == [
                t for t in topes
                if all(t.value(e) == circuit.value(e) for e in basis)]
    assert builds == []


def test_build_flag_ranks(line4, pentagon):
    flag4 = build_flag(line4)
    assert [s.om.rank for s in flag4.stages] == [2, 1]
    flag5 = build_flag(pentagon)
    assert [s.om.rank for s in flag5.stages] == [3, 2, 1]
    for stage in flag5.stages:
        assert stage.om.ground == pentagon.ground


def test_build_flag_boolean():
    flag = build_flag(boolean_om(2))
    assert [s.om.rank for s in flag.stages] == [2, 1]


def test_a_flag_is_not_assembled_from_stages(pentagon):
    """Stage 0 of the pentagon's flag with the later stages of the flag of
    the pentagon reoriented by its sixth sorted tope passed the basis
    check at levels 2 and 3 with topes and forms that are not the
    pentagon's.  A flag takes its oriented matroid alone and builds its
    stages, so that mixed flag cannot be written."""
    other = OrientedMatroid(pentagon.chi.reorient(pentagon.sorted_topes()[5]))
    f, g = build_flag(pentagon), build_flag(other)
    with pytest.raises(AttributeError):
        Flag((f.stages[0], g.stages[1], g.stages[2]))
    assert graded_basis(g, 2) != graded_basis(f, 2)
    assert graded_basis(Flag(pentagon), 2) == graded_basis(f, 2)


def test_flags_of_one_oriented_matroid_are_equal(line4, pentagon):
    """A flag compares by its oriented matroid, by identity as an
    extension compares its base; two builds of one flag are equal."""
    for om in (line4, pentagon):
        flag, again = Flag(om), build_flag(om)
        assert flag == again and hash(flag) == hash(again)
        assert flag != Flag(OrientedMatroid(om.chi))


def test_extension_is_lex_extension(line4, pentagon):
    """`Extension(om, label, signature)` builds what `lex_extension` does,
    and refuses what it refuses."""
    for om in (line4, pentagon):
        sig = perturbation_signature(om)
        ext, lex = Extension(om, "p", sig), om.lex_extension(sig, "p")
        assert ext == lex and ext.chi_ext == lex.chi_ext
        assert ext.chi_ext == label_walk.lex_extension(om, sig, "p")
    with pytest.raises(ValueError, match="already in the ground set"):
        Extension(line4, 0, perturbation_signature(line4))
    with pytest.raises(ValueError, match="must form a basis"):
        Extension(line4, "q", ((0, 1), (0, -1)))


def test_graded_basis_line4(line4):
    flag = build_flag(line4)
    level1 = graded_basis(flag, 1)
    assert len(level1) == 3
    level2 = graded_basis(flag, 2)
    assert len(level2) == 1
    coeffs = list(level2[0][1].terms.values())
    assert len(coeffs) == 1 and abs(coeffs[0]) == 1


def test_graded_basis_pentagon_dims(pentagon):
    alg = algebra_of(pentagon)
    flag = build_flag(pentagon)
    for k in (1, 2, 3):
        pairs = graded_basis(flag, k)
        assert len(pairs) == alg.reduced_dim(pentagon.rank - k)
        for _, f in pairs:
            assert f.is_integral


def test_graded_basis_boolean_rank2():
    flag = build_flag(boolean_om(2))
    assert len(graded_basis(flag, 1)) == 1
    assert len(graded_basis(flag, 2)) == 1


def test_graded_dims_match_bounded_counts(pentagon, pentagon_inf):
    # each flag level's tope count equals the reduced dimension it spans
    for om in (pentagon, pentagon_inf):
        alg = algebra_of(om)
        flag = build_flag(om)
        for k in range(1, om.rank + 1):
            topes = flag.stages[k - 1].ext.bounded_topes()
            assert len(topes) == alg.reduced_dim(om.rank - k)


def lifted_transport(base_alg, form):
    """`transport_to_base` before it kept the form's coordinates: lift
    through the inverse boundary of the stage's top grade, straighten the
    lift in the base algebra and take its boundary."""
    stage_alg = form.algebra
    if stage_alg is base_alg:
        return form
    lift = stage_alg.inverse_boundary(form)
    return base_alg.boundary(base_alg.combination(lift.grade,
                                                  lift.terms.items()))


@pytest.mark.parametrize("name", FIXTURES + list(NONUNIFORM))
def test_transport_matches_lift(name, request):
    """On every level of the flag, the form of every tope of the stage is
    carried to the same element as the lift carries it to."""
    om = named_om(name, request)
    base_alg = algebra_of(om)
    for stage in build_flag(om).stages:
        for t in stage.om.topes:
            form = canonical_form_tope(stage.om, t)
            assert (transport_to_base(base_alg, form)
                    == lifted_transport(base_alg, form))


def test_transport_refuses_other_grounds_and_top_grades(line4, pentagon):
    """A form on another ground tuple, the same labels reordered included,
    and a form in the top grade of its algebra have no coordinates to
    keep."""
    alg = algebra_of(line4)
    reordered = OrientedMatroid(Chirotope(line4.ground[::-1], line4.rank,
                                          line4.chi.signs))
    for om in (pentagon, reordered):
        form = canonical_form_tope(om, om.sorted_topes()[0])
        with pytest.raises(ValueError, match="^the form lives on another "
                                             "ground set$"):
            transport_to_base(alg, form)
    with pytest.raises(ValueError, match="^grade 2 is not below the rank 2 "
                                         "of the form's algebra$"):
        transport_to_base(alg, alg.monomial((0, 1)))


def test_expand_in_basis_roundtrip(pentagon):
    alg = algebra_of(pentagon)
    flag = build_flag(pentagon)
    basis = graded_basis(flag, 1)
    x = canonical_form_tope(pentagon, SignVector(pentagon.ground, (1,) * 5))
    coords = expand_in_basis(x, basis)
    rebuilt = alg.zero(2)
    for c, (_, f) in zip(coords, basis):
        rebuilt = rebuilt + c * f
    assert rebuilt == x


def test_expand_outside_span_raises(line4):
    alg = algebra_of(line4)
    basis = [alg.monomial((0,)) - alg.monomial((1,))]
    with pytest.raises(RuntimeError, match="outside"):
        expand_in_basis(alg.monomial((2,)), basis)


def test_structure_constants_rank2_product_vanishes(line4):
    flag = build_flag(line4)
    level1 = graded_basis(flag, 1)
    coords = structure_constants(level1, [], 0, 1)
    assert coords == []  # grade-2 reduced part of a rank-2 algebra is zero


def test_structure_constants_pentagon_integral(pentagon):
    flag = build_flag(pentagon)
    grade1 = graded_basis(flag, 2)   # grade-1 forms
    grade2 = graded_basis(flag, 1)   # grade-2 forms
    for i in range(len(grade1)):
        for j in range(len(grade1)):
            coords = structure_constants(grade1, grade2, i, j)
            assert all(c.denominator == 1 for c in coords)


def test_aomoto_line4(line4):
    report = aomoto(line4, {1: 1, 2: 1, 3: 1}, base=0)
    assert report.dim_h == 2 == report.beta
    assert report.is_generic
    forms = {repr(f) for f in report.basis_forms}
    alg = algebra_of(line4)
    e = lambda i: alg.monomial((i,))
    assert forms == {repr(e(2) - e(1)), repr(e(3) - e(2))}

    degenerate = aomoto(line4, {1: 1, 2: 1, 3: -2}, base=0)
    assert degenerate.dim_h == 2
    assert not degenerate.v_spans and not degenerate.is_generic


def test_aomoto_ranks_match_two_eliminations(request, monkeypatch):
    """dim_h and v_spans, read off one elimination of the image columns
    followed by the bounded-tope columns, equal an oracle that ranks the
    image and the combined columns in two separate Fraction eliminations.
    The weights are the sampled ones and one summing to zero, which makes
    the base's weight vanish."""
    def oracle_rank(cols, keys):
        return len(oracle.rref(linalg.columns_matrix(cols, keys))[1])

    calls = []
    greedy = linalg.greedy_independent

    def counting(vectors):
        calls.append(len(vectors))
        return greedy(vectors)

    monkeypatch.setattr(linalg, "greedy_independent", counting)
    spans = set()
    for name in FIXTURES + list(NONUNIFORM) + ["uniform_r4"]:
        om = named_om(name, request)
        base, others = om.ground[0], om.ground[1:]
        zero_sum = {e: i + 1 for i, e in enumerate(others)}
        zero_sum[others[-1]] = -sum(range(1, len(others)))
        alg, r = algebra_of(om), om.rank
        top = alg.reduced_basis(r - 1)
        for weights in sample_weight_vectors(om, base, seed=0) + [zero_sum]:
            calls.clear()
            report = aomoto(om, weights, base=base)
            assert len(calls) == 1, name
            omega = _weight_form(alg, weights, base)
            image = _wedge_columns(alg, omega, r - 2) if r >= 2 else []
            v_cols = [f.terms for f in report.basis_forms]
            image_rank = oracle_rank(image, alg.nbc[r - 1])
            combined_rank = oracle_rank(image + v_cols, alg.nbc[r - 1])
            assert report.dim_h == len(top) - image_rank, (name, weights)
            assert report.v_spans == (
                combined_rank == len(top)
                and image_rank + len(v_cols) == len(top)), (name, weights)
            spans.add(report.v_spans)
    assert spans == {True, False}


def test_aomoto_weight_validation(line4):
    with pytest.raises(ValueError, match="weights"):
        aomoto(line4, {1: 1, 2: 1}, base=0)


def test_aomoto_refuses_float_weights(line4):
    with pytest.raises(TypeError, match="float"):
        aomoto(line4, {1: 1, 2: 0.5, 3: 1}, base=0)


@pytest.mark.parametrize("weight", [0.5, float("nan"), float("inf")],
                         ids=["half", "nan", "inf"])
def test_float_weights_fail_at_first_use(pentagon, weight):
    """A float weight is refused as a float before any weight is summed,
    not first converted to its binary expansion (Fraction(nan) raises
    ValueError, Fraction(inf) OverflowError)."""
    weights = {2: 1, 3: weight, 4: "1/2", 5: 1}
    for fn in (aomoto, aomoto_degree_ranks):
        with pytest.raises(TypeError, match="float"):
            fn(pentagon, weights, base=1)


def test_weight_form_coefficients(pentagon):
    """omega has int coefficients where the weights are integral and
    Fraction ones only where they are not."""
    alg = algebra_of(pentagon)
    omega = _weight_form(alg, {2: Fraction(3, 2), 3: "1/2", 4: 2,
                               5: Fraction(6, 3)}, 1)
    assert omega.terms == {(1,): -6, (2,): Fraction(3, 2),
                           (3,): Fraction(1, 2), (4,): 2, (5,): 2}
    assert [type(omega.terms[(e,)]) for e in pentagon.ground] == [
        int, Fraction, Fraction, int, int]


def test_aomoto_rank1():
    om = rank1_om((1, 1))
    report = aomoto(om, {1: Fraction(1, 2)}, base=0)
    assert report.dim_h == report.beta == 1
    assert report.is_generic


def test_aomoto_t0_subset_tq(line4, pentagon, pentagon_inf):
    for om, base in ((line4, 0), (pentagon, 1), (pentagon_inf, 0)):
        ext = bounded_extension(om, base)
        assert om.bounded_topes(base) <= ext.bounded_topes()


def test_aomoto_pentagon_generic_sample(pentagon_inf):
    base = 0
    found = False
    for weights in sample_weight_vectors(pentagon_inf, base, seed=0):
        report = aomoto(pentagon_inf, weights, base=base)
        if report.is_generic:
            found = True
            assert report.dim_h == pentagon_inf.underlying.beta()
            break
    assert found


def test_tq_rank_assertions_on_random_arrangements():
    # twenty random instances: bounded forms span with exact full rank
    for mat in random_arrangements(20, seed=13, min_lines=5, max_lines=8):
        om = OrientedMatroid(chirotope_from_matrix(mat), validate=False)
        alg = algebra_of(om)
        flag = build_flag(om)
        for k in range(1, om.rank + 1):
            pairs = graded_basis(flag, k)  # raises on rank deficiency
            assert len(pairs) == alg.reduced_dim(om.rank - k)


def test_aomoto_degree_ranks_diagnostic(pentagon):
    weights = {e: Fraction(e) for e in pentagon.ground if e != 1}
    ranks = aomoto_degree_ranks(pentagon, weights, base=1)
    assert len(ranks) == pentagon.rank - 1
    alg = algebra_of(pentagon)
    for k, r in enumerate(ranks):
        assert 0 <= r <= min(alg.reduced_dim(k), alg.reduced_dim(k + 1))


@pytest.mark.parametrize("weights", [{2: 1},
                                     {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}],
                         ids=["missing", "base"])
def test_aomoto_degree_ranks_weight_validation(pentagon, weights):
    """Weights that miss an element or weigh the base are refused with
    the same error as in `aomoto`, not read as 0."""
    with pytest.raises(ValueError, match="weights") as want:
        aomoto(pentagon, weights, base=1)
    with pytest.raises(ValueError, match="weights") as got:
        aomoto_degree_ranks(pentagon, weights, base=1)
    assert str(got.value) == str(want.value)


def test_aomoto_computes_bounded_topes_once(pentagon, monkeypatch):
    """The report's T^0 is the one bounded-tope query aomoto makes; it
    builds no extension."""
    weights = sample_weight_vectors(pentagon, 1)[0]
    counts = count_bounded_topes(monkeypatch)
    report = aomoto(pentagon, weights, base=1)
    assert counts == {"om": 1, "ext": 0}
    assert set(report.bounded_topes) == pentagon.bounded_topes(1)


def test_aomoto_needs_no_extension(pentagon, monkeypatch):
    """With no extension to be built, aomoto still gives its whole report,
    while bounded_extension reports the failed build."""
    weights = sample_weight_vectors(pentagon, 1)[0]
    want = aomoto(pentagon, weights, base=1)

    def failing(self, signature, label="q"):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(OrientedMatroid, "lex_extension", failing)
    assert aomoto(pentagon, weights, base=1) == want
    assert want.is_generic and len(want.bounded_topes) == want.beta
    with pytest.raises(RuntimeError, match="^forced failure$"):
        bounded_extension(pentagon, 1)


@pytest.mark.parametrize("name", SEEDED_CASES + ["line4_q"])
def test_perturbation_extension_is_bounded_and_general(name, request):
    """The argument of `bounded_extension` and `Flag`, on every labelling:
    at every base element the extension by the perturbation signature
    keeps T^0 bounded, and every stage of the flag is built by its
    perturbation signature.  The label is q, primed past the ground.  The
    flag's stage 0 is over its own oriented matroid, and each later stage
    over the contraction of the previous stage's extension by its q."""
    for chi in relabellings(named_om(name, request).chi):
        om = OrientedMatroid(chi)
        for base in om.ground:
            ext = bounded_extension(om, base)
            assert ext.signature == perturbation_signature(om, base)
            assert om.bounded_topes(base) <= ext.bounded_topes()
            assert ext.label == ("q'" if "q" in om.ground else "q")
        stages = Flag(om).stages
        assert stages[0].om is om and len(stages) == om.rank
        for stage in stages:
            assert stage.ext.signature == perturbation_signature(stage.om)
        for prev, stage in zip(stages, stages[1:]):
            assert (stage.om.chi
                    == prev.ext.om_ext.contract(prev.ext.label).chi)


def test_bounded_extension_raises_on_lost_bounded_tope(request,
                                                       monkeypatch):
    """An extension that lost a T^0 tope is an error naming the base, and
    no other signature is tried."""
    om = named_om("line4_q", request)
    calls = []
    lex_extension = OrientedMatroid.lex_extension

    def counting(self, signature, *args):
        calls.append(signature)
        return lex_extension(self, signature, *args)

    monkeypatch.setattr(OrientedMatroid, "lex_extension", counting)
    monkeypatch.setattr(Extension, "bounded_topes", lambda self: frozenset())
    with pytest.raises(RuntimeError, match="^no perturbation of 'q' kept "
                                           "the bounded topes bounded$"):
        bounded_extension(om, "q")
    assert calls == [perturbation_signature(om, "q")]


def test_library_sums_add_no_elements(pentagon, pentagon_matrix, monkeypatch):
    """wedge, residue, the triangulation sum, transport, the weight form and
    the simplex identity each build their sum in one straightened pass."""
    calls = []
    add = OSElement.__add__

    def counting_add(self, other):
        calls.append(other)
        return add(self, other)

    monkeypatch.setattr(OSElement, "__add__", counting_add)
    alg = algebra_of(pentagon)
    alg.monomial((1,)) + alg.monomial((2,))  # the counter sees calls
    assert len(calls) == 1
    calls.clear()
    alg.wedge(alg.monomial((1,)), alg.monomial((2, 3)))
    alg.residue(alg.atoms[0], alg.monomial((1, 2, 3)))
    nonreduced_from_triangulation(pentagon.chi,
                                  placing_triangulation(pentagon_matrix))
    flag = build_flag(pentagon)
    stage = flag.stages[1]
    form = canonical_form_tope(stage.om, sorted(stage.ext.bounded_topes(),
                                                key=SignVector.sort_key)[0])
    assert form.algebra is not alg
    transport_to_base(alg, form)
    aomoto(pentagon, sample_weight_vectors(pentagon, 1)[0], base=1)
    ext = bounded_extension(pentagon)
    for basis in pentagon.chi.nonzero_keys:
        simplex_identity_check(ext, basis)
    assert calls == []
