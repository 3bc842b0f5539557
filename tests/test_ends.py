from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_ends import (
    INFINITY,
    AllNegative,
    AllPositive,
    Alternating,
    AlternatingForm,
    AttainedInvariant,
    EndDescription,
    EventuallySign,
    ExtendsByConstruction,
    InfiniteDivision,
    InfiniteRotativity,
    MinimallyTwisting,
    NonMinimallyTwisting,
    NoTightExtension,
    Periodic,
    PosFinite,
    QuadraticTarget,
    RationalTarget,
    RotativeLayers,
    SignData,
    TorusRecord,
    Unknown,
    admissible,
    classify,
    division_at_infinity,
    decompose,
    equivalent,
    extension_obstruction,
    farey_sequence,
    non_extendable_family,
    parse_slope,
    slope_at_infinity,
    validate,
)
from toric_ends.ends import (
    BASE_SLOPE,
    ConstantDivision,
    EventuallyConstantDivision,
    StrictlyIncreasingDivision,
    basis_change,
    normalized_target,
)
from toric_ends.errors import UndecidableError, ValidationError
from toric_ends.farey import FareyPath

from oracles import circular_census, gl2z_inverse

MINUS_SQRT2 = QuadraticTarget.of(0, -1, 1, 2)
P, N = 1, -1


def S(text):
    return parse_slope(text)


def end(target, signs, boundary="-1", division_tail=None, rotative=RotativeLayers(1, 0)):
    return EndDescription(
        TorusRecord(S(boundary), 1), target, signs,
        division_tail or ConstantDivision(1), rotative)


# ---------------------------------------------------------------------------
# section-3 invariants of descriptions


def test_slope_at_infinity_round_trip():
    e = end(MINUS_SQRT2, SignData((), AllPositive()))
    assert slope_at_infinity(e) == MINUS_SQRT2
    e2 = end(RationalTarget(INFINITY, False), SignData((), Alternating()))
    assert slope_at_infinity(e2) == RationalTarget(INFINITY, False)


def test_slope_at_infinity_attained_with_division():
    e = end(RationalTarget(S("-3"), True), SignData((P, P)),
            division_tail=EventuallyConstantDivision(3, 2, (5, 4, 3)))
    assert slope_at_infinity(e) == RationalTarget(S("-3"), True)
    assert division_at_infinity(e) == 2


def test_division_at_infinity_rules():
    e = end(MINUS_SQRT2, SignData((), AllPositive()))
    assert division_at_infinity(e) == 1
    e3 = end(RationalTarget(S("-1"), True), SignData(()),
             division_tail=StrictlyIncreasingDivision())
    assert division_at_infinity(e3) is None


def test_is_minimally_twisting():
    # no rotative layers, and classify gives a minimally twisting invariant
    plain = end(MINUS_SQRT2, SignData((), AllPositive()))
    assert plain.rotative.n == 0 and isinstance(classify(plain), MinimallyTwisting)
    for rotative in (RotativeLayers(P, 2), InfiniteRotativity(P)):
        e = end(MINUS_SQRT2, SignData((), AllPositive()), rotative=rotative)
        assert e.rotative.n != 0 and isinstance(classify(e), NonMinimallyTwisting)


# ---------------------------------------------------------------------------
# validation


def test_validate_legal_description():
    assert validate(end(MINUS_SQRT2, SignData((), AllPositive()))) == []


def test_validate_attained_with_tail():
    bad = end(RationalTarget(S("-3"), True), SignData((P, P), AllPositive()))
    assert any("finite path, infinite tail" in v for v in validate(bad))


def test_validate_coverage_mismatch():
    bad = end(RationalTarget(S("-3"), True), SignData((P,)))
    assert any("coverage mismatch" in v for v in validate(bad))


def test_validate_degenerate_target():
    bad = end(RationalTarget(S("-1"), False), SignData((), Alternating()))
    assert any("degenerate" in v for v in validate(bad))


def test_validate_division_tail_consistency():
    bad = end(MINUS_SQRT2, SignData((), AllPositive()),
              division_tail=StrictlyIncreasingDivision())
    assert any("division tail" in v for v in validate(bad))
    bad2 = end(RationalTarget(INFINITY, False), SignData((), Alternating()),
               division_tail=ConstantDivision(2))
    assert any("division tail" in v for v in validate(bad2))


def test_validate_boundary_division():
    bad = EndDescription(TorusRecord(S("-1"), 2), MINUS_SQRT2, SignData((), AllPositive()))
    assert any("boundary division" in v for v in validate(bad))


def test_classify_raises_on_violations():
    with pytest.raises(ValidationError):
        classify(end(RationalTarget(S("-3"), True), SignData((P, P), AllPositive())))


# ---------------------------------------------------------------------------
# classification dispatch


def test_classify_irrational_all_positive_saturates():
    inv = classify(end(MINUS_SQRT2, SignData((), AllPositive())))
    assert isinstance(inv, MinimallyTwisting)
    assert all(inv.f(i) == 2 for i in range(1, 6))


def test_classify_alternating_toward_infinity():
    inv = classify(end(RationalTarget(INFINITY, False), SignData((), Alternating())))
    assert inv.infinite_block == AlternatingForm()


def test_classify_rotative_layers():
    attained = RationalTarget(S("-3"), True)
    inv = classify(end(attained, SignData((P, P)), rotative=RotativeLayers(P, 3)))
    assert isinstance(inv, NonMinimallyTwisting)
    assert inv.rotativity == 3
    assert inv.sign == P
    assert isinstance(inv.residual, MinimallyTwisting)
    assert inv.residual.finite_f == (2,)


def test_classify_infinite_rotativity():
    inv = classify(end(MINUS_SQRT2, SignData((), AllPositive()),
                       rotative=InfiniteRotativity(N)))
    assert inv.rotativity is None
    assert inv.sign == N
    assert inv.residual is None


def test_classify_infinite_division_marker():
    e = end(RationalTarget(S("-1"), True), SignData(()),
            division_tail=StrictlyIncreasingDivision())
    inv = classify(e)
    assert isinstance(inv, InfiniteDivision)
    assert inv.descriptor.tb_start == -1


def test_infinite_division_equivalence_refused():
    e = end(RationalTarget(S("-1"), True), SignData(()),
            division_tail=StrictlyIncreasingDivision())
    with pytest.raises(UndecidableError):
        equivalent(classify(e), classify(e))


def test_classify_collar():
    e = end(RationalTarget(S("-1"), True), SignData(()))
    inv = classify(e)
    assert isinstance(inv, AttainedInvariant)
    assert inv.finite_f == ()


def test_classify_normalizes_other_boundaries():
    m = basis_change(S("2/3"))
    assert m.apply(S("2/3")) == S("-1")
    e = EndDescription(TorusRecord(S("2/3"), 1),
                       RationalTarget(gl2z_inverse(m).apply(S("-3")), True),
                       SignData((P, P)))
    assert normalized_target(e).slope == S("-3")
    inv = classify(e)
    assert inv.finite_f == (2,)


def test_classify_constant_on_shuffle_orbits():
    target = RationalTarget(S("-7/2"), True)
    path = farey_sequence(S("-1"), target, 32)
    slices = len(path.prefix(99)) - 1
    groups = {}
    for bits in product((P, N), repeat=slices):
        inv = classify(end(target, SignData(bits)))
        groups.setdefault(inv.finite_f, set()).add(bits)
    d = decompose(farey_sequence(S("-1"), target, 32))
    blocks = d.all_blocks()
    expected = 1
    for b in blocks:
        expected *= b.length
    assert len(groups) == expected


def test_classified_invariants_admissible():
    target = RationalTarget(INFINITY, False)
    d = decompose(FareyPath(S("-1"), target))
    for tail in (Alternating(), AllPositive(), AllNegative(), EventuallySign(N, 3)):
        inv = classify(end(target, SignData((), tail)))
        assert admissible(inv, d) is True


# ---------------------------------------------------------------------------
# extension obstructions


def test_obstruction_alternating_infinite_block():
    inv = classify(end(RationalTarget(INFINITY, False), SignData((), Alternating())))
    assert isinstance(extension_obstruction(inv), NoTightExtension)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_obstruction_pos_neg_finite_nonzero(m):
    tail_pos = SignData((), EventuallySign(N, m))
    tail_neg = SignData((), EventuallySign(P, m))
    for signs in (tail_pos, tail_neg):
        inv = classify(end(RationalTarget(INFINITY, False), signs))
        assert isinstance(extension_obstruction(inv), NoTightExtension)


def test_obstruction_one_sided_infinite_block_extends():
    inv = classify(end(RationalTarget(INFINITY, False), SignData((), AllNegative())))
    assert inv.infinite_block == PosFinite(0)
    assert isinstance(extension_obstruction(inv), ExtendsByConstruction)


def test_obstruction_irrational_periodic_mixed():
    inv = classify(end(MINUS_SQRT2, SignData((), Periodic((P, N)))))
    assert isinstance(extension_obstruction(inv), NoTightExtension)


def test_obstruction_irrational_constant_signs_extend():
    for tail in (AllPositive(), AllNegative()):
        inv = classify(end(MINUS_SQRT2, SignData((), tail)))
        assert isinstance(extension_obstruction(inv), ExtendsByConstruction)


def test_obstruction_mixed_prefix_is_unknown():
    inv = classify(end(MINUS_SQRT2, SignData((P, N), AllPositive())))
    assert isinstance(extension_obstruction(inv), Unknown)


def test_obstruction_attained_extends():
    inv = classify(end(RationalTarget(S("-3"), True), SignData((P, P))))
    assert isinstance(extension_obstruction(inv), ExtendsByConstruction)


def test_obstruction_consistent_on_equivalent_invariants():
    d_signs = [SignData((), Periodic((P, N))), SignData((), Periodic((N, P)))]
    invs = [classify(end(MINUS_SQRT2, s)) for s in d_signs]
    assert equivalent(invs[0], invs[1])
    r0, r1 = (extension_obstruction(i) for i in invs)
    assert type(r0) is type(r1)


# ---------------------------------------------------------------------------
# families


def test_family_toward_infinity():
    from toric_ends import NegFinite
    fam = non_extendable_family(RationalTarget(INFINITY, False), 3)
    forms = [m.infinite_block for m in fam]
    assert forms == [AlternatingForm(), PosFinite(1), NegFinite(1)]
    for a in range(3):
        for b in range(a + 1, 3):
            assert not equivalent(fam[a], fam[b])


def test_family_toward_sqrt2():
    fam = non_extendable_family(MINUS_SQRT2, 2)
    assert len(fam) == 2
    assert not equivalent(fam[0], fam[1])
    for member in fam:
        assert isinstance(extension_obstruction(member), NoTightExtension)


def test_family_k_zero():
    assert non_extendable_family(MINUS_SQRT2, 0) == []


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 6))
def test_family_members_always_certified(k):
    fam = non_extendable_family(RationalTarget(INFINITY, False), k)
    assert len(fam) == k
    for member in fam:
        assert isinstance(extension_obstruction(member), NoTightExtension)


def test_slice_counts_match_the_vertex_walk_over_a_census():
    # validation counts an attained end's slices off the walk of x; the
    # vertex walk of the same path counts them one vertex at a time
    for boundary in (S("-1/1"), S("0/1"), S("1/0"), S("5/2"), S("-3/7")):
        for slope in (*circular_census(4), S("-100/7"), S("355/113"), S("-1000/1")):
            e = EndDescription(TorusRecord(boundary), RationalTarget(slope, True))
            target = normalized_target(e)
            slices = decompose(FareyPath(BASE_SLOPE, target)).bounds(None)[-1]
            signs = SignData((P,) * slices)
            assert validate(EndDescription(e.boundary, e.target, signs)) == []
            assert validate(EndDescription(e.boundary, e.target, SignData((P,) * (slices + 1)))) == [
                f"sign coverage mismatch: prefix has {slices + 1} signs, path has {slices} basic slices"]
            assert isinstance(classify(EndDescription(e.boundary, e.target, signs)), AttainedInvariant)
