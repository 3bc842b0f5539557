from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toric_ends import (
    INFINITY,
    AllPositive,
    Alternating,
    EndDescription,
    FareyPath,
    InfiniteRotativity,
    OpenToricAnnulus,
    QuadraticTarget,
    RationalTarget,
    RotativeLayers,
    SignData,
    Slope,
    SolidTorusEnd,
    TorusRecord,
    classify_solid_torus,
    normalize_rotativity,
    parse_slope,
    solid_torus_factor,
    t2xr_equivalent,
    validate,
)
from toric_ends.errors import (
    AttainedZeroSlopeError,
    DegenerateTargetError,
    MixedSignRotativityError,
    NoRealizedPointError,
    ToricEndError,
    ValidationError,
)
from toric_ends.farey import on_arc
from toric_ends.invariants import Periodic
from toric_ends.reduce import _closest_one_over_n, _vertex_index

from oracles import reference_solid_torus_index

MINUS_SQRT2 = QuadraticTarget.of(0, -1, 1, 2)
P, N = 1, -1


def S(text):
    return parse_slope(text)


def end(target, signs, boundary="-1"):
    return EndDescription(TorusRecord(S(boundary), 1), target, signs)


# ---------------------------------------------------------------------------
# s(r)


@pytest.mark.parametrize("target,expected", [
    (MINUS_SQRT2, "-1/1"),
    (RationalTarget(S("-5/2"), True), "-1/1"),
    (RationalTarget(S("-3/2"), False), "-1/1"),
    (RationalTarget(INFINITY, False), "-1/1"),
    (RationalTarget(S("-1/3"), True), "-1/3"),
    (RationalTarget(S("-1/3"), False), "-1/4"),
    (RationalTarget(S("-2/3"), False), "-1/2"),
    (RationalTarget(S("2/5"), False), "1/2"),
    (RationalTarget(S("3/2"), False), "1/0"),
    (QuadraticTarget.of(0, 1, 2, 2), "1/1"),   # sqrt(2)/2 ~ 0.707
])
def test_closest_one_over_n(target, expected):
    assert _closest_one_over_n(target) == S(expected)


def test_factor_examples_from_boundary_minus_one():
    st1 = solid_torus_factor(end(MINUS_SQRT2, SignData((), AllPositive())))
    assert st1.realized_start == S("-1")
    assert st1.end.boundary.slope == S("-1")

    st2 = solid_torus_factor(end(RationalTarget(S("-5/2"), True), SignData((P, P))))
    assert st2.realized_start == S("-1")


def test_factor_scans_path_for_interior_realized_point():
    # path toward 2/5: -1, oo, 1, 1/2, ... so s(r) = 1/2 sits at index 3
    target = RationalTarget(S("2/5"), False)
    e = end(target, SignData((N, N, N, P), Alternating()))
    st = solid_torus_factor(e)
    assert st.realized_start == S("1/2")
    assert st.end.boundary.slope == S("1/2")
    assert st.end.signs.prefix == (P,)


def test_factor_error_when_no_realized_point():
    e = EndDescription(TorusRecord(S("-3/2"), 1), RationalTarget(S("-7/4"), False),
                       SignData((), Alternating()))
    with pytest.raises(NoRealizedPointError):
        solid_torus_factor(e)


def test_classify_pair_shuffle_invariant():
    # path to -7/2 is (-1, -2, -3, -7/2): block one has two shuffleable slices
    target = RationalTarget(S("-7/2"), True)
    a = classify_solid_torus(end(target, SignData((P, N, P))))
    b = classify_solid_torus(end(target, SignData((N, P, P))))
    assert a.s_of_r == b.s_of_r
    assert a.invariant.invariant.finite_f == b.invariant.invariant.finite_f


def test_classify_pair_distinguishes_targets():
    a = classify_solid_torus(end(MINUS_SQRT2, SignData((), AllPositive())))
    b = classify_solid_torus(end(QuadraticTarget.of(0, -1, 1, 3), SignData((), AllPositive())))
    assert a.invariant.context != b.invariant.context


def test_zero_slope_cases():
    with pytest.raises(AttainedZeroSlopeError):
        classify_solid_torus(end(RationalTarget(S("0"), True), SignData(())))
    pair = classify_solid_torus(end(RationalTarget(S("0"), False),
                                    SignData((), Alternating())))
    assert pair.s_of_r is None


def test_factor_rejects_infinite_rotativity():
    e = EndDescription(TorusRecord(S("-1"), 1), MINUS_SQRT2, SignData((), AllPositive()),
                       rotative=InfiniteRotativity(P))
    with pytest.raises(NoRealizedPointError):
        solid_torus_factor(e)


def test_factor_at_a_far_realized_point():
    # 1/n slopes toward 1/10^12 lie inside one run of 10^12 vertices; the
    # run is solved for the realized one instead of being scanned
    e = end(RationalTarget(Slope(1, 10 ** 12), False), SignData((N,), AllPositive()))
    st = solid_torus_factor(e)
    assert st.realized_start == Slope(1, 10 ** 12 - 1)
    assert st.end.signs == SignData((), AllPositive())


@pytest.mark.parametrize("slope", ["-1", "1/3"])
def test_factor_of_a_collar_at_a_realized_point(slope):
    # boundary and attained target are the same 1/n slope: the path has no edge
    e = end(RationalTarget(S(slope), True), SignData(()), boundary=slope)
    st = solid_torus_factor(e)
    assert st.realized_start == S(slope)
    assert st.end == e


def test_factor_when_the_last_edge_jumps_past_the_realized_point():
    # the path to the attained -2/3 is the one edge -1, -2/3, which passes
    # s(r) = -1/2 without stopping on it
    e = end(RationalTarget(S("-2/3"), True), SignData((P,)))
    with pytest.raises(NoRealizedPointError, match=r"s\(r\) = -1/2 is not a vertex of the "
                                                   r"factorization from -1/1"):
        solid_torus_factor(e)


SLOPES = st.tuples(st.integers(-30, 30), st.integers(0, 10)).filter(any).map(lambda pq: Slope(*pq))

TARGETS = st.one_of(
    st.builds(RationalTarget, SLOPES, st.booleans()),
    st.builds(QuadraticTarget.of, st.integers(-20, 20), st.integers(-4, 4).filter(bool),
              st.integers(-10, 10).filter(bool),
              st.integers(2, 200).filter(lambda d: isqrt(d) ** 2 != d)),
)


def outcome(find):
    try:
        return find()
    except ToricEndError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@example(S("-1"), RationalTarget(S("-2/3"), True), S("-1/2"))
@example(S("1/0"), RationalTarget(S("-11/3"), True), S("-1"))
@example(S("-1"), RationalTarget(S("2/5"), False), S("1/2"))
@given(SLOPES, TARGETS, SLOPES)
def test_vertex_index_matches_reference_scan(boundary, target, s):
    assume(not (isinstance(target, RationalTarget) and target.slope == boundary))
    assume(on_arc(boundary, target, s, include_target=target.attained))
    assert outcome(lambda: _vertex_index(FareyPath(boundary, target), s)) == \
        outcome(lambda: reference_solid_torus_index(boundary, target, s))


@settings(max_examples=150, deadline=None)
@given(SLOPES, TARGETS)
def test_factor_matches_reference_scan(boundary, target):
    assume(not (isinstance(target, RationalTarget) and target.slope == boundary))
    s_r = outcome(lambda: _closest_one_over_n(target))
    assume(isinstance(s_r, Slope) and on_arc(boundary, target, s_r, include_target=target.attained))
    if target.attained:
        slices = FareyPath(boundary, target).walk_to_end() - 1
        signs = SignData(tuple(P if j % 3 else N for j in range(slices)))
    else:
        signs = SignData((N, P), Periodic((P, N, N)))
    e = end(target, signs, boundary=str(boundary))
    index = outcome(lambda: reference_solid_torus_index(boundary, target, s_r))
    expected = index if not isinstance(index, int) else \
        SolidTorusEnd(s_r, EndDescription(TorusRecord(s_r, 1), target, signs.shifted(index)))
    assert outcome(lambda: solid_torus_factor(e)) == expected


CENSUS_BOUNDARIES = ("-1", "-3/2", "2", "1/0", "0", "-2/5", "5/2")
CENSUS_SLOPES = sorted({Slope(p, q) for p in range(-12, 13) for q in range(13) if (p, q) != (0, 0)},
                       key=lambda s: (s.q, s.p))


def census_end(boundary, target):
    if target.attained:
        slices = FareyPath(boundary, target).walk_to_end() - 1
        signs = SignData(tuple(P if j % 3 else N for j in range(slices)))
    else:
        signs = SignData((N, P), Periodic((P, N, N)))
    return EndDescription(TorusRecord(boundary, 1), target, signs)


def reference_factor(e):
    """solid_torus_factor by the reference vertex scan, or the type of the
    error it meets."""
    if validate(e):
        return ValidationError
    try:
        s_r = _closest_one_over_n(e.target)
        index = reference_solid_torus_index(e.boundary.slope, e.target, s_r)
    except ToricEndError as exc:
        return type(exc)
    return SolidTorusEnd(s_r, EndDescription(TorusRecord(s_r, 1), e.target, e.signs.shifted(index)))


@pytest.mark.parametrize("boundary", CENSUS_BOUNDARIES)
def test_factor_census_against_reference_scan(boundary):
    # every p/q with |p|, q <= 12, attained or not; an attained target at
    # the boundary leaves a one-point arc, which holds s(r) only when it
    # is s(r) itself
    for slope in CENSUS_SLOPES:
        for attained in (True, False):
            e = census_end(S(boundary), RationalTarget(slope, attained))
            try:
                actual = solid_torus_factor(e)
            except ToricEndError as exc:
                actual = type(exc)
            assert actual is not DegenerateTargetError
            assert actual == reference_factor(e), (boundary, slope, attained)


# ---------------------------------------------------------------------------
# open toric annuli


NONE = RotativeLayers(P, 0)


def make_annulus(plus_rot=NONE, minus_rot=NONE, middle="-1"):
    plus = EndDescription(TorusRecord(S(middle), 1), MINUS_SQRT2,
                          SignData((), AllPositive()), rotative=plus_rot)
    reflected = Slope(-S(middle).p, S(middle).q)
    minus = EndDescription(TorusRecord(reflected, 1), MINUS_SQRT2,
                           SignData((), AllPositive()), rotative=minus_rot)
    return OpenToricAnnulus(plus, minus, TorusRecord(S(middle), 1))


def test_normalize_rotativity_shifts_to_plus_side():
    a = make_annulus(plus_rot=RotativeLayers(P, 1), minus_rot=RotativeLayers(P, 2))
    norm = normalize_rotativity(a)
    assert norm.plus.rotative == RotativeLayers(P, 3)
    assert norm.minus.rotative == NONE


def test_normalize_rotativity_idempotent_and_conserving():
    a = make_annulus(plus_rot=RotativeLayers(N, 2), minus_rot=RotativeLayers(N, 1))
    once = normalize_rotativity(a)
    assert normalize_rotativity(once) == once
    assert once.plus.rotative == RotativeLayers(N, 3)


def test_normalize_rotativity_zero_case():
    a = make_annulus()
    norm = normalize_rotativity(a)
    assert norm.plus.rotative == NONE
    assert norm.minus.rotative == NONE


def test_normalize_rotativity_infinite():
    a = make_annulus(plus_rot=InfiniteRotativity(P), minus_rot=RotativeLayers(P, 1))
    norm = normalize_rotativity(a)
    assert norm.plus.rotative == InfiniteRotativity(P)
    assert norm.minus.rotative == NONE


def test_mixed_sign_rotativity_rejected():
    for plus, minus in ((RotativeLayers(P, 1), RotativeLayers(N, 1)),
                        (InfiniteRotativity(P), RotativeLayers(N, 2)),
                        (InfiniteRotativity(N), InfiniteRotativity(P))):
        with pytest.raises(MixedSignRotativityError):
            normalize_rotativity(make_annulus(plus_rot=plus, minus_rot=minus))
    # zero layers carry no sign, so they never conflict
    norm = normalize_rotativity(make_annulus(plus_rot=RotativeLayers(N, 0), minus_rot=RotativeLayers(N, 2)))
    assert norm.plus.rotative == RotativeLayers(N, 2)


def test_middle_torus_division_must_be_one():
    plus = EndDescription(TorusRecord(S("-1"), 1), MINUS_SQRT2, SignData((), AllPositive()))
    with pytest.raises(ValidationError):
        OpenToricAnnulus(plus, plus, TorusRecord(S("-1"), 2))


def test_t2xr_equivalence_respects_rotativity_shifting():
    a = make_annulus(plus_rot=RotativeLayers(P, 1), minus_rot=RotativeLayers(P, 2))
    b = make_annulus(plus_rot=RotativeLayers(P, 3))
    assert t2xr_equivalent(a, b) is True
    c = make_annulus(plus_rot=RotativeLayers(P, 1))
    assert t2xr_equivalent(a, c) is False


def test_t2xr_distinguishes_sides():
    base = make_annulus()
    other = OpenToricAnnulus(
        base.plus,
        EndDescription(base.minus.boundary, MINUS_SQRT2, SignData((), Periodic((P, N)))),
        base.middle)
    assert t2xr_equivalent(base, other) is False


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.sampled_from([P, N]))
def test_rotativity_conservation_randomized(npl, nmi, sign):
    a = make_annulus(plus_rot=RotativeLayers(sign, npl), minus_rot=RotativeLayers(sign, nmi))
    norm = normalize_rotativity(a)
    assert norm.plus.rotative.n + norm.minus.rotative.n == npl + nmi
    assert normalize_rotativity(norm) == norm
