import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_ends import (
    GL2Z,
    INFINITY,
    CFTarget,
    FareyPath,
    QuadraticTarget,
    RationalTarget,
    Slope,
    farey_sequence,
    parse_slope,
    quadratic_cf_target,
)
from toric_ends import farey
from toric_ends.cli import TARGET
from toric_ends.errors import DegenerateTargetError
from toric_ends.farey import SQUAREFREE_TRIAL_BUDGET, _squarefree_split, det, on_arc

from oracles import (
    circular_census,
    oracle_clockwise_between,
    oracle_next_toward,
    oracle_on_arc,
    reference_squarefree_split,
)

MINUS_SQRT2 = QuadraticTarget.of(0, -1, 1, 2)


def S(text):
    return parse_slope(text)


# ---------------------------------------------------------------------------
# slopes


def test_slope_canonical_form():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(3, -6) == Slope(-1, 2)
    assert Slope(-5, 0) == INFINITY
    assert str(Slope(-4, 3)) == "-4/3"
    assert parse_slope("-24/17") == Slope(-24, 17)
    assert parse_slope("-3") == Slope(-3, 1)


def test_slope_zero_zero_rejected():
    with pytest.raises(ValueError):
        Slope(0, 0)


@given(st.integers(-300, 300), st.integers(-300, 300))
def test_slope_always_canonical(p, q):
    if p == 0 and q == 0:
        return
    s = Slope(p, q)
    from math import gcd
    assert s.q >= 0
    assert gcd(abs(s.p), s.q) == 1
    if s.q == 0:
        assert s.p == 1


# ---------------------------------------------------------------------------
# edges


def test_farey_edge_examples():
    # an edge of the Farey graph is a pair of slopes of determinant +-1
    assert abs(det(S("-1"), INFINITY)) == 1
    assert abs(det(S("0"), S("1"))) == 1
    assert abs(det(S("-1"), S("-7/5"))) == 2


def test_farey_edge_needs_distinct():
    # a slope and itself have determinant 0, so they are never an edge
    for text in ("-1", "0", "1/0", "-7/5"):
        assert det(S(text), S(text)) == 0


# ---------------------------------------------------------------------------
# matrices


def test_apply_matrix_examples():
    assert GL2Z(1, 0, 0, 1).apply(S("-4/3")) == S("-4/3")
    m = GL2Z(1, 2, -2, -3)
    # hand oracle: (-4 + 6)/(8 - 9) and (-7 + 10)/(14 - 15)
    assert m.apply(S("-4/3")) == S("-2")
    assert m.apply(S("-7/5")) == S("-3")


def test_matrix_determinant_enforced():
    with pytest.raises(ValueError):
        GL2Z(2, 0, 0, 2)


def test_apply_matrix_preserves_edges_randomized():
    rng = random.Random(8282)
    checked = 0
    while checked < 1000:
        a = Slope(rng.randint(-40, 40), rng.randint(1, 40))
        # build a neighbor of a via a Bezout partner plus a random shift
        from toric_ends.farey import _bezout_partner
        up, uq = _bezout_partner(a)
        k = rng.randint(-20, 20)
        b = Slope(up + k * a.p, uq + k * a.q)
        entries = [rng.randint(-9, 9) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2] not in (1, -1):
            continue
        m = GL2Z(*entries)
        assert abs(det(m.apply(a), m.apply(b))) == 1
        checked += 1


# ---------------------------------------------------------------------------
# the next vertex toward a target: vertex 1 of the path


def test_next_toward_attained_example():
    assert FareyPath(S("-1"), RationalTarget(S("-3"), True)).vertex(1) == S("-2")


def test_next_toward_infinity_iterates_integers():
    t = RationalTarget(INFINITY, False)
    cur = S("-1")
    for expected in ("-2", "-3", "-4", "-5"):
        cur = FareyPath(cur, t).vertex(1)
        assert cur == S(expected)


def test_next_toward_sqrt2_sequence():
    cur = S("-1")
    for expected in ("-4/3", "-7/5", "-24/17"):
        cur = FareyPath(cur, MINUS_SQRT2).vertex(1)
        assert cur == S(expected)


def test_next_toward_degenerate_target():
    with pytest.raises(DegenerateTargetError):
        FareyPath(S("-2"), RationalTarget(S("-2"), False))


@pytest.mark.parametrize("slope", ["-2", "0", "1/0", "3/7"])
def test_next_toward_refuses_a_target_at_the_current_slope(slope):
    # attained there, the path has already ended and has no vertex 1; not
    # attained, the target is degenerate
    path = FareyPath(S(slope), RationalTarget(S(slope), True))
    assert path.complete and not path.has_vertex(1)
    with pytest.raises(IndexError, match="^path is complete with 1 vertices$"):
        path.vertex(1)
    with pytest.raises(DegenerateTargetError, match="^non-attained rational target equals the current slope$"):
        FareyPath(S(slope), RationalTarget(S(slope), False))


def test_next_toward_matches_oracle_spot_checks():
    cases = [
        (S("-1"), RationalTarget(S("-3"), True)),
        (S("-1"), RationalTarget(S("-2"), False)),
        (S("-2"), RationalTarget(S("-5/2"), False)),
        (S("-1"), RationalTarget(INFINITY, False)),
        (S("-1"), MINUS_SQRT2),
        (S("-7/5"), MINUS_SQRT2),
        (S("1/2"), RationalTarget(S("2/5"), True)),
    ]
    for cur, target in cases:
        assert FareyPath(cur, target).vertex(1) == oracle_next_toward(cur, target)


# ---------------------------------------------------------------------------
# sequences


def test_farey_sequence_attained_stops_early():
    path = farey_sequence(S("-1"), RationalTarget(S("-3"), True), 10)
    assert path.prefix(10) == (S("-1"), S("-2"), S("-3"))
    assert path.complete


def test_farey_sequence_toward_infinity():
    path = farey_sequence(S("-1"), RationalTarget(INFINITY, False), 4)
    assert path.prefix(4) == (S("-1"), S("-2"), S("-3"), S("-4"))


def test_farey_sequence_toward_sqrt2():
    path = farey_sequence(S("-1"), MINUS_SQRT2, 4)
    assert path.prefix(4) == (S("-1"), S("-4/3"), S("-7/5"), S("-24/17"))


def test_farey_sequence_never_reaches_non_attained_target():
    path = farey_sequence(S("-1"), RationalTarget(S("-2"), False), 12)
    assert all(v != S("-2") for v in path.prefix(12))


def test_negative_vertex_indices_are_refused():
    # a path has no vertex before its start: a negative index must not
    # count back from the last run (to 1/1 toward -3/1, -44/31 toward -sqrt(2))
    for target in (RationalTarget(S("-3"), True), MINUS_SQRT2):
        path = farey_sequence(S("-1"), target, 6)
        for i in (-1, -2):
            with pytest.raises(IndexError, match="vertex indices start at 0"):
                path.vertex(i)
            assert path.has_vertex(i) is False
        assert path.has_vertex(0) and path.vertex(0) == S("-1")


@given(st.integers(2, 12), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_prefix_stability(n, k):
    a = farey_sequence(S("-1"), MINUS_SQRT2, n).prefix(n)
    b = farey_sequence(S("-1"), MINUS_SQRT2, n + k).prefix(n + k)
    assert b[:n] == a


def test_quadratic_distance_strictly_decreasing_to_zero():
    path = farey_sequence(S("-1"), MINUS_SQRT2, 40)
    vs = path.prefix(40)
    t = MINUS_SQRT2.value
    # every vertex stays strictly on the counterclockwise side of the target,
    # so the exact distance is v - t and decreases iff the values decrease
    assert all(t.cmp_fraction(v.p, v.q) < 0 for v in vs)
    values = [Fraction(v.p, v.q) for v in vs]
    assert all(a > b for a, b in zip(values, values[1:]))
    # final distance below 1e-12, checked exactly: t > v_last - 1e-12
    last = values[-1] - Fraction(1, 10 ** 12)
    assert t.cmp_fraction(last.numerator, last.denominator) > 0


def test_cf_stream_target_agrees_with_quadratic():
    for quad in (MINUS_SQRT2, QuadraticTarget.of(0, -1, 1, 3), QuadraticTarget.of(1, 1, 2, 5)):
        cft = quadratic_cf_target(quad.value)
        a = farey_sequence(S("-1"), quad, 10).prefix(10)
        b = farey_sequence(S("-1"), cft, 10).prefix(10)
        assert a == b


def test_cf_target_mobius_image_walks_same_path():
    stream = CFTarget(iter(MINUS_SQRT2.value.cf_coefficients()))
    path = farey_sequence(S("-1"), stream, 6)
    assert path.prefix(6)[:4] == (S("-1"), S("-4/3"), S("-7/5"), S("-24/17"))


# ---------------------------------------------------------------------------
# clockwise arcs


def closed_arc(a, b, x):
    """x on the closed clockwise arc from a to b."""
    return on_arc(a, RationalTarget(b, True), x, include_target=True)


def test_clockwise_between_examples():
    assert closed_arc(S("-1"), S("-3/2"), S("-4/3")) is True
    assert closed_arc(S("-1"), S("-2"), S("0")) is False
    # orientation fixture: clockwise from -1 toward oo passes -2, and the
    # reversed arc from oo to -1 does not contain -2
    assert closed_arc(S("-1"), INFINITY, S("-2")) is True
    assert closed_arc(INFINITY, S("-1"), S("-2")) is False


def test_clockwise_between_against_census_oracle():
    census = circular_census(4)
    rng = random.Random(133)
    pool = [s for s in census if abs(s.p) <= 8]
    for _ in range(400):
        a, b, x = rng.sample(pool, 3)
        assert closed_arc(a, b, x) == oracle_clockwise_between(census, a, b, x)


ARC_TARGETS = [
    *(RationalTarget(S(text), attained) for text in ("-2", "-7/5", "0", "3/2", "1/0") for attained in (True, False)),
    MINUS_SQRT2, QuadraticTarget.of(0, -1, 1, 3), QuadraticTarget.of(1, 1, 2, 5), QuadraticTarget.of(0, 1, 2, 2),
]


def test_on_arc_matches_the_oracle_over_a_census():
    census = circular_census(3)
    starts = [s for s in census if abs(s.p) <= 6]  # oo among them
    for target in ARC_TARGETS:
        for start in starts:
            degenerate = target.rational and not target.attained and target.slope == start
            for x in census:
                for include in (False, True):
                    if degenerate and x != start:
                        # a non-attained target at the start: both sides refuse
                        with pytest.raises(DegenerateTargetError):
                            on_arc(start, target, x, include)
                        with pytest.raises(ValueError):
                            oracle_on_arc(start, target, x, include)
                        continue
                    assert on_arc(start, target, x, include) == oracle_on_arc(start, target, x, include), \
                        (start, target, x, include)


@given(st.integers(-30, 30), st.integers(0, 9),
       st.integers(-30, 30), st.integers(0, 9),
       st.integers(-30, 30), st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_cw_is_a_cyclic_orientation(p1, q1, p2, q2, p3, q3):
    try:
        a, b, c = Slope(p1, q1), Slope(p2, q2), Slope(p3, q3)
    except ValueError:
        return
    if len({a, b, c}) < 3:
        return
    # b strictly inside the clockwise arc from a to c, and its rotations
    def cw(a, b, c):
        return on_arc(a, RationalTarget(c, True), b)
    assert cw(a, b, c) == cw(b, c, a) == cw(c, a, b)
    assert cw(a, b, c) != cw(a, c, b)


def test_path_from_vertices_validates():
    from toric_ends.errors import MalformedPathError
    FareyPath.from_vertices([S("-1"), S("-2"), S("-3")])
    with pytest.raises(MalformedPathError):
        FareyPath.from_vertices([S("-1"), S("-7/5")])
    with pytest.raises(MalformedPathError):
        FareyPath.from_vertices([S("-3"), S("-2"), S("-1")])


@pytest.mark.parametrize("vertices,target", [
    (["-3", "1/0", "5", "4", "3"], None),  # oo -> 3 is an edge: the turn at oo is not minimal
    (["-1", "-2", "-3"], RationalTarget(S("-2"), True)),  # runs past its attained target
    (["-1", "-2", "-3"], RationalTarget(S("5"), False)),  # the minimal path is -1, oo, ...
    (["-1", "-3/2", "-2"], None),  # a k = 1 turn: -1 -> -2 is an edge
], ids=["turn-at-oo", "past-attained", "wrong-side", "k-1-turn"])
def test_path_from_vertices_rejects_paths_off_the_walk(vertices, target):
    from toric_ends.errors import MalformedPathError
    with pytest.raises(MalformedPathError):
        FareyPath.from_vertices([S(v) for v in vertices], target)


# ---------------------------------------------------------------------------
# square-free split of input surds

PRIMES_BELOW_10_5 = [p for p in range(2, 10 ** 5) if all(p % k for k in range(2, isqrt(p) + 1))]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 9))
def test_squarefree_split_matches_trial_division(d):
    assert _squarefree_split(d) == reference_squarefree_split(d)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES_BELOW_10_5), st.integers(1, 10 ** 4))
def test_squarefree_split_strips_prime_squares(p, q):
    assert _squarefree_split(p * p * q) == reference_squarefree_split(p * p * q)


def test_squarefree_split_of_two_large_primes_is_exact():
    p, q = 10000019, 10000079  # both prime
    assert _squarefree_split(p * q) == (1, p * q)
    assert _squarefree_split(p * p * 6) == (p, 6)
    assert _squarefree_split(p * p) == (p, 1)
    target = QuadraticTarget.of(0, -1, 1, p * q)
    assert TARGET.encode(target)["d"] == p * q and target.mobius_floor(GL2Z(1, 0, 0, 1)) == -isqrt(p * q) - 1


def test_squarefree_split_stops_at_its_budget(monkeypatch):
    # the split is kept per radicand, so each split below is made afresh,
    # and none made under the patched budget outlives the test
    _squarefree_split.cache_clear()
    # past the budget the split is partial: the cofactor is kept, and f*f*d0 is still d
    d = 10 ** 33 + 1
    f, d0 = _squarefree_split(d)
    assert f * f * d0 == d and d0 > SQUAREFREE_TRIAL_BUDGET ** 3
    # the trial divisors stop at the budget: a smaller one leaves a smaller split
    monkeypatch.setattr(farey, "SQUAREFREE_TRIAL_BUDGET", 10)
    _squarefree_split.cache_clear()
    try:
        f, d0 = _squarefree_split(2 ** 2 * 11 ** 2 * 10007 * 10009)
    finally:
        _squarefree_split.cache_clear()
    assert (f, d0) == (2, 11 ** 2 * 10007 * 10009)
