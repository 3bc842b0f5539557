"""The walk in normalized coordinates against the reference stepper, which
recomputes each step from scratch, the blocks read off its runs against
the reference block finder, which tests vertex by vertex, plus work counts
that show a step costs the same at every depth and a block costs the same
at every length (counts, not timings)."""

import itertools
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_ends import (
    GL2Z,
    CFTarget,
    FareyPath,
    QuadraticTarget,
    RationalTarget,
    Slope,
    decompose,
    quadratic_cf_target,
)
from toric_ends.errors import MalformedPathError

from oracles import (
    circular_census,
    oracle_cw,
    reference_blocks,
    reference_next_toward,
    reference_path,
    reference_witness,
)
from test_cf_targets import GL2Z_WORDS

MINUS_SQRT2 = QuadraticTarget.of(0, -1, 1, 2)

SLOPES = st.tuples(st.integers(-40, 40), st.integers(0, 12)).filter(any).map(lambda pq: Slope(*pq))

NON_SQUARES = st.integers(2, 10 ** 4).filter(lambda d: isqrt(d) ** 2 != d)


@settings(max_examples=150, deadline=None)
@example(-300, 1, True, GL2Z(1, 0, 0, 1), 80)
@example(-7, 5, False, GL2Z(1, 0, 0, 1), 40)
@given(st.integers(-300, 300), st.integers(0, 60), st.booleans(), GL2Z_WORDS, st.integers(1, 80))
def test_walk_matches_reference_on_rationals(p, q, attained, m, n):
    if p == 0 and q == 0:
        return
    start, target = m.apply(Slope(-1, 1)), RationalTarget(m.apply(Slope(p, q)), attained)
    if target.slope == start:
        return
    assert FareyPath(start, target).vertex(1) == reference_next_toward(start, target)
    assert FareyPath(start, target).prefix(n) == reference_path(start, target, n)


@settings(max_examples=80, deadline=None)
@example(0, -1, 1, 2, Slope(-1, 1), 60)
@example(-1, 1, 2, 9973, Slope(1, 0), 60)
@given(st.integers(-50, 50), st.integers(-6, 6).filter(bool), st.integers(-20, 20).filter(bool),
       NON_SQUARES, SLOPES, st.integers(1, 60))
def test_walk_matches_reference_on_surds(a, b, c, d, start, n):
    target = QuadraticTarget.of(a, b, c, d)
    assert FareyPath(start, target).prefix(n) == reference_path(start, target, n)


@settings(max_examples=40, deadline=None)
@example(0, -1, 1, 2, 40)
@given(st.integers(-20, 20), st.integers(-4, 4).filter(bool), st.integers(-10, 10).filter(bool),
       st.integers(2, 200).filter(lambda d: isqrt(d) ** 2 != d), st.integers(1, 40))
def test_walk_matches_reference_on_streams(a, b, c, d, n):
    value = QuadraticTarget.of(a, b, c, d).value
    walked = FareyPath(Slope(-1, 1), quadratic_cf_target(value)).prefix(n)
    assert walked == reference_path(Slope(-1, 1), quadratic_cf_target(value), n)
    assert walked == reference_path(Slope(-1, 1), QuadraticTarget(value), n)


def test_next_toward_is_vertex_one_of_the_path_over_a_census():
    # rational targets, attained or not, surds and streams (the surds' own
    # streams and one with growing coefficients), from every census slope
    census = circular_census(3)
    surds = [MINUS_SQRT2, QuadraticTarget.of(-3, 1, 4, 13), QuadraticTarget.of(-1, -1, 1, 421),
             QuadraticTarget.of(1, 1, 2, 5)]
    targets = [RationalTarget(t, attained) for t in census for attained in (False, True)]
    targets += surds + [quadratic_cf_target(t.value) for t in surds] + [CFTarget(itertools.count(1))]
    compared = 0
    for start in census:
        for target in targets:
            if target.rational and target.slope == start:
                continue  # refused: see test_next_toward_refuses_a_target_at_the_current_slope
            assert FareyPath(start, target).vertex(1) == reference_next_toward(start, target)
            compared += 1
    assert compared == len(census) * (len(targets) - 2)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(RationalTarget, st.builds(Slope, st.integers(-200, -2), st.integers(1, 30)), st.booleans()),
    st.builds(QuadraticTarget.of, st.integers(-20, 20), st.integers(-4, 4).filter(bool),
              st.integers(-10, 10).filter(bool), NON_SQUARES),
), st.integers(1, 30), st.integers(0, 30))
def test_walk_resumes_a_path_given_by_vertices(target, known, more):
    start = Slope(-1, 1)
    if isinstance(target, RationalTarget) and target.slope == start:
        return
    vertices = reference_path(start, target, known)
    if target.attained and vertices[-1] == target.slope:
        return  # a complete path has nothing left to walk
    path = FareyPath.from_vertices(vertices, target)
    assert path.prefix(known + more) == reference_path(start, target, known + more)


@settings(max_examples=60, deadline=None)
@example(RationalTarget(Slope(-40, 1), True), 5, 0)
@example(RationalTarget(Slope(1, 0), False), 4, 2)
@given(st.one_of(
    st.builds(RationalTarget, SLOPES, st.booleans()),
    st.builds(QuadraticTarget.of, st.integers(-20, 20), st.integers(-4, 4).filter(bool),
              st.integers(-10, 10).filter(bool), NON_SQUARES),
), st.integers(2, 30), st.integers(0, 28))
def test_from_vertices_accepts_the_walk_and_refuses_a_mediant(target, known, turn):
    start = Slope(-1, 1)
    if isinstance(target, RationalTarget) and target.slope == start:
        return
    vertices = reference_path(start, target, known)
    for n in range(1, len(vertices) + 1):
        walked = FareyPath(start, target)
        walked.extend_to(n)
        path = FareyPath.from_vertices(vertices[:n], target)
        assert path._runs == walked._runs and path.prefix(n) == vertices[:n]
    if len(vertices) < 2:
        return
    # a mediant between two consecutive vertices makes a k = 1 turn
    i = turn % (len(vertices) - 1)
    a, b = vertices[i], vertices[i + 1]
    mediant = next(m for m in (Slope(a.p + b.p, a.q + b.q), Slope(a.p - b.p, a.q - b.q)) if oracle_cw(a, m, b))
    with pytest.raises(MalformedPathError, match=f"vertex {i + 1} "):
        FareyPath.from_vertices(vertices[:i + 1] + (mediant,) + vertices[i + 1:], target)


def test_stream_walk_reads_one_coefficient_per_vertex():
    read = 0

    def coefficients():
        nonlocal read
        for e in MINUS_SQRT2.value.cf_coefficients():
            read += 1
            yield e

    n = 2000
    path = FareyPath(Slope(-1, 1), CFTarget(coefficients()))
    assert path.extend_to(n) == n
    assert read <= n + 8


def test_surd_walk_state_stays_bounded():
    for target in (MINUS_SQRT2, QuadraticTarget.of(-3, 1, 4, 13), QuadraticTarget.of(-1, -1, 1, 421),
                   QuadraticTarget.of(-1, 1, 2, 100003)):
        path = FareyPath(Slope(-1, 1), target)
        path.extend_to(2)
        D = path.x.D
        bound = D.bit_length() + 4
        for n in range(3, 2003):
            path.extend_to(n)
            x = path.x
            assert x.D == D and (D - x.P * x.P) % x.Q == 0
            assert max(abs(x.P), abs(x.Q)).bit_length() <= bound, (target, n, x.P, x.Q)


# ---------------------------------------------------------------------------
# blocks read off the runs of the walk


def walked_blocks(path, count):
    return [(b.start_index, b.end_index, b.witness.entries(), b.infinite)
            for b in decompose(path).blocks_up_to(count)]


def partial_quotient_sum(p, q):
    """Sum of |a_i| over the continued fraction of p/q: about the length
    of a minimal path toward p/q."""
    total = 0
    while q:
        a, r = divmod(p, q)
        total, p, q = total + abs(a), q, r
    return total


@settings(max_examples=60, deadline=None)
@example((-300001, 3), True)
@example((-300001, 3), False)
@example((-10 ** 6, 7), False)
@given(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(2, 10 ** 6))
       .filter(lambda pq: partial_quotient_sum(*pq) <= 20000), st.booleans())
def test_blocks_match_reference_on_rationals(pq, attained):
    start, target = Slope(-1, 1), RationalTarget(Slope(*pq), attained)
    if target.slope == start:
        return
    count = 10 ** 9  # every block: the list is finite toward a rational target
    assert walked_blocks(FareyPath(start, target), count) == reference_blocks(FareyPath(start, target), count)


@settings(max_examples=60, deadline=None)
@example(0, -1, 1, 2, Slope(-1, 1), 40)
@example(-1, -1, 1, 421, Slope(-1, 1), 40)
@given(st.integers(-50, 50), st.integers(-6, 6).filter(bool), st.integers(-20, 20).filter(bool),
       NON_SQUARES, SLOPES, st.integers(1, 40))
def test_blocks_match_reference_on_surds(a, b, c, d, start, count):
    target = QuadraticTarget.of(a, b, c, d)
    assert walked_blocks(FareyPath(start, target), count) == reference_blocks(FareyPath(start, target), count)


@settings(max_examples=30, deadline=None)
@example(0, -1, 1, 2, 30)
@given(st.integers(-20, 20), st.integers(-4, 4).filter(bool), st.integers(-10, 10).filter(bool),
       st.integers(2, 200).filter(lambda d: isqrt(d) ** 2 != d), st.integers(1, 30))
def test_blocks_match_reference_on_streams(a, b, c, d, count):
    value = QuadraticTarget.of(a, b, c, d).value
    start = Slope(-1, 1)
    walked = walked_blocks(FareyPath(start, quadratic_cf_target(value)), count)
    assert walked == reference_blocks(FareyPath(start, QuadraticTarget(value)), count)


@settings(max_examples=60, deadline=None)
@example(RationalTarget(Slope(1, 0), False), 3, 4)
@example(RationalTarget(Slope(-40, 1), True), 5, 3)
@given(st.one_of(
    st.builds(RationalTarget, st.builds(Slope, st.integers(-200, -2), st.integers(1, 30)), st.booleans()),
    st.builds(QuadraticTarget.of, st.integers(-20, 20), st.integers(-4, 4).filter(bool),
              st.integers(-10, 10).filter(bool), NON_SQUARES),
), st.integers(2, 30), st.integers(1, 12))
def test_blocks_of_a_path_given_by_vertices_then_extended(target, known, count):
    start = Slope(-1, 1)
    if isinstance(target, RationalTarget) and target.slope == start:
        return
    path = FareyPath.from_vertices(reference_path(start, target, known), target)
    assert walked_blocks(path, count) == reference_blocks(FareyPath(start, target), count)


def test_block_walk_stores_one_run_per_block():
    far = Slope(-10 ** 12, 1)
    path = FareyPath(Slope(-1, 1), RationalTarget(far, False))
    assert len(decompose(path).bounds(None)) == 2
    assert [b.length for b in decompose(path).all_blocks()] == [10 ** 12 - 1, None]
    assert len(path._runs) == 2

    path = FareyPath(Slope(-1, 1), RationalTarget(far, True))
    assert decompose(path).bounds(None)[-1] == 10 ** 12 - 1  # slices, read off x with no vertex
    assert not path._runs
    assert path.vertex(5 * 10 ** 11) == Slope(-(5 * 10 ** 11 + 1), 1)
    assert path.prefix(3) == (Slope(-1, 1), Slope(-2, 1), Slope(-3, 1))
    assert len(path._runs) == 1


# ---------------------------------------------------------------------------
# answers read off the runs against the vertex-by-vertex slow path


PATH_TARGETS = st.one_of(
    st.builds(RationalTarget, SLOPES, st.booleans()),
    st.builds(QuadraticTarget.of, st.integers(-20, 20), st.integers(-4, 4).filter(bool),
              st.integers(-10, 10).filter(bool), NON_SQUARES),
    st.builds(lambda t: quadratic_cf_target(t.value),
              st.builds(QuadraticTarget.of, st.integers(-20, 20), st.integers(-4, 4).filter(bool),
                        st.integers(-10, 10).filter(bool), st.integers(2, 200).filter(lambda d: isqrt(d) ** 2 != d))),
)

# pieces with a constant numerator (dp = 0), a constant denominator (dq = 0)
# and lifts whose denominator changes sign inside a run (through 1/0)
RUN_SHAPES = [
    (Slope(1, 1), RationalTarget(Slope(0, 1), False), 30, "dp = 0"),
    (Slope(-1, 1), RationalTarget(Slope(-40, 1), True), 50, "dq = 0"),
    (Slope(-5, 2), RationalTarget(Slope(1, 0), True), 20, "sign change"),
    (Slope(-5, 2), RationalTarget(Slope(-4, 3), False), 40, "sign change"),
]


def check_answers_off_runs(path, n):
    n = path.extend_to(n)
    vertices = tuple(path.vertex(i) for i in range(n))
    assert path.prefix(n) == vertices
    assert path.prefix_text(n) == [str(v) for v in vertices]
    blocks = decompose(path)
    i = 1
    while blocks.has_block(i) and blocks.block(i).start_index + 1 < n:
        b = blocks.block(i)
        first = b.start_index
        assert b.witness == reference_witness(path.vertex(first), path.vertex(first + 1))
        assert b.witness.det == 1 and list(b.witness_entries) == list(b.witness.entries())
        last = n - 1 if b.infinite else min(b.end_index, n - 1)
        assert [b.witness.apply(path.vertex(j)) for j in range(first, last + 1)] == [
            Slope(-(j - first + 1), 1) for j in range(first, last + 1)]
        i += 1


@pytest.mark.parametrize("start,target,n,shape", RUN_SHAPES, ids=[s[3] for s in RUN_SHAPES])
def test_run_shapes_are_read_off_as_the_slow_path_reads_them(start, target, n, shape):
    path = FareyPath(start, target)
    path.extend_to(n)
    pieces = list(path._pieces(n))
    if shape == "dp = 0":
        assert any(dp == 0 for _, _, dp, _, _ in pieces)
    elif shape == "dq = 0":
        assert any(dq == 0 for _, _, _, dq, _ in pieces)
    else:
        assert len(pieces) > len(path._runs)  # a run split where its lifts change sign
    check_answers_off_runs(path, n)


@settings(max_examples=100, deadline=None)
@example(RationalTarget(Slope(1, 0), False), GL2Z(1, 0, 0, 1), 12)
@example(RationalTarget(Slope(3, 1), True), GL2Z(0, 1, 1, 0), 20)
@given(PATH_TARGETS, GL2Z_WORDS, st.integers(1, 60))
def test_prefix_text_and_witnesses_match_the_slow_path(target, m, n):
    start = m.apply(Slope(-1, 1))
    if target.rational:
        target = RationalTarget(m.apply(target.slope), target.attained)
        if target.slope == start:
            return
    else:
        target = target.transform(m)
    check_answers_off_runs(FareyPath(start, target), n)
