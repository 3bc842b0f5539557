"""The block period of a quadratic target, read off the walk state, against
the reference scan of witness images in tests/oracles.py: every quadratic
compare and extension check is decided by the period, whatever the horizon,
and the Euler class toward it is summed in closed form over the period,
against the run-by-run walk."""

from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_ends import (
    GL2Z,
    AllNegative,
    AllPositive,
    Alternating,
    BlockDecomposition,
    EndDescription,
    EventuallySign,
    FareyPath,
    NoTightExtension,
    Periodic,
    QuadraticTarget,
    SignData,
    Slope,
    TorusRecord,
    Unknown,
    classify,
    decompose,
    equivalent,
    euler_class,
    extension_obstruction,
    non_extendable_family,
    quadratic_cf_target,
)
from toric_ends import blocks as blocks_mod
from toric_ends.errors import ToricEndError, UndecidableAtHorizonError
from toric_ends import invariants
from toric_ends.invariants import PatternCounts, _grown, _periodic_span

from test_cf_targets import GL2Z_WORDS

from oracles import (
    reference_euler_walk,
    reference_quadratic_equivalent,
    reference_quadratic_obstruction,
    reference_quadratic_period,
)

P, N = 1, -1
HORIZONS = (1, 64, 4096)

SURDS = st.builds(
    QuadraticTarget.of,
    st.integers(-6, 6),
    st.sampled_from((-2, -1, 1, 2)),
    st.integers(1, 4),
    st.integers(2, 300).filter(lambda d: isqrt(d) ** 2 != d),
)
STARTS = st.builds(Slope, st.integers(-9, 9), st.integers(1, 5)) | st.just(Slope(1, 0))
SIGNS = st.lists(st.sampled_from((P, N)), max_size=6)
PATTERNS = st.lists(st.sampled_from((P, N)), min_size=1, max_size=4)


def periodic_end(target, prefix, pattern, start=Slope(-1, 1)):
    return EndDescription(TorusRecord(start, 1), target, SignData(tuple(prefix), Periodic(tuple(pattern))))


def outcome(decide):
    """The answer, with the horizon an Unknown echoes dropped, or the error type."""
    try:
        result = decide()
    except UndecidableAtHorizonError as exc:
        return type(exc)
    return Unknown if isinstance(result, Unknown) else result


@settings(max_examples=150, deadline=None)
@given(SURDS, STARTS)
def test_block_period_matches_reference_scan(target, start):
    decomp = decompose(FareyPath(start, target))
    i0, blocks, slices = decomp.period()
    assert decomp.period() == (i0, blocks, slices)
    assert reference_quadratic_period(decomp, target.value, i0, 1, 4 * blocks) == (i0, i0 + blocks)
    for i in range(i0, i0 + 2 * blocks):
        lo, hi = decomp.block(i).slice_range
        lo2, hi2 = decomp.block(i + blocks).slice_range
        assert (lo2 - lo, hi2 - hi) == (slices, slices)


@settings(max_examples=150, deadline=None)
# the first block lies before the period: it counts for equality (the first
# example differs only there) but not for the obstruction (in the second it
# alone is strictly between)
@example(QuadraticTarget.of(-1, 2, 2, 3), Slope(-2, 1), [], [P, P, N, P], [], [N, P, P, P], None)
@example(QuadraticTarget.of(3, 1, 2, 77), Slope(8, 3), [], [P, N, N, N], [], [P], None)
@example(QuadraticTarget.of(0, -1, 1, 5), Slope(-9, 4), [], [N, N, P, P], [], [N, N, N, P], None)
# blocks of 4, 2, 1, 4, 4, ... slices repeat from block 5: (+,-) and (-,+)
# differ only on block 3, before the period and past the early scan
@example(QuadraticTarget.of(13, -1, 1, 5), Slope(-43, 30), [], [P, N], [], [N, P], None)
@given(SURDS, STARTS, SIGNS, PATTERNS, SIGNS, PATTERNS, st.none() | st.integers(1, 3))
def test_quadratic_decisions_ignore_the_horizon(target, start, pre_a, pat_a, pre_b, pat_b, rotate):
    if rotate is not None:  # a rotated pattern often gives equal per-block counts
        pre_b, pat_b = pre_a, pat_a[rotate % len(pat_a):] + pat_a[:rotate % len(pat_a)]
    a = classify(periodic_end(target, pre_a, pat_a, start)).invariant
    b = classify(periodic_end(target, pre_b, pat_b, start)).invariant
    answers = {outcome(lambda: equivalent(a, b, h)) for h in HORIZONS}
    assert len(answers) == 1 and isinstance(answers.pop(), bool)
    reference = outcome(lambda: reference_quadratic_equivalent(a, b, 64))
    if reference is not UndecidableAtHorizonError:
        assert equivalent(a, b, 1) is reference
    for inv in (a, b):
        answers = {outcome(lambda: extension_obstruction(inv, h)) for h in HORIZONS}
        assert len(answers) == 1
        if isinstance(inv.tail, PatternCounts):
            reference = outcome(lambda: reference_quadratic_obstruction(inv, 64))
            if reference is not UndecidableAtHorizonError:
                assert answers.pop() == reference


@pytest.mark.parametrize("target,reference_horizon", [
    (QuadraticTarget.of(-1, -1, 1, 421), 64),
    (QuadraticTarget.of(0, -1, 1, 99999989), 1024),
], ids=["-1-sqrt421", "-sqrt99999989"])
def test_long_periods_are_decided_at_horizon_one(target, reference_horizon):
    a = classify(periodic_end(target, (), (P, P, N))).invariant
    b = classify(periodic_end(target, (), (P, N, N))).invariant
    with pytest.raises(UndecidableAtHorizonError):
        reference_quadratic_equivalent(a, b, 1)
    assert equivalent(a, b, 1) is reference_quadratic_equivalent(a, b, reference_horizon) is False
    assert isinstance(extension_obstruction(a, 1), NoTightExtension)


def test_count_equal_patterns_are_equivalent_at_horizon_one():
    # every block of -sqrt(2) has two slices, so (+,-) and (-,+) give each
    # block one positive slice: different rules, equal invariants
    target = QuadraticTarget.of(0, -1, 1, 2)
    a = classify(periodic_end(target, (), (P, N))).invariant
    b = classify(periodic_end(target, (), (N, P))).invariant
    assert equivalent(a, b, 1) is True


@settings(max_examples=100, deadline=None)
@given(SURDS, STARTS, st.integers(1, 12), st.integers(1, 8), st.integers(0, 40))
def test_periodic_span_reads_the_walked_blocks(target, start, k, m, walked):
    decomp = decompose(FareyPath(start, target))
    i0, blocks, slices = decomp.period()
    decomp.bounds(walked)  # none, some or all of the span's first period walked before
    lo, ranges = _periodic_span(decomp, k, m)
    first = next(ranges)
    # the span reads its first period off the bounds, walked to its end and no further
    assert len(decomp.bounds()) - 1 == max(walked, lo + blocks - 1)
    ranges = [first, *ranges]
    assert lo == max(k, i0)
    assert len(ranges) == blocks * m // gcd(slices, m)
    assert ranges == [decomp.block(i).slice_range for i in range(lo, lo + len(ranges))]


def test_span_budget_is_named(monkeypatch):
    # (+,-) and (-,+) agree on every block of -sqrt(2), over a span of one block
    monkeypatch.setattr(invariants, "SPAN_BUDGET", 0)
    target = QuadraticTarget.of(0, -1, 1, 2)
    a = classify(periodic_end(target, (), (P, N))).invariant
    b = classify(periodic_end(target, (), (N, P))).invariant
    with pytest.raises(ToricEndError, match="SPAN_BUDGET = 0 blocks"):
        equivalent(a, b)
    with pytest.raises(ToricEndError, match="SPAN_BUDGET = 0 blocks"):
        extension_obstruction(a)


def test_stream_targets_have_no_period():
    stream = quadratic_cf_target(QuadraticTarget.of(0, -1, 1, 2).value)
    assert decompose(FareyPath(Slope(-1, 1), stream)).period() is None


def test_period_budget_is_named(monkeypatch):
    monkeypatch.setattr(blocks_mod, "PERIOD_BUDGET", 3)
    target = QuadraticTarget.of(0, -1, 1, 421)
    a = classify(periodic_end(target, (), (P, P, N))).invariant
    b = classify(periodic_end(target, (), (P, N, N))).invariant
    assert equivalent(a, b) is False  # the counts differ before the period is needed
    with pytest.raises(ToricEndError, match="PERIOD_BUDGET = 3 blocks"):
        extension_obstruction(a)


def test_family_finds_the_period_once(monkeypatch):
    calls = []
    find = BlockDecomposition.period

    def counted(self, budget=None):
        calls.append(self.path.start)
        return find(self, budget)

    monkeypatch.setattr(BlockDecomposition, "period", counted)
    members = non_extendable_family(QuadraticTarget.of(0, -1, 1, 3), 250)
    assert len(members) == 250
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the Euler class over the block period

TAIL_RULES = st.one_of(
    st.just(AllPositive()), st.just(AllNegative()),
    st.builds(EventuallySign, st.sampled_from((P, N)), st.integers(0, 20)),
    st.builds(Alternating, st.sampled_from((P, N))),
    st.builds(Periodic, st.lists(st.sampled_from((P, N)), min_size=1, max_size=7).map(tuple)),
)
EULER_SURDS = st.builds(
    QuadraticTarget.of,
    st.integers(-20, 20),
    st.sampled_from((-2, -1, 1, 2)),
    st.integers(-6, 6).filter(bool),
    st.integers(2, 10 ** 4).filter(lambda d: isqrt(d) ** 2 != d),
)


@settings(max_examples=200, deadline=None)
@example(QuadraticTarget.of(0, -1, 1, 2), (), Alternating(), 2000)  # u = 0: the class stays [0, 0]
@example(QuadraticTarget.of(0, -1, 1, 2), (), AllPositive(), 1)  # before i0
@example(QuadraticTarget.of(-1, -1, 1, 421), (P, N, N), Periodic((P, P, N)), 1999)  # a partial span
@given(EULER_SURDS, st.lists(st.sampled_from((P, N)), max_size=30).map(tuple), TAIL_RULES,
       st.integers(1, 2000))
def test_euler_class_in_closed_form_matches_the_walk(target, prefix, tail, horizon):
    signs = SignData(prefix, tail)
    expected = reference_euler_walk(decompose(FareyPath(Slope(-1, 1), target)), signs, horizon)
    assert euler_class(decompose(FareyPath(Slope(-1, 1), target)), signs, horizon).as_pair() == expected
    # a bound is decided on exact values: None exactly when an entry reaches it
    largest = max(map(abs, expected))
    for bound in (10, 10 ** 40, 10 ** 300, max(largest, 1), largest + 1):  # a bound of 0 is none
        got = euler_class(decompose(FareyPath(Slope(-1, 1), target)), signs, horizon, bound)
        if largest >= bound:
            assert got is None
        else:
            assert got.as_pair() == expected


@settings(max_examples=200, deadline=None)
# (F_30, -F_31) lies near the contracting line of ((2, 1), (1, 1)): its
# images shrink for about 14 steps before they grow
@example([(1, 1)], GL2Z(1, 0, 0, 1), (832040, -1346269), 12)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3), GL2Z_WORDS,
       st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6)), st.integers(0, 40))
def test_a_capped_power_is_refused_only_past_its_limit(pairs, w, y, k):
    # a product of ((1, a), (0, 1)) ((1, 0), (b, 1)) with a, b >= 1 has trace
    # at least 3, and so has its conjugate
    m = w
    for a, b in pairs:
        m = m @ GL2Z(1 + a * b, a, b, 1)
    m = m @ w.inverse()
    exact = y
    for _ in range(k):
        exact = (m.a * exact[0] + m.b * exact[1], m.c * exact[0] + m.d * exact[1])
    largest = max(map(abs, exact))
    assert _grown(m.entries(), y, k, 0) == exact
    assert _grown(m.entries(), y, k, largest + 1) == exact
    for limit in (1, 2, max(largest, 1)):
        got = _grown(m.entries(), y, k, limit)
        assert got == exact or (got is None and largest >= limit)


def test_the_period_matrix_carries_each_step_a_period_on():
    decomp = decompose(FareyPath(Slope(-1, 1), QuadraticTarget.of(0, -1, 1, 2)))
    assert decomp.period_matrix() == (3, -4, -2, 3)
    for target in (QuadraticTarget.of(-3, 1, 4, 13), QuadraticTarget.of(-1, -1, 1, 421)):
        decomp = decompose(FareyPath(Slope(-1, 1), target))
        (i0, blocks, _), (a, b, c, d) = decomp.period(), decomp.period_matrix()
        assert a * d - b * c == 1 and a + d >= 3
        for i in range(i0 - 1, i0 + 2 * blocks):
            run, later = decomp.path.run(i), decomp.path.run(i + blocks)
            assert (later.dp, later.dq) == (a * run.dp + b * run.dq, c * run.dp + d * run.dq)


def test_a_horizon_short_of_the_first_span_is_walked_without_the_period(monkeypatch):
    # -sqrt(10^10 + 19) has a period of 62,067 blocks, which horizon 64 must
    # not need: the search stops after 64 blocks and the walk answers
    searched = []
    find = BlockDecomposition.period

    def counted(self, budget=None):
        found = find(self, budget)
        searched.append((budget, found))
        return found

    monkeypatch.setattr(BlockDecomposition, "period", counted)
    target, signs = QuadraticTarget.of(0, -1, 1, 10 ** 10 + 19), SignData((), Alternating())
    expected = reference_euler_walk(decompose(FareyPath(Slope(-1, 1), target)), signs, 64)
    assert euler_class(decompose(FareyPath(Slope(-1, 1), target)), signs, 64).as_pair() == expected
    assert searched == [(64, None)]


@pytest.mark.parametrize("budget", ["PERIOD_BUDGET", "SPAN_BUDGET"])
def test_euler_walks_past_a_period_or_span_budget(monkeypatch, budget):
    monkeypatch.setattr(blocks_mod if budget == "PERIOD_BUDGET" else invariants, budget, 3)
    target, signs = QuadraticTarget.of(-1, -1, 1, 421), SignData((P,), Periodic((P, P, N)))
    decomp = decompose(FareyPath(Slope(-1, 1), target))
    expected = reference_euler_walk(decompose(FareyPath(Slope(-1, 1), target)), signs, 3000)
    assert euler_class(decomp, signs, 3000).as_pair() == expected
    assert len(decomp.path._runs) > 500  # walked: the closed form walks about 115


def test_euler_at_a_far_horizon_walks_one_span():
    decomp = decompose(FareyPath(Slope(-1, 1), QuadraticTarget.of(0, -1, 1, 2)))
    assert euler_class(decomp, SignData((), Alternating()), 10 ** 6).as_pair() == (0, 0)
    assert len(decomp.path._runs) <= 4
    assert euler_class(decomp, SignData((), AllPositive()), 10 ** 30, 10 ** 4300) is None
