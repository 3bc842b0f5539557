"""The integer walk kernel against slow paths: the PQa surd state
(P + sqrt(D))/Q and the per-kind runs against the reference stepper and
the reference period scan, the rounding of a rational run against the
reference stepper and block finder on every small target, the vertex text
read off the runs against str() of each vertex, and work counts: a walk
builds no GL2Z and one walk value per run, and a differing block answers a
compare without the block period."""

from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_ends import (
    GL2Z,
    BlockDecomposition,
    FareyPath,
    QuadraticTarget,
    RationalTarget,
    Slope,
    classify,
    decompose,
    equivalent,
    quadratic_cf_target,
)
from toric_ends.errors import MalformedPathError
from toric_ends.farey import _Surd

from oracles import (
    reference_blocks,
    reference_cf_coefficients,
    reference_next_toward,
    reference_path,
    reference_quadratic_period,
)
from test_period import N, P, periodic_end

# negative b, |c| > 1 and d with square factors (12 = 2^2*3, 50 = 5^2*2)
# make the PQa form scale (P, Q, D) so that Q divides D - P^2
KERNEL_SURDS = st.builds(
    QuadraticTarget.of,
    st.integers(-40, 40),
    st.integers(-6, 6).filter(bool),
    st.sampled_from((2, 3, 5, 7, 9)).flatmap(lambda c: st.sampled_from((c, -c))),
    st.sampled_from((12, 50, 8, 18, 45, 72, 98)) | st.integers(2, 500).filter(lambda d: isqrt(d) ** 2 != d),
)
STARTS = st.builds(Slope, st.integers(-30, 30), st.integers(1, 9)) | st.just(Slope(1, 0))


@settings(max_examples=120, deadline=None)
@example(QuadraticTarget.of(1, -2, 3, 12), Slope(-1, 1), 50)
@example(QuadraticTarget.of(-7, -3, 5, 50), Slope(5, 2), 50)
@example(QuadraticTarget.of(0, -1, 1, 421), Slope(1, 0), 50)
@given(KERNEL_SURDS, STARTS, st.integers(1, 60))
def test_surd_walk_matches_reference(target, start, n):
    expected = reference_path(start, target, n)
    assert FareyPath(start, target).prefix(n) == expected
    assert FareyPath(start, quadratic_cf_target(target.value)).prefix(n) == expected
    assert FareyPath(start, target).prefix_text(n) == [str(v) for v in expected]


@settings(max_examples=120, deadline=None)
@example(QuadraticTarget.of(1, -2, 3, 12), Slope(-1, 1))
@example(QuadraticTarget.of(-7, -3, 5, 50), Slope(5, 2))
@given(KERNEL_SURDS, STARTS)
def test_surd_block_period_matches_reference_scan(target, start):
    i0, blocks, slices = decompose(FareyPath(start, target)).period()
    decomp = decompose(FareyPath(start, target))
    assert reference_quadratic_period(decomp, target.value, i0, 1, 4 * blocks) == (i0, i0 + blocks)
    assert decomp.block(i0 + blocks).start_index - decomp.block(i0).start_index == slices


@settings(max_examples=120, deadline=None)
@given(KERNEL_SURDS)
def test_cf_coefficients_match_the_mobius_recurrence(target):
    coefficients = target.value.cf_coefficients()
    assert [next(coefficients) for _ in range(40)] == reference_cf_coefficients(target.value, 40)


def test_block_period_of_a_long_period():
    target = QuadraticTarget.of(0, -1, 1, 10 ** 10 + 19)
    assert decompose(FareyPath(Slope(-1, 1), target)).period() == (2, 62067, 1095612)


# ---------------------------------------------------------------------------
# rational rounding: an integer x or z


def all_block_tuples(path):
    return [(b.start_index, b.end_index, b.witness.entries(), b.infinite)
            for b in decompose(path).all_blocks()]


def check_rational_walk(start, target):
    assert FareyPath(start, target).vertex(1) == reference_next_toward(start, target)
    assert all_block_tuples(FareyPath(start, target)) == reference_blocks(FareyPath(start, target), 10 ** 9)
    assert FareyPath(start, target).prefix(40) == reference_path(start, target, 40)


def test_rational_walks_round_every_small_target():
    # every p/q with |p|, q <= 12, attained or not, from four starts; the
    # walk reads x and z off each run where the reference steps one vertex
    slopes = {Slope(p, q) for p in range(-12, 13) for q in range(13) if p or q}
    for start in (Slope(-1, 1), Slope(0, 1), Slope(1, 0), Slope(5, 2)):
        for slope in slopes - {start}:
            for attained in (True, False):
                check_rational_walk(start, RationalTarget(slope, attained))


@pytest.mark.parametrize("start,target,edges", [
    (Slope(-1, 1), RationalTarget(Slope(-2, 1), True), [1]),  # integer x: a hit on the first step
    (Slope(1, 0), RationalTarget(Slope(3, 1), True), [1]),
    (Slope(-1, 1), RationalTarget(Slope(-2, 1), False), [None]),  # integer x: z = oo, the infinite run
    (Slope(1, 0), RationalTarget(Slope(7, 2), False), [1, None]),  # integer z: a1 = z - 1, then x' = 2
    (Slope(1, 0), RationalTarget(Slope(7, 2), True), [2]),  # integer z: a1 = z, a hit
], ids=["hit-first-step", "hit-first-step-from-oo", "integer-x-infinite-run", "integer-z-short",
        "integer-z-hit"])
def test_rational_rounding_cases(start, target, edges):
    check_rational_walk(start, target)
    path = FareyPath(start, target)
    path.extend_to(40)
    assert [run.edges for run in path._runs] == edges
    assert path.complete is target.attained


# ---------------------------------------------------------------------------
# vertex text


@pytest.mark.parametrize("start,target", [
    (Slope(-12, 1), RationalTarget(Slope(-10, 1), True)),  # q = 0 inside a finite run
    (Slope(-12, 1), RationalTarget(Slope(-11, 1), False)),  # q = 0 inside the infinite run
    (Slope(-11, 3), RationalTarget(Slope(-13, 4), True)),  # q changes sign, never 0, in a run
    (Slope(-11, 3), RationalTarget(Slope(-7, 2), False)),
    (Slope(-12, 1), RationalTarget(Slope(-15, 2), True)),  # runs of negative lifts
    (Slope(1, 0), RationalTarget(Slope(5, 3), False)),
    (Slope(-1, 1), RationalTarget(Slope(-20000, 1), True)),  # one run of 19999 edges
], ids=["zero-in-finite-run", "zero-in-infinite-run", "sign-change-finite", "sign-change-infinite",
        "negative-lifts", "from-oo", "attained--20000"])
def test_vertex_text_is_str_of_each_vertex(start, target):
    for n in (1, 2, 3, 4, 7, 60, 19999, 20000, 20001, 20050):
        path = FareyPath(start, target)
        text = path.prefix_text(n)
        assert text == [str(v) for v in path.prefix(n)]
        if n <= 60:
            assert text == [str(v) for v in reference_path(start, target, n)]


def test_vertex_text_crosses_oo_inside_a_run():
    path = FareyPath(Slope(-12, 1), RationalTarget(Slope(-10, 1), True))
    assert path.prefix_text(10) == ["-12/1", "1/0", "-10/1"]
    assert len(path._runs) == 1  # one run whose lifts pass q = 0
    path = FareyPath(Slope(-11, 3), RationalTarget(Slope(-7, 2), False))
    assert path.prefix_text(4) == ["-11/3", "-4/1", "-3/1", "-10/3"]
    assert path.run(0).edges is None and path.run(0).dq == -2  # q = 3, 1, -1, -3, ...
    # a given path that turns at oo into 5, 4, 3 is not the walk (oo -> 3
    # is an edge), so it is refused rather than stored
    vertices = [Slope(-3, 1), Slope(1, 0), Slope(5, 1), Slope(4, 1), Slope(3, 1)]
    with pytest.raises(MalformedPathError, match="vertex 2"):
        FareyPath.from_vertices(vertices)
    assert FareyPath.from_vertices(vertices[:2] + vertices[-1:]).prefix_text(9) == ["-3/1", "1/0", "3/1"]


@settings(max_examples=150, deadline=None)
@given(st.integers(-200, 200), st.integers(0, 40), st.booleans(), STARTS, st.integers(1, 80))
def test_vertex_text_matches_reference_on_rationals(p, q, attained, start, n):
    if p == 0 and q == 0:
        return
    target = RationalTarget(Slope(p, q), attained)
    if target.slope == start:
        return
    assert FareyPath(start, target).prefix_text(n) == [str(v) for v in reference_path(start, target, n)]


# ---------------------------------------------------------------------------
# work counts


def test_walk_steps_build_no_gl2z(monkeypatch):
    path = FareyPath(Slope(-1, 1), QuadraticTarget.of(0, -1, 1, 421))
    built = 0
    init = GL2Z.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(GL2Z, "__init__", counted)
    steps = 0
    while steps < 2000:
        steps += path.run(len(path._runs)).edges
    assert built == 0
    GL2Z(0, 1, 1, 0)
    assert built == 1  # the count does see a GL2Z


def test_a_surd_walk_builds_one_value_per_run(monkeypatch):
    path = FareyPath(Slope(-1, 1), QuadraticTarget.of(0, -1, 1, 2))
    built = 0
    init = _Surd.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(_Surd, "__init__", counted)
    assert path.run(1999) is not None
    assert built <= 2001  # the first x, then one x' per run


def test_a_rational_walk_builds_one_slope_per_run(monkeypatch):
    # -P/Q for consecutive Pell numbers is -[2; 2, 2, ...]: every run but
    # the last has an integer z, the case that rounds a1 = z - 1
    pell = [0, 1]
    while len(pell) < 1002:
        pell.append(2 * pell[-1] + pell[-2])
    path = FareyPath(Slope(-1, 1), RationalTarget(Slope(-pell[-1], pell[-2]), False))
    calls = 0
    primitive = Slope._primitive.__func__

    def counted(cls, p, q):
        nonlocal calls
        calls += 1
        return primitive(cls, p, q)

    monkeypatch.setattr(Slope, "_primitive", classmethod(counted))
    i = 0
    while path.run(i).edges is not None:
        i += 1
    assert i + 1 == len(path._runs) == 501
    assert calls <= len(path._runs)  # the first x is one of them


def test_differing_block_answers_without_the_period(monkeypatch):
    # per-block counts differ at block 1, long before the 62067-block period
    target = QuadraticTarget.of(0, -1, 1, 10 ** 10 + 19)
    a = classify(periodic_end(target, (), (P, P, N)))
    b = classify(periodic_end(target, (), (P, N, N)))

    def refuse(self, budget=None):
        raise AssertionError("the block period was asked for")

    monkeypatch.setattr(BlockDecomposition, "period", refuse)
    for horizon in (1, 64, 4096):
        assert equivalent(a, b, horizon) is False
