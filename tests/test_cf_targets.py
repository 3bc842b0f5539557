"""Coefficient-stream targets: parity with exact surds, basis changes, and
the honest-refusal paths when a finite scan cannot settle a question."""

import functools
import itertools
import operator
import re
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_ends import (
    AllPositive,
    Alternating,
    CFTarget,
    EndDescription,
    FareyPath,
    Periodic,
    QuadraticTarget,
    SignData,
    Slope,
    TorusRecord,
    classify,
    decompose,
    equivalent,
    extension_obstruction,
    farey_sequence,
    invariant_from_signs,
    parse_slope,
    quadratic_cf_target,
)
from toric_ends import ends
from toric_ends.ends import Unknown, basis_change
from toric_ends.errors import ToricEndError, UndecidableAtHorizonError
from toric_ends.farey import CFStream, GL2Z, _cf_coefficients, _StreamImage

from oracles import gl2z_inverse, reference_stream_run

P, N = 1, -1
MINUS_SQRT2 = QuadraticTarget.of(0, -1, 1, 2)


def S(text):
    return parse_slope(text)


def sqrt2_stream():
    def gen():
        yield 1
        while True:
            yield 2
    return CFStream(gen())


def test_stream_validation():
    with pytest.raises(ToricEndError):
        CFStream(iter([1, 2, 3])).coefficient(5)
    with pytest.raises(ToricEndError):
        CFStream(itertools.cycle([1, 0])).coefficient(1)


class Integral:
    """An integer-like value that is not an int."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


@pytest.mark.parametrize("bad", [2.9, "3", True, None], ids=["float", "text", "bool", "none"])
def test_stream_coefficients_must_be_integers(bad):
    # int() turned the first three into 2, 3 and 1, and None raised a TypeError
    stream = CFStream(itertools.chain([1, 2], [bad], itertools.repeat(2)))
    with pytest.raises(ToricEndError, match=rf"cf-stream coefficient 2 must be an integer, not {re.escape(repr(bad))}"):
        stream.coefficient(4)
    assert CFStream(itertools.chain([Integral(-1)], map(Integral, itertools.repeat(2)))).coefficient(3) == 2
    assert str(CFTarget(itertools.chain([Integral(1)], map(Integral, itertools.repeat(2))))) == "[1; 2, 2, 2, ...]"


def convergent_neighbours(value, count):
    """h/k, (h - 1)/k and (h + 1)/k for the first `count` convergents h/k of
    a surd: fractions close enough to it that a floor must read far."""
    fractions, (h, k, h0, k0), coefficients = [], (1, 0, 0, 1), value.cf_coefficients()
    for _ in range(count):
        e = next(coefficients)
        h, k, h0, k0 = e * h + h0, e * k + k0, h, k
        fractions += [(h - 1, k), (h, k), (h + 1, k)]
    return fractions


@settings(max_examples=150, deadline=None)
@example(2, 0, 1, 1, 141421356, 100000000)
@example(421, -1, -1, 3, 0, 1)
@given(st.integers(2, 500).filter(lambda d: isqrt(d) ** 2 != d),
       st.integers(-40, 40), st.integers(-6, 6).filter(bool), st.integers(-10, 10).filter(bool),
       st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
def test_stream_comparisons(d, a, b, c, p, q):
    s = CFTarget(sqrt2_stream())  # sqrt(2)
    assert s.cmp_fraction(1, 1) > 0
    assert s.cmp_fraction(3, 2) < 0
    assert s.cmp_fraction(141421356, 100000000) > 0
    assert s.cmp_fraction(141421357, 100000000) < 0
    # the Gosper cursor against the exact surd sign test: p/q, and each
    # convergent h/k of the surd with h - 1 and h + 1 around it
    quad = QuadraticTarget.of(a, b, c, d)
    twin = quadratic_cf_target(quad.value)
    for p, q in [(p, q)] + convergent_neighbours(quad.value, 12):
        assert twin.cmp_fraction(p, q) == quad.cmp_fraction(p, q), (p, q)


# every GL2(Z) matrix is a product of translations and the swap
GL2Z_WORDS = st.lists(
    st.one_of(st.integers(-4, 4).map(lambda k: GL2Z(1, k, 0, 1)), st.just(GL2Z(0, 1, 1, 0))),
    max_size=8,
).map(lambda ms: functools.reduce(operator.matmul, ms, GL2Z(1, 0, 0, 1)))


@settings(max_examples=80, deadline=None)
@example(2, 0, 1, 1, GL2Z(1, 0, 0, 1))
@example(2, 0, 1, 1, GL2Z(2, 1, 1, 1))
@example(2, 0, 1, 1, GL2Z(0, -1, 1, 0))
@example(2, 0, 1, 1, GL2Z(-3, 2, 1, -1))
@given(st.integers(2, 60).filter(lambda d: isqrt(d) ** 2 != d),
       st.integers(-20, 20), st.integers(-5, 5).filter(bool), st.integers(-10, 10).filter(bool),
       GL2Z_WORDS)
def test_stream_mobius_floor_matches_surd(d, a, b, c, m):
    quad = QuadraticTarget.of(a, b, c, d)
    twin = quadratic_cf_target(quad.value)
    assert quad.image(m).floor() == twin.image(m).floor()
    image = _cf_coefficients(twin.image(m))
    exact = quad.value.mobius(m).cf_coefficients()
    assert [next(image) for _ in range(8)] == [next(exact) for _ in range(8)]


@settings(max_examples=80, deadline=None)
@example(2, 0, 1, 1, [GL2Z(0, 1, 1, 0), GL2Z(1, 2, 0, 1)], GL2Z(1, 0, 0, 1), 7, 5)
@example(3, 1, 1, 2, [], GL2Z(0, -1, 1, 0), 1, 1)
@given(st.integers(2, 60).filter(lambda d: isqrt(d) ** 2 != d),
       st.integers(-20, 20), st.integers(-5, 5).filter(bool), st.integers(-10, 10).filter(bool),
       st.lists(GL2Z_WORDS, max_size=4), GL2Z_WORDS, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 100))
def test_a_chain_of_transforms_is_the_target_in_the_composed_frame(d, a, b, c, chain, m, p, q):
    quad = QuadraticTarget.of(a, b, c, d)
    source = quadratic_cf_target(quad.value)
    stacked, twin, frame = source, quad, GL2Z(1, 0, 0, 1)
    for w in chain:
        stacked, twin, frame = stacked.transform(w), twin.transform(w), w @ frame
    composed = CFTarget(source.stream, frame)
    assert stacked == composed and hash(stacked) == hash(composed) and stacked.stream is source.stream
    # the same value read from another source is another target
    assert stacked != CFTarget(quad.value.cf_coefficients(), frame)
    for p, q in [(p, q)] + convergent_neighbours(twin.value, 8):
        assert stacked.cmp_fraction(p, q) == twin.cmp_fraction(p, q), (p, q)
    assert stacked.image(m).floor() == twin.image(m).floor()
    image, exact = _cf_coefficients(stacked.image(m)), twin.image(m).cf_coefficients()
    assert [next(image) for _ in range(8)] == [next(exact) for _ in range(8)]
    head = twin.value.cf_coefficients()
    assert str(stacked) == "[{}; {}, {}, {}, ...]".format(*(next(head) for _ in range(4)))


def test_stacked_transforms_read_one_stream_once_per_coefficient(monkeypatch):
    # a transform multiplies the frame, so the walk reads each coefficient of
    # the one source, never through a stack of images
    built, reads = [], []
    init, coefficient = CFStream.__init__, CFStream.coefficient
    monkeypatch.setattr(CFStream, "__init__", lambda self, it: built.append(self) or init(self, it))
    monkeypatch.setattr(CFStream, "coefficient", lambda self, i: reads.append(self) or coefficient(self, i))
    minus_sqrt3 = QuadraticTarget.of(0, -1, 1, 3)
    stream, twin = quadratic_cf_target(minus_sqrt3.value), minus_sqrt3
    for k in range(12):
        m = basis_change(Slope(2 * k + 1, 5))
        stream, twin = stream.transform(m), twin.transform(m)
    n = 2000
    walked = FareyPath(S("-1"), stream).prefix(n)
    assert len(built) == 1 and set(reads) == {stream.stream}
    assert len(reads) <= 2 * n
    assert walked == FareyPath(S("-1"), twin).prefix(n)


def test_two_stream_ends_from_another_start_share_one_decomposition(monkeypatch):
    # each end's target is moved to the frame of its boundary; the two moved
    # targets read one stream in equal frames, so they are equal
    decompositions = []
    real = ends.decompose
    monkeypatch.setattr(ends, "decompose", lambda path: decompositions.append(path) or real(path))
    cf = quadratic_cf_target(QuadraticTarget.of(0, -1, 1, 3).value)
    boundary = TorusRecord(S("2/5"), 1)
    a = EndDescription(boundary, cf, SignData((P,), Alternating()))
    b = EndDescription(boundary, cf, SignData((N, N), Alternating()))
    shared = classify(a).context.decomposition()
    assert classify(b, shared).context.decomposition() is shared
    assert len(decompositions) == 1


@settings(max_examples=100, deadline=None)
@example(2, 0, -1, 1, GL2Z(1, 0, 0, 1))
@example(3, 1, 1, 2, GL2Z(0, 1, 1, 0))
@given(st.integers(2, 10 ** 4).filter(lambda d: isqrt(d) ** 2 != d),
       st.integers(-20, 20), st.integers(-5, 5).filter(bool), st.integers(-10, 10).filter(bool),
       GL2Z_WORDS)
def test_stream_run_reads_both_digits_as_two_floors_do(d, a, b, c, m):
    # the walk's one-loop run against the two-floor composition, run after
    # run, and its digits against the exact surd's run of the same image;
    # the two share one stream and take turns to read first, so the loop
    # reads coefficients both from the memo and past it
    quad = QuadraticTarget.of(a, b, c, d)
    stream = quadratic_cf_target(quad.value).stream
    fused = twin = _StreamImage(stream, 0, *m.entries())
    exact = quad.value.mobius(m)
    for run in range(12):
        if run % 2:
            r0, r1, state = reference_stream_run(twin)
            a0, a1, fused = fused._run(False)
        else:
            a0, a1, fused = fused._run(False)
            r0, r1, state = reference_stream_run(twin)
        assert (a0, a1, (fused.i, fused.a, fused.b, fused.c, fused.d)) == (r0, r1, state)
        twin = _StreamImage(twin.stream, *state)
        e0, e1, exact = exact._run(False)
        assert (a0, a1) == (e0, e1)


@pytest.mark.parametrize("coefficients,message", [
    ([1, 2, 3], "cf-stream must be infinite"),
    (itertools.chain([1, 2], itertools.repeat(0)), "coefficients after the first must be >= 1"),
], ids=["finite", "zero-coefficient"])
def test_stream_walk_keeps_the_stream_checks(coefficients, message):
    with pytest.raises(ToricEndError, match=message):
        FareyPath(S("-1"), CFTarget(iter(coefficients))).extend_to(20)


def test_stream_mobius_emits_image_cf():
    # image of sqrt(2) under x -> (x + 1)/x is (2 + sqrt(2))/2
    image = CFTarget(sqrt2_stream()).transform(GL2Z(1, 1, 1, 0))
    coefficients = _cf_coefficients(image.image(GL2Z(1, 0, 0, 1)))
    expected = QuadraticTarget.of(2, 1, 2, 2).value
    exact = expected.cf_coefficients()
    for i in range(12):
        assert next(coefficients) == next(exact)
    assert str(image) == "[1; 1, 2, 2, ...]"


def test_classify_cf_target_matches_quadratic_twin():
    cf = quadratic_cf_target(MINUS_SQRT2.value)
    e_cf = EndDescription(TorusRecord(S("-1"), 1), cf, SignData((P,), Alternating()))
    e_quad = EndDescription(TorusRecord(S("-1"), 1), MINUS_SQRT2, SignData((P,), Alternating()))
    a, b = classify(e_cf), classify(e_quad)
    assert a.counts == b.counts
    assert [a.f(i) for i in range(1, 8)] == [b.f(i) for i in range(1, 8)]


def test_classify_cf_target_with_basis_change():
    boundary = S("2/3")
    m = basis_change(boundary)
    # pull the target back so the normalized picture walks toward -sqrt(2)
    pulled = MINUS_SQRT2.transform(gl2z_inverse(m))
    e_quad = EndDescription(TorusRecord(boundary, 1), pulled, SignData((), Alternating()))
    e_cf = EndDescription(TorusRecord(boundary, 1),
                          quadratic_cf_target(pulled.value),
                          SignData((), Alternating()))
    a, b = classify(e_quad), classify(e_cf)
    assert [a.f(i) for i in range(1, 7)] == [1] * 6
    assert [b.f(i) for i in range(1, 7)] == [1] * 6


def test_cf_equivalence_decides_when_prefix_differs():
    cf = quadratic_cf_target(MINUS_SQRT2.value)
    d = decompose(FareyPath(S("-1"), cf))
    a = invariant_from_signs(d, SignData((P, P), Alternating()))
    b = invariant_from_signs(d, SignData((N, N), Alternating()))
    assert equivalent(a, b) is False


def test_cf_equivalence_identical_rules_decide_true():
    cf = quadratic_cf_target(MINUS_SQRT2.value)
    d = decompose(FareyPath(S("-1"), cf))
    a = invariant_from_signs(d, SignData((), Periodic((P, N))))
    b = invariant_from_signs(d, SignData((), Periodic((P, N))))
    assert equivalent(a, b) is True


def test_cf_equivalence_undecidable_at_horizon():
    # (+,-) vs (-,+) have equal counts on every even-slice block; with a
    # stream target there is no periodicity certificate, so the scan must
    # refuse rather than guess
    cf = quadratic_cf_target(MINUS_SQRT2.value)
    d = decompose(FareyPath(S("-1"), cf))
    a = invariant_from_signs(d, SignData((), Periodic((P, N))))
    b = invariant_from_signs(d, SignData((), Periodic((N, P))))
    with pytest.raises(UndecidableAtHorizonError):
        equivalent(a, b, horizon=12)


def test_cf_equivalence_finds_a_differing_block_inside_the_horizon():
    # blocks 1-3 have two slices each and every later block three, so
    # (+,-) and (-,+) first differ on block 4
    cf = CFTarget(itertools.chain([-2, 1, 1, 2, 2, 2, 2, 2, 2], itertools.repeat(3)))
    d = decompose(FareyPath(S("-1"), cf))
    a = invariant_from_signs(d, SignData((), Periodic((P, N))))
    b = invariant_from_signs(d, SignData((), Periodic((N, P))))
    assert [a.f(i) for i in range(1, 5)] == [1, 1, 1, 2]
    assert [b.f(i) for i in range(1, 5)] == [1, 1, 1, 1]
    assert equivalent(a, b, horizon=8) is False
    with pytest.raises(UndecidableAtHorizonError):
        equivalent(a, b, horizon=3)


def test_cf_constant_and_mixed_tails_differ_inside_the_early_scan():
    # every block of -sqrt(2) has two slices, so the mixed pattern's only
    # negative slice, slice 9, first shows in block 5: a scan of as many
    # blocks as the pattern has slices finds it at any horizon
    cf = quadratic_cf_target(MINUS_SQRT2.value)
    d = decompose(FareyPath(S("-1"), cf))
    a = invariant_from_signs(d, SignData((), AllPositive()))
    b = invariant_from_signs(d, SignData((), Periodic((P,) * 9 + (N,))))
    assert [b.f(i) for i in range(1, 6)] == [2, 2, 2, 2, 1]
    assert equivalent(a, b, horizon=1) is False
    assert equivalent(b, a, horizon=1) is False


def test_cf_obstruction_reports_unknown():
    cf = quadratic_cf_target(MINUS_SQRT2.value)
    e = EndDescription(TorusRecord(S("-1"), 1), cf, SignData((), Periodic((P, N))))
    assert extension_obstruction(classify(e)) == Unknown()


def test_cf_path_agrees_with_quadratic_far_out():
    cf = quadratic_cf_target(QuadraticTarget.of(-3, 1, 4, 13).value)
    a = farey_sequence(S("-1"), QuadraticTarget.of(-3, 1, 4, 13), 40).prefix(40)
    b = farey_sequence(S("-1"), cf, 40).prefix(40)
    assert a == b
