from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_ends import (
    INFINITY,
    AllNegative,
    AllPositive,
    Alternating,
    AlternatingForm,
    AttainedInvariant,
    EventuallySign,
    FareyPath,
    NegFinite,
    Periodic,
    PosFinite,
    QuadraticTarget,
    RationalNonAttainedInvariant,
    RationalTarget,
    SignData,
    Slope,
    admissible,
    count_invariants,
    decompose,
    equivalent,
    euler_class,
    farey_sequence,
    invariant_from_signs,
    parse_slope,
)
from toric_ends.ends import InfiniteDivision, NestedAnnuli, NonMinimallyTwisting
from toric_ends.errors import (
    CoverageMismatchError,
    IllegalTailError,
    IncomparableTargetsError,
)
from toric_ends.invariants import (
    BothFinite,
    IrrationalInvariant,
    PatternCounts,
    SaturatedCounts,
    ZeroCounts,
    _count_periodic,
    _normalize_count_tail,
    _positive_counts,
    _primitive_pattern,
    _tail_pattern_at,
    signs_from_chars,
)

from oracles import (
    oracle_orbit_count,
    reference_blocks,
    reference_count_positive,
    reference_euler_class,
    reference_path,
    reference_tail_sign,
    synthetic_path_vertices,
)

MINUS_SQRT2 = QuadraticTarget.of(0, -1, 1, 2)
P, N = 1, -1


def S(text):
    return parse_slope(text)


def attained_decomp(text="-3"):
    return decompose(farey_sequence(S("-1"), RationalTarget(S(text), True), 32))


def infinity_decomp():
    return decompose(FareyPath(S("-1"), RationalTarget(INFINITY, False)))


def sqrt2_decomp():
    return decompose(FareyPath(S("-1"), MINUS_SQRT2))


# ---------------------------------------------------------------------------
# construction


def test_attained_invariant_counts_positive_slices():
    inv = invariant_from_signs(attained_decomp(), SignData((P, P)))
    assert isinstance(inv, AttainedInvariant)
    assert inv.finite_f == (2,)
    assert inv.boundary_division == 1


def test_signs_from_chars_matches_sign_data():
    assert signs_from_chars("+-") == SignData((P, N))
    assert signs_from_chars([], AllPositive()) == SignData((), AllPositive())


@pytest.mark.parametrize("text", ["+x", "0", "+ -", "-+P", ["+", 1]])
def test_signs_from_chars_rejects_other_characters(text):
    with pytest.raises(ValueError, match='sign characters must be "\\+" or "-"'):
        signs_from_chars(text)


def test_attained_coverage_must_match():
    with pytest.raises(CoverageMismatchError):
        invariant_from_signs(attained_decomp(), SignData((P,)))
    with pytest.raises(IllegalTailError):
        invariant_from_signs(attained_decomp(), SignData((P, P), AllPositive()))


def test_infinite_tail_required_for_infinite_paths():
    with pytest.raises(IllegalTailError):
        invariant_from_signs(infinity_decomp(), SignData((P, P)))


def test_pos_finite_normal_form():
    inv = invariant_from_signs(infinity_decomp(), SignData((P, P, P), AllNegative()))
    assert isinstance(inv, RationalNonAttainedInvariant)
    assert inv.finite_f == ()
    assert inv.infinite_block == PosFinite(3)


def test_alternating_normal_form():
    inv = invariant_from_signs(infinity_decomp(), SignData((), Alternating()))
    assert inv.infinite_block == AlternatingForm()


@pytest.mark.parametrize("m", range(0, 9))
def test_eventually_sign_normalizes_to_pos_finite(m):
    inv = invariant_from_signs(infinity_decomp(), SignData((), EventuallySign(N, m)))
    assert inv.infinite_block == PosFinite(m)


@pytest.mark.parametrize("m", range(0, 9))
def test_eventually_sign_normalizes_to_neg_finite(m):
    inv = invariant_from_signs(infinity_decomp(), SignData((), EventuallySign(P, m)))
    assert inv.infinite_block == NegFinite(m)


def test_mixed_periodic_tail_normalizes_to_alternating():
    for pattern in [(P, N), (N, P), (P, P, N), (P, N, N, P)]:
        inv = invariant_from_signs(infinity_decomp(), SignData((), Periodic(pattern)))
        assert inv.infinite_block == AlternatingForm()


def test_single_sign_periodic_tail_is_constant():
    inv = invariant_from_signs(infinity_decomp(), SignData((), Periodic((N, N))))
    assert inv.infinite_block == PosFinite(0)


def test_irrational_saturated_and_zero_tails():
    sat = invariant_from_signs(sqrt2_decomp(), SignData((), AllPositive()))
    assert isinstance(sat, IrrationalInvariant)
    assert sat.tail == SaturatedCounts()
    assert [sat.f(i) for i in range(1, 5)] == [2, 2, 2, 2]
    zero = invariant_from_signs(sqrt2_decomp(), SignData((), AllNegative()))
    assert zero.tail == ZeroCounts()
    assert [zero.f(i) for i in range(1, 5)] == [0, 0, 0, 0]


def test_irrational_pattern_counts():
    inv = invariant_from_signs(sqrt2_decomp(), SignData((), Alternating()))
    assert isinstance(inv.tail, PatternCounts)
    assert [inv.f(i) for i in range(1, 6)] == [1, 1, 1, 1, 1]


def test_irrational_prefix_recorded_explicitly():
    inv = invariant_from_signs(sqrt2_decomp(), SignData((N, P), AllPositive()))
    assert inv.counts == (1,)
    assert inv.tail == SaturatedCounts()


# ---------------------------------------------------------------------------
# equivalence


def test_equivalent_reflexive_on_fresh_objects():
    a = invariant_from_signs(infinity_decomp(), SignData((), Alternating()))
    b = invariant_from_signs(infinity_decomp(), SignData((), Alternating()))
    assert equivalent(a, b) is True


def test_pos_and_neg_infinite_data_differ():
    d = infinity_decomp()
    a = invariant_from_signs(d, SignData((P, P, P), AllNegative()))
    b = invariant_from_signs(d, SignData((N, N, N), AllPositive()))
    assert a.infinite_block == PosFinite(3)
    assert b.infinite_block == NegFinite(3)
    assert equivalent(a, b) is False


def test_alternating_tails_with_equal_finite_f_are_equivalent():
    d = decompose(FareyPath(S("-1"), RationalTarget(S("-5/2"), False)))
    a = invariant_from_signs(d, SignData((P,), Alternating()))
    b = invariant_from_signs(d, SignData((P, P, N), Alternating(N)))
    assert a.finite_f == b.finite_f == (1,)
    assert equivalent(a, b) is True


def test_incomparable_targets_raise():
    a = invariant_from_signs(infinity_decomp(), SignData((), Alternating()))
    b = invariant_from_signs(
        decompose(FareyPath(S("-1"), RationalTarget(S("-2"), False))),
        SignData((), Alternating()))
    with pytest.raises(IncomparableTargetsError):
        equivalent(a, b)


def test_irrational_equivalence_sees_through_pattern_phase():
    # (+,-) and (-,+) give the same per-block counts on every length-3 block
    a = invariant_from_signs(sqrt2_decomp(), SignData((), Periodic((P, N))))
    b = invariant_from_signs(sqrt2_decomp(), SignData((), Periodic((N, P))))
    assert equivalent(a, b) is True


def test_irrational_prefix_difference_detected():
    a = invariant_from_signs(sqrt2_decomp(), SignData((P, P), Alternating()))
    b = invariant_from_signs(sqrt2_decomp(), SignData((P, N), Alternating(N)))
    assert a.counts[0] != b.counts[0]
    assert equivalent(a, b) is False


def test_saturated_vs_mixed_pattern_differ():
    a = invariant_from_signs(sqrt2_decomp(), SignData((), AllPositive()))
    b = invariant_from_signs(sqrt2_decomp(), SignData((), Alternating()))
    assert equivalent(a, b) is False


def test_equivalent_non_minimal_with_one_residual_none():
    d = sqrt2_decomp()
    residual = invariant_from_signs(d, SignData((), AllNegative()))
    ctx = residual.context
    assert equivalent(NonMinimallyTwisting(2, P, None, ctx), NonMinimallyTwisting(2, P, residual, ctx)) is False
    assert equivalent(NonMinimallyTwisting(2, P, residual, ctx), NonMinimallyTwisting(2, P, None, ctx)) is False
    assert equivalent(NonMinimallyTwisting(None, P, None, ctx), NonMinimallyTwisting(None, P, None, ctx)) is True


def test_equivalent_two_minimal_kinds_in_one_context():
    d = attained_decomp()
    attained = invariant_from_signs(d, SignData((P, P)))
    other = RationalNonAttainedInvariant(attained.finite_f, AlternatingForm(), attained.context)
    assert equivalent(attained, other) is False
    assert equivalent(other, attained) is False


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([P, N]), min_size=0, max_size=4),
       st.lists(st.sampled_from([P, N]), min_size=0, max_size=4),
       st.lists(st.sampled_from([P, N]), min_size=0, max_size=4))
def test_equivalence_relation_properties(pa, pb, pc):
    d = infinity_decomp()
    invs = [invariant_from_signs(d, SignData(tuple(p), Alternating())) for p in (pa, pb, pc)]
    a, b, c = invs
    assert equivalent(a, a)
    assert equivalent(a, b) == equivalent(b, a)
    if equivalent(a, b) and equivalent(b, c):
        assert equivalent(a, c)


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_zero_function():
    d = sqrt2_decomp()
    inv = invariant_from_signs(d, SignData((), AllNegative()))
    assert admissible(inv, d) is True


def test_admissible_rejects_over_length():
    d = sqrt2_decomp()
    good = invariant_from_signs(d, SignData((), AllNegative()))
    bad = IrrationalInvariant((3,), ZeroCounts(), good.context)  # block 1 has length 3
    assert admissible(bad, d) is False


def test_admissible_rejects_both_finite_infinite_block():
    d = infinity_decomp()
    ctx = invariant_from_signs(d, SignData((), Alternating())).context
    bad = RationalNonAttainedInvariant((), BothFinite(5, 7), ctx)
    assert admissible(bad, d) is False


def test_admissible_attained_invariants():
    d = attained_decomp()  # one block of length 3
    ctx = invariant_from_signs(d, SignData((P, P))).context
    assert admissible(AttainedInvariant((2,), 1, ctx), d) is True
    assert admissible(AttainedInvariant((0,), 2, ctx), d) is True
    assert admissible(AttainedInvariant((3,), 1, ctx), d) is False  # above length - 1
    assert admissible(AttainedInvariant((1, 1), 1, ctx), d) is False  # one block, two counts
    assert admissible(AttainedInvariant((), 1, ctx), d) is False


def test_admissible_rational_invariants():
    d = decompose(FareyPath(S("-1"), RationalTarget(S("-5/2"), False)))
    ctx = invariant_from_signs(d, SignData((P,), Alternating())).context
    assert [b.length for b in d.all_blocks()[:-1]] == [2]
    assert admissible(RationalNonAttainedInvariant((1,), AlternatingForm(), ctx), d) is True
    assert admissible(RationalNonAttainedInvariant((0,), PosFinite(2), ctx), d) is True
    assert admissible(RationalNonAttainedInvariant((2,), AlternatingForm(), ctx), d) is False
    assert admissible(RationalNonAttainedInvariant((), AlternatingForm(), ctx), d) is False
    # the last block of an attained path is finite
    assert admissible(RationalNonAttainedInvariant((), AlternatingForm(), ctx), attained_decomp()) is False


def test_admissible_non_minimal_and_infinite_division():
    d = sqrt2_decomp()
    good = invariant_from_signs(d, SignData((), AllNegative()))
    bad = IrrationalInvariant((3,), ZeroCounts(), good.context)
    ctx = good.context
    assert admissible(NonMinimallyTwisting(2, P, None, ctx), d) is True
    assert admissible(NonMinimallyTwisting(2, P, good, ctx), d) is True
    assert admissible(NonMinimallyTwisting(2, P, bad, ctx), d) is False
    assert admissible(InfiniteDivision(NestedAnnuli(), ctx), d) is True


def test_attained_invariant_requires_attained_rational_context():
    irr = invariant_from_signs(sqrt2_decomp(), SignData((), AllPositive()))
    with pytest.raises(ValueError):
        AttainedInvariant((1,), 1, irr.context)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([P, N]), min_size=0, max_size=6),
       st.sampled_from(["alt", "pos", "neg", "ev2"]))
def test_constructed_invariants_always_admissible(prefix, tail_kind):
    tail = {"alt": Alternating(), "pos": AllPositive(), "neg": AllNegative(),
            "ev2": EventuallySign(N, 2)}[tail_kind]
    d = sqrt2_decomp()
    inv = invariant_from_signs(d, SignData(tuple(prefix), tail))
    assert admissible(inv, d) is True


# ---------------------------------------------------------------------------
# counting


def test_count_invariants_examples():
    assert count_invariants([3]) == 3
    assert count_invariants([3, 2]) == 6
    assert count_invariants([1]) == 1


def test_count_matches_orbit_oracle():
    for lengths in [(3,), (3, 2), (2, 2), (4, 3), (2, 3, 2)]:
        assert count_invariants(list(lengths)) == oracle_orbit_count(list(lengths))


def test_count_over_decomposition():
    d = sqrt2_decomp()
    assert count_invariants(d, k=2) == 9  # two blocks of length 3


# ---------------------------------------------------------------------------
# shuffle orbits at desk scale


def test_invariant_constant_on_shuffle_orbits_and_separating():
    lengths = (3, 2)
    vertices = synthetic_path_vertices(list(lengths))
    d = decompose(FareyPath.from_vertices(vertices))
    slices = [m - 1 for m in lengths]
    total = sum(slices)
    by_orbit = {}
    for bits in product((P, N), repeat=total):
        key = []
        i = 0
        for w in slices:
            key.append(sum(1 for s in bits[i:i + w] if s > 0))
            i += w
        inv = invariant_from_signs(d, SignData(bits))
        by_orbit.setdefault(tuple(key), set()).add(inv.finite_f)
    # constant on orbits
    assert all(len(v) == 1 for v in by_orbit.values())
    # separates orbits, and the count matches the product formula
    distinct = {next(iter(v)) for v in by_orbit.values()}
    assert len(distinct) == len(by_orbit) == count_invariants(list(lengths))


# ---------------------------------------------------------------------------
# Euler class


SIGNS = st.sampled_from((P, N))
SIGN_TAILS = st.one_of(
    st.none(), st.just(AllPositive()), st.just(AllNegative()),
    st.builds(EventuallySign, SIGNS, st.integers(0, 20)),
    st.builds(Alternating, SIGNS),
    st.builds(Periodic, st.lists(SIGNS, min_size=1, max_size=6).map(tuple)),
)
PREFIXES = st.lists(SIGNS, max_size=30).map(tuple)
SIGN_DATA = st.builds(SignData, PREFIXES, SIGN_TAILS)


@pytest.mark.parametrize("entry", [0, 2, "+", None, [1]], ids=["0", "2", "plus-text", "None", "list"])
def test_sign_data_rejects_entries_other_than_plus_or_minus_one(entry):
    with pytest.raises(ValueError, match="prefix entries must be"):
        SignData((P, entry, N))
    with pytest.raises(ValueError, match="prefix entries must be"):
        SignData([entry])


# the builders, against slice-by-slice counts on the oracle's blocks: a
# prefix of at most 30 signs and an opening run of at most 20 leave the
# tail pure after slice 50, and a pattern repeats within 6 slices

TAILS = SIGN_TAILS.filter(lambda t: t is not None)


def far_signs(signs, lo):
    """The signs the tail repeats forever, read well past slice lo."""
    return {signs.sign_at(j) for j in range(lo + 100, lo + 140)}


@settings(max_examples=150, deadline=None)
@given(PREFIXES, TAILS, st.builds(QuadraticTarget.of, st.integers(-20, 20), st.integers(-4, 4).filter(bool),
                                  st.integers(-10, 10).filter(bool), st.sampled_from((2, 3, 5, 13, 421))),
       st.sampled_from((Slope(-1, 1), Slope(1, 0), Slope(3, 7))))
def test_irrational_invariant_matches_slice_sums_per_block(prefix, tail, target, start):
    signs = SignData(prefix, tail)
    inv = invariant_from_signs(decompose(FareyPath(start, target)), signs)
    blocks = reference_blocks(FareyPath(start, target), len(inv.counts) + 12)
    assert [inv.f(i) for i in range(1, len(blocks) + 1)] == \
        [reference_count_positive(signs, lo, hi) for lo, hi, _, _ in blocks]
    far = far_signs(signs, 0)
    assert type(inv.tail) is (SaturatedCounts if far == {P} else ZeroCounts if far == {N} else PatternCounts)


@settings(max_examples=150, deadline=None)
@given(PREFIXES, TAILS, st.tuples(st.integers(-200, 200), st.integers(0, 30)).filter(any)
       .map(lambda pq: Slope(*pq)).filter(lambda s: s != S("-1")))
def test_rational_invariant_matches_slice_sums_per_block(prefix, tail, slope):
    signs = SignData(prefix, tail)
    target = RationalTarget(slope, False)
    inv = invariant_from_signs(decompose(FareyPath(S("-1"), target)), signs)
    *finite, (lo, _, _, infinite) = reference_blocks(FareyPath(S("-1"), target), 10 ** 6)
    assert infinite
    assert list(inv.finite_f) == [reference_count_positive(signs, first, last) for first, last, _, _ in finite]
    far = far_signs(signs, lo)
    if len(far) == 2:
        assert inv.infinite_block == AlternatingForm()
        return
    rare = -far.pop()
    m = sum(1 for j in range(lo, lo + 100) if signs.sign_at(j) == rare)
    assert inv.infinite_block == (PosFinite(m) if rare == P else NegFinite(m))


@settings(max_examples=60, deadline=None)
@example((), P, 0)
@example((), P, 1)
@example((N, N, P), N, 0)
@example((N, N, P), N, 1)
@given(st.lists(SIGNS, max_size=8).map(tuple), SIGNS, st.integers(0, 9))
def test_alternating_count_tail_is_already_normal(prefix, first, offset):
    signs = SignData(prefix, Alternating(first))
    anchor = len(prefix) + offset
    pattern = (signs.sign_at(anchor), signs.sign_at(anchor + 1))
    interned = {}
    tail = _tail_pattern_at(signs, anchor, interned)
    assert tail == _normalize_count_tail(pattern, anchor)
    assert _tail_pattern_at(signs, anchor, interned) is tail


@settings(max_examples=300, deadline=None)
@given(SIGN_DATA, st.integers(0, 120), st.integers(0, 120))
def test_count_positive_matches_slice_sum(signs, lo, hi):
    try:
        expected = reference_count_positive(signs, lo, hi)
    except CoverageMismatchError as exc:
        with pytest.raises(CoverageMismatchError) as info:
            signs.count_positive(lo, hi)
        assert str(info.value) == str(exc)
        return
    assert signs.count_positive(lo, hi) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(SIGNS, min_size=1, max_size=6).map(tuple), st.integers(0, 20),
       st.integers(0, 80), st.integers(0, 80))
def test_pattern_counts_match_slice_sum(pattern, anchor, lo, hi):
    counts = PatternCounts(pattern, anchor)
    assert counts.count_positive(lo, hi) == reference_count_positive(counts, lo, hi)


def test_count_periodic_matches_the_per_slice_sum():
    # every pattern of length 1-6 and every lo < hi in a window of three
    # periods starting one period below 0
    for n in range(1, 7):
        for pattern in product((P, N), repeat=n):
            for lo in range(-n, 2 * n):
                for hi in range(lo + 1, 2 * n + 1):
                    naive = sum(1 for j in range(lo, hi) if pattern[j % n] == P)
                    assert _count_periodic(_positive_counts(pattern), lo, hi) == naive, (pattern, lo, hi)
    counts = _positive_counts((P, N))
    assert _count_periodic(counts, 5, 5) == _count_periodic(counts, 5, 2) == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(2, 7), min_size=1, max_size=5), st.data())
def test_euler_class_matches_slice_sum_on_synthetic_paths(lengths, data):
    vertices = synthetic_path_vertices(lengths)
    slices = len(vertices) - 1
    signs = SignData(tuple(data.draw(st.lists(SIGNS, min_size=slices, max_size=slices))))
    d = decompose(FareyPath.from_vertices(vertices))
    assert euler_class(d, signs).as_pair() == reference_euler_class(vertices, signs, slices)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.builds(RationalTarget, st.builds(Slope, st.integers(-200, 200), st.integers(0, 30).filter(bool)),
              st.booleans()),
    st.builds(QuadraticTarget.of, st.integers(-20, 20), st.integers(-4, 4).filter(bool),
              st.integers(-10, 10).filter(bool), st.sampled_from((2, 3, 5, 13, 421, 9973))),
), SIGN_DATA, st.integers(0, 80))
def test_euler_class_matches_slice_sum_toward_random_targets(target, signs, horizon):
    start = Slope(-1, 1)
    if isinstance(target, RationalTarget) and target.slope == start:
        return
    if target.attained:
        vertices = reference_path(start, target, 10 ** 6)
        slices = len(vertices) - 1
    else:
        slices = horizon
        vertices = reference_path(start, target, slices + 1)
    d = decompose(FareyPath(start, target))
    try:
        expected = reference_euler_class(vertices, signs, slices)
    except CoverageMismatchError as exc:
        with pytest.raises(CoverageMismatchError) as info:
            euler_class(d, signs, horizon)
        assert str(info.value) == str(exc)
        return
    assert euler_class(d, signs, horizon).as_pair() == expected


def test_euler_single_slice_signs():
    d = attained_decomp("-2")
    assert euler_class(d, SignData((P,))).as_pair() == (0, -1)
    assert euler_class(d, SignData((N,))).as_pair() == (0, 1)


def test_euler_shuffle_invariance_within_block():
    d = attained_decomp("-3")  # one block, two slices
    assert euler_class(d, SignData((P, N))) == euler_class(d, SignData((N, P)))


def test_euler_exhaustive_shuffles_on_five_slice_block():
    vertices = synthetic_path_vertices([6])
    d = decompose(FareyPath.from_vertices(vertices))
    for positives in range(6):
        seen = set()
        for bits in product((P, N), repeat=5):
            if sum(1 for s in bits if s > 0) == positives:
                seen.add(euler_class(d, SignData(bits)).as_pair())
        assert len(seen) == 1


def test_euler_sign_antisymmetry():
    vertices = synthetic_path_vertices([3, 3])
    d = decompose(FareyPath.from_vertices(vertices))
    for bits in product((P, N), repeat=4):
        flipped = tuple(-s for s in bits)
        assert euler_class(d, SignData(flipped)) == -euler_class(d, SignData(bits))


def test_euler_sensitive_across_block_boundary():
    vertices = synthetic_path_vertices([3, 3])
    d = decompose(FareyPath.from_vertices(vertices))
    # one positive slice, on either side of the block boundary
    a = euler_class(d, SignData((N, P, N, N)))
    b = euler_class(d, SignData((N, N, P, N)))
    assert a != b


def test_euler_truncates_infinite_paths_at_horizon():
    d = sqrt2_decomp()
    small = euler_class(d, SignData((), Alternating()), horizon=4)
    big = euler_class(d, SignData((), Alternating()), horizon=8)
    assert isinstance(small.x, int) and isinstance(big.x, int)


def test_euler_shuffle_invariance_through_infinity_wrap():
    # image of -1, -2, -3, -4 under [[1,1],[1,2]], which sends -2 to oo:
    # the block wraps the pole, so coherent lifts must flip sign across it
    from toric_ends import GL2Z
    m = GL2Z(1, 1, 1, 2)
    vertices = [m.apply(parse_slope(f"{-k}/1")) for k in (1, 2, 3, 4)]
    assert any(v.q == 0 for v in vertices)  # oo really is an interior vertex
    path = FareyPath.from_vertices(vertices)
    d = decompose(path)
    assert d.all_blocks()[0].length == 4
    for positives in range(4):
        seen = {
            euler_class(d, SignData(bits)).as_pair()
            for bits in product((P, N), repeat=3)
            if sum(1 for s in bits if s > 0) == positives
        }
        assert len(seen) == 1


def test_attained_equivalence_sensitive_to_division_at_infinity():
    from toric_ends.invariants import AttainedInvariant
    d = attained_decomp()
    a = invariant_from_signs(d, SignData((P, P)), boundary_division=1)
    b = invariant_from_signs(d, SignData((P, P)), boundary_division=2)
    assert a.finite_f == b.finite_f
    assert equivalent(a, b) is False


TAILS_BY_KIND = {
    "all-positive": st.just(AllPositive()),
    "all-negative": st.just(AllNegative()),
    "eventually": st.builds(EventuallySign, SIGNS, st.integers(0, 20)),
    "alternating": st.builds(Alternating, SIGNS),
    "periodic": st.builds(Periodic, st.lists(SIGNS, min_size=1, max_size=7).map(tuple)),
}


@pytest.mark.parametrize("kind", TAILS_BY_KIND)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sign_tails_match_their_definitions(kind, data):
    tail = data.draw(TAILS_BY_KIND[kind])
    lo, hi = data.draw(st.integers(0, 60)), data.draw(st.integers(0, 60))
    assert [tail.sign_at(j) for j in range(80)] == [reference_tail_sign(tail, j) for j in range(80)]
    assert tail.count_positive(lo, hi) == sum(1 for j in range(lo, hi) if reference_tail_sign(tail, j) > 0)


@pytest.mark.parametrize("kind", TAILS_BY_KIND)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shifted_sign_data_matches_the_definitions(kind, data):
    tail = data.draw(TAILS_BY_KIND[kind])
    prefix = data.draw(PREFIXES)
    k, lo, hi = (data.draw(st.integers(0, 60)) for _ in range(3))
    shifted = SignData(prefix, tail).shifted(k)
    assert type(shifted.tail) is type(tail)
    assert shifted.prefix == prefix[k:]

    def sign(j):  # slice j of the unshifted signs
        return prefix[j] if j < len(prefix) else reference_tail_sign(tail, j - len(prefix))

    assert [shifted.sign_at(j) for j in range(80)] == [sign(k + j) for j in range(80)]
    assert shifted.count_positive(lo, hi) == sum(1 for j in range(lo, hi) if sign(k + j) > 0)


def test_primitive_pattern_matches_the_divisor_loop():
    for n in range(1, 13):
        for pattern in product((P, N), repeat=n):
            root = next(pattern[:p] for p in range(1, n + 1)
                        if n % p == 0 and all(pattern[i] == pattern[i % p] for i in range(n)))
            assert _primitive_pattern(pattern) == root, pattern
