"""Non-extendable families against the reference loop, which classifies
every member from scratch through the public classify, plus work counts
that show one decomposition per family and constant-size rational sign
data (counts, not timings)."""

from math import isqrt

from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_ends import (
    FareyPath,
    PosFinite,
    QuadraticTarget,
    RationalTarget,
    Slope,
    decompose,
    non_extendable_family,
    quadratic_cf_target,
)
from toric_ends import blocks, ends, invariants
from toric_ends.cli import invariant_doc
from toric_ends.errors import ToricEndError

from oracles import reference_family

SLOPES = st.tuples(st.integers(-40, 40), st.integers(0, 12)).filter(any).map(lambda pq: Slope(*pq))

NON_SQUARES = st.integers(2, 400).filter(lambda d: isqrt(d) ** 2 != d)

SURDS = st.tuples(st.integers(-20, 20), st.integers(-4, 4).filter(bool),
                  st.integers(-10, 10).filter(bool), NON_SQUARES)


def outcome(build):
    """Member documents, or the type and message of the error raised."""
    try:
        return [invariant_doc(m) for m in build()]
    except (ValueError, ToricEndError) as exc:
        return type(exc), str(exc)


def same_family(target, k, start, fresh_target=None):
    other = target if fresh_target is None else fresh_target()
    assert outcome(lambda: non_extendable_family(target, k, start)) == \
        outcome(lambda: reference_family(other, k, start))


@settings(max_examples=80, deadline=None)
@example(Slope(1, 0), Slope(-1, 1), 7)
@example(Slope(-5, 2), Slope(3, 7), 12)
@example(Slope(-3, 2), Slope(-3, 2), 2)
@given(SLOPES, SLOPES, st.integers(0, 40))
def test_rational_family_matches_reference(slope, start, k):
    same_family(RationalTarget(slope, False), k, start)


@settings(max_examples=60, deadline=None)
@example((0, -1, 1, 3), Slope(-1, 1), 30)
@example((1, -1, 1, 13), Slope(2, 5), 25)
@example((0, -1, 1, 5), Slope(-1, 1), 3)
@given(SURDS, SLOPES, st.integers(1, 60))
def test_surd_family_matches_reference(surd, start, k):
    same_family(QuadraticTarget.of(*surd), k, start)


@settings(max_examples=25, deadline=None)
@example(40, Slope(-1, 1), 60)
@example(41, Slope(2, 5), 120)
@given(st.integers(40, 300), SLOPES, st.integers(1, 120))
def test_family_toward_surds_with_long_blocks_matches_reference(n, start, k):
    # -sqrt(n^2 + 1) has blocks of about 2n vertices, so a member's counts
    # sit on one or two long blocks and its certificate on long tail blocks
    same_family(QuadraticTarget.of(0, -1, 1, n * n + 1), k, start)


@settings(max_examples=30, deadline=None)
@example((0, -1, 1, 3), Slope(-3, 2), 4)
@given(SURDS, SLOPES, st.integers(1, 20))
def test_stream_family_matches_reference(surd, start, k):
    value = QuadraticTarget.of(*surd).value
    same_family(quadratic_cf_target(value), k, start, lambda: quadratic_cf_target(value))


def test_attained_and_empty_families_match_reference():
    same_family(RationalTarget(Slope(-5, 2), True), 3, Slope(-1, 1))
    same_family(RationalTarget(Slope(-5, 2), True), 0, Slope(-1, 1))
    same_family(RationalTarget(Slope(-5, 2), False), -1, Slope(-1, 1))


def counting(monkeypatch, name, owner=ends):
    """Replace owner.<name> by a wrapper recording its first argument."""
    seen = []
    real = getattr(owner, name)

    def wrapper(arg, *rest):
        seen.append(arg)
        return real(arg, *rest)

    monkeypatch.setattr(owner, name, wrapper)
    return seen


def test_family_shares_one_decomposition(monkeypatch):
    decompositions = counting(monkeypatch, "decompose")
    validated = counting(monkeypatch, "validate")
    classified = counting(monkeypatch, "_classify_minimal")
    certified = counting(monkeypatch, "extension_obstruction")
    for target in (QuadraticTarget.of(0, -1, 1, 3), RationalTarget(Slope(-19, 2), False)):
        for seen in (decompositions, validated, classified, certified):
            seen.clear()
        family = non_extendable_family(target, 250)
        assert len(family) == 250
        assert len(decompositions) == 1
        shared = family[0].context.decomposition()
        assert all(m.context.decomposition() is shared for m in family)
        # every member is still validated, classified from its own signs
        # and certified on its own
        assert len(validated) == 250
        assert [id(e) for e in classified] == [id(e) for e in validated]
        assert [id(inv) for inv in certified] == [id(m) for m in family]


def test_rational_members_carry_constant_size_signs(monkeypatch):
    target = RationalTarget(Slope(-19, 2), False)
    finite_slices = decompose(FareyPath(Slope(-1, 1), target)).all_blocks()[-1].slice_range[0]
    validated = counting(monkeypatch, "validate")
    family = non_extendable_family(target, 10 ** 4)
    assert len(validated) == 10 ** 4
    assert {len(e.signs.prefix) for e in validated} == {finite_slices}
    assert family[-1].invariant.infinite_block == PosFinite(5000)


def test_family_members_share_one_count_tail_and_one_bounds_table(monkeypatch):
    # every block toward -sqrt(3) from -1 has 3 vertices, so 244 and 250
    # members both take the first 3^5 < k <= 3^6 count vectors over 6 blocks
    normalized = counting(monkeypatch, "_normalize_count_tail", invariants)
    walked = counting(monkeypatch, "_emit_next", blocks.BlockDecomposition)
    work = []
    for k in (244, 250):
        normalized.clear()
        walked.clear()
        family = non_extendable_family(QuadraticTarget.of(0, -1, 1, 3), k)
        assert len({id(m.tail) for m in family}) == 1
        work.append((len(normalized), len(walked)))
    # one count tail per family, and the members' block counts and
    # certificates read the bounds the first of them walked
    assert work[0] == work[1] and work[0][0] == 1
