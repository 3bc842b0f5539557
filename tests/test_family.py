"""Non-extendable families against the reference loop, which classifies
and certifies every member from scratch through the public classify, plus
work counts that show one decomposition, one validation and one
classification from signs per family (counts, not timings)."""

import io
import json
import sys
import tracemalloc
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toric_ends import (
    AlternatingForm,
    NegFinite,
    NoTightExtension,
    PosFinite,
    QuadraticTarget,
    RationalTarget,
    Slope,
    extension_obstruction,
    non_extendable_family,
    quadratic_cf_target,
)
from toric_ends import cli, ends, invariants
from toric_ends.cli import TARGET, invariant_doc, run_command
from toric_ends.errors import InsufficientBlocksError, ToricEndError
from toric_ends.farey import FareyPath

from oracles import reference_family
from test_codec import perfbench_workloads

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


# the surds and the largest k of the family benchmark workload, and a
# rational family as long as the CLI's default cap allows
BENCHMARK_SURDS = ((0, -1, 1, 3), (1, -1, 1, 13), (-1, -1, 1, 23))


@pytest.mark.parametrize("surd", BENCHMARK_SURDS)
def test_surd_family_at_benchmark_size_matches_reference(surd):
    same_family(QuadraticTarget.of(*surd), 250, Slope(-1, 1))


def test_rational_family_at_benchmark_size_matches_reference():
    same_family(RationalTarget(Slope(-19, 2), False), 10 ** 4, Slope(-1, 1))


def test_stream_family_without_a_period_fails_as_the_reference():
    # a stream has no block period, so no member is certified, and the
    # family fails with the reference's message
    value = QuadraticTarget.of(0, -1, 1, 3).value
    same_family(quadratic_cf_target(value), 250, Slope(2, 5), lambda: quadratic_cf_target(value))
    kind, message = outcome(lambda: non_extendable_family(quadratic_cf_target(value), 250, Slope(2, 5)))
    assert kind is InsufficientBlocksError and "not certifiable" in message


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
    classified = counting(monkeypatch, "invariant_from_signs")
    certified = counting(monkeypatch, "extension_obstruction")
    for target in (QuadraticTarget.of(0, -1, 1, 3), RationalTarget(Slope(-19, 2), False)):
        for seen in (decompositions, validated, classified, certified):
            seen.clear()
        family = non_extendable_family(target, 250)
        assert len(family) == 250
        assert len(decompositions) == 1
        shared = family[0].context.decomposition()
        assert all(m.context.decomposition() is shared for m in family)
        # only the frame is validated, and every member is built from its
        # counts: none is classified from signs
        assert len(validated) == 1
        assert classified == []
        if target.rational:
            # the first member and the first of each finite form: a later
            # member's certificate is that of the first of its form
            assert [id(inv) for inv in certified] == [id(m) for m in family[:3]]
            assert [type(inv.infinite_block) for inv in certified] == \
                [AlternatingForm, PosFinite, NegFinite]
        else:
            # the first member's certificate reads only what all share
            assert [id(inv) for inv in certified] == [id(family[0])]


def test_a_stream_family_from_another_start_decomposes_once(monkeypatch):
    # the members are built from counts against the one validated frame,
    # so no member normalizes and decomposes the target again
    decompositions = counting(monkeypatch, "decompose")
    value = QuadraticTarget.of(0, -1, 1, 3).value
    with pytest.raises(InsufficientBlocksError):
        non_extendable_family(quadratic_cf_target(value), 5, Slope(2, 5))
    assert len(decompositions) == 1


@settings(max_examples=60, deadline=None)
@example(Slope(-19, 2), Slope(-1, 1), 300)
@example(Slope(1, 0), Slope(-1, 1), 2)
@given(SLOPES, SLOPES, st.integers(0, 300))
def test_every_rational_member_is_certified_by_its_own_call(slope, start, k):
    # the family certifies the first of each rule; each member's own
    # certificate agrees
    assume(slope != start)
    family = non_extendable_family(RationalTarget(slope, False), k, start)
    assert len(family) == k
    assert all(isinstance(extension_obstruction(m), NoTightExtension) for m in family)


@pytest.mark.parametrize("k", [250, 500, 1000])
def test_rational_certificates_do_not_grow_with_k(monkeypatch, k):
    certified = counting(monkeypatch, "extension_obstruction")
    family = non_extendable_family(RationalTarget(Slope(-19, 2), False), k)
    assert len(family) == k and len(certified) == 3


def test_rational_members_are_built_from_their_forms(monkeypatch):
    target = RationalTarget(Slope(-19, 2), False)
    validated = counting(monkeypatch, "validate")
    classified = counting(monkeypatch, "invariant_from_signs")
    family = non_extendable_family(target, 10 ** 4)
    assert len(family) == 10 ** 4
    assert len(validated) == 1 and classified == []
    assert {m.finite_f for m in family} == {family[0].finite_f}
    assert family[-1].infinite_block == PosFinite(5000)


def test_family_members_share_one_count_tail_and_one_bounds_table(monkeypatch):
    # every block toward -sqrt(3) from -1 has 3 vertices, so 244 and 250
    # members both take the first 3^5 < k <= 3^6 count vectors over 6 blocks
    normalized = counting(monkeypatch, "_normalize_count_tail")
    walked = counting(monkeypatch, "_read", FareyPath)
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


# the family command writes its members' documents in one pass, which
# writes a field that a member shares with the one before it only once

OPTIONS = {"horizon": 64, "max_family": 10_000}
SQRT3 = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 3}

TARGET_DOCS = st.one_of(
    SLOPES.map(lambda s: {"kind": "rational", "slope": str(s), "attained": False}),
    SURDS.map(lambda s: dict(zip(("kind", "a", "b", "c", "d"), ("quadratic", *s)))),
)


def command_outcome(doc):
    try:
        return run_command("family", doc, OPTIONS)["invariants"]
    except ToricEndError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@example(SQRT3, Slope(-1, 1), 250)
@example({"kind": "quadratic", "a": -1, "b": -1, "c": 1, "d": 23}, Slope(2, 5), 300)
@example({"kind": "rational", "slope": "-19/2", "attained": False}, Slope(-1, 1), 300)
@example({"kind": "rational", "slope": "-19/2", "attained": False}, Slope(-1, 1), 0)
@given(TARGET_DOCS, SLOPES, st.integers(0, 300))
def test_family_command_writes_each_member_as_alone(target, start, k):
    doc = {"k": k, "start": str(start), "target": target}
    alone = outcome(lambda: non_extendable_family(TARGET.decode(target, "target"), k, start))
    assert command_outcome(doc) == alone


def test_a_family_writes_its_shared_fields_once(monkeypatch):
    # the first family compiles the count tail's encoders; the next one
    # writes its members' one shared tail once for 250 members
    run_command("family", {"k": 1, "target": SQRT3}, OPTIONS)
    written = []
    encode, follow = cli.COUNT_TAIL.encoders[invariants.PatternCounts]
    monkeypatch.setitem(cli.COUNT_TAIL.encoders, invariants.PatternCounts,
                        (lambda tail: written.append(tail) or encode(tail), follow))
    docs = run_command("family", {"k": 250, "target": SQRT3}, OPTIONS)["invariants"]
    assert len(docs) == 250 and len(written) == 1
    assert all(doc["tail"] is docs[0]["tail"] for doc in docs)
    assert len({id(doc["f"]) for doc in docs}) == 250
    # toward a rational target the members share their finite counts
    rational = {"kind": "rational", "slope": "-19/2", "attained": False}
    docs = run_command("family", {"k": 250, "target": rational}, OPTIONS)["invariants"]
    assert all(doc["f"] is docs[0]["f"] for doc in docs)
    assert len({id(doc["infinite"]) for doc in docs}) == 250


# a family's cost follows its blocks and not their slices: a target whose
# first block has 10^k slices costs what a short one does, toward a rational
# target and toward a surd alike

def shape(doc):
    """The document with every integer replaced by 0."""
    if isinstance(doc, dict):
        return {key: shape(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [shape(value) for value in doc]
    return 0 if isinstance(doc, int) and not isinstance(doc, bool) else doc


def far_rational(k):
    return {"kind": "rational", "slope": f"-{10 ** k}/1", "attained": False}


def far_surd(k):
    # -10^k - sqrt(2): from -1 its first block has 10^k slices
    return {"kind": "quadratic", "a": -10 ** k, "b": -1, "c": 1, "d": 2}


@pytest.mark.parametrize("far", [far_rational, far_surd], ids=["rational", "surd"])
def test_a_family_toward_a_far_target_costs_its_blocks(far):
    shapes, peaks = [], []
    for k in (1, 10, 100, 1000):
        tracemalloc.start()
        try:
            docs = run_command("family", {"k": 5, "target": far(k)}, OPTIONS)["invariants"]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        shapes.append(shape(docs))
        assert len(docs) == 5
    assert all(s == shapes[0] for s in shapes)
    # the integers grow to 1000 digits, the heap does not grow with them
    assert max(peaks) < 2 * peaks[0] + (64 << 10), peaks


def test_a_batch_answers_the_jobs_around_a_far_family(monkeypatch):
    count = {"command": "count", "input": {"lengths": [3, 2]}}
    family = {"command": "family", "input": {"k": 5, "target": far_rational(21)}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps([count, family, count])))
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert cli.main(["run"]) == 0
    answers = json.loads(sys.stdout.getvalue())
    assert [a["status"] for a in answers] == ["ok"] * 3
    assert answers[1]["output"] == run_command("family", family["input"], OPTIONS)


def census_family_jobs():
    return [j["input"] for seed in (1, 2, 3) for j in perfbench_workloads().generate("census", seed)
            if j["command"] == "family"]


def test_census_families_match_reference():
    for doc in census_family_jobs():
        target, start = TARGET.decode(doc["target"], "target"), Slope(-1, 1)
        if "start" in doc:
            start = cli._slope(doc["start"], "input", "start")
        same_family(target, doc["k"], start)
