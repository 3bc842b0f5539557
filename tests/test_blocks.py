import json
import resource
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_ends import (
    GL2Z,
    INFINITY,
    FareyPath,
    QuadraticTarget,
    RationalTarget,
    Slope,
    classify,
    decompose,
    farey_sequence,
    n_of_r,
    parse_slope,
    quadratic_cf_target,
)
from toric_ends import ends
from toric_ends.blocks import Block, witness_for_edge
from toric_ends.cli import END, run_command
from toric_ends.errors import DegenerateTargetError, InfiniteBlockError, MalformedPathError
from toric_ends.farey import Run, _Surd, _Walk

from oracles import oracle_witness_search, synthetic_path_vertices
from test_cf_targets import GL2Z_WORDS
from test_cli import SQRT2, end_doc

MINUS_SQRT2 = QuadraticTarget.of(0, -1, 1, 2)


def S(text):
    return parse_slope(text)


def test_normal_form_path_is_one_block_with_identity_witness():
    path = farey_sequence(S("-1"), RationalTarget(S("-3"), True), 10)
    blocks = decompose(path).all_blocks()
    assert len(blocks) == 1
    assert blocks[0].length == 3
    assert blocks[0].witness == GL2Z.identity()


def test_sqrt2_first_block_and_witness():
    path = farey_sequence(S("-1"), MINUS_SQRT2, 6)
    decomp = decompose(path)
    first = decomp.block(1)
    assert first.length == 3
    assert (first.start_index, first.end_index) == (0, 2)
    assert first.witness.entries() == (1, 2, -2, -3)
    # -24/17 (vertex 3) opens the next block, which shares vertex 2
    assert decomp.block(2).start_index == 2


def test_infinity_path_is_single_infinite_block():
    path = FareyPath(S("-1"), RationalTarget(INFINITY, False))
    blocks = decompose(path).blocks_up_to(3)
    assert len(blocks) == 1
    assert blocks[0].infinite
    assert blocks[0].length is None


def test_witness_images_are_consecutive_negative_integers():
    path = farey_sequence(S("-1"), MINUS_SQRT2, 9)
    decomp = decompose(path)
    for i in (1, 2, 3):
        b = decomp.block(i)
        for offset in range(b.length):
            v = path.vertex(b.start_index + offset)
            assert b.witness.apply(v) == Slope(-(offset + 1), 1)


def test_witness_matches_bounded_oracle_search():
    path = farey_sequence(S("-1"), MINUS_SQRT2, 6)
    b = decompose(path).block(1)
    vertices = [path.vertex(i) for i in range(b.start_index, b.end_index + 1)]
    found = oracle_witness_search(vertices)
    # the witness is unique up to sign; the library stores the canonical one
    assert found in (b.witness.entries(), tuple(-x for x in b.witness.entries()))


def test_maximality_no_witness_for_extended_run():
    path = farey_sequence(S("-1"), MINUS_SQRT2, 6)
    b = decompose(path).block(1)
    extended = [path.vertex(i) for i in range(b.start_index, b.end_index + 2)]
    assert oracle_witness_search(extended) is None


@pytest.mark.parametrize("r_text,expected", [
    ("1/0", 1),   # the normalized infinite-block model itself
    ("-2", 1),    # -2 is adjacent to -1, so the whole path is one block
    ("-5/2", 2),
    ("-3", 2),
    ("-7/2", 2),
])
def test_n_of_r(r_text, expected):
    assert n_of_r(S(r_text), S("-1")) == expected


def test_n_of_r_degenerate():
    with pytest.raises(DegenerateTargetError):
        n_of_r(S("-1"), S("-1"))


def test_block_slice_count():
    path = farey_sequence(S("-1"), MINUS_SQRT2, 6)
    assert decompose(path).block(1).slice_count() == 2
    two = decompose(farey_sequence(S("-1"), RationalTarget(S("-2"), True), 4))
    assert two.all_blocks()[0].slice_count() == 1
    inf = decompose(FareyPath(S("-1"), RationalTarget(INFINITY, False)))
    with pytest.raises(InfiniteBlockError):
        inf.block(1).slice_count()


@pytest.mark.parametrize("target", [MINUS_SQRT2, quadratic_cf_target(MINUS_SQRT2.value)],
                         ids=["quadratic", "cf-stream"])
def test_all_blocks_refuses_irrational_targets(target):
    with pytest.raises(InfiniteBlockError):
        decompose(FareyPath(S("-1"), target)).all_blocks()


def test_edge_partition_on_finite_prefixes():
    path = farey_sequence(S("-1"), MINUS_SQRT2, 20)
    decomp = decompose(path)
    blocks = decomp.blocks_up_to(6)
    edges = sum(b.length - 1 for b in blocks)
    assert edges == blocks[-1].end_index
    # consecutive blocks share exactly their boundary vertex
    for a, b in zip(blocks, blocks[1:]):
        assert b.start_index == a.end_index


def test_decomposition_prefix_stable_under_extension():
    path = FareyPath(S("-1"), MINUS_SQRT2)
    decomp = decompose(path)
    first_two = [
        (b.start_index, b.end_index, b.witness.entries())
        for b in decomp.blocks_up_to(2)
    ]
    decomp.blocks_up_to(6)
    again = [
        (b.start_index, b.end_index, b.witness.entries())
        for b in decomp.blocks_up_to(2)
    ]
    assert first_two == again


@pytest.mark.parametrize("lengths", [(2,), (3,), (3, 2), (2, 2, 2), (4, 3, 2), (2, 4, 3, 2)])
def test_synthetic_paths_round_trip_block_lengths(lengths):
    vertices = synthetic_path_vertices(list(lengths))
    path = FareyPath.from_vertices(vertices)
    blocks = decompose(path).all_blocks()
    assert tuple(b.length for b in blocks) == lengths
    for b in blocks:
        run = vertices[b.start_index:b.end_index + 1]
        bound = max(abs(x) for x in b.witness.entries())
        assert oracle_witness_search(run, bound=max(50, bound)) is not None


def test_decompose_rejects_short_paths():
    with pytest.raises(MalformedPathError):
        decompose(FareyPath.from_vertices([S("-1")]))


def test_witness_for_edge_rejects_non_edges():
    with pytest.raises(MalformedPathError):
        witness_for_edge(S("-1"), S("-7/5"))


@given(st.integers(2, 5), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_witness_normalizes_first_edge_random_runs(m, extra):
    lengths = [m] + ([2 + extra] if extra else [])
    vertices = synthetic_path_vertices(lengths)
    w = witness_for_edge(vertices[0], vertices[1])
    assert w.apply(vertices[0]) == Slope(-1, 1)
    assert w.apply(vertices[1]) == Slope(-2, 1)
    assert w.det == 1


@settings(max_examples=80, deadline=None)
@example(GL2Z(-2, -3, -1, -2))  # lifts (-2, -1), (-3, -2): the witness (0, 1, -1, -2) is led by 0
@example(GL2Z(2, 3, 1, 2))
@given(GL2Z_WORDS.filter(lambda m: m.det == 1))
def test_run_witness_is_the_witness_of_its_first_edge(m):
    # the columns of m are coherent lifts (p, q), (p + dp, q + dq) of an edge
    run = Run(0, m.a, m.c, m.b - m.a, m.d - m.c, 3)
    assert Block(run).witness == witness_for_edge(run.vertex(0), run.vertex(1))


def test_block_indices_below_one_are_refused():
    decomp = decompose(FareyPath(S("-1"), MINUS_SQRT2))
    decomp.block(3)
    for i in (0, -1, -5):
        with pytest.raises(IndexError, match="block indices are 1-based"):
            decomp.block(i)
        assert decomp.has_block(i) is False
    assert decomp.has_block(1) and decomp.block(1).start_index == 0


# ---------------------------------------------------------------------------
# the length walk: block lengths and the period from the walk value alone

SQRT3 = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 3}
OPTIONS = {"horizon": 64, "max_family": 1000}


def count_walks(monkeypatch) -> dict:
    """Counts of vertex runs (_Walk.next_run) and of surd runs (_Surd._run:
    one per x step, which the vertex runs and the bounds share)."""
    counts = {"vertex runs": 0, "x steps": 0}
    next_run, run = _Walk.next_run, _Surd._run

    def counted_next_run(self):
        counts["vertex runs"] += 1
        return next_run(self)

    def counted_run(self, attained):
        counts["x steps"] += 1
        return run(self, attained)

    monkeypatch.setattr(_Walk, "next_run", counted_next_run)
    monkeypatch.setattr(_Surd, "_run", counted_run)
    return counts


def test_invariant_questions_walk_no_vertex(monkeypatch):
    # toward -sqrt(3) every block has two slices, so after eight "+" the two
    # alternating tails give every block one positive slice: the compare is
    # true, and needs the block period
    a = end_doc(SQRT3, ["+"] * 8, {"type": "alternating"})
    b = end_doc(SQRT3, ["+"] * 8, {"type": "periodic", "pattern": ["-", "+"]})
    walked = count_walks(monkeypatch)
    assert run_command("compare", {"a": a, "b": b}, OPTIONS) == {"equivalent": True}
    assert run_command("extend-check", {"end": a}, OPTIONS)["result"] == "no-tight-extension"
    assert len(run_command("family", {"target": SQRT3, "k": 250}, OPTIONS)["invariants"]) == 250
    assert run_command("classify", {"end": a}, OPTIONS)["f"] == [2, 2, 2, 2]
    assert walked["vertex runs"] == 0
    # classify steps x once per block it bounds, and only so far
    walked["x steps"] = 0
    decomp = classify(END.decode(a, "end")).context.decomposition()
    assert walked["x steps"] == len(decomp.bounds()) - 1 == 4


def test_classify_toward_an_attained_target_walks_no_vertex(monkeypatch):
    # -100/7 from -1 has 15 slices in two blocks: validation counts them off
    # the decomposition that classify then reads the invariant from
    walked = count_walks(monkeypatch)
    decomposed = []
    decompose_path = ends.decompose
    monkeypatch.setattr(ends, "decompose", lambda path: decomposed.append(path) or decompose_path(path))
    end = end_doc({"kind": "rational", "slope": "-100/7", "attained": True}, ["+"] * 15)
    assert run_command("classify", {"end": end}, OPTIONS) == {"kind": "attained", "f": [13, 2], "d": 1}
    assert walked["vertex runs"] == 0 and len(decomposed) == 1


def test_blocks_walk_one_vertex_run_per_block(monkeypatch):
    walked = count_walks(monkeypatch)
    out = run_command("blocks", {"start": "-1/1", "target": SQRT3, "count": 100}, OPTIONS)
    assert len(out["blocks"]) == 100 and out["complete"] is False
    # each vertex run reads its own x: the decomposition steps no x of its own
    assert walked == {"vertex runs": 100, "x steps": 100}


def test_euler_steps_x_once_per_vertex_run(monkeypatch):
    # the class reads the period and the bounds off the walk that gives the
    # vertex runs, so no run of x is read twice
    walked = count_walks(monkeypatch)
    end = end_doc(SQRT3, ["+"] * 30, {"type": "alternating"})
    assert run_command("euler", {"end": end, "horizon": 1000}, OPTIONS)["slices"] == 1000
    assert walked == {"vertex runs": 16, "x steps": 16}


def test_bounds_then_blocks_step_x_once_per_block(monkeypatch):
    decomp = decompose(FareyPath(S("-1"), MINUS_SQRT2))
    walked = count_walks(monkeypatch)
    decomp.bounds(10)
    assert walked == {"vertex runs": 0, "x steps": 10}
    assert len(decomp.blocks_up_to(10)) == 10
    assert walked == {"vertex runs": 10, "x steps": 10}


def test_bounds_alone_finish_a_finite_decomposition():
    # x reaches the infinite block before any vertex run is folded
    decomp = decompose(FareyPath(S("-1"), RationalTarget(S("-100/7"), False)))
    assert not decomp.finished
    assert decomp.bounds(None) == [0, 13, 14]
    assert decomp.finished and decomp.path._runs == []


@pytest.mark.parametrize("n", [5_000, 10_000, 20_000, 40_000])
def test_classify_memory_is_linear_in_the_sign_prefix(n):
    # the vertex lifts at slice 40,000 toward -sqrt(2) have about 50,000
    # bits; storing every run of them took a peak of 266 MiB
    doc = {"end": end_doc(SQRT2, ["+"] * n, {"type": "alternating"})}
    tracemalloc.start()
    try:
        answer = run_command("classify", doc, OPTIONS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answer["f"] == [2] * (n // 2)
    assert peak < 16 * 2 ** 20


def _one_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def test_a_sign_tail_far_down_the_path_is_refused_at_the_counts_budget():
    # about 5 * 10^14 blocks precede slice 10^15: each command walks at most
    # COUNTS_BUDGET of them, in a child capped at 1 GiB of address space
    far = end_doc(SQRT2, tail={"type": "eventually", "sign": "+", "after": 10 ** 15})
    farther = end_doc(SQRT2, tail={"type": "eventually", "sign": "+", "after": 10 ** 15 + 1})
    jobs = [{"command": "classify", "input": {"end": far}},
            {"command": "compare", "input": {"a": far, "b": farther}},
            {"command": "extend-check", "input": {"end": far}}]
    proc = subprocess.run([sys.executable, "-m", "toric_ends", "run"], input=json.dumps(jobs),
                          capture_output=True, text=True, timeout=60, preexec_fn=_one_gib_address_space)
    refused = {"status": "violation",
               "error": "the sign tail starts past the budget of COUNTS_BUDGET = 1000000 blocks"}
    assert (proc.returncode, json.loads(proc.stdout)) == (1, [refused] * 3), proc.stderr
