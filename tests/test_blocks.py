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
    equivalent,
    farey_sequence,
    parse_slope,
    quadratic_cf_target,
)
from toric_ends import ends
from toric_ends.blocks import Block
from toric_ends.cli import END, run_command
from toric_ends.errors import DegenerateTargetError, InfiniteBlockError, MalformedPathError
from toric_ends.farey import Run, _Surd

from oracles import oracle_witness_search, reference_witness, synthetic_path_vertices
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
    assert blocks[0].witness == GL2Z(1, 0, 0, 1)


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
    # the blocks toward a non-attained r: the finite ones and the infinite one
    assert len(decompose(FareyPath(S("-1"), RationalTarget(S(r_text)))).bounds(None)) == expected


def test_n_of_r_degenerate():
    with pytest.raises(DegenerateTargetError):
        FareyPath(S("-1"), RationalTarget(S("-1")))


def test_block_slice_count():
    path = farey_sequence(S("-1"), MINUS_SQRT2, 6)
    assert decompose(path).block(1).length - 1 == 2
    two = decompose(farey_sequence(S("-1"), RationalTarget(S("-2"), True), 4))
    assert two.all_blocks()[0].length - 1 == 1
    inf = decompose(FareyPath(S("-1"), RationalTarget(INFINITY, False)))
    assert inf.block(1).length is None


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


def test_decompose_of_a_collar_has_no_blocks():
    # the path toward an attained target at its start has one vertex
    decomp = decompose(FareyPath.from_vertices([S("-1")]))
    assert decomp.bounds(None) == [0]
    assert decomp.finished
    assert decomp.all_blocks() == []
    assert not decomp.has_block(1)
    with pytest.raises(IndexError):
        decomp.block(1)


def test_witness_for_edge_rejects_non_edges():
    with pytest.raises(MalformedPathError):
        reference_witness(S("-1"), S("-7/5"))


@given(st.integers(2, 5), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_witness_normalizes_first_edge_random_runs(m, extra):
    lengths = [m] + ([2 + extra] if extra else [])
    vertices = synthetic_path_vertices(lengths)
    w = decompose(FareyPath.from_vertices(vertices)).block(1).witness
    assert w == reference_witness(vertices[0], vertices[1])
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
    assert Block(run).witness == reference_witness(run.vertex(0), run.vertex(1))


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


def count_walks(monkeypatch) -> dict:
    """Counts of vertex runs (FareyPath._advance, one per fold) and of surd
    runs (_Surd._run: one per x step, which the vertex runs and the bounds
    share)."""
    counts = {"vertex runs": 0, "x steps": 0}
    advance, run = FareyPath._advance, _Surd._run

    def counted_advance(self):
        counts["vertex runs"] += 1
        return advance(self)

    def counted_run(self, attained):
        counts["x steps"] += 1
        return run(self, attained)

    monkeypatch.setattr(FareyPath, "_advance", counted_advance)
    monkeypatch.setattr(_Surd, "_run", counted_run)
    return counts


def test_invariant_questions_walk_no_vertex(monkeypatch):
    # toward -sqrt(3) every block has two slices, so after eight "+" the two
    # alternating tails give every block one positive slice: the compare is
    # true, and needs the block period
    a = end_doc(SQRT3, ["+"] * 8, {"type": "alternating"})
    b = end_doc(SQRT3, ["+"] * 8, {"type": "periodic", "pattern": ["-", "+"]})
    walked = count_walks(monkeypatch)
    assert run_command("compare", {"a": a, "b": b}) == {"equivalent": True}
    assert run_command("extend-check", {"end": a})["result"] == "no-tight-extension"
    assert len(run_command("family", {"target": SQRT3, "k": 250})["invariants"]) == 250
    assert run_command("classify", {"end": a})["f"] == [2, 2, 2, 2]
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
    assert run_command("classify", {"end": end}) == {"kind": "attained", "f": [13, 2], "d": 1}
    assert walked["vertex runs"] == 0 and len(decomposed) == 1


def test_blocks_walk_one_vertex_run_per_block(monkeypatch):
    walked = count_walks(monkeypatch)
    out = run_command("blocks", {"start": "-1/1", "target": SQRT3, "count": 100})
    assert len(out["blocks"]) == 100 and out["complete"] is False
    # each vertex run reads its own x: the decomposition steps no x of its own
    assert walked == {"vertex runs": 100, "x steps": 100}


def test_euler_steps_x_once_per_vertex_run(monkeypatch):
    # the class reads the period and the bounds off the walk that gives the
    # vertex runs, so no run of x is read twice
    walked = count_walks(monkeypatch)
    end = end_doc(SQRT3, ["+"] * 30, {"type": "alternating"})
    assert run_command("euler", {"end": end, "horizon": 1000})["slices"] == 1000
    assert walked == {"vertex runs": 16, "x steps": 16}


def test_compare_and_extend_check_work_alike_at_every_horizon(monkeypatch):
    # toward -sqrt(2) both are decided over the block period: the runs read
    # off x and the vertex runs folded are the same when `equivalent` is
    # given horizon 1 or 10^6 (the extension check takes no horizon)
    a = end_doc(SQRT2, ["+"] * 8, {"type": "alternating"})
    b = end_doc(SQRT2, ["+"] * 8, {"type": "periodic", "pattern": ["-", "+"]})
    c = end_doc(SQRT2, ["+", "-", "+"], {"type": "all-positive"})
    walked = count_walks(monkeypatch)
    work = []
    for horizon in (1, 10 ** 6):
        # as the compare command does, the second end reads the first's decomposition
        first = classify(END.decode(a, "a"))
        equal = [equivalent(first, classify(END.decode(other, "b"), first.context.decomposition()), horizon)
                 for other in (b, c)]
        results = [run_command("extend-check", {"end": end})["result"] for end in (a, c)]
        assert (equal, results) == ([True, False], ["no-tight-extension", "unknown"])
        work.append(dict(walked))
        walked.update({"vertex runs": 0, "x steps": 0})
    assert work[0] == work[1] and work[0]["x steps"] > 0


def test_bounds_then_blocks_step_x_once_per_block(monkeypatch):
    decomp = decompose(FareyPath(S("-1"), MINUS_SQRT2))
    walked = count_walks(monkeypatch)
    decomp.bounds(10)
    assert walked == {"vertex runs": 0, "x steps": 10}
    assert len(decomp.path._held) == 10  # one a0 per run read ahead of the fold
    assert len(decomp.blocks_up_to(10)) == 10
    assert walked == {"vertex runs": 10, "x steps": 10}
    assert not decomp.path._held  # the fold has caught up: no a0 is kept


@pytest.mark.parametrize("n", [1_001, 2_001, 4_001, 8_001])
def test_a_path_reads_and_folds_each_run_once(monkeypatch, n):
    # toward -sqrt(3) from -1 every block has 2 slices, so the first n
    # vertices are (n - 1)/2 runs: each is read off x once and folded once,
    # and a fold that keeps up with x holds no a0
    runs = (n - 1) // 2
    walked = count_walks(monkeypatch)
    path = FareyPath(S("-1"), QuadraticTarget.of(0, -1, 1, 3))
    assert path.extend_to(n) == n and len(path._runs) == runs
    assert walked == {"vertex runs": runs, "x steps": runs}
    assert not path._held
    # read ahead first, x holds every a0 until the fold takes it
    decomp = decompose(FareyPath(S("-1"), QuadraticTarget.of(0, -1, 1, 3)))
    assert len(decomp.bounds(runs)) == runs + 1 and len(decomp.path._held) == runs
    assert len(decomp.blocks_up_to(runs)) == runs
    assert walked == {"vertex runs": 2 * runs, "x steps": 2 * runs}
    assert not decomp.path._held


def far_rational_jobs(k: int) -> list:
    """One job per command that walks toward -10^k/1 from -1, attained for
    `path` and not attained for the others; the end has three "+" signs and
    an alternating tail."""
    attained, rational = ({"kind": "rational", "slope": f"-{10 ** k}/1", "attained": a} for a in (True, False))
    end = end_doc(rational, ["+"] * 3, {"type": "alternating"})
    return [("path", {"start": "-1/1", "target": attained, "n": 3}),
            ("blocks", {"start": "-1/1", "target": rational, "count": 5}),
            ("family", {"target": rational, "k": 5}),
            *((command, {"end": end}) for command in ("classify", "extend-check", "reduce-solid-torus")),
            ("euler", {"end": end, "horizon": 100})]


# (runs read off x by FareyPath._read, vertex runs folded by FareyPath._advance)
FAR_RATIONAL_WORK = {"path": (1, 1), "blocks": (2, 2), "family": (2, 0), "classify": (2, 0),
                     "extend-check": (2, 0), "reduce-solid-torus": (2, 0), "euler": (1, 1)}


@pytest.mark.parametrize("k", [10, 100, 1000])
def test_work_toward_a_rational_target_does_not_grow_with_its_size(monkeypatch, k):
    # the first block toward -10^k/1 has about 10^k slices, and each
    # command reads and folds it as one run, whatever k is
    work = {"reads": 0, "folds": 0}
    read, advance = FareyPath._read, FareyPath._advance

    def counted_read(self):
        work["reads"] += 1
        return read(self)

    def counted_advance(self):
        work["folds"] += 1
        return advance(self)

    monkeypatch.setattr(FareyPath, "_read", counted_read)
    monkeypatch.setattr(FareyPath, "_advance", counted_advance)
    for command, doc in far_rational_jobs(k):
        work.update(reads=0, folds=0)
        run_command(command, doc)
        assert (work["reads"], work["folds"]) == FAR_RATIONAL_WORK[command], command


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
        answer = run_command("classify", doc)
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


def _128_mib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 27, 2 ** 27))


def test_euler_whose_horizon_ends_in_the_opening_slices_is_refused_under_a_memory_cap():
    # the 10^6 slices before the horizon are all negative: the class is
    # summed in closed form over the block period, with no walk to 10^6
    # slices, and passes the digit limit (the walk ran out of memory)
    far = end_doc(SQRT2, tail={"type": "eventually", "sign": "+", "after": 10 ** 15})
    proc = subprocess.run([sys.executable, "-m", "toric_ends", "euler"],
                          input=json.dumps({"end": far, "horizon": 10 ** 6}), capture_output=True, text=True,
                          timeout=60, preexec_fn=_128_mib_address_space)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"].startswith("the answer would hold an euler entry of more than 4300 digits")
