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
    decompose,
    farey_sequence,
    n_of_r,
    parse_slope,
    quadratic_cf_target,
)
from toric_ends.blocks import Block, witness_for_edge
from toric_ends.errors import DegenerateTargetError, InfiniteBlockError, MalformedPathError
from toric_ends.farey import Run

from oracles import oracle_witness_search, synthetic_path_vertices
from test_cf_targets import GL2Z_WORDS

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
