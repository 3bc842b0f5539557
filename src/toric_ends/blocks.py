"""Maximal continued fraction blocks of a slope path, with SL2(Z) witnesses.

A run of consecutive path vertices is a continued fraction block when some
element of SL2(Z) carries it to -1, -2, ..., -m.  The witness of the run is
pinned down (up to sign) by its first edge.  With coherent vertex lifts
(consecutive determinant +1) the next vertex after v, w is -v + k*w, and it
is carried to -(m + 1) exactly when k = 2, that is when the lifts go on by
the same difference; so a block is one step of the walk followed by every
step with k = 2, which is how FareyPath stores the path (its runs), and the
decomposition is a view of those runs.  Greedy forward-maximal blocks are
automatically backward-maximal as well: right after a maximal block the
normalized picture is -1, ..., -m, -m - 1/a with a >= 2, and the triple
(-(m-1), -m, -m - 1/a) normalizes to (-1, -2, -2 - 1/a), never to
(-1, -2, -3).
"""

from __future__ import annotations

from .errors import DegenerateTargetError, InfiniteBlockError, MalformedPathError
from .farey import GL2Z, FareyPath, RationalTarget, Run, Slope, det
from .records import Record, setfield


class Block(Record):
    """A maximal run of path vertices carried to -1, ..., -m by the witness.

    Indices are vertex positions into the path; end_index is inclusive and
    None for the terminal infinite block of a rational non-attained path.
    """

    __slots__ = ("start_index", "end_index", "infinite", "run")
    _fields = ("start_index", "end_index", "witness", "infinite")

    def __init__(self, run: Run):
        infinite = run.edges is None
        setfield(self, "start_index", run.start)
        setfield(self, "end_index", None if infinite else run.start + run.edges)
        setfield(self, "infinite", infinite)
        setfield(self, "run", run)

    @property
    def witness(self) -> GL2Z:
        """Built when read, from the first edge of the run."""
        return witness_for_edge(self.run.vertex(0), self.run.vertex(1))

    @property
    def length(self) -> int | None:
        return None if self.infinite else self.end_index - self.start_index + 1

    @property
    def slice_range(self) -> tuple[int, int | None]:
        """Global basic-slice (edge) indices covered: [first, last) with
        last = None for the infinite block."""
        return (self.start_index, self.end_index)

    def slice_count(self) -> int:
        if self.infinite:
            raise InfiniteBlockError("infinite blocks have no finite slice count")
        return self.length - 1


def witness_for_edge(a: Slope, b: Slope) -> GL2Z:
    """The SL2(Z) element sending the edge (a, b) to (-1, -2), sign-normalized."""
    eps = det(a, b)
    if abs(eps) != 1:
        raise MalformedPathError(f"{a}, {b} is not a Farey edge")
    m = GL2Z(
        eps * (-b.q + 2 * eps * a.q),
        eps * (b.p - 2 * eps * a.p),
        eps * (b.q - eps * a.q),
        eps * (-b.p + eps * a.p),
    )
    return m.canonical()


class BlockDecomposition:
    """Lazily computed maximal blocks of a path, oldest first: one block per
    run of the path.

    Blocks partition the path's edges; consecutive blocks share exactly one
    boundary vertex.  For irrational targets the block list is infinite and
    extends on demand; for a rational non-attained target the final block is
    infinite and ends the list.
    """

    def __init__(self, path: FareyPath):
        self.path = path
        if not path.has_vertex(1):
            raise MalformedPathError("decomposition needs a path with at least 2 vertices")
        self._blocks: list[Block] = []
        self._done = False
        self._period: list = []  # [target.block_period(start)] once computed

    def _emit_next(self) -> bool:
        """Compute one more block; returns False when the list is finished."""
        if self._done:
            return False
        i = len(self._blocks)
        run = self.path.run(i)
        if run is None:
            self._done = True
            return False
        self._blocks.append(Block(run))
        # an infinite run (normalized: -1, -2, -3, ... forever) ends the list
        self._done = run.edges is None or (self.path.complete and self.path.run(i + 1) is None)
        return True

    def block(self, i: int) -> Block:
        """The i-th block, 1-based."""
        while len(self._blocks) < i:
            if not self._emit_next():
                raise IndexError(f"decomposition has only {len(self._blocks)} blocks")
        return self._blocks[i - 1]

    def has_block(self, i: int) -> bool:
        while len(self._blocks) < i:
            if not self._emit_next():
                return False
        return True

    def blocks_up_to(self, k: int) -> list[Block]:
        while len(self._blocks) < k and self._emit_next():
            pass
        return self._blocks[:k]

    def all_blocks(self) -> list[Block]:
        """Every block; only legal when the list is finite (attained target
        or rational non-attained, whose infinite block ends the list)."""
        if not isinstance(self.path.target, RationalTarget):
            raise InfiniteBlockError("irrational targets have infinitely many blocks")
        while self._emit_next():
            pass
        return list(self._blocks)

    @property
    def finished(self) -> bool:
        return self._done

    def period(self) -> tuple[int, int, int] | None:
        """The block period (i0, blocks, slices) of an irrational target,
        None when its blocks need not repeat; found once per decomposition
        (see IrrationalTarget.block_period)."""
        if not self._period:
            self._period.append(self.path.target.block_period(self.path.start))
        return self._period[0]


def decompose(path: FareyPath) -> BlockDecomposition:
    """Group the path into maximal continued fraction blocks."""
    return BlockDecomposition(path)


def n_of_r(r: Slope, start: Slope) -> int:
    """Total number of maximal blocks of the sequence from `start` toward the
    non-attained rational target r: the finite ones plus the infinite one."""
    if r == start:
        raise DegenerateTargetError("target equals the start slope")
    return len(BlockDecomposition(FareyPath(start, RationalTarget(r, attained=False))).all_blocks())
