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

from .errors import InfiniteBlockError, ToricEndError
from .farey import GL2Z, PERIOD_BUDGET, FareyPath, Run
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
    def witness_entries(self) -> tuple[int, int, int, int]:
        """The entries of the witness, read off the run.  The lifts (p, q)
        and (p + dp, q + dq) of its first edge have determinant
        p*dq - q*dp = 1, so (q - dq, dp - p, dq, -dp) sends them to -1 and
        -2, sign-normalized here by its first entry that is not 0 (one of
        the first two, or the determinant would be 0)."""
        _, p, q, dp, dq, _ = self.run
        if (q - dq or dp - p) > 0:
            return (q - dq, dp - p, dq, -dp)
        return (dq - q, p - dp, -dq, dp)

    @property
    def witness(self) -> GL2Z:
        """Built when read, from the first edge of the run, with no
        determinant multiplied out."""
        return GL2Z._unimodular(*self.witness_entries)

    @property
    def length(self) -> int | None:
        return None if self.infinite else self.end_index - self.start_index + 1


class BlockDecomposition:
    """Lazily computed maximal blocks of a path, oldest first: one block per
    run of the path, read off the run when asked for.

    Blocks partition the path's edges; consecutive blocks share exactly one
    boundary vertex.  For irrational targets the block list is infinite and
    extends on demand; for a rational non-attained target the final block is
    infinite and ends the list; the path of one vertex (the collar, toward an
    attained target at its start) has none.  The slice bounds and the block
    period need only the block lengths, so they are read off the path's walk
    of x (see FareyPath) with none of the vertices, whose entries grow
    without bound.
    """

    def __init__(self, path: FareyPath):
        self.path = path

    def block(self, i: int) -> Block:
        """The i-th block, 1-based."""
        if i < 1:
            raise IndexError("block indices are 1-based")
        run = self.path.run(i - 1)
        if run is None:
            raise IndexError(f"decomposition has only {len(self.path._runs)} blocks")
        return Block(run)

    def has_block(self, i: int) -> bool:
        return i >= 1 and self.path.run(i - 1) is not None

    def blocks_up_to(self, k: int | None) -> list[Block]:
        blocks: list[Block] = []
        while (k is None or len(blocks) < k) and (run := self.path.run(len(blocks))) is not None:
            blocks.append(Block(run))
        return blocks

    def all_blocks(self) -> list[Block]:
        """Every block; only legal when the list is finite (attained target
        or rational non-attained, whose infinite block ends the list)."""
        if not self.path.target.rational:
            raise InfiniteBlockError("irrational targets have infinitely many blocks")
        return self.blocks_up_to(None)

    def bounds(self, blocks: int | None = 0, reach: int = 0) -> list[int]:
        """The slice bounds of the blocks x has read so far: entry 0 is slice
        0, where block 1 starts, and entry i is the end of block i, where
        block i + 1 starts; an infinite block has no end, so its start is the
        last entry.  x is stepped until the table bounds `blocks` blocks
        (every block when None, legal only for a finite list) and its last
        entry reaches slice `reach`, or until the list ends.  Every caller
        reads the path's list, which grows in place, so none may change it."""
        if blocks is None and not self.path.target.rational:
            raise InfiniteBlockError("irrational targets have infinitely many blocks")
        path, bounds = self.path, self.path.bounds
        while (blocks is None or len(bounds) <= blocks or bounds[-1] < reach) and path.step():
            pass
        return bounds

    @property
    def finished(self) -> bool:
        """True once the walk has reached the last block."""
        return self.path.done

    def period(self, budget: int | None = None) -> tuple[int, int, int] | None:
        """The block period (i0, blocks, slices) of a periodic target: from
        block i0 (1-based) on, block i + blocks is as long as block i and
        begins `slices` slices later.  The value x at a block start fixes
        every later block and is soon reduced (Lagrange), so the walk finds
        the period at the first repeat of x.  None for a stream, and None
        when a `budget` of blocks shows no period (i0 + blocks > budget + 1;
        the blocks walked are kept); past PERIOD_BUDGET a ToricEndError."""
        if not self.path.target.periodic:
            return None
        limit = PERIOD_BUDGET if budget is None else min(budget, PERIOD_BUDGET)
        while self.path.period is None and len(self.path.bounds) <= limit:
            self.path.step()
        found = self.path.period
        if found is not None and found[0] + found[1] <= limit + 1:
            return found
        if budget is not None:
            return None
        raise ToricEndError(f"the blocks toward {self.path.target} do not repeat within the budget of "
                            f"PERIOD_BUDGET = {PERIOD_BUDGET} blocks")

    def period_matrix(self) -> tuple[int, int, int, int]:
        """The entries (a, b, c, d) of the N in SL2(Z) that carries the walk
        frame at block i0 of the period to the frame at block i0 + blocks.
        A frame is the first vertex lift s of a run and its step d, with
        det(s, d) = 1; the walk value, equal at the two blocks, fixes every
        later step in its frame, so from block i0 on the step of block
        i + blocks is N times the step of block i.  Read off the two runs,
        with no second walk."""
        i0, blocks, _ = self.period()
        _, p, q, dp, dq, _ = self.path.run(i0 - 1)
        _, p1, q1, dp1, dq1, _ = self.path.run(i0 + blocks - 1)
        # N = (s' d') (s d)^-1, and (s d)^-1 = ((dq, -dp), (-q, p))
        return p1 * dq - dp1 * q, dp1 * p - p1 * dp, q1 * dq - dq1 * q, dq1 * p - q1 * dp


def decompose(path: FareyPath) -> BlockDecomposition:
    """Group the path into maximal continued fraction blocks."""
    return BlockDecomposition(path)
