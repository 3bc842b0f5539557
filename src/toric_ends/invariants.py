"""Classification invariants built from basic-slice sign data.

The complete invariant of a minimally twisting toric end is, per maximal
continued fraction block, the number of positive basic slices it contains.
Signs may be shuffled freely inside a block without changing the invariant,
so everything here is phrased in terms of per-block counts.

Every infinite sign tail has one shape: `after` opening slices of one sign,
then a fixed `pattern` repeated forever.  The rules (constant, eventually
constant, alternating, periodic) each name only that pair, and one base
class counts positive slices over any range in time independent of the
range's length and of the pattern's.  An irrational invariant's count
tail is a pattern too, anchored at a slice: saturated (+), zero (-) or a
primitive mixed pattern; normalizing a pattern to its primitive root is
linear in its length.

The invariant of an end is one of these records: a minimally twisting one
of three kinds, by its slope at infinity; rotative layers over a residual
end; or the marker of an end with infinite division number at infinity.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, pairwise

from .blocks import BlockDecomposition
from .errors import (
    CoverageMismatchError,
    IllegalTailError,
    IncomparableTargetsError,
    InfiniteBlockError,
    ToricEndError,
    UndecidableAtHorizonError,
    UndecidableError,
)
from .farey import Slope, SlopeTarget
from .records import Record, setfield

POSITIVE = 1
NEGATIVE = -1

DEFAULT_HORIZON = 64

# most blocks a periodic span of per-block counts may cover
SPAN_BUDGET = 10**5

# most blocks an irrational invariant may list before its count tail
COUNTS_BUDGET = 10**6


# ---------------------------------------------------------------------------
# sign data


def _positive_counts(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """The prefix counts of a pattern: entry i is the number of positive
    entries of pattern[:i], for 0 <= i <= len(pattern)."""
    return tuple(accumulate((s == POSITIVE for s in pattern), initial=0))


def _count_periodic(counts: tuple[int, ...], lo: int, hi: int) -> int:
    """Positive entries of pattern[j % n] for lo <= j < hi, read off the
    pattern's prefix counts (n = len(counts) - 1): whole periods plus a head
    before hi, less the same before lo (floor division holds below 0 too)."""
    if hi <= lo:
        return 0
    n = len(counts) - 1
    (q, r), (q0, r0) = divmod(hi, n), divmod(lo, n)
    return (q - q0) * counts[n] + counts[r] - counts[r0]


class SignTail(Record):
    """A sign rule for the slices of an infinite factorization: `after`
    opening slices of the sign opposite to pattern[0], then `pattern`
    repeated forever.  sign_at(j) and count_positive(lo, hi), the number of
    positive slices j with lo <= j < hi, take time independent of hi - lo
    and of len(pattern): each rule also names `_counts`, the prefix counts
    of its pattern (see _positive_counts)."""

    __slots__ = ()
    after = 0

    def sign_at(self, j: int) -> int:
        if j < self.after:
            return -self.pattern[0]
        return self.pattern[(j - self.after) % len(self.pattern)]

    def count_positive(self, lo: int, hi: int) -> int:
        after, pattern = self.after, self.pattern
        opening = max(0, min(hi, after) - lo) if pattern[0] == NEGATIVE else 0
        return opening + _count_periodic(self._counts, max(lo, after) - after, hi - after)

    def shifted(self, k: int) -> "SignTail":
        """The rule with its first k slices dropped."""
        return self


class AllPositive(SignTail):
    __slots__ = ()
    pattern, _counts = (POSITIVE,), (0, 1)


class AllNegative(SignTail):
    __slots__ = ()
    pattern, _counts = (NEGATIVE,), (0, 0)


class EventuallySign(SignTail):
    """`after` slices of the opposite sign, then `sign` forever.

    With sign=-1 and after=m this is the m-positives-then-all-negatives tail
    whose infinite-block normal form is PosFinite(m)."""

    __slots__ = ("sign", "after")

    def __init__(self, sign: int, after: int):
        if sign not in (POSITIVE, NEGATIVE):
            raise ValueError("sign must be +1 or -1")
        if after < 0:
            raise ValueError("after must be >= 0")
        setfield(self, "sign", sign)
        setfield(self, "after", after)

    @property
    def pattern(self) -> tuple[int, ...]:
        return (self.sign,)

    @property
    def _counts(self) -> tuple[int, ...]:
        return (0, 1) if self.sign == POSITIVE else (0, 0)

    def shifted(self, k: int) -> "EventuallySign":
        return EventuallySign(self.sign, max(0, self.after - k))


class Alternating(SignTail):
    __slots__ = ("first",)

    def __init__(self, first: int = POSITIVE):
        if first not in (POSITIVE, NEGATIVE):
            raise ValueError("first must be +1 or -1")
        setfield(self, "first", first)

    @property
    def pattern(self) -> tuple[int, ...]:
        return (self.first, -self.first)

    @property
    def _counts(self) -> tuple[int, ...]:
        return (0, 1, 1) if self.first == POSITIVE else (0, 0, 1)

    def shifted(self, k: int) -> "Alternating":
        return Alternating(self.first if k % 2 == 0 else -self.first)


class Periodic(SignTail):
    __slots__ = ("pattern", "_counts")
    _fields = ("pattern",)

    def __init__(self, pattern: tuple[int, ...]):
        if not pattern:
            raise ValueError("pattern must be nonempty")
        if any(s not in (POSITIVE, NEGATIVE) for s in pattern):
            raise ValueError("pattern entries must be +1 or -1")
        setfield(self, "pattern", tuple(pattern))
        setfield(self, "_counts", _positive_counts(self.pattern))

    def shifted(self, k: int) -> "Periodic":
        rot = k % len(self.pattern)
        return Periodic(self.pattern[rot:] + self.pattern[:rot])


class SignData(Record):
    """Signs of the basic slices: an explicit prefix plus an optional tail
    rule for infinite factorizations.  Slice j of an infinite path always
    has a sign; a finite path must be covered exactly by the prefix."""

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix: tuple[int, ...] = (), tail: SignTail | None = None):
        prefix = tuple(prefix)
        # two counts by ==, so an unhashable entry is rejected like any other
        if prefix.count(POSITIVE) + prefix.count(NEGATIVE) != len(prefix):
            raise ValueError("prefix entries must be +1 or -1")
        setfield(self, "prefix", prefix)
        setfield(self, "tail", tail)

    def sign_at(self, j: int) -> int:
        if j < len(self.prefix):
            return self.prefix[j]
        if self.tail is None:
            raise CoverageMismatchError(f"slice {j} is beyond the sign prefix and there is no tail")
        return self.tail.sign_at(j - len(self.prefix))

    def count_positive(self, lo: int, hi: int) -> int:
        """Positive slices j with 0 <= lo <= j < hi: the prefix part from a
        slice of the tuple, the tail part from the tail rule."""
        if hi <= lo:
            return 0
        n = len(self.prefix)
        total = self.prefix[lo:hi].count(POSITIVE)
        if hi <= n:
            return total
        if self.tail is None:
            raise CoverageMismatchError(
                f"slice {max(lo, n)} is beyond the sign prefix and there is no tail")
        return total + self.tail.count_positive(max(lo, n) - n, hi - n)

    def shifted(self, k: int) -> "SignData":
        """The same sign sequence with the first k slices dropped."""
        if k <= len(self.prefix):
            return SignData(self.prefix[k:], self.tail)
        if self.tail is None:
            raise CoverageMismatchError("cannot drop slices beyond a finite sign sequence")
        return SignData((), self.tail.shifted(k - len(self.prefix)))


# ---------------------------------------------------------------------------
# infinite block normal forms (rational non-attained case)


class PosFinite(Record):
    """Finitely many positive slices (m of them) in the infinite block."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        setfield(self, "m", m)


class NegFinite(Record):
    """Finitely many negative slices (m of them) in the infinite block."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        setfield(self, "m", m)


class AlternatingForm(Record):
    """Both signs occur infinitely often; the alternating model."""

    __slots__ = ()


class BothFinite(Record):
    """Both counts finite: never produced by construction, always inadmissible.
    Exists so that the admissibility check has something to reject."""

    __slots__ = ("positive", "negative")


InfiniteBlockForm = PosFinite | NegFinite | AlternatingForm | BothFinite


# ---------------------------------------------------------------------------
# per-block count tails (irrational case)


class CountTail(Record):
    """Slice signs of every tail block follow `pattern` with period
    len(pattern), phase-anchored so that slice index `anchor` reads
    pattern[0]; a one-sign pattern needs no anchor.  Each kind names
    `_counts`, as a SignTail does."""

    __slots__ = ()
    anchor = 0

    def sign_at(self, j: int) -> int:
        return self.pattern[(j - self.anchor) % len(self.pattern)]

    def count_positive(self, lo: int, hi: int) -> int:
        return _count_periodic(self._counts, lo - self.anchor, hi - self.anchor)


class SaturatedCounts(CountTail):
    """f(i) = length(B_i) - 1 for every tail block (all slices positive)."""

    __slots__ = ()
    pattern, _counts = (POSITIVE,), (0, 1)


class ZeroCounts(CountTail):
    """f(i) = 0 for every tail block (all slices negative)."""

    __slots__ = ()
    pattern, _counts = (NEGATIVE,), (0, 0)


class PatternCounts(CountTail):
    """A primitive and genuinely mixed pattern (single-sign patterns
    normalize to the tails above)."""

    __slots__ = ("pattern", "anchor", "_counts")
    _fields = ("pattern", "anchor")

    def __init__(self, pattern: tuple[int, ...], anchor: int):
        setfield(self, "pattern", pattern)
        setfield(self, "anchor", anchor)
        setfield(self, "_counts", _positive_counts(pattern))


def _primitive_pattern(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """The shortest pattern that `pattern` repeats.  A word repeats its first
    p letters iff it occurs in its own square at offset p, so one substring
    search finds the root, in time linear in the pattern's length."""
    word = bytes([s + 1 for s in pattern])  # -1, +1 as the bytes 0, 2
    return pattern[:(word + word).find(word, 1)]


def _normalize_count_tail(pattern: tuple[int, ...], anchor: int) -> CountTail:
    if NEGATIVE not in pattern:
        return SaturatedCounts()
    if POSITIVE not in pattern:
        return ZeroCounts()
    return PatternCounts(_primitive_pattern(pattern), anchor)


# ---------------------------------------------------------------------------
# invariant context


class InvariantContext(Record):
    """Boundary data an invariant classifies against: start slope, start
    division number and the slope at infinity.  Two invariants are only
    comparable when these agree (rational and quadratic targets compare by
    value, streams by source and frame).  Also carries the decomposition the
    invariant was computed from, for lazy re-evaluation."""

    __slots__ = ("start", "division", "target", "_decomposition")
    _fields = ("start", "division", "target")

    def __init__(self, start: Slope, division: int, target: SlopeTarget, decomposition: BlockDecomposition):
        setfield(self, "start", start)
        setfield(self, "division", division)
        setfield(self, "target", target)
        setfield(self, "_decomposition", decomposition)

    def __repr__(self):
        return f"InvariantContext(start={self.start}, div={self.division}, target={self.target})"

    def decomposition(self) -> BlockDecomposition:
        return self._decomposition


# ---------------------------------------------------------------------------
# the invariants


class MinimallyTwisting(Record):
    """The invariant of a minimally twisting end, one kind per slope at
    infinity: irrational, rational and not attained, or attained."""

    __slots__ = ()


class IrrationalInvariant(MinimallyTwisting):
    """Per-block positive-slice counts for an irrational slope at infinity:
    an explicit prefix plus a count tail covering every later block."""

    __slots__ = ("counts", "tail", "context")

    def __init__(self, counts: tuple[int, ...], tail: CountTail, context: InvariantContext):
        setfield(self, "counts", counts)
        setfield(self, "tail", tail)
        setfield(self, "context", context)

    def first_tail_block(self) -> int:
        return len(self.counts) + 1

    def f(self, i: int) -> int:
        """The invariant value on block i (1-based)."""
        if i < 1:
            raise IndexError("block indices are 1-based")
        if i <= len(self.counts):
            return self.counts[i - 1]
        bounds = self.context.decomposition().bounds(i)
        return self.tail.count_positive(bounds[i - 1], bounds[i])


class RationalNonAttainedInvariant(MinimallyTwisting):
    """Counts on the n-1 finite blocks plus the infinite block normal form."""

    __slots__ = ("finite_f", "infinite_block", "context")

    def __init__(self, finite_f: tuple[int, ...], infinite_block: InfiniteBlockForm,
                 context: InvariantContext):
        setfield(self, "finite_f", finite_f)
        setfield(self, "infinite_block", infinite_block)
        setfield(self, "context", context)


class AttainedInvariant(MinimallyTwisting):
    """Counts on every block of the finite path, with the division number of
    the boundary torus at infinity."""

    __slots__ = ("finite_f", "boundary_division", "context")

    def __init__(self, finite_f: tuple[int, ...], boundary_division: int, context: InvariantContext):
        if boundary_division < 1:
            raise ValueError("division number must be >= 1")
        if not context.target.attained:
            raise ValueError("attained invariants require an attained rational target")
        setfield(self, "finite_f", finite_f)
        setfield(self, "boundary_division", boundary_division)
        setfield(self, "context", context)


class NestedAnnuli(Record):
    """Descriptor of the nested convex-annuli family attached to an end with
    infinite division number at infinity: Legendrian boundary twisting starts
    at tb = -1 and climbs by one per annulus."""

    __slots__ = ("tb_start", "tb_step")

    def __init__(self, tb_start: int = -1, tb_step: int = 1):
        setfield(self, "tb_start", tb_start)
        setfield(self, "tb_step", tb_step)


class NonMinimallyTwisting(Record):
    """Rotative layers over a residual end; rotativity None means infinitely
    many layers."""

    __slots__ = ("rotativity", "sign", "residual", "context")


class InfiniteDivision(Record):
    """Terminal marker: the classification beyond the nested-annuli data is
    an open question, so no equivalence is ever claimed between two of these."""

    __slots__ = ("descriptor", "context")


EndInvariant = MinimallyTwisting | NonMinimallyTwisting | InfiniteDivision


# ---------------------------------------------------------------------------
# construction from sign data


def _block_counts(signs: SignData, bounds: list[int], n: int) -> tuple[int, ...]:
    """The positive slices of each of the first n blocks, bounded by
    bounds[:n + 1]: a count over a slice of the prefix for each block that
    ends within it, the sign rule for the rest."""
    prefix = signs.prefix
    inside = bisect_right(bounds, len(prefix), 0, n + 1) - 1
    counts = [prefix[lo:hi].count(POSITIVE) for lo, hi in pairwise(bounds[:inside + 1])]
    if inside < n:
        counts += [signs.count_positive(lo, hi) for lo, hi in pairwise(bounds[inside:n + 1])]
    return tuple(counts)


def _build_attained(decomp: BlockDecomposition, signs: SignData, division: int,
                    context: InvariantContext) -> AttainedInvariant:
    bounds = decomp.bounds(None)
    if signs.tail is not None:
        raise IllegalTailError("finite path, infinite tail")
    if len(signs.prefix) != bounds[-1]:
        raise CoverageMismatchError(
            f"prefix covers {len(signs.prefix)} slices but the path has {bounds[-1]}")
    return AttainedInvariant(_block_counts(signs, bounds, len(bounds) - 1), division, context)


def _build_rational_non_attained(decomp: BlockDecomposition, signs: SignData,
                                 context: InvariantContext) -> RationalNonAttainedInvariant:
    if signs.tail is None:
        raise IllegalTailError("infinite path requires a sign tail")
    bounds = decomp.bounds(None)
    counts = _block_counts(signs, bounds, len(bounds) - 1)
    lo = bounds[-1]  # where the infinite block starts
    recurring = set(signs.tail.pattern)
    if len(recurring) == 2:
        form: InfiniteBlockForm = AlternatingForm()
    else:
        # the other sign occurs finitely often: in the prefix, and in the
        # tail's opening slices
        rare = -recurring.pop()
        m = signs.prefix[lo:].count(rare) + max(0, signs.tail.after - max(0, lo - len(signs.prefix)))
        form = PosFinite(m) if rare == POSITIVE else NegFinite(m)
    return RationalNonAttainedInvariant(counts, form, context)


def _tail_pattern_at(signs: SignData, anchor: int) -> CountTail:
    """The count tail induced by the sign tail, anchored at slice `anchor`
    (which must lie past the tail's opening slices)."""
    pattern = signs.tail.pattern
    rot = (anchor - len(signs.prefix) - signs.tail.after) % len(pattern)
    return _normalize_count_tail(pattern[rot:] + pattern[:rot], anchor)


def _build_irrational(decomp: BlockDecomposition, signs: SignData,
                      context: InvariantContext) -> IrrationalInvariant:
    if signs.tail is None:
        raise IllegalTailError("infinite path requires a sign tail")
    pure = len(signs.prefix) + signs.tail.after  # the first slice past the opening ones
    bounds = decomp.bounds()
    while bounds[-1] < pure:  # block by block, so that no block past slice `pure` is walked
        if len(bounds) > COUNTS_BUDGET:
            raise ToricEndError(f"the sign tail starts past the budget of COUNTS_BUDGET = {COUNTS_BUDGET} blocks")
        decomp.bounds(len(bounds))
    n = bisect_left(bounds, pure)  # the blocks that start before slice `pure`
    return IrrationalInvariant(_block_counts(signs, bounds, n),
                               _tail_pattern_at(signs, bounds[n]), context)


def invariant_from_signs(decomp: BlockDecomposition, signs: SignData,
                         boundary_division: int = 1,
                         context: InvariantContext | None = None) -> MinimallyTwisting:
    """Per-block positive-slice counts of the decomposition under the given
    sign assignment, reduced to the appropriate normal form."""
    if context is None:
        context = InvariantContext(decomp.path.start, 1, decomp.path.target, decomp)
    target = decomp.path.target
    if target.attained:
        return _build_attained(decomp, signs, boundary_division, context)
    if target.rational:
        return _build_rational_non_attained(decomp, signs, context)
    return _build_irrational(decomp, signs, context)


# ---------------------------------------------------------------------------
# equality of invariants


def _require_comparable(a_ctx: InvariantContext, b_ctx: InvariantContext):
    if a_ctx != b_ctx:
        raise IncomparableTargetsError(
            "invariants classify different boundary data: "
            f"{a_ctx} vs {b_ctx}")


def _periodic_span(decomp: BlockDecomposition, k: int, m: int):
    """The blocks, from block k on, over which the per-block counts under a
    sign pattern of length m run through one period, as (lo, ranges): the
    first of them, block max(k, i0), and the slice ranges of all of them.
    From block i0 on, block i + blocks has the length of block i and starts
    `slices` slices later, so only one block period is walked, and the
    pattern phase repeats after m / gcd(slices, m) such periods.  None when
    the target's blocks need not repeat (a stream); a ToricEndError past
    SPAN_BUDGET blocks.

    The ranges are read off the decomposition's bounds table, which the
    period search has walked, and never built whole: each later period is
    the first one shifted."""
    period = decomp.period()
    if period is None:
        return None
    i0, blocks, slices = period
    repeats = m // math.gcd(slices, m)
    if blocks * repeats > SPAN_BUDGET:
        raise ToricEndError(f"a periodic span of {blocks * repeats} blocks is past the budget of "
                            f"SPAN_BUDGET = {SPAN_BUDGET} blocks")
    lo = max(k, i0)
    first = decomp.bounds(lo + blocks - 1)[lo - 1:lo + blocks]
    return lo, ((a + offset, b + offset) for offset in range(0, repeats * slices, slices)
                for a, b in pairwise(first))


def _equivalent_irrational(a: IrrationalInvariant, b: IrrationalInvariant,
                           horizon: int) -> bool:
    k = max(a.first_tail_block(), b.first_tail_block())
    if any(a.f(i) != b.f(i) for i in range(1, k)):
        return False
    ta, tb = a.tail, b.tail
    decomp = a.context.decomposition()
    anchor = decomp.bounds(k - 1)[k - 1]
    lcm = math.lcm(len(ta.pattern), len(tb.pattern))
    if all(ta.sign_at(j) == tb.sign_at(j) for j in range(anchor, anchor + lcm)):
        return True  # the patterns agree on every slice from block k on
    # every block has a slice, so the first m blocks cover a whole period of
    # each pattern, and a constant tail differs there from any other tail.
    # A block whose counts differ answers False at once; only True needs the
    # whole periodic span, and so the block period
    m = max(len(ta.pattern), len(tb.pattern))
    if any(a.f(i) != b.f(i) for i in range(k, k + m)):
        return False
    span = _periodic_span(decomp, k, lcm)
    if span is not None:
        lo, ranges = span
        return (all(a.f(i) == b.f(i) for i in range(k + m, lo))
                and all(ta.count_positive(*r) == tb.count_positive(*r) for r in ranges))
    if any(a.f(i) != b.f(i) for i in range(k + m, k + horizon)):
        return False
    raise UndecidableAtHorizonError(
        "count tails differ as rules but no differing block was found", horizon)


def equivalent(a, b, horizon: int = DEFAULT_HORIZON) -> bool:
    """Equality of classification invariants, the proper-isotopy-rel-boundary
    classification for ends sharing the same boundary data and target."""
    if isinstance(a, NonMinimallyTwisting) or isinstance(b, NonMinimallyTwisting):
        _require_comparable(a.context, b.context)
        if type(a) is not type(b) or (a.rotativity, a.sign) != (b.rotativity, b.sign):
            return False
        if a.residual is None or b.residual is None:
            return a.residual is b.residual
        return equivalent(a.residual, b.residual, horizon)
    if isinstance(a, InfiniteDivision) or isinstance(b, InfiniteDivision):
        raise UndecidableError(
            "equivalence of infinite-division-at-infinity ends is an open question")

    _require_comparable(a.context, b.context)
    if isinstance(a, IrrationalInvariant) and isinstance(b, IrrationalInvariant):
        return _equivalent_irrational(a, b, horizon)
    return a == b  # records compare their class and every field but the context


# ---------------------------------------------------------------------------
# admissibility (the F(r) constraints)


def admissible(inv, decomp: BlockDecomposition) -> bool:
    """True iff the invariant satisfies every per-block constraint of the
    decomposition; every admissible invariant is realized by a tight end."""
    if isinstance(inv, NonMinimallyTwisting):
        return inv.residual is None or admissible(inv.residual, decomp)
    if isinstance(inv, InfiniteDivision):
        return True

    if isinstance(inv, IrrationalInvariant):
        counts, blocks = inv.counts, decomp.blocks_up_to(len(inv.counts))
    else:
        counts, blocks = inv.finite_f, decomp.all_blocks()
    if isinstance(inv, RationalNonAttainedInvariant):
        form = inv.infinite_block
        if (not blocks.pop().infinite or isinstance(form, BothFinite)
                or (isinstance(form, (PosFinite, NegFinite)) and form.m < 0)):
            return False
    # one count per block, each block finite and each count in 0..length-1
    return len(blocks) == len(counts) and all(
        not b.infinite and 0 <= c <= b.length - 1 for c, b in zip(counts, blocks))


# ---------------------------------------------------------------------------
# counting


def count_invariants(blocks_or_lengths, k: int | None = None) -> int:
    """Number of admissible count assignments on the first k finite blocks:
    the product of the block lengths."""
    if isinstance(blocks_or_lengths, BlockDecomposition):
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise ValueError("pass k, an integer >= 0, when counting over a decomposition")
        lengths = []
        for b in blocks_or_lengths.blocks_up_to(k):
            if b.infinite:
                raise InfiniteBlockError("count_invariants needs finite blocks")
            lengths.append(b.length)
        if len(lengths) < k:
            raise IndexError(f"decomposition has only {len(lengths)} blocks")
    else:
        lengths = list(blocks_or_lengths)
        if any(isinstance(m, bool) or not isinstance(m, int) for m in lengths):
            raise ValueError("block lengths must be integers")
        if any(m < 1 for m in lengths):
            raise ValueError("block lengths must be >= 1")
    return math.prod(lengths)


# ---------------------------------------------------------------------------
# relative Euler class


class EulerClass(Record):
    """Integer vector in the first homology of the torus fiber."""

    __slots__ = ("x", "y")

    def as_pair(self) -> tuple[int, int]:
        return (self.x, self.y)


def euler_class(decomp: BlockDecomposition, signs: SignData,
                horizon: int = DEFAULT_HORIZON, bound: int = 0) -> EulerClass | None:
    """Sum over basic slices of sign * (v(s_next) - v(s_prev)) with
    v(p/q) = (q, p), truncated at `horizon` slices for infinite paths;
    with a bound, None when an entry's absolute value would reach it.

    The lifts are coherent (consecutive determinant +1), which is what
    makes the class invariant under within-block sign shuffles: their
    difference is constant on a block, the step of the path's run, so a
    block adds that step times (positives - negatives) among its slices.
    Toward a quadratic target a horizon past the first whole span of the
    block period is summed in closed form (see _periodic_steps)."""
    path = decomp.path
    slices = path.walk_to_end() - 1 if path.target.attained else horizon
    steps = None if path.target.rational else _periodic_steps(decomp, signs, horizon, bound)
    p, q = steps or _weighted_steps(path, signs, 0, 0, slices)[:2]
    if bound and max(abs(p), abs(q)) >= bound:
        return None
    return EulerClass(q, p)


def _weighted_steps(path, signs: SignData, i: int, lo: int, hi: int) -> tuple[int, int, int]:
    """The sum of sign * step over the slices lo <= j < hi, from run i on,
    which must hold slice lo: (p, q, i'), where run i' holds slice hi."""
    p = q = 0
    while (run := path.run(i)) is not None and run.start < hi:
        a = max(lo, run.start)
        end = hi if run.edges is None else min(run.start + run.edges, hi)
        weight = 2 * signs.count_positive(a, end) - (end - a)
        p += weight * run.dp
        q += weight * run.dq
        if end == hi:
            break
        i += 1
    return p, q, i


def _mul(m, n):
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def _apply(m, v):
    return m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1]


def _power(m, n: int, cap: int = 0):
    """m^n for m = (a, b, c, d) by repeated squaring; None as soon as a
    power m^j with j <= n met on the way has |entry b| >= cap (if not 0)."""
    out = (1, 0, 0, 1)
    while True:
        if n & 1:
            out = _mul(out, m)
            if cap and abs(out[1]) >= cap:
                return None
        n >>= 1
        if not n:
            return out
        m = _mul(m, m)
        if cap and abs(m[1]) >= cap:
            return None


def _periodic_steps(decomp: BlockDecomposition, signs: SignData, horizon: int, bound: int):
    """The (p, q) sum of _weighted_steps over the first `horizon` slices,
    in closed form over the block period (i0, blocks, slices); None where
    the walk sums them instead: for a stream, a period or span past its
    budget, or a horizon short of the end of the first whole span, so that
    a small horizon never needs the period.  Past `bound` (if not 0) it is
    (bound, 0), a stand-in with an entry at the bound.

    A span is `blocks * m / gcd(slices, m)` blocks for a sign pattern of
    length m, and the first starts at the first block from i0 on that
    starts in the pattern.  The signs repeat from span to span and, by the
    period matrix N, so do the steps up to M = N^(span / blocks): so after
    the head h, k whole spans add sum_{j<k} M^j v = (M^k - I) c, with v one
    span's sum and c = (M - I)^-1 v, and the rest of the horizon adds M^k w
    for the sum w over the first span's same slices.  The class is
    h + M^k u - c with u = c + w; in integers, with e = det(M - I),
    e * class = e*h - C + M^k U for C = adj(M - I) v and U = C + e*w.  The
    run's lifts turn one way and converge to one ray, so N, and M, is
    hyperbolic with a positive eigenvalue: tr M >= 3 and e < 0."""
    tail = signs.tail
    if tail is None or len(signs.prefix) + tail.after >= horizon:
        return None
    pure = len(signs.prefix) + tail.after  # the first slice in the pattern
    # past `horizon` blocks the first span ends past the horizon, since
    # every block has a slice
    period = decomp.period(horizon)
    if period is None:
        return None
    i0, blocks, period_slices = period
    repeats = len(tail.pattern) // math.gcd(period_slices, len(tail.pattern))
    if blocks * repeats > SPAN_BUDGET:
        return None
    bounds = decomp.bounds(i0 - 1, reach=pure)
    i = max(i0 - 1, bisect_left(bounds, pure))  # the first span's first run
    start, span = bounds[i], period_slices * repeats
    if start + span > horizon:
        return None
    path = decomp.path
    hp, hq, _ = _weighted_steps(path, signs, 0, 0, start)
    k, rem = divmod(horizon - start, span)
    wp, wq, i = _weighted_steps(path, signs, i, start, start + rem)
    vp, vq, _ = _weighted_steps(path, signs, i, start + rem, start + span)
    a, b, c, d = m = _power(decomp.period_matrix(), repeats)
    e = 2 - a - d  # det(M - I), as det M = 1
    C = (d - 1) * (vp + wp) - b * (vq + wq), (a - 1) * (vq + wq) - c * (vp + wp)
    limit = -e * bound + max(abs(e * hp - C[0]), abs(e * hq - C[1])) if bound else 0
    y = _grown(m, (C[0] + e * wp, C[1] + e * wq), k, limit)  # M^k U
    if y is None:  # |e * class| >= limit - max |e*h - C| = |e| * bound
        return bound, 0
    return (e * hp - C[0] + y[0]) // e, (e * hq - C[1] + y[1]) // e


def _grown(m, y, k: int, limit: int):
    """m^k y for m = (a, b, c, d) in SL2(Z) with trace t >= 3, or None when
    an entry of it is proven to reach `limit` (if not 0): the powers of m
    stop at the first whose entry b reaches limit * |b|.

    Each entry x_j of m^j y follows x_(j+1) = t x_j - x_(j-1) (Cayley-
    Hamilton).  Once |x_j| > |x_(j-1)|, |x_(j+1)| > (t - 1)|x_j|, so the
    entry grows for good; an entry that has not turned at least halves, so
    the stepping below ends within the bits of y.  After a turn at j, with
    m^n = s_n m - s_(n-1) I (s_0 = 0, s_1 = 1, s_(n+1) = t s_n - s_(n-1),
    increasing), x_(j+n) = s_(n+1) x_j - s_n x_(j-1), so |x_(j+n)| >=
    (s_(n+1) - s_n)|x_j| >= s_n.  Entry b of m^n is s_n * b, so a power m^i
    with i <= n and |entry b| >= limit * |b| proves |x_(j+n)| >= limit."""
    if y == (0, 0) or not k:
        return y
    y0, y, j = y, _apply(m, y), 1
    while j < k and abs(y[0]) <= abs(y0[0]) and abs(y[1]) <= abs(y0[1]):
        y0, y, j = y, _apply(m, y), j + 1
    power = _power(m, k - j, limit * abs(m[1]))
    return None if power is None else _apply(power, y)
