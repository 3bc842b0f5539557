"""Classification invariants built from basic-slice sign data.

The complete invariant of a minimally twisting toric end is, per maximal
continued fraction block, the number of positive basic slices it contains.
Signs may be shuffled freely inside a block without changing the invariant,
so everything here is phrased in terms of per-block counts.  Infinite sign
tails are kept in a small closed rule class (constant, eventually constant,
alternating, periodic) for which per-block counts stay exactly computable.
"""

from __future__ import annotations

import math
from typing import Iterable

from .blocks import BlockDecomposition
from .errors import (
    CoverageMismatchError,
    IllegalTailError,
    IncomparableTargetsError,
    InfiniteBlockError,
    UndecidableAtHorizonError,
    UndecidableError,
)
from .farey import RationalTarget, Slope, SlopeTarget
from .records import Record, setfield

POSITIVE = 1
NEGATIVE = -1

DEFAULT_HORIZON = 64


# ---------------------------------------------------------------------------
# sign data


def _count_periodic(pattern: tuple[int, ...], lo: int, hi: int) -> int:
    """Positive entries of pattern[j % len(pattern)] for lo <= j < hi."""
    if hi <= lo:
        return 0
    n = len(pattern)
    cycles, rem = divmod(hi - lo, n)
    start = lo % n
    rest = pattern[start:start + rem] + pattern[:max(0, start + rem - n)]  # wraps past the end
    return cycles * pattern.count(POSITIVE) + rest.count(POSITIVE)


# Each tail rule answers sign_at(j) and count_positive(lo, hi), the number
# of positive slices j with lo <= j < hi, in time independent of hi - lo.


class AllPositive(Record):
    __slots__ = ()

    def sign_at(self, j: int) -> int:
        return POSITIVE

    def count_positive(self, lo: int, hi: int) -> int:
        return hi - lo


class AllNegative(Record):
    __slots__ = ()

    def sign_at(self, j: int) -> int:
        return NEGATIVE

    def count_positive(self, lo: int, hi: int) -> int:
        return 0


class EventuallySign(Record):
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

    def sign_at(self, j: int) -> int:
        return -self.sign if j < self.after else self.sign

    def count_positive(self, lo: int, hi: int) -> int:
        if self.sign == POSITIVE:
            return max(0, hi - max(lo, self.after))
        return max(0, min(hi, self.after) - lo)


class Alternating(Record):
    __slots__ = ("first",)

    def __init__(self, first: int = POSITIVE):
        if first not in (POSITIVE, NEGATIVE):
            raise ValueError("first must be +1 or -1")
        setfield(self, "first", first)

    def sign_at(self, j: int) -> int:
        return self.first if j % 2 == 0 else -self.first

    def count_positive(self, lo: int, hi: int) -> int:
        evens = (hi + 1) // 2 - (lo + 1) // 2
        return evens if self.first == POSITIVE else hi - lo - evens


class Periodic(Record):
    __slots__ = ("pattern",)

    def __init__(self, pattern: tuple[int, ...]):
        if not pattern:
            raise ValueError("pattern must be nonempty")
        if any(s not in (POSITIVE, NEGATIVE) for s in pattern):
            raise ValueError("pattern entries must be +1 or -1")
        setfield(self, "pattern", tuple(pattern))

    def sign_at(self, j: int) -> int:
        return self.pattern[j % len(self.pattern)]

    def count_positive(self, lo: int, hi: int) -> int:
        return _count_periodic(self.pattern, lo, hi)


SignTail = AllPositive | AllNegative | EventuallySign | Alternating | Periodic


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
        extra = k - len(self.prefix)
        t = self.tail
        if t is None:
            raise CoverageMismatchError("cannot drop slices beyond a finite sign sequence")
        if isinstance(t, (AllPositive, AllNegative)):
            return SignData((), t)
        if isinstance(t, EventuallySign):
            return SignData((), EventuallySign(t.sign, max(0, t.after - extra)))
        if isinstance(t, Alternating):
            return SignData((), Alternating(t.first if extra % 2 == 0 else -t.first))
        rot = extra % len(t.pattern)
        return SignData((), Periodic(t.pattern[rot:] + t.pattern[:rot]))

    def _recurring_signs(self) -> set[int]:
        """The signs that the tail rule repeats forever."""
        t = self.tail
        if isinstance(t, (AllPositive, AllNegative)):
            return {t.sign_at(0)}
        if isinstance(t, EventuallySign):
            return {t.sign}
        if isinstance(t, Alternating):
            return {POSITIVE, NEGATIVE}
        return set(t.pattern)


def signs_from_chars(prefix: Iterable[str], tail: SignTail | None = None) -> SignData:
    return SignData(tuple(POSITIVE if c == "+" else NEGATIVE for c in prefix), tail)


# ---------------------------------------------------------------------------
# infinite block normal forms (rational non-attained case)


class PosFinite(Record):
    """Finitely many positive slices (m of them) in the infinite block."""

    __slots__ = ("m",)


class NegFinite(Record):
    """Finitely many negative slices (m of them) in the infinite block."""

    __slots__ = ("m",)


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


class SaturatedCounts(Record):
    """f(i) = length(B_i) - 1 for every tail block (all slices positive)."""

    __slots__ = ()


class ZeroCounts(Record):
    """f(i) = 0 for every tail block (all slices negative)."""

    __slots__ = ()


class PatternCounts(Record):
    """Slice signs follow `pattern` with period len(pattern), phase-anchored
    so that slice index `anchor` reads pattern[0].  The pattern is primitive
    and genuinely mixed (single-sign patterns normalize to the forms above)."""

    __slots__ = ("pattern", "anchor")

    def __init__(self, pattern: tuple[int, ...], anchor: int):
        setfield(self, "pattern", pattern)
        setfield(self, "anchor", anchor)

    def sign_at(self, j: int) -> int:
        return self.pattern[(j - self.anchor) % len(self.pattern)]

    def count_positive(self, lo: int, hi: int) -> int:
        return _count_periodic(self.pattern, lo - self.anchor, hi - self.anchor)


CountTail = SaturatedCounts | ZeroCounts | PatternCounts


def _primitive_pattern(pattern: tuple[int, ...]) -> tuple[int, ...]:
    n = len(pattern)
    for p in range(1, n + 1):
        if n % p == 0 and all(pattern[i] == pattern[i % p] for i in range(n)):
            return pattern[:p]
    return pattern


def _normalize_count_tail(pattern: tuple[int, ...], anchor: int) -> CountTail:
    pattern = _primitive_pattern(pattern)
    values = set(pattern)
    if values == {POSITIVE}:
        return SaturatedCounts()
    if values == {NEGATIVE}:
        return ZeroCounts()
    return PatternCounts(pattern, anchor)


# ---------------------------------------------------------------------------
# invariant context


class InvariantContext(Record):
    """Boundary data an invariant classifies against: start slope, start
    division number and the slope at infinity.  Two invariants are only
    comparable when these agree (rational and quadratic targets compare by
    value, streams by identity).  Also carries the decomposition the
    invariant was computed from, for lazy re-evaluation."""

    __slots__ = ("start", "division", "target", "_decomposition")
    _fields = ("start", "division", "target")

    def __init__(self, start: Slope, division: int, target: SlopeTarget,
                 decomposition: BlockDecomposition | None):
        setfield(self, "start", start)
        setfield(self, "division", division)
        setfield(self, "target", target)
        setfield(self, "_decomposition", decomposition)

    def __repr__(self):
        return f"InvariantContext(start={self.start}, div={self.division}, target={self.target})"

    def decomposition(self) -> BlockDecomposition:
        if self._decomposition is None:
            raise UndecidableError("invariant carries no decomposition handle")
        return self._decomposition


# ---------------------------------------------------------------------------
# the invariants


class IrrationalInvariant(Record):
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
        block = self.context.decomposition().block(i)
        lo, hi = block.slice_range
        if isinstance(self.tail, SaturatedCounts):
            return hi - lo
        if isinstance(self.tail, ZeroCounts):
            return 0
        return self.tail.count_positive(lo, hi)


class RationalNonAttainedInvariant(Record):
    """Counts on the n-1 finite blocks plus the infinite block normal form."""

    __slots__ = ("finite_f", "infinite_block", "context")

    def __init__(self, finite_f: tuple[int, ...], infinite_block: InfiniteBlockForm,
                 context: InvariantContext):
        setfield(self, "finite_f", finite_f)
        setfield(self, "infinite_block", infinite_block)
        setfield(self, "context", context)

    @property
    def n(self) -> int:
        return len(self.finite_f) + 1


class AttainedInvariant(Record):
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


MinimalInvariant = IrrationalInvariant | RationalNonAttainedInvariant | AttainedInvariant


# ---------------------------------------------------------------------------
# construction from sign data


def _build_attained(decomp: BlockDecomposition, signs: SignData, division: int,
                    context: InvariantContext) -> AttainedInvariant:
    slices = decomp.path.walk_to_end() - 1
    if signs.tail is not None:
        raise IllegalTailError("finite path, infinite tail")
    if len(signs.prefix) != slices:
        raise CoverageMismatchError(
            f"prefix covers {len(signs.prefix)} slices but the path has {slices}")
    blocks = decomp.all_blocks()
    counts = tuple(signs.count_positive(*b.slice_range) for b in blocks)
    return AttainedInvariant(counts, division, context)


def _build_rational_non_attained(decomp: BlockDecomposition, signs: SignData,
                                 context: InvariantContext) -> RationalNonAttainedInvariant:
    if signs.tail is None:
        raise IllegalTailError("infinite path requires a sign tail")
    *finite, infinite = decomp.all_blocks()
    assert infinite.infinite
    counts = tuple(signs.count_positive(b.start_index, b.end_index) for b in finite)
    lo = infinite.start_index
    recurring = signs._recurring_signs()
    if len(recurring) == 2:
        form: InfiniteBlockForm = AlternatingForm()
    else:
        # the other sign occurs finitely often: in the prefix, and in the
        # opening run of an eventually-constant tail
        rare = -recurring.pop()
        m = signs.prefix[lo:].count(rare)
        if isinstance(signs.tail, EventuallySign):
            m += max(0, signs.tail.after - max(0, lo - len(signs.prefix)))
        form = PosFinite(m) if rare == POSITIVE else NegFinite(m)
    return RationalNonAttainedInvariant(counts, form, context)


def _tail_pure_start(signs: SignData) -> int:
    """First slice index from which the tail rule is a pure constant or a
    pure periodic pattern."""
    base = len(signs.prefix)
    if isinstance(signs.tail, EventuallySign):
        return base + signs.tail.after
    return base


def _tail_pattern_at(signs: SignData, anchor: int) -> CountTail:
    """The count tail induced by the sign tail, anchored at slice `anchor`
    (which must lie in the pure regime)."""
    t = signs.tail
    base = len(signs.prefix)
    if isinstance(t, AllPositive):
        return SaturatedCounts()
    if isinstance(t, AllNegative):
        return ZeroCounts()
    if isinstance(t, EventuallySign):
        return SaturatedCounts() if t.sign == POSITIVE else ZeroCounts()
    if isinstance(t, Alternating):
        # (first, -first) is primitive and mixed, so it needs no normalizing
        first = t.first if (anchor - base) % 2 == 0 else -t.first
        return PatternCounts((first, -first), anchor)
    rot = (anchor - base) % len(t.pattern)
    return _normalize_count_tail(t.pattern[rot:] + t.pattern[:rot], anchor)


def _build_irrational(decomp: BlockDecomposition, signs: SignData,
                      context: InvariantContext) -> IrrationalInvariant:
    if signs.tail is None:
        raise IllegalTailError("infinite path requires a sign tail")
    pure = _tail_pure_start(signs)
    counts = []
    while (block := decomp.block(len(counts) + 1)).start_index < pure:
        counts.append(signs.count_positive(block.start_index, block.end_index))
    return IrrationalInvariant(tuple(counts), _tail_pattern_at(signs, block.start_index), context)


def invariant_from_signs(decomp: BlockDecomposition, signs: SignData,
                         boundary_division: int = 1,
                         context: InvariantContext | None = None) -> MinimalInvariant:
    """Per-block positive-slice counts of the decomposition under the given
    sign assignment, reduced to the appropriate normal form."""
    if context is None:
        context = InvariantContext(decomp.path.start, 1, decomp.path.target, decomp)
    target = decomp.path.target
    if target.attained:
        return _build_attained(decomp, signs, boundary_division, context)
    if isinstance(target, RationalTarget):
        return _build_rational_non_attained(decomp, signs, context)
    return _build_irrational(decomp, signs, context)


# ---------------------------------------------------------------------------
# equality of invariants


def _require_comparable(a_ctx: InvariantContext, b_ctx: InvariantContext):
    if a_ctx != b_ctx:
        raise IncomparableTargetsError(
            "invariants classify different boundary data: "
            f"{a_ctx} vs {b_ctx}")


def _periodic_span(decomp: BlockDecomposition, k: int, m: int) -> range | None:
    """The blocks, from block k on, over which the per-block counts under a
    sign pattern of length m run through one period: blocks repeat every
    `blocks` blocks, and the pattern phase after m / gcd(slices, m) such
    periods.  None when the target's blocks need not repeat (a stream)."""
    period = decomp.period()
    if period is None:
        return None
    i0, blocks, slices = period
    lo = max(k, i0)
    return range(lo, lo + blocks * m // math.gcd(slices, m))


def _equivalent_irrational(a: IrrationalInvariant, b: IrrationalInvariant,
                           horizon: int) -> bool:
    k = max(a.first_tail_block(), b.first_tail_block())
    if any(a.f(i) != b.f(i) for i in range(1, k)):
        return False
    ta, tb = a.tail, b.tail
    # two constant tails agree when they are alike; a mixed pattern
    # disagrees with a constant tail somewhere: the blocks partition the
    # slices, so every pattern residue is eventually hit
    if not isinstance(ta, PatternCounts) or not isinstance(tb, PatternCounts):
        return ta == tb
    decomp = a.context.decomposition()
    anchor = decomp.block(k).start_index
    m = math.lcm(len(ta.pattern), len(tb.pattern))
    if all(ta.sign_at(j) == tb.sign_at(j) for j in range(anchor, anchor + m)):
        return True  # the patterns agree on every slice from block k on
    # a block whose counts differ answers False at once; only True needs
    # the whole periodic span, and so the block period
    if any(a.f(i) != b.f(i) for i in range(k, k + m)):
        return False
    span = _periodic_span(decomp, k, m)
    if span is not None:
        return all(a.f(i) == b.f(i) for i in range(k + m, span.stop))
    if any(a.f(i) != b.f(i) for i in range(k + m, k + horizon)):
        return False
    raise UndecidableAtHorizonError(
        "count tails differ as rules but no differing block was found", horizon)


def equivalent(a, b, horizon: int = DEFAULT_HORIZON) -> bool:
    """Equality of classification invariants, the proper-isotopy-rel-boundary
    classification for ends sharing the same boundary data and target."""
    from .ends import InfiniteDivision, MinimallyTwisting, NonMinimallyTwisting

    if isinstance(a, MinimallyTwisting):
        a = a.invariant
    if isinstance(b, MinimallyTwisting):
        b = b.invariant
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
    if type(a) is not type(b):
        return False
    if isinstance(a, AttainedInvariant):
        return a.finite_f == b.finite_f and a.boundary_division == b.boundary_division
    if isinstance(a, RationalNonAttainedInvariant):
        return a.finite_f == b.finite_f and a.infinite_block == b.infinite_block
    return _equivalent_irrational(a, b, horizon)


# ---------------------------------------------------------------------------
# admissibility (the F(r) constraints)


def admissible(inv, decomp: BlockDecomposition) -> bool:
    """True iff the invariant satisfies every per-block constraint of the
    decomposition; every admissible invariant is realized by a tight end."""
    from .ends import InfiniteDivision, MinimallyTwisting, NonMinimallyTwisting

    if isinstance(inv, MinimallyTwisting):
        inv = inv.invariant
    if isinstance(inv, NonMinimallyTwisting):
        return inv.residual is None or admissible(inv.residual, decomp)
    if isinstance(inv, InfiniteDivision):
        return True

    if isinstance(inv, IrrationalInvariant):
        blocks = map(decomp.block, range(1, len(inv.counts) + 1))
        return all(not b.infinite and 0 <= c <= b.length - 1 for c, b in zip(inv.counts, blocks))
    if isinstance(inv, RationalNonAttainedInvariant):
        *finite, last = decomp.all_blocks()
        form = inv.infinite_block
        return (last.infinite and len(finite) == len(inv.finite_f)
                and all(0 <= c <= b.length - 1 for c, b in zip(inv.finite_f, finite))
                and not isinstance(form, BothFinite)
                and not (isinstance(form, (PosFinite, NegFinite)) and form.m < 0))
    blocks = decomp.all_blocks()
    if any(b.infinite for b in blocks) or len(blocks) != len(inv.finite_f):
        return False
    return all(0 <= c <= b.length - 1 for c, b in zip(inv.finite_f, blocks))


# ---------------------------------------------------------------------------
# counting


def count_invariants(blocks_or_lengths, k: int | None = None) -> int:
    """Number of admissible count assignments on the first k finite blocks:
    the product of the block lengths."""
    if isinstance(blocks_or_lengths, BlockDecomposition):
        if k is None:
            raise ValueError("pass k when counting over a decomposition")
        lengths = []
        for b in blocks_or_lengths.blocks_up_to(k):
            if b.infinite:
                raise InfiniteBlockError("count_invariants needs finite blocks")
            lengths.append(b.length)
        if len(lengths) < k:
            raise IndexError(f"decomposition has only {len(lengths)} blocks")
    else:
        lengths = [int(x) for x in blocks_or_lengths]
        if any(m < 1 for m in lengths):
            raise ValueError("block lengths must be >= 1")
    return math.prod(lengths)


# ---------------------------------------------------------------------------
# relative Euler class


class EulerClass(Record):
    """Integer vector in the first homology of the torus fiber."""

    __slots__ = ("x", "y")

    def __neg__(self) -> "EulerClass":
        return EulerClass(-self.x, -self.y)

    def as_pair(self) -> tuple[int, int]:
        return (self.x, self.y)


def euler_class(decomp: BlockDecomposition, signs: SignData,
                horizon: int = DEFAULT_HORIZON) -> EulerClass:
    """Sum over basic slices of sign * (v(s_next) - v(s_prev)) with
    v(p/q) = (q, p), truncated at `horizon` slices for infinite paths.

    The lifts are coherent (consecutive determinant +1), which is what
    makes the class invariant under within-block sign shuffles: their
    difference is constant on a block, the step of the path's run, so a
    block adds that step times (positives - negatives) among its slices."""
    path = decomp.path
    slices = path.walk_to_end() - 1 if path.target.attained else horizon
    x = y = 0
    i = 0
    while (run := path.run(i)) is not None and run.start < slices:
        hi = slices if run.edges is None else min(run.start + run.edges, slices)
        weight = 2 * signs.count_positive(run.start, hi) - (hi - run.start)
        x += weight * run.dq
        y += weight * run.dp
        i += 1
    return EulerClass(x, y)
