"""Symbolic toric end descriptions, their validation, and classification.

An end description records a convex boundary torus, the limit slope of the
factorization, the basic-slice signs, the division numbers along the way,
and any full-twist (rotative) layers at the boundary.  Classification
normalizes the boundary to slope -1 with division number 1 by a stored
change of basis, then dispatches on division at infinity, rotativity, and
the target kind.
"""

from __future__ import annotations

from itertools import islice, pairwise, product

from .blocks import BlockDecomposition, decompose
from .errors import (
    InsufficientBlocksError,
    ToricEndError,
    ValidationError,
)
from .farey import (
    GL2Z,
    FareyPath,
    Slope,
    SlopeTarget,
    _egcd,
)
from .invariants import (
    POSITIVE,
    NEGATIVE,
    Alternating,
    AlternatingForm,
    AttainedInvariant,
    BothFinite,
    EndInvariant,
    InfiniteDivision,
    InvariantContext,
    IrrationalInvariant,
    NegFinite,
    NestedAnnuli,
    NonMinimallyTwisting,
    PosFinite,
    RationalNonAttainedInvariant,
    SignData,
    _normalize_count_tail,
    _periodic_span,
    invariant_from_signs,
)
from .records import Record, setfield

BASE_SLOPE = Slope(-1, 1)


# ---------------------------------------------------------------------------
# description pieces


class TorusRecord(Record):
    """A convex torus: its slope and half the number of dividing curves."""

    __slots__ = ("slope", "division")

    def __init__(self, slope: Slope, division: int = 1):
        if division < 1:
            raise ValueError("division number must be >= 1")
        setfield(self, "slope", slope)
        setfield(self, "division", division)


class ConstantDivision(Record):
    __slots__ = ("value",)

    def __init__(self, value: int = 1):
        if value < 1:
            raise ValueError("division number must be >= 1")
        setfield(self, "value", value)


class EventuallyConstantDivision(Record):
    __slots__ = ("after", "value", "prefix")

    def __init__(self, after: int, value: int, prefix: tuple[int, ...] = ()):
        if after < 0:
            raise ValueError("after must be >= 0")
        if value < 1 or any(v < 1 for v in prefix):
            raise ValueError("division numbers must be >= 1")
        setfield(self, "after", after)
        setfield(self, "value", value)
        setfield(self, "prefix", prefix)


class StrictlyIncreasingDivision(Record):
    __slots__ = ()
    value = None  # no eventual division number


DivisionTail = ConstantDivision | EventuallyConstantDivision | StrictlyIncreasingDivision


class RotativeLayers(Record):
    """n full-twist layers of one sign; zero layers carry none (stored as +1)."""

    __slots__ = ("sign", "n")

    def __init__(self, sign: int, n: int):
        if sign not in (POSITIVE, NEGATIVE) or n < 0:
            raise ValueError("rotative layers need a sign of +1 or -1 and a count >= 0")
        setfield(self, "sign", sign if n else POSITIVE)
        setfield(self, "n", n)


class InfiniteRotativity(Record):
    """Infinitely many full-twist layers of one sign; n is None."""

    __slots__ = ("sign",)
    n = None

    def __init__(self, sign: int):
        if sign not in (POSITIVE, NEGATIVE):
            raise ValueError("sign must be +1 or -1")
        setfield(self, "sign", sign)


NO_LAYERS = RotativeLayers(POSITIVE, 0)


class EndDescription(Record):
    """A factorization of a toric end into convex tori, given symbolically."""

    __slots__ = ("boundary", "target", "signs", "division_tail", "rotative")

    def __init__(self, boundary: TorusRecord, target: SlopeTarget, signs: SignData = SignData(),
                 division_tail: DivisionTail = ConstantDivision(1),
                 rotative: RotativeLayers | InfiniteRotativity = NO_LAYERS):
        setfield(self, "boundary", boundary)
        setfield(self, "target", target)
        setfield(self, "signs", signs)
        setfield(self, "division_tail", division_tail)
        setfield(self, "rotative", rotative)


# ---------------------------------------------------------------------------
# normalization


def basis_change(boundary_slope: Slope) -> GL2Z:
    """The canonical SL2(Z) element sending the boundary slope to -1.

    The fixed matrix (-1, -1; 1, 0) sending oo to -1 times the Bezout
    matrix (x, y; -q, p) sending the slope p/q to oo, multiplied out; its
    determinant is p*x + q*y = 1.  For boundary -1 this is the identity."""
    p, q = boundary_slope.p, boundary_slope.q
    g, x, y = _egcd(p, q)
    assert g == 1
    return GL2Z._unimodular(q - x, -p - y, x, y)


def normalized_target(e: EndDescription) -> SlopeTarget:
    if e.boundary.slope == BASE_SLOPE:
        return e.target
    return e.target.transform(basis_change(e.boundary.slope))


# ---------------------------------------------------------------------------
# the section-3 invariants of a description


def division_at_infinity(e: EndDescription) -> int | None:
    """Eventual minimum of the division numbers along the factorization;
    None when they increase without bound."""
    return e.division_tail.value


def validate(e: EndDescription, decomp: BlockDecomposition | None = None) -> list[str]:
    """Structural violations of the description; empty when legal.  `decomp`,
    when given, is the decomposition toward the normalized target."""
    violations: list[str] = []
    if e.boundary.division != 1:
        violations.append("boundary division must be 1 (higher starting division is out of scope)")

    target = e.target
    d_inf = division_at_infinity(e)

    if target.attained:
        if e.signs.tail is not None:
            violations.append("finite path, infinite tail")
        elif e.boundary.division == 1:
            # the end of the last block, read off the walk of x with no
            # vertex: 0 for the collar, whose path has one vertex
            if decomp is None:
                decomp = decompose(FareyPath(BASE_SLOPE, normalized_target(e)))
            slices = decomp.bounds(None)[-1]
            if len(e.signs.prefix) != slices:
                violations.append(
                    f"sign coverage mismatch: prefix has {len(e.signs.prefix)} signs, "
                    f"path has {slices} basic slices")
    else:
        if e.signs.tail is None:
            violations.append("infinite path requires a sign tail")
        if target.rational and target.slope == e.boundary.slope:
            violations.append("degenerate target equals the boundary slope")
        if d_inf is None:
            violations.append("division tail inconsistent with target kind: "
                              "infinite division needs an attained slope")
        elif d_inf != 1:
            violations.append("division tail inconsistent with target kind: "
                              "non-attained ends keep division 1")
    return violations


def require_valid(e: EndDescription, decomp: BlockDecomposition | None = None) -> None:
    """Raise a ValidationError listing the violations of e, if it has any."""
    violations = validate(e, decomp)
    if violations:
        raise ValidationError(violations)


def validated_decomposition(e: EndDescription,
                            shared: BlockDecomposition | None = None) -> BlockDecomposition:
    """Validate e and return the decomposition toward its normalized target:
    `shared`, when it is toward that target, else a new one.  Toward an
    attained target validation counts the slices of the decomposition
    returned (none for the collar, whose target is the base slope); any
    other target is validated before its decomposition is built, so that a
    degenerate one is named by its violation."""
    target = normalized_target(e)
    decomp = shared if shared is not None and shared.path.target == target else None
    if decomp is None and target.attained:
        decomp = decompose(FareyPath(BASE_SLOPE, target))
    require_valid(e, decomp)
    return decomp if decomp is not None else decompose(FareyPath(BASE_SLOPE, target))


def slope_at_infinity(e: EndDescription) -> SlopeTarget:
    """The limit slope of the factorization, after validating convergence of
    the underlying net of slopes."""
    require_valid(e)
    return e.target


# ---------------------------------------------------------------------------
# classification


def classify(e: EndDescription, shared: BlockDecomposition | None = None) -> EndInvariant:
    """The complete invariant of the end, validated once.  Its context
    carries the decomposition toward the normalized target: `shared` when
    that is toward the same target (see validated_decomposition)."""
    decomp = validated_decomposition(e, shared)
    context = InvariantContext(e.boundary.slope, e.boundary.division, e.target, decomp)
    d_inf = division_at_infinity(e)
    if d_inf is None:
        return InfiniteDivision(NestedAnnuli(), context)
    rotative = e.rotative
    if rotative.n is None:  # infinitely many layers leave no residual end
        return NonMinimallyTwisting(None, rotative.sign, None, context)
    minimal = invariant_from_signs(decomp, e.signs, d_inf, context)
    return NonMinimallyTwisting(rotative.n, rotative.sign, minimal, context) if rotative.n else minimal


# ---------------------------------------------------------------------------
# extension obstructions


class NoTightExtension(Record):
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        setfield(self, "reason", reason)


class ExtendsByConstruction(Record):
    __slots__ = ()


class Unknown(Record):
    __slots__ = ()


ObstructionResult = NoTightExtension | ExtendsByConstruction | Unknown


def _irrational_obstruction(inv: IrrationalInvariant) -> ObstructionResult:
    decomp = inv.context.decomposition()
    tail = inv.tail
    if len(tail.pattern) == 1:
        # a constant tail extends when every prefix block is as extreme as it
        bounds = decomp.bounds(len(inv.counts))
        if all(c == tail.count_positive(lo, hi) for c, (lo, hi) in zip(inv.counts, pairwise(bounds))):
            return ExtendsByConstruction()
        return Unknown()
    # every block of the span is a tail block, so its count is the tail's;
    # a block of one slice is never mixed, and is passed without a count
    span = _periodic_span(decomp, inv.first_tail_block(), len(tail.pattern))
    if span is not None and any(hi - lo > 1 and 0 < tail.count_positive(lo, hi) < hi - lo
                                for lo, hi in span[1]):
        return NoTightExtension(
            "per-block count is neither maximal nor minimal for infinitely many blocks")
    return Unknown()


def extension_obstruction(inv) -> ObstructionResult:
    """Decide whether the classified end can sit inside a tight toric end on
    the full half-open cylinder, where the theory decides it."""
    if isinstance(inv, IrrationalInvariant):
        return _irrational_obstruction(inv)
    if isinstance(inv, (NonMinimallyTwisting, InfiniteDivision)):
        raise ToricEndError("extension obstructions apply to minimally twisting invariants")

    if isinstance(inv, AttainedInvariant):
        return ExtendsByConstruction()
    form = inv.infinite_block  # the rational non-attained invariant
    if isinstance(form, AlternatingForm):
        return NoTightExtension("both infinite-block slice counts are infinite")
    if isinstance(form, BothFinite):
        raise ToricEndError("inadmissible invariant: both infinite-block counts finite")
    if form.m >= 1:
        kind = "positive" if isinstance(form, PosFinite) else "negative"
        return NoTightExtension(
            f"infinite block has {form.m} {kind} slices and infinitely many of the other sign")
    return ExtendsByConstruction()


# ---------------------------------------------------------------------------
# non-extendable families


def non_extendable_family(target: SlopeTarget, k: int, start: Slope = BASE_SLOPE) -> list[EndInvariant]:
    """k pairwise non-equivalent invariants, each certified NoTightExtension.

    Members differ only in their counts: on the leading blocks toward an
    irrational target, on the infinite block toward a rational one.  The
    frame, the end from `start` toward the target with no sign prefix and an
    alternating tail, is validated once; each member shares its boundary,
    target and division, and is built from its own counts against the one
    decomposition toward the target, so its cost follows the blocks and not
    their slices.  The first has zero counts and the frame's alternating
    tail: it is the invariant of the end whose leading slices are all
    negative.  Toward a rational target a certificate reads only the
    infinite block's form and, for a finite form, whether m >= 1; every
    member after the first is PosFinite(m) or NegFinite(m) with m >= 1, so
    the first member and the first of each finite form are certified, and
    each later member's certificate is that of the first of its form.  Toward an irrational
    target the first member's certificate is every member's."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return []
    if target.attained:
        raise ToricEndError("non-extendable families need a non-attained or irrational target")
    frame = EndDescription(TorusRecord(start, 1), target, SignData((), Alternating()))
    decomp = decompose(FareyPath(BASE_SLOPE, normalized_target(frame)))
    require_valid(frame, decomp)
    context = InvariantContext(start, 1, target, decomp)
    if target.rational:
        # zero counts on the finite blocks; members 1, 2, 3, 4, ... have
        # PosFinite(1), NegFinite(1), PosFinite(2), ... on the infinite block
        finite_f = (0,) * (len(decomp.bounds(None)) - 1)
        forms = (AlternatingForm(), *((PosFinite if m % 2 else NegFinite)((m + 1) // 2) for m in range(1, k)))
        members = [RationalNonAttainedInvariant(finite_f, form, context) for form in forms]
    else:
        # distinct count vectors over n blocks: each block has a slice, so it
        # at least doubles them, and at most ceil(log2 k) blocks are read
        bounds, n, distinct = decomp.bounds(), 0, 1
        while distinct < k:
            n += 1
            decomp.bounds(n)
            distinct *= bounds[n] - bounds[n - 1] + 1  # a block of s slices has s + 1 counts
        # the first k count vectors in lexicographic order, zero first, each
        # with the alternating count tail anchored at the first tail block
        # (the last leading block has a slice).  That mixed PatternCounts
        # makes the certificate scan the periodic span, which reads only the
        # tail, that block and the decomposition: it is every member's
        # (each block's counts cut at k, which leaves the first k vectors as
        # they are and builds no range of a long block's counts)
        tail = _normalize_count_tail((POSITIVE, NEGATIVE), bounds[n])
        counts = product(*(range(min(hi - lo + 1, k)) for lo, hi in pairwise(bounds[:n + 1])))
        members = [IrrationalInvariant(c, tail, context) for c in islice(counts, k)]
    for member, inv in enumerate(members[:3] if target.rational else members[:1]):
        result = extension_obstruction(inv)
        if not isinstance(result, NoTightExtension):
            failure = (f"family member {member} failed certification" if target.rational
                       else f"alternating-tail members toward {target} are not certifiable")
            raise InsufficientBlocksError(f"{failure}: {result}")
    return members
