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

from .blocks import decompose
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
    DEFAULT_HORIZON,
    Alternating,
    AlternatingForm,
    AttainedInvariant,
    BothFinite,
    EndInvariant,
    InfiniteDivision,
    InvariantContext,
    IrrationalInvariant,
    MinimallyTwisting,
    NegFinite,
    NestedAnnuli,
    NonMinimallyTwisting,
    PosFinite,
    RationalNonAttainedInvariant,
    SignData,
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

    Composed from a Bezout matrix sending the slope to oo and the fixed
    matrix sending oo to -1; for boundary -1 this is the identity."""
    p, q = boundary_slope.p, boundary_slope.q
    g, x, y = _egcd(p, q)
    assert g == 1
    to_inf = GL2Z(x, y, -q, p)
    inf_to_base = GL2Z(-1, -1, 1, 0)
    return inf_to_base @ to_inf


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


def is_minimally_twisting(e: EndDescription) -> bool:
    """No rotative layers; path-based descriptions stay inside one arc of
    the circle of slopes, so they never complete a circuit by themselves."""
    return e.rotative.n == 0


def _path_slice_count(e: EndDescription) -> int:
    """Number of basic slices of the finite factorization of an attained
    description (0 for the collar whose target equals the boundary)."""
    target = normalized_target(e)
    assert target.attained
    if target.slope == BASE_SLOPE:
        return 0
    return FareyPath(BASE_SLOPE, target).walk_to_end() - 1


def validate(e: EndDescription) -> list[str]:
    """Structural violations of the description; empty when legal."""
    violations: list[str] = []
    if e.boundary.division != 1:
        violations.append("boundary division must be 1 (higher starting division is out of scope)")

    target = e.target
    d_inf = division_at_infinity(e)

    if target.attained:
        if e.signs.tail is not None:
            violations.append("finite path, infinite tail")
        elif e.boundary.division == 1:
            slices = _path_slice_count(e)
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


def require_valid(e: EndDescription) -> None:
    """Raise a ValidationError listing the violations of e, if it has any."""
    violations = validate(e)
    if violations:
        raise ValidationError(violations)


def slope_at_infinity(e: EndDescription) -> SlopeTarget:
    """The limit slope of the factorization, after validating convergence of
    the underlying net of slopes."""
    require_valid(e)
    return e.target


# ---------------------------------------------------------------------------
# classification


def classify(e: EndDescription) -> EndInvariant:
    """Dispatch to the complete invariant of the end."""
    require_valid(e)

    base_context = InvariantContext(e.boundary.slope, e.boundary.division, e.target, None)
    d_inf = division_at_infinity(e)
    if d_inf is None:
        return InfiniteDivision(NestedAnnuli(), base_context)

    rotative = e.rotative
    if rotative.n != 0:  # infinitely many layers (n None) leave no residual end
        residual = None if rotative.n is None else classify(
            EndDescription(e.boundary, e.target, e.signs, e.division_tail))
        return NonMinimallyTwisting(rotative.n, rotative.sign, residual, base_context)

    target = normalized_target(e)
    if target.attained and target.slope == BASE_SLOPE:
        # vertically invariant collar: no blocks, empty invariant
        return AttainedInvariant((), d_inf, base_context)
    return _classify_minimal(e, _decomposition_context(e, target), d_inf)


def _decomposition_context(e: EndDescription, target: SlopeTarget) -> InvariantContext:
    """The context of e carrying the block decomposition of the path from
    the base slope toward the normalized target; every end with the same
    boundary and target shares it."""
    decomp = decompose(FareyPath(BASE_SLOPE, target))
    return InvariantContext(e.boundary.slope, e.boundary.division, e.target, decomp)


def _classify_minimal(e: EndDescription, context: InvariantContext,
                      d_inf: int) -> MinimallyTwisting:
    """The invariant of a validated, minimally twisting end whose context
    comes from _decomposition_context."""
    decomp = context.decomposition()
    division = d_inf if decomp.path.target.attained else 1
    return invariant_from_signs(decomp, e.signs, division, context)


# ---------------------------------------------------------------------------
# extension obstructions


class NoTightExtension(Record):
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        setfield(self, "reason", reason)


class ExtendsByConstruction(Record):
    __slots__ = ()


class Unknown(Record):
    __slots__ = ("horizon",)


ObstructionResult = NoTightExtension | ExtendsByConstruction | Unknown


def _irrational_obstruction(inv: IrrationalInvariant, horizon: int) -> ObstructionResult:
    decomp = inv.context.decomposition()
    tail = inv.tail
    if len(tail.pattern) == 1:
        # a constant tail extends when every prefix block is as extreme as it
        bounds = decomp.bounds(len(inv.counts))
        if all(c == tail.count_positive(lo, hi) for c, (lo, hi) in zip(inv.counts, pairwise(bounds))):
            return ExtendsByConstruction()
        return Unknown(horizon)
    # every block of the span is a tail block, so its count is the tail's;
    # a block of one slice is never mixed, and is passed without a count
    span = _periodic_span(decomp, inv.first_tail_block(), len(tail.pattern))
    if span is not None and any(hi - lo > 1 and 0 < tail.count_positive(lo, hi) < hi - lo
                                for lo, hi in span[1]):
        return NoTightExtension(
            "per-block count is neither maximal nor minimal for infinitely many blocks")
    return Unknown(horizon)


def extension_obstruction(inv, horizon: int = DEFAULT_HORIZON) -> ObstructionResult:
    """Decide whether the classified end can sit inside a tight toric end on
    the full half-open cylinder, where the theory decides it."""
    if isinstance(inv, IrrationalInvariant):
        return _irrational_obstruction(inv, horizon)
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


def non_extendable_family(target: SlopeTarget, k: int, start: Slope = BASE_SLOPE,
                          horizon: int = DEFAULT_HORIZON) -> list[EndInvariant]:
    """k pairwise non-equivalent invariants, each certified NoTightExtension.

    Members differ only in their counts: on the leading blocks toward an
    irrational target, on the infinite block toward a rational one.  The
    first, with zero counts and an alternating tail, is validated and
    classified against the one decomposition toward the target; the rest
    share its boundary, target, division and rotative data, so its
    validation holds for each, and are built from their own counts.  Each
    rational member is certified in constant time; toward an irrational
    target the first member's certificate is every member's."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return []
    if target.attained:
        raise ToricEndError("non-extendable families need a non-attained or irrational target")
    frame = EndDescription(TorusRecord(start, 1), target)
    context = _decomposition_context(frame, normalized_target(frame))
    decomp = context.decomposition()
    if target.rational:
        slices = decomp.bounds(None)[-1]
    else:
        bounds, n, distinct = decomp.bounds(), 0, 1  # distinct count vectors over n blocks
        while distinct < k:
            if n >= horizon:
                raise InsufficientBlocksError(
                    f"cannot distinguish {k} invariants within {horizon} blocks")
            n += 1
            decomp.bounds(n)
            distinct *= bounds[n] - bounds[n - 1] + 1  # a block of s slices has s + 1 counts
        slices = bounds[n]
    e = EndDescription(frame.boundary, target, SignData((NEGATIVE,) * slices, Alternating()))
    require_valid(e)
    first = _classify_minimal(e, context, 1)
    if target.rational:
        # members 1, 2, 3, 4, ... have PosFinite(1), NegFinite(1),
        # PosFinite(2), ... on the infinite block
        members = [first, *(RationalNonAttainedInvariant(
            first.finite_f, (PosFinite if member % 2 else NegFinite)((member + 1) // 2), context)
            for member in range(1, k))]
    else:
        # the next k - 1 count vectors in lexicographic order, each with the
        # first member's interned count tail and first tail block (the last
        # leading block has a slice).  An alternating tail normalizes to a
        # mixed PatternCounts, so the certificate scans the periodic span,
        # which reads only those two and the decomposition: it is every member's
        counts = product(*(range(hi - lo + 1) for lo, hi in pairwise(bounds[:n + 1])))
        members = [first, *(IrrationalInvariant(c, first.tail, context) for c in islice(counts, 1, k))]
    for member, inv in enumerate(members if target.rational else members[:1]):
        result = extension_obstruction(inv, horizon)
        if not isinstance(result, NoTightExtension):
            failure = (f"family member {member} failed certification" if target.rational
                       else f"alternating-tail members toward {target} are not certifiable")
            raise InsufficientBlocksError(f"{failure}: {result}")
    return members
