"""Symbolic toric end descriptions, their validation, and classification.

An end description records a convex boundary torus, the limit slope of the
factorization, the basic-slice signs, the division numbers along the way,
and any full-twist (rotative) layers at the boundary.  Classification
normalizes the boundary to slope -1 with division number 1 by a stored
change of basis, then dispatches on division at infinity, rotativity, and
the target kind.
"""

from __future__ import annotations

from itertools import islice, product
from typing import Callable, Union

from .blocks import decompose
from .errors import (
    InsufficientBlocksError,
    ToricEndError,
    ValidationError,
)
from .farey import (
    GL2Z,
    FareyPath,
    RationalTarget,
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
    EventuallySign,
    InvariantContext,
    IrrationalInvariant,
    MinimalInvariant,
    PosFinite,
    RationalNonAttainedInvariant,
    SaturatedCounts,
    SignData,
    ZeroCounts,
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


DivisionTail = Union[ConstantDivision, EventuallyConstantDivision, StrictlyIncreasingDivision]


class InfiniteRotativity(Record):
    __slots__ = ("sign",)

    def __init__(self, sign: int):
        if sign not in (POSITIVE, NEGATIVE):
            raise ValueError("sign must be +1 or -1")
        setfield(self, "sign", sign)


RotativeLayers = Union[tuple, InfiniteRotativity]


class EndDescription(Record):
    """A factorization of a toric end into convex tori, given symbolically."""

    __slots__ = ("boundary", "target", "signs", "division_tail", "rotative")

    def __init__(self, boundary: TorusRecord, target: SlopeTarget, signs: SignData = SignData(),
                 division_tail: DivisionTail = ConstantDivision(1), rotative: RotativeLayers = ()):
        if isinstance(rotative, tuple):
            if any(s not in (POSITIVE, NEGATIVE) for s in rotative):
                raise ValueError("rotative layer signs must be +1 or -1")
        setfield(self, "boundary", boundary)
        setfield(self, "target", target)
        setfield(self, "signs", signs)
        setfield(self, "division_tail", division_tail)
        setfield(self, "rotative", rotative)


# ---------------------------------------------------------------------------
# invariant wrappers


class NestedAnnuli(Record):
    """Descriptor of the nested convex-annuli family attached to an end with
    infinite division number at infinity: Legendrian boundary twisting starts
    at tb = -1 and climbs by one per annulus."""

    __slots__ = ("tb_start", "tb_step")

    def __init__(self, tb_start: int = -1, tb_step: int = 1):
        setfield(self, "tb_start", tb_start)
        setfield(self, "tb_step", tb_step)


class MinimallyTwisting(Record):
    __slots__ = ("invariant",)

    def __init__(self, invariant: MinimalInvariant):
        setfield(self, "invariant", invariant)

    @property
    def context(self) -> InvariantContext:
        return self.invariant.context


class NonMinimallyTwisting(Record):
    """Rotative layers over a residual end; rotativity None means infinitely
    many layers."""

    __slots__ = ("rotativity", "sign", "residual", "context")


class InfiniteDivision(Record):
    """Terminal marker: the classification beyond the nested-annuli data is
    an open question, so no equivalence is ever claimed between two of these."""

    __slots__ = ("descriptor", "context")


EndInvariant = Union[MinimallyTwisting, NonMinimallyTwisting, InfiniteDivision]


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
    tail = e.division_tail
    if isinstance(tail, StrictlyIncreasingDivision):
        return None
    return tail.value


def is_minimally_twisting(e: EndDescription) -> bool:
    """No rotative layers; path-based descriptions stay inside one arc of
    the circle of slopes, so they never complete a circuit by themselves."""
    return isinstance(e.rotative, tuple) and len(e.rotative) == 0


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
    if isinstance(e.rotative, tuple) and len({s for s in e.rotative}) > 1:
        violations.append("nonminimal sign conflict: rotative layers of both signs")

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
        if isinstance(target, RationalTarget) and target.slope == e.boundary.slope:
            violations.append("degenerate target equals the boundary slope")
        if d_inf is None:
            violations.append("division tail inconsistent with target kind: "
                              "infinite division needs an attained slope")
        elif d_inf != 1:
            violations.append("division tail inconsistent with target kind: "
                              "non-attained ends keep division 1")
    return violations


def slope_at_infinity(e: EndDescription) -> SlopeTarget:
    """The limit slope of the factorization, after validating convergence of
    the underlying net of slopes."""
    violations = validate(e)
    if violations:
        raise ValidationError(violations)
    return e.target


# ---------------------------------------------------------------------------
# classification


def classify(e: EndDescription) -> EndInvariant:
    """Dispatch to the complete invariant of the end."""
    violations = validate(e)
    if violations:
        raise ValidationError(violations)

    base_context = InvariantContext(e.boundary.slope, e.boundary.division, e.target, None)
    d_inf = division_at_infinity(e)
    if d_inf is None:
        return InfiniteDivision(NestedAnnuli(), base_context)

    if isinstance(e.rotative, InfiniteRotativity):
        return NonMinimallyTwisting(None, e.rotative.sign, None, base_context)
    if len(e.rotative) > 0:
        residual = classify(EndDescription(e.boundary, e.target, e.signs, e.division_tail))
        return NonMinimallyTwisting(len(e.rotative), e.rotative[0], residual, base_context)

    target = normalized_target(e)
    if target.attained and target.slope == BASE_SLOPE:
        # vertically invariant collar: no blocks, empty invariant
        return MinimallyTwisting(AttainedInvariant((), d_inf, base_context))
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
    return MinimallyTwisting(invariant_from_signs(decomp, e.signs, division, context))


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


ObstructionResult = Union[NoTightExtension, ExtendsByConstruction, Unknown]


def _irrational_obstruction(inv: IrrationalInvariant, horizon: int) -> ObstructionResult:
    decomp = inv.context.decomposition()
    tail = inv.tail
    if isinstance(tail, (SaturatedCounts, ZeroCounts)):
        extreme = (lambda i, c: c == decomp.block(i).length - 1) if isinstance(tail, SaturatedCounts) \
            else (lambda i, c: c == 0)
        if all(extreme(i, c) for i, c in enumerate(inv.counts, start=1)):
            return ExtendsByConstruction()
        return Unknown(horizon)
    # every block of the span is a tail block, so its count is the tail's
    span = _periodic_span(decomp, inv.first_tail_block(), len(tail.pattern))
    if span is not None and any(
            0 < tail.count_positive(b.start_index, b.end_index) < b.end_index - b.start_index
            for b in map(decomp.block, span)):
        return NoTightExtension(
            "per-block count is neither maximal nor minimal for infinitely many blocks")
    return Unknown(horizon)


def extension_obstruction(inv, horizon: int = DEFAULT_HORIZON) -> ObstructionResult:
    """Decide whether the classified end can sit inside a tight toric end on
    the full half-open cylinder, where the theory decides it."""
    if isinstance(inv, MinimallyTwisting):
        inv = inv.invariant
    if isinstance(inv, (NonMinimallyTwisting, InfiniteDivision)):
        raise ToricEndError("extension obstructions apply to minimally twisting invariants")

    if isinstance(inv, AttainedInvariant):
        return ExtendsByConstruction()
    if isinstance(inv, RationalNonAttainedInvariant):
        form = inv.infinite_block
        if isinstance(form, AlternatingForm):
            return NoTightExtension("both infinite-block slice counts are infinite")
        if isinstance(form, BothFinite):
            raise ToricEndError("inadmissible invariant: both infinite-block counts finite")
        if form.m >= 1:
            kind = "positive" if isinstance(form, PosFinite) else "negative"
            return NoTightExtension(
                f"infinite block has {form.m} {kind} slices and infinitely many of the other sign")
        return ExtendsByConstruction()
    return _irrational_obstruction(inv, horizon)


# ---------------------------------------------------------------------------
# non-extendable families


def _rational_family_signs(base: tuple[int, ...], member: int) -> SignData:
    """Members enumerate AlternatingForm, PosFinite(1), NegFinite(1),
    PosFinite(2), ... with zero counts on the finite blocks, whose slices
    are the negative signs of `base`."""
    if member == 0:
        return SignData(base, Alternating())
    m = (member + 1) // 2
    return SignData(base, EventuallySign(NEGATIVE if member % 2 == 1 else POSITIVE, m))


_ALTERNATING = Alternating()


def _alternating_family_signs(lengths: list[int], counts: tuple[int, ...]) -> SignData:
    """counts[i] positive slices, then negative ones, on block i + 1 of the
    given lengths; alternating signs after them."""
    prefix: tuple[int, ...] = ()
    for c, length in zip(counts, lengths):
        prefix += (POSITIVE,) * c + (NEGATIVE,) * (length - 1 - c)
    return SignData(prefix, _ALTERNATING)


def non_extendable_family(target: SlopeTarget, k: int, start: Slope = BASE_SLOPE,
                          horizon: int = DEFAULT_HORIZON) -> list[EndInvariant]:
    """k pairwise non-equivalent invariants, each certified NoTightExtension.

    The members differ only in their signs, so they are classified against
    one shared decomposition of the path toward the target; each member is
    still validated and certified on its own."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return []
    if target.attained:
        raise ToricEndError("non-extendable families need a non-attained or irrational target")
    frame = EndDescription(TorusRecord(start, 1), target)
    context = _decomposition_context(frame, normalized_target(frame))
    decomp = context.decomposition()

    def certified(signs: SignData, failure: Callable[[], str]) -> EndInvariant:
        e = EndDescription(frame.boundary, frame.target, signs)
        violations = validate(e)
        if violations:
            raise ValidationError(violations)
        inv = _classify_minimal(e, context, 1)
        result = extension_obstruction(inv, horizon)
        if not isinstance(result, NoTightExtension):
            raise InsufficientBlocksError(f"{failure()}: {result}")
        return inv

    if isinstance(target, RationalTarget):
        finite_slices = decomp.all_blocks()[-1].slice_range[0]
        base = (NEGATIVE,) * finite_slices
        return [certified(_rational_family_signs(base, member),
                          lambda: f"family member {member} failed certification")
                for member in range(k)]

    lengths: list[int] = []
    distinct = 1  # count vectors over the blocks so far
    while distinct < k:
        if len(lengths) >= horizon:
            raise InsufficientBlocksError(
                f"cannot distinguish {k} invariants within {horizon} blocks")
        lengths.append(decomp.block(len(lengths) + 1).length)
        distinct *= lengths[-1]
    # the first k count vectors in lexicographic order
    return [certified(_alternating_family_signs(lengths, counts),
                      lambda: f"alternating-tail members toward {target} are not certifiable")
            for counts in islice(product(*map(range, lengths)), k)]
