"""Factoring open solid tori and full open toric annuli into toric-end data.

A tight open solid torus factors along the convex torus of slope s(r), the
last slope of the form 1/n realized before the slope at infinity; what
remains is a toric end starting at s(r).  A full open toric annulus with a
division-1 incompressible torus factors into two toric ends, unique up to
shifting rotative layers across the middle torus; the canonical form parks
every rotative layer on the plus side.
"""

from __future__ import annotations

from .ends import (
    ConstantDivision,
    EndDescription,
    EventuallyConstantDivision,
    InfiniteRotativity,
    StrictlyIncreasingDivision,
    TorusRecord,
    classify,
    validate,
)
from .errors import (
    AttainedZeroSlopeError,
    MixedSignRotativityError,
    NoRealizedPointError,
    ValidationError,
)
from .farey import (
    FareyPath,
    GL2Z,
    RationalTarget,
    Slope,
    SlopeTarget,
    INFINITY,
    on_arc,
)
from .invariants import DEFAULT_HORIZON, POSITIVE, equivalent
from .records import Record, setfield

# minus-side descriptions are stored after reflecting across the (1, 0)
# curve; on slopes the reflection acts as p/q -> -p/q
REFLECTION = (-1, 0, 0, 1)


class SolidTorusEnd(Record):
    """A factored open solid torus: the compact part has boundary slope
    realized_start = 1/n (meridian-framed); `end` is the complementary end."""

    __slots__ = ("realized_start", "end")

    def __init__(self, realized_start: Slope, end: EndDescription):
        if abs(realized_start.p) != 1:
            raise ValueError(f"{realized_start} is not of the form 1/n")
        setfield(self, "realized_start", realized_start)
        setfield(self, "end", end)


class SolidTorusClass(Record):
    """Classification pair for an open solid torus: s(r) and the invariant
    of the complementary end.  s_of_r is None in the zero-slope case, which
    corresponds directly to a non-attained toric end with no 1/n factor."""

    __slots__ = ("s_of_r", "invariant")


class OpenToricAnnulus(Record):
    """Two toric ends glued along a middle torus of division 1; the minus
    side is stored already reflected into a positive description."""

    __slots__ = ("plus", "minus", "middle")

    def __init__(self, plus: EndDescription, minus: EndDescription, middle: TorusRecord):
        if middle.division != 1:
            raise ValidationError(["middle torus must have division 1"])
        setfield(self, "plus", plus)
        setfield(self, "minus", minus)
        setfield(self, "middle", middle)


def _is_one_over_n(s: Slope) -> bool:
    return abs(s.p) == 1


def _closest_one_over_n(target: SlopeTarget) -> Slope:
    """Largest-position 1/n point not past the target, traversing the arc
    clockwise; exclusive of a non-attained rational target."""
    if isinstance(target, RationalTarget):
        t = target.slope
        if target.attained and _is_one_over_n(t):
            return t
        if t.q == 0:
            return Slope(-1, 1)
        if t.p == 0:
            if target.attained:
                raise AttainedZeroSlopeError("slope zero at infinity is excluded")
            raise NoRealizedPointError("1/n points accumulate at slope zero; no closest one")
        if t.p < 0:
            k = t.q // (-t.p) + 1
            return Slope(-1, k)
        if t.p >= t.q:
            return INFINITY
        return Slope(1, (t.q - 1) // t.p)
    if target.cmp_fraction(0, 1) < 0:
        return Slope(-1, target.mobius_floor(GL2Z(0, -1, 1, 0)) + 1)  # floor(-1/t) + 1
    if target.cmp_fraction(1, 1) > 0:
        return INFINITY
    return Slope(1, target.mobius_floor(GL2Z(0, 1, 1, 0)))


def _shift_division(tail, k: int):
    if isinstance(tail, (ConstantDivision, StrictlyIncreasingDivision)):
        return tail
    assert isinstance(tail, EventuallyConstantDivision)
    return EventuallyConstantDivision(max(0, tail.after - k), tail.value, tail.prefix[k:])


def _vertex_index(path: FareyPath, s: Slope) -> int:
    """The position on the path of a slope s on its arc, found run by run:
    vertex j of a run is s exactly when det((p + j*dp, q + j*dq), s) = 0,
    and a run whose last vertex is past s has passed it.  A run that never
    ends converges to the target, so it passes every s before the target;
    so does a run ending at an attained target other than s."""
    if s == path.start:
        return 0
    target = path.target
    i = 0
    while (run := path.run(i)) is not None:
        a = run.p * s.q - s.p * run.q
        b = run.dp * s.q - s.p * run.dq
        if b != 0:
            j, rem = divmod(-a, b)
            if rem == 0 and 0 <= j and (run.edges is None or j <= run.edges):
                return run.start + j
        if run.edges is None:
            break
        last = run.vertex(run.edges)
        if (target.attained and last == target.slope) or not on_arc(
                last, target, s, include_target=target.attained):
            break
        i += 1
    raise NoRealizedPointError(
        f"s(r) = {s} is not a vertex of the factorization from {path.start}")


def solid_torus_factor(e: EndDescription) -> SolidTorusEnd:
    """Split a meridian-framed end at the last realized 1/n slope.

    Finite rotative layers are absorbed into the compact solid torus; the
    complementary end is minimally twisting and starts at s(r)."""
    violations = validate(e)
    if violations:
        raise ValidationError(violations)
    if isinstance(e.rotative, InfiniteRotativity):
        raise NoRealizedPointError("infinite rotativity has no computable realized arc")

    boundary = e.boundary.slope
    target = e.target
    s_r = _closest_one_over_n(target)
    if not on_arc(boundary, target, s_r, include_target=target.attained):
        raise NoRealizedPointError(
            f"no 1/n point lies on the realized arc from {boundary}: nearest is {s_r}")

    index = _vertex_index(FareyPath(boundary, target), s_r)
    rest = EndDescription(
        TorusRecord(s_r, 1),
        target,
        e.signs.shifted(index),
        _shift_division(e.division_tail, index),
        rotative=(),
    )
    return SolidTorusEnd(s_r, rest)


def classify_solid_torus(e: EndDescription) -> SolidTorusClass:
    """The classification pair (s(r), invariant of the complementary end);
    equality of these pairs classifies tight open solid tori."""
    target = e.target
    if isinstance(target, RationalTarget) and target.slope == Slope(0, 1):
        if target.attained:
            raise AttainedZeroSlopeError("attained slope zero at infinity is excluded")
        return SolidTorusClass(None, classify(e))
    factored = solid_torus_factor(e)
    return SolidTorusClass(factored.realized_start, classify(factored.end))


# ---------------------------------------------------------------------------
# open toric annuli


def _rotative_sign_and_counts(a: OpenToricAnnulus):
    """Shared rotativity sign plus per-side layer data; mixed signs anywhere
    are an error because both models cannot embed in one tight structure."""
    sides = (a.plus.rotative, a.minus.rotative)
    signs = set()
    infinite = None
    total = 0
    for layers in sides:
        if isinstance(layers, InfiniteRotativity):
            signs.add(layers.sign)
            infinite = layers.sign if infinite is None or infinite == layers.sign else "conflict"
        else:
            signs.update(layers)
            total += len(layers)
    if len(signs) > 1 or infinite == "conflict":
        raise MixedSignRotativityError("rotative layers of both signs cannot coexist")
    sign = signs.pop() if signs else POSITIVE
    return sign, infinite is not None, total


def normalize_rotativity(a: OpenToricAnnulus) -> OpenToricAnnulus:
    """Canonical form with every rotative layer shifted to the plus side.
    Idempotent, and the total rotativity is conserved."""
    sign, has_infinite, total = _rotative_sign_and_counts(a)
    p, m = a.plus, a.minus
    rotative = InfiniteRotativity(sign) if has_infinite else (sign,) * total
    return OpenToricAnnulus(EndDescription(p.boundary, p.target, p.signs, p.division_tail, rotative),
                            EndDescription(m.boundary, m.target, m.signs, m.division_tail), a.middle)


def t2xr_equivalent(a: OpenToricAnnulus, b: OpenToricAnnulus, horizon: int = DEFAULT_HORIZON) -> bool:
    """Two annuli describe the same structure iff their canonical forms'
    component invariants agree over the same middle torus."""
    na, nb = normalize_rotativity(a), normalize_rotativity(b)
    if na.middle != nb.middle:
        return False
    return (equivalent(classify(na.plus), classify(nb.plus), horizon)
            and equivalent(classify(na.minus), classify(nb.minus), horizon))
