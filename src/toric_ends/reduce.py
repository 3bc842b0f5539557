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
    NO_LAYERS,
    EndDescription,
    EventuallyConstantDivision,
    InfiniteRotativity,
    RotativeLayers,
    TorusRecord,
    classify,
    require_valid,
)
from .errors import (
    AttainedZeroSlopeError,
    MixedSignRotativityError,
    NoRealizedPointError,
    ValidationError,
)
from .farey import FareyPath, GL2Z, RationalTarget, Slope, SlopeTarget, on_arc
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


def _closest_one_over_n(target: SlopeTarget) -> Slope:
    """s(r), vertex 1 of the walk from 0/1 toward the target t (see
    FareyPath): the 1/n slopes and oo are the neighbors -1/k of 0, and the
    walk takes k = floor(-1/t) + 1, or k = -1/t when t is an attained 1/n."""
    if not target.rational:
        return Slope._primitive(-1, target.image(GL2Z(0, -1, 1, 0)).floor() + 1)
    t = target.slope
    if t.p == 0:
        if target.attained:
            raise AttainedZeroSlopeError("slope zero at infinity is excluded")
        raise NoRealizedPointError("1/n points accumulate at slope zero; no closest one")
    k, r = divmod(-t.q, t.p)  # -1/t = k + r/p
    if r or not target.attained:
        k += 1
    return Slope._primitive(-1, k)


def _shift_division(tail, k: int):
    if not isinstance(tail, EventuallyConstantDivision):
        return tail  # constant or strictly increasing: the same from every slice on
    return EventuallyConstantDivision(max(0, tail.after - k), tail.value, tail.prefix[k:])


def _vertex_index(path: FareyPath, s: Slope) -> int:
    """The position on the path of a slope s on its arc: a minimal path
    through s is the minimal path toward s up to s, so s can only be the
    vertex that ends the walk from the path's start to the attained s."""
    index = FareyPath(path.start, RationalTarget(s, True)).walk_to_end() - 1
    if path.has_vertex(index) and path.vertex(index) == s:
        return index
    raise NoRealizedPointError(
        f"s(r) = {s} is not a vertex of the factorization from {path.start}")


def solid_torus_factor(e: EndDescription) -> SolidTorusEnd:
    """Split a meridian-framed end at the last realized 1/n slope.

    Finite rotative layers are absorbed into the compact solid torus; the
    complementary end is minimally twisting and starts at s(r)."""
    require_valid(e)
    if e.rotative.n is None:
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
        NO_LAYERS,
    )
    return SolidTorusEnd(s_r, rest)


def complementary_end(e: EndDescription) -> tuple[Slope | None, EndDescription]:
    """s(r) and the end left once the solid torus is split there; (None, e)
    when the slope at infinity is the non-attained slope zero."""
    target = e.target
    if target.rational and target.slope == Slope(0, 1):
        if target.attained:
            raise AttainedZeroSlopeError("attained slope zero at infinity is excluded")
        return None, e
    factored = solid_torus_factor(e)
    return factored.realized_start, factored.end


def classify_solid_torus(e: EndDescription) -> SolidTorusClass:
    """The classification pair (s(r), invariant of the complementary end);
    equality of these pairs classifies tight open solid tori."""
    s_of_r, rest = complementary_end(e)
    return SolidTorusClass(s_of_r, classify(rest))


# ---------------------------------------------------------------------------
# open toric annuli


def normalize_rotativity(a: OpenToricAnnulus) -> OpenToricAnnulus:
    """Canonical form with every rotative layer shifted to the plus side.
    Idempotent, and the total rotativity is conserved.  Layers of both signs
    are an error, because both models cannot embed in one tight structure."""
    sides = (a.plus.rotative, a.minus.rotative)
    signs = {layers.sign for layers in sides if layers.n != 0}
    if len(signs) > 1:
        raise MixedSignRotativityError("rotative layers of both signs cannot coexist")
    sign = signs.pop() if signs else POSITIVE
    counts = [layers.n for layers in sides]
    p, m = a.plus, a.minus
    rotative = InfiniteRotativity(sign) if None in counts else RotativeLayers(sign, sum(counts))
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
