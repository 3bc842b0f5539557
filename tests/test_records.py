"""Value semantics of the package's records: equality and hashing by class
and fields (a `context` field left out), immutability, the checks and
normalization done at construction, and repr text, which reaches the
output inside violation messages."""

import subprocess
import sys
from pathlib import Path

import pytest

from toric_ends.blocks import decompose
from toric_ends.ends import (
    ConstantDivision,
    EndDescription,
    ExtendsByConstruction,
    InfiniteDivision,
    NestedAnnuli,
    NonMinimallyTwisting,
    NoTightExtension,
    RotativeLayers,
    TorusRecord,
    Unknown,
)
from toric_ends.farey import GL2Z, FareyPath, QuadraticTarget, QuadraticValue, RationalTarget, Slope
from toric_ends.invariants import (
    AllNegative,
    AllPositive,
    Alternating,
    AlternatingForm,
    AttainedInvariant,
    BothFinite,
    EventuallySign,
    InvariantContext,
    IrrationalInvariant,
    NegFinite,
    Periodic,
    PosFinite,
    RationalNonAttainedInvariant,
    SaturatedCounts,
    SignData,
    ZeroCounts,
)

SQRT2 = QuadraticTarget.of(0, -1, 1, 2)


def contexts(target):
    """Two unequal contexts toward one target."""
    return (InvariantContext(Slope(-1, 1), 1, target, None),
            InvariantContext(Slope(-2, 1), 1, target, None))


def test_equality_is_by_class_and_fields():
    assert PosFinite(1) != NegFinite(1)
    assert PosFinite(1) == PosFinite(1) and PosFinite(1) != PosFinite(2)
    assert AllPositive() == AllPositive()
    assert AllPositive() != AllNegative()
    assert SaturatedCounts() != ZeroCounts() and AlternatingForm() == AlternatingForm()
    assert Slope(1, 2) != (1, 2)
    assert GL2Z(1, 0, 0, 1) == GL2Z.identity() != GL2Z(-1, 0, 0, -1)
    assert EventuallySign(-1, 2) == EventuallySign(-1, 2) != EventuallySign(1, 2)
    assert RationalTarget(Slope(-2, 1)) == RationalTarget(Slope(-2, 1), attained=False)
    assert RationalTarget(Slope(-2, 1)) != RationalTarget(Slope(-2, 1), True)
    assert SignData([1, -1], Alternating()) == SignData((1, -1), Alternating(1))
    assert TorusRecord(Slope(-1, 1)) == TorusRecord(Slope(-1, 1), 1)
    assert RotativeLayers(-1, 0) == RotativeLayers(1, 0) != RotativeLayers(-1, 1)  # zero layers have no sign


def test_context_is_left_out_of_invariant_equality():
    c1, c2 = contexts(SQRT2)
    assert c1 != c2
    assert IrrationalInvariant((0, 1), SaturatedCounts(), c1) == IrrationalInvariant((0, 1), SaturatedCounts(), c2)
    assert IrrationalInvariant((0, 1), SaturatedCounts(), c1) != IrrationalInvariant((0, 1), ZeroCounts(), c1)
    r1, r2 = contexts(RationalTarget(Slope(0, 1)))
    assert RationalNonAttainedInvariant((1,), PosFinite(2), r1) == RationalNonAttainedInvariant((1,), PosFinite(2), r2)
    a1, a2 = contexts(RationalTarget(Slope(0, 1), True))
    assert AttainedInvariant((1, 0), 2, a1) == AttainedInvariant((1, 0), 2, a2) != AttainedInvariant((1, 0), 3, a1)


def test_context_is_left_out_of_nonminimal_and_infinite_division_equality():
    c1, c2 = contexts(SQRT2)
    assert NonMinimallyTwisting(2, 1, None, c1) == NonMinimallyTwisting(2, 1, None, c2)
    assert NonMinimallyTwisting(2, 1, None, c1) != NonMinimallyTwisting(3, 1, None, c1)
    assert InfiniteDivision(NestedAnnuli(), c1) == InfiniteDivision(NestedAnnuli(), c2)
    assert InfiniteDivision(NestedAnnuli(), c1) != InfiniteDivision(NestedAnnuli(-2), c1)


@pytest.mark.parametrize("make", [
    lambda: Slope(6, -4),
    lambda: RationalTarget(Slope(-3, 2), True),
    lambda: QuadraticTarget.of(2, -4, 2, 12),
    lambda: InvariantContext(Slope(-1, 1), 1, QuadraticTarget.of(0, -1, 1, 2), None),
], ids=["slope", "rational-target", "quadratic-target", "context"])
def test_hash_agrees_with_equality(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equal_values_given_differently_hash_alike():
    assert Slope(2, 4) == Slope(-1, -2) and hash(Slope(2, 4)) == hash(Slope(-1, -2))
    # (1 - sqrt(8))/1 is (1 - 2*sqrt(2))/1, and (2 - 2*sqrt(8))/2 is the same
    a, b = QuadraticTarget.of(1, -1, 1, 8), QuadraticTarget.of(2, -2, 2, 8)
    assert a == b and hash(a) == hash(b)


def some_records():
    block = decompose(FareyPath(Slope(-1, 1), SQRT2)).block(1)
    return [
        (Slope(1, 2), "p"),
        (GL2Z(1, 0, 0, 1), "a"),
        (QuadraticValue(0, 1, 1, 2), "d"),
        (RationalTarget(Slope(1, 2)), "attained"),
        (SQRT2, "value"),
        (block, "start_index"),
        (block, "witness"),
        (SignData((1,)), "prefix"),
        (Periodic((1, -1)), "pattern"),
        (PosFinite(1), "m"),
        (EndDescription(TorusRecord(Slope(-1, 1)), SQRT2), "signs"),
        (Unknown(64), "horizon"),
    ]


@pytest.mark.parametrize("index", range(12))
def test_fields_cannot_be_assigned_or_deleted(index):
    record, name = some_records()[index]
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_construction_checks_and_normalizes():
    assert (Slope(6, -4).p, Slope(6, -4).q) == (-3, 2)
    assert (Slope(-1, 0).p, Slope(-1, 0).q) == (1, 0)
    with pytest.raises(ValueError):
        Slope(0, 0)
    with pytest.raises(ValueError, match="determinant must be"):
        GL2Z(1, 1, 1, 1)
    v = QuadraticValue(2, 2, -2, 12)  # (2 + 2*sqrt(12))/(-2) = -1 - 2*sqrt(3)
    assert (v.a, v.b, v.c, v.d) == (-1, -2, 1, 3)
    with pytest.raises(ValueError):
        QuadraticValue(0, 1, 1, 4)
    assert SignData([1, -1]).prefix == (1, -1)
    with pytest.raises(ValueError):
        SignData((1, 0))
    assert Periodic([1, -1]).pattern == (1, -1)
    for bad in (lambda: Periodic(()), lambda: EventuallySign(0, 1), lambda: EventuallySign(1, -1),
                lambda: Alternating(2), lambda: TorusRecord(Slope(1, 1), 0), lambda: ConstantDivision(0)):
        with pytest.raises(ValueError):
            bad()
    for bad in (lambda: RotativeLayers(0, 1), lambda: RotativeLayers(1, -1)):
        with pytest.raises(ValueError, match="rotative"):
            bad()
    c, _ = contexts(SQRT2)
    with pytest.raises(ValueError, match="attained"):
        AttainedInvariant((), 1, c)


def test_defaults():
    e = EndDescription(TorusRecord(Slope(-1, 1)), SQRT2)
    assert (e.signs, e.division_tail, e.rotative) == (SignData(), ConstantDivision(1), RotativeLayers(1, 0))
    assert e.boundary.division == 1 and Alternating().first == 1 and NestedAnnuli() == NestedAnnuli(-1, 1)


def test_fields_by_position_or_by_name():
    c, _ = contexts(SQRT2)
    assert Unknown(horizon=64) == Unknown(64)
    assert NonMinimallyTwisting(2, 1, residual=None, context=c) == NonMinimallyTwisting(2, 1, None, c)
    assert RationalTarget(attained=True, slope=Slope(1, 2)) == RationalTarget(Slope(1, 2), True)
    for bad in (Unknown, lambda: Unknown(1, 2), lambda: Unknown(64, horizon=64), lambda: Unknown(h=1),
                lambda: BothFinite(positive=1), lambda: BothFinite(1, negative=2, positive=1)):
        with pytest.raises(TypeError):
            bad()


def test_repr_text():
    assert repr(Unknown(64)) == "Unknown(horizon=64)"
    assert repr(ExtendsByConstruction()) == "ExtendsByConstruction()"
    assert repr(NoTightExtension("why")) == "NoTightExtension(reason='why')"
    assert f"{Unknown(64)}" == "Unknown(horizon=64)"
    assert repr(Slope(-3, 2)) == "Slope(-3, 2)" and str(Slope(-3, 2)) == "-3/2"
    assert repr(GL2Z(1, 2, -2, -3)) == "GL2Z(a=1, b=2, c=-2, d=-3)"
    assert repr(decompose(FareyPath(Slope(-1, 1), SQRT2)).block(1)) == (
        "Block(start_index=0, end_index=2, witness=GL2Z(a=1, b=2, c=-2, d=-3), infinite=False)")
    assert repr(SignData((1,), EventuallySign(-1, 2))) == (
        "SignData(prefix=(1,), tail=EventuallySign(sign=-1, after=2))")
    assert repr(RationalTarget(Slope(0, 1))) == "RationalTarget(slope=Slope(0, 1), attained=False)"


def test_cold_import_leaves_dataclasses_out():
    # -S keeps the .pth imports of site-packages out of the check
    code = ("import sys; sys.path.insert(0, 'src'); import toric_ends.cli; "
            "assert 'dataclasses' not in sys.modules; assert 'typing' not in sys.modules")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=Path(__file__).resolve().parent.parent,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
