"""Brute-force oracles, deliberately independent of the library algorithms.

Arc membership here is decided by linearizing the clockwise order at the
current slope with Fraction arithmetic (plus a standalone surd comparator),
not by the library's determinant products.  A quadratic target is read off
its PQa triple once (oracle_surd), and its images are taken by the
reference conjugate-product mobius, not by the library's surd arithmetic.
Witness existence is decided by sweeping matrix entries and solving the
remaining linear system exactly.  Edges, orientation and block witnesses
are checked from the determinant of two slopes, one vertex at a time, where
the library reads a path run by run.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

from toric_ends import (
    AllNegative,
    AllPositive,
    Alternating,
    EndDescription,
    EventuallySign,
    FareyPath,
    NoTightExtension,
    Periodic,
    SignData,
    Unknown,
    Slope,
    TorusRecord,
    classify,
    decompose,
    extension_obstruction,
)
from toric_ends.errors import (
    DegenerateTargetError,
    InsufficientBlocksError,
    MalformedPathError,
    NoRealizedPointError,
    ToricEndError,
    UndecidableAtHorizonError,
)
from toric_ends.invariants import PatternCounts
from toric_ends.farey import GL2Z, QuadraticTarget, RationalTarget, _StreamImage, _bezout_partner


# ---------------------------------------------------------------------------
# edges, orientation and matrices, from the determinant of two slopes


def _det(a: Slope, b: Slope) -> int:
    return a.p * b.q - b.p * a.q


def oracle_farey_edge(a: Slope, b: Slope) -> bool:
    """True iff the slopes are joined by an arc of the Farey graph."""
    return abs(_det(a, b)) == 1


def oracle_cw(a: Slope, b: Slope, c: Slope) -> bool:
    """True iff b lies strictly inside the clockwise arc from a to c: the
    sign of det(a, b) * det(b, c) * det(c, a) does not depend on the
    vectors chosen for the slopes."""
    return _det(a, b) * _det(b, c) * _det(c, a) < 0


def reference_witness(a: Slope, b: Slope) -> GL2Z:
    """The SL2(Z) element sending the edge (a, b) to (-1, -2), from the
    slopes of the edge, signed so that its first entry that is not 0 is
    positive."""
    eps = _det(a, b)
    if abs(eps) != 1:
        raise MalformedPathError(f"{a}, {b} is not a Farey edge")
    entries = (eps * (-b.q + 2 * eps * a.q), eps * (b.p - 2 * eps * a.p),
               eps * (b.q - eps * a.q), eps * (-b.p + eps * a.p))
    sign = 1 if next(x for x in entries if x) > 0 else -1
    return GL2Z(*(sign * x for x in entries))


def gl2z_inverse(m: GL2Z) -> GL2Z:
    """The inverse of m: its adjugate times its determinant (+-1)."""
    e = m.a * m.d - m.b * m.c
    return GL2Z(e * m.d, -e * m.b, -e * m.c, e * m.a)


# ---------------------------------------------------------------------------
# independent exact comparisons


def _surd_cmp_fraction(a: int, b: int, c: int, d: int, x: Fraction) -> int:
    """sign((a + b*sqrt(d))/c - x) with c > 0, d > 1 not a square."""
    # sign(a*xq - x_p*c + b*xq*sqrt(d))
    lhs = a * x.denominator - x.numerator * c
    rhs = b * x.denominator
    if lhs >= 0 and rhs >= 0:
        return 1 if (lhs or rhs) else 0
    if lhs <= 0 and rhs <= 0:
        return -1 if (lhs or rhs) else 0
    big = lhs * lhs > rhs * rhs * d
    if lhs > 0:
        return 1 if big else -1
    return -1 if big else 1


def _surd_floor(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d))/c), c > 0: an isqrt estimate, corrected by the
    standalone surd comparator."""
    n = (a + (isqrt(b * b * d) if b > 0 else -isqrt(b * b * d))) // c
    while _surd_cmp_fraction(a, b, c, d, Fraction(n)) < 0:
        n -= 1
    while _surd_cmp_fraction(a, b, c, d, Fraction(n + 1)) >= 0:
        n += 1
    return n


def _normalized_surd(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) for the same (a + b*sqrt(d))/c with c > 0 and
    gcd(a, b, c) = 1; d is kept."""
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(gcd(a, b), c)
    return a // g, b // g, c // g, d


def reference_written(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The written form of the input surd (a + b*sqrt(d))/c: the squares
    of d moved into b by the reference split, then c > 0 and
    gcd(a, b, c) = 1."""
    f, d0 = reference_squarefree_split(d)
    return _normalized_surd(a, b * f, c, d0)


def oracle_surd(value) -> tuple[int, int, int, int]:
    """A library surd (P + sqrt(D))/Q read as (a, b, c, d) = (P, 1, Q, D),
    sign-normalized: the comparator and the floor above need D only to be
    non-square."""
    return _normalized_surd(value.P, 1, value.Q, value.D)


def reference_mobius(surd: tuple[int, int, int, int], m: GL2Z) -> tuple[int, int, int, int]:
    """(A*t + B) / (C*t + D) for t = (a + b*sqrt(d))/c, exactly: times the
    conjugate of the denominator, then normalized by a gcd; d is kept."""
    a, b, c, d = surd
    num_a, num_b = m.a * a + m.b * c, m.a * b
    den_a, den_b = m.c * a + m.d * c, m.c * b
    norm = den_a * den_a - den_b * den_b * d
    return _normalized_surd(num_a * den_a - num_b * den_b * d, num_b * den_a - num_a * den_b, norm, d)


class OracleTarget:
    """Target wrapper exposing comparisons against Fractions and oo."""

    def __init__(self, target):
        if isinstance(target, RationalTarget):
            self.infinite = target.slope.q == 0
            self.value = None if self.infinite else Fraction(target.slope.p, target.slope.q)
            self.rational_slope = target.slope
            self.attained = target.attained
            self.surd = None
        elif isinstance(target, QuadraticTarget):
            self.infinite = False
            self.value = None
            self.rational_slope = None
            self.attained = False
            self.surd = oracle_surd(target.value)
        else:
            raise TypeError("oracle handles rational and quadratic targets")

    def cmp_fraction(self, x: Fraction) -> int:
        """sign(target - x); +2 stands in for oo which exceeds any fraction."""
        if self.infinite:
            return 2
        if self.surd is not None:
            return _surd_cmp_fraction(*self.surd, x)
        v = self.value
        return (v > x) - (v < x)

    def equals_slope(self, s: Slope) -> bool:
        return self.rational_slope is not None and s == self.rational_slope


def _rank(current: Slope, x: Slope):
    """Position of x along the clockwise traversal starting just after
    `current`: from a finite slope, first everything below, then oo, then
    everything above, each leg numerically decreasing; from oo, one
    numerically decreasing leg."""
    if x.q == 0:
        return (1, Fraction(0))
    v = Fraction(x.p, x.q)
    if current.q == 0:
        return (0, -v)
    c = Fraction(current.p, current.q)
    if v < c:
        return (0, c - v)
    return (2, -v)


def _rank_target(current: Slope, t: OracleTarget):
    if t.infinite:
        return (1, Fraction(0))
    c = Fraction(current.p, current.q) if current.q else None
    last = 2 if c is not None else 0  # the leg above a finite start, or the one leg from oo

    class _SurdKey:
        """Comparable stand-in for an irrational rank component."""

        def __init__(self, kind, surd, offset, negated):
            # value = offset + (surd value) * (-1 if negated else 1)
            self.kind, self.surd, self.offset, self.negated = kind, surd, offset, negated

    if t.surd is None:
        v = t.value
        if c is not None and v < c:
            return (0, c - v)
        return (last, -v)
    if c is not None and t.cmp_fraction(c) < 0:
        return (0, _SurdKey(0, t.surd, c, True))
    return (last, _SurdKey(last, t.surd, Fraction(0), True))


def _component_less(a, b, surd_cmp=_surd_cmp_fraction) -> bool:
    """a < b where each side is a Fraction or a _SurdKey."""
    a_frac = isinstance(a, Fraction)
    b_frac = isinstance(b, Fraction)
    if a_frac and b_frac:
        return a < b
    if a_frac:
        # a < offset - surd  <=>  surd < offset - a  <=>  sign(surd - (offset - a)) < 0
        return surd_cmp(*b.surd, b.offset - a) < 0
    if b_frac:
        return surd_cmp(*a.surd, a.offset - b) > 0
    raise NotImplementedError("two irrational ranks never need comparing here")


def rank_less(r1, r2) -> bool:
    if r1[0] != r2[0]:
        return r1[0] < r2[0]
    return _component_less(r1[1], r2[1])


def oracle_on_arc(current: Slope, target, x: Slope, include_target: bool) -> bool:
    t = OracleTarget(target)
    if x == current:
        return True
    if t.equals_slope(current):
        # the path toward an attained target at its start is that one point;
        # a non-attained one there has no path
        if t.attained:
            return False
        raise ValueError("target equals the start slope")
    if t.equals_slope(x):
        return include_target
    return rank_less(_rank(current, x), _rank_target(current, t))


def neighbor_candidates(current: Slope, max_den: int) -> list[Slope]:
    """Every Farey neighbor of `current` with denominator at most max_den,
    including oo when adjacent."""
    p, q = current.p, current.q
    assert q > 0
    out = []
    if q == 1:
        out.append(Slope(1, 0))
    for b in range(1, max_den + 1):
        for delta in (1, -1):
            num = p * b + delta
            if num % q == 0:
                a = num // q
                if gcd(abs(a), b) == 1:
                    out.append(Slope(a, b))
    return out


def oracle_next_toward(current: Slope, target, max_den: int = 1000) -> Slope | None:
    """Closest-to-target on-arc neighbor with denominator <= max_den."""
    t = OracleTarget(target)
    include = t.attained
    best = None
    best_rank = None
    for cand in set(neighbor_candidates(current, max_den)):
        if t.equals_slope(cand):
            if not include:
                continue
            return cand  # the target itself is the extreme point of the arc
        if not oracle_on_arc(current, target, cand, include) or cand == current:
            continue
        r = _rank(current, cand)
        if best is None or rank_less(best_rank, r):
            best, best_rank = cand, r
    return best


# ---------------------------------------------------------------------------
# reference stepper


def reference_next_toward(current: Slope, target) -> Slope:
    """One clockwise step computed from scratch at every vertex: the Bezout
    partner u of the current vertex s, then k from the ratio
    det(u, t) / det(t, s) for the original target t (a Fraction for a
    rational t, the oracle's own surd floor for a quadratic t, the floor of
    the stream's own image for a stream)."""
    s = current
    up, uq = _bezout_partner(s)
    if isinstance(target, RationalTarget):
        t = target.slope
        if t == s:
            if target.attained:
                raise ValueError("attained target equals the current slope")
            raise DegenerateTargetError("non-attained rational target equals the current slope")
        ratio = Fraction(up * t.q - t.p * uq, t.p * s.q - s.p * t.q)
        if target.attained and ratio.denominator == 1:
            k = int(ratio)
        else:
            k = ratio.numerator // ratio.denominator + 1
    elif isinstance(target, QuadraticTarget):
        k = _surd_floor(*reference_mobius(oracle_surd(target.value), GL2Z(-uq, up, s.q, -s.p))) + 1
    else:
        k = target.image(GL2Z(-uq, up, s.q, -s.p)).floor() + 1
    return Slope(up + k * s.p, uq + k * s.q)


def reference_cf_coefficients(value, n: int) -> list[int]:
    """The first n continued fraction coefficients of a library surd by
    the oracle's own floor and a gcd-normalized mobius per coefficient."""
    surd, out = oracle_surd(value), []
    for _ in range(n):
        out.append(_surd_floor(*surd))
        surd = reference_mobius(surd, GL2Z(0, 1, 1, -out[-1]))  # 1 / (x - floor(x))
    return out


def reference_path(start: Slope, target, n: int) -> tuple[Slope, ...]:
    """The first n vertices by the reference stepper (fewer when an attained
    target is reached sooner)."""
    vs = [start]
    while len(vs) < n and not (target.attained and vs[-1] == target.slope):
        vs.append(reference_next_toward(vs[-1], target))
    return tuple(vs)


# ---------------------------------------------------------------------------
# reference block finder, sign counts and Euler class


def reference_blocks(path, count: int) -> list[tuple]:
    """The first `count` blocks of the path found vertex by vertex, as
    (start, end, witness entries, infinite): take the witness of the first
    edge of a block, extend the block while the witness sends the next
    vertex to the next negative integer, and start the next block at the
    boundary.  A block whose witness sends a non-attained rational target
    to oo is the infinite one."""
    target = path.target
    out = []
    start = 0
    while len(out) < count and path.has_vertex(start + 1):
        m = reference_witness(path.vertex(start), path.vertex(start + 1))
        if (isinstance(target, RationalTarget) and not target.attained
                and m.c * target.slope.p + m.d * target.slope.q == 0):
            out.append((start, None, m.entries(), True))
            break
        length = 2
        while (path.has_vertex(start + length)
               and m.apply(path.vertex(start + length)) == Slope(-(length + 1), 1)):
            length += 1
        out.append((start, start + length - 1, m.entries(), False))
        start += length - 1
    return out


def reference_count_positive(signs, lo: int, hi: int) -> int:
    """Positive slices among lo <= j < hi, one sign_at call per slice."""
    return sum(1 for j in range(lo, hi) if signs.sign_at(j) > 0)


def reference_tail_sign(tail, j: int) -> int:
    """Sign of slice j (j >= 0) of a sign tail, written from each rule's own
    definition rather than from a shared opening-slices-then-pattern model."""
    if isinstance(tail, AllPositive):
        return 1
    if isinstance(tail, AllNegative):
        return -1
    if isinstance(tail, EventuallySign):  # `after` slices of the opposite sign
        return -tail.sign if j < tail.after else tail.sign
    if isinstance(tail, Alternating):
        return tail.first if j % 2 == 0 else -tail.first
    if isinstance(tail, Periodic):
        return tail.pattern[j % len(tail.pattern)]
    raise TypeError(f"not a sign tail: {tail!r}")


def reference_euler_class(vertices, signs, slices: int) -> tuple[int, int]:
    """Sum over the first `slices` basic slices of sign * (v(s_next) -
    v(s_prev)) with v(p/q) = (q, p), slice by slice, over vertex lifts
    chosen so that consecutive lifts have determinant +1."""
    first = vertices[0]
    lifts = [(first.p, first.q)]
    for s in vertices[1:slices + 1]:
        p, q = lifts[-1]
        d = p * s.q - s.p * q
        assert d in (1, -1), "not a Farey edge"
        lifts.append((d * s.p, d * s.q))
    x = y = 0
    for j in range(slices):
        sign = signs.sign_at(j)
        (p0, q0), (p1, q1) = lifts[j], lifts[j + 1]
        x += sign * (q1 - q0)
        y += sign * (p1 - p0)
    return x, y


def reference_euler_walk(decomp, signs, horizon: int) -> tuple[int, int]:
    """The Euler class summed run by run up to `horizon` slices (the whole
    path toward an attained target), as the library did before its closed
    form over the block period: each run adds its step times
    (positives - negatives) among its slices up to the horizon."""
    path = decomp.path
    slices = path.walk_to_end() - 1 if path.target.attained else horizon
    x = y = i = 0
    while (run := path.run(i)) is not None and run.start < slices:
        hi = slices if run.edges is None else min(run.start + run.edges, slices)
        weight = 2 * signs.count_positive(run.start, hi) - (hi - run.start)
        x += weight * run.dq
        y += weight * run.dp
        i += 1
    return x, y


def reference_stream_run(x):
    """The run (a0, a1, x') of a stream image read as two separate floors,
    the composition the walk used before it read both digits in one loop:
    a0 = floor(x), the cursor z = 1/(x - a0), a1 = floor(z) and
    x' = 1 + 1/(z - a1); x' as its (i, a, b, c, d).  x is copied first,
    since floor() advances a cursor."""
    x = _StreamImage(x.stream, x.i, x.a, x.b, x.c, x.d)
    a0 = x.floor()
    z = x._recip(a0)
    a1 = z.floor()
    a, b, c, d = z.a - a1 * z.c, z.b - a1 * z.d, z.c, z.d  # z - a1
    return a0, a1, (z.i, a + c, b + d, a, b)


# ---------------------------------------------------------------------------
# bounded witness search


def oracle_witness_search(vertices: list[Slope], bound: int = 50):
    """An SL2(Z) matrix with entries bounded by `bound` carrying the vertex
    run to -1, ..., -m, or None.  Complete over the bounded box: for each
    (a, b) the remaining row is forced by the images of the first two
    vertices and solved exactly."""
    if len(vertices) < 2:
        raise ValueError("runs have at least 2 vertices")
    p1, q1 = vertices[0].p, vertices[0].q
    p2, q2 = vertices[1].p, vertices[1].q
    det12 = p1 * q2 - p2 * q1
    assert det12 in (1, -1)
    rng = range(-bound, bound + 1)
    for a, b in product(rng, rng):
        e1 = -(a * p1 + b * q1)
        e2 = -(a * p2 + b * q2)
        if e2 % 2 != 0:
            continue
        f2 = e2 // 2
        c = det12 * (e1 * q2 - f2 * q1)
        d = det12 * (f2 * p1 - e1 * p2)
        if abs(c) > bound or abs(d) > bound:
            continue
        if a * d - b * c != 1:
            continue
        den1 = c * p1 + d * q1
        if den1 == 0 or -(a * p1 + b * q1) != den1:
            continue
        ok = True
        for j, v in enumerate(vertices):
            den = c * v.p + d * v.q
            if den == 0 or (a * v.p + b * v.q) != -(j + 1) * den:
                ok = False
                break
        if ok:
            return (a, b, c, d)
    return None


# ---------------------------------------------------------------------------
# orbit enumeration


def oracle_orbit_count(lengths: list[int]) -> int:
    """Distinct within-block shuffle orbits of sign assignments: enumerate
    every assignment, key it by per-block positive counts."""
    slices = [m - 1 for m in lengths]
    total = sum(slices)
    orbits = set()
    for bits in product((1, -1), repeat=total):
        key = []
        i = 0
        for w in slices:
            key.append(sum(1 for s in bits[i:i + w] if s > 0))
            i += w
        orbits.add(tuple(key))
    return len(orbits)


# ---------------------------------------------------------------------------
# circular order on a finite slope census


def circular_census(max_den: int) -> list[Slope]:
    """Small-denominator slopes in ascending numeric order, oo last, so the
    list read backwards (with wraparound) is the clockwise order."""
    seen = set()
    for q in range(1, max_den + 1):
        for p in range(-4 * max_den, 4 * max_den + 1):
            if gcd(abs(p), q) == 1:
                seen.add(Slope(p, q))
    ordered = sorted(seen, key=lambda s: Fraction(s.p, s.q))
    ordered.append(Slope(1, 0))
    return ordered


def oracle_clockwise_between(census: list[Slope], a: Slope, b: Slope, x: Slope) -> bool:
    n = len(census)
    ia, ib, ix = census.index(a), census.index(b), census.index(x)
    i = ia
    while True:
        if i == ix:
            return True
        if i == ib:
            return ix == ib
        i = (i - 1) % n


# ---------------------------------------------------------------------------
# synthetic paths with prescribed block lengths


def synthetic_path_vertices(lengths: list[int]) -> list[Slope]:
    """A Farey path whose maximal block decomposition has exactly the given
    lengths (each >= 2), built from vector recurrences: doubling continues a
    block, tripling breaks one."""
    assert all(m >= 2 for m in lengths)
    prev, cur = (-1, 1), (-2, 1)
    vs = [prev, cur]
    first = True
    for m in lengths:
        if not first:
            nxt = (3 * cur[0] - prev[0], 3 * cur[1] - prev[1])
            vs.append(nxt)
            prev, cur = cur, nxt
        for _ in range(m - 2):
            nxt = (2 * cur[0] - prev[0], 2 * cur[1] - prev[1])
            vs.append(nxt)
            prev, cur = cur, nxt
        first = False
    return [Slope(p, q) for p, q in vs]


# ---------------------------------------------------------------------------
# reference realized-point scan, square-free split and family loop


def reference_solid_torus_index(start: Slope, target, s: Slope) -> int:
    """The position of a slope s of the clockwise arc on the path from start
    toward target, vertex by vertex with the reference stepper: stop at s,
    or with NoRealizedPointError at the first vertex past s (an attained
    target other than s is past it)."""
    v, index = start, 0
    while v != s:
        if (target.attained and v == target.slope) or not oracle_on_arc(v, target, s, target.attained):
            raise NoRealizedPointError(
                f"s(r) = {s} is not a vertex of the factorization from {start}")
        v, index = reference_next_toward(v, target), index + 1
    return index


def reference_closest_one_over_n(target, max_n: int) -> Slope | None:
    """s(r) among oo and the slopes +-1/n with n <= max_n: the last of them
    on the clockwise arc from 0/1 toward the target (the target included
    when attained), by the oracle's arc test; None when none is on it.
    Clockwise from 0/1 they are -1/max_n, ..., -1/1, oo, 1/1, ..., 1/max_n,
    so those on the arc are a prefix of that list, found by bisection.  An
    answer with n < max_n is exact: when s(r) has n >= max_n, the last
    candidate on the arc is +-1/max_n or there is none."""
    zero = Slope(0, 1)
    ordered = [*(Slope(-1, n) for n in range(max_n, 0, -1)), Slope(1, 0),
               *(Slope(1, n) for n in range(1, max_n + 1))]
    i = bisect_left(ordered, True, key=lambda s: not oracle_on_arc(zero, target, s, target.attained))
    return ordered[i - 1] if i else None


def reference_squarefree_split(d: int) -> tuple[int, int]:
    """d = f*f * d0 with d0 squarefree, as (f, d0), by trial division of
    every k with k*k <= d0."""
    f, d0, k = 1, d, 2
    while k * k <= d0:
        while d0 % (k * k) == 0:
            d0 //= k * k
            f *= k
        k += 1
    return f, d0


def reference_family(target, k: int, start: Slope = Slope(-1, 1), horizon: int = 64) -> list:
    """The non-extendable family with every member classified from scratch
    by the public classify: the block lengths are read off a separate path
    from start, and rational members carry their finitely many rare signs
    in an explicit prefix."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return []
    members = []

    def certify(e, failure):
        inv = classify(e)
        result = extension_obstruction(inv, horizon)
        if not isinstance(result, NoTightExtension):
            raise InsufficientBlocksError(f"{failure}: {result}")
        members.append(inv)

    decomp = decompose(FareyPath(start, target)) if not target.attained else None
    if isinstance(target, RationalTarget):
        if target.attained:
            raise ToricEndError("non-extendable families need a non-attained or irrational target")
        base = (-1,) * decomp.all_blocks()[-1].start_index
        for member in range(k):
            if member == 0:
                signs = SignData(base, Alternating())
            else:
                m = (member + 1) // 2
                rare = 1 if member % 2 == 1 else -1
                signs = SignData(base + (rare,) * m, AllNegative() if rare == 1 else AllPositive())
            certify(EndDescription(TorusRecord(start, 1), target, signs),
                    f"family member {member} failed certification")
        return members

    lengths = []
    product_ = 1
    while product_ < k:
        if len(lengths) >= horizon:
            raise InsufficientBlocksError(
                f"cannot distinguish {k} invariants within {horizon} blocks")
        lengths.append(decomp.block(len(lengths) + 1).length)
        product_ *= lengths[-1]
    for counts in product(*(range(m) for m in lengths)):
        if len(members) == k:
            break
        prefix = []
        for c, m in zip(counts, lengths):
            prefix.extend([1] * c + [-1] * (m - 1 - c))
        certify(EndDescription(TorusRecord(start, 1), target, SignData(tuple(prefix), Alternating())),
                f"alternating-tail members toward {target} are not certifiable")
    return members


# ---------------------------------------------------------------------------
# reference block period by witness images, bounded by a horizon


def reference_quadratic_period(decomp, value, from_block: int, phase_mod: int,
                               horizon: int) -> tuple[int, int]:
    """Indices (i0, i1) with identical block state, so blocks repeat with
    period i1 - i0 from i0 on.  The state is the image of the target value
    (a library surd, read by oracle_surd) under the block witness, by the
    reference mobius, together with the slice phase; the scan starts at
    from_block and gives up after 4 * max(horizon, 8) blocks."""
    seen: dict = {}
    surd = oracle_surd(value)
    i = from_block
    while i <= from_block + max(horizon, 8) * 4:
        b = decomp.block(i)
        key = (reference_mobius(surd, b.witness), b.start_index % phase_mod)
        if key in seen:
            return seen[key], i
        seen[key] = i
        i += 1
    raise UndecidableAtHorizonError("no block periodicity detected", horizon)


def reference_quadratic_equivalent(a, b, horizon: int) -> bool:
    """Equality of two irrational invariants toward one quadratic target:
    counts compared block by block up to the reference period found from
    the first tail block on."""
    k = max(a.first_tail_block(), b.first_tail_block())
    if any(a.f(i) != b.f(i) for i in range(1, k)):
        return False
    ta, tb = a.tail, b.tail
    if type(ta) is not type(tb):
        return False
    if not isinstance(ta, PatternCounts):
        return True
    decomp = a.context.decomposition()
    phase = lcm(len(ta.pattern), len(tb.pattern))
    _, i1 = reference_quadratic_period(decomp, decomp.path.target.value, k, phase, horizon)
    return all(a.f(i) == b.f(i) for i in range(k, i1))


def reference_quadratic_obstruction(inv, horizon: int):
    """The extension obstruction of an irrational invariant toward a
    quadratic target with a mixed count tail: a strictly intermediate count
    within one reference period certifies NoTightExtension."""
    decomp = inv.context.decomposition()
    i0, i1 = reference_quadratic_period(decomp, decomp.path.target.value, inv.first_tail_block(),
                                        len(inv.tail.pattern), horizon)
    if any(0 < inv.f(i) < decomp.block(i).length - 1 for i in range(i0, i1)):
        return NoTightExtension(
            "per-block count is neither maximal nor minimal for infinitely many blocks")
    return Unknown(horizon)


# ---------------------------------------------------------------------------
# the human format, one json.dumps per scalar


def reference_render_human(doc: object, indent: int = 0) -> str:
    """The --format human text of a document: keys sorted, nested lists and
    dicts indented, list items as "- ", every scalar as json.dumps writes it."""
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(reference_render_human(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value)}")
        return "\n".join(lines)
    if isinstance(doc, list):
        return "\n".join(
            reference_render_human(item, indent) if isinstance(item, (dict, list))
            else f"{pad}- {json.dumps(item)}"
            for item in doc
        )
    return f"{pad}{json.dumps(doc)}"
