"""Exact slope arithmetic on the Farey graph and minimal clockwise slope sequences.

Orientation convention used by the whole package: the circle of slopes is
the extended rationals with oo = 1/0 sitting between the positive and the
negative end.  Traversing clockwise means numerically decreasing, so the
clockwise arc from -1 toward -2 runs through -3/2, and the clockwise arc
from -1 toward oo runs through -2, -3, ...  Every comparison below is an
exact integer sign test.
"""

from __future__ import annotations

from bisect import bisect_right
from math import gcd, isqrt
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import DegenerateTargetError, MalformedPathError, ToricEndError
from .records import Record, setfield


# ---------------------------------------------------------------------------
# slopes


class Slope(Record):
    """An extended rational p/q in lowest terms, q >= 0, with oo = 1/0."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p == 0 and q == 0:
            raise ValueError("slope 0/0 is not a point of the circle")
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        g = gcd(abs(p), q)
        if g > 1:
            p, q = p // g, q // g
        setfield(self, "p", p)
        setfield(self, "q", q)

    @classmethod
    def _primitive(cls, p: int, q: int) -> "Slope":
        """p/q for a vector known to be primitive, such as the image of a
        slope under GL2(Z): only the sign is normalized, with no gcd."""
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        s = object.__new__(cls)
        setfield(s, "p", p)
        setfield(s, "q", q)
        return s

    def __eq__(self, other):  # the hottest comparison: no key tuples
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    # a rational walk value x (see _Walk): its floor and its updates
    def floor(self) -> int:
        return self.p // self.q

    def _step(self, k: int) -> "Slope":  # 1/(k - x)
        return Slope._primitive(self.q, k * self.q - self.p)

    def _recip(self, n: int) -> "Slope":  # 1/(x - n)
        return Slope._primitive(self.q, self.p - n * self.q)

    def _after_run(self, j: int) -> "Slope":  # 1 + 1/(x - j)
        p, q = self.p - j * self.q, self.q
        return Slope._primitive(p + q, p)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    def __repr__(self) -> str:
        return f"Slope({self.p}, {self.q})"


INFINITY = Slope(1, 0)


def parse_slope(text: str) -> Slope:
    """Parse "p/q" (or a bare integer) into a Slope."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Slope(int(num), int(den))
    return Slope(int(s), 1)


def det(a: Slope, b: Slope) -> int:
    """Determinant of the canonical integer vectors of two slopes."""
    return a.p * b.q - b.p * a.q


def farey_edge(a: Slope, b: Slope) -> bool:
    """True iff the two distinct slopes are joined by an arc of the graph."""
    if a == b:
        raise ValueError("farey_edge needs distinct slopes")
    return abs(det(a, b)) == 1


def cw(a: Slope, b: Slope, c: Slope) -> bool:
    """True iff b lies strictly inside the clockwise arc from a to c.

    The sign of det(a,b)*det(b,c)*det(c,a) is independent of the choice of
    vector representatives, so this is a well defined circular orientation.
    """
    return det(a, b) * det(b, c) * det(c, a) < 0


def clockwise_between(a: Slope, b: Slope, x: Slope) -> bool:
    """True iff x lies on the closed clockwise arc from a to b."""
    if a == b:
        raise ValueError("clockwise_between needs distinct endpoints")
    return x == a or x == b or cw(a, x, b)


# ---------------------------------------------------------------------------
# GL2(Z)


class GL2Z(Record):
    """Integer matrix [[a, b], [c, d]] with determinant +-1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        det = a * d - b * c
        if det != 1 and det != -1:
            raise ValueError(f"determinant must be +-1, got {det}")
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "c", c)
        setfield(self, "d", d)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "GL2Z":
        return cls(1, 0, 0, 1)

    def apply(self, s: Slope) -> Slope:
        return Slope._primitive(self.a * s.p + self.b * s.q, self.c * s.p + self.d * s.q)

    def __matmul__(self, other: "GL2Z") -> "GL2Z":
        return GL2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GL2Z":
        e = self.det
        return GL2Z(e * self.d, -e * self.b, -e * self.c, e * self.a)

    def canonical(self) -> "GL2Z":
        """Sign-normalized representative: first nonzero entry positive."""
        for x in (self.a, self.b, self.c, self.d):
            if x != 0:
                if x < 0:
                    return GL2Z(-self.a, -self.b, -self.c, -self.d)
                return self
        raise AssertionError("zero matrix")

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_x, x = x, old_x - quot * x
        old_y, y = y, old_y - quot * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _bezout_partner(s: Slope) -> tuple[int, int]:
    """An integer vector u with det(u, s) = -1, as (u_p, u_q)."""
    g, x, y = _egcd(s.p, s.q)
    assert g == 1
    return (-y, x)


# ---------------------------------------------------------------------------
# exact quadratic irrationals


# largest trial divisor of the square-free split: enough for every d <= 10^18
SQUAREFREE_TRIAL_BUDGET = 10**6

# blocks QuadraticTarget.block_period walks in search of a repeat; periods
# grow like sqrt(d) log d: from -1/1 toward -sqrt(10^10 + 19) it is 62067
PERIOD_BUDGET = 10**5


def _squarefree_split(d: int) -> tuple[int, int]:
    """d = f*f * d0 with d0 squarefree; returns (f, d0).

    Trial division strips each factor k only while k^3 <= the cofactor.
    What remains then has no prime factor below its cube root: it is 1, a
    prime, a product of two distinct primes or a prime square, and one
    isqrt tells the square apart.  Past SQUAREFREE_TRIAL_BUDGET trial
    divisors the split stops with a ToricEndError."""
    f, odd, rest, k = 1, 1, d, 2
    while k * k * k <= rest:
        if k > SQUAREFREE_TRIAL_BUDGET:
            raise ToricEndError(
                f"square-free split of d = {d} needs trial divisors beyond the budget "
                f"of {SQUAREFREE_TRIAL_BUDGET}")
        while rest % k == 0:
            rest //= k
            if rest % k == 0:
                rest //= k
                f *= k
            else:
                odd *= k
        k += 1 if k == 2 else 2
    root = isqrt(rest)
    if root * root == rest:
        return f * root, odd
    return f, odd * rest


def _surd_sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d), d > 1 squarefree (so it is never 0
    unless a = b = 0)."""
    if a >= 0 and b >= 0:
        return 1 if (a or b) else 0
    if a <= 0 and b <= 0:
        return -1 if (a or b) else 0
    lhs, rhs = a * a, b * b * d
    if a > 0:
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


class QuadraticValue(Record):
    """The exact irrational (a + b*sqrt(d)) / c with b != 0, c > 0, d squarefree."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if d <= 0:
            raise ValueError("d must be positive")
        if b == 0:
            raise ValueError("b = 0 would make the value rational")
        if c == 0:
            raise ValueError("c must be nonzero")
        f, d0 = _squarefree_split(d)
        if d0 == 1:
            raise ValueError("sqrt(d) is an integer; value is rational")
        self._store(a, b * f, c, d0)

    @classmethod
    def _reduced(cls, a: int, b: int, c: int, d: int) -> "QuadraticValue":
        """The value for a d that is already squarefree, as every result of
        arithmetic on existing values is: no validation, no trial division."""
        value = object.__new__(cls)
        value._store(a, b, c, d)
        return value

    def _store(self, a: int, b: int, c: int, d: int):
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "c", c)
        setfield(self, "d", d)

    def cmp_fraction(self, p: int, q: int) -> int:
        """Exact sign of (value - p/q), q > 0."""
        return _surd_sign(self.a * q - p * self.c, self.b * q, self.d)

    def mobius(self, m: GL2Z) -> "QuadraticValue":
        """(A*t + B) / (C*t + D), exactly, for t = this value."""
        num_a = m.a * self.a + m.b * self.c
        num_b = m.a * self.b
        den_a = m.c * self.a + m.d * self.c
        den_b = m.c * self.b
        # multiply by the conjugate of the denominator
        norm = den_a * den_a - den_b * den_b * self.d
        if norm == 0:
            raise ZeroDivisionError("Mobius image of an irrational cannot have zero denominator")
        out_a = num_a * den_a - num_b * den_b * self.d
        out_b = num_b * den_a - num_a * den_b
        return QuadraticValue._reduced(out_a, out_b, norm, self.d)

    def __str__(self) -> str:
        return f"({self.a} + {self.b}*sqrt({self.d}))/{self.c}"

    def cf_coefficients(self) -> Iterator[int]:
        """Simple continued fraction coefficients, generated forever."""
        return _cf_coefficients(_Surd.of(self))


class _Surd:
    """A quadratic irrational walk value x = (P + sqrt(D))/Q in PQa form:
    D is a non-square fixed for the whole walk and Q divides D - P^2, so
    each update below is integer arithmetic with one exact division and no
    gcd.  The pair (P, Q) determines x."""

    __slots__ = ("P", "Q", "D", "r")

    def __init__(self, P: int, Q: int, D: int, r: int):
        self.P, self.Q, self.D, self.r = P, Q, D, r  # r = isqrt(D)

    @classmethod
    def of(cls, v: QuadraticValue) -> "_Surd":
        sign = 1 if v.b > 0 else -1
        P, Q, D = sign * v.a, sign * v.c, v.b * v.b * v.d
        if (D - P * P) % Q:
            P, Q, D = P * abs(Q), Q * abs(Q), D * Q * Q
        return cls(P, Q, D, isqrt(D))

    def floor(self) -> int:
        # P + sqrt(D) lies strictly between P + r and P + r + 1
        if self.Q > 0:
            return (self.P + self.r) // self.Q
        return (self.P + self.r + 1) // self.Q

    def _step(self, k: int) -> "_Surd":  # 1/(k - x)
        P = k * self.Q - self.P
        return _Surd(P, (P * P - self.D) // self.Q, self.D, self.r)

    def _recip(self, n: int) -> "_Surd":  # 1/(x - n)
        P = n * self.Q - self.P
        return _Surd(P, (self.D - P * P) // self.Q, self.D, self.r)

    def _after_run(self, j: int) -> "_Surd":  # 1 + 1/(x - j)
        P = j * self.Q - self.P
        Q = (self.D - P * P) // self.Q
        return _Surd(P + Q, Q, self.D, self.r)


def _cf_coefficients(x) -> Iterator[int]:
    """Coefficients of an irrational walk value x: emit n = floor(x), then
    continue with x <- 1 / (x - n)."""
    while True:
        n = x.floor()
        yield n
        x = x._recip(n)


# ---------------------------------------------------------------------------
# lazily memoized continued fraction streams


class CFStream:
    """An infinite simple continued fraction [a0; a1, a2, ...], memoized.

    Coefficients after the first must be >= 1.  The stream must be
    infinite, which makes the represented value irrational.
    """

    def __init__(self, coefficients: Iterable[int]):
        self._it = iter(coefficients)
        self._coeffs: list[int] = []

    def coefficient(self, i: int) -> int:
        while len(self._coeffs) <= i:
            try:
                a = int(next(self._it))
            except StopIteration:
                raise ToricEndError("cf-stream must be infinite") from None
            if self._coeffs and a < 1:
                raise ToricEndError("cf-stream coefficients after the first must be >= 1")
            self._coeffs.append(a)
        return self._coeffs[i]

    def cmp_fraction(self, p: int, q: int) -> int:
        """Exact sign of (value - p/q), q > 0: the sign of floor(q*t - p),
        read by the Gosper cursor (q*t - p is irrational, so never 0)."""
        return 1 if _StreamImage(self, 0, q, -p, 0, 1).floor() >= 0 else -1

    def mobius(self, m: GL2Z) -> "CFStream":
        """The stream of the image (a*t + b)/(c*t + d)."""
        return CFStream(_cf_coefficients(_StreamImage(self, 0, *m.entries())))


class _StreamImage:
    """The image (a*t_i + b)/(c*t_i + d) of the tail t_i = [e_i; e_(i+1), ...]
    of a stream, read lazily by Gosper's homographic algorithm (HAKMEM item
    101): floor() reads coefficients only until the floor is decided, and
    the walk updates multiply the matrix on the left without reading any."""

    __slots__ = ("stream", "i", "a", "b", "c", "d")

    def __init__(self, stream: CFStream, i: int, a: int, b: int, c: int, d: int):
        self.stream, self.i = stream, i
        self.a, self.b, self.c, self.d = a, b, c, d

    def floor(self) -> int:
        a, b, c, d, i = self.a, self.b, self.c, self.d, self.i
        while True:
            # past the first coefficient the unread tail ranges over (1, oo);
            # the floor is decided once both ends of that range agree on it
            if i and c != 0 and c + d != 0 and (c > 0) == (c + d > 0):
                n = a // c
                if n == (a + b) // (c + d):
                    break
            e = self.stream.coefficient(i)
            a, b = a * e + b, a
            c, d = c * e + d, c
            i += 1
        self.a, self.b, self.c, self.d, self.i = a, b, c, d, i
        return n

    def _step(self, k: int) -> "_StreamImage":  # 1/(k - x)
        a, b, c, d = self.a, self.b, self.c, self.d
        return _StreamImage(self.stream, self.i, c, d, k * c - a, k * d - b)

    def _recip(self, n: int) -> "_StreamImage":  # 1/(x - n)
        a, b, c, d = self.a, self.b, self.c, self.d
        return _StreamImage(self.stream, self.i, c, d, a - n * c, b - n * d)

    def _after_run(self, j: int) -> "_StreamImage":  # 1 + 1/(x - j)
        a, b, c, d = self.a - j * self.c, self.b - j * self.d, self.c, self.d
        return _StreamImage(self.stream, self.i, a + c, b + d, a, b)


# ---------------------------------------------------------------------------
# slope targets


class RationalTarget(Record):
    """A rational limit slope together with its attainment flag."""

    __slots__ = ("slope", "attained")

    def __init__(self, slope: Slope, attained: bool = False):
        setfield(self, "slope", slope)
        setfield(self, "attained", attained)

    def det_sign(self, s: Slope) -> int:
        d = s.p * self.slope.q - self.slope.p * s.q
        return (d > 0) - (d < 0)

    def transform(self, m: GL2Z) -> "RationalTarget":
        return RationalTarget(m.apply(self.slope), self.attained)

    def image(self, m: GL2Z) -> Slope:
        return m.apply(self.slope)

    def __str__(self) -> str:
        flag = "attained" if self.attained else "non-attained"
        return f"{self.slope} ({flag})"


class IrrationalTarget:
    """An irrational limit slope t, never attained.

    Each kind answers cmp_fraction(p, q), the sign of t - p/q for q > 0,
    exactly.  Like a rational target, each kind also gives the image of t
    under m in GL2(Z), image(m), as a walk value (see _Walk), and the floor
    of that image is mobius_floor(m)."""

    __slots__ = ()
    attained = False

    def det_sign(self, s: Slope) -> int:
        if s.q == 0:
            return 1
        return -self.cmp_fraction(s.p, s.q)

    def mobius_floor(self, m: GL2Z) -> int:
        return self.image(m).floor()

    def block_period(self, start: Slope) -> tuple[int, int, int] | None:
        """The period of the continued fraction blocks of the path from
        start, as (i0, blocks, slices): from block i0 (1-based) on, block
        i + blocks is as long as block i and begins `slices` slices later.
        None here: the blocks of a general stream need not repeat."""
        return None


class QuadraticTarget(IrrationalTarget, Record):
    """An exact quadratic irrational limit slope."""

    __slots__ = ("value",)

    @classmethod
    def of(cls, a: int, b: int, c: int, d: int) -> "QuadraticTarget":
        return cls(QuadraticValue(a, b, c, d))

    def cmp_fraction(self, p: int, q: int) -> int:
        return self.value.cmp_fraction(p, q)

    def transform(self, m: GL2Z) -> "QuadraticTarget":
        return QuadraticTarget(self.value.mobius(m))

    def image(self, m: GL2Z) -> _Surd:
        return _Surd.of(self.value.mobius(m))

    def block_period(self, start: Slope) -> tuple[int, int, int]:
        """At a block start the walk value x fixes every later block, and
        by Lagrange x is soon one of the finitely many reduced surds of
        discriminant D, so the first repeat of x gives the period.  Only x
        is walked, as in _Walk without the vertices: one step, then the
        run of k = 2 steps after it.  Stops with a ToricEndError past
        PERIOD_BUDGET blocks."""
        x = _Walk.at(start, self).x
        seen: dict[tuple[int, int], tuple[int, int]] = {}
        block = slices = 0
        while True:
            key = (x.P, x.Q)
            if key in seen:
                i0, s0 = seen[key]
                return i0, block + 1 - i0, slices - s0
            if block == PERIOD_BUDGET:
                raise ToricEndError(
                    f"the blocks toward {self} do not repeat within the budget of "
                    f"PERIOD_BUDGET = {PERIOD_BUDGET} blocks")
            block += 1
            seen[key] = (block, slices)
            x = x._step(x.floor() + 1)
            slices += 1
            if x.floor() == 1:  # k = 2: floor(y) steps, y = 1/(x - 1)
                y = x._recip(1)
                j = y.floor()
                x = y._after_run(j)
                slices += j

    def __str__(self) -> str:
        return str(self.value)


class CFTarget(IrrationalTarget):
    """A limit slope given by an explicit continued fraction coefficient stream.

    Two CFTarget objects compare equal only when they are the same object;
    equality of arbitrary coefficient streams is not decidable.
    """

    def __init__(self, coefficients: Iterable[int]):
        self.stream = coefficients if isinstance(coefficients, CFStream) else CFStream(coefficients)

    def cmp_fraction(self, p: int, q: int) -> int:
        return self.stream.cmp_fraction(p, q)

    def transform(self, m: GL2Z) -> "CFTarget":
        return CFTarget(self.stream.mobius(m))

    def image(self, m: GL2Z) -> _StreamImage:
        return _StreamImage(self.stream, 0, *m.entries())

    def __str__(self) -> str:
        head = [self.stream.coefficient(i) for i in range(4)]
        return f"[{head[0]}; {head[1]}, {head[2]}, {head[3]}, ...]"


SlopeTarget = RationalTarget | QuadraticTarget | CFTarget


def on_arc(start: Slope, target: SlopeTarget, x: Slope, include_target: bool = False) -> bool:
    """True iff x lies on the clockwise arc from start toward target.

    Closed at start; the target endpoint is included only when requested
    (and only a rational target can be hit at all).
    """
    if x == start:
        return True
    if isinstance(target, RationalTarget) and x == target.slope:
        return include_target
    ds = target.det_sign(start)
    if ds == 0:
        if target.attained:
            return False  # the path ends where it starts: the arc is one point
        raise DegenerateTargetError("target equals the start slope")
    return det(start, x) * target.det_sign(x) * (-ds) < 0


# ---------------------------------------------------------------------------
# the clockwise step


class _Walk:
    """The minimal clockwise walk toward a target.

    The state is the current vertex s as an integer vector, a partner u with
    det(u, s) = -1, and the image x = det(u, t) / det(t, s) of the target t
    under the element of SL2(Z) sending s to oo and each neighbor [u + k*s]
    of s to the integer k.  The neighbors move monotonically around the
    circle as k grows, approaching s from the clockwise side, so the closest
    one inside the clockwise arc from s to the target is k = floor(x) + 1;
    when x is an integer, k = x is the target itself, taken only when it is
    attained.  Ties cannot occur; x determines k uniquely.

    The step to s' = u + k*s with partner u' = -s sends the target to
    x' = 1/(k - x), so only the vertex grows with depth: x is the image of a
    rational target (bounded by the target, as in Euclid's algorithm), a
    quadratic surd (reduced after a few steps, so bounded by Lagrange), or a
    stream image that reads about one coefficient per step.  Consecutive
    vertices have determinant +1, so the vectors s are coherent lifts.

    A step with k = 2 moves s by the constant vector s + u, and it changes
    y = 1/(x - 1) to y - 1.  A run of such steps is therefore read off y and
    taken in one jump: j steps send s to s + j*(s + u) and y to y - j.  A
    step with k = 2 is taken while 1 <= x < 2 (1 < x <= 2 for an attained
    target), that is while y > 1 (y >= 1), so the run has ceil(y) - 1 steps
    toward a rational target that is not attained (infinitely many at x = 1)
    and floor(y) steps otherwise; toward an attained target the last of them
    hits it when y is an integer.

    Each kind of x does these updates itself in integers: a Slope for a
    rational target, a _Surd in PQa form for a quadratic one and a
    _StreamImage for a stream.  No GL2Z is built after the first x.
    """

    __slots__ = ("u", "s", "x", "attained", "rational", "_k")

    def __init__(self, u: tuple[int, int], s: tuple[int, int], target: SlopeTarget):
        (up, uq), (sp, sq) = u, s
        self.u, self.s = u, s
        # x = (up - uq*t) / (sq*t - sp)
        self.x = target.image(GL2Z(-uq, up, sq, -sp))
        self.attained = target.attained
        self.rational = isinstance(target, RationalTarget)
        self._k = None
        if self.rational and self.x.q == 0:
            if target.attained:
                raise ValueError("attained target equals the current slope")
            raise DegenerateTargetError("non-attained rational target equals the current slope")

    @classmethod
    def at(cls, current: Slope, target: SlopeTarget) -> "_Walk":
        """A walk standing at `current`, with a Bezout partner."""
        return cls(_bezout_partner(current), (current.p, current.q), target)

    @property
    def hit(self) -> bool:
        """True once the walk stands on an attained target (x = oo)."""
        return self.attained and self.x.q == 0

    def k(self) -> int:
        """The k of the next step."""
        if self._k is None:
            x = self.x
            self._k = x.floor() + 1
            if self.attained and x.q == 1:
                self._k -= 1  # only rational targets are attained, so x is a Slope
        return self._k

    def step(self):
        k = self.k()
        (up, uq), (sp, sq) = self.u, self.s
        self.u, self.s = (-sp, -sq), (up + k * sp, uq + k * sq)
        self.x = self.x._step(k)
        self._k = None

    def run(self) -> int | None:
        """Take every step with k = 2 from here; returns how many, None for
        infinitely many (then the walk stops inside the run).  The first is
        an ordinary step, and only a run that goes on past it is jumped, so
        a run of one step costs no more than the step."""
        if self.k() != 2:
            return 0
        self.step()
        if self.hit or self.k() != 2:
            return 1
        y = self.x._recip(1)
        if self.rational and y.q == 0:
            return None
        j = y.floor()
        if self.rational and not self.attained and y.q == 1:
            j -= 1
        (up, uq), (sp, sq) = self.u, self.s
        dp, dq = sp + up, sq + uq
        sp, sq = sp + j * dp, sq + j * dq
        self.u, self.s = (dp - sp, dq - sq), (sp, sq)
        self.x = y._after_run(j)
        self._k = None
        return j + 1


def next_toward(current: Slope, target: SlopeTarget) -> Slope:
    """The neighbor of `current` closest to `target` on the clockwise arc:
    one step of a walk started at `current`."""
    walk = _Walk.at(current, target)
    walk.step()
    return Slope._primitive(*walk.s)  # det(u, s) = -1 makes s primitive


# ---------------------------------------------------------------------------
# paths


class Run(NamedTuple):
    """A maximal run of path vertices whose coherent lifts advance by one
    constant vector: vertex start + j is (p + j*dp)/(q + j*dq) for
    0 <= j <= edges, with edges None for a run that never ends.

    A run is one step of the walk followed by all the steps with k = 2
    after it, which makes it a maximal continued fraction block: a witness
    sending its first two vertices to -1 and -2 sends vertex start + j to
    -(j + 1).  Consecutive runs share their boundary vertex."""

    start: int
    p: int
    q: int
    dp: int
    dq: int
    edges: int | None

    def vertex(self, j: int) -> Slope:
        return Slope._primitive(self.p + j * self.dp, self.q + j * self.dq)


class FareyPath:
    """A minimal clockwise vertex sequence from a start slope toward a target.

    The path is stored as its runs, walked lazily one run at a time from
    the last vertex, so extending a path never changes the runs already
    walked; a vertex becomes a Slope only when vertex(i) or prefix(n) asks
    for it.  The length is the number of vertices asked for so far.
    """

    def __init__(self, start: Slope, target: SlopeTarget):
        self.start = start
        self.target = target
        self._runs: list[Run] = []
        self._size: int | None = 1  # vertices walked; None inside a run that never ends
        self._length = 1
        self._complete = target.attained and target.slope == start
        self._walk: _Walk | None = None

    @property
    def complete(self) -> bool:
        return self._complete

    def __len__(self) -> int:
        return self._length

    def _reach(self, i: int) -> bool:
        """Walk until vertex i exists; False when the path ends before it."""
        while self._size is not None and self._size <= i:
            if self._complete:
                return False
            self._advance()
        return True

    def extend_to(self, n: int) -> int:
        """Make the first n vertices available (fewer when the path ends
        sooner); returns the length."""
        if n > self._length:
            self._length = n if self._reach(n - 1) else self._size
        return self._length

    def walk_to_end(self) -> int:
        """Walk a path toward an attained target to its end; returns the
        vertex count."""
        if not self.target.attained:
            raise ValueError("only a path toward an attained target has an end")
        while not self._complete:
            self._advance()
        self._length = self._size
        return self._size

    def run(self, i: int) -> Run | None:
        """The i-th run (0-based), walked as far as needed; None when the
        path has fewer runs."""
        runs = self._runs
        while len(runs) <= i and not self._complete and self._size is not None:
            self._advance()
        return runs[i] if i < len(runs) else None

    def _advance(self):
        """Walk one more run."""
        if self._walk is None:
            self._walk = _Walk.at(self.start, self.target)
        walk = self._walk
        start, (p, q) = self._size - 1, walk.s
        walk.step()
        dp, dq = walk.s[0] - p, walk.s[1] - q
        more = 0 if walk.hit else walk.run()
        edges = None if more is None else 1 + more
        self._runs.append(Run(start, p, q, dp, dq, edges))
        self._size = None if edges is None else start + edges + 1
        self._complete = walk.hit

    def vertex(self, i: int) -> Slope:
        if self.extend_to(i + 1) <= i:
            raise IndexError(f"path is complete with {self._size} vertices")
        if i == 0:
            return self.start
        run = self._runs[bisect_right(self._runs, i, key=attrgetter("start")) - 1]
        return run.vertex(i - run.start)

    def has_vertex(self, i: int) -> bool:
        return self.extend_to(i + 1) > i

    def _pieces(self, n: int) -> Iterator[tuple[int, int, int, int, int, int]]:
        """Vertices 1 .. n - 1 of a path walked that far, as pieces
        (p, q, dp, dq, lo, hi): (p + j*dp)/(q + j*dq) for lo <= j < hi, with
        the sign already normalized.  The lifts of a run change sign at most
        once, where q + j*dq does, so a run gives one or two pieces."""
        for start, p, q, dp, dq, edges in self._runs:
            hi = n - start  # vertices start + 1 .. n - 1 of this run
            if hi <= 1:
                break
            if edges is not None:
                hi = min(hi, edges + 1)
            # the lift of vertex j needs sign e from j = c on and -e before;
            # det(v_j, v_(j+1)) = p*dq - q*dp = 1 makes the lift with
            # q + j*dq = 0 equal to (dq, 0), so it takes the sign of dq
            if dq:
                e, c = (1 if dq > 0 else -1), min(max(-(q // dq), 1), hi)
            else:
                e, c = q, 1  # q = -dp = +-1
            if e < 0:
                p, q, dp, dq = -p, -q, -dp, -dq
            if 1 < c:
                yield -p, -q, -dp, -dq, 1, c
            if c < hi:
                yield p, q, dp, dq, c, hi

    def prefix(self, n: int) -> tuple[Slope, ...]:
        if n < 1:
            return ()
        n = min(n, self.extend_to(n))
        out = [self.start]
        for p, q, dp, dq, lo, hi in self._pieces(n):
            out += [Slope._primitive(p + j * dp, q + j * dq) for j in range(lo, hi)]
        return tuple(out)

    def prefix_text(self, n: int) -> list[str]:
        """[str(v) for v in prefix(n)], rendered straight from the runs."""
        if n < 1:
            return []
        n = min(n, self.extend_to(n))
        out = [str(self.start)]
        for p, q, dp, dq, lo, hi in self._pieces(n):
            out += [f"{p + j * dp}/{q + j * dq}" for j in range(lo, hi)]
        return out

    @classmethod
    def from_vertices(cls, vertices: Iterable[Slope], target: SlopeTarget | None = None) -> "FareyPath":
        """The path from the first vertex toward target, checked against an
        explicit finite vertex list: the list must be the walk's first
        len(vertices) vertices.  Without an explicit target the target is
        attained at the last vertex, so the list must be a complete path.
        """
        vs = list(vertices)
        if not vs:
            raise MalformedPathError("a path needs at least one vertex")
        if target is None:
            target = RationalTarget(vs[-1], True)
        path = cls(vs[0], target)
        walked = path.prefix(len(vs))
        for i, v in enumerate(vs):
            if i == len(walked) or walked[i] != v:
                raise MalformedPathError(
                    f"vertex {i} ({v}) is not on the minimal clockwise path from {vs[0]} toward {target}")
        return path


def farey_sequence(start: Slope, target: SlopeTarget, n: int) -> FareyPath:
    """The first n vertices of the minimal clockwise sequence (fewer when an
    attained target is reached sooner)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    path = FareyPath(start, target)
    path.extend_to(n)
    return path


def quadratic_cf_target(value: QuadraticValue) -> CFTarget:
    """The same limit slope, re-expressed as a coefficient stream."""
    return CFTarget(value.cf_coefficients())
