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
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache
from math import gcd, isqrt
from operator import attrgetter, index

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

    def _run(self, attained: bool):
        """A rational walk value x read as one run (see FareyPath): (a0, a1,
        x').  An integer x is the target itself toward an attained target
        (a0 = x - 1, z = 1), and otherwise makes z = oo, the run that never
        ends (a1 = x' = None).  An integer z ends the run on the target
        when it is attained and one edge short of it otherwise."""
        a0, r = divmod(self.p, self.q)  # z = q/r
        if r == 0:
            if not attained:
                return a0, None, None
            a0, r = a0 - 1, self.q
        a1, r2 = divmod(self.q, r)  # z - a1 = r2/r
        if r2 == 0 and not attained:
            a1, r2 = a1 - 1, r
        # x' = (r2 + r)/r2, primitive since gcd(r, r2) = gcd(p, q) = 1
        return a0, a1, Slope._primitive(r2 + r, r2)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    def __repr__(self) -> str:
        return f"Slope({self.p}, {self.q})"


INFINITY = Slope(1, 0)


def parse_slope(text: str) -> Slope:
    """Parse "p/q" (or a bare integer p) into a Slope: p and q are each an
    optional sign and ASCII digits, with optional whitespace around them."""
    s = text.strip()
    if "_" in s or (not s.isascii() and any(c.isdecimal() and not c.isascii() for c in s)):
        raise ValueError(f"slope {text!r} must be written in ASCII digits with no underscores")
    if "/" in s:
        num, den = s.split("/", 1)
        return Slope(int(num), int(den))
    return Slope(int(s), 1)


def det(a: Slope, b: Slope) -> int:
    """Determinant of the canonical integer vectors of two slopes."""
    return a.p * b.q - b.p * a.q


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

    @classmethod
    def _unimodular(cls, a: int, b: int, c: int, d: int) -> "GL2Z":
        """The matrix for entries known to have determinant +-1, such as a
        block witness read off a run: the determinant is not multiplied out."""
        m = object.__new__(cls)
        setfield(m, "a", a)
        setfield(m, "b", b)
        setfield(m, "c", c)
        setfield(m, "d", d)
        return m

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, s: Slope) -> Slope:
        return Slope._primitive(self.a * s.p + self.b * s.q, self.c * s.p + self.d * s.q)

    def __matmul__(self, other: "GL2Z") -> "GL2Z":
        return GL2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

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


# largest trial divisor of the square-free split that writes a target as
# text: enough for every d <= 10^18
SQUAREFREE_TRIAL_BUDGET = 10**6

@lru_cache(maxsize=256)
def _squarefree_split(d: int) -> tuple[int, int]:
    """d = f*f * d0 with d0 squarefree; returns (f, d0), kept per d for
    the targets of later jobs.

    Trial division strips each factor k only while k^3 <= the cofactor.
    What remains then has no prime factor below its cube root: it is 1, a
    prime, a product of two distinct primes or a prime square, and one
    isqrt tells the square apart.  Past SQUAREFREE_TRIAL_BUDGET trial
    divisors the split stops there: d0 is then the cofactor, which need not
    be squarefree, and f*f * d0 is still d."""
    f, odd, rest, k = 1, 1, d, 2
    while k * k * k <= rest:
        if k > SQUAREFREE_TRIAL_BUDGET:
            return f, odd * rest
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


class _Surd:
    """A quadratic irrational x = (P + sqrt(D))/Q in PQa form: D is the
    discriminant B^2 - 4AC of the primitive minimal polynomial At^2 + Bt + C
    of x, and Q = +-2A, so Q divides D - P^2.  GL2(Z) keeps D, and with D
    fixed the pair (P, Q) determines x, so the triple is the value's
    identity and each update below is integer arithmetic with exact
    divisions and no gcd."""

    __slots__ = ("P", "Q", "D", "r")

    def __init__(self, P: int, Q: int, D: int, r: int):
        self.P, self.Q, self.D, self.r = P, Q, D, r  # r = isqrt(D)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.P == other.P and self.Q == other.Q and self.D == other.D

    def __hash__(self):
        return hash((self.P, self.Q, self.D))

    def __repr__(self) -> str:
        return f"_Surd({self.P}, {self.Q}, {self.D}, {self.r})"

    def floor(self) -> int:
        return _pqa_floor(self.P, self.Q, self.r)

    def cmp_fraction(self, p: int, q: int) -> int:
        """Exact sign of (x - p/q), q > 0: the sign of Q times the sign of
        n + q*sqrt(D) with n = q*P - p*Q, which is never 0."""
        n = q * self.P - p * self.Q
        sign = 1 if n >= 0 or n * n < q * q * self.D else -1
        return sign if self.Q > 0 else -sign

    def mobius(self, m: GL2Z) -> "_Surd":
        """(a*x + b)/(c*x + d), exactly.  With u = a*P + b*Q and
        v = c*P + d*Q the image is (u + a*sqrt(D))/(v + c*sqrt(D)); times the
        conjugate of the denominator it is
        ((u*v - a*c*D)/(det*Q) + sqrt(D)) / ((v^2 - c^2*D)/(det*Q)), and both
        divisions are exact: the image has discriminant D too, and its PQa
        pair for that D is unique."""
        P, Q, D, a, c = self.P, self.Q, self.D, m.a, m.c
        u, v, e = a * P + m.b * Q, c * P + m.d * Q, m.det * Q
        return _Surd((u * v - a * c * D) // e, (v * v - c * c * D) // e, D, self.r)

    def cf_coefficients(self) -> Iterator[int]:
        """Simple continued fraction coefficients, generated forever: emit
        n = floor(x), then continue with x <- 1/(x - n), stepped as the
        pair (P, Q)."""
        P, Q, D, r = self.P, self.Q, self.D, self.r
        while True:
            n = _pqa_floor(P, Q, r)
            yield n
            P = n * Q - P
            Q = (D - P * P) // Q

    def _run(self, attained: bool):
        """x read as one run (see FareyPath): (a0, a1, x'), with z = 1/(x - a0)
        as the pair (P, Q) only.  An irrational x has no integer digit to
        round, so `attained` is not read."""
        P, Q, D, r = self.P, self.Q, self.D, self.r
        a0 = _pqa_floor(P, Q, r)
        P = a0 * Q - P
        Q = (D - P * P) // Q
        a1 = _pqa_floor(P, Q, r)
        P = a1 * Q - P
        Q = (D - P * P) // Q  # z - a1 = Q / (P + sqrt(D))
        return a0, a1, _Surd(P + Q, Q, D, r)


def _pqa_floor(P: int, Q: int, r: int) -> int:
    """floor((P + sqrt(D))/Q) for r = isqrt(D), D not a square: P + sqrt(D)
    lies strictly between P + r and P + r + 1."""
    if Q > 0:
        return (P + r) // Q
    return (P + r + 1) // Q


def _cf_coefficients(x: "_StreamImage") -> Iterator[int]:
    """Coefficients of a stream image x: emit n = floor(x), then continue
    with x <- 1 / (x - n)."""
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
                a = next(self._it)
            except StopIteration:
                raise ToricEndError("cf-stream must be infinite") from None
            if a.__class__ is not int:  # an integer-like value is read by operator.index
                if isinstance(a, bool) or not hasattr(a, "__index__"):
                    raise ToricEndError(f"cf-stream coefficient {len(self._coeffs)} must be an integer, not {a!r}")
                a = index(a)
            if self._coeffs and a < 1:
                raise ToricEndError("cf-stream coefficients after the first must be >= 1")
            self._coeffs.append(a)
        return self._coeffs[i]


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

    def _recip(self, n: int) -> "_StreamImage":  # 1/(x - n)
        a, b, c, d = self.a, self.b, self.c, self.d
        return _StreamImage(self.stream, self.i, c, d, a - n * c, b - n * d)

    def _run(self, attained: bool):
        """x read as one run (see FareyPath): (a0, a1, x'), both digits in one
        loop of floor's test and update, which turns the matrix into the
        cursor z = 1/(x - a0) once a0 is decided; `attained` is not read, as
        for a _Surd.  The memo is read directly, and the stream's own reader
        only past it."""
        stream, i, a, b, c, d = self.stream, self.i, self.a, self.b, self.c, self.d
        coeffs, a0 = stream._coeffs, None
        while True:
            if i and c != 0 and c + d != 0 and (c > 0) == (c + d > 0):
                n = a // c
                if n == (a + b) // (c + d):
                    if a0 is not None:
                        break
                    a0, a, b, c, d = n, c, d, a - n * c, b - n * d
                    continue
            e = coeffs[i] if i < len(coeffs) else stream.coefficient(i)
            a, b = a * e + b, a
            c, d = c * e + d, c
            i += 1
        a, b = a - n * c, b - n * d  # z - a1
        return a0, n, _StreamImage(stream, i, a + c, b + d, a, b)


# ---------------------------------------------------------------------------
# slope targets


class RationalTarget(Record):
    """A rational limit slope and its attainment flag.  Every target kind
    says whether it is `rational`, `attained` and `periodic` (its blocks
    repeat: see BlockDecomposition.period); no caller tests a class."""

    __slots__ = ("slope", "attained")
    rational = True
    periodic = False

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
    under m in GL2(Z), image(m), as a walk value (see FareyPath) with a
    floor()."""

    __slots__ = ()
    attained = False
    rational = False
    periodic = False  # the blocks of a general stream need not repeat

    def det_sign(self, s: Slope) -> int:
        if s.q == 0:
            return 1
        return -self.cmp_fraction(s.p, s.q)


class QuadraticTarget(IrrationalTarget, Record):
    """An exact quadratic irrational limit slope, held as its PQa triple
    (see _Surd): two targets are equal exactly when their values are."""

    __slots__ = ("value", "_root")
    _fields = ("value",)
    periodic = True

    def __init__(self, value: _Surd, root: tuple[int, int, bool] | None = None):
        setfield(self, "value", value)
        # (f, d, split) with f*f*d = value.D, split once the squares are out of d
        setfield(self, "_root", root or (1, value.D, False))

    @classmethod
    def of(cls, a: int, b: int, c: int, d: int) -> "QuadraticTarget":
        """(a + b*sqrt(d))/c, a root of the primitive form (A, B, C) of
        c^2 t^2 - 2ac t + (a^2 - b^2 d), the larger root when b*c > 0; its
        discriminant is D = B^2 - 4AC = (2bc/g)^2 d for the content g."""
        if d <= 0:
            raise ValueError("d must be positive")
        if b == 0:
            raise ValueError("b = 0 would make the value rational")
        if c == 0:
            raise ValueError("c must be nonzero")
        if isqrt(d) ** 2 == d:
            raise ValueError("sqrt(d) is an integer; value is rational")
        g = gcd(gcd(c * c, 2 * a * c), a * a - b * b * d)
        A, B, D = c * c // g, -2 * a * c // g, (2 * b * c) ** 2 * d // (g * g)
        P, Q = (-B, 2 * A) if b * c > 0 else (B, -2 * A)
        h = gcd(2 * b * c, g)  # (g/h)^2 divides d: the text splits the input's d, not D
        return cls(_Surd(P, Q, D, isqrt(D)), (2 * abs(b * c) // h, d // (g // h) ** 2, False))

    def written(self) -> tuple[int, int, int, int]:
        """(a, b, c, d) with the target (a + b*sqrt(d))/c, c > 0,
        gcd(a, b, c) = 1 and d squarefree, as far as the split reaches
        within SQUAREFREE_TRIAL_BUDGET: past it d keeps the unsplit cofactor,
        and the text still reads back to this target.  The split runs once
        per target."""
        f, d, split = self._root
        if not split:
            k, d = _squarefree_split(d)
            f *= k
            setfield(self, "_root", (f, d, True))
        P, Q = self.value.P, self.value.Q
        if Q < 0:
            P, f, Q = -P, -f, -Q
        g = gcd(gcd(P, f), Q)
        return P // g, f // g, Q // g, d

    def cmp_fraction(self, p: int, q: int) -> int:
        return self.value.cmp_fraction(p, q)

    def transform(self, m: GL2Z) -> "QuadraticTarget":
        return QuadraticTarget(self.value.mobius(m), self._root)  # D, so its root, is kept

    def image(self, m: GL2Z) -> _Surd:
        return self.value.mobius(m)

    def __str__(self) -> str:
        a, b, c, d = self.written()
        return f"({a} + {b}*sqrt({d}))/{c}"


class CFTarget(IrrationalTarget, Record):
    """A limit slope given by a continued fraction coefficient stream read in
    a frame: the value frame(t) for the stream's value t.  Two targets are
    equal when they read the same stream object (equality of arbitrary
    streams is not decidable) in equal frames, so their values are equal."""

    __slots__ = ("stream", "frame")

    def __init__(self, coefficients: Iterable[int], frame: GL2Z = GL2Z(1, 0, 0, 1)):
        setfield(self, "stream", coefficients if isinstance(coefficients, CFStream) else CFStream(coefficients))
        setfield(self, "frame", frame)

    def cmp_fraction(self, p: int, q: int) -> int:
        """The sign of floor(q*x - p) for the value x, by one Gosper cursor
        over the stream (q*x - p is irrational, so never 0)."""
        a, b, c, d = self.frame.entries()
        return 1 if _StreamImage(self.stream, 0, q * a - p * c, q * b - p * d, c, d).floor() >= 0 else -1

    def transform(self, m: GL2Z) -> "CFTarget":
        return CFTarget(self.stream, m @ self.frame)

    def image(self, m: GL2Z) -> _StreamImage:
        return _StreamImage(self.stream, 0, *(m @ self.frame).entries())

    def __str__(self) -> str:
        x = _cf_coefficients(_StreamImage(self.stream, 0, *self.frame.entries()))
        return f"[{next(x)}; {next(x)}, {next(x)}, {next(x)}, ...]"


SlopeTarget = RationalTarget | QuadraticTarget | CFTarget


def on_arc(start: Slope, target: SlopeTarget, x: Slope, include_target: bool = False) -> bool:
    """True iff x lies on the clockwise arc from start toward target.

    Closed at start; the target endpoint is included only when requested
    (and only a rational target can be hit at all).
    """
    if x == start:
        return True
    if target.rational and x == target.slope:
        return include_target
    ds = target.det_sign(start)
    if ds == 0:
        if target.attained:
            return False  # the path ends where it starts: the arc is one point
        raise DegenerateTargetError("target equals the start slope")
    return det(start, x) * target.det_sign(x) * (-ds) < 0


# ---------------------------------------------------------------------------
# paths


# runs a path keys in search of a repeat of x (see BlockDecomposition.period);
# periods grow like sqrt(d) log d: from -1/1 toward -sqrt(10^10 + 19) it is 62067
PERIOD_BUDGET = 10**5


class Run(namedtuple("Run", "start p q dp dq edges")):
    """A maximal run of path vertices whose coherent lifts advance by one
    constant vector: vertex start + j is (p + j*dp)/(q + j*dq) for
    0 <= j <= edges, with edges None for a run that never ends (all six
    fields are integers but that one).

    A run is one step of the walk followed by all the steps with k = 2 after
    it (see FareyPath), which makes it a maximal continued fraction block: a
    witness sending its first two vertices to -1 and -2 sends vertex
    start + j to -(j + 1).  Consecutive runs share their boundary vertex."""

    __slots__ = ()

    def vertex(self, j: int) -> Slope:
        return Slope._primitive(self.p + j * self.dp, self.q + j * self.dq)


class FareyPath:
    """A minimal clockwise vertex sequence from a start slope toward a target,
    walked lazily one run at a time; a vertex becomes a Slope only when
    vertex(i) or prefix(n) asks for it.  extend_to(n) says how many of the
    first n vertices there are, and `complete` says the path has ended.

    The walk state is the last vertex s as an integer vector, a partner u
    with det(u, s) = -1, and the image x = det(u, t) / det(t, s) of the
    target t under the element of SL2(Z) sending s to oo and each neighbor
    [u + k*s] of s to the integer k.  The neighbors move monotonically around
    the circle as k grows, approaching s from the clockwise side, so the
    closest one inside the clockwise arc from s to the target is
    k = floor(x) + 1; when x is an integer, k = x is the target itself, taken
    only when it is attained.  The step to s' = u + k*s with partner u' = -s
    sends the target to 1/(k - x).

    A run is that step followed by every step with k = 2 after it, read off
    two continued fraction digits of x: a0 = floor(x), z = 1/(x - a0) and
    a1 = floor(z).  Every step of the run moves s by the same vector
    d = u + a0*s, the run has a1 edges, and it leaves the partner d - s'
    and the value x' = 1 + 1/(z - a1).  Toward a rational target an
    integer x or z rounds as the single steps would: see Slope._run.

    So only the vertex grows with depth: x is a rational target's image
    (bounded by the target, as in Euclid's algorithm), a quadratic surd
    (reduced after a few runs, so bounded by Lagrange), or a stream image
    that reads about two coefficients per run.  Consecutive vertices have
    determinant +1, so the vectors s are coherent lifts.  Each kind of x
    reads its run itself in integers, a Slope for a rational target, a
    _Surd in PQa form for a quadratic one and a _StreamImage for a stream,
    and builds one new x per run.  No GL2Z is built after the first x.

    The walk has two cursors.  The reader of x appends each run's end to the
    slice bounds (entry 0 is slice 0), keys its start toward a periodic
    target until a repeat gives `period` (see BlockDecomposition.period) and
    is `done` at the last run; step() reads ahead for the decompositions.
    The fold, _advance(), folds (u, s) over the oldest run read ahead, or
    over the next one off x once it has caught up, into one Run.
    """

    def __init__(self, start: Slope, target: SlopeTarget):
        self.start = start
        self.target = target
        self._runs: list[Run] = []
        self._size: int | None = 1  # vertices walked; None inside a run that never ends
        self.bounds = [0]
        self.period = None
        self._held: deque[int] = deque()  # a0 of the runs x has read and the fold has not
        self.complete = self.done = target.attained and target.slope == start
        if self.done:
            return
        (up, uq), (sp, sq) = _bezout_partner(start), (start.p, start.q)
        self._u, self._s = (up, uq), (sp, sq)
        # x = (up - uq*t) / (sq*t - sp), by a matrix of determinant -det(u, s) = 1
        self.x = x = target.image(GL2Z._unimodular(-uq, up, sq, -sp))
        if target.rational and x.q == 0:
            raise DegenerateTargetError("non-attained rational target equals the current slope")
        # the first run to start at each PQa pair of x, until the period is found
        self._seen = {(x.P, x.Q): 1} if target.periodic else None

    def _reach(self, i: int, bound: int) -> bool:
        """Walk until vertex i exists; False when the path ends before it,
        or when a run ends before it on a vertex with an entry of absolute
        value at least `bound` (if not 0)."""
        while self._size is not None and self._size <= i:
            if self.complete:
                return False
            self._advance()
            if bound and self._size is not None and self._size <= i and max(map(abs, self._s)) >= bound:
                return False
        return True

    def extend_to(self, n: int, bound: int = 0) -> int:
        """Make the first n vertices available; returns n, or the number of
        vertices walked when the path ends sooner.  With a bound the walk
        also stops at the first vertex before vertex n - 1 that ends a run
        and has an entry of absolute value at least `bound`, which is then
        the last; entries are linear along a run, so when the start is
        within the bound, so is every vertex before that one."""
        return n if self._reach(n - 1, bound) else self._size

    def run(self, i: int) -> Run | None:
        """The i-th run (0-based), walked as far as needed; None when the
        path has fewer runs."""
        runs = self._runs
        while len(runs) <= i and not self.complete and self._size is not None:
            self._advance()
        return runs[i] if i < len(runs) else None

    def _read(self) -> int:
        """Read one run off x; returns its a0."""
        a0, a1, x = self.x._run(self.target.attained)
        if a1 is None:  # x stays at the start of the run that never ends
            self.done = True
            return a0
        bounds = self.bounds
        bounds.append(bounds[-1] + a1)
        self.x, self.done = x, self.target.attained and x.q == 0  # on the target: x = oo
        if self._seen is not None:
            n = len(bounds)  # the run x starts
            i0 = self._seen.setdefault((x.P, x.Q), n)
            if i0 != n:
                self.period, self._seen = (i0, n - i0, bounds[-1] - bounds[i0 - 1]), None
            elif n > PERIOD_BUDGET:  # a later repeat is past the budget
                self._seen = None
        return a0

    def step(self) -> bool:
        """Read the next run off x, if any, and hold its a0 until the fold
        takes it; False once x is done."""
        if not self.done:
            self._held.append(self._read())
        return not self.done

    def _advance(self):
        """Fold (u, s) over the oldest run x has read, or over the next one."""
        i = len(self._runs)
        a0 = self._held.popleft() if self._held else self._read()
        start, bounds = self._size - 1, self.bounds
        (up, uq), (sp, sq) = self._u, self._s
        dp, dq = up + a0 * sp, uq + a0 * sq
        edges = bounds[i + 1] - bounds[i] if i + 1 < len(bounds) else None
        self._runs.append(Run(start, sp, sq, dp, dq, edges))
        if edges is None:  # the run never ends, and the fold stops at its start
            self._size = None
            return
        sp, sq = sp + edges * dp, sq + edges * dq
        self._u, self._s, self._size = (dp - sp, dq - sq), (sp, sq), start + edges + 1
        self.complete = self.done and not self._held  # x is done on the target

    def vertex(self, i: int) -> Slope:
        if not self.has_vertex(i):
            raise IndexError("vertex indices start at 0" if i < 0 else f"path is complete with {self._size} vertices")
        if i == 0:
            return self.start
        run = self._runs[bisect_right(self._runs, i, key=attrgetter("start")) - 1]
        return run.vertex(i - run.start)

    def has_vertex(self, i: int) -> bool:
        return i >= 0 and self.extend_to(i + 1) > i

    def _pieces(self, n: int) -> Iterator[tuple[int, int, int, int, int]]:
        """Vertices 1 .. n - 1 of a path walked that far, as pieces
        (p, q, dp, dq, count): (p + j*dp)/(q + j*dq) for 0 <= j < count,
        with the sign already normalized.  The lifts of a run change sign at
        most once, where q + j*dq does, so a run gives one or two pieces."""
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
                yield -p - dp, -q - dq, -dp, -dq, c - 1
            if c < hi:
                yield p + c * dp, q + c * dq, dp, dq, hi - c

    def prefix(self, n: int) -> tuple[Slope, ...]:
        """The first n vertices, stepped along each piece: one addition per
        entry and vertex, no product."""
        if n < 1:
            return ()
        n = min(n, self.extend_to(n))
        out = [self.start]
        add, slope = out.append, Slope._primitive
        for p, q, dp, dq, count in self._pieces(n):
            for _ in range(count):
                add(slope(p, q))
                p += dp
                q += dq
        return tuple(out)

    def prefix_text(self, n: int) -> list[str]:
        """[str(v) for v in prefix(n)], rendered straight from the pieces,
        stepped as in prefix; a piece with one denominator (dq = 0) steps
        only its numerators, before one constant suffix."""
        if n < 1:
            return []
        n = min(n, self.extend_to(n))
        out = [str(self.start)]
        add = out.append
        for p, q, dp, dq, count in self._pieces(n):
            if dq:
                for _ in range(count):
                    add(f"{p}/{q}")
                    p += dp
                    q += dq
            else:
                suffix = f"/{q}"
                out += [f"{x}{suffix}" for x in range(p, p + count * dp, dp)]
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


def quadratic_cf_target(value: _Surd) -> CFTarget:
    """The same limit slope, re-expressed as a coefficient stream."""
    return CFTarget(value.cf_coefficients())
