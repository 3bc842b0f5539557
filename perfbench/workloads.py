"""Seeded job generators for the `census`, `deep` and `family` workloads.

Every job is built from the seed alone, with plain integer arithmetic that
shares no code with the library.  A job is a dict:

  command   CLI command, or "cf-path" / "cf-blocks" for a coefficient-stream
            twin that is timed as a direct library call (the CLI has no
            stream schema)
  input     the command's input document
  expect    "ok": must answer ok; "any": ok or a domain violation;
            "violation": a deliberate domain violation, must not answer ok
  kind      target kind, for the job mix
  ladder    (layer, group, size) for jobs on a doubling ladder
  twin_of   id of the quadratic job a stream twin must equal
  vertices  expected vertex count of a path toward an attained target
  slices    expected basic-slice count of an attained end
"""

from __future__ import annotations

import random
from math import gcd, isqrt

WORKLOADS = ("census", "deep", "family")

ATTAINED, NON_ATTAINED, QUADRATIC, NO_TARGET = "rational-attained", "rational-non-attained", "quadratic", "none"
TARGET_KINDS = (ATTAINED, NON_ATTAINED, QUADRATIC)

# census: regular jobs per command; target kinds cycle through TARGET_KINDS
CENSUS_MIX = {
    "path": 200, "blocks": 200, "classify": 360, "compare": 200, "count": 100,
    "euler": 200, "extend-check": 200, "family": 100, "reduce-solid-torus": 200,
    "reduce-t2xr": 180,
}
# census: deliberate domain violations, 3% of the 2000 jobs
CENSUS_VIOLATIONS = {
    "coverage-mismatch": 15, "finite-path-with-tail": 10, "infinite-path-without-tail": 10,
    "degenerate-target": 5, "boundary-division": 5, "division-tail-kind": 5,
    "mixed-rotativity": 10,
}

# deep: surds (a, b, c, d) = (a + b*sqrt(d))/c with d in 10^0 .. 10^5
NAMED_SURDS = ((0, -1, 1, 2), (-3, 1, 4, 13), (-1, -1, 1, 421))
DECADE_SURDS = ((1, -1, 2, 1009), (2, -1, 3, 10007), (-1, 1, 2, 100003))
# sizes: path ladder n (n, 2n, 4n), blocks ladder c (c, 2c, 4c; 0 for none),
# euler horizon
NAMED_SIZES = (150, 16, 400)
BIG_SURD_SIZES = (100, 0, 200)     # the d near 10^6
DECADE_SIZES = (40, 2, 100)
RATIONAL_R = (4900, 5100)          # r of the -r ladder r, 2r, 4r
# (prefix, pattern) of the compare and extend-check pairs on each named surd;
# fixed, because the cost of period detection depends on them
PERIODIC_SIGNS = (("+-+-", "+--"), ("--++", "-++"), ("+++-", "+--+"))

# family: shared targets and sizes.  The surds are fixed, all certifiable
# with alternating tails; the seed picks the rational targets and sign data.
FAMILY_SURDS = ((0, -1, 1, 3), (1, -1, 1, 13), (-1, -1, 1, 23))
FAMILY_RATIONAL_TARGETS = 2
FAMILY_K = (100, 150, 200, 250)
FAMILY_COMPARES_PER_TARGET = 12


# ---------------------------------------------------------------------------
# integer slope arithmetic


def slope_text(p: int, q: int) -> str:
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    g = gcd(p, q)
    return f"{p // g}/{q // g}"


def is_square(d: int) -> bool:
    return isqrt(d) ** 2 == d


def is_squarefree(d: int) -> bool:
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def apply(m, v):
    a, b, c, d = m
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def compose(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


GENERATORS = ((1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0))


def random_frame(rng):
    """A small SL2(Z) element: it carries a path from -1 to a path with the
    same number of basic slices, since it keeps Farey edges and orientation."""
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(0, 3)):
        m = compose(rng.choice(GENERATORS), m)
    return m


def attained_path(rng, max_entry=30):
    """Vertex vectors of a minimal clockwise path from -1 to a rational.

    v1 is a neighbour of v0 = -1 with det(v0, v1) = 1 and every later vertex
    is v_{i+1} = a_i v_i - v_{i-1} with a_i >= 2, which makes the path the
    minimal clockwise one toward its last vertex."""
    while True:
        k = rng.choice((0, 1, 1, 2, 3))
        vs = [(-1, 1), (-1 - k, k)]
        for _ in range(rng.randint(0, 5)):
            a = rng.choice((2, 2, 2, 3, 4, 5))
            vs.append((a * vs[-1][0] - vs[-2][0], a * vs[-1][1] - vs[-2][1]))
        if max(abs(vs[-1][0]), abs(vs[-1][1])) <= max_entry:
            return vs


# ---------------------------------------------------------------------------
# documents


def rational_doc(p, q, attained):
    return {"kind": "rational", "slope": slope_text(p, q), "attained": attained}


def surd_doc(a, b, c, d):
    return {"kind": "quadratic", "a": a, "b": b, "c": c, "d": d}


def random_surd(rng):
    while True:
        d = rng.randint(2, 50)
        if not is_square(d):
            return (rng.randint(-6, 6), rng.choice((-2, -1, 1, 2)), rng.randint(1, 4), d)


def random_rational(rng, bound=30):
    while True:
        p, q = rng.randint(-bound, bound), rng.randint(0, bound)
        if (p, q) != (0, 0) and gcd(p, q) == 1:
            return p, q


def random_signs(rng, n):
    return [rng.choice("+-") for _ in range(n)]


def random_tail(rng):
    kind = rng.choice(("all-positive", "all-negative", "eventually", "alternating", "periodic"))
    if kind == "eventually":
        return {"type": kind, "sign": rng.choice("+-"), "after": rng.randint(0, 5)}
    if kind == "alternating":
        return {"type": kind, "first": rng.choice("+-")}
    if kind == "periodic":
        return {"type": kind, "pattern": random_signs(rng, rng.randint(1, 4))}
    return {"type": kind}


def end_doc(boundary, target, prefix, tail=None, **extra):
    signs = {"prefix": prefix}
    if tail is not None:
        signs["tail"] = tail
    doc = {"boundary": {"slope": boundary, "div": 1}, "target": target, "signs": signs}
    doc.update(extra)
    return doc


def random_end(rng, kind, rotative=False):
    """A well-formed end of the given target kind, with its slice count when
    the path is finite.  Attained ends carry exactly one sign per slice."""
    frame = random_frame(rng)
    boundary = slope_text(*apply(frame, (-1, 1)))
    extra = {}
    if rotative and rng.random() < 0.3:
        sign = rng.choice("+-")
        extra["rotative"] = {"sign": sign, "infinite": True} if rng.random() < 0.3 \
            else {"sign": sign, "n": rng.randint(1, 3)}
    if kind == ATTAINED:
        vs = attained_path(rng)
        slices = len(vs) - 1
        target = rational_doc(*apply(frame, vs[-1]), True)
        if rng.random() < 0.3:
            extra["division_tail"] = {"type": "constant", "value": rng.randint(1, 3)}
        return end_doc(boundary, target, random_signs(rng, slices), **extra), slices
    if kind == NON_ATTAINED:
        while True:
            p, q = random_rational(rng)
            if slope_text(p, q) != boundary:
                break
        target = rational_doc(p, q, False)
    else:
        target = surd_doc(*random_surd(rng))
    return end_doc(boundary, target, random_signs(rng, rng.randint(0, 6)), random_tail(rng), **extra), None


def path_target(rng, kind):
    """(start, target document, expected vertex count or None)."""
    frame = random_frame(rng)
    start = slope_text(*apply(frame, (-1, 1)))
    if kind == ATTAINED:
        vs = attained_path(rng)
        return start, rational_doc(*apply(frame, vs[-1]), True), len(vs)
    if kind == NON_ATTAINED:
        while True:
            p, q = random_rational(rng)
            if slope_text(p, q) != start:
                return start, rational_doc(p, q, False), None
    return start, surd_doc(*random_surd(rng)), None


def job(command, doc, expect, kind, **extra):
    return {"command": command, "input": doc, "expect": expect, "kind": kind, **extra}


def finalize(rng, jobs):
    """Shuffle, number the jobs, and turn twin references into ids."""
    rng.shuffle(jobs)
    index = {id(j): i for i, j in enumerate(jobs)}
    for i, j in enumerate(jobs):
        j["id"] = i
        if "twin_of" in j:
            j["twin_of"] = index[id(j["twin_of"])]
    return jobs


# ---------------------------------------------------------------------------
# census


def _census_job(rng, command, kind):
    if command == "path":
        start, target, vertices = path_target(rng, kind)
        extra = {"vertices": vertices} if vertices is not None else {}
        return job("path", {"start": start, "target": target, "n": rng.randint(2, 40)}, "ok", kind, **extra)
    if command == "blocks":
        start, target, _ = path_target(rng, kind)
        return job("blocks", {"start": start, "target": target, "count": rng.randint(1, 8)}, "ok", kind)
    if command == "count":
        return job("count", {"lengths": [rng.randint(1, 9) for _ in range(rng.randint(1, 8))]}, "ok", NO_TARGET)
    if command == "family":
        kind = NON_ATTAINED if kind == ATTAINED else kind
        _, target, _ = path_target(rng, kind)
        if kind == NON_ATTAINED and target["slope"] == "-1/1":
            target["slope"] = "-2/1"
        return job("family", {"target": target, "k": rng.randint(1, 6)}, "any", kind)
    if command == "reduce-t2xr":
        sign = rng.choice("+-")
        plus, _ = random_end(rng, kind)
        minus, _ = random_end(rng, rng.choice(TARGET_KINDS))
        for side in (plus, minus):
            if rng.random() < 0.3:
                side["rotative"] = {"sign": sign, "n": rng.randint(1, 3)}
        middle = {"slope": slope_text(*random_rational(rng, 5)), "div": 1}
        return job("reduce-t2xr", {"plus": plus, "minus": minus, "middle": middle}, "ok", kind)

    end, slices = random_end(rng, kind, rotative=command in ("classify", "reduce-solid-torus"))
    extra = {"slices": slices} if slices is not None else {}
    if command == "classify":
        return job("classify", {"end": end}, "ok", kind, **extra)
    if command == "compare":
        other = end_doc(end["boundary"]["slope"], end["target"],
                        random_signs(rng, len(end["signs"]["prefix"]) if kind == ATTAINED else rng.randint(0, 6)),
                        None if kind == ATTAINED else random_tail(rng))
        return job("compare", {"a": end, "b": other}, "any", kind)
    if command == "euler":
        return job("euler", {"end": end, "horizon": rng.randint(8, 64)}, "ok", kind, **extra)
    if command == "extend-check":
        return job("extend-check", {"end": end}, "ok", kind)
    return job("reduce-solid-torus", {"end": end}, "any", kind)


def _census_violation(rng, name, i):
    """The i-th deliberate violation of one kind; the command and target kind
    cycle with i, so the job mix is the same for every seed."""
    if name == "coverage-mismatch":
        end, _ = random_end(rng, ATTAINED)
        prefix = end["signs"]["prefix"]
        if prefix and rng.random() < 0.5:
            prefix.pop()
        else:
            prefix.append(rng.choice("+-"))
        return job(("classify", "euler")[i % 2], {"end": end}, "violation", ATTAINED)
    if name == "finite-path-with-tail":
        end, _ = random_end(rng, ATTAINED)
        end["signs"]["tail"] = random_tail(rng)
        return job("classify", {"end": end}, "violation", ATTAINED)
    if name == "infinite-path-without-tail":
        kind = (NON_ATTAINED, QUADRATIC)[i % 2]
        end, _ = random_end(rng, kind)
        del end["signs"]["tail"]
        return job("classify", {"end": end}, "violation", kind)
    if name == "degenerate-target":
        end, _ = random_end(rng, NON_ATTAINED)
        end["target"]["slope"] = end["boundary"]["slope"]
        return job("classify", {"end": end}, "violation", NON_ATTAINED)
    if name == "boundary-division":
        kind = TARGET_KINDS[i % 3]
        end, _ = random_end(rng, kind)
        end["boundary"]["div"] = rng.randint(2, 4)
        return job("extend-check", {"end": end}, "violation", kind)
    if name == "division-tail-kind":
        kind = (NON_ATTAINED, QUADRATIC)[i % 2]
        end, _ = random_end(rng, kind)
        end["division_tail"] = {"type": "strictly-increasing"}
        return job("euler", {"end": end}, "violation", kind)
    plus, _ = random_end(rng, ATTAINED)
    minus, _ = random_end(rng, ATTAINED)
    plus["rotative"] = {"sign": "+", "n": rng.randint(1, 3)}
    minus["rotative"] = {"sign": "-", "n": rng.randint(1, 3)}
    return job("reduce-t2xr", {"plus": plus, "minus": minus, "middle": {"slope": "0/1", "div": 1}},
               "violation", ATTAINED)


def _census_ladder(rng, command, group):
    """Three jobs toward one surd at sizes n, 2n, 4n, for the doubling ratio."""
    start, target, _ = path_target(rng, QUADRATIC)
    key, base = ("n", rng.randint(4, 10)) if command == "path" else ("count", rng.randint(1, 2))
    layer = "farey" if command == "path" else "blocks"
    return [job(command, {"start": start, "target": target, key: size}, "ok", QUADRATIC,
                ladder=(layer, f"{command}-{group}", size)) for size in (base, 2 * base, 4 * base)]


def census(rng):
    jobs = []
    for command, count in CENSUS_MIX.items():
        kinds = [TARGET_KINDS[i % 3] for i in range(count)]
        if command in ("path", "blocks"):
            # the quadratic share of path and blocks jobs comes as ladders
            for group in range(kinds.count(QUADRATIC) // 3):
                jobs += _census_ladder(rng, command, group)
            kinds = [k for k in kinds if k != QUADRATIC]
        for kind in kinds:
            jobs.append(_census_job(rng, command, kind))
    for name, count in CENSUS_VIOLATIONS.items():
        for i in range(count):
            jobs.append(_census_violation(rng, name, i))
    return jobs


# ---------------------------------------------------------------------------
# deep


def _big_surd(rng):
    while True:
        d = 10 ** 6 + rng.randrange(-3000, 3000)
        if is_squarefree(d):
            return (rng.randint(-2, 2), -1, 1, d)


def _ladder(rng, jobs, group, surd, path_n, blocks_c):
    target = surd_doc(*surd)
    for size in (path_n, 2 * path_n, 4 * path_n):
        quad = job("path", {"start": "-1/1", "target": target, "n": size}, "ok", QUADRATIC,
                   ladder=("farey", group, size))
        jobs.append(quad)
        jobs.append(job("cf-path", {"start": "-1/1", "target": target, "n": size}, "ok", "cf-stream",
                        twin_of=quad))
    if blocks_c:
        for size in (blocks_c, 2 * blocks_c, 4 * blocks_c):
            quad = job("blocks", {"start": "-1/1", "target": target, "count": size}, "ok", QUADRATIC,
                       ladder=("blocks", group, size))
            jobs.append(quad)
            jobs.append(job("cf-blocks", {"start": "-1/1", "target": target, "count": size}, "ok",
                            "cf-stream", twin_of=quad))


def deep(rng):
    jobs = []
    # (group, surd, path ladder n, blocks ladder count or 0, euler horizon,
    # with period-detecting compare and extend-check).  The surds are fixed,
    # one per decade of d, so that the seed moves the cost little; the seed
    # picks the d near 10^6 (whose first 4n vertices are -1, -2, ... for any
    # such d), the rational ladder and the sign data.
    surds = [(f"named-{i}", s, *NAMED_SIZES, True) for i, s in enumerate(NAMED_SURDS)]
    surds += [(f"decade-{i}", s, *DECADE_SIZES, False) for i, s in enumerate(DECADE_SURDS)]
    surds.append(("big-d", _big_surd(rng), *BIG_SURD_SIZES, False))
    for group, surd, path_n, blocks_c, horizon, periodic in surds:
        target = surd_doc(*surd)
        _ladder(rng, jobs, group, surd, path_n, blocks_c)
        jobs.append(job("euler", {"end": end_doc("-1/1", target, [], {"type": "alternating"}),
                                  "horizon": horizon}, "ok", QUADRATIC))
        for prefix, pattern in PERIODIC_SIGNS if periodic else ():
            a = end_doc("-1/1", target, list(prefix), {"type": "periodic", "pattern": list(pattern)})
            b = end_doc("-1/1", target, list(prefix), {"type": "periodic", "pattern": list(pattern[:2])})
            jobs.append(job("compare", {"a": a, "b": b}, "any", QUADRATIC))
            jobs.append(job("extend-check", {"end": a}, "ok", QUADRATIC))

    r = rng.randint(*RATIONAL_R)
    for size in (r, 2 * r, 4 * r):
        jobs.append(job("path", {"start": "-1/1", "target": rational_doc(-size, 1, True), "n": size + 1},
                        "ok", ATTAINED, ladder=("farey", "rational", size), vertices=size))
        jobs.append(job("blocks", {"start": "-1/1", "target": rational_doc(-size, 1, False), "count": 2},
                        "ok", NON_ATTAINED, ladder=("blocks", "rational", size)))
    jobs.append(job("euler", {"end": end_doc("-1/1", rational_doc(-r, 1, True), random_signs(rng, r - 1))},
                    "ok", ATTAINED, slices=r - 1))
    jobs.append(job("classify", {"end": end_doc("-1/1", rational_doc(-4 * r, 1, False), random_signs(rng, 8),
                                                {"type": "alternating"})}, "ok", NON_ATTAINED))
    return jobs


# ---------------------------------------------------------------------------
# family


def _family_targets(rng):
    targets = [surd_doc(*s) for s in FAMILY_SURDS]
    while len(targets) < len(FAMILY_SURDS) + FAMILY_RATIONAL_TARGETS:
        q = rng.randint(1, 5)
        p = rng.randint(q + 1, 12 * q)
        doc = rational_doc(-p, q, False)
        if gcd(p, q) == 1 and doc not in targets:
            targets.append(doc)
    return targets


def family(rng):
    jobs = []
    for t, target in enumerate(_family_targets(rng)):
        kind = QUADRATIC if target["kind"] == "quadratic" else NON_ATTAINED
        for k in FAMILY_K:
            jobs.append(job("family", {"target": target, "k": k}, "ok", kind))
        for _ in range(FAMILY_COMPARES_PER_TARGET):
            prefix = random_signs(rng, rng.randint(0, 12))
            variant = prefix[:]
            rng.shuffle(variant)
            tail = {"type": "alternating", "first": rng.choice("+-")} if kind == QUADRATIC else random_tail(rng)
            jobs.append(job("compare", {"a": end_doc("-1/1", target, prefix, tail),
                                        "b": end_doc("-1/1", target, variant, tail)}, "any", kind))
        for size in (32, 64, 128):
            jobs.append(job("path", {"start": "-1/1", "target": target, "n": size}, "ok", kind,
                            ladder=("farey", f"target-{t}", size)))
        if kind == QUADRATIC:
            for size in (8, 16, 32):
                jobs.append(job("blocks", {"start": "-1/1", "target": target, "count": size}, "ok", kind,
                                ladder=("blocks", f"target-{t}", size)))
    return jobs


def generate(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return finalize(rng, {"census": census, "deep": deep, "family": family}[workload](rng))
