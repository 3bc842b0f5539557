"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated budget."""

import json
import random
import time
from fractions import Fraction
from itertools import product


from toric_ends import (
    INFINITY,
    AllNegative,
    AllPositive,
    Alternating,
    AlternatingForm,
    EndDescription,
    EventuallySign,
    ExtendsByConstruction,
    FareyPath,
    NegFinite,
    NoTightExtension,
    Periodic,
    PosFinite,
    QuadraticTarget,
    RationalTarget,
    RotativeLayers,
    SignData,
    Slope,
    TorusRecord,
    classify,
    count_invariants,
    decompose,
    equivalent,
    euler_class,
    extension_obstruction,
    farey_sequence,
    invariant_from_signs,
    non_extendable_family,
    normalize_rotativity,
    parse_slope,
    solid_torus_factor,
)
from toric_ends.cli import parse_invariant_document, run_command
from toric_ends.reduce import OpenToricAnnulus

from oracles import (
    _surd_cmp_fraction,
    oracle_cw,
    oracle_farey_edge,
    oracle_next_toward,
    oracle_orbit_count,
    oracle_surd,
    oracle_witness_search,
    synthetic_path_vertices,
)

P, N = 1, -1
MINUS_SQRT2 = QuadraticTarget.of(0, -1, 1, 2)


def S(text):
    return parse_slope(text)


def _report(k, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {k} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"criterion {k}: PASS ({elapsed:.1f}s)")


SURDS = [
    QuadraticTarget.of(0, -1, 1, 2),    # -sqrt(2)
    QuadraticTarget.of(0, -1, 1, 3),    # -sqrt(3)
    QuadraticTarget.of(0, -1, 1, 5),
    QuadraticTarget.of(-1, -1, 2, 2),   # (-1 - sqrt(2))/2
    QuadraticTarget.of(1, -2, 3, 7),
    QuadraticTarget.of(0, 1, 2, 2),     # sqrt(2)/2
    QuadraticTarget.of(2, 1, 1, 11),
    QuadraticTarget.of(-3, 1, 4, 13),
    QuadraticTarget.of(0, -2, 3, 6),
    QuadraticTarget.of(5, -3, 2, 10),
]


def test_criterion_01_next_toward_matches_exhaustive_oracle():
    started = time.monotonic()
    rng = random.Random(20260808)
    pairs = []
    while len(pairs) < 200:
        cur = Slope(rng.randint(-25, 25), rng.randint(1, 12))
        kind = len(pairs) % 4
        if kind == 0:
            target = RationalTarget(Slope(rng.randint(-25, 25), rng.randint(1, 10)), True)
        elif kind == 1:
            target = RationalTarget(Slope(rng.randint(-25, 25), rng.randint(1, 10)), False)
        elif kind == 2:
            target = RationalTarget(INFINITY, rng.random() < 0.3)
        else:
            target = SURDS[len(pairs) % len(SURDS)]
        if target.rational and target.slope == cur:
            continue  # the path ends at once, or the target is degenerate
        answer = FareyPath(cur, target).vertex(1)
        if answer.q > 900:
            continue  # keep the true answer inside the oracle's denominator range
        pairs.append((cur, target, answer))
    assert len(pairs) == 200
    assert sum(1 for _, t, _ in pairs if isinstance(t, QuadraticTarget)) >= 40
    for cur, target, answer in pairs:
        assert oracle_next_toward(cur, target, max_den=1000) == answer
    _report(1, started, 60)


def _generated_paths():
    rng = random.Random(414243)
    paths = []
    while len(paths) < 50:
        k = len(paths) % 3
        if k == 0:
            target = RationalTarget(Slope(rng.randint(-40, 40), rng.randint(1, 12)), True)
        elif k == 1:
            q = rng.randint(0, 12)
            target = RationalTarget(Slope(rng.randint(-40, 40), q) if q else INFINITY, False)
        else:
            target = SURDS[len(paths) % len(SURDS)]
        if isinstance(target, RationalTarget) and target.slope == S("-1"):
            continue
        path = farey_sequence(S("-1"), target, 32)
        paths.append(path)
    return paths


def test_criterion_02_minimal_sequence_invariants():
    started = time.monotonic()
    for path in _generated_paths():
        vs = path.prefix(32)
        assert len(vs) >= 2
        for a, b in zip(vs, vs[1:]):
            assert oracle_farey_edge(a, b)
        for i in range(len(vs)):
            for j in range(i + 2, len(vs)):
                assert not oracle_farey_edge(vs[i], vs[j]), (vs[i], vs[j])
        for a, b, c in zip(vs, vs[1:], vs[2:]):
            assert oracle_cw(a, b, c)
        t = path.target
        if isinstance(t, RationalTarget) and not t.attained:
            assert all(v != t.slope for v in vs)
    _report(2, started, 10)


def test_criterion_03_block_witnesses_sound_and_maximal():
    started = time.monotonic()
    for path in _generated_paths():
        vs = path.prefix(32)
        decomp = decompose(path)
        i = 1
        while decomp.has_block(i):
            b = decomp.block(i)
            last = b.end_index if not b.infinite else len(vs) - 1
            if b.start_index >= len(vs) - 1 or last > len(vs) - 1:
                break
            run = list(vs[b.start_index:last + 1])
            for offset, v in enumerate(run):
                assert b.witness.apply(v) == Slope(-(offset + 1), 1)
            if not b.infinite:
                if b.end_index + 1 < len(vs):
                    assert oracle_witness_search(run + [vs[b.end_index + 1]], 50) is None
                if b.start_index > 0:
                    assert oracle_witness_search([vs[b.start_index - 1]] + run, 50) is None
            if b.infinite:
                break
            i += 1
    _report(3, started, 300)


def test_criterion_04_worked_sqrt2_instance():
    started = time.monotonic()
    path = farey_sequence(S("-1"), MINUS_SQRT2, 4)
    assert path.prefix(4) == (S("-1"), S("-4/3"), S("-7/5"), S("-24/17"))
    decomp = decompose(path)
    first = decomp.block(1)
    assert first.length == 3
    assert [path.vertex(i) for i in range(3)] == [S("-1"), S("-4/3"), S("-7/5")]
    assert first.witness.entries() == (1, 2, -2, -3)
    assert decomp.block(2).start_index == 2  # -24/17 opens the next block
    _report(4, started, 60)


def test_criterion_05_complete_invariant_at_desk_scale():
    started = time.monotonic()
    for k in range(1, 5):
        for lengths in product((2, 3, 4), repeat=k):
            vertices = synthetic_path_vertices(list(lengths))
            decomp = decompose(FareyPath.from_vertices(vertices))
            slices = [m - 1 for m in lengths]
            total = sum(slices)
            orbit_invariants = {}
            for bits in product((P, N), repeat=total):
                key, i = [], 0
                for w in slices:
                    key.append(sum(1 for s in bits[i:i + w] if s > 0))
                    i += w
                inv = invariant_from_signs(decomp, SignData(bits))
                orbit_invariants.setdefault(tuple(key), set()).add(inv.finite_f)
            assert all(len(v) == 1 for v in orbit_invariants.values())
            distinct = {next(iter(v)) for v in orbit_invariants.values()}
            expected = count_invariants(list(lengths))
            assert len(orbit_invariants) == len(distinct) == expected
            assert expected == oracle_orbit_count(list(lengths))
    _report(5, started, 120)


def test_criterion_06_infinite_block_normal_forms():
    started = time.monotonic()
    decomp = decompose(FareyPath(S("-1"), RationalTarget(INFINITY, False)))
    both_infinite_tails = [Alternating(P), Alternating(N)]
    for length in (2, 3, 4):
        for pattern in product((P, N), repeat=length):
            if len(set(pattern)) == 2:
                both_infinite_tails.append(Periodic(pattern))
    for tail in both_infinite_tails:
        inv = invariant_from_signs(decomp, SignData((), tail))
        assert inv.infinite_block == AlternatingForm(), tail
    for m in range(0, 9):
        inv = invariant_from_signs(decomp, SignData((), EventuallySign(N, m)))
        assert inv.infinite_block == PosFinite(m)
        inv = invariant_from_signs(decomp, SignData((P,) * m, AllNegative()))
        assert inv.infinite_block == PosFinite(m)
        inv = invariant_from_signs(decomp, SignData((), EventuallySign(P, m)))
        assert inv.infinite_block == NegFinite(m)
    _report(6, started, 60)


def test_criterion_07_extension_obstructions_and_families():
    started = time.monotonic()
    inf_na = RationalTarget(INFINITY, False)

    def classified(target, signs):
        return classify(EndDescription(TorusRecord(S("-1"), 1), target, signs))

    assert isinstance(
        extension_obstruction(classified(inf_na, SignData((), Alternating()))),
        NoTightExtension)
    for m in range(1, 5):
        for tail in (EventuallySign(N, m), EventuallySign(P, m)):
            assert isinstance(
                extension_obstruction(classified(inf_na, SignData((), tail))),
                NoTightExtension)
    assert isinstance(
        extension_obstruction(classified(MINUS_SQRT2, SignData((), Periodic((P, N))))),
        NoTightExtension)
    for tail in (AllPositive(), AllNegative()):
        assert isinstance(
            extension_obstruction(classified(inf_na, SignData((), tail))),
            ExtendsByConstruction)
        assert isinstance(
            extension_obstruction(classified(MINUS_SQRT2, SignData((), tail))),
            ExtendsByConstruction)

    for target in (inf_na, MINUS_SQRT2):
        family = non_extendable_family(target, 10)
        assert len(family) == 10
        for member in family:
            assert isinstance(extension_obstruction(member), NoTightExtension)
        for i in range(10):
            for j in range(i + 1, 10):
                assert not equivalent(family[i], family[j])
    _report(7, started, 30)


def test_criterion_08_euler_class_convention():
    started = time.monotonic()
    for slices in range(1, 6):
        decomp = decompose(FareyPath.from_vertices(synthetic_path_vertices([slices + 1])))
        for positives in range(slices + 1):
            values = set()
            for bits in product((P, N), repeat=slices):
                if sum(1 for s in bits if s > 0) == positives:
                    values.add(euler_class(decomp, SignData(bits)).as_pair())
            assert len(values) == 1
    two_blocks = decompose(FareyPath.from_vertices(synthetic_path_vertices([3, 3])))
    for bits in product((P, N), repeat=4):
        a = euler_class(two_blocks, SignData(bits))
        b = euler_class(two_blocks, SignData(tuple(-s for s in bits)))
        assert (b.x, b.y) == (-a.x, -a.y)
    moved_in = euler_class(two_blocks, SignData((N, P, N, N)))
    moved_out = euler_class(two_blocks, SignData((N, N, P, N)))
    assert moved_in != moved_out
    _report(8, started, 60)


def _one_over_n_oracle_scan(target, attained, limit=10 ** 6):
    """Best 1/n on the closed clockwise arc from -1 toward a target in
    (-2, -1): straight enumeration with exact integer comparisons."""
    best = None
    if isinstance(target, QuadraticTarget):
        surd = oracle_surd(target.value)

        def ge_target(p, q):  # 1/n = p/q >= target
            return _surd_cmp_fraction(*surd, Fraction(p, q)) <= 0
    else:
        tp, tq = target.slope.p, target.slope.q

        def ge_target(p, q):
            if attained:
                return p * tq >= tp * q
            return p * tq > tp * q
    for n in range(-limit, limit + 1):
        if n == 0:
            continue  # oo is never on an arc that stays below -1
        p, q = (1, n) if n > 0 else (-1, -n)
        # on the closed arc [target, -1]: need 1/n <= -1 and 1/n >= target
        if p * 1 > -1 * q:
            continue
        if not ge_target(p, q):
            continue
        if best is None or p * best[1] < best[0] * q:  # closer to the target side
            best = (p, q)
    return Slope(*best) if best else None


def test_criterion_09_reductions():
    started = time.monotonic()
    rng = random.Random(99)
    base = EndDescription(TorusRecord(S("-1"), 1), MINUS_SQRT2, SignData((), AllPositive()))
    reflected = EndDescription(TorusRecord(S("1"), 1), MINUS_SQRT2, SignData((), AllPositive()))
    for _ in range(100):
        sign = rng.choice((P, N))
        np_, nm = rng.randint(0, 8), rng.randint(0, 8)
        annulus = OpenToricAnnulus(
            base.__class__(base.boundary, base.target, base.signs, base.division_tail,
                           RotativeLayers(sign, np_)),
            base.__class__(reflected.boundary, reflected.target, reflected.signs,
                           reflected.division_tail, RotativeLayers(sign, nm)),
            TorusRecord(S("-1"), 1))
        norm = normalize_rotativity(annulus)
        assert norm.plus.rotative.n + norm.minus.rotative.n == np_ + nm
        assert normalize_rotativity(norm) == norm

    targets = [
        (MINUS_SQRT2, False),
        (QuadraticTarget.of(0, -1, 1, 3), False),        # -sqrt(3)
        (QuadraticTarget.of(-1, -1, 2, 2), False),       # (-1 - sqrt(2))/2
        (RationalTarget(S("-3/2"), True), True),
        (RationalTarget(S("-3/2"), False), False),
        (RationalTarget(S("-19/10"), True), True),
    ]
    for target, attained in targets:
        if isinstance(target, RationalTarget):
            signs = SignData((P,) * _slice_count(target)) if attained else SignData((), Alternating())
        else:
            signs = SignData((), AllPositive())
        e = EndDescription(TorusRecord(S("-1"), 1), target, signs)
        st = solid_torus_factor(e)
        assert st.realized_start == S("-1")
        assert _one_over_n_oracle_scan(target, attained) == S("-1")
    _report(9, started, 30)


def _slice_count(target):
    path = farey_sequence(S("-1"), target, 64)
    assert path.complete
    return len(path.prefix(64)) - 1


def _job_corpus():
    sqrt2_doc = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 2}
    sqrt3_doc = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 3}
    inf_doc = {"kind": "rational", "slope": "1/0", "attained": False}
    att3 = {"kind": "rational", "slope": "-3/1", "attained": True}
    att72 = {"kind": "rational", "slope": "-7/2", "attained": True}

    def e(target, prefix=(), tail=None, rotative=None):
        doc = {"boundary": {"slope": "-1/1", "div": 1}, "target": target,
               "signs": {"prefix": list(prefix), "tail": tail or {"type": "none"}}}
        if rotative:
            doc["rotative"] = rotative
        return doc

    alt = {"type": "alternating"}
    jobs = [
        ("path", {"start": "-1/1", "target": sqrt2_doc, "n": 4}),
        ("path", {"start": "-1/1", "target": inf_doc, "n": 6}),
        ("path", {"start": "-1/1", "target": att3, "n": 10}),
        ("blocks", {"start": "-1/1", "target": sqrt2_doc, "count": 3}),
        ("blocks", {"start": "-1/1", "target": {"kind": "rational", "slope": "-5/2", "attained": False}, "count": 4}),
        ("blocks", {"start": "-1/1", "target": att72, "count": 4}),
        ("classify", {"end": e(inf_doc, tail=alt)}),
        ("classify", {"end": e(att3, prefix=["+", "+"])}),
        ("classify", {"end": e(sqrt2_doc, tail={"type": "periodic", "pattern": ["+", "-"]})}),
        ("classify", {"end": e(sqrt2_doc, tail={"type": "all-positive"}, rotative={"n": 2, "sign": "+"})}),
        ("compare", {"a": e(inf_doc, tail=alt), "b": e(inf_doc, prefix=["+", "-"], tail=alt)}),
        ("compare", {"a": e(inf_doc, tail={"type": "eventually", "sign": "-", "after": 2}),
                     "b": e(inf_doc, tail={"type": "eventually", "sign": "+", "after": 2})}),
        ("compare", {"a": e(att3, prefix=["+", "-"]), "b": e(att3, prefix=["-", "+"])}),
        ("count", {"lengths": [3, 2]}),
        ("count", {"lengths": [4, 4, 4]}),
        ("count", {"lengths": [1, 5]}),
        ("euler", {"end": e({"kind": "rational", "slope": "-2/1", "attained": True}, prefix=["+"])}),
        ("euler", {"end": e(att3, prefix=["+", "-"])}),
        ("euler", {"end": e(sqrt2_doc, tail=alt), "horizon": 8}),
        ("extend-check", {"end": e(inf_doc, tail=alt)}),
        ("extend-check", {"end": e(inf_doc, tail={"type": "all-negative"})}),
        ("extend-check", {"end": e(sqrt2_doc, tail={"type": "periodic", "pattern": ["+", "-"]})}),
        ("family", {"target": inf_doc, "k": 5}),
        ("family", {"target": sqrt2_doc, "k": 4}),
        ("family", {"target": sqrt3_doc, "k": 3}),
        ("reduce-solid-torus", {"end": e(sqrt2_doc, tail={"type": "all-positive"})}),
        ("reduce-solid-torus", {"end": e({"kind": "rational", "slope": "-5/2", "attained": True}, prefix=["+", "+"])}),
        ("reduce-solid-torus", {"end": e({"kind": "rational", "slope": "0/1", "attained": False}, tail=alt)}),
        ("reduce-t2xr", {
            "plus": e(sqrt2_doc, tail={"type": "all-positive"}, rotative={"n": 1, "sign": "+"}),
            "minus": {"boundary": {"slope": "1/1", "div": 1}, "target": sqrt2_doc,
                      "signs": {"prefix": [], "tail": {"type": "all-positive"}},
                      "rotative": {"n": 2, "sign": "+"}},
            "middle": {"slope": "-1/1", "div": 1}}),
        ("reduce-t2xr", {
            "plus": e(sqrt2_doc, tail=alt),
            "minus": {"boundary": {"slope": "1/1", "div": 1}, "target": sqrt2_doc,
                      "signs": {"prefix": [], "tail": alt}},
            "middle": {"slope": "-1/1", "div": 1}}),
    ]
    assert len(jobs) == 30
    assert {cmd for cmd, _ in jobs} == set(
        ("path", "blocks", "classify", "compare", "count", "euler",
         "extend-check", "family", "reduce-solid-torus", "reduce-t2xr"))
    return jobs


def test_criterion_10_cli_determinism_and_round_trip():
    started = time.monotonic()
    first_pass = []
    for cmd, doc in _job_corpus():
        out = run_command(cmd, doc)
        rendered = json.dumps(out, sort_keys=True, separators=(",", ":"))
        first_pass.append(rendered)
        if cmd == "classify":
            parse_invariant_document(json.loads(rendered))
        if cmd == "family":
            for inv_doc in out["invariants"]:
                parse_invariant_document(inv_doc)
    for (cmd, doc), before in zip(_job_corpus(), first_pass):
        out = run_command(cmd, doc)
        assert json.dumps(out, sort_keys=True, separators=(",", ":")) == before
    _report(10, started, 10)
