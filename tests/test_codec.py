"""The CLI document tables: pinned batch output, round trips, exact messages."""

import hashlib
import importlib.util
import io
import json
import sys
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_ends.cli import END, TARGET, invariant_doc, main, parse_invariant_document
from toric_ends.ends import InfiniteDivision, NestedAnnuli, NonMinimallyTwisting
from toric_ends.errors import SchemaError
from toric_ends.farey import GL2Z, QuadraticTarget, RationalTarget, Slope
from toric_ends.invariants import (
    AlternatingForm,
    AttainedInvariant,
    BothFinite,
    InvariantContext,
    IrrationalInvariant,
    NegFinite,
    PosFinite,
    RationalNonAttainedInvariant,
    SaturatedCounts,
    ZeroCounts,
    _normalize_count_tail,
)

from oracles import reference_mobius, reference_written
from test_cf_targets import GL2Z_WORDS

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# pinned `run` output

# sha256 of the stdout of `toric-ends run` over each perfbench batch, and its
# exit status, as the hand-written codec answered before the tables
RUN_DIGESTS = {
    ("census", 1): ("4e073b54f99a640e3e325684699145b09fe07f9b88baa8cce3756dbab8ac8353", 1),
    ("census", 2): ("fb1bd5456cc59f7a6949bf24c713157373e0bc86b8d4736f41e02c6f1ce84b0f", 1),
    ("census", 3): ("117e8a0c195be43b835ed08f9507bf0012b73065c66491263b07e1ce06c9eb80", 1),
    ("family", 1): ("46da41a8ed08f96a8628df5ec0e71fb8c6a17f9d4dd779c14d2d5cfb5fa1937e", 0),
    ("family", 2): ("980f7963a0bcaf9ec6892663b74f90b28929f8b898f7dc5e7a32684c2ceaa517", 0),
    ("family", 3): ("1b62945fcf52b835e034b2aee4770ea10367acae0024ea404f3ade825cdd61a0", 0),
    ("deep", 1): ("6c47b1c75ab4d63c33be9867e404796c3cbe9ff62ac3e41b97ce4725175e490d", 2),
    ("deep", 2): ("bb56a4efd570a108c6002a70e565bab480733b517777beabfa8feb47da774bdf", 2),
    ("deep", 3): ("c95057cbfe58fde2b477e5d7710163b3afbea5b06bf99e5cd83f06a836c51e6c", 2),
}


@pytest.mark.parametrize("workload,seed", list(RUN_DIGESTS), ids=[f"{w}-{s}" for w, s in RUN_DIGESTS])
def test_run_output_is_pinned(workload, seed, monkeypatch, capsys):
    # the batch holds every job, the coefficient-stream twins too: the CLI
    # answers them as unknown commands
    batch = [{"command": j["command"], "input": j["input"]}
             for j in perfbench_workloads().generate(workload, seed)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(batch)))
    status = main(["run"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, status) == RUN_DIGESTS[workload, seed]


# ---------------------------------------------------------------------------
# round trips

SIGN = st.sampled_from("+-")


@st.composite
def slope_texts(draw):
    p, q = draw(st.integers(-40, 40)), draw(st.integers(0, 40))
    if q == 0 or p == 0:
        return "1/0" if q == 0 else "0/1"
    g = gcd(p, q)
    return f"{p // g}/{q // g}"


@st.composite
def quadratic_docs(draw):
    a, b, c = draw(st.integers(-9, 9)), draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9))
    g = gcd(gcd(a, b), c)
    d = draw(st.sampled_from((2, 3, 5, 6, 7, 10, 13, 421)))
    return {"kind": "quadratic", "a": a // g, "b": b // g, "c": c // g, "d": d}


TARGETS = st.one_of(
    st.builds(lambda s, attained: {"kind": "rational", "slope": s, "attained": attained}, slope_texts(), st.booleans()),
    quadratic_docs(),
)
SIGN_TAILS = st.one_of(
    st.sampled_from(({"type": "none"}, {"type": "all-positive"}, {"type": "all-negative"})),
    st.builds(lambda s, n: {"type": "eventually", "sign": s, "after": n}, SIGN, st.integers(0, 9)),
    st.builds(lambda s: {"type": "alternating", "first": s}, SIGN),
    st.builds(lambda p: {"type": "periodic", "pattern": p}, st.lists(SIGN, min_size=1, max_size=5)),
)


def eventually_constant(after, value, prefix):
    doc = {"type": "eventually-constant", "after": after, "value": value}
    if prefix:  # an empty prefix is left out
        doc["prefix"] = prefix
    return doc


DIVISION_TAILS = st.one_of(
    st.builds(lambda v: {"type": "constant", "value": v}, st.integers(1, 9)),
    st.builds(eventually_constant, st.integers(0, 9), st.integers(1, 9), st.lists(st.integers(1, 9), max_size=3)),
    st.just({"type": "strictly-increasing"}),
)
ROTATIVE = st.one_of(
    # zero layers carry no sign and are written with "+"
    st.builds(lambda n, s: {"n": n, "sign": s if n else "+"}, st.integers(0, 10 ** 15), SIGN),
    st.builds(lambda s: {"infinite": True, "sign": s}, SIGN),
)
END_DOCS = st.fixed_dictionaries({
    "boundary": st.fixed_dictionaries({"slope": slope_texts(), "div": st.integers(1, 5)}),
    "target": TARGETS,
    "signs": st.fixed_dictionaries({"prefix": st.lists(SIGN, max_size=6), "tail": SIGN_TAILS}),
    "division_tail": DIVISION_TAILS,
    "rotative": ROTATIVE,
})


@settings(max_examples=300, deadline=None)
@given(END_DOCS)
def test_end_documents_round_trip(doc):
    assert END.encode(END.decode(doc, "end")) == doc


# written quadratic targets against the reference normalization: square
# factors in d, negative c and common factors of (a, b, c), then images
# under GL2(Z) words
SURD_INPUTS = st.tuples(
    st.integers(-60, 60), st.integers(-12, 12).filter(bool), st.integers(-12, 12).filter(bool),
    st.one_of(st.integers(2, 10 ** 4),
              st.tuples(st.integers(2, 20), st.integers(2, 25)).map(lambda t: t[0] ** 2 * t[1]))
    .filter(lambda d: isqrt(d) ** 2 != d),
    st.integers(1, 6),
).map(lambda t: (t[0] * t[4], t[1] * t[4], t[2] * t[4], t[3]))


def written(surd):
    a, b, c, d = surd
    return {"kind": "quadratic", "a": a, "b": b, "c": c, "d": d}, f"({a} + {b}*sqrt({d}))/{c}"


@settings(max_examples=300, deadline=None)
@example((2, 2, -2, 12), GL2Z(0, 1, 1, 0))
@example((-4, 6, 2, 72), GL2Z(2, 1, 1, 1))
@example((3, 1, 3, 18), GL2Z(1, 0, 0, 1))  # the content 9 of the form does not divide 2bc = 6
@given(SURD_INPUTS, GL2Z_WORDS)
def test_written_targets_match_the_reference_normalization(surd, m):
    target = QuadraticTarget.of(*surd)
    expected = reference_written(*surd)
    assert (TARGET.encode(target), str(target)) == written(expected)
    image = target.transform(m)
    assert (TARGET.encode(image), str(image)) == written(reference_mobius(expected, m))
    assert TARGET.decode(TARGET.encode(image), "target") == image


def context(attained=False):
    return InvariantContext(Slope(-1, 1), 1, RationalTarget(Slope(-3, 1), attained), None)


COUNTS = st.lists(st.integers(0, 9), max_size=5).map(tuple)
SIGNS = st.lists(st.sampled_from((1, -1)), min_size=1, max_size=5).map(tuple)
MINIMAL = st.one_of(
    st.builds(lambda f, d: AttainedInvariant(f, d, context(True)), COUNTS, st.integers(1, 9)),
    st.builds(lambda f, form: RationalNonAttainedInvariant(f, form, context()), COUNTS, st.one_of(
        st.builds(PosFinite, st.integers(0, 9)), st.builds(NegFinite, st.integers(0, 9)),
        st.just(AlternatingForm()), st.builds(BothFinite, st.integers(0, 9), st.integers(0, 9)))),
    # a pattern tail as the library makes one: primitive and mixed
    st.builds(lambda f, tail: IrrationalInvariant(f, tail, context()), COUNTS, st.one_of(
        st.just(SaturatedCounts()), st.just(ZeroCounts()), st.builds(_normalize_count_tail, SIGNS, st.integers(-9, 9)))),
)
INVARIANTS = st.one_of(
    MINIMAL,
    st.builds(lambda n, s, residual: NonMinimallyTwisting(n, s, residual, context()),
              st.one_of(st.none(), st.integers(1, 10 ** 15)), st.sampled_from((1, -1)), st.one_of(st.none(), MINIMAL)),
    st.builds(lambda a, b: InfiniteDivision(NestedAnnuli(a, b), context()), st.integers(-9, 9), st.integers(-9, 9)),
)


@settings(max_examples=300, deadline=None)
@given(INVARIANTS)
def test_every_invariant_document_passes_its_check(inv):
    doc = invariant_doc(inv)
    assert parse_invariant_document(doc) is doc
    assert json.loads(json.dumps(doc)) == doc


# ---------------------------------------------------------------------------
# exact messages of one-fault documents

# The well-formed documents that the corpus in data/malformed_documents.json
# breaks one field at a time.  Each case names a base document, the path to
# the object or list it changes, and the key or index it drops (no "value")
# or sets; "error" is the message, captured from the hand-written codec.  A
# case whose document that codec accepted or crashed on, or answered with
# another message, keeps that outcome under "was".
SQRT2 = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 2}
ATTAINED = {"kind": "rational", "slope": "-3/1", "attained": True}
INFINITY = {"kind": "rational", "slope": "1/0", "attained": False}


def base_end(target, prefix, tail=None, **extra):
    signs = {"prefix": list(prefix)}
    if tail is not None:
        signs["tail"] = tail
    return {"boundary": {"slope": "-1/1", "div": 1}, "target": target, "signs": signs, **extra}


BASES = {
    "end": [
        base_end(ATTAINED, "+-", division_tail={"type": "constant", "value": 2}),
        base_end(ATTAINED, "+-", division_tail={"type": "eventually-constant", "after": 1, "value": 2, "prefix": [3]}),
        base_end(ATTAINED, "", division_tail={"type": "strictly-increasing"}),
        base_end(INFINITY, "+", {"type": "eventually", "sign": "-", "after": 2}, rotative={"sign": "+", "n": 2}),
        base_end(SQRT2, "", {"type": "periodic", "pattern": ["+", "-"]}, rotative={"sign": "-", "infinite": True}),
        base_end(SQRT2, "-", {"type": "alternating", "first": "-"}),
        base_end(SQRT2, "", {"type": "all-positive"}),
        base_end(SQRT2, "", {"type": "all-negative"}),
        base_end(ATTAINED, "++", {"type": "none"}),
        {"boundary": {"slope": "-1/1"}, "target": SQRT2},
    ],
    "invariant": [
        {"kind": "attained", "f": [1, 0], "d": 2},
        {"kind": "rational", "f": [0], "infinite": {"form": "pos", "m": 2}},
        {"kind": "rational", "f": [], "infinite": {"form": "neg", "m": 0}},
        {"kind": "rational", "f": [], "infinite": {"form": "alt"}},
        {"kind": "rational", "f": [], "infinite": {"form": "both", "p": 1, "n": 2}},
        {"kind": "irrational", "f": [1], "tail": {"type": "saturated"}},
        {"kind": "irrational", "f": [], "tail": {"type": "zero"}},
        {"kind": "irrational", "f": [], "tail": {"type": "pattern", "pattern": ["+", "-"], "anchor": 3}},
        {"kind": "nonminimal", "rotativity": 2, "sign": "+", "residual": {"kind": "attained", "f": [], "d": 1}},
        {"kind": "nonminimal", "rotativity": "inf", "sign": "-", "residual": None},
        {"kind": "infinite-division", "annuli": {"tb_start": -1, "tb_step": 1}},
    ],
}
PARSERS = {"end": lambda doc: END.decode(doc, "end"), "invariant": parse_invariant_document}


def broken(case):
    doc = json.loads(json.dumps(BASES[case["doc"]][case["base"]]))
    node = doc
    for step in case["path"]:
        node = node[step]
    if "value" in case:
        node[case["key"]] = case["value"]
    else:
        del node[case["key"]]
    return doc


CASES = json.loads((DATA / "malformed_documents.json").read_text())


def test_corpus_bases_are_well_formed():
    for kind, bases in BASES.items():
        for doc in bases:
            PARSERS[kind](doc)


def test_malformed_documents_keep_their_messages():
    wrong = []
    for case in CASES:
        try:
            PARSERS[case["doc"]](broken(case))
            got = "accepted"
        except SchemaError as exc:
            got = str(exc)
        if got != case["error"]:
            wrong.append((case, got))
    assert not wrong, wrong[:5]
