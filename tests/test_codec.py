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

from toric_ends import cli
from toric_ends.cli import COMMANDS, END, TARGET, invariant_doc, main, parse_invariant_document, run_command
from toric_ends.blocks import decompose
from toric_ends.ends import (
    ConstantDivision,
    EndDescription,
    EventuallyConstantDivision,
    InfiniteDivision,
    InfiniteRotativity,
    NestedAnnuli,
    NonMinimallyTwisting,
    RotativeLayers,
    StrictlyIncreasingDivision,
    TorusRecord,
)
from toric_ends.errors import SchemaError
from toric_ends.farey import GL2Z, FareyPath, QuadraticTarget, RationalTarget, Slope
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
    ("census", 1): ("6aba9fe27dafbbbabba698bea1d538554f82b9a7c7a3a6eeb26c197c2e307bdc", 1),
    ("census", 2): ("6cd4d0d203235895f61a43795796fb12ad7460315df4ec54ab1e8f899e4703ba", 1),
    ("census", 3): ("978ed323d9dff01657656ff8d7ac59740785980bed9062a7538760b0b88ae71e", 1),
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
    target = RationalTarget(Slope(-3, 1), attained)
    return InvariantContext(Slope(-1, 1), 1, target, decompose(FareyPath(Slope(-1, 1), target)))


COUNTS = st.lists(st.integers(0, 9), max_size=5).map(tuple)
SIGNS = st.lists(st.sampled_from((1, -1)), min_size=1, max_size=5).map(tuple)
INFINITE_FORMS = st.one_of(
    st.builds(PosFinite, st.integers(0, 9)), st.builds(NegFinite, st.integers(0, 9)),
    st.just(AlternatingForm()), st.builds(BothFinite, st.integers(0, 9), st.integers(0, 9)))
# a pattern tail as the library makes one: primitive and mixed
COUNT_TAILS = st.one_of(
    st.just(SaturatedCounts()), st.just(ZeroCounts()), st.builds(_normalize_count_tail, SIGNS, st.integers(-9, 9)))
MINIMAL = st.one_of(
    st.builds(lambda f, d: AttainedInvariant(f, d, context(True)), COUNTS, st.integers(1, 9)),
    st.builds(lambda f, form: RationalNonAttainedInvariant(f, form, context()), COUNTS, INFINITE_FORMS),
    st.builds(lambda f, tail: IrrationalInvariant(f, tail, context()), COUNTS, COUNT_TAILS),
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
# another message, keeps that outcome under "was".  A command's base is its
# input, run through run_command; its cases' "was" is the answer of the
# hand-written input checks that the command tables replaced.
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
POSITIVE_END = base_end(SQRT2, "", {"type": "all-positive"})
BASES.update({
    "path": [{"n": 4, "start": "-1/1", "target": SQRT2}],
    "blocks": [{"count": 2, "start": "-1/1", "target": SQRT2}],
    "classify": [{"end": POSITIVE_END}],
    "compare": [{"a": POSITIVE_END, "b": base_end(SQRT2, "", {"type": "alternating"})}],
    "count": [{"lengths": [3, 2]}],
    "euler": [{"horizon": 8, "end": POSITIVE_END}],
    "extend-check": [{"end": POSITIVE_END}],
    "family": [{"k": 2, "start": "-1/1", "target": INFINITY}],
    "reduce-solid-torus": [{"end": POSITIVE_END}],
    "reduce-t2xr": [{"middle": {"slope": "-1/1", "div": 1},
                     "plus": dict(POSITIVE_END, rotative={"n": 1, "sign": "+"}),
                     "minus": dict(POSITIVE_END, boundary={"slope": "1/1", "div": 1})}],
})
PARSERS = {"end": lambda doc: END.decode(doc, "end"), "invariant": parse_invariant_document,
           **{name: lambda doc, name=name: run_command(name, doc)
              for name in COMMANDS}}


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


def test_a_tagged_document_checks_its_keys_once(monkeypatch):
    calls = []
    check = cli._check_keys
    monkeypatch.setattr(cli, "_check_keys", lambda *args: calls.append(args[-1]) or check(*args))
    TARGET.decode(SQRT2, "target")
    assert calls == ["target"]


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


# ---------------------------------------------------------------------------
# the compiled text writers against json.dumps of the compiled documents


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


SIGN_VALUES = st.sampled_from((1, -1))
SLOPE_VALUES = st.tuples(st.integers(-10 ** 20, 10 ** 20), st.integers(0, 50)).filter(any).map(lambda pq: Slope(*pq))
TARGETS = st.one_of(st.builds(RationalTarget, SLOPE_VALUES, st.booleans()),
                    SURD_INPUTS.map(lambda surd: QuadraticTarget.of(*surd)))
SIGN_TAILS = st.one_of(
    st.none(), st.just(AllPositive()), st.just(AllNegative()),
    st.builds(EventuallySign, SIGN_VALUES, st.integers(0, 10 ** 20)), st.builds(Alternating, SIGN_VALUES),
    st.builds(Periodic, st.lists(SIGN_VALUES, min_size=1, max_size=4).map(tuple)))
SIGN_DATA = st.builds(SignData, st.lists(SIGN_VALUES, max_size=6).map(tuple), SIGN_TAILS)
DIVISION_TAILS = st.one_of(
    st.builds(ConstantDivision, st.integers(1, 9)), st.just(StrictlyIncreasingDivision()),
    st.builds(EventuallyConstantDivision, st.integers(0, 9), st.integers(1, 9),
              st.lists(st.integers(1, 9), max_size=3).map(tuple)))
TORI = st.builds(TorusRecord, SLOPE_VALUES, st.integers(1, 9))
ROTATIVE = st.one_of(st.builds(RotativeLayers, SIGN_VALUES, st.integers(0, 9)), st.builds(InfiniteRotativity, SIGN_VALUES))
ENDS = st.builds(EndDescription, TORI, TARGETS, SIGN_DATA, DIVISION_TAILS, ROTATIVE)
# the blocks of a path, the infinite block of a rational non-attained target among them
SMALL_SLOPES = st.tuples(st.integers(-99, 99), st.integers(0, 20)).filter(any).map(lambda pq: Slope(*pq))
BLOCKS = st.builds(
    lambda path, n: list(decompose(path).blocks_up_to(n)),
    st.one_of(st.builds(lambda ends, attained: FareyPath(ends[0], RationalTarget(ends[1], attained)),
                        st.tuples(SMALL_SLOPES, SMALL_SLOPES).filter(lambda ends: ends[0] != ends[1]), st.booleans()),
              st.builds(lambda start, surd: FareyPath(start, QuadraticTarget.of(*surd)), SMALL_SLOPES, SURD_INPUTS)),
    st.integers(1, 6))

# records of every document kind that has a written form: those a document
# holds, and the ends, invariants and blocks of answers
DOCUMENTS = {
    "TARGET": TARGETS, "SIGN_TAIL": SIGN_TAILS, "SIGN_DATA": SIGN_DATA, "DIVISION_TAIL": DIVISION_TAILS,
    "TORUS": TORI, "ROTATIVE": ROTATIVE, "END": ENDS, "INVARIANT": INVARIANTS,
    "COUNT_TAIL": COUNT_TAILS, "INFINITE_BLOCK": INFINITE_FORMS,
    "ANNULI": st.builds(NestedAnnuli, st.integers(-10 ** 20, 10 ** 20), st.integers(-9, 9)),
    "BLOCK": BLOCKS.map(lambda blocks: blocks[-1] if blocks else None),
}


def test_every_written_document_kind_has_records():
    # the decode-only table (a batch job) and the error answer are left out
    tables = {name for name, value in vars(cli).items() if isinstance(value, cli.Document)}
    assert tables - DOCUMENTS.keys() == {"JOB", "ERROR"}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_writer_writes_each_record_as_json_dumps(data):
    for name, records in DOCUMENTS.items():
        table, record = getattr(cli, name), data.draw(records, label=name)
        if record is not None or table is cli.SIGN_TAIL:  # a path may have no block
            assert table.write(record) == dumps(table.encode(record)), name


def family_context():
    target = QuadraticTarget.of(0, -1, 1, 3)
    return InvariantContext(Slope(-1, 1), 1, target, decompose(FareyPath(Slope(-1, 1), target)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_run_of_records_sharing_fields_writes_as_its_documents(data):
    # as in a family: members that share their count tail or their finite
    # counts, among records of other classes
    counts = data.draw(st.lists(COUNTS, min_size=1, max_size=3))
    tails = data.draw(st.lists(COUNT_TAILS, min_size=1, max_size=2))
    context = family_context()
    member = st.one_of(
        st.builds(lambda f, tail: IrrationalInvariant(f, tail, context), st.sampled_from(counts), st.sampled_from(tails)),
        st.builds(lambda f, m: RationalNonAttainedInvariant(f, PosFinite(m), context), st.sampled_from(counts),
                  st.integers(0, 3)),
        INVARIANTS)
    records = data.draw(st.lists(member, max_size=12))
    text = cli.INVARIANT.write_list(records)
    assert text == dumps(cli.INVARIANT.encode_list(records)) == dumps([invariant_doc(r) for r in records])
    blocks = data.draw(BLOCKS)
    assert cli.BLOCK.write_list(blocks) == dumps(cli.BLOCK.encode_list(blocks))


@pytest.mark.parametrize("command", COMMANDS)
def test_each_answer_writes_as_json_dumps(command):
    for doc in BASES[command]:
        table, record = cli._run_job(command, doc)
        assert table.write(record) == dumps(table.encode(record)) == dumps(run_command(command, doc))


@settings(max_examples=100, deadline=None)
@given(st.text(), st.one_of(st.none(), st.sampled_from(("malformed", "violation"))),
       st.one_of(st.none(), st.lists(st.text(), max_size=3)))
def test_error_answers_write_as_json_dumps(error, status, violations):
    answer = {"error": error, "status": status, "violations": violations}
    expected = {key: value for key, value in answer.items() if value is not None}
    assert cli.ERROR.write(answer) == dumps(cli.ERROR.encode(answer)) == dumps(expected)
