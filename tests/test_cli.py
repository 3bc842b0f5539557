import functools
import io
import json
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from toric_ends import GL2Z, FareyPath, QuadraticTarget, Slope, classify, decompose
from toric_ends import blocks as blocks_mod
from toric_ends import cli
from toric_ends import ends as ends_mod
from toric_ends import farey
from toric_ends import reduce as reduce_mod
from toric_ends.cli import (
    DEFAULT_MAX_FAMILY,
    DIGITS_BUDGET,
    END,
    TARGET,
    WRITE_BLOCK,
    _render_human,
    main,
    parse_invariant_document,
    run_command,
)
from toric_ends.errors import SchemaError, ToricEndError

from oracles import reference_path, reference_render_human
from test_codec import perfbench_workloads

SQRT2 = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 2}
INF_NA = {"kind": "rational", "slope": "1/0", "attained": False}


def end_doc(target, prefix=(), tail=None, **extra):
    signs = {"prefix": list(prefix)}
    if tail is not None:
        signs["tail"] = tail
    doc = {"boundary": {"slope": "-1/1", "div": 1}, "target": target, "signs": signs}
    doc.update(extra)
    return doc


def invoke(command, doc, *args):
    return invoke_text(command, json.dumps(doc), *args)


def invoke_text(command, text, *args):
    stdin = sys.stdin
    stdout = sys.stdout
    sys.stdin = io.StringIO(text)
    sys.stdout = io.StringIO()
    try:
        code = main([command, *args])
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin = stdin
        sys.stdout = stdout


def test_path_command():
    code, out = invoke("path", {"start": "-1/1", "target": SQRT2, "n": 4})
    assert code == 0
    assert json.loads(out) == {"vertices": ["-1/1", "-4/3", "-7/5", "-24/17"]}


def test_blocks_command():
    code, out = invoke("blocks", {"start": "-1/1", "target": SQRT2, "count": 2})
    assert code == 0
    doc = json.loads(out)
    assert doc["blocks"][0] == {
        "start": 0, "end": 2, "length": 3, "witness": [1, 2, -2, -3], "infinite": False}


def test_classify_command_round_trips():
    code, out = invoke("classify", {"end": end_doc(INF_NA, tail={"type": "alternating"})})
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "rational", "f": [], "infinite": {"form": "alt"}}
    parse_invariant_document(doc)


def test_compare_command():
    a = end_doc(INF_NA, tail={"type": "alternating"})
    b = end_doc(INF_NA, prefix=["+", "-"], tail={"type": "alternating", "first": "+"})
    code, out = invoke("compare", {"a": a, "b": b})
    assert code == 0
    assert json.loads(out) == {"equivalent": True}


def count_decompositions(monkeypatch) -> list:
    """The paths decomposed from now on, wherever the call is made from."""
    calls = []
    for owner in (blocks_mod, ends_mod):
        real = owner.decompose
        monkeypatch.setattr(owner, "decompose", lambda path, real=real: calls.append(path) or real(path))
    return calls


SQRT3 = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 3}
TO_100_7 = {"kind": "rational", "slope": "-100/7", "attained": True}


@pytest.mark.parametrize("a,b,equivalent", [
    (end_doc(SQRT3, ["+"] * 8, {"type": "alternating"}),
     end_doc(SQRT3, ["+"] * 8, {"type": "periodic", "pattern": ["-", "+"]}), True),
    (end_doc(SQRT3, ["+"] * 8, {"type": "alternating"}, rotative={"sign": "+", "n": 2}),
     end_doc(SQRT3, ["+"] * 9, {"type": "alternating", "first": "-"}, rotative={"sign": "+", "n": 2}), True),
    (end_doc(TO_100_7, ["+"] * 15), end_doc(TO_100_7, ["+"] * 15, rotative={"sign": "-", "n": 1}), False),
], ids=["sqrt3", "sqrt3-rotative", "attained-rotative"])
def test_compare_decomposes_a_shared_target_once(monkeypatch, a, b, equivalent):
    # the second end, and a residual end under rotative layers, is
    # classified on the decomposition of the first
    calls = count_decompositions(monkeypatch)
    assert invoke("compare", {"a": a, "b": b}) == (0, f'{{"equivalent":{json.dumps(equivalent)}}}\n')
    assert len(calls) == 1


def test_compare_validates_each_end_on_its_own_target(monkeypatch):
    # -2 has 1 slice and -100/7 has 15: ends toward the two are validated on
    # two decompositions, and then they are incomparable
    calls = count_decompositions(monkeypatch)
    a = end_doc(TO_100_7, ["+"] * 15)
    b = end_doc({"kind": "rational", "slope": "-2/1", "attained": True}, ["+"])
    code, out = invoke("compare", {"a": a, "b": b})
    assert code == 1 and json.loads(out)["error"].startswith("invariants classify different boundary data")
    assert len(calls) == 2


def test_compare_names_the_first_violation_before_sharing():
    # an invalid second end toward the first's target is refused by its
    # own validation, and an invalid first end before the second is read
    good = end_doc(TO_100_7, ["+"] * 15)
    short = end_doc(TO_100_7, ["+"] * 14)
    for a, b in ((good, short), (short, good)):
        code, out = invoke("compare", {"a": a, "b": b})
        assert code == 1
        assert json.loads(out) == {"error": "sign coverage mismatch: prefix has 14 signs, path has 15 basic slices",
                                   "violations": ["sign coverage mismatch: prefix has 14 signs, path has 15 basic slices"]}


def count_ends_calls(monkeypatch, name) -> list:
    """The calls of toric_ends.ends.<name> from now on."""
    calls = []
    real = getattr(ends_mod, name)
    monkeypatch.setattr(ends_mod, name, lambda *args, real=real: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("command,doc", [
    ("classify", {"end": end_doc(TO_100_7, ["+"] * 15)}),
    ("classify", {"end": end_doc(SQRT3, ["+"] * 8, {"type": "alternating"})}),
    ("classify", {"end": end_doc(SQRT3, ["+"] * 8, {"type": "alternating"}, rotative={"sign": "+", "n": 2})}),
    ("classify", {"end": end_doc(TO_100_7, ["+"] * 15, rotative={"sign": "-", "n": 1})}),
    ("euler", {"end": end_doc(TO_100_7, ["+"] * 15)}),
], ids=["attained", "sqrt3", "sqrt3-rotative", "attained-rotative", "euler-attained"])
def test_an_end_is_normalized_and_validated_once(monkeypatch, command, doc):
    # the slice count and a residual end under rotative layers are read off
    # the one decomposition that validation was given
    normalized = count_ends_calls(monkeypatch, "normalized_target")
    validated = count_ends_calls(monkeypatch, "validate")
    decompositions = count_decompositions(monkeypatch)
    code, _ = invoke(command, doc)
    assert code == 0
    assert len(normalized) == len(validated) == len(decompositions) == 1


@pytest.mark.parametrize("target,prefix,tail", [(SQRT3, ["+"] * 8, {"type": "alternating"}),
                                                (TO_100_7, ["+"] * 15, None)], ids=["sqrt3", "attained"])
def test_compare_normalizes_each_end_once(monkeypatch, target, prefix, tail):
    normalized = count_ends_calls(monkeypatch, "normalized_target")
    decompositions = count_decompositions(monkeypatch)
    a = end_doc(target, prefix, tail)
    b = end_doc(target, prefix, tail, rotative={"sign": "+", "n": 1})
    assert invoke("compare", {"a": a, "b": b}) == (0, '{"equivalent":false}\n')
    assert len(normalized) == 2 and len(decompositions) == 1


COLLAR = end_doc({"kind": "rational", "slope": "-1/1", "attained": True})


@pytest.mark.parametrize("command,doc,answer", [
    ("path", {"start": "-1/1", "target": COLLAR["target"], "n": 3}, '{"vertices":["-1/1"]}'),
    ("blocks", {"start": "-1/1", "target": COLLAR["target"]}, '{"blocks":[],"complete":true}'),
    ("classify", {"end": COLLAR}, '{"d":1,"f":[],"kind":"attained"}'),
    ("classify", {"end": {**COLLAR, "rotative": {"sign": "+", "n": 2}}},
     '{"kind":"nonminimal","residual":{"d":1,"f":[],"kind":"attained"},"rotativity":2,"sign":"+"}'),
    ("classify", {"end": {**COLLAR, "division_tail": {"type": "strictly-increasing"}}},
     '{"annuli":{"tb_start":-1,"tb_step":1},"kind":"infinite-division"}'),
    ("classify", {"end": {**COLLAR, "boundary": {"slope": "2/3", "div": 1},
                          "target": {"kind": "rational", "slope": "2/3", "attained": True}}},
     '{"d":1,"f":[],"kind":"attained"}'),
    ("extend-check", {"end": COLLAR}, '{"result":"extends-by-construction"}'),
    ("compare", {"a": COLLAR, "b": COLLAR}, '{"equivalent":true}'),
    ("compare", {"a": COLLAR, "b": {**COLLAR, "rotative": {"sign": "+", "n": 1}}}, '{"equivalent":false}'),
], ids=["path", "blocks", "classify", "classify-rotative", "classify-increasing", "classify-boundary-2-3",
        "extend-check", "compare", "compare-rotative"])
def test_collar_answers_are_pinned(command, doc, answer):
    # the collar, toward an attained target at its boundary, is the path of
    # one vertex, whose decomposition has no block (its euler answer is
    # test_euler_of_a_collar_is_zero)
    assert invoke(command, doc) == (0, answer + "\n")


def test_count_command():
    code, out = invoke("count", {"lengths": [3, 2]})
    assert code == 0
    assert json.loads(out) == {"count": 6}
    code, out = invoke("count", {"lengths": [1, 3]})
    assert json.loads(out)["count"] == 3
    assert "note" in json.loads(out)


@pytest.mark.parametrize("lengths", [3, "3", {"0": 3}, [], [True], [2, False], [2, 1.5], [None]])
def test_count_lengths_must_be_a_nonempty_list_of_integers(lengths):
    code, out = invoke("count", {"lengths": lengths})
    assert code == 2
    assert json.loads(out) == {"error": "input.lengths must be a nonempty list of integers"}


@pytest.mark.parametrize("lengths", [[0], [3, -1]])
def test_count_lengths_below_one_are_malformed(lengths):
    code, out = invoke("count", {"lengths": lengths})
    assert code == 2
    assert json.loads(out) == {"error": "block lengths must be >= 1"}


def test_euler_command():
    attained = {"kind": "rational", "slope": "-2/1", "attained": True}
    code, out = invoke("euler", {"end": end_doc(attained, prefix=["+"])})
    assert code == 0
    assert json.loads(out) == {"euler": [0, -1], "slices": 1}


def test_euler_of_a_collar_is_zero():
    collar = end_doc({"kind": "rational", "slope": "-1/1", "attained": True})
    code, out = invoke("euler", {"end": collar})
    assert code == 0
    assert json.loads(out) == {"euler": [0, 0], "slices": 0}


def test_euler_decomposes_an_attained_target_once(monkeypatch):
    # validation counts the 15 slices toward -100/7 on the command's own
    # decomposition
    calls = count_decompositions(monkeypatch)
    attained = {"kind": "rational", "slope": "-100/7", "attained": True}
    code, out = invoke("euler", {"end": end_doc(attained, prefix=["+"] * 15)})
    assert code == 0 and json.loads(out)["slices"] == 15
    assert len(calls) == 1
    code, out = invoke("euler", {"end": end_doc(attained, prefix=["+"] * 14)})
    assert code == 1 and "sign coverage mismatch" in json.loads(out)["error"]


def test_euler_names_a_degenerate_target_by_its_violation():
    degenerate = end_doc({"kind": "rational", "slope": "-1/1", "attained": False},
                         tail={"type": "alternating"})
    code, out = invoke("euler", {"end": degenerate})
    assert code == 1 and "degenerate target equals the boundary slope" in json.loads(out)["error"]


def test_extend_check_command():
    code, out = invoke("extend-check", {"end": end_doc(INF_NA, tail={"type": "alternating"})})
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "no-tight-extension"


def test_family_command():
    code, out = invoke("family", {"target": INF_NA, "k": 3})
    assert code == 0
    assert len(json.loads(out)["invariants"]) == 3


def test_family_cap():
    code, out = invoke("family", {"target": INF_NA, "k": 20000})
    assert code == 2


def test_the_whole_input_is_decoded_before_any_domain_work():
    # `a` is well formed but violates the domain; `b` is malformed
    a = end_doc({"kind": "rational", "slope": "-3/1", "attained": True}, prefix=["+", "+"],
                tail={"type": "all-positive"})
    code, out = invoke("compare", {"a": a, "b": 5})
    assert (code, json.loads(out)) == (2, {"error": "input.b must be an object"})
    # the family cap is read after the target is decoded
    code, out = invoke("family", {"target": {"kind": "x"}, "k": 20000})
    assert (code, json.loads(out)) == (2, {"error": 'input.target.kind must be "rational" or "quadratic"'})


def test_a_family_past_the_cap_is_malformed():
    code, out = invoke("family", {"target": INF_NA, "k": DEFAULT_MAX_FAMILY + 1})
    assert (code, out) == (2, '{"error":"input.k exceeds the family cap 10000"}\n')
    code, out = invoke("family", {"target": INF_NA, "k": 0})
    assert code == 0 and json.loads(out) == {"invariants": []}


@pytest.mark.parametrize("flag", ["--horizon", "--max-family"])
def test_a_removed_flag_is_refused(flag, capsys):
    with pytest.raises(SystemExit) as info:
        invoke("count", {"lengths": [3, 2]}, flag, "5")
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def test_reduce_solid_torus_command():
    code, out = invoke("reduce-solid-torus", {"end": end_doc(SQRT2, tail={"type": "all-positive"})})
    assert code == 0
    doc = json.loads(out)
    assert doc["s"] == "-1/1"
    assert doc["invariant"] == {"kind": "irrational", "f": [], "tail": {"type": "saturated"}}


def test_reduce_t2xr_command():
    plus = end_doc(SQRT2, tail={"type": "all-positive"}, rotative={"n": 1, "sign": "+"})
    minus = {"boundary": {"slope": "1/1", "div": 1}, "target": SQRT2,
             "signs": {"prefix": [], "tail": {"type": "all-positive"}},
             "rotative": {"n": 2, "sign": "+"}}
    code, out = invoke("reduce-t2xr", {"plus": plus, "minus": minus,
                                       "middle": {"slope": "-1/1", "div": 1}})
    assert code == 0
    doc = json.loads(out)
    assert doc["plus"]["rotative"] == {"n": 3, "sign": "+"}
    assert doc["minus"]["rotative"] == {"n": 0, "sign": "+"}


def test_reduce_solid_torus_factors_the_end_once(monkeypatch):
    calls = []
    factor = reduce_mod.solid_torus_factor
    monkeypatch.setattr(reduce_mod, "solid_torus_factor", lambda e: calls.append(e) or factor(e))
    code, out = invoke("reduce-solid-torus", {"end": end_doc(SQRT2, tail={"type": "all-positive"})})
    assert code == 0 and json.loads(out)["s"] == "-1/1"
    assert len(calls) == 1


def test_rotative_layers_are_a_count():
    # 10^12 layers are one count, not 10^12 stored signs
    end = end_doc(SQRT2, tail={"type": "all-positive"}, rotative={"sign": "-", "n": 10 ** 12})
    started = time.perf_counter()
    code, out = invoke("classify", {"end": end})
    assert time.perf_counter() - started < 0.5
    assert code == 0
    doc = json.loads(out)
    assert (doc["kind"], doc["rotativity"], doc["sign"]) == ("nonminimal", 10 ** 12, "-")
    plus = end_doc(SQRT2, tail={"type": "all-positive"}, rotative={"sign": "-", "n": 10 ** 12})
    minus = dict(end_doc(SQRT2, tail={"type": "all-positive"}, rotative={"sign": "-", "n": 10 ** 12}),
                 boundary={"slope": "1/1", "div": 1})
    code, out = invoke("reduce-t2xr", {"plus": plus, "minus": minus, "middle": {"slope": "-1/1", "div": 1}})
    assert code == 0
    assert json.loads(out)["plus"]["rotative"] == {"n": 2 * 10 ** 12, "sign": "-"}


def test_zero_rotative_layers_carry_no_sign():
    plus = end_doc(SQRT2, tail={"type": "all-positive"}, rotative={"sign": "-", "n": 0})
    minus = dict(end_doc(SQRT2, tail={"type": "all-positive"}, rotative={"sign": "-", "n": 0}),
                 boundary={"slope": "1/1", "div": 1})
    code, out = invoke("reduce-t2xr", {"plus": plus, "minus": minus, "middle": {"slope": "-1/1", "div": 1}})
    assert code == 0
    doc = json.loads(out)
    assert doc["plus"]["rotative"] == doc["minus"]["rotative"] == {"n": 0, "sign": "+"}


def test_rotative_layers_of_both_signs_are_a_violation():
    plus = end_doc(SQRT2, tail={"type": "all-positive"}, rotative={"sign": "+", "n": 1})
    minus = dict(end_doc(SQRT2, tail={"type": "all-positive"}, rotative={"sign": "-", "infinite": True}),
                 boundary={"slope": "1/1", "div": 1})
    code, out = invoke("reduce-t2xr", {"plus": plus, "minus": minus, "middle": {"slope": "-1/1", "div": 1}})
    assert code == 1
    assert json.loads(out)["error"] == "rotative layers of both signs cannot coexist"


@pytest.mark.parametrize("rule", ["none", "all-positive", "all-negative"])
@pytest.mark.parametrize("stray,value", [("sign", "+"), ("after", 1), ("first", "-"), ("pattern", ["+"])])
def test_constant_sign_tails_reject_stray_fields(rule, stray, value):
    code, out = invoke("classify", {"end": end_doc(SQRT2, tail={"type": rule, stray: value})})
    assert code == 2
    assert json.loads(out)["error"] == f"input.end.signs.tail has unknown fields: ['{stray}']"


@pytest.mark.parametrize("flag", ["no", "yes", 1, 0, None])
def test_rotative_infinite_must_be_a_boolean(flag):
    end = end_doc(SQRT2, tail={"type": "all-positive"}, rotative={"sign": "+", "infinite": flag})
    code, out = invoke("classify", {"end": end})
    assert code == 2
    assert json.loads(out)["error"] == "input.end.rotative.infinite must be a boolean"


def irrational(tail):
    return {"kind": "irrational", "f": [], "tail": tail}


def rational(form):
    return {"kind": "rational", "f": [], "infinite": form}


@pytest.mark.parametrize("doc,error", [
    (irrational({"type": "pattern", "pattern": "+-", "anchor": 0}), "invariant.tail.pattern must be a nonempty list"),
    (irrational({"type": "pattern", "pattern": [], "anchor": 0}), "invariant.tail.pattern must be a nonempty list"),
    (irrational({"type": "pattern", "pattern": None, "anchor": 0}), "invariant.tail.pattern must be a nonempty list"),
    (irrational({"type": "pattern", "pattern": ["+", "-"], "anchor": "0"}), "invariant.tail.anchor must be an integer"),
    (irrational({"type": "pattern", "pattern": ["+", "-"], "anchor": 1.5}), "invariant.tail.anchor must be an integer"),
    (irrational({"type": "pattern", "pattern": ["+"], "anchor": 3}), "invariant.tail.pattern must hold both signs"),
    (irrational({"type": "pattern", "pattern": ["-", "-"], "anchor": 0}), "invariant.tail.pattern must hold both signs"),
    (irrational({"type": "pattern", "pattern": ["+", "-", "+", "-"], "anchor": 0}),
     "invariant.tail.pattern must be primitive, not a repeat of a shorter pattern"),
    (irrational({"type": "saturated", "pattern": ["+"]}), "invariant.tail has unknown fields: ['pattern']"),
    (irrational({"type": "zero", "anchor": 0}), "invariant.tail has unknown fields: ['anchor']"),
    (rational({"form": "both", "p": 1}), "invariant.infinite is missing fields: ['n']"),
    (rational({"form": "both", "n": 1}), "invariant.infinite is missing fields: ['p']"),
    (rational({"form": "both", "p": "1", "n": 1}), "invariant.infinite.p must be an integer"),
    (rational({"form": "both", "p": 1, "n": -1}), "invariant.infinite.n must be >= 0"),
    (rational({"form": "alt", "m": 1}), "invariant.infinite has unknown fields: ['m']"),
    (rational({"form": "pos", "m": 1, "p": 1}), "invariant.infinite has unknown fields: ['p']"),
    (rational({"form": "pos"}), "invariant.infinite is missing fields: ['m']"),
    (rational({"form": "neg", "m": "2"}), "invariant.infinite.m must be an integer"),
    (rational({"form": "neg", "m": -2}), "invariant.infinite.m must be >= 0"),
    ({"kind": "infinite-division", "annuli": {"tb_start": "-1", "tb_step": 1}},
     "invariant.annuli.tb_start must be an integer"),
    ({"kind": "infinite-division", "annuli": {"tb_start": -1, "tb_step": None}},
     "invariant.annuli.tb_step must be an integer"),
], ids=["string-pattern", "empty-pattern", "null-pattern", "string-anchor", "float-anchor", "one-sign-pattern",
        "one-sign-pair", "repeated-pattern", "saturated-pattern",
        "zero-anchor", "both-without-n", "both-without-p", "string-p", "negative-n", "alt-with-m", "pos-with-p",
        "pos-without-m", "string-m", "negative-m", "string-tb-start", "null-tb-step"])
def test_invariant_documents_are_strict(doc, error):
    with pytest.raises(SchemaError) as info:
        parse_invariant_document(doc)
    assert str(info.value) == error


def test_exit_code_validation_violation():
    bad = end_doc({"kind": "rational", "slope": "-3/1", "attained": True},
                  prefix=["+", "+"], tail={"type": "all-positive"})
    code, out = invoke("classify", {"end": bad})
    assert code == 1
    doc = json.loads(out)
    assert "finite path, infinite tail" in doc["violations"]


def test_attained_path_to_a_far_rational_is_walked_by_blocks():
    # one block of 10^9 vertices: the walk takes it in one jump, so the
    # coverage check answers at once instead of walking every integer
    far = {"kind": "rational", "slope": "-1000000000/1", "attained": True}
    code, out = invoke("classify", {"end": end_doc(far, prefix=["+", "-", "+"])})
    assert code == 1
    assert any("path has 999999999 basic slices" in v for v in json.loads(out)["violations"])


def test_blocks_toward_a_far_non_attained_rational():
    far = {"kind": "rational", "slope": "-1000000000/1", "attained": False}
    code, out = invoke("blocks", {"start": "-1/1", "target": far, "count": 2})
    assert code == 0
    doc = json.loads(out)
    assert [b["length"] for b in doc["blocks"]] == [999999999, None]
    assert doc["complete"] is True


def test_surd_beyond_the_trial_division_budget_answers():
    # reading a target splits nothing; writing it splits d only as far as
    # the budget reaches, and the partial split reads back to the same target
    huge = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 10 ** 33 + 1}
    code, out = invoke("path", {"start": "-1/1", "target": huge, "n": 3})
    assert code == 0
    target = TARGET.decode(huge, "target")
    assert json.loads(out) == {"vertices": [str(v) for v in reference_path(Slope(-1, 1), target, 3)]}
    assert TARGET.decode(TARGET.encode(target), "target") == target


def test_a_square_in_d_or_in_b_is_one_target(monkeypatch):
    # d = p^2 r is past the trial-division budget, and no split is needed to
    # read it: (0 + sqrt(p^2 r))/1 and (0 + p*sqrt(r))/1 are one PQa triple
    p, r = 10 ** 6 + 3, 10 ** 6 + 33
    spellings = [{"kind": "quadratic", "a": 0, "b": 1, "c": 1, "d": p * p * r},
                 {"kind": "quadratic", "a": 0, "b": p, "c": 1, "d": r}]
    first, second = (TARGET.decode(t, "target") for t in spellings)
    assert first == second and hash(first) == hash(second)
    docs = [end_doc(t, ["+"], {"type": "alternating"}) for t in spellings]
    contexts = [classify(END.decode(doc, "end")).context for doc in docs]
    assert contexts[0] == contexts[1] and hash(contexts[0]) == hash(contexts[1])
    answers = [run_command("classify", {"end": doc}) for doc in docs]
    assert answers[0] == answers[1] and answers[0]["kind"] == "irrational"
    assert run_command("compare", {"a": docs[0], "b": docs[1]}) == {"equivalent": True}
    assert run_command("family", {"target": spellings[0], "k": 0}) == {"invariants": []}
    # a member is certified over the block period, far past PERIOD_BUDGET
    # for a discriminant near 4 * 10^18: both spellings are refused alike.
    # Each message writes its input's split: d = r splits, d = p^2 r stops
    # at the trial-division budget and is written unsplit
    assert (str(first), str(second)) == (f"(0 + 1*sqrt({p * p * r}))/1", f"(0 + {p}*sqrt({r}))/1")
    monkeypatch.setattr("toric_ends.blocks.PERIOD_BUDGET", 50)
    for target, text in zip(spellings, (str(first), str(second))):
        with pytest.raises(ToricEndError, match="PERIOD_BUDGET = 50") as info:
            run_command("family", {"target": target, "k": 2})
        assert text in str(info.value)


def test_a_batch_toward_an_unsplit_radicand_splits_it_once():
    # (0 + sqrt(p^2 r))/1 runs the trial division to its budget when it is
    # written; five jobs toward it, each with its own target, split it once
    p, r = 10 ** 6 + 3, 10 ** 6 + 33
    target = {"kind": "quadratic", "a": 0, "b": 1, "c": 1, "d": p * p * r}
    job = {"command": "reduce-solid-torus", "input": {"end": end_doc(target, ["+"], {"type": "alternating"})}}
    farey._squarefree_split.cache_clear()
    code, out = invoke("run", [job] * 5)
    assert code == 0 and len({json.dumps(result) for result in json.loads(out)}) == 1
    assert farey._squarefree_split.cache_info().misses == 1


def test_euler_short_of_the_first_span_writes_no_target():
    # the period search stops after `horizon` blocks with no message, so the
    # radicand that only a trial division to its budget splits is not split
    p, r = 10 ** 6 + 3, 10 ** 6 + 33
    target = {"kind": "quadratic", "a": 0, "b": 1, "c": 1, "d": p * p * r}
    farey._squarefree_split.cache_clear()
    code, out = invoke("euler", {"end": end_doc(target, ["+"], {"type": "alternating"}), "horizon": 64})
    assert code == 0 and json.loads(out)["slices"] == 64
    assert farey._squarefree_split.cache_info().misses == 0


def periodic_pair(target):
    return {"a": end_doc(target, tail={"type": "periodic", "pattern": ["+", "+", "-"]}),
            "b": end_doc(target, tail={"type": "periodic", "pattern": ["+", "-", "-"]})}


def test_period_budget_is_a_violation(monkeypatch):
    monkeypatch.setattr("toric_ends.blocks.PERIOD_BUDGET", 3)
    target = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 421}
    # the compare answers at the first differing block, with no period
    code, out = invoke("compare", periodic_pair(target))
    assert code == 0 and json.loads(out) == {"equivalent": False}
    code, out = invoke("extend-check", {"end": periodic_pair(target)["a"]})
    assert code == 1
    assert "PERIOD_BUDGET = 3 blocks" in json.loads(out)["error"]


def equal_count_pair(p):
    # per-block counts toward -sqrt(2), whose blocks all have two slices, are
    # all 1 under both patterns; their lengths 2p and 2p + 2 have an lcm of
    # 2p(p + 1), so one period of the pair spans p(p + 1) blocks
    def tail(pairs):
        return {"type": "periodic", "pattern": ["-", "+"] + ["+", "-"] * pairs}
    return {"a": end_doc(SQRT2, tail=tail(p - 1)), "b": end_doc(SQRT2, tail=tail(p))}


def test_equal_count_patterns_walk_one_block_period():
    doc = equal_count_pair(100)
    started = time.perf_counter()
    code, out = invoke("compare", doc)
    elapsed = time.perf_counter() - started
    assert code == 0 and json.loads(out) == {"equivalent": True}
    assert elapsed < 0.5
    tracemalloc.start()
    try:
        invoke("compare", doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20


def test_a_long_pattern_counts_each_block_without_reading_the_pattern():
    # a pattern of 20,001 slices: the obstruction counts block after block
    # of it, and each count reads the pattern's prefix counts in constant time
    tail = {"type": "periodic", "pattern": ["+", "-"] + ["+"] * 19999}
    started = time.perf_counter()
    code, out = invoke("extend-check", {"end": end_doc(SQRT2, tail=tail)})
    elapsed = time.perf_counter() - started
    assert code == 0 and json.loads(out)["result"] == "no-tight-extension"
    assert elapsed < 0.5


def test_span_budget_is_a_violation_and_the_batch_goes_on():
    jobs = [{"command": "compare", "input": equal_count_pair(400)},
            {"command": "count", "input": {"lengths": [2]}}]
    code, out = invoke("run", jobs)
    assert code == 1
    assert json.loads(out) == [
        {"status": "violation",
         "error": "a periodic span of 160400 blocks is past the budget of SPAN_BUDGET = 100000 blocks"},
        {"status": "ok", "output": {"count": 2}}]


def test_output_budget_refuses_a_long_path_and_the_batch_goes_on():
    # one run of 10^12 vertices: only OUTPUT_BUDGET + 1 of them are walked
    far = {"kind": "rational", "slope": "-1000000000000/1", "attained": True}
    near = {"kind": "rational", "slope": "-5/2", "attained": True}
    jobs = [{"command": "path", "input": {"start": "-1/1", "target": far, "n": 10 ** 9}},
            {"command": "path", "input": {"start": "-1/1", "target": near, "n": 10 ** 9}},
            {"command": "path", "input": {"start": "-1/1", "target": far, "n": 10 ** 6}}]
    code, out = invoke("run", jobs)
    assert code == 1
    results = json.loads(out)
    assert [r["status"] for r in results] == ["violation", "ok", "ok"]
    assert "more than OUTPUT_BUDGET = 1000000 vertices" in results[0]["error"]
    assert results[1]["output"]["vertices"] == ["-1/1", "-2/1", "-5/2"]
    assert len(results[2]["output"]["vertices"]) == 10 ** 6
    code, out = invoke("path", jobs[0]["input"])
    assert code == 1 and "OUTPUT_BUDGET" in json.loads(out)["error"]


def test_output_budget_counts_what_is_listed_not_what_is_asked(monkeypatch):
    monkeypatch.setattr("toric_ends.cli.OUTPUT_BUDGET", 5)
    rational = {"kind": "rational", "slope": "-1000000000/1", "attained": False}
    # toward a surd only budget + 1 items are walked, so 10^9 answers at once
    for command, size, what in (("path", "n", "vertices"), ("blocks", "count", "blocks")):
        code, out = invoke(command, {"start": "-1/1", "target": SQRT2, size: 10 ** 9})
        assert code == 1
        assert json.loads(out)["error"] == f"the answer would list more than OUTPUT_BUDGET = 5 {what}"
        code, out = invoke(command, {"start": "-1/1", "target": SQRT2, size: 5})
        assert code == 0
        assert len(json.loads(out)[what]) == 5
    # a finite block list shorter than the budget is answered whatever the count
    code, out = invoke("blocks", {"start": "-1/1", "target": rational, "count": 10 ** 9})
    assert code == 0
    assert json.loads(out) == json.loads(invoke("blocks", {"start": "-1/1", "target": rational})[1])
    # a count the input names, and the default count, are under the same budget
    for doc in ({"start": "-1/1", "target": SQRT2, "count": 6}, {"start": "-1/1", "target": SQRT2}):
        code, out = invoke("blocks", doc)
        assert code == 1 and "5 blocks" in json.loads(out)["error"]


@pytest.mark.parametrize("command,size,value,what", [
    ("path", "n", 12000, "a vertex entry"),
    ("blocks", "count", 6000, "a witness entry"),
])
def test_entries_past_the_int_to_text_limit_are_a_violation_and_the_batch_goes_on(command, size, value, what):
    # toward -sqrt(2) entries reach 4301 digits at vertex 11234 and in the witness of block 5618
    limit = sys.get_int_max_str_digits()
    jobs = [{"command": command, "input": {"start": "-1/1", "target": SQRT2, size: value}},
            {"command": "count", "input": {"lengths": [2]}}]
    code, out = invoke("run", jobs)
    assert code == 1
    assert json.loads(out) == [
        {"status": "violation",
         "error": f"the answer would hold {what} of more than {limit} digits, the limit of int-to-text conversion"},
        {"status": "ok", "output": {"count": 2}}]


@pytest.mark.parametrize("command,size,value,what", [
    ("path", "n", 24000, "a vertex entry"),
    ("blocks", "count", 12000, "a witness entry"),
])
def test_entries_past_the_int_to_text_limit_are_refused_at_walk_cost(command, size, value, what):
    # the walk stops at the first run past the limit (vertex 11234, block
    # 5618), so neither the rest of the walk nor any text is paid for
    jobs = [{"command": command, "input": {"start": "-1/1", "target": SQRT2, size: value}},
            {"command": "count", "input": {"lengths": [2]}}]
    started = time.perf_counter()
    code, out = invoke("run", jobs)
    elapsed = time.perf_counter() - started  # timed without tracemalloc, which slows allocation
    results = json.loads(out)
    assert code == 1 and elapsed < 0.5
    assert results[0]["status"] == "violation" and what in results[0]["error"]
    assert results[1] == {"status": "ok", "output": {"count": 2}}
    tracemalloc.start()
    try:
        invoke("run", jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20


@pytest.mark.parametrize("command,size,listed,what", [
    ("path", "n", "vertices", "a vertex entry"),
    ("blocks", "count", "blocks", "a witness entry"),
])
def test_the_int_to_text_limit_is_pinned_on_both_sides(command, size, listed, what):
    # toward -sqrt(2) entries first pass 4300 digits at vertex 11234 and in
    # the witness of block 5618
    last = {"path": 11234, "blocks": 5617}[command]
    answer = run_command(command, {"start": "-1/1", "target": SQRT2, size: last})
    assert len(answer[listed]) == last
    with pytest.raises(ToricEndError, match=what):
        run_command(command, {"start": "-1/1", "target": SQRT2, size: last + 1})


def test_block_witnesses_multiply_out_no_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("a determinant was multiplied out")

    monkeypatch.setattr(GL2Z, "__init__", refuse)
    doc = {"start": "-1/1", "target": SQRT2, "count": 5000}
    times = []
    for _ in range(2):  # the better of two runs, on a shared machine
        started = time.perf_counter()
        answer = run_command("blocks", doc)
        times.append(time.perf_counter() - started)
    assert min(times) < 0.3
    assert len(answer["blocks"]) == 5000 and answer["blocks"][0]["witness"] == [1, 2, -2, -3]
    blocks = decompose(FareyPath(Slope(-1, 1), QuadraticTarget.of(0, -1, 1, 2))).blocks_up_to(3)
    assert [b.witness.entries() for b in blocks] == [tuple(d["witness"]) for d in answer["blocks"][:3]]


def test_a_count_past_the_int_to_text_limit_is_a_violation_and_the_batch_goes_on():
    limit = sys.get_int_max_str_digits()
    jobs = [{"command": "count", "input": {"lengths": [10 ** 6] * 800}},
            {"command": "count", "input": {"lengths": [2]}}]
    code, out = invoke("run", jobs)
    assert code == 1
    assert json.loads(out) == [
        {"status": "violation",
         "error": f"the answer would hold a count of more than {limit} digits, the limit of int-to-text conversion"},
        {"status": "ok", "output": {"count": 2}}]
    # 10^(limit - 1) has limit digits and is answered; 10^limit is refused
    assert run_command("count", {"lengths": [10] * (limit - 1)})["count"] == 10 ** (limit - 1)
    code, out = invoke("count", {"lengths": [10] * limit})
    assert code == 1 and "a count of more than" in json.loads(out)["error"]


def test_a_count_past_the_int_to_text_limit_is_refused_before_it_is_multiplied_out():
    # multiplied out, a thousand lengths of 4001 digits take over a minute;
    # the second partial product is past the limit, and the rest is never paid for
    jobs = [{"command": "count", "input": {"lengths": [10 ** 4000 + 1] * 1000}},
            {"command": "count", "input": {"lengths": [0, 10 ** 4000 + 1]}},
            {"command": "count", "input": {"lengths": [2]}}]
    text = json.dumps(jobs)  # about 4 MB: written before the clock starts, read by the CLI within it
    started = time.perf_counter()
    code, out = invoke_text("run", text)
    elapsed = time.perf_counter() - started
    results = json.loads(out)
    assert code == 2 and elapsed < 0.5
    assert results[0]["status"] == "violation" and "a count of more than" in results[0]["error"]
    assert results[1] == {"status": "malformed", "error": "block lengths must be >= 1"}
    assert results[2] == {"status": "ok", "output": {"count": 2}}


def test_euler_entries_past_the_int_to_text_limit_are_a_violation():
    end = end_doc(SQRT2, tail={"type": "all-positive"})
    code, out = invoke("euler", {"end": end, "horizon": 12000})
    assert code == 1 and "an euler entry of more than" in json.loads(out)["error"]
    code, out = invoke("euler", {"end": end, "horizon": 100})
    assert code == 0 and json.loads(out)["slices"] == 100


def test_euler_at_a_far_horizon_answers_from_the_block_period():
    end = end_doc(SQRT2, tail={"type": "alternating"})
    started = time.perf_counter()
    code, out = invoke("euler", {"end": end, "horizon": 10 ** 6})
    elapsed = time.perf_counter() - started
    assert code == 0 and json.loads(out) == {"euler": [0, 0], "slices": 10 ** 6}
    assert elapsed < 0.5


@pytest.mark.parametrize("horizon", [12000, 10 ** 6])
def test_euler_past_the_int_to_text_limit_is_refused_without_walking_to_the_horizon(horizon):
    jobs = [{"command": "euler", "input": {"end": end_doc(SQRT2, tail={"type": "all-positive"}),
                                           "horizon": horizon}},
            {"command": "count", "input": {"lengths": [2]}}]
    started = time.perf_counter()
    code, out = invoke("run", jobs)
    elapsed = time.perf_counter() - started  # timed without tracemalloc, which slows allocation
    results = json.loads(out)
    assert code == 1 and elapsed < 0.5
    assert results[0]["status"] == "violation" and "an euler entry of more than" in results[0]["error"]
    assert results[1] == {"status": "ok", "output": {"count": 2}}
    tracemalloc.start()
    try:
        invoke("run", jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20


@pytest.mark.parametrize("command,doc,what", [
    ("euler", {"end": end_doc(SQRT2, tail={"type": "all-positive"}), "horizon": 10 ** 12}, "an euler entry"),
    ("count", {"lengths": [10 ** 4000 + 1] * 1000}, "a count"),
    ("path", {"start": "-1/1", "target": SQRT2, "n": 24000}, "a vertex entry"),
])
def test_answers_are_bounded_by_the_digits_budget_with_no_int_to_text_limit(command, doc, what):
    # with the limit switched off, entries stop at DIGITS_BUDGET digits;
    # unbounded, the euler class toward -sqrt(2) is multiplied out to 10^12 slices
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        started = time.perf_counter()
        with pytest.raises(ToricEndError) as raised:
            run_command(command, doc)
        elapsed = time.perf_counter() - started
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(raised.value) == (f"the answer would hold {what} of more than DIGITS_BUDGET = {DIGITS_BUDGET} "
                                 "digits, with no limit on int-to-text conversion")
    assert elapsed < 0.5


def test_euler_toward_a_long_period_at_a_small_horizon_answers():
    # -sqrt(10^10 + 19) has a period of 62,067 blocks: horizon 64 is walked
    end = end_doc({"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 10 ** 10 + 19},
                  tail={"type": "alternating"})
    started = time.perf_counter()
    code, out = invoke("euler", {"end": end, "horizon": 64})
    elapsed = time.perf_counter() - started
    assert code == 0 and json.loads(out)["slices"] == 64
    assert elapsed < 0.5


def test_solid_torus_with_a_one_point_arc_has_no_realized_point():
    attained = {"kind": "rational", "slope": "-3/2", "attained": True}
    doc = end_doc(attained)
    doc["boundary"]["slope"] = "-3/2"
    code, out = invoke("reduce-solid-torus", {"end": doc})
    assert code == 1
    assert "no 1/n point lies on the realized arc from -3/2" in json.loads(out)["error"]


def test_exit_code_malformed():
    code, out = invoke("classify", {"end": {"boundary": {"slope": "-1/1"},
                                            "target": SQRT2, "bogus": 1}})
    assert code == 2
    assert "unknown fields" in json.loads(out)["error"]


@pytest.mark.parametrize("start", ["1_0/3", "10/3_0", "-1_1", "\u0661/\u0662", "1/\u0663", "\uff11/3"],
                         ids=["underscore", "underscore-denominator", "underscore-integer", "arabic-indic",
                              "arabic-indic-denominator", "fullwidth"])
def test_a_slope_is_written_in_ascii_digits_with_no_underscores(start):
    # int() reads each of these: "1_0/3" as 10/3 and "\u0661/\u0662" as 1/2
    code, out = invoke("path", {"n": 2, "start": start, "target": SQRT2})
    assert code == 2
    assert json.loads(out) == {"error": f"input.start: slope {start!r} must be written in ASCII digits with no underscores"}


@pytest.mark.parametrize("start", [" -1/1 ", "\t-1/1\n", "-1 / 1", "+1/-1", "-1", " -1", "1/-1", "-2/2"])
def test_every_other_slope_form_is_still_read(start):
    assert invoke("path", {"n": 3, "start": start, "target": SQRT2}) == (0, '{"vertices":["-1/1","-4/3","-7/5"]}\n')


@pytest.mark.parametrize("division_tail", [
    {"type": "eventually-constant", "after": 1, "value": 1, "prefix": [True]},
    {"type": "eventually-constant", "after": 1, "value": 1, "prefix": ["3"]},
    {"type": "eventually-constant", "after": -4, "value": 1},
], ids=["bool-prefix", "string-prefix", "negative-after"])
def test_division_tail_schema_is_strict(division_tail):
    attained = {"kind": "rational", "slope": "-2/1", "attained": True}
    code, out = invoke("classify", {"end": end_doc(attained, prefix=["+"], division_tail=division_tail)})
    assert code == 2
    assert "division_tail" in json.loads(out)["error"]


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_an_unreadable_input_is_malformed(tmp_path, kind):
    path = {"missing": tmp_path / "missing.json", "directory": tmp_path,
            "not-utf-8": tmp_path / "latin-1.json"}[kind]
    (tmp_path / "latin-1.json").write_bytes(b'{"lengths": [3], "\xe9": 1}')
    code, out = invoke("count", {"lengths": [3, 2]}, "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"].startswith("input cannot be read: ")


def test_an_unwritable_output_is_refused(tmp_path, capsys):
    code, out = invoke("count", {"lengths": [3, 2]}, "--output", str(tmp_path / "missing" / "out.json"))
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("output cannot be written: ")


def test_exit_code_bad_json():
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin = io.StringIO("{not json")
    sys.stdout = io.StringIO()
    try:
        assert main(["classify"]) == 2
    finally:
        sys.stdin, sys.stdout = stdin, stdout


def test_input_integer_past_the_int_to_text_limit_is_malformed():
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin = io.StringIO('{"lengths": [1%s]}' % ("0" * sys.get_int_max_str_digits()))
    sys.stdout = io.StringIO()
    try:
        assert main(["count"]) == 2
        assert json.loads(sys.stdout.getvalue())["error"].startswith("input is not valid JSON")
    finally:
        sys.stdin, sys.stdout = stdin, stdout


@pytest.mark.parametrize("fmt,prefix", [("structured", '{"error":"input is not valid JSON: '),
                                        ("human", 'error: "input is not valid JSON: ')],
                         ids=["structured", "human"])
@pytest.mark.parametrize("command", ["count", "run"])
def test_input_nested_past_the_recursion_limit_is_malformed(monkeypatch, command, fmt, prefix):
    # json's message differs between Python versions, so only its prefix is
    # pinned; a batch runs no job
    jobs = []
    monkeypatch.setattr(cli, "_run_job", lambda *job: jobs.append(job))
    code, out = invoke_text(command, "[" * 100_000 + "]" * 100_000, "--format", fmt)
    assert code == 2 and out.startswith(prefix) and out.count("\n") == 1
    assert jobs == []


def test_unknown_fields_rejected_everywhere():
    with pytest.raises(SchemaError):
        run_command("path", {"start": "-1/1", "target": SQRT2, "n": 2, "x": 1})


def test_batch_run_statuses():
    jobs = [
        {"command": "count", "input": {"lengths": [3, 2]}},
        {"command": "classify",
         "input": {"end": end_doc({"kind": "rational", "slope": "-3/1", "attained": True},
                                  prefix=["+", "+"], tail={"type": "all-positive"})}},
        {"command": "extend-check",
         "input": {"end": end_doc(SQRT2, tail={"type": "all-positive"},
                                  rotative={"sign": "+", "n": 2})}},
        {"command": "count", "input": {"lengths": [2]}},
    ]
    code, out = invoke("run", jobs)
    assert code == 1
    results = json.loads(out)
    assert [r["status"] for r in results] == ["ok", "violation", "violation", "ok"]


@pytest.mark.parametrize("job,error", [
    (5, "job[1] must be an object"),
    ({"command": "count"}, "job[1] is missing fields: ['input']"),
    ({"command": "count", "input": {"lengths": [2]}, "format": "human"}, "job[1] has unknown fields: ['format']"),
], ids=["not-an-object", "no-input", "unknown-field"])
def test_a_malformed_job_fills_its_own_slot_and_the_batch_goes_on(job, error):
    count = {"command": "count", "input": {"lengths": [2]}}
    code, out = invoke("run", [count, job, count])
    assert code == 2
    assert json.loads(out) == [{"status": "ok", "output": {"count": 2}}, {"status": "malformed", "error": error},
                               {"status": "ok", "output": {"count": 2}}]


@pytest.mark.parametrize("command", [["count"], {"name": "count"}, 7, None])
def test_a_command_that_is_not_a_string_is_malformed_and_the_batch_goes_on(command):
    jobs = [{"command": command, "input": {"lengths": [2]}},
            {"command": "count", "input": {"lengths": [2]}}]
    code, out = invoke("run", jobs)
    assert code == 2
    assert json.loads(out) == [
        {"status": "malformed", "error": f"command must be a string, not {type(command).__name__}"},
        {"status": "ok", "output": {"count": 2}}]


def test_a_job_with_options_is_malformed_and_the_batch_goes_on():
    jobs = [{"command": "count", "input": {"lengths": [2]}, "options": {"horizon": 8}},
            {"command": "count", "input": {"lengths": [3, 2]}}]
    assert invoke("run", jobs) == (2, '[{"error":"job[0] has unknown fields: [\'options\']","status":"malformed"},'
                                      '{"output":{"count":6},"status":"ok"}]\n')


@pytest.mark.parametrize("job,field", [
    ({"command": "classify",
      "input": {"end": end_doc(SQRT2, tail={"type": "eventually", "sign": "+", "after": -1})}}, "input.end.signs.tail"),
    ({"command": "reduce-t2xr",
      "input": {"plus": end_doc(SQRT2), "minus": end_doc(SQRT2), "middle": {"slope": "0/1", "div": 0}}},
     "input.middle"),
    ({"command": "euler", "input": {"end": end_doc(SQRT2), "horizon": 0}}, "input.horizon"),
    ({"command": "euler", "input": {"end": end_doc(SQRT2), "horizon": -5}}, "input.horizon"),
], ids=["negative-sign-tail-after", "middle-div-0", "euler-horizon-0", "euler-horizon-negative"])
def test_batch_reports_out_of_range_numbers_as_malformed(job, field):
    code, out = invoke("run", [job, {"command": "count", "input": {"lengths": [2]}}])
    assert code == 2
    results = json.loads(out)
    assert [r["status"] for r in results] == ["malformed", "ok"]
    assert results[0]["error"].startswith(field)


@pytest.mark.parametrize("entry", [["+"], {"sign": "+"}, 1, True, None, "+-"],
                         ids=["list", "object", "one", "true", "null", "two-signs"])
def test_a_sign_that_is_not_plus_or_minus_is_malformed(entry):
    # an entry that is not hashable is no sign either, and the batch goes on
    ends = [end_doc(SQRT2, prefix=["+", entry], tail={"type": "alternating"}),
            end_doc(SQRT2, tail={"type": "periodic", "pattern": ["-", entry]})]
    code, out = invoke("run", [{"command": "classify", "input": {"end": e}} for e in ends]
                       + [{"command": "count", "input": {"lengths": [2]}}])
    assert code == 2
    assert json.loads(out) == [
        {"status": "malformed", "error": 'input.end.signs.prefix must be "+" or "-"'},
        {"status": "malformed", "error": 'input.end.signs.tail.pattern must be "+" or "-"'},
        {"status": "ok", "output": {"count": 2}}]


# ---------------------------------------------------------------------------
# `run` writes each answer as its job returns

COUNT = {"command": "count", "input": {"lengths": [3, 2]}}
MALFORMED = {"command": "count", "input": {"lengths": []}}
VIOLATION = {"command": "euler", "input": {"end": end_doc(TO_100_7, ["+"] * 14)}}
LONG_PATH = {"command": "path", "input": {"start": "-1/1", "n": 5000,
                                          "target": {"kind": "rational", "slope": "-5000/1", "attained": True}}}


def batch_answers(jobs: list) -> list:
    """The answers of a batch of job objects, one run_command at a time."""
    answers = []
    for job in jobs:
        try:
            output = run_command(job["command"], job["input"])
            answers.append({"status": "ok", "output": output})
        except SchemaError as exc:
            answers.append({"status": "malformed", "error": str(exc)})
        except ToricEndError as exc:
            answers.append({"status": "violation", "error": str(exc)})
    return answers


@pytest.mark.parametrize("jobs,status,blocks", [
    ([], 0, 0),
    ([COUNT], 0, 0),
    ([COUNT, VIOLATION, COUNT], 1, 0),
    ([MALFORMED, COUNT, VIOLATION], 2, 0),
    ([VIOLATION, MALFORMED, COUNT], 2, 0),
    ([LONG_PATH, COUNT] * 20, 0, 10),
], ids=["empty", "one-job", "ok-violation", "malformed-first", "violation-first", "long"])
def test_run_writes_the_bytes_of_the_answer_list(tmp_path, jobs, status, blocks):
    answers = batch_answers(jobs)
    expected = {"structured": json.dumps(answers, sort_keys=True, separators=(",", ":")) + "\n",
                "human": _render_human(answers) + "\n"}
    assert len(expected["structured"]) >= blocks * WRITE_BLOCK
    for fmt, text in expected.items():
        assert invoke("run", jobs, "--format", fmt) == (status, text)
        out = tmp_path / f"{fmt}.txt"
        assert invoke("run", jobs, "--format", fmt, "--output", str(out)) == (status, "")
        assert out.read_text(encoding="utf-8") == text


class CountingSink:
    """An unbuffered text stream that keeps only how much was written."""

    def __init__(self):
        self.writes = self.chars = 0

    def write(self, text: str) -> int:
        self.writes += 1
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["structured", "human"])
def test_a_census_batch_is_written_in_blocks(monkeypatch, fmt):
    batch = [{"command": j["command"], "input": j["input"]} for j in perfbench_workloads().generate("census", 1)]
    sink = CountingSink()
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(batch)))
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["run", "--format", fmt]) == 1
    assert sink.chars > 4 * WRITE_BLOCK
    assert sink.writes <= sink.chars // WRITE_BLOCK + 2


def test_a_batch_holds_one_answer_at_a_time(monkeypatch):
    # each job lists the 20,001 vertices from 0 to attained -20000: a batch
    # of 32 such jobs peaks within one answer of a batch of 4
    job = {"command": "path", "input": {"start": "0/1", "n": 20001,
                                        "target": {"kind": "rational", "slope": "-20000/1", "attained": True}}}
    tracemalloc.start()
    try:
        answer = run_command(job["command"], job["input"])
        one_answer = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(answer["vertices"]) == 20001
    peaks = []
    for copies in (4, 32):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps([job] * copies)))
        monkeypatch.setattr(sys, "stdout", CountingSink())
        tracemalloc.start()
        try:
            assert main(["run"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < one_answer


def test_a_batch_holds_its_text_and_one_job_at_a_time(monkeypatch):
    # 20,000 count jobs peak within twice their extra text of 2,000: the
    # batch is checked whole by a decoder that keeps no object, then decoded
    # one job at a time (the parsed list held whole grew by about 600 B a job)
    peaks, sizes = [], []
    for copies in (2000, 20000):
        text = json.dumps([COUNT] * copies)
        sizes.append(len(text))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        monkeypatch.setattr(sys, "stdout", CountingSink())
        tracemalloc.start()
        try:
            assert main(["run"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * (sizes[1] - sizes[0])


def refused(message: str) -> tuple:
    """The exit status and the structured and human texts of a refused batch."""
    return 2, json.dumps({"error": message}, separators=(",", ":")) + "\n", f"error: {json.dumps(message)}\n"


@functools.lru_cache(maxsize=1)
def census_text() -> str:
    return json.dumps([{"command": j["command"], "input": j["input"]} for j in perfbench_workloads().generate("census", 1)])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(0, "cut", "x")
@example(-1, "cut", "x")  # inside the last job
@example(None, "insert", ",")  # after the closing ]
@example(None, "insert", "\x00")
@given(st.integers(0, 10 ** 6) | st.integers(-400, -1) | st.none(), st.sampled_from(["cut", "replace", "insert"]),
       st.sampled_from('\x00\x1f{}[],:"x0 \\'))
def test_unreadable_json_anywhere_in_a_batch_runs_no_job(monkeypatch, offset, edit, char):
    # a census batch cut, or with one character replaced or inserted, at an
    # offset counted from its start, from its end (within its last job) or
    # at its end (None, after the closing ])
    text = census_text()
    k = len(text) if offset is None else offset % len(text)
    bad = {"cut": text[:k], "replace": text[:k] + char + text[k + 1:], "insert": text[:k] + char + text[k:]}[edit]
    try:
        json.loads(bad)
    except ValueError as exc:
        message = str(exc)
    else:
        assume(False)
    jobs = []
    monkeypatch.setattr(cli, "_run_job", lambda *job: jobs.append(job))
    assert invoke_text("run", bad) == refused(f"input is not valid JSON: {message}")[:2]
    assert jobs == []


EDGE_COUNT = '{"command": "count", "input": {"lengths": [3, 2]}}'
EDGE_UNIT = '{"command": "count", "input": {"lengths": [1]}}'
EDGE_LONG_LAST = "[" + EDGE_COUNT + ', {"command": "count", "input": {"lengths": [1' + "0" * 4999 + "]}}]"
NOT_A_LIST = (2, '{"error":"batch input must be a list of job objects"}\n',
              'error: "batch input must be a list of job objects"\n')
BOM = "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
COUNT_ANSWERS = ('{"output":{"count":6},"status":"ok"}',
                 'output:\n  count: 6\nstatus: "ok"\n')
UNIT_NOTE = "length-1 blocks carry no basic slices and contribute factor 1"
DIGITS_VIOLATION = ("the answer would hold a count of more than DIGITS_BUDGET = 4300 digits, "
                    "with no limit on int-to-text conversion")


# batches at the edges of the list syntax, each with (exit status, structured
# text, human text), as answered when the batch was parsed whole; the
# 5,000-digit integer is read under Python's default int-to-text limit and
# with none
EDGE_BATCHES = {
    "empty": (4300, "[]", (0, "[]\n", "\n")),
    "spaced-empty": (4300, " [ ] ", (0, "[]\n", "\n")),
    "object": (4300, "{}", NOT_A_LIST),
    "number": (4300, "5", NOT_A_LIST),
    "string": (4300, '"x"', NOT_A_LIST),
    "bom": (4300, "\ufeff[]", refused(f"input is not valid JSON: {BOM}")),
    "overflowing-float": (4300, "[1e999999]", (2, '[{"error":"job[0] must be an object","status":"malformed"}]\n',
                                               'error: "job[0] must be an object"\nstatus: "malformed"\n')),
    "long-integer-last": (4300, EDGE_LONG_LAST, None),  # json.loads's own message
    "long-integer-last-no-limit": (0, EDGE_LONG_LAST, (
        1, "[" + COUNT_ANSWERS[0] + f',{{"error":"{DIGITS_VIOLATION}","status":"violation"}}]\n',
        COUNT_ANSWERS[1] + f'error: "{DIGITS_VIOLATION}"\nstatus: "violation"\n')),
    "whitespace": (4300, "\n[\n\t" + EDGE_COUNT + "\t,\n " + EDGE_UNIT + " \r\n]\n\t", (
        0, "[" + COUNT_ANSWERS[0] + f',{{"output":{{"count":1,"note":"{UNIT_NOTE}"}},"status":"ok"}}]\n',
        COUNT_ANSWERS[1] + f'output:\n  count: 1\n  note: "{UNIT_NOTE}"\nstatus: "ok"\n')),
}


@pytest.mark.parametrize("name", EDGE_BATCHES)
def test_batches_at_the_edges_of_the_list_syntax_answer_as_before(name):
    limit, text, expected = EDGE_BATCHES[name]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        if expected is None:
            with pytest.raises(ValueError) as exc:
                json.loads(text)
            expected = refused(f"input is not valid JSON: {exc.value}")
        status, structured, human = expected
        assert invoke_text("run", text) == (status, structured)
        assert invoke_text("run", text, "--format", "human") == (status, human)
    finally:
        sys.set_int_max_str_digits(saved)


def test_determinism_byte_identical():
    doc = {"end": end_doc(SQRT2, tail={"type": "periodic", "pattern": ["+", "-"]})}
    _, out1 = invoke("classify", doc)
    _, out2 = invoke("classify", doc)
    assert out1 == out2


def rendered(render, doc):
    """The text of render(doc), or its error: an integer past Python's
    int-to-text limit fails in json.dumps and int.__repr__ alike."""
    try:
        return render(doc)
    except ValueError as exc:
        return type(exc), str(exc)


def test_human_text_of_census_answers_is_pinned():
    jobs = perfbench_workloads().generate("census", 1)
    answers = batch_answers([{"command": j["command"], "input": j["input"]} for j in jobs])
    assert _render_human(answers) == reference_render_human(answers)


SCALARS = (st.none() | st.booleans() | st.integers() | st.text() | st.floats()
           | st.integers(10 ** 4999, 10 ** 5000).map(lambda v: v if v % 2 else -v))
DOCUMENTS = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                         | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=12)


@settings(max_examples=300, deadline=None)
@example({"a": [], "b": {}, "c": [[], {}, "é", True, False, None], "d": [{"x": "\u2028"}, 10 ** 4999]})
@example(["\ud800", "\x00\n\"", 2 ** 64, -0, 1.5, float("nan")])
@given(DOCUMENTS)
def test_human_text_matches_one_json_dumps_per_scalar(doc):
    limit = sys.get_int_max_str_digits()
    assert rendered(_render_human, doc) == rendered(reference_render_human, doc)
    sys.set_int_max_str_digits(0)  # no limit: 5,000-digit integers are written out
    try:
        assert rendered(_render_human, doc) == rendered(reference_render_human, doc)
    finally:
        sys.set_int_max_str_digits(limit)


def test_human_format():
    code, out = invoke("count", {"lengths": [3, 2]}, "--format", "human")
    assert code == 0
    assert "count: 6" in out


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "toric_ends", "path"],
        input=json.dumps({"start": "-1/1", "target": SQRT2, "n": 3}),
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"vertices": ["-1/1", "-4/3", "-7/5"]}


def test_classify_normalizes_a_long_periodic_tail_in_linear_time():
    # a primitive pattern of 720,720 = 2^4 * 3^2 * 5 * 7 * 11 * 13 slices,
    # a length with 240 divisors: trying each as the period is quadratic
    n = 720_720
    pattern = ["+"] * (n - 1) + ["-"]
    end = {"boundary": {"slope": "-1", "div": 1}, "target": SQRT2,
           "signs": {"prefix": [], "tail": {"type": "periodic", "pattern": pattern}},
           "division_tail": {"type": "constant", "value": 1}}
    start = time.perf_counter()
    answer = run_command("classify", {"end": end})
    assert time.perf_counter() - start < 2
    assert answer == {"kind": "irrational", "f": [], "tail": {"type": "pattern", "pattern": pattern, "anchor": 0}}
