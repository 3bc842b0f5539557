import io
import json
import subprocess
import sys

import pytest

from toric_ends.cli import main, parse_invariant_document, run_command
from toric_ends.errors import SchemaError

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
    stdin = sys.stdin
    stdout = sys.stdout
    sys.stdin = io.StringIO(json.dumps(doc))
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


def test_count_command():
    code, out = invoke("count", {"lengths": [3, 2]})
    assert code == 0
    assert json.loads(out) == {"count": 6}
    code, out = invoke("count", {"lengths": [1, 3]})
    assert json.loads(out)["count"] == 3
    assert "note" in json.loads(out)


def test_euler_command():
    attained = {"kind": "rational", "slope": "-2/1", "attained": True}
    code, out = invoke("euler", {"end": end_doc(attained, prefix=["+"])})
    assert code == 0
    assert json.loads(out) == {"euler": [0, -1], "slices": 1}


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


def test_surd_beyond_the_trial_division_budget_is_a_violation():
    huge = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 10 ** 33 + 1}
    code, out = invoke("path", {"start": "-1/1", "target": huge, "n": 3})
    assert code == 1
    assert "trial divisors beyond the budget of 1000000" in json.loads(out)["error"]


def periodic_pair(target):
    return {"a": end_doc(target, tail={"type": "periodic", "pattern": ["+", "+", "-"]}),
            "b": end_doc(target, tail={"type": "periodic", "pattern": ["+", "-", "-"]})}


def test_quadratic_compare_is_decided_at_horizon_one():
    target = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 99999989}
    code, out = invoke("compare", periodic_pair(target), "--horizon", "1")
    assert code == 0
    assert json.loads(out) == {"equivalent": False}


def test_period_budget_is_a_violation(monkeypatch):
    monkeypatch.setattr("toric_ends.farey.PERIOD_BUDGET", 3)
    target = {"kind": "quadratic", "a": 0, "b": -1, "c": 1, "d": 421}
    # the compare answers at the first differing block, with no period
    code, out = invoke("compare", periodic_pair(target))
    assert code == 0 and json.loads(out) == {"equivalent": False}
    code, out = invoke("extend-check", {"end": periodic_pair(target)["a"]})
    assert code == 1
    assert "PERIOD_BUDGET = 3 blocks" in json.loads(out)["error"]


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
    # the default count is the horizon, under the same budget
    code, out = invoke("blocks", {"start": "-1/1", "target": SQRT2}, "--horizon", "6")
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


def test_euler_entries_past_the_int_to_text_limit_are_a_violation():
    end = end_doc(SQRT2, tail={"type": "all-positive"})
    code, out = invoke("euler", {"end": end, "horizon": 12000})
    assert code == 1 and "an euler entry of more than" in json.loads(out)["error"]
    code, out = invoke("euler", {"end": end, "horizon": 100})
    assert code == 0 and json.loads(out)["slices"] == 100


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


def test_unknown_fields_rejected_everywhere():
    with pytest.raises(SchemaError):
        run_command("path", {"start": "-1/1", "target": SQRT2, "n": 2, "x": 1},
                    {"horizon": 64, "max_family": 100})


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


def test_batch_job_options_are_strict():
    jobs = [{"command": "count", "input": {"lengths": [2]}, "options": {"format": "human"}},
            {"command": "count", "input": {"lengths": [2]}, "options": {"horizon": 8}}]
    code, out = invoke("run", jobs)
    assert code == 2
    results = json.loads(out)
    assert [r["status"] for r in results] == ["malformed", "ok"]
    assert "format" in results[0]["error"]


@pytest.mark.parametrize("job,field", [
    ({"command": "classify",
      "input": {"end": end_doc(SQRT2, tail={"type": "eventually", "sign": "+", "after": -1})}}, "end.signs.tail"),
    ({"command": "reduce-t2xr",
      "input": {"plus": end_doc(SQRT2), "minus": end_doc(SQRT2), "middle": {"slope": "0/1", "div": 0}}},
     "input.middle"),
    ({"command": "euler", "input": {"end": end_doc(SQRT2), "horizon": 0}}, "input.horizon"),
    ({"command": "euler", "input": {"end": end_doc(SQRT2), "horizon": -5}}, "input.horizon"),
    ({"command": "blocks", "input": {"start": "-1/1", "target": SQRT2}, "options": {"horizon": 0}},
     "job[0].options.horizon"),
], ids=["negative-sign-tail-after", "middle-div-0", "euler-horizon-0", "euler-horizon-negative",
        "option-horizon-0"])
def test_batch_reports_out_of_range_numbers_as_malformed(job, field):
    code, out = invoke("run", [job, {"command": "count", "input": {"lengths": [2]}}])
    assert code == 2
    results = json.loads(out)
    assert [r["status"] for r in results] == ["malformed", "ok"]
    assert results[0]["error"].startswith(field)


def test_determinism_byte_identical():
    doc = {"end": end_doc(SQRT2, tail={"type": "periodic", "pattern": ["+", "-"]})}
    _, out1 = invoke("classify", doc)
    _, out2 = invoke("classify", doc)
    assert out1 == out2


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
