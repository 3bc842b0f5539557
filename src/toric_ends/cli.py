"""Command line interface: one JSON document per job, deterministic output.

Exit codes: 0 success, 1 validation or domain violation, 2 malformed input.
The same schema is used for input and structured output, so classify output
re-parses as a valid invariant document.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import blocks as blocks_mod
from . import ends as ends_mod
from . import invariants as inv_mod
from . import reduce as reduce_mod
from .errors import SchemaError, ToricEndError, ValidationError
from .farey import (
    FareyPath,
    QuadraticTarget,
    RationalTarget,
    Slope,
    SlopeTarget,
    farey_sequence,
    parse_slope,
)
from .invariants import NEGATIVE, POSITIVE

COMMANDS = (
    "path", "blocks", "classify", "compare", "count", "euler",
    "extend-check", "family", "reduce-solid-torus", "reduce-t2xr",
)

DEFAULT_MAX_FAMILY = 10_000

# most vertices a path answer and most blocks a blocks answer may list
OUTPUT_BUDGET = 10**6


# ---------------------------------------------------------------------------
# schema helpers


def _check_keys(doc: Any, required: set[str], optional: set[str] = frozenset(), where: str = "document") -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object")
    keys = set(doc)
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"{where} has unknown fields: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise SchemaError(f"{where} is missing fields: {sorted(missing)}")
    return doc


def _int(doc: dict, key: str, where: str) -> int:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{where}.{key} must be an integer")
    return v


def _positive_int(doc: dict, key: str, where: str) -> int:
    v = _int(doc, key, where)
    if v < 1:
        raise SchemaError(f"{where}.{key} must be >= 1")
    return v


def _schema(where: str, make, *args):
    """make(*args), with a ValueError from its checks reported as a SchemaError."""
    try:
        return make(*args)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _slope(text: Any, where: str) -> Slope:
    if not isinstance(text, str):
        raise SchemaError(f"{where} must be a slope string like \"-1/1\"")
    return _schema(where, parse_slope, text)


def _sign(text: Any, where: str) -> int:
    if text == "+":
        return POSITIVE
    if text == "-":
        return NEGATIVE
    raise SchemaError(f"{where} must be \"+\" or \"-\"")


def _sign_str(s: int) -> str:
    return "+" if s > 0 else "-"


def parse_target(doc: Any, where: str = "target") -> SlopeTarget:
    _check_keys(doc, {"kind"}, {"slope", "attained", "a", "b", "c", "d"}, where)
    kind = doc["kind"]
    if kind == "rational":
        _check_keys(doc, {"kind", "slope", "attained"}, set(), where)
        if not isinstance(doc["attained"], bool):
            raise SchemaError(f"{where}.attained must be a boolean")
        return RationalTarget(_slope(doc["slope"], f"{where}.slope"), doc["attained"])
    if kind == "quadratic":
        _check_keys(doc, {"kind", "a", "b", "c", "d"}, set(), where)
        return _schema(where, QuadraticTarget.of, *(_int(doc, k, where) for k in "abcd"))
    raise SchemaError(f"{where}.kind must be \"rational\" or \"quadratic\"")


def target_doc(t: SlopeTarget) -> dict:
    if isinstance(t, RationalTarget):
        return {"kind": "rational", "slope": str(t.slope), "attained": t.attained}
    if isinstance(t, QuadraticTarget):
        v = t.value
        return {"kind": "quadratic", "a": v.a, "b": v.b, "c": v.c, "d": v.d}
    raise SchemaError("cf-stream targets have no document form")


def parse_sign_tail(doc: Any, where: str):
    _check_keys(doc, {"type"}, {"sign", "after", "first", "pattern"}, where)
    kind = doc["type"]
    if kind == "none":
        return None
    if kind == "all-positive":
        return inv_mod.AllPositive()
    if kind == "all-negative":
        return inv_mod.AllNegative()
    if kind == "eventually":
        _check_keys(doc, {"type", "sign", "after"}, set(), where)
        return _schema(where, inv_mod.EventuallySign, _sign(doc["sign"], f"{where}.sign"),
                       _int(doc, "after", where))
    if kind == "alternating":
        _check_keys(doc, {"type"}, {"first"}, where)
        first = _sign(doc.get("first", "+"), f"{where}.first")
        return inv_mod.Alternating(first)
    if kind == "periodic":
        _check_keys(doc, {"type", "pattern"}, set(), where)
        pattern = doc["pattern"]
        if not isinstance(pattern, list) or not pattern:
            raise SchemaError(f"{where}.pattern must be a nonempty list")
        return inv_mod.Periodic(tuple(_sign(s, f"{where}.pattern") for s in pattern))
    raise SchemaError(f"{where}.type is not a sign tail rule")


def sign_tail_doc(tail) -> dict:
    if tail is None:
        return {"type": "none"}
    if isinstance(tail, inv_mod.AllPositive):
        return {"type": "all-positive"}
    if isinstance(tail, inv_mod.AllNegative):
        return {"type": "all-negative"}
    if isinstance(tail, inv_mod.EventuallySign):
        return {"type": "eventually", "sign": _sign_str(tail.sign), "after": tail.after}
    if isinstance(tail, inv_mod.Alternating):
        return {"type": "alternating", "first": _sign_str(tail.first)}
    return {"type": "periodic", "pattern": [_sign_str(s) for s in tail.pattern]}


def parse_signs(doc: Any, where: str = "signs") -> inv_mod.SignData:
    _check_keys(doc, set(), {"prefix", "tail"}, where)
    prefix = doc.get("prefix", [])
    if not isinstance(prefix, list):
        raise SchemaError(f"{where}.prefix must be a list")
    signs = tuple(_sign(s, f"{where}.prefix") for s in prefix)
    tail = parse_sign_tail(doc["tail"], f"{where}.tail") if "tail" in doc else None
    return inv_mod.SignData(signs, tail)


def signs_doc(signs: inv_mod.SignData) -> dict:
    return {"prefix": [_sign_str(s) for s in signs.prefix], "tail": sign_tail_doc(signs.tail)}


def parse_division_tail(doc: Any, where: str = "division_tail"):
    _check_keys(doc, {"type"}, {"value", "after", "prefix"}, where)
    kind = doc["type"]
    try:
        if kind == "constant":
            _check_keys(doc, {"type", "value"}, set(), where)
            return ends_mod.ConstantDivision(_int(doc, "value", where))
        if kind == "eventually-constant":
            _check_keys(doc, {"type", "after", "value"}, {"prefix"}, where)
            prefix = doc.get("prefix", [])
            if not isinstance(prefix, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in prefix):
                raise SchemaError(f"{where}.prefix must be a list of integers")
            return ends_mod.EventuallyConstantDivision(
                _int(doc, "after", where), _int(doc, "value", where), tuple(prefix))
        if kind == "strictly-increasing":
            _check_keys(doc, {"type"}, set(), where)
            return ends_mod.StrictlyIncreasingDivision()
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    raise SchemaError(f"{where}.type is not a division rule")


def division_tail_doc(tail) -> dict:
    if isinstance(tail, ends_mod.ConstantDivision):
        return {"type": "constant", "value": tail.value}
    if isinstance(tail, ends_mod.EventuallyConstantDivision):
        doc = {"type": "eventually-constant", "after": tail.after, "value": tail.value}
        if tail.prefix:
            doc["prefix"] = list(tail.prefix)
        return doc
    return {"type": "strictly-increasing"}


def parse_rotative(doc: Any, where: str = "rotative"):
    _check_keys(doc, {"sign"}, {"n", "infinite"}, where)
    sign = _sign(doc["sign"], f"{where}.sign")
    if doc.get("infinite", False):
        _check_keys(doc, {"sign", "infinite"}, set(), where)
        return ends_mod.InfiniteRotativity(sign)
    n = _int(doc, "n", where) if "n" in doc else 0
    if n < 0:
        raise SchemaError(f"{where}.n must be >= 0")
    return (sign,) * n


def rotative_doc(rot) -> dict:
    if isinstance(rot, ends_mod.InfiniteRotativity):
        return {"infinite": True, "sign": _sign_str(rot.sign)}
    sign = rot[0] if rot else POSITIVE
    return {"n": len(rot), "sign": _sign_str(sign)}


def _torus(doc: Any, where: str) -> ends_mod.TorusRecord:
    _check_keys(doc, {"slope"}, {"div"}, where)
    division = _int(doc, "div", where) if "div" in doc else 1
    return _schema(where, ends_mod.TorusRecord, _slope(doc["slope"], f"{where}.slope"), division)


def parse_end(doc: Any, where: str = "end") -> ends_mod.EndDescription:
    _check_keys(doc, {"boundary", "target"}, {"signs", "division_tail", "rotative"}, where)
    boundary = _torus(doc["boundary"], f"{where}.boundary")
    target = parse_target(doc["target"], f"{where}.target")
    signs = parse_signs(doc["signs"], f"{where}.signs") if "signs" in doc else inv_mod.SignData()
    division_tail = (parse_division_tail(doc["division_tail"], f"{where}.division_tail")
                     if "division_tail" in doc else ends_mod.ConstantDivision(1))
    rotative = parse_rotative(doc["rotative"], f"{where}.rotative") if "rotative" in doc else ()
    return ends_mod.EndDescription(boundary, target, signs, division_tail, rotative)


def end_doc(e: ends_mod.EndDescription) -> dict:
    return {
        "boundary": {"slope": str(e.boundary.slope), "div": e.boundary.division},
        "target": target_doc(e.target),
        "signs": signs_doc(e.signs),
        "division_tail": division_tail_doc(e.division_tail),
        "rotative": rotative_doc(e.rotative),
    }


# ---------------------------------------------------------------------------
# invariant documents


def count_tail_doc(tail) -> dict:
    if isinstance(tail, inv_mod.SaturatedCounts):
        return {"type": "saturated"}
    if isinstance(tail, inv_mod.ZeroCounts):
        return {"type": "zero"}
    return {"type": "pattern", "pattern": [_sign_str(s) for s in tail.pattern], "anchor": tail.anchor}


def infinite_block_doc(form) -> dict:
    if isinstance(form, inv_mod.PosFinite):
        return {"form": "pos", "m": form.m}
    if isinstance(form, inv_mod.NegFinite):
        return {"form": "neg", "m": form.m}
    if isinstance(form, inv_mod.AlternatingForm):
        return {"form": "alt"}
    return {"form": "both", "p": form.positive, "n": form.negative}


def invariant_doc(inv) -> dict:
    if isinstance(inv, ends_mod.MinimallyTwisting):
        inv = inv.invariant
    if isinstance(inv, ends_mod.NonMinimallyTwisting):
        rot = "inf" if inv.rotativity is None else inv.rotativity
        return {
            "kind": "nonminimal",
            "rotativity": rot,
            "sign": _sign_str(inv.sign),
            "residual": invariant_doc(inv.residual) if inv.residual is not None else None,
        }
    if isinstance(inv, ends_mod.InfiniteDivision):
        return {
            "kind": "infinite-division",
            "annuli": {"tb_start": inv.descriptor.tb_start, "tb_step": inv.descriptor.tb_step},
        }
    if isinstance(inv, inv_mod.AttainedInvariant):
        return {"kind": "attained", "f": list(inv.finite_f), "d": inv.boundary_division}
    if isinstance(inv, inv_mod.RationalNonAttainedInvariant):
        return {"kind": "rational", "f": list(inv.finite_f),
                "infinite": infinite_block_doc(inv.infinite_block)}
    return {"kind": "irrational", "f": list(inv.counts), "tail": count_tail_doc(inv.tail)}


def parse_invariant_document(doc: Any, where: str = "invariant") -> dict:
    """Validate an invariant document against its schema; returns the doc."""
    _check_keys(doc, {"kind"}, {"f", "d", "infinite", "tail", "rotativity", "sign", "residual", "annuli"}, where)
    kind = doc["kind"]
    if kind == "attained":
        _check_keys(doc, {"kind", "f", "d"}, set(), where)
        _validate_f(doc["f"], where)
        if _int(doc, "d", where) < 1:
            raise SchemaError(f"{where}.d must be >= 1")
    elif kind == "rational":
        _check_keys(doc, {"kind", "f", "infinite"}, set(), where)
        _validate_f(doc["f"], where)
        form = _check_keys(doc["infinite"], {"form"}, {"m", "p", "n"}, f"{where}.infinite")
        if form["form"] not in ("pos", "neg", "alt", "both"):
            raise SchemaError(f"{where}.infinite.form is unknown")
        if form["form"] in ("pos", "neg") and _int(form, "m", where) < 0:
            raise SchemaError(f"{where}.infinite.m must be >= 0")
    elif kind == "irrational":
        _check_keys(doc, {"kind", "f", "tail"}, set(), where)
        _validate_f(doc["f"], where)
        tail = _check_keys(doc["tail"], {"type"}, {"pattern", "anchor"}, f"{where}.tail")
        if tail["type"] not in ("saturated", "zero", "pattern"):
            raise SchemaError(f"{where}.tail.type is unknown")
        if tail["type"] == "pattern":
            _check_keys(tail, {"type", "pattern", "anchor"}, set(), f"{where}.tail")
            for s in tail["pattern"]:
                _sign(s, f"{where}.tail.pattern")
    elif kind == "nonminimal":
        _check_keys(doc, {"kind", "rotativity", "sign", "residual"}, set(), where)
        rot = doc["rotativity"]
        if rot != "inf" and (isinstance(rot, bool) or not isinstance(rot, int) or rot < 1):
            raise SchemaError(f"{where}.rotativity must be a positive integer or \"inf\"")
        _sign(doc["sign"], f"{where}.sign")
        if doc["residual"] is not None:
            parse_invariant_document(doc["residual"], f"{where}.residual")
    elif kind == "infinite-division":
        _check_keys(doc, {"kind", "annuli"}, set(), where)
        _check_keys(doc["annuli"], {"tb_start", "tb_step"}, set(), f"{where}.annuli")
    else:
        raise SchemaError(f"{where}.kind is unknown")
    return doc


def _validate_f(f: Any, where: str):
    if not isinstance(f, list) or any(isinstance(v, bool) or not isinstance(v, int) or v < 0 for v in f):
        raise SchemaError(f"{where}.f must be a list of non-negative integers")


def block_doc(b: blocks_mod.Block) -> dict:
    return {
        "start": b.start_index,
        "end": b.end_index,
        "length": b.length,
        "witness": list(b.witness.entries()),
        "infinite": b.infinite,
    }


# ---------------------------------------------------------------------------
# command implementations


def _check_output_budget(size: int, what: str):
    """Refuse an answer past OUTPUT_BUDGET items.  Callers walk at most
    OUTPUT_BUDGET + 1 items whatever was asked for, so a path that ends
    sooner still answers in full."""
    if size > OUTPUT_BUDGET:
        raise ToricEndError(f"the answer would list more than OUTPUT_BUDGET = {OUTPUT_BUDGET} {what}")


def _digits_error(what: str) -> ToricEndError:
    return ToricEndError(f"the answer would hold {what} of more than {sys.get_int_max_str_digits()} "
                         "digits, the limit of int-to-text conversion")


def _check_digits(values, what: str):
    """Refuse an answer holding an integer that json.dumps cannot write:
    one with more decimal digits than sys.get_int_max_str_digits(), a
    limit that guards against quadratic-time conversion.  An integer of at
    most 3 * limit bits is within it, so only longer ones are compared."""
    limit = sys.get_int_max_str_digits()
    if limit and any(v.bit_length() > 3 * limit and abs(v) >= 10 ** limit for v in values):
        raise _digits_error(what)


def _cmd_path(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"start", "target", "n"}, set(), "input")
    n = _positive_int(doc, "n", "input")
    path = farey_sequence(_slope(doc["start"], "input.start"), parse_target(doc["target"]),
                          min(n, OUTPUT_BUDGET + 1))
    _check_output_budget(len(path), "vertices")
    try:
        return {"vertices": path.prefix_text(len(path))}
    except ValueError:  # str() of an entry past sys.get_int_max_str_digits()
        raise _digits_error("a vertex entry") from None


def _cmd_blocks(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"start", "target"}, {"count"}, "input")
    count = _positive_int(doc, "count", "input") if "count" in doc else options["horizon"]
    path = FareyPath(_slope(doc["start"], "input.start"), parse_target(doc["target"]))
    decomp = blocks_mod.decompose(path)
    blocks = decomp.blocks_up_to(min(count, OUTPUT_BUDGET + 1))
    _check_output_budget(len(blocks), "blocks")
    docs = [block_doc(b) for b in blocks]
    _check_digits((x for d in docs for x in d["witness"]), "a witness entry")
    return {"blocks": docs, "complete": decomp.finished}


def _cmd_classify(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"end"}, set(), "input")
    return invariant_doc(ends_mod.classify(parse_end(doc["end"])))


def _cmd_compare(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"a", "b"}, set(), "input")
    a = ends_mod.classify(parse_end(doc["a"], "a"))
    b = ends_mod.classify(parse_end(doc["b"], "b"))
    return {"equivalent": inv_mod.equivalent(a, b, options["horizon"])}


def _cmd_count(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"lengths"}, set(), "input")
    lengths = doc["lengths"]
    if (not isinstance(lengths, list) or not lengths
            or any(isinstance(v, bool) or not isinstance(v, int) for v in lengths)):
        raise SchemaError("input.lengths must be a nonempty list of integers")
    try:
        total = inv_mod.count_invariants(lengths)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    out = {"count": total}
    if any(m == 1 for m in lengths):
        out["note"] = "length-1 blocks carry no basic slices and contribute factor 1"
    return out


def _cmd_euler(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"end"}, {"horizon"}, "input")
    horizon = _positive_int(doc, "horizon", "input") if "horizon" in doc else options["horizon"]
    e = parse_end(doc["end"])
    violations = ends_mod.validate(e)
    if violations:
        raise ValidationError(violations)
    target = ends_mod.normalized_target(e)
    if target.attained and target.slope == ends_mod.BASE_SLOPE:
        return {"euler": [0, 0], "slices": 0}
    path = FareyPath(ends_mod.BASE_SLOPE, target)
    decomp = blocks_mod.decompose(path)
    cls = inv_mod.euler_class(decomp, e.signs, horizon)
    _check_digits(cls.as_pair(), "an euler entry")
    slices = len(path) - 1 if path.complete else horizon
    return {"euler": [cls.x, cls.y], "slices": slices}


def _cmd_extend_check(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"end"}, set(), "input")
    inv = ends_mod.classify(parse_end(doc["end"]))
    result = ends_mod.extension_obstruction(inv, options["horizon"])
    if isinstance(result, ends_mod.NoTightExtension):
        return {"result": "no-tight-extension", "reason": result.reason}
    if isinstance(result, ends_mod.ExtendsByConstruction):
        return {"result": "extends-by-construction"}
    return {"result": "unknown", "horizon": result.horizon}


def _cmd_family(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"target", "k"}, {"start"}, "input")
    k = _int(doc, "k", "input")
    if k < 0:
        raise SchemaError("input.k must be >= 0")
    if k > options["max_family"]:
        raise SchemaError(f"input.k exceeds the family cap {options['max_family']}")
    start = _slope(doc["start"], "input.start") if "start" in doc else ends_mod.BASE_SLOPE
    members = ends_mod.non_extendable_family(parse_target(doc["target"]), k, start, options["horizon"])
    return {"invariants": [invariant_doc(m) for m in members]}


def _cmd_reduce_solid_torus(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"end"}, set(), "input")
    e = parse_end(doc["end"])
    pair = reduce_mod.classify_solid_torus(e)
    rest = e if pair.s_of_r is None else reduce_mod.solid_torus_factor(e).end
    return {"s": None if pair.s_of_r is None else str(pair.s_of_r),
            "invariant": invariant_doc(pair.invariant), "end": end_doc(rest)}


def _cmd_reduce_t2xr(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"plus", "minus", "middle"}, set(), "input")
    middle = _torus(doc["middle"], "input.middle")
    annulus = reduce_mod.OpenToricAnnulus(
        parse_end(doc["plus"], "plus"), parse_end(doc["minus"], "minus"), middle)
    norm = reduce_mod.normalize_rotativity(annulus)
    return {
        "plus": end_doc(norm.plus),
        "minus": end_doc(norm.minus),
        "middle": {"slope": str(norm.middle.slope), "div": norm.middle.division},
        "plus_invariant": invariant_doc(ends_mod.classify(norm.plus)),
        "minus_invariant": invariant_doc(ends_mod.classify(norm.minus)),
        "framing": list(reduce_mod.REFLECTION),
    }


_RUNNERS = {
    "path": _cmd_path,
    "blocks": _cmd_blocks,
    "classify": _cmd_classify,
    "compare": _cmd_compare,
    "count": _cmd_count,
    "euler": _cmd_euler,
    "extend-check": _cmd_extend_check,
    "family": _cmd_family,
    "reduce-solid-torus": _cmd_reduce_solid_torus,
    "reduce-t2xr": _cmd_reduce_t2xr,
}


# ---------------------------------------------------------------------------
# driver


def run_command(command: str, doc: Any, options: dict) -> dict:
    if command not in _RUNNERS:
        raise SchemaError(f"unknown command {command!r}")
    return _RUNNERS[command](doc, options)


def _render_human(doc: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_render_human(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value)}")
        return "\n".join(lines)
    if isinstance(doc, list):
        return "\n".join(
            _render_human(item, indent) if isinstance(item, (dict, list))
            else f"{pad}- {json.dumps(item)}"
            for item in doc
        )
    return f"{pad}{json.dumps(doc)}"


def _emit(doc: Any, fmt: str, out) -> None:
    if fmt == "human":
        out.write(_render_human(doc) + "\n")
    else:
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _load_input(args) -> Any:
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past sys.get_int_max_str_digits()
        raise SchemaError(f"input is not valid JSON: {exc}") from None


def _run_batch(jobs: Any, options: dict) -> tuple[list, int]:
    if not isinstance(jobs, list):
        raise SchemaError("batch input must be a list of job objects")
    results = []
    status = 0
    for i, job in enumerate(jobs):
        _check_keys(job, {"command", "input"}, {"options"}, f"job[{i}]")
        try:
            job_options = dict(options)
            if "options" in job:
                odoc = _check_keys(job["options"], set(), {"horizon"}, f"job[{i}].options")
                if "horizon" in odoc:
                    job_options["horizon"] = _positive_int(odoc, "horizon", f"job[{i}].options")
            output = run_command(job["command"], job["input"], job_options)
            results.append({"status": "ok", "output": output})
        except SchemaError as exc:
            results.append({"status": "malformed", "error": str(exc)})
            status = 2
        except ToricEndError as exc:
            results.append({"status": "violation", "error": str(exc)})
            if status == 0:
                status = 1
    return results, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="toric-ends",
        description="Classification data for tight contact structures on toric ends.",
    )
    parser.add_argument("command", choices=COMMANDS + ("run",),
                        help="operation to run; `run` processes a batch list of jobs")
    parser.add_argument("--input", default="-", help="input JSON file (default: stdin)")
    parser.add_argument("--output", default="-", help="output file (default: stdout)")
    parser.add_argument("--horizon", type=int, default=64,
                        help="blocks/slices scanned where no exact rule applies: coefficient-stream "
                             "decisions, euler truncation, the blocks count and the family block "
                             "search; quadratic decisions never read it (default 64)")
    parser.add_argument("--format", choices=("structured", "human"), default="structured")
    parser.add_argument("--max-family", type=int, default=DEFAULT_MAX_FAMILY,
                        help="cap on family sizes (default 10000)")
    args = parser.parse_args(argv)

    if args.horizon < 1:
        print("horizon must be >= 1", file=sys.stderr)
        return 2
    options = {"horizon": args.horizon, "max_family": args.max_family}

    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    try:
        doc = _load_input(args)
        if args.command == "run":
            results, status = _run_batch(doc, options)
            _emit(results, args.format, out)
            return status
        output = run_command(args.command, doc, options)
        _emit(output, args.format, out)
        return 0
    except SchemaError as exc:
        _emit({"error": str(exc)}, args.format, out)
        return 2
    except ToricEndError as exc:
        doc = {"error": str(exc)}
        if isinstance(exc, ValidationError):
            doc["violations"] = exc.violations
        _emit(doc, args.format, out)
        return 1
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    raise SystemExit(main())
