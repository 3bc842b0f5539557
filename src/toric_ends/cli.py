"""Command line interface: one JSON document per job, deterministic output.

Exit codes: 0 success, 1 validation or domain violation, 2 malformed input.
The same schema is used for input and structured output, so classify output
re-parses as a valid invariant document.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from operator import attrgetter

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
    parse_slope,
)
from .invariants import NEGATIVE, POSITIVE

DEFAULT_MAX_FAMILY = 10_000

# most vertices a path answer and most blocks a blocks answer may list
OUTPUT_BUDGET = 10**6

# most digits of an answer's integer when int-to-text conversion has no
# limit: Python's default limit, as a walk stopped by it stores entries
# whose total size grows quadratically with it
DIGITS_BUDGET = 4300


# ---------------------------------------------------------------------------
# document tables: each document kind is one Document, read both to decode a
# document with every check and to encode a record.  A field's codec is a
# pair (decode, encode): decode(value, where, key) checks and converts the
# value under `key` of the document at `where`; encode converts back (None:
# as it is; a result of _MISSING leaves the key out).


def _check_keys(doc: object, required: set[str], optional: set[str] = frozenset(), where: str = "document") -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object")
    if optional.issuperset(doc) and doc.keys() >= required:  # the common case, with no sets built
        return doc
    unknown = doc.keys() - required - optional
    if unknown:
        raise SchemaError(f"{where} has unknown fields: {sorted(unknown)}")
    missing = required - doc.keys()
    if missing:
        raise SchemaError(f"{where} is missing fields: {sorted(missing)}")
    return doc


def _int(value: object, where: str, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}.{key} must be an integer")
    return value


def _at_least(low: int):
    def decode(value: object, where: str, key: str) -> int:
        if _int(value, where, key) < low:
            raise SchemaError(f"{where}.{key} must be >= {low}")
        return value
    return decode


_nonnegative = _at_least(0)
_positive = _at_least(1)


def _bool(value: object, where: str, key: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where}.{key} must be a boolean")
    return value


def _slope(text: object, where: str, key: str) -> Slope:
    if not isinstance(text, str):
        raise SchemaError(f"{where}.{key} must be a slope string like \"-1/1\"")
    try:
        return parse_slope(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}.{key}: {exc}") from None


_SIGN_OF_TEXT = {"+": POSITIVE, "-": NEGATIVE}


def _signs(texts: object, where: str, key: str) -> tuple[int, ...]:
    if not isinstance(texts, list):
        raise SchemaError(f"{where}.{key} must be a list")
    try:  # an entry that is not a key, or not even hashable, is no sign
        return tuple([_SIGN_OF_TEXT[s] for s in texts])
    except (KeyError, TypeError):
        raise SchemaError(f"{where}.{key} must be \"+\" or \"-\"") from None


def _sign(text: object, where: str, key: str) -> int:
    return _signs([text], where, key)[0]


def _pattern(texts: object, where: str, key: str) -> tuple[int, ...]:
    if not isinstance(texts, list) or not texts:
        raise SchemaError(f"{where}.{key} must be a nonempty list")
    return _signs(texts, where, key)


def _count_pattern(texts: object, where: str, key: str) -> tuple[int, ...]:
    """A count tail's pattern, as invariant_doc writes it: mixed and
    primitive (single-sign and repeated patterns normalize to other tails)."""
    pattern = _pattern(texts, where, key)
    if len(set(pattern)) == 1:
        raise SchemaError(f"{where}.{key} must hold both signs")
    if len(inv_mod._primitive_pattern(pattern)) < len(pattern):
        raise SchemaError(f"{where}.{key} must be primitive, not a repeat of a shorter pattern")
    return pattern


def _ints(values: object, where: str, key: str) -> tuple[int, ...]:
    if not isinstance(values, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in values):
        raise SchemaError(f"{where}.{key} must be a list of integers")
    return tuple(values)


def _counts(values: object, where: str, key: str) -> tuple[int, ...]:
    if not isinstance(values, list) or any(isinstance(v, bool) or not isinstance(v, int) or v < 0
                                           for v in values):
        raise SchemaError(f"{where}.{key} must be a list of non-negative integers")
    return tuple(values)


def _rotativity(value: object, where: str, key: str) -> int | None:
    if value == "inf":  # infinitely many layers
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError(f"{where}.{key} must be a positive integer or \"inf\"")
    return value


def _residual(value: object, where: str, key: str):
    return None if value is None else INVARIANT.decode(value, f"{where}.{key}")


_SIGN_TEXT = {POSITIVE: "+", NEGATIVE: "-"}


def _sign_texts(signs: tuple[int, ...]) -> list[str]:
    return [_SIGN_TEXT[s] for s in signs]


_MISSING = object()
INT = (_int, None)
NONNEGATIVE = (_nonnegative, None)
POSITIVE_INT = (_positive, None)
BOOL = (_bool, None)
SLOPE = (_slope, str)
SIGN = (_sign, _SIGN_TEXT.__getitem__)
SIGNS = (_signs, _sign_texts)
PATTERN = (_pattern, _sign_texts)
COUNT_PATTERN = (_count_pattern, _sign_texts)
INTS = (_ints, lambda values: list(values) if values else _MISSING)
COUNTS = (_counts, list)
ROTATIVITY = (_rotativity, lambda n: "inf" if n is None else n)
RESIDUAL = (_residual, lambda inv: None if inv is None else invariant_doc(inv))


def field(key: str, codec: tuple, attr=None, default: object = _MISSING) -> tuple:
    """A document key as (key, decode, encode, get, default): its codec, the
    getter of the record attribute it holds (the key unless named; a dotted
    name reaches into the record, and a function is the getter itself) and
    its default when it may be left out."""
    return (key, *codec, attr if callable(attr) else attrgetter(attr or key), default)


class Variant:
    """One form of a document: the record class it stands for, its fields,
    and `make`, which builds the record from the decoded fields (the class
    itself unless given)."""

    def __init__(self, cls: type, *fields: tuple, make=None):
        self.cls = cls
        self.fields = fields
        self.make = make or cls
        self.keys = frozenset(f[0] for f in fields)
        self.required = frozenset(f[0] for f in fields if f[-1] is _MISSING)


class Document:
    """A document kind: one variant, or several told apart by the value under
    the key `tag` (`default_tag` when the key is left out).  `bad_tag` is the
    phrase that refuses an unknown value."""

    def __init__(self, variants: dict, tag: str | None = None, bad_tag: str = "", default_tag: object = None):
        self.variants = variants
        self.tag = tag
        self.bad_tag = bad_tag
        self.default_tag = default_tag
        self.tag_class = type(next(iter(variants)))
        self.only = variants[None] if tag is None else None
        for value, variant in variants.items():
            if tag is not None:
                variant.keys |= {tag}
                variant.required |= set() if value is default_tag else {tag}
        self.by_class = {variant.cls: (value, variant.fields) for value, variant in variants.items()}
        # the keys that some variant allows, and the keys that all require
        self.keys = frozenset().union(*(v.keys for v in variants.values()))
        self.required = frozenset.intersection(*(v.required for v in variants.values()))
        self.codec = (self.decode_field, self.encode)

    def decode(self, doc: object, where: str):
        """The record of the document at `where`, or a SchemaError naming its
        first fault: keys that no variant allows or that all require, the
        tag, the keys of the tag's variant, then each field in order."""
        variant = self.only
        if variant is None:
            _check_keys(doc, self.required, self.keys, where)
            tag = doc.get(self.tag, self.default_tag)
            variant = self.variants.get(tag) if tag.__class__ is self.tag_class else None
            if variant is None:
                raise SchemaError(f"{where}.{self.tag} {self.bad_tag}")
        _check_keys(doc, variant.required, variant.keys, where)
        values = []
        for key, decode, _, _, default in variant.fields:
            value = doc.get(key, _MISSING)
            values.append(default if value is _MISSING else decode(value, where, key))
        try:
            return variant.make(*values)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: {exc}") from None

    def decode_field(self, doc: object, where: str, key: str):
        return self.decode(doc, f"{where}.{key}")

    def encode(self, record) -> dict:
        entry = self.by_class.get(record.__class__)
        if entry is None:
            raise SchemaError(f"{record.__class__.__name__} records have no document form")
        tag, fields = entry
        doc = {} if tag is self.default_tag else {self.tag: tag}
        for key, _, encode, get, _ in fields:
            value = get(record) if encode is None else encode(get(record))
            if value is not _MISSING:
                doc[key] = value
        return doc


def _checked_only(*values):
    """Invariant documents are only checked: no document holds a decomposition."""
    return values


TARGET = Document({
    "rational": Variant(RationalTarget, field("slope", SLOPE), field("attained", BOOL)),
    "quadratic": Variant(QuadraticTarget,
                         *(field(k, INT, lambda t, i=i: t.written()[i]) for i, k in enumerate("abcd")),
                         make=QuadraticTarget.of),
}, "kind", "must be \"rational\" or \"quadratic\"")

SIGN_TAIL = Document({
    "none": Variant(type(None), make=lambda: None),
    "all-positive": Variant(inv_mod.AllPositive),
    "all-negative": Variant(inv_mod.AllNegative),
    "eventually": Variant(inv_mod.EventuallySign, field("sign", SIGN), field("after", INT)),
    "alternating": Variant(inv_mod.Alternating, field("first", SIGN, default=POSITIVE)),
    "periodic": Variant(inv_mod.Periodic, field("pattern", PATTERN)),
}, "type", "is not a sign tail rule")

SIGN_DATA = Document({None: Variant(
    inv_mod.SignData, field("prefix", SIGNS, default=()), field("tail", SIGN_TAIL.codec, default=None))})

DIVISION_TAIL = Document({
    "constant": Variant(ends_mod.ConstantDivision, field("value", INT)),
    "eventually-constant": Variant(ends_mod.EventuallyConstantDivision, field("after", INT), field("value", INT),
                                   field("prefix", INTS, default=())),
    "strictly-increasing": Variant(ends_mod.StrictlyIncreasingDivision),
}, "type", "is not a division rule")

TORUS = Document({None: Variant(
    ends_mod.TorusRecord, field("slope", SLOPE), field("div", INT, "division", default=1))})

ROTATIVE = Document({
    False: Variant(ends_mod.RotativeLayers, field("sign", SIGN), field("n", NONNEGATIVE, default=0)),
    True: Variant(ends_mod.InfiniteRotativity, field("sign", SIGN)),
}, "infinite", "must be a boolean", default_tag=False)

END = Document({None: Variant(
    ends_mod.EndDescription,
    field("boundary", TORUS.codec),
    field("target", TARGET.codec),
    field("signs", SIGN_DATA.codec, default=inv_mod.SignData()),
    field("division_tail", DIVISION_TAIL.codec, default=ends_mod.ConstantDivision(1)),
    field("rotative", ROTATIVE.codec, default=ends_mod.NO_LAYERS),
)})

COUNT_TAIL = Document({
    "saturated": Variant(inv_mod.SaturatedCounts),
    "zero": Variant(inv_mod.ZeroCounts),
    "pattern": Variant(inv_mod.PatternCounts, field("pattern", COUNT_PATTERN), field("anchor", INT)),
}, "type", "is unknown")

INFINITE_BLOCK = Document({
    "pos": Variant(inv_mod.PosFinite, field("m", NONNEGATIVE)),
    "neg": Variant(inv_mod.NegFinite, field("m", NONNEGATIVE)),
    "alt": Variant(inv_mod.AlternatingForm),
    "both": Variant(inv_mod.BothFinite, field("p", NONNEGATIVE, "positive"), field("n", NONNEGATIVE, "negative")),
}, "form", "is unknown")

ANNULI = Document({None: Variant(inv_mod.NestedAnnuli, field("tb_start", INT), field("tb_step", INT))})

INVARIANT = Document({
    "attained": Variant(inv_mod.AttainedInvariant, field("f", COUNTS, "finite_f"),
                        field("d", POSITIVE_INT, "boundary_division"), make=_checked_only),
    "rational": Variant(inv_mod.RationalNonAttainedInvariant, field("f", COUNTS, "finite_f"),
                        field("infinite", INFINITE_BLOCK.codec, "infinite_block"), make=_checked_only),
    "irrational": Variant(inv_mod.IrrationalInvariant, field("f", COUNTS, "counts"),
                          field("tail", COUNT_TAIL.codec), make=_checked_only),
    "nonminimal": Variant(inv_mod.NonMinimallyTwisting, field("rotativity", ROTATIVITY), field("sign", SIGN),
                          field("residual", RESIDUAL), make=_checked_only),
    "infinite-division": Variant(inv_mod.InfiniteDivision, field("annuli", ANNULI.codec, "descriptor"),
                                 make=_checked_only),
}, "kind", "is unknown")


invariant_doc = INVARIANT.encode


def parse_invariant_document(doc: object, where: str = "invariant") -> dict:
    """Check an invariant document against its table; returns the doc."""
    INVARIANT.decode(doc, where)
    return doc


def block_doc(b: blocks_mod.Block) -> dict:
    return {
        "start": b.start_index,
        "end": b.end_index,
        "length": b.length,
        "witness": list(b.witness_entries),
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
    limit = sys.get_int_max_str_digits()
    return ToricEndError(f"the answer would hold {what} of more than " + (
        f"{limit} digits, the limit of int-to-text conversion" if limit
        else f"DIGITS_BUDGET = {DIGITS_BUDGET} digits, with no limit on int-to-text conversion"))


@lru_cache(maxsize=1)
def _text_bound(limit: int) -> int:
    """The least integer that str() and json.dumps refuse to write for
    limit = sys.get_int_max_str_digits(), a limit that guards against
    quadratic-time conversion: 10 ** limit, or 10 ** DIGITS_BUDGET when
    there is no limit."""
    return 10 ** (limit or DIGITS_BUDGET)


def _check_digits(values, what: str):
    """Refuse an answer holding an integer past the _text_bound."""
    if max(map(abs, values)) >= _text_bound(sys.get_int_max_str_digits()):
        raise _digits_error(what)


def _cmd_path(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"start", "target", "n"}, set(), "input")
    n = min(_positive(doc["n"], "input", "n"), OUTPUT_BUDGET + 1)
    path = FareyPath(_slope(doc["start"], "input", "start"), TARGET.decode(doc["target"], "target"))
    # the walk stops at the first run end past the bound, so that no
    # vertex past it is walked; the start and every vertex before the last
    # are then within the bound, and only the last one is checked
    size = path.extend_to(n, _text_bound(sys.get_int_max_str_digits()))
    _check_output_budget(size, "vertices")
    last = path.vertex(size - 1)
    _check_digits((last.p, last.q), "a vertex entry")
    return {"vertices": path.prefix_text(size)}


def _cmd_blocks(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"start", "target"}, {"count"}, "input")
    count = _positive(doc["count"], "input", "count") if "count" in doc else options["horizon"]
    path = FareyPath(_slope(doc["start"], "input", "start"), TARGET.decode(doc["target"], "target"))
    decomp = blocks_mod.decompose(path)
    size = min(count, OUTPUT_BUDGET + 1)
    docs = []
    # block by block, so that the walk stops at the first over-long witness
    while len(docs) < size and decomp.has_block(len(docs) + 1):
        docs.append(block_doc(decomp.block(len(docs) + 1)))
        _check_digits(docs[-1]["witness"], "a witness entry")
    _check_output_budget(len(docs), "blocks")
    return {"blocks": docs, "complete": decomp.finished}


def _cmd_classify(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"end"}, set(), "input")
    return invariant_doc(ends_mod.classify(END.decode(doc["end"], "end")))


def _cmd_compare(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"a", "b"}, set(), "input")
    a = ends_mod.classify(END.decode(doc["a"], "a"))
    b = ends_mod.classify(END.decode(doc["b"], "b"))
    return {"equivalent": inv_mod.equivalent(a, b, options["horizon"])}


def _cmd_count(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"lengths"}, set(), "input")
    lengths = doc["lengths"]
    if (not isinstance(lengths, list) or not lengths
            or any(isinstance(v, bool) or not isinstance(v, int) for v in lengths)):
        raise SchemaError("input.lengths must be a nonempty list of integers")
    if any(m < 1 for m in lengths):
        raise SchemaError("block lengths must be >= 1")
    # the lengths are at least 1, so the partial products never shrink, and
    # the first one past the _text_bound is refused before the rest is multiplied
    bound = _text_bound(sys.get_int_max_str_digits())
    total = 1
    for m in lengths:
        total *= m
        if total >= bound:
            raise _digits_error("a count")
    out = {"count": total}
    if any(m == 1 for m in lengths):
        out["note"] = "length-1 blocks carry no basic slices and contribute factor 1"
    return out


def _cmd_euler(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"end"}, {"horizon"}, "input")
    horizon = _positive(doc["horizon"], "input", "horizon") if "horizon" in doc else options["horizon"]
    e = END.decode(doc["end"], "end")
    ends_mod.require_valid(e)
    target = ends_mod.normalized_target(e)
    if target.attained and target.slope == ends_mod.BASE_SLOPE:
        return {"euler": [0, 0], "slices": 0}
    path = FareyPath(ends_mod.BASE_SLOPE, target)
    decomp = blocks_mod.decompose(path)
    cls = inv_mod.euler_class(decomp, e.signs, horizon, _text_bound(sys.get_int_max_str_digits()))
    if cls is None:
        raise _digits_error("an euler entry")
    slices = len(path) - 1 if path.complete else horizon
    return {"euler": [cls.x, cls.y], "slices": slices}


def _cmd_extend_check(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"end"}, set(), "input")
    inv = ends_mod.classify(END.decode(doc["end"], "end"))
    result = ends_mod.extension_obstruction(inv, options["horizon"])
    if isinstance(result, ends_mod.NoTightExtension):
        return {"result": "no-tight-extension", "reason": result.reason}
    if isinstance(result, ends_mod.ExtendsByConstruction):
        return {"result": "extends-by-construction"}
    return {"result": "unknown", "horizon": result.horizon}


def _cmd_family(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"target", "k"}, {"start"}, "input")
    k = _nonnegative(doc["k"], "input", "k")
    if k > options["max_family"]:
        raise SchemaError(f"input.k exceeds the family cap {options['max_family']}")
    start = _slope(doc["start"], "input", "start") if "start" in doc else ends_mod.BASE_SLOPE
    members = ends_mod.non_extendable_family(TARGET.decode(doc["target"], "target"), k, start,
                                             options["horizon"])
    return {"invariants": [invariant_doc(m) for m in members]}


def _cmd_reduce_solid_torus(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"end"}, set(), "input")
    s_of_r, rest = reduce_mod.complementary_end(END.decode(doc["end"], "end"))
    return {"s": None if s_of_r is None else str(s_of_r),
            "invariant": invariant_doc(ends_mod.classify(rest)), "end": END.encode(rest)}


def _cmd_reduce_t2xr(doc: dict, options: dict) -> dict:
    _check_keys(doc, {"plus", "minus", "middle"}, set(), "input")
    middle = TORUS.decode(doc["middle"], "input.middle")
    annulus = reduce_mod.OpenToricAnnulus(
        END.decode(doc["plus"], "plus"), END.decode(doc["minus"], "minus"), middle)
    norm = reduce_mod.normalize_rotativity(annulus)
    return {
        "plus": END.encode(norm.plus),
        "minus": END.encode(norm.minus),
        "middle": TORUS.encode(norm.middle),
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
COMMANDS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# driver


def run_command(command: str, doc: object, options: dict) -> dict:
    if not isinstance(command, str):
        raise SchemaError(f"command must be a string, not {type(command).__name__}")
    if command not in _RUNNERS:
        raise SchemaError(f"unknown command {command!r}")
    return _RUNNERS[command](doc, options)


def _render_human(doc: object, indent: int = 0) -> str:
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


def _emit(doc: object, fmt: str, out) -> None:
    if fmt == "human":
        out.write(_render_human(doc) + "\n")
    else:
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _load_input(args) -> object:
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past sys.get_int_max_str_digits()
        raise SchemaError(f"input is not valid JSON: {exc}") from None


def _run_batch(jobs: object, options: dict) -> tuple[list, int]:
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
                    job_options["horizon"] = _positive(odoc["horizon"], f"job[{i}].options", "horizon")
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
    if args.max_family < 0:
        print("max-family must be >= 0", file=sys.stderr)
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
