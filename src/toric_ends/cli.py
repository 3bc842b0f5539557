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
from json.encoder import encode_basestring_ascii

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

# characters of `run` answers gathered before each write: with an
# unbuffered stdout, one write per answer costs a system call per answer
WRITE_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# document tables: each document kind is one Document, read both to decode a
# document with every check and to encode a record.  A field's codec is a
# pair (decode, encode), or a triple (decode, encode, keep):
# decode(value, where, key) checks and converts the value under `key` of the
# document at `where`; encode converts back (None: as it is); a value for
# which keep is false leaves the key out.


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


def _lengths(values: object, where: str, key: str) -> list[int]:
    if (not isinstance(values, list) or not values
            or any(isinstance(v, bool) or not isinstance(v, int) for v in values)):
        raise SchemaError(f"{where}.{key} must be a nonempty list of integers")
    if any(m < 1 for m in values):
        raise SchemaError("block lengths must be >= 1")
    return values


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
NONNEGATIVE = (_at_least(0), None)
POSITIVE_INT = (_at_least(1), None)
BOOL = (_bool, None)
SLOPE = (_slope, str)
SIGN = (_sign, _SIGN_TEXT.__getitem__)
SIGNS = (_signs, _sign_texts)
PATTERN = (_pattern, _sign_texts)
COUNT_PATTERN = (_count_pattern, _sign_texts)
INTS = (_ints, list, bool)
COUNTS = (_counts, list)
LENGTHS = (_lengths, None)
ANY = (lambda value, where, key: value, None)
ROTATIVITY = (_rotativity, lambda n: "inf" if n is None else n)
RESIDUAL = (_residual, lambda inv: None if inv is None else invariant_doc(inv))


def field(key: str, codec: tuple, attr=None, default: object = _MISSING) -> tuple:
    """A document key as (key, decode, encode, keep, attr, default): its
    codec (keep None unless given), the record attribute it holds (the key
    unless named; a dotted name reaches into the record, and a function is
    its getter) and its default when it may be left out."""
    decode, encode, keep = codec if len(codec) == 3 else (*codec, None)
    return (key, decode, encode, keep, attr or key, default)


def _compile_encoders(head: list[str], fields: tuple, name: str) -> tuple:
    """The encoders of one variant, compiled from its fields: encode(r), the
    document of the record r as one dict display, and follow(r, p, q), the
    same document written after the document q of a record p of the same
    class, which shares q's value of each field whose object is p's.
    Records are immutable, so a shared value is the one encode would write."""
    scope, sources = {}, []
    for follow in (False, True):
        items, kept = list(head), []
        for i, (key, _, encode, keep, attr, _) in enumerate(fields):
            scope[f"e{i}"], scope[f"k{i}"], scope[f"g{i}"] = encode, keep, attr
            get = f"r.{attr}" if isinstance(attr, str) else f"g{i}(r)"
            if keep is not None:  # the value is read once, for keep and the encoder
                kept.append(f"    v = {get}")
                get = "v"
            value = get if encode is None else f"e{i}({get})"
            if follow and encode is not None and isinstance(attr, str):
                value = f"q[{key!r}] if {get} is p.{attr} else {value}"
            if keep is None:
                items.append(f"{key!r}: {value}")
            else:
                kept.append(f"    if k{i}(v): d[{key!r}] = {value}")
        signature = "follow(r, p, q)" if follow else "encode(r)"
        display = "{" + ", ".join(items) + "}"
        body = [f"    d = {display}", *kept, "    return d"] if kept else [f"    return {display}"]
        sources.append("\n".join([f"def {signature}:", *body]))
    exec(compile("\n".join(sources), f"<{name} document>", "exec"), scope)
    return scope["encode"], scope["follow"]


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
        self.encoders = {}  # by record class, compiled on first use (see _compile)
        # the keys that some variant allows, and the keys that all require
        self.keys = frozenset().union(*(v.keys for v in variants.values()))
        self.required = frozenset.intersection(*(v.required for v in variants.values()))
        self.codec = (self.decode_field, self.encode)

    def decode(self, doc: object, where: str):
        """The record of the document at `where`, or a SchemaError naming its
        first fault.  The tag is looked up first: its variant checks the keys
        once (those it does not allow, then those it requires), then each
        field in order.  A non-object or an unknown tag is checked against
        every variant (keys that none allows or that all require), then refused."""
        variant = self.only
        if variant is None:
            tag = doc.get(self.tag, self.default_tag) if isinstance(doc, dict) else None
            variant = self.variants.get(tag) if tag.__class__ is self.tag_class else None
            if variant is None:
                _check_keys(doc, self.required, self.keys, where)
                raise SchemaError(f"{where}.{self.tag} {self.bad_tag}")
        _check_keys(doc, variant.required, variant.keys, where)
        values = []
        for key, decode, _, _, _, default in variant.fields:
            value = doc.get(key, _MISSING)
            values.append(default if value is _MISSING else decode(value, where, key))
        try:
            return variant.make(*values)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: {exc}") from None

    def decode_field(self, doc: object, where: str, key: str):
        return self.decode(doc, f"{where}.{key}")

    def _compile(self, cls: type) -> tuple:
        """The (encode, follow) pair of _compile_encoders for records of class cls."""
        entry = self.by_class.get(cls)
        if entry is None:
            raise SchemaError(f"{cls.__name__} records have no document form")
        tag, fields = entry
        head = [] if tag is self.default_tag else [f"{self.tag!r}: {tag!r}"]
        pair = self.encoders[cls] = _compile_encoders(head, fields, cls.__name__)
        return pair

    def encode(self, record) -> dict:
        return (self.encoders.get(record.__class__) or self._compile(record.__class__))[0](record)

    def encode_list(self, records) -> list[dict]:
        """The documents of records, in order.  A field whose object is the
        previous record's is written once, and the documents share its value."""
        docs, cls = [], None
        for record in records:
            if record.__class__ is cls:
                doc = follow(record, previous, doc)
            else:
                cls = record.__class__
                encode, follow = self.encoders.get(cls) or self._compile(cls)
                doc = encode(record)
            docs.append(doc)
            previous = record
        return docs


def _values(*values):
    """The decoded fields as they are: invariant documents are only checked (no
    document holds a decomposition), and command inputs and jobs are tuples."""
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
                        field("d", POSITIVE_INT, "boundary_division"), make=_values),
    "rational": Variant(inv_mod.RationalNonAttainedInvariant, field("f", COUNTS, "finite_f"),
                        field("infinite", INFINITE_BLOCK.codec, "infinite_block"), make=_values),
    "irrational": Variant(inv_mod.IrrationalInvariant, field("f", COUNTS, "counts"),
                          field("tail", COUNT_TAIL.codec), make=_values),
    "nonminimal": Variant(inv_mod.NonMinimallyTwisting, field("rotativity", ROTATIVITY), field("sign", SIGN),
                          field("residual", RESIDUAL), make=_values),
    "infinite-division": Variant(inv_mod.InfiniteDivision, field("annuli", ANNULI.codec, "descriptor"),
                                 make=_values),
}, "kind", "is unknown")

# a `run` job: its command, its input (decoded by run_command) and the
# options it overrides of the command line's
JOB_OPTIONS = Document({None: Variant(dict, field("horizon", POSITIVE_INT, default=None),
                                      make=lambda horizon: {} if horizon is None else {"horizon": horizon})})

JOB = Document({None: Variant(tuple, field("command", ANY), field("input", ANY),
                              field("options", JOB_OPTIONS.codec, default={}), make=_values)})


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


_RUNNERS = {}


def _command(name: str, *fields: tuple):
    """Register the function below as the command `name`: its input is one
    table of `fields`, decoded in order and whole before any domain work,
    and the function is called with the decoded values and the options."""
    table = Document({None: Variant(tuple, *fields, make=_values)})

    def register(run):
        _RUNNERS[name] = (table, run)
        return run
    return register


@_command("path", field("n", POSITIVE_INT), field("start", SLOPE), field("target", TARGET.codec))
def _cmd_path(n: int, start: Slope, target, options: dict) -> dict:
    path = FareyPath(start, target)
    # the walk stops at the first run end past the bound, so that no
    # vertex past it is walked; the start and every vertex before the last
    # are then within the bound, and only the last one is checked
    size = path.extend_to(min(n, OUTPUT_BUDGET + 1), _text_bound(sys.get_int_max_str_digits()))
    _check_output_budget(size, "vertices")
    last = path.vertex(size - 1)
    _check_digits((last.p, last.q), "a vertex entry")
    return {"vertices": path.prefix_text(size)}


@_command("blocks", field("count", POSITIVE_INT, default=None), field("start", SLOPE),
          field("target", TARGET.codec))
def _cmd_blocks(count: int | None, start: Slope, target, options: dict) -> dict:
    decomp = blocks_mod.decompose(FareyPath(start, target))
    size = min(count or options["horizon"], OUTPUT_BUDGET + 1)
    docs = []
    # block by block, so that the walk stops at the first over-long witness
    while len(docs) < size and decomp.has_block(len(docs) + 1):
        docs.append(block_doc(decomp.block(len(docs) + 1)))
        _check_digits(docs[-1]["witness"], "a witness entry")
    _check_output_budget(len(docs), "blocks")
    return {"blocks": docs, "complete": decomp.finished}


@_command("classify", field("end", END.codec))
def _cmd_classify(end, options: dict) -> dict:
    return invariant_doc(ends_mod.classify(end))


@_command("compare", field("a", END.codec), field("b", END.codec))
def _cmd_compare(a, b, options: dict) -> dict:
    first = ends_mod.classify(a)
    # b shares a's decomposition when their normalized targets are equal
    second = ends_mod.classify(b, first.context.decomposition())
    return {"equivalent": inv_mod.equivalent(first, second, options["horizon"])}


@_command("count", field("lengths", LENGTHS))
def _cmd_count(lengths: list, options: dict) -> dict:
    # the lengths are at least 1, so the partial products never shrink, and
    # the first one past the _text_bound is refused before the rest is multiplied
    bound = _text_bound(sys.get_int_max_str_digits())
    total = 1
    for m in lengths:
        total *= m
        if total >= bound:
            raise _digits_error("a count")
    out = {"count": total}
    if 1 in lengths:
        out["note"] = "length-1 blocks carry no basic slices and contribute factor 1"
    return out


@_command("euler", field("horizon", POSITIVE_INT, default=None), field("end", END.codec))
def _cmd_euler(horizon: int | None, e, options: dict) -> dict:
    horizon = horizon or options["horizon"]
    decomp = ends_mod.validated_decomposition(e)
    path = decomp.path
    cls = inv_mod.euler_class(decomp, e.signs, horizon, _text_bound(sys.get_int_max_str_digits()))
    if cls is None:
        raise _digits_error("an euler entry")
    slices = path.walk_to_end() - 1 if path.target.attained else horizon
    return {"euler": [cls.x, cls.y], "slices": slices}


@_command("extend-check", field("end", END.codec))
def _cmd_extend_check(end, options: dict) -> dict:
    result = ends_mod.extension_obstruction(ends_mod.classify(end), options["horizon"])
    if isinstance(result, ends_mod.NoTightExtension):
        return {"result": "no-tight-extension", "reason": result.reason}
    if isinstance(result, ends_mod.ExtendsByConstruction):
        return {"result": "extends-by-construction"}
    return {"result": "unknown", "horizon": result.horizon}


@_command("family", field("k", NONNEGATIVE), field("start", SLOPE, default=ends_mod.BASE_SLOPE),
          field("target", TARGET.codec))
def _cmd_family(k: int, start: Slope, target, options: dict) -> dict:
    if k > options["max_family"]:
        raise SchemaError(f"input.k exceeds the family cap {options['max_family']}")
    members = ends_mod.non_extendable_family(target, k, start, options["horizon"])
    return {"invariants": INVARIANT.encode_list(members)}


@_command("reduce-solid-torus", field("end", END.codec))
def _cmd_reduce_solid_torus(end, options: dict) -> dict:
    s_of_r, rest = reduce_mod.complementary_end(end)
    return {"s": None if s_of_r is None else str(s_of_r),
            "invariant": invariant_doc(ends_mod.classify(rest)), "end": END.encode(rest)}


@_command("reduce-t2xr", field("middle", TORUS.codec), field("plus", END.codec), field("minus", END.codec))
def _cmd_reduce_t2xr(middle, plus, minus, options: dict) -> dict:
    norm = reduce_mod.normalize_rotativity(reduce_mod.OpenToricAnnulus(plus, minus, middle))
    return {
        "plus": END.encode(norm.plus),
        "minus": END.encode(norm.minus),
        "middle": TORUS.encode(norm.middle),
        "plus_invariant": invariant_doc(ends_mod.classify(norm.plus)),
        "minus_invariant": invariant_doc(ends_mod.classify(norm.minus)),
        "framing": list(reduce_mod.REFLECTION),
    }


COMMANDS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# driver


def run_command(command: str, doc: object, options: dict) -> dict:
    if not isinstance(command, str):
        raise SchemaError(f"command must be a string, not {type(command).__name__}")
    if command not in _RUNNERS:
        raise SchemaError(f"unknown command {command!r}")
    table, run = _RUNNERS[command]
    return run(*table.decode(doc, "input"), options)


# the text json.dumps writes for a scalar, by the scalar's exact class; any
# other class, an empty list or dict among them, still goes through json.dumps
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, bool: lambda b: "true" if b else "false",
                type(None): lambda _: "null"}


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
                lines.append(f"{pad}{key}: {_SCALAR_TEXT.get(value.__class__, json.dumps)(value)}")
        return "\n".join(lines)
    if isinstance(doc, list):
        return "\n".join(
            _render_human(item, indent) if isinstance(item, (dict, list))
            else f"{pad}- {_SCALAR_TEXT.get(item.__class__, json.dumps)(item)}"
            for item in doc
        )
    return f"{pad}{_SCALAR_TEXT.get(doc.__class__, json.dumps)(doc)}"


def _emit(doc: object, fmt: str, out) -> None:
    # the newline is a write of its own, so that a long answer is not copied
    out.write(_render_human(doc) if fmt == "human" else json.dumps(doc, sort_keys=True, separators=(",", ":")))
    out.write("\n")


def _load_input(args) -> object:
    try:
        if args.input and args.input != "-":
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"input cannot be read: {exc}") from None
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past sys.get_int_max_str_digits()
        raise SchemaError(f"input is not valid JSON: {exc}") from None


def _run_batch(jobs: object, options: dict, fmt: str, out) -> int:
    """Run the jobs in order and write each answer as soon as its job
    returns, so that the batch holds one answer at a time: the bytes are
    those of _emit on the list of answers.  Returns the exit status."""
    if not isinstance(jobs, list):
        raise SchemaError("batch input must be a list of job objects")
    if fmt == "human":
        render, opening, between, closing = _render_human, "", "\n", "\n"
    else:
        render = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        opening, between, closing = "[", ",", "]\n"
    block, size = [opening], 0
    status = 0
    for i, job in enumerate(jobs):
        try:
            command, doc, overrides = JOB.decode(job, f"job[{i}]")
            answer = {"status": "ok", "output": run_command(command, doc, {**options, **overrides})}
        except SchemaError as exc:
            answer = {"status": "malformed", "error": str(exc)}
            status = 2
        except ToricEndError as exc:
            answer = {"status": "violation", "error": str(exc)}
            status = status or 1
        if i:
            block.append(between)
        block.append(render(answer))
        del answer  # the next job runs with no earlier answer held
        size += len(block[-1])
        if size >= WRITE_BLOCK:
            out.write("".join(block))
            block, size = [], 0
    block.append(closing)
    out.write("".join(block))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="toric-ends",
        description="Classification data for tight contact structures on toric ends.",
    )
    parser.add_argument("command", choices=COMMANDS + ("run",),
                        help="operation to run; `run` processes a batch list of jobs")
    parser.add_argument("--input", default="-", help="input JSON file (default: stdin)")
    parser.add_argument("--output", default="-", help="output file (default: stdout)")
    parser.add_argument("--horizon", type=int, default=inv_mod.DEFAULT_HORIZON,
                        help="blocks/slices scanned where no exact rule applies: coefficient-stream "
                             "decisions, euler truncation, the blocks count and the family block "
                             "search; quadratic decisions never read it (default %(default)s)")
    parser.add_argument("--format", choices=("structured", "human"), default="structured")
    parser.add_argument("--max-family", type=int, default=DEFAULT_MAX_FAMILY,
                        help="cap on family sizes (default %(default)s)")
    args = parser.parse_args(argv)

    if args.horizon < 1:
        print("horizon must be >= 1", file=sys.stderr)
        return 2
    if args.max_family < 0:
        print("max-family must be >= 0", file=sys.stderr)
        return 2
    options = {"horizon": args.horizon, "max_family": args.max_family}

    try:
        out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        print(f"output cannot be written: {exc}", file=sys.stderr)
        return 2
    try:
        doc = _load_input(args)
        if args.command == "run":
            return _run_batch(doc, options, args.format, out)
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
