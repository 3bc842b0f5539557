"""Command line interface: one JSON document per job, deterministic output.

Exit codes: 0 success, 1 validation or domain violation, 2 malformed input.
The same schema is used for input and structured output, so classify output
re-parses as a valid invariant document.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import methodcaller

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

# most members a family answer may list
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
# document with every check and to encode or write a record.  A field's codec
# is a triple (decode, encode, write), or (decode, encode, write, keep):
# decode(value, where, key) checks and converts the value under `key` of the
# document at `where`; encode converts back (None: as it is); write gives
# the text of the encoded value as _emit writes it; a value for which keep
# is false leaves the key out.


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


# the text json.dumps writes for a scalar, by the scalar's exact class; any
# other class, an empty list or dict among them, still goes through json.dumps
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, bool: lambda b: "true" if b else "false",
                type(None): lambda _: "null"}
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _text(value: object) -> str:
    """json.dumps(value, sort_keys=True, separators=(",", ":")), as _emit writes."""
    return _SCALAR_TEXT.get(value.__class__, _dumps)(value)


# lists whose entries need no escaping are written with a join: strings
# such as signs and slopes; and integers (never booleans, which the decoders
# refuse), by the repr of their list, as an int's repr holds no space

def _plain_texts(texts: list[str]) -> str:
    return '["' + '","'.join(texts) + '"]' if texts else "[]"


def _signs_text(signs: tuple[int, ...]) -> str:
    return _plain_texts(_sign_texts(signs))


def _ints_text(values: tuple[int, ...]) -> str:
    return repr(list(values)).replace(" ", "")


_MISSING = object()
INT = (_int, None, _text)
NONNEGATIVE = (_at_least(0), None, _text)
POSITIVE_INT = (_at_least(1), None, _text)
BOOL = (_bool, None, _text)
SLOPE = (_slope, str, lambda s: f'"{s}"')
SIGN = (_sign, _SIGN_TEXT.__getitem__, lambda s: f'"{_SIGN_TEXT[s]}"')
SIGNS = (_signs, _sign_texts, _signs_text)
PATTERN = (_pattern, _sign_texts, _signs_text)
COUNT_PATTERN = (_count_pattern, _sign_texts, _signs_text)
INT_LIST = (_ints, list, _ints_text)
INTS = (*INT_LIST, bool)
COUNTS = (_counts, list, _ints_text)
LENGTHS = (_lengths, None, _text)
ANY = (lambda value, where, key: value, None, _text)
OPTIONAL = (*ANY, lambda value: value is not None)
ROTATIVITY = (_rotativity, lambda n: "inf" if n is None else n, lambda n: '"inf"' if n is None else _text(n))
RESIDUAL = (_residual, lambda inv: None if inv is None else invariant_doc(inv),
            lambda inv: "null" if inv is None else INVARIANT.write(inv))
SLOPE_TEXTS = (None, None, _plain_texts)  # the vertex texts of a path answer


def field(key: str, codec: tuple, attr=None, default: object = _MISSING) -> tuple:
    """A document key as (key, decode, encode, write, keep, attr, default):
    its codec (keep None unless given), the record attribute it holds (the
    key unless named; a dotted name reaches into the record, and a function
    is its getter) and its default when it may be left out."""
    decode, encode, write, keep = codec if len(codec) == 4 else (*codec, None)
    return (key, decode, encode, write, keep, attr or key, default)


def _compile_encoder(head: tuple, fields: tuple, name: str, text: bool, memo: bool):
    """An encoder of one variant, compiled from its tag `head` ((key,
    value), or () when none is written) and its fields: convert(r), the
    document of the record r as one dict display, or with `text` the text
    _emit writes for it, keys sorted, as one f-string (a join when a key may
    be left out; no key or tag holds a brace); or with `memo`
    convert_next(r, m), the same for a record after others of its class,
    which converts a field's object only when it is not the one the memo m
    holds (m starts as [_MISSING] * (2 * len(fields))).  Records are
    immutable, so a shared value is the one a fresh conversion would give."""
    scope, lines = {}, []
    items = [(head[0], _text(head[1]) if text else repr(head[1]), None)] if head else []
    for i, (key, _, encode, write, keep, attr, _) in enumerate(fields):
        scope[f"c{i}"], scope[f"k{i}"], scope[f"g{i}"] = write if text else encode, keep, attr
        get = f"r.{attr}" if isinstance(attr, str) else f"g{i}(r)"
        convert = text or encode is not None
        if keep is not None or memo and convert:  # the value is read once
            lines.append(f"    v{i} = {get}")
            get = f"v{i}"
        value = f"c{i}({get})" if convert else get
        if memo and convert and keep is None:
            lines.append(f"    if v{i} is not m[{2 * i}]: m[{2 * i}], m[{2 * i + 1}] = v{i}, {value}")
            value = f"m[{2 * i + 1}]"
        items.append((key, "{" + value + "}" if text else value, keep and f"k{i}(v{i})"))
    if not text:
        display = "{" + ", ".join(f"{key!r}: {value}" for key, value, test in items if not test) + "}"
        kept = [f"    if {test}: d[{key!r}] = {value}" for key, value, test in items if test]
        lines += [f"    d = {display}", *kept, "    return d"] if kept else [f"    return {display}"]
    elif any(test for _, _, test in items):  # the kept entries are joined
        lines.append("    t = []")
        for key, value, test in sorted(items):
            lines.append(f"    {'if ' + test + ': ' if test else ''}t.append(f{_text(key) + ':' + value!r})")
        lines.append("    return '{' + ','.join(t) + '}'")
    else:
        template = "{{" + ",".join(_text(key) + ":" + value for key, value, _ in sorted(items)) + "}}"
        lines.append(f"    return f{template!r}")
    source = "\n".join([f"def convert{'_next(r, m)' if memo else '(r)'}:", *lines])
    exec(compile(source, f"<{name} {'text' if text else 'document'}>", "exec"), scope)
    return scope["convert_next" if memo else "convert"]


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
        # the convert of _compile_encoder by record class, and its
        # convert_next by (record class, text): each compiled on first use
        self.encoders, self.writers, self.followers = {}, {}, {}
        # the keys that some variant allows, and the keys that all require
        self.keys = frozenset().union(*(v.keys for v in variants.values()))
        self.required = frozenset.intersection(*(v.required for v in variants.values()))
        self.codec = (self.decode_field, self.encode, self.write)
        self.list_codec = (None, self.encode_list, self.write_list)  # a list of records

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
        for key, decode, _, _, _, _, default in variant.fields:
            value = doc.get(key, _MISSING)
            values.append(default if value is _MISSING else decode(value, where, key))
        try:
            return variant.make(*values)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: {exc}") from None

    def decode_field(self, doc: object, where: str, key: str):
        return self.decode(doc, f"{where}.{key}")

    def _compile(self, cls: type, text: bool, memo: bool = False):
        """The convert of _compile_encoder for records of class cls, kept in
        self.writers (text) or self.encoders, or with `memo` its
        convert_next, kept in self.followers."""
        entry = self.by_class.get(cls)
        if entry is None:
            raise SchemaError(f"{cls.__name__} records have no document form")
        tag, fields = entry
        head = () if tag is self.default_tag else (self.tag, tag)
        convert = _compile_encoder(head, fields, cls.__name__, text, memo)
        if memo:
            self.followers[cls, text] = convert
        else:
            (self.writers if text else self.encoders)[cls] = convert
        return convert

    def encode(self, record) -> dict:
        return (self.encoders.get(record.__class__) or self._compile(record.__class__, False))(record)

    def write(self, record) -> str:
        """The text of encode(record) as _emit writes it."""
        return (self.writers.get(record.__class__) or self._compile(record.__class__, True))(record)

    def encode_list(self, records) -> list[dict]:
        """The documents of records, in order.  A field whose object is the
        previous record's is encoded once, and the documents share its value."""
        return self._convert_all(records, False)

    def write_list(self, records) -> str:
        """The text of encode_list(records), which writes a field whose
        object is the previous record's once."""
        return "[" + ",".join(self._convert_all(records, True)) + "]"

    def _convert_all(self, records, text: bool) -> list:
        converted = []
        for cls, run in groupby(records, type):
            convert = self.followers.get((cls, text)) or self._compile(cls, text, memo=True)
            memo = [_MISSING] * (2 * len(self.by_class[cls][1]))
            converted += [convert(record, memo) for record in run]
        return converted


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

# a `run` job: its command and its input (decoded by run_command)
JOB = Document({None: Variant(tuple, field("command", ANY), field("input", ANY), make=_values)})


invariant_doc = INVARIANT.encode


def parse_invariant_document(doc: object, where: str = "invariant") -> dict:
    """Check an invariant document against its table; returns the doc."""
    INVARIANT.decode(doc, where)
    return doc


BLOCK = Document({None: Variant(blocks_mod.Block, field("start", INT, "start_index"), field("end", INT, "end_index"),
                                field("length", INT), field("witness", INT_LIST, "witness_entries"),
                                field("infinite", BOOL))})

block_doc = BLOCK.encode


def _answer(*fields: tuple) -> Document:
    """The table of an answer held as a dict: each (key, codec) of `fields`
    reads the dict's value under the key, None when the dict leaves it out."""
    return Document({None: Variant(dict, *(field(key, codec, methodcaller("get", key)) for key, codec in fields))})


# an error answer: of a command or a batch (`error`), of a batch job
# (`status`) and of a validation (`violations`)
ERROR = _answer(("error", ANY), ("status", OPTIONAL), ("violations", OPTIONAL))


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


def _command(name: str, *fields: tuple, answer: Document):
    """Register the function below as the command `name`: its input is one
    table of `fields`, decoded in order and whole before any domain work,
    and the function is called with the decoded values and returns a record of the table `answer`."""
    table = Document({None: Variant(tuple, *fields, make=_values)})

    def register(run):
        _RUNNERS[name] = (table, run, answer)
        return run
    return register


@_command("path", field("n", POSITIVE_INT), field("start", SLOPE), field("target", TARGET.codec),
          answer=_answer(("vertices", SLOPE_TEXTS)))
def _cmd_path(n: int, start: Slope, target) -> dict:
    path = FareyPath(start, target)
    # the walk stops at the first run end past the bound, so that no
    # vertex past it is walked; the start and every vertex before the last
    # are then within the bound, and only the last one is checked
    size = path.extend_to(min(n, OUTPUT_BUDGET + 1), _text_bound(sys.get_int_max_str_digits()))
    _check_output_budget(size, "vertices")
    last = path.vertex(size - 1)
    _check_digits((last.p, last.q), "a vertex entry")
    return {"vertices": path.prefix_text(size)}


@_command("blocks", field("count", POSITIVE_INT, default=inv_mod.DEFAULT_HORIZON), field("start", SLOPE),
          field("target", TARGET.codec), answer=_answer(("blocks", BLOCK.list_codec), ("complete", ANY)))
def _cmd_blocks(count: int, start: Slope, target) -> dict:
    decomp = blocks_mod.decompose(FareyPath(start, target))
    size = min(count, OUTPUT_BUDGET + 1)
    blocks = []
    # block by block, so that the walk stops at the first over-long witness
    while len(blocks) < size and decomp.has_block(len(blocks) + 1):
        blocks.append(decomp.block(len(blocks) + 1))
        _check_digits(blocks[-1].witness_entries, "a witness entry")
    _check_output_budget(len(blocks), "blocks")
    return {"blocks": blocks, "complete": decomp.finished}


@_command("classify", field("end", END.codec), answer=INVARIANT)
def _cmd_classify(end):
    return ends_mod.classify(end)


@_command("compare", field("a", END.codec), field("b", END.codec), answer=_answer(("equivalent", ANY)))
def _cmd_compare(a, b) -> dict:
    first = ends_mod.classify(a)
    # b shares a's decomposition when their normalized targets are equal
    second = ends_mod.classify(b, first.context.decomposition())
    return {"equivalent": inv_mod.equivalent(first, second)}


@_command("count", field("lengths", LENGTHS), answer=_answer(("count", ANY), ("note", OPTIONAL)))
def _cmd_count(lengths: list) -> dict:
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


@_command("euler", field("horizon", POSITIVE_INT, default=inv_mod.DEFAULT_HORIZON), field("end", END.codec),
          answer=_answer(("euler", INT_LIST), ("slices", ANY)))
def _cmd_euler(horizon: int, e) -> dict:
    decomp = ends_mod.validated_decomposition(e)
    cls = inv_mod.euler_class(decomp, e.signs, horizon, _text_bound(sys.get_int_max_str_digits()))
    if cls is None:
        raise _digits_error("an euler entry")
    slices = decomp.bounds(None)[-1] if decomp.path.target.attained else horizon
    return {"euler": (cls.x, cls.y), "slices": slices}


@_command("extend-check", field("end", END.codec),
          answer=_answer(("result", ANY), ("reason", OPTIONAL)))
def _cmd_extend_check(end) -> dict:
    result = ends_mod.extension_obstruction(ends_mod.classify(end))
    if isinstance(result, ends_mod.NoTightExtension):
        return {"result": "no-tight-extension", "reason": result.reason}
    if isinstance(result, ends_mod.ExtendsByConstruction):
        return {"result": "extends-by-construction"}
    return {"result": "unknown"}


@_command("family", field("k", NONNEGATIVE), field("start", SLOPE, default=ends_mod.BASE_SLOPE),
          field("target", TARGET.codec), answer=_answer(("invariants", INVARIANT.list_codec)))
def _cmd_family(k: int, start: Slope, target) -> dict:
    if k > DEFAULT_MAX_FAMILY:
        raise SchemaError(f"input.k exceeds the family cap {DEFAULT_MAX_FAMILY}")
    members = ends_mod.non_extendable_family(target, k, start)
    return {"invariants": members}


@_command("reduce-solid-torus", field("end", END.codec),
          answer=_answer(("s", ANY), ("invariant", INVARIANT.codec), ("end", END.codec)))
def _cmd_reduce_solid_torus(end) -> dict:
    s_of_r, rest = reduce_mod.complementary_end(end)
    return {"s": None if s_of_r is None else str(s_of_r), "invariant": ends_mod.classify(rest), "end": rest}


@_command("reduce-t2xr", field("middle", TORUS.codec), field("plus", END.codec), field("minus", END.codec),
          answer=_answer(("plus", END.codec), ("minus", END.codec), ("middle", TORUS.codec),
                         ("plus_invariant", INVARIANT.codec), ("minus_invariant", INVARIANT.codec),
                         ("framing", INT_LIST)))
def _cmd_reduce_t2xr(middle, plus, minus) -> dict:
    norm = reduce_mod.normalize_rotativity(reduce_mod.OpenToricAnnulus(plus, minus, middle))
    return {
        "plus": norm.plus,
        "minus": norm.minus,
        "middle": norm.middle,
        "plus_invariant": ends_mod.classify(norm.plus),
        "minus_invariant": ends_mod.classify(norm.minus),
        "framing": reduce_mod.REFLECTION,
    }


COMMANDS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# driver


def _run_job(command: str, doc: object) -> tuple:
    """The answer to one job: (its command's answer table, its record)."""
    if not isinstance(command, str):
        raise SchemaError(f"command must be a string, not {type(command).__name__}")
    if command not in _RUNNERS:
        raise SchemaError(f"unknown command {command!r}")
    table, run, answer = _RUNNERS[command]
    return answer, run(*table.decode(doc, "input"))


def run_command(command: str, doc: object, options: object = None) -> dict:
    """The answer document of one command on its input, which alone decides
    it.  `options` is not read: it is kept for callers that still pass one
    (perfbench's Runner.cli_job)."""
    answer, record = _run_job(command, doc)
    return answer.encode(record)


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


def _emit(table: Document, record, fmt: str, out) -> None:
    # the newline is a write of its own, so that a long answer is not copied
    out.write(_render_human(table.encode(record)) if fmt == "human" else table.write(record))
    out.write("\n")


def _read_input(args) -> str:
    try:
        if args.input and args.input != "-":
            with open(args.input, "r", encoding="utf-8") as fh:
                return fh.read()
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"input cannot be read: {exc}") from None


def _load_input(text: str, **hooks) -> object:
    """json.loads(text, **hooks), whose message a SchemaError carries."""
    try:
        return json.loads(text, **hooks)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an integer past
        # sys.get_int_max_str_digits(), or arrays or objects nested past the recursion limit
        raise SchemaError(f"input is not valid JSON: {exc}") from None


_SKIP_SPACE = re.compile(r"[ \t\n\r]*").match  # JSON's whitespace (RFC 8259)


def _load_batch(text: str):
    """The jobs of a `run` input, decoded one at a time.  The whole text is
    checked first, by a json.loads that keeps no object of it (an object is
    read as its number of keys), so that unreadable JSON anywhere runs no
    job; the decoder then reads each element at its offset."""
    if not isinstance(_load_input(text, object_pairs_hook=len), list):
        raise SchemaError("batch input must be a list of job objects")
    return _elements(text)


def _elements(text: str):
    # the text is a list, with only JSON whitespace around its `[`, `,` and `]`
    decode = json.JSONDecoder().raw_decode
    i = _SKIP_SPACE(text, _SKIP_SPACE(text).end() + 1).end()
    while text[i] != "]":
        job, i = decode(text, i)
        yield job
        i = _SKIP_SPACE(text, i).end()
        i = _SKIP_SPACE(text, i + (text[i] == ",")).end()


def _job_text(i: int, job: object, human: bool) -> tuple[str, int]:
    """The text of the answer to job i of a batch, and its exit status."""
    try:
        table, record = _run_job(*JOB.decode(job, f"job[{i}]"))
        if human:
            return _render_human({"status": "ok", "output": table.encode(record)}), 0
        return f'{{"output":{table.write(record)},"status":"ok"}}', 0
    except SchemaError as exc:
        answer, status = {"status": "malformed", "error": str(exc)}, 2
    except ToricEndError as exc:
        answer, status = {"status": "violation", "error": str(exc)}, 1
    return _render_human(answer) if human else ERROR.write(answer), status


def _run_batch(jobs, fmt: str, out) -> int:
    """Run the jobs of an iterator in order and write each answer as soon as
    its job returns, so that while a job runs no other job's input or answer
    is held: the bytes are those of _emit on the list of answers.  Returns
    the exit status."""
    human = fmt == "human"
    opening, between, closing = ("", "\n", "\n") if human else ("[", ",", "]\n")
    block, size = [opening], 0
    status = 0
    for i, job in enumerate(jobs):
        text, job_status = _job_text(i, job, human)
        status = max(status, job_status)  # malformed (2) over violation (1)
        if i:
            block.append(between)
        block.append(text)
        size += len(text)
        del text  # the next job runs with no earlier answer held
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
    parser.add_argument("--format", choices=("structured", "human"), default="structured")
    args = parser.parse_args(argv)

    try:
        out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        print(f"output cannot be written: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return _run_batch(_load_batch(_read_input(args)), args.format, out)
        _emit(*_run_job(args.command, _load_input(_read_input(args))), args.format, out)
        return 0
    except SchemaError as exc:
        _emit(ERROR, {"error": str(exc)}, args.format, out)
        return 2
    except ToricEndError as exc:
        violations = exc.violations if isinstance(exc, ValidationError) else None
        _emit(ERROR, {"error": str(exc), "violations": violations}, args.format, out)
        return 1
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    raise SystemExit(main())
