"""README's examples run as written: each CLI example prints the line
under it, and each commented line of the library quick start shows what
its statement evaluates to (`...` stands for any text)."""

import ast
import io
import json
import re
import sys
import tokenize
from pathlib import Path

import toric_ends
from toric_ends.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# echo '<document>' [\] | toric-ends <command>, then "# <output>" on the next line
CLI_EXAMPLE = re.compile(r"^echo '(?P<doc>[^']*)'[ \\\n]*\| toric-ends (?P<command>[\w-]+)\n# (?P<out>[^\n]*)$",
                         re.MULTILINE)


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def rendered(value) -> str:
    """A value as the quick start writes it: a tuple item by item, and
    anything else by str()."""
    if isinstance(value, tuple):
        items = [rendered(v) for v in value]
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    return str(value)


def shows(comment: str, text: str) -> bool:
    return re.fullmatch(".*".join(map(re.escape, comment.split("..."))), text) is not None


def test_cli_examples_print_their_comments(monkeypatch, capsys):
    examples = [m for block in code_blocks("sh") for m in CLI_EXAMPLE.finditer(block)]
    assert len(examples) == 2
    for example in examples:
        monkeypatch.setattr(sys, "stdin", io.StringIO(example["doc"]))
        assert main([example["command"]]) == 0
        out = capsys.readouterr().out.strip()
        assert out == example["out"]
        assert json.loads(out) == json.loads(example["out"])


def test_quick_start_statements_show_their_comments():
    (source,) = code_blocks("python")
    comments = {tok.start[0]: tok.string.lstrip("#").strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace, checked = {}, 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
            value = namespace[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        comment = comments.get(stmt.lineno)
        if comment is not None:
            assert shows(comment, rendered(value)), (ast.unparse(stmt), comment, rendered(value))
            checked += 1
    assert checked == len(comments) == 6


PUBLIC_NAMES = [
    "AllNegative", "AllPositive", "Alternating", "AlternatingForm", "AttainedInvariant", "Block",
    "BlockDecomposition", "CFTarget", "EndDescription", "EulerClass", "EventuallySign", "ExtendsByConstruction",
    "FareyPath", "GL2Z", "INFINITY", "InfiniteDivision", "InfiniteRotativity", "IrrationalInvariant",
    "MinimallyTwisting", "NegFinite", "NestedAnnuli", "NoTightExtension", "NonMinimallyTwisting",
    "OpenToricAnnulus", "Periodic", "PosFinite", "QuadraticTarget", "RationalNonAttainedInvariant",
    "RationalTarget", "RotativeLayers", "SignData", "Slope", "SolidTorusClass", "SolidTorusEnd", "TorusRecord",
    "Unknown", "admissible", "classify", "classify_solid_torus", "count_invariants", "decompose",
    "division_at_infinity", "equivalent", "euler_class", "extension_obstruction", "farey_sequence",
    "invariant_from_signs", "non_extendable_family", "normalize_rotativity", "parse_slope",
    "quadratic_cf_target", "slope_at_infinity", "solid_torus_factor", "t2xr_equivalent", "validate",
]


def test_the_public_names_are_pinned_and_cover_the_quick_start():
    # no submodule is exported, and every name the quick start imports is
    assert sorted(toric_ends.__all__) == PUBLIC_NAMES
    (source,) = code_blocks("python")
    imported = {alias.name for stmt in ast.parse(source).body
                if isinstance(stmt, ast.ImportFrom) and stmt.module == "toric_ends" for alias in stmt.names}
    assert imported and imported <= set(PUBLIC_NAMES)
