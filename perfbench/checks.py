"""Output checks that share no algorithm with the library.

Paths and blocks are checked as geometry on the Farey graph with plain
integer determinants; invariant documents are re-parsed with the public
schema validator; the rest are exact identities of the inputs.
"""

from __future__ import annotations

from math import prod

from workloads import slope_text

INFINITE_BLOCK_PROBE = 4  # vertices of an infinite block that are checked


def parse(text: str) -> tuple[int, int]:
    p, q = text.split("/")
    return int(p), int(q)


def det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def clockwise(a, b, c) -> bool:
    """b lies strictly inside the clockwise arc from a to c."""
    return det(a, b) * det(b, c) * det(c, a) < 0


def _chain(vertices, what):
    for u, v in zip(vertices, vertices[1:]):
        if abs(det(u, v)) != 1:
            return f"{what}: {slope_text(*u)}, {slope_text(*v)} is not a Farey edge"
    for a, b, c in zip(vertices, vertices[1:], vertices[2:]):
        if not clockwise(a, b, c):
            return f"{what}: {slope_text(*a)}, {slope_text(*b)}, {slope_text(*c)} does not turn clockwise"
    return None


def check_path(job, out):
    doc = job["input"]
    vertices = [parse(v) for v in out["vertices"]]
    if out["vertices"][0] != slope_text(*parse(doc["start"])):
        return "path does not begin at its start slope"
    expected = min(doc["n"], job["vertices"]) if "vertices" in job else doc["n"]
    if len(vertices) != expected:
        return f"path has {len(vertices)} vertices, expected {expected}"
    return _chain(vertices, "path")


def _witness_inverse_images(witness, m):
    a, b, c, d = witness
    e = a * d - b * c
    if e not in (1, -1):
        return None
    # the witness sends the block's j-th vertex to -j, so the vertex is W^-1(-j)
    return [parse(slope_text(e * (-d * j - b), e * (c * j + a))) for j in range(1, m + 1)]


def _maps_to(witness, vertex, n) -> bool:
    """The witness sends the vertex to the integer n."""
    a, b, c, d = witness
    return parse(slope_text(a * vertex[0] + b * vertex[1], c * vertex[0] + d * vertex[1])) == (n, 1)


def check_blocks(job, out, path_vertices=None):
    blocks = out["blocks"]
    count = job["input"]["count"]
    if len(blocks) > count or (len(blocks) < count and not out["complete"]):
        return f"{len(blocks)} blocks for count {count}"
    previous_end = parse(slope_text(*parse(job["input"]["start"])))
    expected_start = 0
    for i, block in enumerate(blocks):
        if block["start"] != expected_start:
            return f"block {i + 1} starts at {block['start']}, not at {expected_start}"
        if block["infinite"]:
            if i != len(blocks) - 1 or block["end"] is not None or block["length"] is not None:
                return f"infinite block {i + 1} is malformed"
            m = INFINITE_BLOCK_PROBE
        else:
            m = block["length"]
            if m < 2 or block["end"] != block["start"] + m - 1:
                return f"block {i + 1} has inconsistent bounds"
        images = _witness_inverse_images(block["witness"], m)
        if images is None:
            return f"block {i + 1} witness is not invertible over Z"
        if images[0] != previous_end:
            return f"block {i + 1} does not share its first vertex with the previous block"
        if i and _maps_to(blocks[i - 1]["witness"], images[1], -(blocks[i - 1]["length"] + 1)):
            return f"block {i} is not maximal: the witness carries the next vertex on"
        bad = _chain(images, f"block {i + 1}")
        if bad:
            return bad
        if path_vertices is not None:
            for j, v in enumerate(images):
                k = block["start"] + j
                if k < len(path_vertices) and path_vertices[k] != v:
                    return f"block {i + 1} vertex {j + 1} differs from path vertex {k}"
        previous_end = images[-1]
        expected_start = block["end"]
    return None


def check_job(job, status, out, parse_invariant, outputs):
    """One failure message, or None.  `outputs` maps job ids to parsed ok
    outputs, for the checks that compare two jobs."""
    expect = job["expect"]
    if status == "crash":
        return "crashed"
    if status == "budget":
        return "exceeded the per-job budget"
    if expect == "violation":
        return None if status == "violation" else f"deliberate violation answered {status}"
    if status == "malformed":
        return "well-formed input answered malformed"
    if status != "ok":
        return None if expect == "any" else f"answered {status}, expected ok"

    command = job["command"]
    if "twin_of" in job:
        return None if outputs.get(job["twin_of"]) == out else "stream twin differs from its quadratic job"
    if command == "path":
        return check_path(job, out)
    if command == "blocks":
        return check_blocks(job, out, _path_for(job, outputs))
    if command == "count":
        return None if out["count"] == prod(job["input"]["lengths"]) else "count is not the product of the lengths"
    if command == "euler":
        slices = job["slices"] if "slices" in job else job["input"]["horizon"]
        return None if out["slices"] == slices else f"euler covers {out['slices']} slices, expected {slices}"
    if command == "extend-check":
        ok = out["result"] in ("no-tight-extension", "extends-by-construction", "unknown")
        return None if ok else f"unknown extend-check result {out['result']!r}"
    if command == "compare":
        return None if isinstance(out["equivalent"], bool) else "compare answer is not a boolean"
    invariants = {
        "classify": lambda: [out],
        "family": lambda: out["invariants"],
        "reduce-solid-torus": lambda: [out["invariant"]],
        "reduce-t2xr": lambda: [out["plus_invariant"], out["minus_invariant"]],
    }[command]()
    for doc in invariants:
        try:
            parse_invariant(doc)
        except Exception as exc:  # any schema failure is an output failure
            return f"invariant document does not re-parse: {exc}"
    if command == "family":
        k = job["input"]["k"]
        distinct = {repr(doc) for doc in invariants}
        if len(invariants) != k or len(distinct) != k:
            return f"family returned {len(distinct)} distinct of {len(invariants)} documents for k={k}"
    if command == "reduce-solid-torus" and out["s"] is not None and abs(parse(out["s"])[0]) != 1:
        return f"s(r) = {out['s']} is not of the form 1/n"
    if command == "reduce-t2xr" and out["minus"]["rotative"]["n"] != 0:
        return "rotative layers were left on the minus side"
    return None


def _path_for(job, outputs):
    """Vertices of an ok path job of the same workload toward the same start
    and target, when there is one, for a vertex-by-vertex block check."""
    key = (job["input"]["start"], repr(job["input"]["target"]))
    vertices = outputs.get(("path", key))
    return [parse(v) for v in vertices] if vertices else None
