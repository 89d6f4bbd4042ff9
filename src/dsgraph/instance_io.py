"""Persistence for graph instances in the dsgraph-v1 JSON format.

A file carries the graph (n, d, canonical edge array), then optional blocks:
"coloring" (color per edge), "s" (claimed and measured), "lists" (edge index
as a decimal-string key, sorted color array as value), "solution", "plan"
(chosen 4-cycles as vertex quadruples), "report" (solver outcome), and
"family" (constructor provenance). Keys are written sorted and arrays
canonical, so equal instances produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .constructors import ColoredGraph, _certify
from .errors import InvalidInstance
from .graph_core import EdgeColoring, Graph
# not called here; bound because perfbench/tracing.py wraps it by name
from .graph_core import compute_s  # noqa: F401
from .list_assignments import ListAssignment

FORMAT_TAG = "dsgraph-v1"


@dataclass
class Instance:
    """In-memory form of one dsgraph-v1 file."""

    graph: Graph
    d: int
    coloring: EdgeColoring | None = None
    s_claimed: int | None = None
    s_measured: int | None = None
    lists: ListAssignment | None = None
    solution: EdgeColoring | None = None
    plan: tuple[tuple[int, int, int, int], ...] | None = None
    report: dict | None = None
    family: dict = field(default_factory=dict)


def from_colored_graph(cg: ColoredGraph, lists: ListAssignment | None = None) -> Instance:
    fam = dict(cg.family)
    return Instance(graph=cg.graph, d=cg.d, coloring=cg.coloring,
                    s_claimed=cg.s_claimed, s_measured=cg.s_measured,
                    lists=lists, family=fam)


def to_colored_graph(inst: Instance) -> ColoredGraph:
    """Rebuild a certified colored graph; measured s is recomputed, not trusted.

    A stored claim above the recomputed value triggers a warning rather than
    an error, since files may describe graphs whose claims were already
    flagged when they were built. A file without a claim claims the measured
    value, so the census runs once.
    """
    if inst.coloring is None:
        raise InvalidInstance("coloring: required to rebuild a colored graph")
    return _certify(inst.graph, inst.coloring.colors, inst.d, inst.s_claimed,
                    dict(inst.family), strict=False)


def _err(invariant: str) -> InvalidInstance:
    return InvalidInstance(invariant)


def _check_color_array(values, m: int, d: int, name: str) -> tuple[int, ...]:
    if not isinstance(values, list) or len(values) != m:
        raise _err(f"{name}: length must equal the number of edges ({m})")
    for c in values:
        if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= d:
            raise _err(f"{name}: colors must be integers in 1..{d}")
    return tuple(values)


def from_json_dict(data) -> Instance:
    """Validate a parsed JSON object; error messages name the broken invariant."""
    if not isinstance(data, dict):
        raise _err("top level: must be a JSON object")
    if data.get("format") != FORMAT_TAG:
        raise _err(f"format: expected '{FORMAT_TAG}'")
    n = data.get("n")
    d = data.get("d")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise _err("n: must be a nonnegative integer")
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise _err("d: must be a nonnegative integer")
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise _err("edges: must be an array of [u, v] pairs")
    edges = []
    for item in raw_edges:
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)):
            raise _err("edges: each entry must be a pair of integers")
        u, v = item
        if not 0 <= u < v < n:
            raise _err("edges: must be canonical (0 <= u < v < n)")
        edges.append((u, v))
    if edges != sorted(edges):
        raise _err("edges: must be sorted lexicographically")
    if len(set(edges)) != len(edges):
        raise _err("edges: duplicates are not allowed")
    graph = Graph.from_edges(n, edges)
    m = graph.m

    coloring = None
    if "coloring" in data:
        coloring = EdgeColoring(_check_color_array(data["coloring"], m, d, "coloring"), d)
    solution = None
    if "solution" in data:
        solution = EdgeColoring(_check_color_array(data["solution"], m, d, "solution"), d)

    s_claimed = s_measured = None
    if "s" in data:
        block = data["s"]
        if not isinstance(block, dict):
            raise _err("s: must be an object with 'claimed' and 'measured'")
        for key in ("claimed", "measured"):
            if key in block:
                value = block[key]
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise _err(f"s.{key}: must be a positive integer")
        s_claimed = block.get("claimed")
        s_measured = block.get("measured")

    lists = None
    if "lists" in data:
        raw = data["lists"]
        if not isinstance(raw, dict):
            raise _err("lists: must map edge indices to color arrays")
        parsed = {}
        for key, colors in raw.items():
            if not isinstance(key, str) or not key.isdigit():
                raise _err(f"lists: key {key!r} is not a decimal edge index")
            e = int(key)
            if not 0 <= e < m:
                raise _err(f"lists: key '{key}' is not a valid edge index")
            if (not isinstance(colors, list)
                    or any(not isinstance(c, int) or isinstance(c, bool) for c in colors)):
                raise _err(f"lists['{key}']: must be an array of integers")
            if any(not 1 <= c <= d for c in colors):
                raise _err(f"lists['{key}']: colors must lie in 1..{d}")
            if colors != sorted(set(colors)):
                raise _err(f"lists['{key}']: colors must be sorted and unique")
            parsed[e] = colors
        lists = ListAssignment.from_dict(parsed)

    plan = None
    if "plan" in data:
        raw = data["plan"]
        if not isinstance(raw, list):
            raise _err("plan: must be an array of 4-vertex cycles")
        rows = []
        for item in raw:
            if (not isinstance(item, list) or len(item) != 4
                    or any(not isinstance(x, int) or isinstance(x, bool) for x in item)):
                raise _err("plan: each cycle must be four vertex integers")
            if any(not 0 <= x < n for x in item):
                raise _err("plan: cycle vertices must lie in 0..n-1")
            rows.append(tuple(item))
        plan = tuple(rows)

    report = data.get("report")
    if report is not None and not isinstance(report, dict):
        raise _err("report: must be an object")
    family = data.get("family", {})
    if not isinstance(family, dict):
        raise _err("family: must be an object")

    return Instance(graph=graph, d=d, coloring=coloring, s_claimed=s_claimed,
                    s_measured=s_measured, lists=lists, solution=solution,
                    plan=plan, report=report, family=family)


def to_json_dict(inst: Instance) -> dict:
    data: dict = {
        "format": FORMAT_TAG,
        "n": inst.graph.n,
        "d": inst.d,
        "edges": [list(e) for e in inst.graph.edges],
    }
    if inst.coloring is not None:
        data["coloring"] = list(inst.coloring.colors)
    if inst.solution is not None:
        data["solution"] = list(inst.solution.colors)
    if inst.s_claimed is not None or inst.s_measured is not None:
        block = {}
        if inst.s_claimed is not None:
            block["claimed"] = inst.s_claimed
        if inst.s_measured is not None:
            block["measured"] = inst.s_measured
        data["s"] = block
    if inst.lists is not None:
        data["lists"] = {str(e): sorted(cs) for e, cs in inst.lists.items()}
    if inst.plan is not None:
        data["plan"] = [list(c) for c in inst.plan]
    if inst.report is not None:
        data["report"] = inst.report
    if inst.family:
        data["family"] = inst.family
    return data


def dumps_instance(inst: Instance) -> str:
    return json.dumps(to_json_dict(inst), sort_keys=True, indent=2) + "\n"


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))


def load_instance(path) -> Instance:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _err(f"top level: not valid JSON ({exc})") from exc
    return from_json_dict(data)
