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
from itertools import chain
from operator import lt

from .constructors import ColoredGraph, _certify, _check_size
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
    """Certify the instance's own coloring; measured s is recomputed, not trusted.

    A stored claim above the recomputed value triggers a warning rather than
    an error, since files may describe graphs whose claims were already
    flagged when they were built. A file without a claim claims the measured
    value, so the census runs once.
    """
    coloring = inst.coloring
    if coloring is None:
        raise InvalidInstance("coloring: required to rebuild a colored graph")
    if coloring.d != inst.d:  # a hand-built Instance; a loaded one always agrees
        coloring = EdgeColoring(coloring.colors, inst.d)
    return _certify(inst.graph, coloring, inst.s_claimed, inst.family, strict=False)


def _err(invariant: str) -> InvalidInstance:
    return InvalidInstance(invariant)


def _only(values, kind: type) -> bool:
    """True iff every value has exactly the type kind (so bool is no int)."""
    return set(map(type, values)) <= {kind}


def _in_range(values, lo: int, hi: int) -> bool:
    return not values or lo <= min(values) and max(values) <= hi


# Each invariant is first checked over whole arrays at C level. Only when such
# a pass fails does the per-item loop run, which raises the message of the
# first broken item; it also accepts what the passes leave to it (subclasses
# of list and int), as it always has.

def _check_color_array(values, m: int, d: int, name: str) -> tuple[int, ...]:
    if not isinstance(values, list) or len(values) != m:
        raise _err(f"{name}: length must equal the number of edges ({m})")
    if not (_only(values, int) and _in_range(values, 1, d)):
        for c in values:
            if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= d:
                raise _err(f"{name}: colors must be integers in 1..{d}")
    return tuple(values)


def _check_edges(raw: list, n: int) -> tuple[tuple[tuple[int, int], ...],
                                               tuple[int, ...], tuple[int, ...]]:
    """(edges, tails, heads): the checked (u, v) pairs and their endpoint
    columns, which the ``Graph`` built from them keeps as they are."""
    if _only(raw, list) and set(map(len, raw)) <= {2}:
        tails, heads = zip(*raw) if raw else ((), ())
        # each u < v, so the least u and the largest v bound all the others
        if (_only(tails, int) and _only(heads, int) and all(map(lt, tails, heads))
                and 0 <= min(tails, default=0) and max(heads, default=0) < n):
            return tuple(zip(tails, heads)), tails, heads
    edges = []
    for item in raw:
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)):
            raise _err("edges: each entry must be a pair of integers")
        u, v = item
        if not 0 <= u < v < n:
            raise _err("edges: must be canonical (0 <= u < v < n)")
        edges.append((u, v))
    return (tuple(edges), *zip(*edges))  # raw is nonempty: [] passes the check above


def _edge_ids(keys: list, m: int) -> list[int] | None:
    """The edge of each key when every key is some str(e) with 0 <= e < m."""
    if not _only(keys, str):
        return None
    try:
        ids = list(map(int, keys))
    except ValueError:
        return None
    return ids if list(map(str, ids)) == keys and _in_range(ids, 0, m - 1) else None


def _check_lists(raw: dict, m: int, d: int) -> dict[int, list[int]]:
    ids = _edge_ids(list(raw), m)
    values = list(raw.values())
    if ids is not None and _only(values, list):
        flat = list(chain.from_iterable(values))
        if (_only(flat, int) and _in_range(flat, 1, d)
                and values == list(map(sorted, map(set, values)))):
            return dict(zip(ids, values))
    parsed = {}
    for key, colors in raw.items():
        if not isinstance(key, str) or not key.isdigit():
            raise _err(f"lists: key {key!r} is not a decimal edge index")
        if not key.isascii() or len(key) > 1 and key[0] == "0":
            raise _err(f"lists: key {key!r} is not in canonical form (str of the edge index)")
        # a key with more digits than m is out of range, and int() of it may refuse
        if len(key) > len(str(m)) or int(key) >= m:
            raise _err(f"lists: key '{key}' is not a valid edge index")
        if (not isinstance(colors, list)
                or any(not isinstance(c, int) or isinstance(c, bool) for c in colors)):
            raise _err(f"lists['{key}']: must be an array of integers")
        if any(not 1 <= c <= d for c in colors):
            raise _err(f"lists['{key}']: colors must lie in 1..{d}")
        if colors != sorted(set(colors)):
            raise _err(f"lists['{key}']: colors must be sorted and unique")
        parsed[int(key)] = colors
    return parsed


def _check_plan(raw: list, n: int) -> tuple[tuple[int, int, int, int], ...]:
    if _only(raw, list) and set(map(len, raw)) <= {4}:
        flat = list(chain.from_iterable(raw))
        if _only(flat, int) and _in_range(flat, 0, n - 1):
            return tuple(map(tuple, raw))
    rows = []
    for item in raw:
        if (not isinstance(item, list) or len(item) != 4
                or any(not isinstance(x, int) or isinstance(x, bool) for x in item)):
            raise _err("plan: each cycle must be four vertex integers")
        if any(not 0 <= x < n for x in item):
            raise _err("plan: cycle vertices must lie in 0..n-1")
        rows.append(tuple(item))
    return tuple(rows)


def from_json_dict(data) -> Instance:
    """Validate a parsed JSON object; error messages name the broken invariant,
    and n and d past the caps of ``_check_size`` raise ResourceLimit first."""
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
    _check_size(n, d)
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise _err("edges: must be an array of [u, v] pairs")
    edges, tails, heads = _check_edges(raw_edges, n)
    if not all(map(lt, edges, edges[1:])):
        if list(edges) != sorted(edges):
            raise _err("edges: must be sorted lexicographically")
        raise _err("edges: duplicates are not allowed")
    # checked above: canonical, sorted, unique
    graph = Graph(n, edges, _columns=(tails, heads))
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
        lists = ListAssignment.from_dict(_check_lists(raw, m, d))

    plan = None
    if "plan" in data:
        raw = data["plan"]
        if not isinstance(raw, list):
            raise _err("plan: must be an array of 4-vertex cycles")
        plan = _check_plan(raw, n)

    report = data.get("report")
    if report is not None and not isinstance(report, dict):
        raise _err("report: must be an object")
    family = data.get("family", {})
    if not isinstance(family, dict):
        raise _err("family: must be an object")

    return Instance(graph=graph, d=d, coloring=coloring, s_claimed=s_claimed,
                    s_measured=s_measured, lists=lists, solution=solution,
                    plan=plan, report=report, family=family)


# The writer formats by hand the text json.dumps(document, sort_keys=True,
# indent=2) would give: with indent set, json.dumps runs its pure-Python
# encoder. Each integer array is instead one % format, its template joined at
# C level from one "%d" per value.

def _array(items: list[str], pad: str) -> str:
    """A JSON array of the given item texts, the items at indent pad."""
    if not items:
        return "[]"
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[:-2] + "]"


def _ints(values, pad: str) -> str:
    return _array(["%d"] * len(values), pad) % tuple(values)


def _rows(rows, width: int) -> str:
    """An array at indent 2 of int arrays of the given width (edges, plan)."""
    row = _array(["%d"] * width, "      ")
    return _array([row] * len(rows), "    ") % tuple(chain.from_iterable(rows))


def _lists(lists) -> str:
    """The lists object at indent 2; keys sort as strings, so "10" precedes "9"."""
    by_key = {str(e): cs for e, cs in lists.items()}
    if not by_key:
        return "{}"
    keys = sorted(by_key)
    values = list(map(sorted, map(by_key.__getitem__, keys)))
    sizes = list(map(len, values))
    entry = {k: '    "%s": ' + _array(["%d"] * k, "      ") for k in set(sizes)}
    body = ",\n".join(map(entry.__getitem__, sizes))
    return ("{\n" + body + "\n  }") % tuple(chain.from_iterable(map(chain, zip(keys), values)))


def _block(value) -> str:
    """A free-form value at indent 2, as the whole-document encoder writes it."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def dumps_instance(inst: Instance) -> str:
    """The dsgraph-v1 text: sorted keys, two-space indent, one trailing newline."""
    blocks = {
        "format": _block(FORMAT_TAG),
        "n": _block(inst.graph.n),
        "d": _block(inst.d),
        "edges": _rows(inst.graph.edges, 2),
    }
    if inst.coloring is not None:
        blocks["coloring"] = _ints(inst.coloring.colors, "    ")
    if inst.solution is not None:
        blocks["solution"] = _ints(inst.solution.colors, "    ")
    if inst.s_claimed is not None or inst.s_measured is not None:
        s = {"claimed": inst.s_claimed, "measured": inst.s_measured}
        blocks["s"] = _block({k: v for k, v in s.items() if v is not None})
    if inst.lists is not None:
        blocks["lists"] = _lists(inst.lists)
    if inst.plan is not None:
        blocks["plan"] = _rows(inst.plan, 4)
    if inst.report is not None:
        blocks["report"] = _block(inst.report)
    if inst.family:
        blocks["family"] = _block(inst.family)
    return "{\n" + ",\n".join('  "%s": %s' % (key, blocks[key]) for key in sorted(blocks)) + "\n}\n"


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))


def load_instance(path) -> Instance:
    """Read, decode and validate one file.

    The bytes are decoded as UTF-8 once, here, so invalid UTF-8 raises the
    codec's UnicodeDecodeError, and ``json.loads`` gets a str: given bytes it
    would also accept a UTF-16 or UTF-32 file, and a UTF-8 BOM, which as a
    str it refuses.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _err(f"top level: not valid JSON ({exc})") from exc
    return from_json_dict(data)
