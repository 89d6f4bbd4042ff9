"""Shared builders and cycle/coloring helpers for the test suite."""

import json
import math
import random
from collections import Counter

import pytest

import dsgraph as dg
from dsgraph.graph_core import add_count


@pytest.fixture(scope="session")
def q3():
    return dg.hypercube(3)


@pytest.fixture(scope="session")
def q4():
    return dg.hypercube(4)


@pytest.fixture(scope="session")
def k44():
    return dg.complete_bipartite_pow2(2)


@pytest.fixture(scope="session")
def k88():
    return dg.complete_bipartite_pow2(3)


def random_lists(g, d, seed, max_size):
    """Arbitrary per-edge forbidden sets, no sparsity promise."""
    rng = random.Random(seed)
    raw = {}
    for e in range(len(g.edges)):
        k = rng.randint(0, max_size)
        if k:
            raw[e] = rng.sample(range(1, d + 1), min(k, d))
    return dg.ListAssignment.from_dict(raw)


def edge_set(cycle):
    return frozenset(cycle.edge_ids)


def vertex_color_set(g, f, u):
    """The colors f puts on the edges at u."""
    return frozenset(f[e] for e in g.adjacency[u])


def vertex_used_counts(plan, g):
    """Per vertex, how many of the plan's used edges meet it."""
    counts = Counter()
    for e in plan.used:
        u, v = g.edges[e]
        counts[u] += 1
        counts[v] += 1
    return counts


def are_edge_disjoint(cycles):
    seen = set()
    for c in cycles:
        es = edge_set(c)
        if seen & es:
            return False
        seen |= es
    return True


def are_vertex_disjoint(cycles):
    seen = set()
    for c in cycles:
        vs = set(c.vertices)
        if seen & vs:
            return False
        seen |= vs
    return True


def ref_generate_sparse(cg, beta, seed):
    """``generate_sparse`` as it stood before its state went into flat lists:
    (edge, color) tuples shuffled by ``random.Random.shuffle``, a Counter per
    (vertex, color) and W6(e) ORed afresh for every pair."""
    g, h, d = cg.graph, cg.coloring, cg.d
    cap = math.floor(beta * cg.s_measured)
    if cap < 1:
        return dg.EMPTY
    rng = random.Random(seed)
    pairs = [(e, c) for e in range(g.m) for c in range(1, d + 1)]
    rng.shuffle(pairs)
    lists = {}
    per_vertex = Counter()
    balls = g.edge_balls(6)
    levels = {}
    for e, c in pairs:
        cur = lists.get(e)
        if cur is not None and c in cur:
            continue
        if cur is not None and len(cur) >= cap:
            continue
        u, v = g.edges[e]
        if per_vertex[(u, c)] >= cap or per_vertex[(v, c)] >= cap:
            continue
        w6 = balls[u] | balls[v]
        counts = levels.get((h[e], c))
        if counts is None:
            counts = levels[(h[e], c)] = [0] * cap
        elif counts[-1] & w6:
            continue
        if cur is None:
            lists[e] = {c}
        else:
            cur.add(c)
        per_vertex[(u, c)] += 1
        per_vertex[(v, c)] += 1
        add_count(counts, w6)
    return dg.ListAssignment({e: frozenset(cs) for e, cs in lists.items()})


def edge_oracle(g, d, L, limit):
    """``oracle_avoidable`` as it stood before it reasoned on (vertex, color)
    items: the edge search on bit-sliced color counters, ties to the first
    edge in the order of one ``uncolored`` set. Kept as the reference whose
    node count, witness and budget point equal those of the recursive and
    scanning searches in ``tests/test_oracle.py``, in their result shape:
    (avoidable, colors or None, nodes), or ("budget", nodes)."""
    m = g.m
    width = max(1, d.bit_length())
    full = (1 << d) - 1
    allowed = [full] * m
    forbidden = [0] * d
    for e, colors in L.items():
        for c in colors:
            if 1 <= c <= d:
                allowed[e] &= ~(1 << (c - 1))
                forbidden[c - 1] |= 1 << e
    unc = (1 << m) - 1
    avail = [unc ^ f for f in forbidden]
    planes = [0] * width
    for carry in avail:
        for i, p in enumerate(planes):
            planes[i], carry = p ^ carry, p & carry
    edges = g.edges
    balls = g.edge_balls(0)
    used = [0] * g.n
    assignment = [0] * m
    uncolored = set(range(m))
    nodes = 0
    stack = []
    while unc:
        high = 0
        for p in planes[1:]:
            high |= p
        pick = unc & ~high
        if not pick:
            pick = unc
            for p in reversed(planes):
                if pick & ~p:
                    pick &= ~p
        if pick & (pick - 1):
            for e in uncolored:
                if pick >> e & 1:
                    break
        else:
            e = pick.bit_length() - 1
        if (planes[0] | high) >> e & 1:
            uncolored.remove(e)
            unc ^= 1 << e
            u, v = edges[e]
            mask = allowed[e] & ~(used[u] | used[v])
        else:
            while True:
                if not stack:
                    return False, None, nodes
                e, mask, bit, before, planes = stack.pop()
                u, v = edges[e]
                used[u] &= ~bit
                used[v] &= ~bit
                avail[bit.bit_length() - 1] = before
                if mask:
                    break
                uncolored.add(e)
                unc |= 1 << e
        bit = mask & -mask
        nodes += 1
        if nodes > limit:
            return "budget", nodes
        c = bit.bit_length()
        before = avail[c - 1]
        stack.append((e, mask ^ bit, bit, before, planes))
        assignment[e] = c
        used[u] |= bit
        used[v] |= bit
        lost = before & (balls[u] | balls[v])
        avail[c - 1] = before ^ lost
        counted = []
        for p in planes:
            counted.append(p ^ lost)
            lost &= ~p
        planes = counted
    return True, tuple(assignment), nodes


def _ref_color_array(values, m, d, name):
    if not isinstance(values, list) or len(values) != m:
        raise dg.InvalidInstance(f"{name}: length must equal the number of edges ({m})")
    for c in values:
        if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= d:
            raise dg.InvalidInstance(f"{name}: colors must be integers in 1..{d}")
    return tuple(values)


def ref_from_json_dict(data):
    """``from_json_dict`` as it stood before its checks ran over whole arrays:
    one item at a time, raising at the first broken one. List keys follow the
    canonical rule (only str(e) for an edge e) that both validators share."""
    err = dg.InvalidInstance
    if not isinstance(data, dict):
        raise err("top level: must be a JSON object")
    if data.get("format") != dg.instance_io.FORMAT_TAG:
        raise err(f"format: expected '{dg.instance_io.FORMAT_TAG}'")
    n = data.get("n")
    d = data.get("d")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise err("n: must be a nonnegative integer")
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise err("d: must be a nonnegative integer")
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise err("edges: must be an array of [u, v] pairs")
    edges = []
    for item in raw_edges:
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)):
            raise err("edges: each entry must be a pair of integers")
        u, v = item
        if not 0 <= u < v < n:
            raise err("edges: must be canonical (0 <= u < v < n)")
        edges.append((u, v))
    if edges != sorted(edges):
        raise err("edges: must be sorted lexicographically")
    if len(set(edges)) != len(edges):
        raise err("edges: duplicates are not allowed")
    graph = dg.Graph(n, tuple(edges))
    m = graph.m

    coloring = solution = None
    if "coloring" in data:
        coloring = dg.EdgeColoring(_ref_color_array(data["coloring"], m, d, "coloring"), d)
    if "solution" in data:
        solution = dg.EdgeColoring(_ref_color_array(data["solution"], m, d, "solution"), d)

    s_claimed = s_measured = None
    if "s" in data:
        block = data["s"]
        if not isinstance(block, dict):
            raise err("s: must be an object with 'claimed' and 'measured'")
        for key in ("claimed", "measured"):
            if key in block:
                value = block[key]
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise err(f"s.{key}: must be a positive integer")
        s_claimed = block.get("claimed")
        s_measured = block.get("measured")

    lists = None
    if "lists" in data:
        raw = data["lists"]
        if not isinstance(raw, dict):
            raise err("lists: must map edge indices to color arrays")
        parsed = {}
        for key, colors in raw.items():
            if not isinstance(key, str) or not key.isdigit():
                raise err(f"lists: key {key!r} is not a decimal edge index")
            if not key.isascii() or len(key) > 1 and key[0] == "0":
                raise err(f"lists: key {key!r} is not in canonical form (str of the edge index)")
            if len(key) > len(str(m)) or int(key) >= m:
                raise err(f"lists: key '{key}' is not a valid edge index")
            if (not isinstance(colors, list)
                    or any(not isinstance(c, int) or isinstance(c, bool) for c in colors)):
                raise err(f"lists['{key}']: must be an array of integers")
            if any(not 1 <= c <= d for c in colors):
                raise err(f"lists['{key}']: colors must lie in 1..{d}")
            if colors != sorted(set(colors)):
                raise err(f"lists['{key}']: colors must be sorted and unique")
            parsed[int(key)] = colors
        lists = dg.ListAssignment.from_dict(parsed)

    plan = None
    if "plan" in data:
        raw = data["plan"]
        if not isinstance(raw, list):
            raise err("plan: must be an array of 4-vertex cycles")
        rows = []
        for item in raw:
            if (not isinstance(item, list) or len(item) != 4
                    or any(not isinstance(x, int) or isinstance(x, bool) for x in item)):
                raise err("plan: each cycle must be four vertex integers")
            if any(not 0 <= x < n for x in item):
                raise err("plan: cycle vertices must lie in 0..n-1")
            rows.append(tuple(item))
        plan = tuple(rows)

    report = data.get("report")
    if report is not None and not isinstance(report, dict):
        raise err("report: must be an object")
    family = data.get("family", {})
    if not isinstance(family, dict):
        raise err("family: must be an object")
    return dg.instance_io.Instance(graph=graph, d=d, coloring=coloring, s_claimed=s_claimed,
                                   s_measured=s_measured, lists=lists, solution=solution,
                                   plan=plan, report=report, family=family)


def to_json_dict(inst):
    """The dsgraph-v1 document of an instance as JSON values: the object
    ``load_instance`` parses and ``dumps_instance`` writes."""
    data = {
        "format": dg.instance_io.FORMAT_TAG,
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


def ref_dumps_instance(inst):
    """The reference writer for ``dumps_instance``: the whole document
    through the standard library's indenting encoder."""
    return json.dumps(to_json_dict(inst), sort_keys=True, indent=2) + "\n"
