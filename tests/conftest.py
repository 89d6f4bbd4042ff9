"""Shared builders and cycle/coloring helpers for the test suite."""

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
