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
