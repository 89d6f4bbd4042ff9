"""Shared builders and cycle/coloring helpers for the test suite."""

import random
from collections import Counter

import pytest

import dsgraph as dg


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
