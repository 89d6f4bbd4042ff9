"""The edge-ball kernel against a brute-force BFS reference written here.

The reference computes vertex distances by BFS over a plain adjacency list
built from the edge tuples, so it shares no code with ``graph_core``'s
bitmask balls. The distance-2 generator is compared with the all-pairs greedy
it replaced, reimplemented here on the same random draws.
"""

import math
import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph.constructors import ColoredGraph
from dsgraph.graph_core import Graph


def _two_disjoint_4_cycles():
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    # edges (0,1) (0,3) (1,2) (2,3) and their copies on 4..7
    h = dg.EdgeColoring((1, 2, 2, 1) * 2, 2)
    s = dg.compute_s(g, h)
    return ColoredGraph(g, h, 2, s, s, {"name": "two disjoint 4-cycles"})


BUILDERS = {
    "Q3": lambda: dg.hypercube(3),
    "Q4": lambda: dg.hypercube(4),
    "Q5": lambda: dg.hypercube(5),
    "Q6": lambda: dg.hypercube(6),
    "K4,4": lambda: dg.complete_bipartite_pow2(2),
    "K8,8": lambda: dg.complete_bipartite_pow2(3),
    "Q2xK4,4": lambda: dg.cartesian_product(dg.hypercube(2), dg.complete_bipartite_pow2(2)),
    "2xC4": _two_disjoint_4_cycles,
}
_built: dict = {}


def instance(label):
    """(colored graph, reference edge-distance matrix), built once per label."""
    if label not in _built:
        cg = BUILDERS[label]()
        _built[label] = (cg, reference_edge_distances(cg.graph))
    return _built[label]


def reference_edge_distances(g):
    adjacent = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    vertex_dist = []
    for source in range(g.n):
        dist = [math.inf] * g.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            w = queue.popleft()
            for x in adjacent[w]:
                if dist[x] == math.inf:
                    dist[x] = dist[w] + 1
                    queue.append(x)
        vertex_dist.append(dist)
    return [[min(vertex_dist[a][b] for a in e for b in f) for f in g.edges] for e in g.edges]


def reference_ball(ref, e, t):
    return frozenset(f for f, dist in enumerate(ref[e]) if dist <= t)


def fresh(g):
    """A copy of g with no cached balls or tables."""
    return Graph(g.n, g.edges)


labels = st.sampled_from(sorted(BUILDERS))


@settings(deadline=None, max_examples=60)
@given(labels, st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4))
def test_t_neighborhood_matches_bfs_reference(label, radii):
    # several radii on one graph, repeats included, exercise the radius cache
    cg, ref = instance(label)
    g = fresh(cg.graph)
    for t in radii:
        for e in range(g.m):
            assert dg.t_neighborhood(g, e, t) == reference_ball(ref, e, t)
    e = radii[0] % g.m
    assert [dg.edge_distance(g, e, f) for f in range(g.m)] == ref[e]


@settings(deadline=None, max_examples=40)
@given(labels, st.integers(min_value=0, max_value=7))
def test_neighborhood_dedup_matches_grouped_reference_sets(label, t):
    cg, ref = instance(label)
    uids: dict = {}
    reps = []
    for e in range(cg.graph.m):
        w = reference_ball(ref, e, t)
        if w not in uids:
            uids[w] = len(uids)
            reps.append(e)
    sets = tuple(uids)
    containing = tuple(tuple(uid for uid, w in enumerate(sets) if f in w)
                       for f in range(cg.graph.m))
    assert fresh(cg.graph).neighborhood_dedup(t) == (sets, containing, tuple(reps))


def all_pairs_generate_distance2(cg, ref, seed, max_list):
    """The greedy that compared each visited edge with every chosen one."""
    if max_list == 0:
        return dg.EMPTY
    rng = random.Random(seed)
    order = list(range(cg.graph.m))
    rng.shuffle(order)
    support = []
    for e in order:
        if all(ref[e][f] >= 2 for f in support):
            support.append(e)
    lists = {}
    for e in sorted(support):
        size = rng.randint(1, max_list)
        lists[e] = frozenset(rng.sample(range(1, cg.d + 1), size))
    return dg.ListAssignment(lists)


@settings(deadline=None, max_examples=60)
@given(labels, st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=0))
def test_generate_distance2_matches_all_pairs_greedy(label, seed, size):
    cg, ref = instance(label)
    max_list = size % cg.s_measured
    assert dg.generate_distance2(cg, seed, max_list) == \
        all_pairs_generate_distance2(cg, ref, seed, max_list)


def test_generate_distance2_is_maximal_on_q11():
    cg = dg.hypercube(11)
    g = cg.graph
    support = dg.generate_distance2(cg, 0, 10).support()
    adjacent = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    owner = [None] * g.n
    for e in support:
        for w in g.edges[e]:
            assert owner[w] is None
            owner[w] = e
    near = set()
    for e in support:
        for w in g.edges[e]:
            # distance 2: no other support edge has an endpoint within 1 of w
            assert all(owner[x] in (None, e) for x in adjacent[w])
            near.add(w)
            near.update(adjacent[w])
    # maximal: every edge off the support has an endpoint within 1 of it
    assert all(u in near or v in near for u, v in g.edges)
