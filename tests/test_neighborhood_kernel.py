"""The edge-ball kernel against a brute-force BFS reference written here.

The reference computes vertex distances by BFS over a plain adjacency list
built from the edge tuples, so it shares no code with ``graph_core``'s
bitmask balls. The distance-2 generator is compared with the all-pairs greedy
it replaced, reimplemented here on the same random draws.

The bit-sliced anchor counters behind ``generate_sparse``, sparsity condition
(iii) and phase-one condition (a) are compared with the 6-neighborhood tables
they replaced: the table-based generator and both counting loops are kept
here, built on ``Graph.neighborhood_dedup``, and must agree witness for
witness. The whole violation list of ``validate_beta_sparse`` is also
counted from the definitions, per vertex over its incident edges and per
anchor over ``t_neighborhood``.
"""

import functools
import math
import operator
import random
import tracemalloc
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph.constructors import ColoredGraph
from dsgraph.graph_core import Graph, add_count
from dsgraph.solver import _Checker
from tests.conftest import edge_distance, random_lists


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


def reference_vertex_distances(g):
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
    return vertex_dist


def reference_edge_distances(g):
    vertex_dist = reference_vertex_distances(g)
    return [[min(vertex_dist[a][b] for a in e for b in f) for f in g.edges] for e in g.edges]


def reference_edge_balls(g, t):
    """Per vertex w, the bitmask of the edges with an endpoint within distance t of w."""
    return tuple(sum(1 << f for f, (a, b) in enumerate(g.edges) if min(dist[a], dist[b]) <= t)
                 for dist in reference_vertex_distances(g))


def reference_ball(ref, e, t):
    return frozenset(f for f, dist in enumerate(ref[e]) if dist <= t)


def fresh(g):
    """A copy of g with no cached balls or tables."""
    return Graph(g.n, g.edges)


labels = st.sampled_from(sorted(BUILDERS))

# graphs the colored builders lack: no edges, isolated vertices, irregular
# degrees, and diameters of 5 and 2, which t = 7 overshoots
EDGE_CASES = {
    "no vertices": Graph(0, ()),
    "no edges": Graph(5, ()),
    "isolated vertices": Graph.from_edges(8, [(1, 2), (2, 4), (1, 4), (5, 6)]),
    "path P6": Graph.from_edges(6, [(i, i + 1) for i in range(5)]),
    "star K1,5": Graph.from_edges(6, [(0, i) for i in range(1, 6)]),
}


@pytest.mark.parametrize("label", sorted(EDGE_CASES))
def test_edge_balls_match_bfs_reference_on_edge_cases(label):
    g = fresh(EDGE_CASES[label])
    for t in range(8):
        assert g.edge_balls(t) == reference_edge_balls(g, t), t
    # past the diameter every ball is its component's whole edge set, so the
    # distinct nonzero balls split the edges
    parts = set(fresh(g).edge_balls(7)) - {0}
    assert sum(parts) == functools.reduce(operator.or_, parts, 0) == (1 << g.m) - 1


@settings(deadline=None, max_examples=40)
@given(labels, st.integers(min_value=0, max_value=7))
def test_edge_balls_match_bfs_reference(label, t):
    cg, _ = instance(label)
    assert fresh(cg.graph).edge_balls(t) == reference_edge_balls(cg.graph, t)


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
    assert [edge_distance(g, e, f) for f in range(g.m)] == ref[e]


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


_tables: dict = {}


def dedup6(label):
    """The old (sets, containing, reps) tables for W6, built once per label."""
    if label not in _tables:
        _tables[label] = fresh(instance(label)[0].graph).neighborhood_dedup(6)
    return _tables[label]


def table_generate_sparse(cg, containing, beta, seed):
    """The greedy generator as it counted per (W6 class, matching, color)."""
    g, h, d = cg.graph, cg.coloring, cg.d
    cap = math.floor(beta * cg.s_measured)
    rng = random.Random(seed)
    pairs = [(e, c) for e in range(g.m) for c in range(1, d + 1)]
    rng.shuffle(pairs)
    if cap < 1:
        return dg.EMPTY
    lists: dict = {}
    per_vertex: Counter = Counter()
    nbhd_counts: dict = {}
    for e, c in pairs:
        cur = lists.get(e)
        if cur is not None and (c in cur or len(cur) >= cap):
            continue
        u, v = g.edges[e]
        if per_vertex[(u, c)] >= cap or per_vertex[(v, c)] >= cap:
            continue
        keys = [(uid, h[e], c) for uid in containing[e]]
        if any(nbhd_counts.get(k, 0) >= cap for k in keys):
            continue
        lists.setdefault(e, set()).add(c)
        per_vertex[(u, c)] += 1
        per_vertex[(v, c)] += 1
        for k in keys:
            nbhd_counts[k] = nbhd_counts.get(k, 0) + 1
    return dg.ListAssignment({e: frozenset(cs) for e, cs in lists.items()})


def table_condition_iii(cg, tables, L, beta):
    """Condition (iii) violations from per-(uid, matching, color) counts."""
    _, containing, reps = tables
    bound = beta * cg.s_measured
    counts: dict = {}
    for e, cs in L.items():
        for uid in containing[e]:
            for c in cs:
                key = (uid, cg.coloring[e], c)
                counts[key] = counts.get(key, 0) + 1
    return [dg.Violation("iii", (reps[uid], m, c), cnt, bound)
            for (uid, m, c), cnt in sorted(counts.items()) if cnt > math.floor(bound)]


def table_condition_a(cg, tables, L, rho, gs):
    """Phase-one (a) witnesses from per-uid counts of each matching's conflicts."""
    _, containing, reps = tables
    h = cg.coloring
    by_matching: dict = {}
    for e in sorted(L.lists):
        if rho(h[e]) in L.lists[e]:
            by_matching.setdefault(h[e], []).append(e)
    out = []
    for m, group in sorted(by_matching.items()):
        per_anchor: Counter = Counter()
        for e in group:
            for uid in containing[e]:
                per_anchor[uid] += 1
        out += [(reps[uid], m, cnt) for uid, cnt in sorted(per_anchor.items()) if cnt > gs]
    return out


def first_principles_violations(cg, L, beta):
    """Conditions (i), (ii) and (iii), in the validator's order, each counted
    from its definition; (iii) is reported once per distinct W6, through its
    least anchor."""
    g, h = cg.graph, cg.coloring
    bound = beta * cg.s_measured
    cap = math.floor(bound)
    out = [dg.Violation("i", (e,), len(cs), bound) for e, cs in sorted(L.items())
           if len(cs) > cap]
    for w in range(g.n):
        at_w = Counter(c for e in g.adjacency[w] for c in L.get(e))
        out += [dg.Violation("ii", (w, c), at_w[c], bound) for c in sorted(at_w)
                if at_w[c] > cap]
    iii, seen = [], set()
    for a in range(g.m):
        W = dg.t_neighborhood(g, a, 6)
        if W in seen:
            continue
        seen.add(W)
        in_w = Counter((h[e], c) for e in W for c in L.get(e))
        iii += [dg.Violation("iii", (a, m, c), cnt, bound)
                for (m, c), cnt in sorted(in_w.items()) if cnt > cap]
    return out + iii


def some_lists(cg, beta_num, seed, crowded):
    """Generated beta-sparse lists, or unconstrained ones that crowd every check."""
    if crowded:
        return random_lists(cg.graph, cg.d, seed, 2)
    return dg.generate_sparse(cg, Fraction(beta_num, cg.s_measured), seed)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(min_value=0, max_value=63), max_size=12),
       st.integers(min_value=1, max_value=4))
def test_add_count_levels_hold_the_bits_counted_more_than_j_times(masks, k):
    levels = [0] * k
    for mask in masks:
        add_count(levels, mask)
    for bit in range(6):
        count = sum(mask >> bit & 1 for mask in masks)
        assert [levels[j] >> bit & 1 for j in range(k)] == [int(count > j) for j in range(k)]


@settings(deadline=None, max_examples=60)
@given(labels, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10 ** 6))
def test_generate_sparse_matches_table_generator(label, beta_num, seed):
    cg, _ = instance(label)
    beta = Fraction(beta_num, cg.s_measured)
    _, containing, _ = dedup6(label)
    assert dg.generate_sparse(cg, beta, seed) == table_generate_sparse(cg, containing, beta, seed)


@settings(deadline=None, max_examples=80)
@given(labels, st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10 ** 6),
       st.booleans(), st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]))
def test_condition_iii_matches_table_loop(label, beta_num, seed, crowded, check_num):
    # validating below the generating beta (0 and 1/(2s) included) forces violations
    cg, _ = instance(label)
    L = some_lists(cg, beta_num, seed, crowded)
    beta = check_num / cg.s_measured
    got = [v for v in dg.validate_beta_sparse(cg, L, beta).violations if v.condition == "iii"]
    assert got == table_condition_iii(cg, dedup6(label), L, beta)


@settings(deadline=None, max_examples=40)
@given(labels, st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10 ** 6),
       st.booleans(), st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]))
def test_validate_matches_first_principles_counts(label, beta_num, seed, crowded, check_num):
    cg, _ = instance(label)
    L = some_lists(cg, beta_num, seed, crowded)
    beta = check_num / cg.s_measured
    got = dg.validate_beta_sparse(cg, L, beta).violations
    assert list(got) == first_principles_violations(cg, L, beta)


@settings(deadline=None, max_examples=80)
@given(labels, st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10 ** 6),
       st.booleans(), st.integers(min_value=0, max_value=1))
def test_condition_a_matches_table_loop(label, beta_num, seed, crowded, gs):
    cg, _ = instance(label)
    s = cg.s_measured
    L = some_lists(cg, beta_num, seed, crowded)
    params = dg.SolverParams(cg.d, s, Fraction(gs, s), Fraction(1, 2), Fraction(1, 2))
    rng = random.Random(seed)
    for _ in range(4):
        images = list(range(1, cg.d + 1))
        rng.shuffle(images)
        rho = dg.Permutation(tuple(images))
        got = dg.check_permutation(cg, L, rho, params).witnesses_a
        assert list(got) == table_condition_a(cg, dedup6(label), L, rho, gs)


def test_q10_sparse_lists_generate_and_validate_without_tables():
    cg = dg.hypercube(10)
    L = dg.generate_sparse(cg, Fraction(1, 10), 0)
    assert L.total_entries() == 100
    assert dg.validate_beta_sparse(cg, L, Fraction(1, 10)).ok


def test_one_phase_one_trial_stops_at_its_first_witness():
    # the identity crowds tens of thousands of W6 classes here; a trial
    # that listed them all before its first witness peaked near 4 MB
    cg = dg.hypercube(10)
    L = dg.generate_sparse(cg, Fraction(2, 10), 0)
    params = dg.SolverParams(cg.d, cg.s_measured, Fraction(1, 10), Fraction(5, 10),
                             Fraction(5, 10))
    checker = _Checker(cg, L, params)
    identity = dg.Permutation(tuple(range(1, cg.d + 1)))
    cg.graph.edge_balls(6)
    assert next(checker.witnesses(identity)) == ("a", (0, 1, 2))
    tracemalloc.start()
    try:
        assert not checker.accepts(identity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
