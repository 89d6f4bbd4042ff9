"""Exact avoidability oracle and independent cycle census."""

import itertools
import random
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import dsgraph as dg
from tests.conftest import edge_oracle, item_oracle, oracle_cycle_census, random_lists


def test_oracle_trivial_empty_lists(q3):
    res = dg.oracle_avoidable(q3.graph, 3, dg.EMPTY)
    assert res.avoidable
    assert dg.verify_solution(q3, res.witness, dg.EMPTY)


def test_oracle_single_forbidden_color_on_cycle():
    c4 = dg.hypercube(2)
    L = dg.ListAssignment.from_dict({0: [1]})
    res = dg.oracle_avoidable(c4.graph, 2, L)
    assert res.avoidable
    assert res.witness[0] == 2
    assert dg.verify_solution(c4, res.witness, L)


def test_oracle_detects_infeasibility():
    # a 2-regular graph has no third color to dodge into
    c4 = dg.hypercube(2)
    L = dg.ListAssignment.from_dict({0: [1, 2]})
    res = dg.oracle_avoidable(c4.graph, 2, L)
    assert not res.avoidable
    assert res.witness is None


def test_oracle_budget_raises(k44):
    with pytest.raises(dg.OracleBudgetExceeded) as ei:
        dg.oracle_avoidable(k44.graph, 4, dg.EMPTY, limit=3)
    assert ei.value.nodes_explored > 3


def test_oracle_rejects_negative_budget(q3):
    # a negative budget used to read as "undecided after 1 node"
    with pytest.raises(ValueError, match="nonnegative"):
        dg.oracle_avoidable(q3.graph, 3, dg.EMPTY, limit=-5)
    # zero admits no node: Q3 needs one, the empty graph none
    with pytest.raises(dg.OracleBudgetExceeded):
        dg.oracle_avoidable(q3.graph, 3, dg.EMPTY, limit=0)
    assert dg.oracle_avoidable(dg.Graph(0, ()), 0, dg.EMPTY, limit=0).avoidable


def recursive_oracle(g, d, L, limit):
    """The recursive backtracking ``oracle_avoidable`` replaced, kept as the
    reference: (avoidable, colors or None, nodes), or ("budget", nodes)."""
    full = (1 << d) - 1
    allowed = [full] * g.m
    for e, colors in L.items():
        for c in colors:
            if 1 <= c <= d:
                allowed[e] &= ~(1 << (c - 1))
    vertex_used = [0] * g.n
    assignment = [0] * g.m
    uncolored = set(range(g.m))
    nodes = 0

    def extend():
        nonlocal nodes
        if not uncolored:
            return True
        best, best_mask, best_count = -1, 0, d + 1
        for e in uncolored:
            u, v = g.edges[e]
            mask = allowed[e] & ~vertex_used[u] & ~vertex_used[v]
            count = mask.bit_count()
            if count == 0:
                return False
            if count < best_count:
                best, best_mask, best_count = e, mask, count
                if count == 1:
                    break
        uncolored.remove(best)
        u, v = g.edges[best]
        mask = best_mask
        while mask:
            bit = mask & -mask
            mask ^= bit
            nodes += 1
            if nodes > limit:
                raise dg.OracleBudgetExceeded(nodes)
            assignment[best] = bit.bit_length()
            vertex_used[u] |= bit
            vertex_used[v] |= bit
            if extend():
                return True
            vertex_used[u] &= ~bit
            vertex_used[v] &= ~bit
        assignment[best] = 0
        uncolored.add(best)
        return False

    try:
        found = extend()
    except dg.OracleBudgetExceeded as exc:
        return "budget", exc.nodes_explored
    return found, tuple(assignment) if found else None, nodes


def scan_oracle(g, d, L, limit):
    """The explicit-stack search that scanned every uncolored edge's count per
    node before the bit-sliced counters, kept as a second reference that no
    recursion limit stops: the reference's result shape, any depth."""
    full = (1 << d) - 1
    allowed = [full] * g.m
    for e, colors in L.items():
        for c in colors:
            if 1 <= c <= d:
                allowed[e] &= ~(1 << (c - 1))
    used = [0] * g.n
    assignment = [0] * g.m
    uncolored = set(range(g.m))
    nodes = 0
    stack = []
    while uncolored:
        best, best_mask, best_count = -1, 0, d + 1
        for e in uncolored:
            u, v = g.edges[e]
            mask = allowed[e] & ~(used[u] | used[v])
            count = mask.bit_count()
            if count < best_count:
                if count == 0:
                    best = -1
                    break
                best, best_mask, best_count = e, mask, count
                if count == 1:
                    break
        if best >= 0:
            uncolored.remove(best)
            stack.append([best, best_mask, 0])
        while stack:
            frame = stack[-1]
            e, mask, bit = frame
            u, v = g.edges[e]
            if bit:
                used[u] &= ~bit
                used[v] &= ~bit
            if mask:
                bit = mask & -mask
                frame[1], frame[2] = mask ^ bit, bit
                nodes += 1
                if nodes > limit:
                    return "budget", nodes
                assignment[e] = bit.bit_length()
                used[u] |= bit
                used[v] |= bit
                break
            assignment[e] = 0
            uncolored.add(e)
            stack.pop()
        if not stack:
            return False, None, nodes
    return True, tuple(assignment), nodes


def counter_oracle(g, d, L, limit):
    """``oracle_avoidable`` in the references' result shape."""
    try:
        res = dg.oracle_avoidable(g, d, L, limit)
    except dg.OracleBudgetExceeded as exc:
        return "budget", exc.nodes_explored
    return res.avoidable, res.witness.colors if res.avoidable else None, res.nodes_explored


def assert_item_search_agrees(g, d, L, ref, limit=3000):
    """``oracle_avoidable`` reaches ``ref``'s verdict wherever both decide,
    and each witness it returns passes ``verify_solution``."""
    got = counter_oracle(g, d, L, limit)
    if got[0] is True:
        witness = dg.EdgeColoring(got[1], d)
        assert dg.verify_solution(SimpleNamespace(graph=g, d=d), witness, L)
    if "budget" not in (got[0], ref[0]):
        assert got[0] == ref[0]
    return got


# The recursive reference recurses up to m deep, so it stops at K16,16
# (m = 256). The benchmark's oracle group also runs Q7, and Q8 seeds 0 and
# 10; those shapes, and K32,32 with its 6 counter planes, are compared with
# the scanning reference instead.
ORACLE_GRAPHS = {"Q3": dg.hypercube(3), "Q4": dg.hypercube(4), "Q5": dg.hypercube(5),
                 "Q6": dg.hypercube(6), "K4,4": dg.complete_bipartite_pow2(2),
                 "K8,8": dg.complete_bipartite_pow2(3),
                 "K16,16": dg.complete_bipartite_pow2(4)}
DEEP_GRAPHS = {"Q7": dg.hypercube(7), "Q8": dg.hypercube(8),
               "K32,32": dg.complete_bipartite_pow2(5)}


def oracle_lists(cg, distance2, seed):
    if distance2:
        return dg.generate_distance2(cg, seed, cg.s_measured - 1)
    return random_lists(cg.graph, cg.d, seed, 2)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(ORACLE_GRAPHS)), st.booleans(),
       st.integers(min_value=0, max_value=10 ** 6))
def test_oracle_matches_recursive_reference(name, distance2, seed):
    # the three edge searches branch alike, set-order ties included, so they
    # share witness, node count and budget point; the item search, which
    # branches otherwise, is held to their verdict
    cg = ORACLE_GRAPHS[name]
    L = oracle_lists(cg, distance2, seed)
    ref = recursive_oracle(cg.graph, cg.d, L, 3000)
    assert scan_oracle(cg.graph, cg.d, L, 3000) == edge_oracle(cg.graph, cg.d, L, 3000) == ref
    assert_item_search_agrees(cg.graph, cg.d, L, ref)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(sorted(DEEP_GRAPHS)), st.booleans(),
       st.integers(min_value=0, max_value=10 ** 6))
def test_oracle_matches_scanning_reference_beyond_recursion_depth(name, distance2, seed):
    cg = DEEP_GRAPHS[name]
    L = oracle_lists(cg, distance2, seed)
    ref = scan_oracle(cg.graph, cg.d, L, 3000)
    assert edge_oracle(cg.graph, cg.d, L, 3000) == ref
    assert_item_search_agrees(cg.graph, cg.d, L, ref)


def test_oracle_pinned_benchmark_q8_instances_match_the_scan():
    # the edge searches run out of budget on both; the item search decides
    q8 = DEEP_GRAPHS["Q8"]
    for seed in (0, 10):
        L = dg.generate_distance2(q8, seed, q8.s_measured - 1)
        ref = scan_oracle(q8.graph, 8, L, 3000)
        assert edge_oracle(q8.graph, 8, L, 3000) == ref == ("budget", 3001)
        assert assert_item_search_agrees(q8.graph, 8, L, ref)[0] is True


# Small graphs that are not d-regular, or where d exceeds every degree: only
# vertices of degree exactly d carry (vertex, color) items
IRREGULAR_GRAPHS = [
    (dg.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 2),
    (dg.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 3),
    (dg.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 2),
    (dg.Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 3),
    (dg.Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)
                             if (u, v) != (0, 3)]), 3),
    (dg.hypercube(3).graph, 4),
]


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=0, max_value=len(IRREGULAR_GRAPHS) - 1),
       st.sampled_from((0.2, 0.3, 0.4)), st.integers(min_value=0, max_value=10 ** 6))
def test_item_search_matches_the_edge_searches_off_degree_d(index, density, seed):
    g, d = IRREGULAR_GRAPHS[index]
    rng = random.Random(seed)
    L = dg.ListAssignment.from_dict({e: [c for c in range(1, d + 1) if rng.random() < density]
                                     for e in range(g.m)})
    ref = recursive_oracle(g, d, L, 3000)
    assert scan_oracle(g, d, L, 3000) == edge_oracle(g, d, L, 3000) == ref
    assert assert_item_search_agrees(g, d, L, ref)[0] == ref[0]
    if d not in map(len, g.adjacency):
        res = dg.oracle_avoidable(g, d, L)
        assert res.item_forced == res.item_dead_ends == 0


def _without_one_matching(t):
    return dg.remove_standard_matchings(dg.complete_bipartite_pow2(t), 1)


# d on each side of a plane-width step (P = 1, 2, 3, 3, 4, 4, 5 at d = 1, 3,
# 4, 7, 8, 15, 16), the deep graphs, and graphs off degree d: (graph, d,
# colored graph for distance-2 lists or None)
DIFFERENTIAL_CASES = [
    *((cg.graph, cg.d, cg) for cg in (dg.hypercube(1), ORACLE_GRAPHS["Q3"],
                                       ORACLE_GRAPHS["K4,4"], _without_one_matching(3),
                                       ORACLE_GRAPHS["K8,8"], _without_one_matching(4),
                                       ORACLE_GRAPHS["K16,16"])),
    *((cg.graph, cg.d, cg) for cg in DEEP_GRAPHS.values()),
    *((g, d, None) for g, d in IRREGULAR_GRAPHS),
]


def differential_lists(g, d, cg, kind, seed):
    """Distance-2 lists, or maximal sparse lists at B = 2 (about a third of
    them unavoidable on K4,4 and Q4, so searches that refute every branch),
    where the graph is colored for d, else random lists with, by kind,
    colors outside 1..d added to a few lists, or a few edges that forbid
    every color among lists of up to d - 1 colors, so that edges with one
    color left come before them."""
    if cg is not None and cg.d == d:
        if kind == "distance2":
            return dg.generate_distance2(cg, seed, cg.s_measured - 1)
        if kind == "sparse":
            return dg.generate_sparse(cg, Fraction(2, cg.s_measured), seed)
    size = max(2, d - 1) if kind == "every" else 2
    raw = {e: set(colors) for e, colors in random_lists(g, d, seed, size).items()}
    rng = random.Random(seed)
    if kind == "every":
        for e in rng.sample(range(g.m), 1 + g.m // 64):
            raw[e] = set(range(1, d + 1))
    elif kind == "outside":
        for e in rng.sample(range(g.m), 1 + g.m // 8):
            raw.setdefault(e, set()).update((-1, 0, d + 1, d + 5))
    return dg.ListAssignment.from_dict({e: sorted(cs) for e, cs in raw.items()})


def same_search(g, d, L, limit):
    """The result of ``oracle_avoidable``, or the node at which it ran out of
    budget, required equal to that of the item search it replaced."""
    def outcome(oracle):
        try:
            return oracle(g, d, L, limit)
        except dg.OracleBudgetExceeded as exc:
            return exc.nodes_explored
    got = outcome(dg.oracle_avoidable)
    assert got == outcome(item_oracle)
    return got


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=0, max_value=len(DIFFERENTIAL_CASES) - 1), st.booleans(),
       st.sampled_from(("random", "distance2", "sparse", "every", "outside")),
       st.integers(min_value=0, max_value=10 ** 6))
def test_node_step_repeats_the_item_search(index, above, kind, seed):
    # the same nodes, counters, witness and budget point as the reference,
    # also with one color more than the degree, and one node short of the end
    g, d, cg = DIFFERENTIAL_CASES[index]
    d += above
    L = differential_lists(g, d, cg, kind, seed)
    res = same_search(g, d, L, 2000)
    if isinstance(res, dg.OracleResult) and res.nodes_explored:
        assert same_search(g, d, L, res.nodes_explored - 1) == res.nodes_explored


def test_oracle_plane_width_edge_cases():
    # Q1 has d = 1 and one plane, Q2 d = 2 and two; every list assignment
    for cg in (dg.hypercube(1), dg.hypercube(2)):
        g, d = cg.graph, cg.d
        subsets = [[c for c in range(1, d + 1) if k >> (c - 1) & 1] for k in range(1 << d)]
        for choice in itertools.product(subsets, repeat=g.m):
            L = dg.ListAssignment.from_dict(dict(enumerate(choice)))
            got = counter_oracle(g, d, L, 100)
            assert got == recursive_oracle(g, d, L, 100) == scan_oracle(g, d, L, 100)
    # d = 0 leaves every edge without a color: decided at once, no node
    path = dg.Graph(3, ((0, 1), (1, 2)))
    res = dg.oracle_avoidable(path, 0, dg.EMPTY, limit=0)
    assert (res.avoidable, res.witness, res.nodes_explored) == (False, None, 0)
    assert scan_oracle(path, 0, dg.EMPTY, 0) == (False, None, 0)


def test_oracle_rejects_lists_on_nonexistent_edges(q3):
    # key -1 used to forbid colors on edge 11, key 12 raised a bare IndexError
    for key in (-1, 12):
        L = dg.ListAssignment.from_dict({key: [1, 2, 3]})
        with pytest.raises(dg.ColorOutOfRange, match=f"nonexistent edge {key}"):
            dg.oracle_avoidable(q3.graph, 3, L)


def test_oracle_ignores_colors_outside_the_palette(q3):
    # as the references do: a color no edge can take forbids nothing
    L = dg.ListAssignment.from_dict({0: [0, 4, 9], 5: [-1]})
    assert counter_oracle(q3.graph, 3, L, 3000) == \
        counter_oracle(q3.graph, 3, dg.EMPTY, 3000) == recursive_oracle(q3.graph, 3, L, 3000)


def frame_bytes(m, d):
    """The oracle's worst-case frame bytes on a d-regular graph with m edges:
    m frames of one edge mask and one mask of n = 2m / d fields of d + 1
    bits."""
    return m * (m + 2 * m * (d + 1) // d) // 8


def test_oracle_refuses_frames_above_the_byte_cap_before_any_node(q3, monkeypatch):
    size = frame_bytes(q3.graph.m, 3)
    monkeypatch.setattr(dg.oracle, "FRAME_BYTES_CAP", size - 1)
    # limit=0 would raise OracleBudgetExceeded at the first node explored
    with pytest.raises(dg.ResourceLimit, match="oracle frames"):
        dg.oracle_avoidable(q3.graph, 3, dg.EMPTY, limit=0)
    monkeypatch.setattr(dg.oracle, "FRAME_BYTES_CAP", size)
    assert dg.oracle_avoidable(q3.graph, 3, dg.EMPTY).avoidable


def cube_graph(k):
    """Q_k's graph without its coloring or certificate."""
    return dg.Graph.from_edges(1 << k, [(v, v | 1 << i) for v in range(1 << k)
                                        for i in range(k) if not v >> i & 1])


def test_oracle_byte_cap_admits_q12_and_refuses_q13():
    cap = dg.oracle.FRAME_BYTES_CAP
    for k, refused in ((11, False), (12, False), (13, True)):
        g = cube_graph(k)
        assert (frame_bytes(g.m, k) > cap) == refused
        with pytest.raises(dg.ResourceLimit if refused else dg.OracleBudgetExceeded):
            dg.oracle_avoidable(g, k, dg.EMPTY, limit=0)
    k128 = dg.Graph.from_edges(256, [(u, v) for u in range(128) for v in range(128, 256)])
    assert frame_bytes(k128.m, 128) <= cap
    with pytest.raises(dg.OracleBudgetExceeded):
        dg.oracle_avoidable(k128, 128, dg.EMPTY, limit=0)


def test_oracle_frames_keep_one_edge_mask_per_node():
    # a frame keeps one m-bit mask, the edges its node took out of one
    # color's avail (and H[c] once the items are armed), so the peak stays
    # near the depth times those masks
    for cg, nodes in ((dg.hypercube(8), 1234), (dg.complete_bipartite_pow2(5), 1039)):
        g = cg.graph
        L = dg.generate_distance2(cg, 0, cg.s_measured - 1)
        g.half_edge_layout(), g.edge_balls(0), g.max_degree  # kept by the graph: build untraced
        tracemalloc.start()
        try:
            res = dg.oracle_avoidable(g, cg.d, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.nodes_explored == nodes
        assert res.avoidable and dg.verify_solution(cg, res.witness, L)
        assert peak < 0.9 * 2**20


def test_oracle_byte_cap_admits_the_benchmark_shapes():
    for cg in DEEP_GRAPHS.values():
        with pytest.raises(dg.OracleBudgetExceeded):
            dg.oracle_avoidable(cg.graph, cg.d, dg.EMPTY, limit=0)


def test_oracle_budget_not_recursion_limit_on_q8():
    # depth m = 1024 exceeded the interpreter's recursion limit before the
    # budget; the item search decides within it, and runs out below it
    q8 = dg.hypercube(8)
    L = dg.generate_distance2(q8, 10, q8.s_measured - 1)
    res = dg.oracle_avoidable(q8.graph, q8.d, L, limit=3000)
    assert res.avoidable and len(res.witness) == q8.graph.m == 1024
    assert dg.verify_solution(q8, res.witness, L)
    with pytest.raises(dg.OracleBudgetExceeded) as ei:
        dg.oracle_avoidable(q8.graph, q8.d, L, limit=res.nodes_explored - 1)
    assert ei.value.nodes_explored == res.nodes_explored


def test_oracle_reports_item_counters():
    # pinned: the lowest-id tie-break and the item rule fix every count
    q8 = dg.hypercube(8)
    L = dg.generate_distance2(q8, 0, q8.s_measured - 1)
    res = dg.oracle_avoidable(q8.graph, q8.d, L, limit=3000)
    assert (res.avoidable, res.nodes_explored, res.item_forced, res.item_dead_ends) == \
        (True, 1234, 71, 34)
    # a search that never backtracks arms no items
    res = dg.oracle_avoidable(q8.graph, q8.d, dg.EMPTY)
    assert (res.nodes_explored, res.item_forced, res.item_dead_ends) == (1024, 0, 0)


def test_incremental_sweeps_find_what_full_sweeps_find(monkeypatch):
    # a sweep looks only at the colors changed since the search was clean;
    # looking at all of them must find the same dead end or forced item
    sweep = dg.oracle._sweep
    partial = []

    def checked(H, uh, stale, removed, *fields):
        got = sweep(H, uh, stale, removed, *fields)
        full = sweep(H, uh, (1 << len(H)) - 1, 0, *fields)
        assert (got is None) == (full is None)
        if got is not None:
            assert got[0] == full[0] and (not got[0] or got[1] == full[1])
        partial.append(stale != (1 << len(H)) - 1)
        return got

    monkeypatch.setattr(dg.oracle, "_sweep", checked)
    for cg in (ORACLE_GRAPHS["Q5"], ORACLE_GRAPHS["K8,8"], ORACLE_GRAPHS["Q6"]):
        for seed in range(12):
            for distance2 in (False, True):
                counter_oracle(cg.graph, cg.d, oracle_lists(cg, distance2, seed), 3000)
    assert len(partial) > 200 and sum(partial) > len(partial) // 2


def test_oracle_witness_always_verifies(q3, k44):
    for cg in (q3, k44):
        for seed in range(10):
            L = random_lists(cg.graph, cg.d, seed, 2)
            res = dg.oracle_avoidable(cg.graph, cg.d, L)
            if res.avoidable:
                assert dg.verify_solution(cg, res.witness, L)


def test_oracle_agrees_with_distance2_solver(q3):
    hits = 0
    for seed in range(20):
        L = dg.generate_distance2(q3, seed, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = dg.solve_distance2(q3, L)
        if res.ok:
            hits += 1
            assert dg.oracle_avoidable(q3.graph, 3, L).avoidable
    assert hits > 0


def test_oracle_agrees_with_sparse_solver(q4):
    p = dg.SolverParams(4, 4, Fraction(1, 4), Fraction(3, 4), Fraction(3, 4))
    for seed in range(10):
        L = dg.generate_sparse(q4, Fraction(1, 4), seed)
        res = dg.solve_sparse(q4, L, p, dg.RandomSearch(32, seed=seed))
        if res.ok:
            assert dg.oracle_avoidable(q4.graph, 4, L).avoidable


def test_cycle_census_matches_direct_enumeration(q3, q4, k44, k88):
    for cg in (q3, q4, k44, k88):
        g, h = cg.graph, cg.coloring
        census = oracle_cycle_census(g, h)
        direct = {e: len(dg.two_colored_cycles_through(g, h, e))
                  for e in range(len(g.edges))}
        assert census == direct


def test_cycle_census_after_swaps(q4):
    # the census is coloring-sensitive, so re-check after perturbing
    g, h = q4.graph, q4.coloring
    f = dg.swap_cycle(h, dg.two_colored_cycles_through(g, h, 0)[0])
    f = dg.swap_cycle(f, dg.two_colored_cycles_through(g, f, 20)[0])
    census = oracle_cycle_census(g, f)
    direct = {e: len(dg.two_colored_cycles_through(g, f, e))
              for e in range(len(g.edges))}
    assert census == direct


def test_census_supports_compute_s(k88):
    g, h = k88.graph, k88.coloring
    census = oracle_cycle_census(g, h)
    assert dg.compute_s(g, h) == min(census.values()) + 1
