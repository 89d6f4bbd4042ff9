"""Core graph machinery: distances, neighborhoods, cycles, swaps."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph import graph_core
from dsgraph.graph_core import Graph
from tests.conftest import (are_edge_disjoint, are_vertex_disjoint, edge_set,
                            vertex_color_set)


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_from_edges_canonicalizes_order():
    g = Graph.from_edges(4, [(3, 2), (1, 0), (0, 3), (2, 1)])
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_from_edges_rejects_loops_duplicates_range():
    with pytest.raises(ValueError, match="loop"):
        Graph.from_edges(4, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(4, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="outside"):
        Graph.from_edges(4, [(0, 4)])


def test_degree_and_other_endpoint():
    g = cycle_graph(4)
    assert all(g.degree(u) == 2 for u in range(4))
    e = g.edges.index((0, 1))
    assert g.other_endpoint(e, 0) == 1
    assert g.other_endpoint(e, 1) == 0


def test_edge_distance_adjacent_is_zero(q3):
    g = q3.graph
    e = g.edges.index((0, 1))
    f = g.edges.index((0, 2))
    assert dg.edge_distance(g, e, f) == 0
    assert dg.edge_distance(g, e, e) == 0


def test_edge_distance_q3_antipodal_pair_is_two(q3):
    # same-dimension edges on opposite faces: closest endpoints two steps apart
    g = q3.graph
    e = g.edges.index((0, 4))
    f = g.edges.index((3, 7))
    assert dg.edge_distance(g, e, f) == 2
    assert dg.edge_distance(g, f, e) == 2


def test_edge_distance_disconnected_is_infinite():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert dg.edge_distance(g, 0, 1) == float("inf")


def test_t_neighborhood_sizes_on_cycle():
    g = cycle_graph(8)
    e = g.edges.index((0, 1))
    assert len(dg.t_neighborhood(g, e, 0)) == 3
    assert len(dg.t_neighborhood(g, e, 1)) == 5
    assert len(dg.t_neighborhood(g, e, 2)) == 7
    assert len(dg.t_neighborhood(g, e, 3)) == 8
    assert len(dg.t_neighborhood(g, e, 4)) == 8


def test_t_neighborhood_contains_anchor_and_grows(q4):
    g = q4.graph
    for e in (0, 7, 31):
        prev = frozenset()
        for t in range(5):
            nb = dg.t_neighborhood(g, e, t)
            assert e in nb
            assert prev <= nb
            prev = nb


def test_neighborhood_dedup_groups_equal_sets(q3):
    g = q3.graph
    sets, containing, reps = g.neighborhood_dedup(6)
    # 6-neighborhoods cover all of Q_3, so they dedup to a single set
    assert len(sets) == 1
    assert sets[0] == frozenset(range(len(g.edges)))
    assert all(containing[e] == (0,) for e in range(len(g.edges)))
    assert reps == (0,)


def test_edge_balls_refuse_a_table_above_the_byte_cap(monkeypatch):
    g = dg.hypercube(4).graph
    size = g.n * g.m // 8  # 64 bytes per radius on Q4
    monkeypatch.setattr(graph_core, "EDGE_BALL_BYTES_CAP", size - 1)
    with pytest.raises(dg.ResourceLimit, match="64 bytes per radius, above cap 63"):
        g.edge_balls(6)
    with pytest.raises(dg.ResourceLimit):
        g.nbhd_mask(0, 1)
    monkeypatch.setattr(graph_core, "EDGE_BALL_BYTES_CAP", size)
    assert g.nbhd_mask(0, 6) == (1 << g.m) - 1


def test_edge_ball_cap_admits_q14_and_refuses_q15_and_q16():
    def per_radius(d):  # n * m / 8 for Q_d, computed without building it
        return 2 ** d * (d * 2 ** (d - 1)) // 8

    cap = graph_core.EDGE_BALL_BYTES_CAP
    assert per_radius(14) == 234_881_024 <= cap
    assert cap < per_radius(15) == 1_006_632_960 < per_radius(16)


def test_is_proper_and_is_total(q3):
    g, h = q3.graph, q3.coloring
    assert h.is_total
    assert dg.is_proper(g, h)
    broken = list(h.colors)
    # edges (0,1) and (0,2) share vertex 0
    broken[g.edges.index((0, 2))] = broken[g.edges.index((0, 1))]
    assert not dg.is_proper(g, dg.EdgeColoring(tuple(broken), h.d))
    assert dg.properness_witness(g, h) is None
    assert dg.properness_witness(g, dg.EdgeColoring(tuple(broken), h.d)) == (
        g.edges.index((0, 1)), g.edges.index((0, 2)), h[g.edges.index((0, 1))], 0)
    partial = list(h.colors)
    partial[0] = 0
    assert not dg.EdgeColoring(tuple(partial), h.d).is_total
    with pytest.raises(dg.IncompleteColoring):
        dg.is_proper(g, dg.EdgeColoring(tuple(partial), h.d))
    with pytest.raises(ValueError):
        dg.is_proper(g, dg.EdgeColoring(h.colors[:-1], h.d))


def test_cycle_counts_per_edge(q3, k44):
    c4 = dg.hypercube(2)
    for cg, expect in ((c4, 1), (q3, 2), (k44, 3)):
        for e in range(len(cg.graph.edges)):
            cycles = dg.two_colored_cycles_through(cg.graph, cg.coloring, e)
            assert len(cycles) == expect


def test_cycles_have_distinct_second_colors(k88):
    g, h = k88.graph, k88.coloring
    for e in range(len(g.edges)):
        cycles = dg.two_colored_cycles_through(g, h, e)
        seconds = [c.color_b for c in cycles]
        assert len(set(seconds)) == len(seconds)
        assert all(c.color_a == h[e] for c in cycles)
        assert all(c.color_a != c.color_b for c in cycles)


def test_cycle_edges_alternate_colors(q4):
    g, h = q4.graph, q4.coloring
    for e in range(0, len(g.edges), 5):
        for c in dg.two_colored_cycles_through(g, h, e):
            assert h[c.e_uv] == h[c.e_zt] == c.color_a
            assert h[c.e_vz] == h[c.e_tu] == c.color_b
            assert len(edge_set(c)) == 4
            assert len(c.vertices) == 4


def test_compute_s_matches_family_parameter(q3, q4, k44):
    for cg in (q3, q4, k44):
        assert dg.compute_s(cg.graph, cg.coloring) == cg.s_measured


def test_standard_matchings_partition_edges(q4):
    g, h = q4.graph, q4.coloring
    ms = dg.standard_matchings(g, h)
    assert len(ms) == h.d
    seen = set()
    for color, m in enumerate(ms, start=1):
        assert len(m) == g.n // 2
        assert all(h[e] == color for e in m)
        assert seen.isdisjoint(m)
        seen |= m
    assert seen == set(range(len(g.edges)))


def test_is_distance_t_matching(q3):
    g = q3.graph
    e = g.edges.index((0, 4))
    f = g.edges.index((3, 7))
    adj = g.edges.index((0, 1))
    assert dg.is_distance_t_matching(g, {e, f}, 2)
    assert not dg.is_distance_t_matching(g, {e, f}, 3)
    assert not dg.is_distance_t_matching(g, {e, adj}, 1)
    assert dg.is_distance_t_matching(g, {e}, 99)
    assert dg.is_distance_t_matching(g, set(), 99)


@settings(deadline=None, max_examples=40)
@given(st.sets(st.integers(min_value=0, max_value=31), max_size=5),
       st.integers(min_value=1, max_value=4))
def test_distance_matching_agrees_with_pairwise_scan(edge_set, t):
    g = dg.hypercube(4).graph
    brute = all(dg.edge_distance(g, e, f) >= t
                for e, f in itertools.combinations(edge_set, 2))
    assert dg.is_distance_t_matching(g, edge_set, t) == brute


def test_vertex_color_set(q3):
    g, h = q3.graph, q3.coloring
    for u in range(g.n):
        assert vertex_color_set(g, h, u) == frozenset(range(1, h.d + 1))


def test_color_table_inverts_coloring(k44):
    g, h = k44.graph, k44.coloring
    table = dg.color_table(g, h)
    for e, (u, v) in enumerate(g.edges):
        assert table[u][h[e]] == e
        assert table[v][h[e]] == e


def test_swap_cycle_exchanges_the_two_colors(q3):
    g, h = q3.graph, q3.coloring
    c = dg.two_colored_cycles_through(g, h, 0)[0]
    f = dg.swap_cycle(h, c)
    assert f[c.e_uv] == f[c.e_zt] == c.color_b
    assert f[c.e_vz] == f[c.e_tu] == c.color_a
    untouched = set(range(len(g.edges))) - edge_set(c)
    assert all(f[e] == h[e] for e in untouched)


def test_swap_cycle_preserves_properness_and_vertex_palettes(q4):
    g, h = q4.graph, q4.coloring
    f = h
    for e in (0, 9, 17, 30):
        cycles = dg.two_colored_cycles_through(g, f, e)
        if not cycles:
            continue
        f = dg.swap_cycle(f, cycles[-1])
        assert dg.is_proper(g, f)
        for u in range(g.n):
            assert vertex_color_set(g, f, u) == vertex_color_set(g, h, u)


def test_double_swap_is_identity(q3):
    g, h = q3.graph, q3.coloring
    c = dg.two_colored_cycles_through(g, h, 5)[0]
    assert dg.swap_cycle(dg.swap_cycle(h, c), c) == h


def test_swap_cycle_rejects_non_two_colored(q3):
    g, h = q3.graph, q3.coloring
    c = dg.two_colored_cycles_through(g, h, 0)[0]
    recolored = dg.swap_cycle(h, dg.two_colored_cycles_through(g, h, c.e_vz)[1])
    # if that swap touched one of c's edges, c no longer alternates under it
    if recolored[c.e_vz] == h[c.e_vz]:
        recolored = dg.swap_cycle(h, dg.two_colored_cycles_through(g, h, c.e_vz)[0])
    assert recolored[c.e_vz] != h[c.e_vz]
    with pytest.raises(dg.NotTwoColored):
        dg.swap_cycle(recolored, c)


def _swap_by_hand(colors, c):
    """Reference swap: None when c does not alternate two colors under colors."""
    a, b = colors[c.e_uv], colors[c.e_vz]
    if a == b or (colors[c.e_zt], colors[c.e_tu]) != (a, b):
        return None
    out = list(colors)
    for e in c.edge_ids:
        out[e] = a + b - out[e]
    return out


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=12))
def test_apply_swaps_matches_swapping_one_cycle_at_a_time(picks):
    # cycles come from h, so after earlier swaps some overlap or no longer
    # alternate; repeated picks replay a cycle
    cg = dg.hypercube(4)
    g, h = cg.graph, cg.coloring
    pool = [c for e in range(g.m) for c in dg.two_colored_cycles_through(g, h, e)]
    cycles = [pool[i % len(pool)] for i in picks]
    colors = list(h.colors)
    for k, c in enumerate(cycles):
        swapped = _swap_by_hand(colors, c)
        if swapped is None:
            assert dg.apply_swaps(h, cycles[:k]).colors == tuple(colors)
            with pytest.raises(dg.NotTwoColored, match=re.escape(str(c.vertices))):
                dg.apply_swaps(h, cycles[:k + 1])
            with pytest.raises(dg.NotTwoColored):
                dg.apply_swaps(h, cycles)
            return
        colors = swapped
    f = dg.apply_swaps(h, cycles)
    assert f == dg.EdgeColoring(tuple(colors), h.d)
    assert dg.is_proper(g, f)


def test_disjointness_predicates(q3):
    g, h = q3.graph, q3.coloring
    c0 = dg.two_colored_cycles_through(g, h, g.edges.index((0, 4)))[0]
    c1 = dg.two_colored_cycles_through(g, h, g.edges.index((3, 7)))[0]
    assert are_edge_disjoint([c0]) and are_vertex_disjoint([c0])
    overlapping = dg.two_colored_cycles_through(g, h, 0)
    assert not are_edge_disjoint(overlapping)
    if edge_set(c0).isdisjoint(edge_set(c1)):
        assert are_edge_disjoint([c0, c1])


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=1))
def test_swap_then_recount_preserves_s(edge, which):
    cg = dg.hypercube(3)
    g, h = cg.graph, cg.coloring
    cycles = dg.two_colored_cycles_through(g, h, edge % len(g.edges))
    c = cycles[which % len(cycles)]
    f = dg.swap_cycle(h, c)
    # swaps keep properness, so s stays well defined (value may change)
    assert dg.is_proper(g, f)
    assert dg.compute_s(g, f) >= 1
