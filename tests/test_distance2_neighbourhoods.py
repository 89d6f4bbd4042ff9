"""Distance-2 stages read vertex neighbourhoods, never the edge-ball table.

``generate_distance2`` marks the closed neighbourhoods of the edges it
admits, and ``is_distance_t_matching`` searches breadth-first from the ends
of each selected edge; in the distance-2 stages both read the partner rows
a certified graph keeps, or ``Graph.adjacency`` where it has none. They are
held here to their edge-ball versions, kept in ``tests/conftest.py`` as
references, and to
resource contracts: no stage of a cold distance-2 pipeline builds an edge
ball of any radius or ``Graph.adjacency``, nor more than one color table per
loaded graph, and the generate-and-check stage's memory grows about linearly
in m.
"""

import functools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph import constructors, solver
from dsgraph.constructors import ColoredGraph
from dsgraph.graph_core import Graph
from dsgraph.instance_io import load_instance, save_instance
from tests.conftest import ref_generate_distance2, ref_is_distance_t_matching
from tests.test_cold_load import unbuilt

FAMILIES = {
    "Q3": lambda: dg.hypercube(3),
    "Q4": lambda: dg.hypercube(4),
    "Q5": lambda: dg.hypercube(5),
    "Q6": lambda: dg.hypercube(6),
    "Q7": lambda: dg.hypercube(7),
    "K8,8": lambda: dg.complete_bipartite_pow2(3),
    "K16,16": lambda: dg.complete_bipartite_pow2(4),
    "Q2xK4,4": lambda: dg.cartesian_product(dg.hypercube(2), dg.complete_bipartite_pow2(2)),
}


@functools.cache
def builds(label):
    """Two separate builds of one family: the library runs on the first, and
    the reference, which caches its balls on its graph, on the second."""
    return FAMILIES[label](), FAMILIES[label]()


def balls_built(g):
    return sorted(g._balls)


@st.composite
def simple_graphs(draw):
    """Random simple graphs: n = 0, no edges and isolated vertices included."""
    n = draw(st.integers(min_value=0, max_value=16))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=40)) if pairs else set()
    return n, sorted(edges)


@st.composite
def colored_simple_graphs(draw):
    """Two builds of a random simple graph as an uncertified colored graph.

    ``generate_distance2`` reads only the graph, d and s, so the all-ones
    coloring stands in for a standard one.
    """
    n, edges = draw(simple_graphs())
    d = draw(st.integers(min_value=1, max_value=6))
    s = draw(st.integers(min_value=1, max_value=d))

    def build():
        g = Graph.from_edges(n, edges)
        return ColoredGraph(g, dg.EdgeColoring((1,) * g.m, d), d, s, s, {})

    return build(), build()


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(min_value=0, max_value=2 ** 64),
       st.integers(min_value=0))
def test_generate_distance2_matches_the_edge_ball_reference(label, seed, size):
    cg, ref = builds(label)
    max_list = size % cg.s_measured
    assert (dg.generate_distance2(cg, seed, max_list)
            == ref_generate_distance2(ref, seed, max_list))
    assert balls_built(cg.graph) == []


@settings(deadline=None, max_examples=120)
@given(colored_simple_graphs(), st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=0))
def test_generate_distance2_matches_the_reference_on_random_graphs(pair, seed, size):
    cg, ref = pair
    max_list = size % cg.s_measured
    assert (dg.generate_distance2(cg, seed, max_list)
            == ref_generate_distance2(ref, seed, max_list))
    assert balls_built(cg.graph) == []


# radii 0-4, and one past every diameter here (graphs of at most 128 vertices)
RADII = st.integers(min_value=0, max_value=4) | st.just(200)


@st.composite
def family_edge_sets(draw):
    """A family, two builds of its graph, and a few random edges, either alone
    or added to the support of a seeded distance-2 list (which passes t = 2)."""
    cg, ref = builds(draw(st.sampled_from(sorted(FAMILIES))))
    m = cg.graph.m
    picked = draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=5))
    if draw(st.booleans()):
        support = dg.generate_distance2(ref, draw(st.integers(0, 2 ** 16)), 1).support()
        picked |= set(support[:draw(st.integers(min_value=0, max_value=len(support)))])
    return cg.graph, ref.graph, picked


@settings(deadline=None, max_examples=200)
@given(family_edge_sets(), RADII)
def test_is_distance_t_matching_matches_the_edge_ball_reference(case, t):
    g, ref, picked = case
    assert dg.is_distance_t_matching(g, picked, t) == ref_is_distance_t_matching(ref, picked, t)
    assert balls_built(g) == []


@settings(deadline=None, max_examples=150)
@given(simple_graphs(), st.data(), RADII)
def test_is_distance_t_matching_matches_the_reference_on_random_graphs(graph, data, t):
    n, edges = graph
    g, ref = Graph.from_edges(n, edges), Graph.from_edges(n, edges)
    picked = data.draw(st.sets(st.integers(min_value=0, max_value=g.m - 1), max_size=6)
                       if g.m else st.just(set()))
    assert dg.is_distance_t_matching(g, picked, t) == ref_is_distance_t_matching(ref, picked, t)
    # a list, duplicates included, gives the verdict of its set
    assert dg.is_distance_t_matching(g, sorted(picked) * 2, t) == \
        dg.is_distance_t_matching(g, picked, t)
    assert balls_built(g) == []


@pytest.mark.parametrize("t", [0, 1, 2, 5])
def test_is_distance_t_matching_refuses_edge_ids_out_of_range(q3, t):
    g = q3.graph
    for e in (-1, g.m, g.m + 7):
        with pytest.raises(ValueError, match="edge index out of range"):
            dg.is_distance_t_matching(g, {0, e}, t)
        with pytest.raises(ValueError, match="edge index out of range"):
            dg.t_neighborhood(g, e, t)


def test_cold_distance2_stages_build_no_edge_ball(tmp_path, monkeypatch):
    # the stages of a distance-2 pipeline on Q7, each on a fresh load
    calls = []
    edge_balls = Graph.edge_balls

    def counting(self, t):
        calls.append(t)
        return edge_balls(self, t)

    monkeypatch.setattr(Graph, "edge_balls", counting)
    path = tmp_path / "q7.json"
    save_instance(dg.from_colored_graph(dg.hypercube(7)), path)
    stages = {}

    def load():
        inst = load_instance(path)
        return inst, dg.to_colored_graph(inst)

    inst, cg = load()
    stages["load"] = list(calls)
    inst.lists = dg.generate_distance2(cg, 0, cg.s_measured - 1)
    stages["generate"] = list(calls)
    save_instance(inst, path)
    inst, cg = load()
    result = dg.solve_distance2(cg, inst.lists)
    assert result.ok
    stages["solve"] = list(calls)
    inst.solution = result.coloring
    save_instance(inst, path)
    inst, cg = load()
    assert dg.verify_solution(cg, inst.solution, inst.lists)
    stages["verify"] = list(calls)
    assert stages == {"load": [], "generate": [], "solve": [], "verify": []}


def test_cold_distance2_stages_read_the_kept_certificate(tmp_path, monkeypatch):
    # the same chain: no stage builds Graph.adjacency, only the solve stage
    # builds a standard color table, one, and a solve recolors once, by
    # the accepted permutation
    tables, permutations = [], []
    color_table, recolored = constructors.color_table, solver._recolored
    monkeypatch.setattr(constructors, "color_table",
                        lambda g, f: tables.append(id(g)) or color_table(g, f))
    monkeypatch.setattr(solver, "_recolored",
                        lambda colors, images: permutations.append(images[1:]) or
                        recolored(colors, images))
    path = tmp_path / "q7.json"
    save_instance(dg.from_colored_graph(dg.hypercube(7)), path)

    def load():
        inst = load_instance(path)
        return inst, dg.to_colored_graph(inst)

    graphs = []
    inst, cg = load()
    graphs.append(cg.graph)
    inst.lists = dg.generate_distance2(cg, 0, cg.s_measured - 1)
    save_instance(inst, path)
    inst, cg = load()
    graphs.append(cg.graph)
    result = dg.solve_distance2(cg, inst.lists)
    assert result.ok
    assert permutations == [result.permutation.images]
    inst.solution = result.coloring
    save_instance(inst, path)
    inst, cg = load()
    graphs.append(cg.graph)
    assert dg.verify_solution(cg, inst.solution, inst.lists)
    assert all("adjacency" in unbuilt(g) for g in graphs)
    assert tables == [id(graphs[1])]


# The generate-and-check stage's resource contract: a tracemalloc peak that
# grows about linearly in m, from the first rung to the last. Measured on
# fresh Q8 -> Q10 -> Q12 (m = 1024, 5120, 24576): peaks of 0.09-0.11, 0.63
# and 2.90 MB, exponent 1.04-1.10; the edge-ball version read 0.13, 1.39 and
# 19.97 MB, exponent 1.59. The Q8 peak moves with the state of CPython's
# free lists (0.09 MB after the rest of the suite, 0.11 MB alone), so the
# exponent spans the whole ladder, not each step.
DISTANCE2_PEAK_EXPONENT = 1.2


def test_distance2_stage_ladder():
    rungs = []
    for dim in (8, 10, 12):
        cg = dg.hypercube(dim)
        tracemalloc.start()
        try:
            lists = dg.generate_distance2(cg, 0, cg.s_measured - 1)
            matched = dg.support_is_distance2_matching(cg, lists)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matched
        assert balls_built(cg.graph) == []
        rungs.append((cg.graph.m, peak))
    (m0, p0), (m1, p1) = rungs[0], rungs[-1]
    assert math.log(p1 / p0) / math.log(m1 / m0) <= DISTANCE2_PEAK_EXPONENT, rungs
