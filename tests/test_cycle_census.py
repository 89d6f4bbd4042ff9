"""The cycle census and the color-indexed table against dict-based references.

``ref_color_table``, ``ref_cycles_through`` and ``ref_compute_s`` below are
the per-vertex dict table, the enumeration on it and the census that built a
``FourCycle`` per cycle only to count them. The library's list table and
cycle enumeration must agree with them cycle for cycle, and ``compute_s``
(a per color-pair count of closed c-a-c-a walks on proper, total colorings
whose palette is at most twice the average degree, and a per-edge count of
``_cycle_tuples`` on every other coloring) must agree with the census, on
proper colorings (permuted, swapped, of graphs that are not regular, on
palettes too large for one-byte counter lanes) and on improper ones
(repeated colors, loops and the uncolored slot 0), where the last writer in
edge order wins the table slot.
"""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph import graph_core
from dsgraph.graph_core import FourCycle, Graph
from tests.test_neighborhood_kernel import BUILDERS


def ref_color_table(g, f):
    table = [{} for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        c = f[e]
        table[u][c] = e
        table[v][c] = e
    return table


def ref_cycles_through(g, f, e, table):
    u, v = g.edges[e]
    a = f[e]
    out = []
    for c in range(1, f.d + 1):
        if c == a:
            continue
        ez = table[v].get(c)
        et = table[u].get(c)
        if ez is None or et is None:
            continue
        z = g.other_endpoint(ez, v)
        t = g.other_endpoint(et, u)
        if z == t:
            continue
        partner = g.edge_index.get((z, t) if z < t else (t, z))
        if partner is None or f[partner] != a:
            continue
        out.append(FourCycle(u, v, z, t, e, ez, partner, et, a, c))
    return tuple(out)


def ref_compute_s(g, f):
    if g.m == 0:
        return 1
    table = ref_color_table(g, f)
    return 1 + min(len(ref_cycles_through(g, f, e, table)) for e in range(g.m))


def _k4():
    # K4 has triangles, so improper colorings offer candidates with z == t
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    return g, dg.EdgeColoring((1, 2, 3, 3, 2, 1), 3)


LABELS = sorted([*BUILDERS, "K4"])
_built: dict = {}


def graph_and_coloring(label):
    """(graph, standard coloring), built once per label."""
    if label not in _built:
        if label == "K4":
            _built[label] = _k4()
        else:
            cg = BUILDERS[label]()
            _built[label] = (cg.graph, cg.coloring)
    return _built[label]


def recolor(g, h, rng, permute, swaps, perturb):
    """h with its colors permuted, then up to ``swaps`` cycles swapped, then
    ``perturb`` random edges (repeats allowed) given random colors in 0..d."""
    colors = list(h.colors)
    if permute:
        images = list(range(1, h.d + 1))
        rng.shuffle(images)
        colors = [images[c - 1] for c in colors]
    f = dg.EdgeColoring(tuple(colors), h.d)
    for _ in range(swaps):
        cycles = dg.two_colored_cycles_through(g, f, rng.randrange(g.m))
        if cycles:
            f = dg.apply_swaps(f, (rng.choice(cycles),))
    colors = list(f.colors)
    for _ in range(perturb):
        colors[rng.randrange(g.m)] = rng.randint(0, h.d)
    return dg.EdgeColoring(tuple(colors), h.d)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(LABELS), st.integers(min_value=0, max_value=10 ** 6),
       st.booleans(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=6))
def test_census_matches_dict_reference(label, seed, permute, swaps, perturb):
    g, h = graph_and_coloring(label)
    f = recolor(g, h, random.Random(seed), permute, swaps, perturb)
    ref_table = ref_color_table(g, f)
    table = dg.color_table(g, f)
    assert [[ref.get(c, -1) for c in range(f.d + 1)] for ref in ref_table] == table
    assert dg.compute_s(g, f) == ref_compute_s(g, f)
    for e in range(g.m):
        # FourCycle equality compares vertices, edge ids and both colors
        expected = ref_cycles_through(g, f, e, ref_table)
        assert dg.two_colored_cycles_through(g, f, e, table) == expected
        assert dg.two_colored_cycles_through(g, f, e) == expected


# the loop graph of test_checker_rows (Graph() takes edges unchecked): the loop
# edge (2, 2) writes the slot (2, 1) twice
LOOP_GRAPH = (Graph(3, ((0, 1), (0, 2), (1, 2), (2, 2))), dg.EdgeColoring((1, 2, 2, 1), 2))


def _colored(n, items, d):
    """(graph, coloring) from ((u, v), color) pairs, u < v."""
    items = sorted(items)
    return (Graph.from_edges(n, [uv for uv, _ in items]),
            dg.EdgeColoring(tuple(c for _, c in items), d))


def _latin_bipartite(k, palette):
    """K_{k,k} with u_i v_j colored 2 * ((i + j) mod k) + 2 on a palette of
    ``palette`` colors: proper, every edge on one cycle when k is even."""
    return _colored(2 * k, [((i, k + j), 2 * ((i + j) % k) + 2)
                            for i in range(k) for j in range(k)], palette)


def _z6_shortfall():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dg.ClaimDiscrepancyWarning)
        cg = dg.cayley_abelian(dg.CayleySpec(dg.CyclicProduct((6,)), half_set=((1,),)))
    return cg.graph, cg.coloring


def _k88_less(colors, relabel):
    k88 = dg.complete_bipartite_pow2(3)
    if relabel:
        cg = dg.remove_standard_matchings(k88, len(colors), colors)
        return cg.graph, cg.coloring
    # the survivors keep their colors, so the palette has gaps
    return _colored(16, [(uv, c) for uv, c in zip(k88.graph.edges, k88.coloring.colors)
                         if c not in colors], 8)


def _q3_with(recolor, d=3):
    """Q3 under ``recolor`` applied to its standard color list."""
    q3 = dg.hypercube(3)
    return q3.graph, dg.EdgeColoring(tuple(recolor(list(q3.coloring.colors))), d)


def _q3_less_an_edge():
    q3 = dg.hypercube(3)
    return _colored(8, list(zip(q3.graph.edges, q3.coloring.colors))[1:], 3)


EDGE_CASES = {
    # label: (builder, counted by color pairs)
    "K8,8 less two matchings": (lambda: _k88_less((2, 5), relabel=True), True),
    "K8,8 less two matchings, gaps in the palette": (lambda: _k88_less((2, 5), False), True),
    "Z6 claim shortfall": (_z6_shortfall, True),
    "Q3 less an edge": (_q3_less_an_edge, True),
    "path": (lambda: _colored(6, [((i, i + 1), 1 + i % 2) for i in range(5)], 2), True),
    "star": (lambda: _colored(6, [((0, i), i) for i in range(1, 6)], 5), False),
    "triangle with a pendant edge": (
        lambda: _colored(4, [((0, 1), 1), ((0, 2), 2), ((0, 3), 3), ((1, 2), 3)], 3), True),
    # the sink lane reaches d - 1 = 259: one-byte lanes would overflow
    "K130,130 on 260 colors": (lambda: _latin_bipartite(130, 260), True),
    "Q3 on 300 colors": (lambda: _q3_with(lambda cs: [100 * c for c in cs], 300), False),
    "loop, improper": (lambda: LOOP_GRAPH, False),
    "loop, distinct colors": (lambda: (LOOP_GRAPH[0], dg.EdgeColoring((1, 2, 3, 4), 4)), False),
    "uncolored edge": (lambda: _q3_with(lambda cs: [0, *cs[1:]]), False),
    "improper": (lambda: _q3_with(lambda cs: [cs[1], *cs[1:]]), False),
}


@pytest.mark.parametrize("label", sorted(EDGE_CASES))
def test_census_edge_cases_match_the_reference(label, monkeypatch):
    build, by_pairs = EDGE_CASES[label]
    g, f = build()
    expected = ref_compute_s(g, f)
    per_edge = []
    count_edges = graph_core._cycle_tuples

    def counting(*args):
        per_edge.append(args[3])
        return count_edges(*args)

    monkeypatch.setattr(graph_core, "_cycle_tuples", counting)
    assert dg.compute_s(g, f) == expected
    assert (not per_edge) == by_pairs


@st.composite
def arbitrary_colorings(draw):
    """A random simple graph (isolated vertices and m = 0 included) under
    random colors in 0..d, with d from 1 up to well past twice the average
    degree: proper or not, narrow or wide."""
    n = draw(st.integers(min_value=2, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=24)))
    d = draw(st.integers(min_value=1, max_value=3 * n))
    colors = draw(st.lists(st.integers(min_value=0, max_value=d),
                           min_size=len(edges), max_size=len(edges)))
    return Graph.from_edges(n, edges), dg.EdgeColoring(tuple(colors), d)


@settings(deadline=None, max_examples=300)
@given(arbitrary_colorings())
def test_census_matches_the_reference_on_arbitrary_colorings(case):
    g, f = case
    assert dg.compute_s(g, f) == ref_compute_s(g, f)
