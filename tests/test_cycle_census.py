"""The color-indexed cycle census against the dict-based code it replaced.

``ref_color_table``, ``ref_cycles_through`` and ``ref_compute_s`` below are
the per-vertex dict table, the enumeration on it and the census that built a
``FourCycle`` per cycle only to count them. The library's list table and
``compute_s``, which counts the raw tuples of ``_cycle_tuples``, must agree
with them cycle for cycle, on proper colorings (permuted, swapped) and on
improper ones (repeated colors and the uncolored slot 0), where the last
writer in edge order wins the table slot.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
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
