"""One properness test, the certification's partner rows, and recoloring by byte translation.

``properness_witness`` is the package's one properness test: on a palette
of at most twice the average degree it builds the partner rows of
``graph_core._census_rows``, which refuse a repeated (vertex, color) slot;
where there are no rows, one ordered scan decides and names the witness.
``is_proper``, ``find_violation``, ``verify_solution`` and ``dsgraph
verify`` all read it. The tests below hold it to the slot-set version it
replaced (``tests/conftest.py``), count its row builds, bound the verify
stage's memory as the graph grows, and hold ``apply_permutation``'s byte
translation to the per-item map.
"""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph import graph_core, solver
from dsgraph.instance_io import from_json_dict
from tests.conftest import _counting, ref_properness_witness


def greedy_colors(g, rng):
    """A proper coloring: the edges in a shuffled order, each given the least
    color free at both of its ends."""
    used = [set() for _ in range(g.n)]
    colors = [0] * g.m
    order = list(range(g.m))
    rng.shuffle(order)
    for e in order:
        u, v = g.edges[e]
        c = 1
        while c in used[u] or c in used[v]:
            c += 1
        colors[e] = c
        used[u].add(c)
        used[v].add(c)
    return colors


@st.composite
def colored_graphs(draw):
    """(g, f): a random simple graph (isolated vertices and m = 0 included)
    and a coloring of it that is narrow (d * n <= 4m) or wide, proper or
    not, partial (0 present) or total, of length m or not."""
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=40)) if pairs else set()
    g = dg.Graph.from_edges(n, edges)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    colors = greedy_colors(g, rng)
    d = max(colors, default=0) + draw(st.integers(min_value=0, max_value=2))
    if draw(st.booleans()):
        d = max(d, 4 * g.m // max(g.n, 1) + 1)  # wide
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if g.m else 0):
        e = rng.randrange(g.m)
        u, v = g.edges[e]
        # half the time, the color of another edge at u: a repeated slot
        others = [f for f in range(g.m) if f != e and u in g.edges[f]]
        colors[e] = colors[rng.choice(others)] if others and rng.random() < 0.5 \
            else rng.randint(0, d)
    extra = draw(st.sampled_from((0, 0, 0, -2, -1, 1, 2)))
    colors = colors[:max(0, len(colors) + extra)] + [rng.randint(0, d) for _ in range(extra)]
    return g, dg.EdgeColoring(tuple(colors), d)


@settings(deadline=None, max_examples=300)
@given(colored_graphs())
def test_properness_witness_equals_the_slot_set_reference(gf):
    g, f = gf
    assert graph_core.properness_witness(g, f) == ref_properness_witness(g, f)
    if len(f) == g.m and f.is_total:
        assert dg.is_proper(g, f) == (ref_properness_witness(g, f) is None)


def test_a_narrow_palette_is_tested_on_its_rows_and_a_wide_one_on_its_slots(q3, monkeypatch):
    rows = _counting(monkeypatch, graph_core, "_partner_rows")
    g, h = q3.graph, q3.coloring
    assert dg.is_proper(g, h)
    assert len(rows) == 1
    colors = list(h.colors)
    colors[1] = colors[0]  # edges 0 and 1 meet at vertex 0
    broken = dg.EdgeColoring(tuple(colors), 3)
    assert graph_core.properness_witness(g, broken) == (0, 1, colors[0], 0)
    assert len(rows) == 2  # the refused rows, then the scan names the repeat
    wide = dg.EdgeColoring(h.colors, 7)  # 7 * 8 > 4 * 12
    assert graph_core.properness_witness(g, wide) is None
    assert len(rows) == 2


def _star():
    """K1,5 colored 1..5: d * n = 30 > 4m = 20, a wide palette."""
    inst = from_json_dict({"format": "dsgraph-v1", "n": 6, "d": 5,
                           "edges": [[0, i] for i in range(1, 6)], "coloring": [1, 2, 3, 4, 5]})
    return dg.to_colored_graph(inst)


def test_verify_builds_rows_once_on_a_narrow_palette_and_never_on_a_wide_one(q4, monkeypatch):
    L = dg.generate_distance2(q4, 0, q4.s_measured - 1)
    f = dg.solve_distance2(q4, L).coloring
    star = _star()
    rows = _counting(monkeypatch, graph_core, "_partner_rows")
    assert dg.verify_solution(q4, f, L)
    assert len(rows) == 1
    assert dg.verify_solution(star, star.coloring, dg.ListAssignment.from_dict({0: [2]}))
    assert not dg.verify_solution(star, star.coloring, dg.ListAssignment.from_dict({0: [1]}))
    assert len(rows) == 1


def _avoiding(cg, f, seed):
    """Distance-2 lists on cg with f's own color taken out of each, so that
    f avoids them."""
    lists = dg.generate_distance2(cg, seed, cg.s_measured - 1)
    return dg.ListAssignment.from_dict({e: cs - {f[e]} for e, cs in lists.items()})


# The verify stage's resource contract: one partner-row pass per verify on a
# narrow palette, and a tracemalloc peak that grows about linearly in m over
# the whole ladder. Measured on fresh Q11 -> Q12 -> Q13 (m = 11264, 24576,
# 53248): peaks of 197, 427 and 918 KB, the rows of the verified coloring;
# exponent 0.99.
VERIFY_PEAK_EXPONENT = 1.1


def test_verify_stage_ladder(monkeypatch):
    rows = _counting(monkeypatch, graph_core, "_partner_rows")
    rungs = []
    for dim in (11, 12, 13):
        cg = dg.hypercube(dim)
        f = dg.apply_permutation(cg.coloring, dg.Permutation(tuple(range(dim, 0, -1))))
        L = _avoiding(cg, f, 0)
        rows.clear()
        tracemalloc.start()
        try:
            ok = dg.verify_solution(cg, f, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert len(rows) == 1
        rungs.append((cg.graph.m, peak))
    (m0, p0), (m1, p1) = rungs[0], rungs[-1]
    assert math.log(p1 / p0) / math.log(m1 / m0) < VERIFY_PEAK_EXPONENT


def ref_apply_permutation(h, rho):
    """The per-item map: every color through ``(0, *rho.images)``."""
    images = (0, *rho.images)
    return dg.EdgeColoring(tuple(images[c] for c in h.colors), h.d)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=0, max_value=40))
def test_apply_permutation_equals_the_per_item_map(d, seed, m):
    rng = random.Random(seed)
    h = dg.EdgeColoring(tuple(rng.randint(0, d) for _ in range(m)), d)  # 0 included
    images = list(range(1, d + 1))
    rng.shuffle(images)
    rho = dg.Permutation(tuple(images))
    f = dg.apply_permutation(h, rho)
    assert f == ref_apply_permutation(h, rho)
    assert type(f.colors) is tuple and all(type(c) is int for c in f.colors)
    assert dg.apply_permutation(h, dg.Permutation.identity(d)) == h


@pytest.mark.parametrize("d", [255, 256, 300])
def test_apply_permutation_maps_palettes_past_a_byte_item_by_item(d):
    rng = random.Random(d)
    h = dg.EdgeColoring(tuple(rng.randint(0, d) for _ in range(500)) + (d, 0), d)
    images = list(range(1, d + 1))
    rng.shuffle(images)
    rho = dg.Permutation(tuple(images))
    assert dg.apply_permutation(h, rho) == ref_apply_permutation(h, rho)
    recolored = solver._recolored(h.colors, (0, *images))
    assert isinstance(recolored, bytearray if d < 256 else list)
