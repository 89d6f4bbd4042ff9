"""The solver's census against the per-trial path it replaced.

A color permutation rho only relabels colors, so the two-colored 4-cycles of
rho∘h are the cycles of h. ``solver._Checker`` reads each listed edge's cycles
under h once, off the standard color table a ``ColoredGraph`` keeps, and
every trial reads them under its rho. ``tests/conftest.py`` keeps the path
it replaced: each trial recolored the graph, built a fresh ``color_table``
and a ``FourCycle`` per cycle (``ref_candidates``), and the greedy plan read
its corner loads off the edge balls (``ref_construct_swap_plan``). Both
paths must agree on conflicts, candidates, edge-disjoint systems, plans and
their selection records under random permutations on the sweep families.

The same file holds the certificate a ``ColoredGraph`` keeps (the
certification's partner rows until a distance-2 stage reads them across)
and its standard table, the distance-2 list draws against ``random.Random``, and ``t_neighborhood``
against the edge-ball version it replaced.
"""

import dataclasses
import functools
import random
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph import constructors, graph_core, solver
from dsgraph.list_assignments import _draw_list
from tests.conftest import (random_lists, ref_candidates, ref_construct_swap_plan,
                            ref_disjoint_cycle_system, ref_t_neighborhood)
from tests.test_neighborhood_kernel import BUILDERS

SWEEP_FAMILIES = {
    **BUILDERS,
    "K16,16": lambda: dg.complete_bipartite_pow2(4),
    "K8,8 less two matchings": lambda: dg.remove_standard_matchings(
        dg.complete_bipartite_pow2(3), 2, (2, 5)),
}


@functools.cache
def family(label):
    return SWEEP_FAMILIES[label]()


def some_lists(cg, kind, seed):
    if kind == "distance2":
        return dg.generate_distance2(cg, seed, cg.s_measured - 1)
    if kind == "random":
        return random_lists(cg.graph, cg.d, seed, 2)
    return dg.generate_sparse(cg, Fraction(kind, cg.s_measured), seed)


def permuted(cg, rnd):
    images = list(range(1, cg.d + 1))
    rnd.shuffle(images)
    rho = dg.Permutation(tuple(images))
    return rho, (0, *images), dg.apply_permutation(cg.coloring, rho)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(sorted(SWEEP_FAMILIES)), st.sampled_from(["distance2", "random", 1, 2]),
       st.integers(min_value=0, max_value=10 ** 6), st.randoms(use_true_random=False))
def test_census_candidates_match_the_per_trial_path(label, kind, seed, rnd):
    cg = family(label)
    L = some_lists(cg, kind, seed)
    census = solver._Checker(cg, L)
    for _ in range(3):  # later permutations read the cycles the first one looked up
        rho, images, f = permuted(cg, rnd)
        conflicts = census.conflicts(images)
        assert conflicts == sorted(dg.conflict_edges(cg.graph, f, L))
        got = [(e, len(cycles), [census.four_cycle(e, c, images) for c in allowed])
               for e, cycles, allowed in census.candidates(images, conflicts)]
        expected = [(e, len(cycles), list(allowed))
                    for e, cycles, allowed in ref_candidates(cg, f, L, conflicts)]
        assert got == expected
        if kind == "distance2":
            assert (solver._disjoint_cycle_system(census, images, conflicts)
                    == ref_disjoint_cycle_system(cg, f, L))


def outcome(plan, *args):
    try:
        return plan(*args)
    except dg.SwapPlanStuck as exc:
        return exc.edge, exc.eliminated


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(sorted(SWEEP_FAMILIES)), st.sampled_from(["distance2", "random", 1, 2]),
       st.integers(min_value=0, max_value=10 ** 6), st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=7))
def test_swap_plan_matches_the_per_trial_path(label, kind, seed, rnd, eps8):
    # plans, selection records and stuck reports, with the vertex loads kept
    # as counts and one matching test per candidate: on the public entry
    # point and on solve_sparse's, which reads phase one's census under rho
    cg = family(label)
    L = some_lists(cg, kind, seed)
    _, images, f = permuted(cg, rnd)
    params = dg.SolverParams(cg.d, cg.s_measured, Fraction(1, 2), Fraction(1, 2),
                             Fraction(eps8, 8))
    expected = outcome(ref_construct_swap_plan, cg, f, L, params)
    assert outcome(dg.construct_swap_plan, cg, f, L, params) == expected
    assert outcome(solver._swap_plan, solver._Checker(cg, L), images, f, params) == expected


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(SWEEP_FAMILIES)), st.sampled_from(["distance2", "random", 1, 2]),
       st.integers(min_value=0, max_value=10 ** 6), st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=7))
def test_swap_plan_plans_on_a_coloring_that_is_no_relabeling(label, kind, seed, rnd, eps8):
    # a swapped cycle moves edges between color classes, so f stays proper
    # but is no relabeling of the standard coloring: the census then reads f
    cg = family(label)
    L = some_lists(cg, kind, seed)
    _, _, f = permuted(cg, rnd)
    for e in rnd.sample(range(cg.graph.m), 3):
        cycles = dg.two_colored_cycles_through(cg.graph, f, e)
        if cycles:
            f = dg.apply_swaps(f, (rnd.choice(cycles),))
    params = dg.SolverParams(cg.d, cg.s_measured, Fraction(1, 2), Fraction(1, 2),
                             Fraction(eps8, 8))
    assert (outcome(dg.construct_swap_plan, cg, f, L, params)
            == outcome(ref_construct_swap_plan, cg, f, L, params))


def test_the_census_looks_each_cycle_up_once(monkeypatch):
    # phase one's (c) and the candidates read the one standard table the
    # graph keeps, never a table of a recolored graph, and keep each cycle
    # they looked up
    cg = dg.hypercube(5)
    L = dg.generate_sparse(cg, Fraction(2, 5), 0)
    lookups, tables = [], []
    cycle_tuples, table = solver._cycle_tuples, graph_core.color_table
    monkeypatch.setattr(solver, "_cycle_tuples", lambda *a: lookups.append(a[3]) or
                        cycle_tuples(*a))
    for module in (solver, constructors):
        monkeypatch.setattr(module, "color_table", lambda *a: tables.append(a) or table(*a))
    params = dg.SolverParams(5, 5, Fraction(1, 2), Fraction(0), Fraction(1, 2))
    checker = solver._Checker(cg, L, params)
    rho = dg.Permutation((2, 3, 4, 5, 1))
    first = checker.check(rho)
    assert 0 < len(lookups) <= L.total_entries()
    lookups.clear()
    assert checker.check(rho) == first
    assert lookups == []
    census = solver._Checker(cg, L)
    images = (0, *rho.images)
    conflicts = census.conflicts(images)
    for _ in range(2):
        list(census.candidates(images, conflicts))
    assert sorted(lookups) == conflicts
    assert tables == [(cg.graph, cg.coloring)]
    assert cg.standard_table() is cg.standard_table()


def test_the_graph_keeps_its_certificate_and_one_standard_table(monkeypatch):
    inst = dg.from_colored_graph(dg.hypercube(4))
    rows, tables = [], []
    partner_rows, color_table = graph_core._partner_rows, constructors.color_table
    monkeypatch.setattr(graph_core, "_partner_rows", lambda *a: rows.append(a) or
                        partner_rows(*a))
    monkeypatch.setattr(constructors, "color_table", lambda g, f: tables.append(f) or
                        color_table(g, f))
    cg = dg.to_colored_graph(inst)
    assert len(rows) == 1 and tables == []
    assert list(cg._kept) == ["rows"]
    neighbours = cg.neighbours()
    assert cg.neighbours() is neighbours and len(rows) == 1
    assert "rows" not in cg._kept  # read across once, then dropped
    g = cg.graph
    for w, adjacent in enumerate(g.adjacency):
        assert sorted(neighbours[w]) == sorted(g.other_endpoint(e, w) for e in adjacent)
    assert set(neighbours[g.n]) == {g.n}  # the sink's own entry
    table = cg.standard_table()
    assert cg.standard_table() is table and tables == [cg.coloring]
    assert table == color_table(g, cg.coloring)
    # a replaced graph starts without them, as with class_masks, and builds
    # its rows on first read
    other = dataclasses.replace(cg, coloring=dg.apply_permutation(
        cg.coloring, dg.Permutation((2, 1, 4, 3))))
    assert other._kept == {}
    assert other.standard_table() == color_table(g, other.coloring)
    assert sorted(map(sorted, other.neighbours())) == sorted(map(sorted, neighbours))
    assert len(rows) == 2


def test_a_wide_palette_has_no_rows_and_reads_the_adjacency():
    # a star K1,5 on 5 colors: d * n = 30 > 4m = 20, so no partner rows
    inst = dg.instance_io.from_json_dict({"format": "dsgraph-v1", "n": 6, "d": 5,
                                          "edges": [[0, i] for i in range(1, 6)],
                                          "coloring": [1, 2, 3, 4, 5]})
    cg = dg.to_colored_graph(inst)
    assert cg.neighbours() is None
    assert dg.support_is_distance2_matching(cg, dg.ListAssignment({0: frozenset({1})}))
    assert not dg.support_is_distance2_matching(
        cg, dg.ListAssignment({0: frozenset({2}), 3: frozenset({1})}))
    assert "adjacency" in vars(cg.graph)


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=0, max_value=2 ** 64), st.integers(min_value=1, max_value=80),
       st.data())
def test_distance2_list_draws_are_those_of_random(seed, d, data):
    # randint, then sample: the pool branch for small populations and the
    # set branch for large ones (d > 21, or 21 + 4^ceil(log4(3k)) when k > 5)
    max_list = data.draw(st.integers(min_value=1, max_value=d))
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        size = theirs.randint(1, max_list)
        expected = frozenset(theirs.sample(range(1, d + 1), size))
        assert _draw_list(ours.getrandbits, d, max_list) == expected
    assert ours.getstate() == theirs.getstate()


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(BUILDERS)), st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=7) | st.just(200))
def test_t_neighborhood_matches_the_edge_ball_reference(label, pick, t):
    cg = BUILDERS[label]()  # a fresh graph, so the radius search builds no ball
    g, ref = cg.graph, family(label).graph
    e = pick % g.m
    assert dg.t_neighborhood(g, e, t) == ref_t_neighborhood(ref, e, t)
    assert g._balls == {}


def test_t_neighborhood_builds_no_edge_ball_on_q10():
    g = dg.hypercube(10).graph
    tracemalloc.start()
    try:
        near = dg.t_neighborhood(g, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 20 vertices within distance 1 of e's ends span 1 + 18 + 9 edges and
    # meet 20 * 10 - 2 * 28 = 144 more
    assert len(near) == 28 + 144
    assert g._balls == {}
    # the adjacency and the search; the radius-1 ball table alone is n * m / 8 = 655 KB
    assert peak < 1 << 20
