"""Phase one's (c) count, read from the lists, against two references.

``ref_sensitive`` below is the checker build that enumerated a ``FourCycle``
per cycle through each listed edge, skipped a cycle once any of its edges
sat in a set of listed edges already handled, and gave each of the four
edges a row (own color - 1, other color - 1, blocks own, blocks other). It
runs on the dict-table enumeration of ``test_cycle_census`` and on its own
blocker unions, so it shares no code with ``solver._Checker``, which builds
no cycle and looks up, per forbidden color of a listed edge, the one cycle
that color can block. ``ref_check`` evaluates those rows, and ``check`` must
equal it under several permutations, on generated beta-sparse lists and on
clustered lists where listed edges, empty lists among them, share cycles.
A second reference counts, per edge, the cycles of the recolored graph
that ``_swap_allowed`` refuses.
"""

import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph import solver
from dsgraph.constructors import ColoredGraph
from dsgraph.graph_core import Graph, t_neighborhood
from dsgraph.solver import _Checker, _swap_allowed
from tests.conftest import random_lists
from tests.test_cycle_census import ref_color_table, ref_cycles_through
from tests.test_neighborhood_kernel import BUILDERS, instance

NO_COLORS = frozenset()


def ref_sensitive(cg, L):
    g, h = cg.graph, cg.coloring
    lists = dict(L.items())
    table = ref_color_table(g, h)
    rows = defaultdict(list)
    done = set()
    for e in sorted(lists):
        for cyc in ref_cycles_through(g, h, e, table):
            if not done.isdisjoint(cyc.edge_ids):
                continue
            # the swap moves color a onto vz and tu, color b onto uv and zt
            ba = lists.get(cyc.e_vz, NO_COLORS) | lists.get(cyc.e_tu, NO_COLORS)
            bb = lists.get(cyc.e_uv, NO_COLORS) | lists.get(cyc.e_zt, NO_COLORS)
            ia, ib = cyc.color_a - 1, cyc.color_b - 1
            row_a, row_b = (ia, ib, ba, bb), (ib, ia, bb, ba)
            rows[cyc.e_uv].append(row_a)
            rows[cyc.e_zt].append(row_a)
            rows[cyc.e_vz].append(row_b)
            rows[cyc.e_tu].append(row_b)
        done.add(e)
    return sorted(rows.items())


def ref_check(cg, L, rho, params):
    """``check_permutation`` from first principles: (b) and (a) by counting
    conflict edges per vertex and per anchor's 6-neighborhood, (c) by
    evaluating the rows of ``ref_sensitive`` edge by edge."""
    g, h = cg.graph, cg.coloring
    gs, ts = params.gamma_s, params.tau_s
    conf = [e for e, cs in sorted(L.items()) if rho(h[e]) in cs]
    per_vertex = Counter(w for e in conf for w in g.edges[e])
    wb = tuple((u, cnt) for u, cnt in sorted(per_vertex.items()) if cnt > gs)
    wa = []
    for m in sorted({h[e] for e in conf}):
        group = {e for e in conf if h[e] == m}
        seen = set()
        for a in range(g.m):
            w6 = t_neighborhood(g, a, 6)
            if w6 not in seen and len(w6 & group) > gs:
                seen.add(w6)
                wa.append((a, m, len(w6 & group)))
    wc = []
    for e, rows in ref_sensitive(cg, L):
        bad = sum(1 for ia, ib, ba, bb in rows
                  if rho.images[ia] in ba or rho.images[ib] in bb)
        if bad > ts:
            wc.append((e, bad))
    return dg.PermutationCheck(tuple(wa), wb, tuple(wc))


def clustered_lists(cg, seed):
    """Lists on random subsets of the cycles around a few centres; each centre
    gets an explicit empty list, and other edges get 0 to 2 colors."""
    rng = random.Random(seed)
    g, h = cg.graph, cg.coloring
    lists = {}
    for _ in range(rng.randint(1, 4)):
        centre = rng.randrange(g.m)
        for cyc in dg.two_colored_cycles_through(g, h, centre):
            for f in cyc.edge_ids:
                if rng.random() < 0.5:
                    lists[f] = frozenset(rng.sample(range(1, cg.d + 1), rng.randint(0, 2)))
        lists[centre] = NO_COLORS
    return dg.ListAssignment(lists)


def skip_positions(cg, L):
    """The positions in a listed edge's cycles that hold an earlier listed edge,
    from which the row build of ``ref_sensitive`` skips the cycle."""
    g, h = cg.graph, cg.coloring
    table = ref_color_table(g, h)
    found = set()
    for e in L.lists:
        for cyc in ref_cycles_through(g, h, e, table):
            for name in ("e_vz", "e_zt", "e_tu"):
                f = getattr(cyc, name)
                if f < e and f in L.lists:
                    found.add(name)
    return found


def some_lists(cg, kind, seed):
    if kind == "clustered":
        return clustered_lists(cg, seed)
    return dg.generate_sparse(cg, Fraction(kind, cg.s_measured), seed)


def trial_permutations(d, seed):
    """The identity, the reversal and two seeded shuffles."""
    rng = random.Random(seed)
    out = [tuple(range(1, d + 1)), tuple(range(d, 0, -1))]
    for _ in range(2):
        images = list(range(1, d + 1))
        rng.shuffle(images)
        out.append(tuple(images))
    return [dg.Permutation(images) for images in out]


def every_count(cg):
    """Parameters with tau = 0, so (c) names every edge with a blocked cycle."""
    return dg.SolverParams(cg.d, cg.s_measured, Fraction(1, 2), Fraction(0), Fraction(1, 2))


def assert_check_matches_rows(cg, L, seed):
    params = every_count(cg)
    checker = _Checker(cg, L, params)
    for rho in trial_permutations(cg.d, seed):
        assert checker.check(rho) == ref_check(cg, L, rho, params)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(sorted(BUILDERS)), st.sampled_from([1, 2, "clustered"]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_check_matches_the_fourcycle_rows_under_several_permutations(label, kind, seed):
    cg, _ = instance(label)
    assert_check_matches_rows(cg, some_lists(cg, kind, seed), seed)


def test_clustered_lists_skip_from_every_position_and_keep_empty_lists():
    # guards the generator above: lists that share cycles, seen from every
    # position of the cycle, with empty lists among them
    cg, _ = instance("Q4")
    positions = set()
    empty_listed = 0
    for seed in range(10):
        L = clustered_lists(cg, seed)
        positions |= skip_positions(cg, L)
        empty_listed += sum(1 for cs in L.lists.values() if not cs)
        assert_check_matches_rows(cg, L, seed)
    assert positions == {"e_vz", "e_zt", "e_tu"}
    assert empty_listed >= 10


def test_empty_list_blocks_nothing_and_a_shared_cycle_counts_once():
    # Q2 is one 4-cycle; edges 0 and 3 carry color 1, edges 1 and 2 color 2
    cg = dg.hypercube(2)
    params = every_count(cg)
    identity, swap = dg.Permutation((1, 2)), dg.Permutation((2, 1))
    once = tuple((e, 1) for e in range(4))
    for lists in ({0: NO_COLORS, 3: frozenset({1})}, {0: frozenset({1}), 3: frozenset({1})}):
        L = dg.ListAssignment(lists)
        checker = _Checker(cg, L, params)
        for rho in (identity, swap):
            assert checker.check(rho) == ref_check(cg, L, rho, params)
        # under the identity color 1 is edge 3's own color, so it blocks nothing
        assert checker.check(identity).witnesses_c == ()
        assert checker.check(swap).witnesses_c == once


def test_check_never_closes_a_cycle_through_a_loop():
    # Graph() takes edges unchecked: a loop at z colored a with z == t would
    # pass every other test of the cycle u-v-z-z, so only z != t rejects it
    g = Graph(3, ((0, 1), (0, 2), (1, 2), (2, 2)))
    h = dg.EdgeColoring((1, 2, 2, 1), 2)
    cg = ColoredGraph(g, h, 2, 1, 1, {})
    L = dg.ListAssignment({0: frozenset({2}), 3: frozenset({2})})
    assert dg.two_colored_cycles_through(g, h, 0) == ()
    assert ref_sensitive(cg, L) == []
    params = every_count(cg)
    for rho in (dg.Permutation((1, 2)), dg.Permutation((2, 1))):
        check = _Checker(cg, L, params).check(rho)
        assert check == ref_check(cg, L, rho, params)
        assert check.witnesses_c == ()


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(sorted(BUILDERS)), st.sampled_from([1, 2, 3, "clustered", "random"]),
       st.integers(min_value=0, max_value=10 ** 6), st.randoms(use_true_random=False),
       st.integers(min_value=0, max_value=7))
def test_c_counts_the_cycles_swap_allowed_refuses(label, kind, seed, rnd, tau8):
    cg, _ = instance(label)
    g, h = cg.graph, cg.coloring
    L = random_lists(g, cg.d, seed, 3) if kind == "random" else some_lists(cg, kind, seed)
    images = list(range(1, cg.d + 1))
    rnd.shuffle(images)
    rho = dg.Permutation(tuple(images))
    params = dg.SolverParams(cg.d, cg.s_measured, Fraction(1, 2), Fraction(tau8, 8),
                             Fraction(1, 2))
    f = dg.apply_permutation(h, rho)
    refused = [sum(1 for cyc in dg.two_colored_cycles_through(g, f, e)
                   if not _swap_allowed(L, cyc)) for e in range(g.m)]
    expected = tuple((e, cnt) for e, cnt in enumerate(refused)
                     if cnt > math.floor(params.tau_s))
    assert _Checker(cg, L, params).check(rho).witnesses_c == expected


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(sorted(BUILDERS)), st.sampled_from([1, 2, 3, "clustered"]),
       st.integers(min_value=0, max_value=10 ** 6), st.randoms(use_true_random=False),
       st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_check_matches_rows_evaluation(label, kind, seed, rnd, gamma8, tau8):
    cg, _ = instance(label)
    L = some_lists(cg, kind, seed)
    images = list(range(1, cg.d + 1))
    rnd.shuffle(images)
    rho = dg.Permutation(tuple(images))
    params = dg.SolverParams(cg.d, cg.s_measured, Fraction(gamma8, 8), Fraction(tau8, 8),
                             Fraction(1, 2))
    assert _Checker(cg, L, params).check(rho) == ref_check(cg, L, rho, params)


@pytest.mark.parametrize("label", ["Q5", "K8,8", "Q2xK4,4"])
def test_checker_build_enumerates_no_cycle(label, monkeypatch):
    # the build reads the lists only; a (c) count looks up at most one cycle
    # per listed (edge, color) pair
    cg, _ = instance(label)
    calls = []
    lookup = solver._cycle_tuples

    def counting(*args):
        calls.append(args[3])
        return lookup(*args)

    monkeypatch.setattr(solver, "_cycle_tuples", counting)
    L = dg.generate_sparse(cg, Fraction(2, cg.s_measured), 0)
    checker = _Checker(cg, L, every_count(cg))
    assert calls == []
    for rho in trial_permutations(cg.d, 0):
        calls.clear()
        checker.check(rho)
        assert 0 < len(calls) <= L.total_entries()
