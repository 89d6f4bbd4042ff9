"""Phase one's per-cycle (c) entries against the FourCycle build they replaced.

``ref_sensitive`` below is the checker build that enumerated a ``FourCycle``
per cycle through each listed edge, skipped a cycle once any of its edges
sat in a set of listed edges already handled, and gave each of the four
edges a row (own color - 1, other color - 1, blocks own, blocks other). It
runs on the dict-table enumeration of ``test_cycle_census`` and on its own
blocker unions, so it shares no code with ``solver._Checker``, which keeps
one entry per cycle. ``rows_of`` expands those entries back into rows; the
rows must agree edge for edge and row for row on generated beta-sparse lists
and on clustered lists where listed edges, empty lists among them, share
cycles, and ``check`` must equal an evaluation of the rows.
"""

import random
from collections import Counter, defaultdict
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph.constructors import ColoredGraph
from dsgraph.graph_core import Graph, t_neighborhood
from dsgraph.solver import _Checker
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


def colors_in(mask):
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


def rows_of(checker):
    """The checker's per-cycle entries expanded into the rows of ``ref_sensitive``:
    e and partner get (ia, ib, ba, bb), e_vz and e_tu get (ib, ia, bb, ba),
    with the entries' color bitmasks read back as sets."""
    rows = defaultdict(list)
    for ia, ib, mask_a, mask_b, e, partner, ez, et in checker.cycles:
        ba, bb = colors_in(mask_a), colors_in(mask_b)
        rows[e].append((ia, ib, ba, bb))
        rows[partner].append((ia, ib, ba, bb))
        rows[ez].append((ib, ia, bb, ba))
        rows[et].append((ib, ia, bb, ba))
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
    """The cycle positions from which an earlier listed edge made the build skip."""
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


def params_for(cg):
    return dg.SolverParams(cg.d, cg.s_measured, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(sorted(BUILDERS)), st.sampled_from([1, 2, "clustered"]),
       st.integers(min_value=0, max_value=10 ** 6))
def test_checker_rows_match_fourcycle_build(label, kind, seed):
    cg, _ = instance(label)
    L = some_lists(cg, kind, seed)
    assert rows_of(_Checker(cg, L, params_for(cg))) == ref_sensitive(cg, L)


def test_clustered_lists_skip_from_every_position_and_keep_empty_lists():
    # guards the generator above: every skip branch of the build is reached
    cg, _ = instance("Q4")
    positions = set()
    empty_listed = 0
    for seed in range(10):
        L = clustered_lists(cg, seed)
        positions |= skip_positions(cg, L)
        empty_listed += sum(1 for cs in L.lists.values() if not cs)
        assert rows_of(_Checker(cg, L, params_for(cg))) == ref_sensitive(cg, L)
    assert positions == {"e_vz", "e_zt", "e_tu"}
    assert empty_listed >= 10


def test_empty_list_is_listed_for_the_skip():
    # an empty list on the least edge of a cycle claims that cycle, so the
    # later listed edge must not give its rows a second time
    cg = dg.hypercube(2)
    L = dg.ListAssignment({0: NO_COLORS, 3: frozenset({1})})
    checker = _Checker(cg, L, params_for(cg))
    rows = rows_of(checker)
    assert rows == ref_sensitive(cg, L)
    assert [len(r) for _, r in rows] == [1, 1, 1, 1]
    assert len(checker.cycles) == 1


def test_rows_never_close_a_cycle_through_a_loop():
    # Graph() takes edges unchecked: a loop at z colored a with z == t would
    # pass every other test of the cycle u-v-z-z, so only z != t rejects it
    g = Graph(3, ((0, 1), (0, 2), (1, 2), (2, 2)))
    h = dg.EdgeColoring((1, 2, 2, 1), 2)
    cg = ColoredGraph(g, h, 2, 1, 1, {})
    L = dg.ListAssignment({0: frozenset({2}), 3: frozenset({2})})
    assert dg.two_colored_cycles_through(g, h, 0) == ()
    assert rows_of(_Checker(cg, L, params_for(cg))) == ref_sensitive(cg, L) == []


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
