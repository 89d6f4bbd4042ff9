"""Two-phase avoidance solver: permutation search, swap plans, verification."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from tests.conftest import (are_edge_disjoint, random_lists, ref_candidates,
                            vertex_used_counts)

ARTIFACTS = Path(__file__).resolve().parent / "artifacts" / "distance2_exhaustion"


def test_permutation_validation_and_algebra():
    rho = dg.Permutation((2, 3, 1))
    assert rho(1) == 2 and rho(3) == 1
    assert rho.inverse().images == (3, 1, 2)
    assert dg.Permutation.identity(4).images == (1, 2, 3, 4)
    for bad in ((1, 1, 2), (0, 1, 2), (1, 3)):
        with pytest.raises(ValueError):
            dg.Permutation(bad)


@pytest.mark.parametrize("d", [1, 2, 7, 16])
def test_random_search_trials_match_random_shuffle(d):
    # the identity, then one list reshuffled in place with rng.shuffle per trial
    for seed in range(4):
        rng, base = random.Random(seed), list(range(1, d + 1))
        expected = [tuple(base)]
        for _ in range(29):
            rng.shuffle(base)
            expected.append(tuple(base))
        assert list(dg.RandomSearch(trials=30, seed=seed).candidates(d)) == expected


def test_apply_permutation_preserves_structure(q4):
    g, h = q4.graph, q4.coloring
    rho = dg.Permutation((3, 1, 4, 2))
    f = dg.apply_permutation(h, rho)
    assert dg.is_proper(g, f)
    for e in range(len(g.edges)):
        assert f[e] == rho(h[e])
    # color classes move as blocks
    for color, m in enumerate(dg.standard_matchings(g, h), start=1):
        assert all(f[e] == rho(color) for e in m)


def test_solver_params_validation():
    p = dg.SolverParams(4, 4, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    assert p.gamma_s == 2 and p.tau_s == 1 and p.epsilon_s == Fraction(1, 2)
    with pytest.raises(ValueError):
        dg.SolverParams(4, 4, 1, 0, 0)
    with pytest.raises(ValueError):
        dg.SolverParams(4, 4, 0, 0, Fraction(-1, 2))
    with pytest.raises(ValueError):
        dg.SolverParams(0, 0, 0, 0, 0)


def test_check_permutation_accepts_everything_on_empty_lists(q3):
    p = dg.SolverParams(3, 3, 0, 0, Fraction(1, 2))
    for images in ((1, 2, 3), (2, 3, 1), (3, 2, 1)):
        res = dg.check_permutation(q3, dg.EMPTY, dg.Permutation(images), p)
        assert res.ok and res.ok_a and res.ok_b and res.ok_c


def test_check_permutation_counts_vertex_conflicts(q3):
    # identity makes edges 0 and 1 (both at vertex 0) conflicts
    L = dg.ListAssignment.from_dict({0: [dg.hypercube(3).coloring[0]],
                                     1: [dg.hypercube(3).coloring[1]]})
    p = dg.SolverParams(3, 3, Fraction(1, 3), Fraction(2, 3), Fraction(1, 3))
    res = dg.check_permutation(q3, L, dg.Permutation.identity(3), p)
    assert not res.ok_b
    assert (0, 2) in res.witnesses_b


def test_find_permutation_identity_first_on_empty_lists(q3):
    p = dg.SolverParams(3, 3, 0, 0, Fraction(1, 2))
    rho = dg.find_permutation(q3, dg.EMPTY, p, dg.RandomSearch(5, seed=0))
    assert rho.images == (1, 2, 3)


def test_find_permutation_exhaustive_proves_absence(k44):
    # one edge forbidding every color defeats any permutation at gamma=0
    L = dg.ListAssignment.from_dict({0: [1, 2, 3, 4]})
    p = dg.SolverParams(4, 4, 0, Fraction(9, 10), Fraction(1, 2))
    with pytest.raises(dg.PermutationNotFound) as ei:
        dg.find_permutation(k44, L, p, dg.Exhaustive())
    assert ei.value.trials == 24


def test_find_permutation_random_budget(k44):
    L = dg.ListAssignment.from_dict({0: [1, 2, 3, 4]})
    p = dg.SolverParams(4, 4, 0, Fraction(9, 10), Fraction(1, 2))
    with pytest.raises(dg.PermutationBudgetExceeded) as ei:
        dg.find_permutation(k44, L, p, dg.RandomSearch(7, seed=1))
    assert ei.value.trials == 7


def test_exhaustive_strategy_respects_cap(k88):
    with pytest.raises(dg.ResourceLimit):
        dg.find_permutation(k88, dg.EMPTY,
                            dg.SolverParams(8, 8, 0, 0, Fraction(1, 2)),
                            dg.Exhaustive(cap=7))


def test_allowed_cycles_filters_by_all_four_edges(q3):
    g, h = q3.graph, q3.coloring
    assert len(dg.allowed_cycles(q3, h, dg.EMPTY, 0)) == 2
    # both alternative colors forbidden on the anchor: nothing survives
    blocked = dg.ListAssignment.from_dict({0: [2, 3]})
    assert dg.allowed_cycles(q3, h, blocked, 0) == ()
    # forbidding a side edge's incoming color also kills a cycle
    side = dg.two_colored_cycles_through(g, h, 0)[0]
    L = dg.ListAssignment.from_dict({side.e_vz: [h[side.e_uv]]})
    remaining = dg.allowed_cycles(q3, h, L, 0)
    assert len(remaining) == 1
    assert remaining[0].e_vz != side.e_vz


def test_construct_swap_plan_shared_partner_selection(k44):
    # two conflicts in the color-1 matching compete for the same cycles;
    # the second record shows one extra elimination from used edges
    L = dg.ListAssignment.from_dict({0: [1], 5: [1]})
    p = dg.SolverParams(4, 4, Fraction(1, 2), Fraction(1, 2), Fraction(3, 4))
    final, plan = dg.construct_swap_plan(k44, k44.coloring, L, p)
    first, second = plan.records
    assert (first.edge, first.total_cycles, first.allowed, first.survivors) == (0, 3, 3, 2)
    assert first.eliminated_conflict_or_used == 1
    assert (second.edge, second.total_cycles, second.allowed, second.survivors) == (5, 3, 3, 1)
    assert second.eliminated_conflict_or_used == 2
    assert [(c.z, c.t) for c in plan.cycles] == [(2, 6), (3, 7)]
    assert are_edge_disjoint(plan.cycles)
    assert dg.verify_solution(k44, final, L)
    assert all(n == 2 for n in vertex_used_counts(plan, k44.graph).values())


def test_construct_swap_plan_stuck_when_nothing_allowed(k44):
    L = dg.ListAssignment.from_dict({0: [1, 2, 3, 4]})
    p = dg.SolverParams(4, 4, Fraction(9, 10), Fraction(9, 10), Fraction(9, 10))
    with pytest.raises(dg.SwapPlanStuck) as ei:
        dg.construct_swap_plan(k44, k44.coloring, L, p)
    assert ei.value.edge == 0
    assert ei.value.eliminated["allowed"] == 0
    assert ei.value.eliminated["not_allowed"] == 3


def test_construct_swap_plan_requires_positive_epsilon(k44):
    with pytest.raises(ValueError, match="epsilon"):
        dg.construct_swap_plan(k44, k44.coloring, dg.EMPTY,
                               dg.SolverParams(4, 4, 0, 0, 0))


def test_solve_sparse_empty_lists_returns_standard_coloring(q3):
    res = dg.solve_sparse(q3, dg.EMPTY)
    assert res.ok
    assert res.coloring == q3.coloring
    assert res.trials_used == 1
    assert res.plan.cycles == ()


def test_solve_sparse_failure_phase_permutation(k44):
    L = dg.ListAssignment.from_dict({0: [1, 2, 3, 4]})
    p = dg.SolverParams(4, 4, 0, Fraction(9, 10), Fraction(1, 2))
    res = dg.solve_sparse(k44, L, p, dg.Exhaustive())
    assert not res.ok
    assert res.failure.phase == "permutation"
    assert res.trials_used == 24
    assert res.permutation is None


def test_solve_sparse_failure_phase_swap(k44):
    # permissive thresholds let phase 1 pass, then no cycle is allowed
    L = dg.ListAssignment.from_dict({0: [1, 2, 3, 4]})
    p = dg.SolverParams(4, 4, Fraction(9, 10), Fraction(9, 10), Fraction(9, 10))
    res = dg.solve_sparse(k44, L, p)
    assert not res.ok
    assert res.failure.phase == "swap"
    assert res.failure.stuck_edge == 0
    assert res.permutation is not None


def test_solve_sparse_success_roundtrip(q4):
    L = dg.generate_sparse(q4, Fraction(1, 4), 2)
    p = dg.SolverParams(4, 4, Fraction(1, 4), Fraction(3, 4), Fraction(3, 4))
    res = dg.solve_sparse(q4, L, p, dg.RandomSearch(64, seed=0))
    if res.ok:
        assert dg.verify_solution(q4, res.coloring, L)
        assert are_edge_disjoint(res.plan.cycles)
    else:
        assert res.failure.phase in ("permutation", "swap")


def test_solve_distance2_single_conflict(q3):
    L = dg.generate_distance2(q3, 3, 2)
    res = dg.solve_distance2(q3, L)
    assert res.ok
    assert len(res.plan.cycles) == len(dg.conflict_edges(q3.graph, q3.coloring, L))
    assert dg.verify_solution(q3, res.coloring, L)


def test_solve_distance2_empty_lists(q3):
    res = dg.solve_distance2(q3, dg.EMPTY)
    assert res.ok and res.coloring == q3.coloring and res.plan.cycles == ()


def test_solve_distance2_preconditions(q3):
    with pytest.raises(dg.PreconditionViolated, match="distance-2"):
        dg.solve_distance2(q3, dg.ListAssignment.from_dict({0: [1], 1: [2]}))
    with pytest.raises(dg.PreconditionViolated, match="at most"):
        dg.solve_distance2(q3, dg.ListAssignment.from_dict({0: [1, 2, 3]}))


@pytest.mark.parametrize("solve", [dg.solve_sparse, dg.solve_distance2])
@pytest.mark.parametrize("raw, match", [
    # Q3 has 12 edges; key -1 must not be read as edge 11
    ({-1: [1]}, "nonexistent edge -1"), ({12: [1]}, "nonexistent edge 12"),
    ({0: [0]}, "color 0 on edge 0"), ({0: [4]}, "color 4 on edge 0")])
def test_solvers_reject_lists_outside_the_graph_or_palette(q3, solve, raw, match):
    with pytest.raises(dg.ColorOutOfRange, match=match):
        solve(q3, dg.ListAssignment.from_dict(raw))


@pytest.mark.parametrize("search", [
    lambda cg, L: dg.check_permutation(cg, L, dg.Permutation.identity(cg.d),
                                       dg.default_params(cg.d, cg.s_measured)),
    lambda cg, L: dg.find_permutation(cg, L, dg.default_params(cg.d, cg.s_measured),
                                      dg.RandomSearch(trials=5))],
    ids=["check_permutation", "find_permutation"])
@pytest.mark.parametrize("raw, match", [
    # edge -1 once read edge 11's color through a negative index
    ({-1: [1]}, "nonexistent edge -1"), ({12: [1]}, "nonexistent edge 12"),
    ({0: [4]}, "color 4 on edge 0")])
def test_phase_one_rejects_lists_outside_the_graph_or_palette(q3, search, raw, match):
    with pytest.raises(dg.ColorOutOfRange, match=match):
        search(q3, dg.ListAssignment.from_dict(raw))


def test_solve_distance2_reports_exhaustion(q3):
    # two same-matching conflicts at distance exactly 2 whose only allowed
    # cycles share a partner edge: under the identity trial the cycle-choice
    # space is empty, and a later color permutation has to be found
    L = dg.generate_distance2(q3, 8, 2)
    res = dg.solve_distance2(q3, L)
    assert res.trials_used > 1
    assert res.permutation != dg.Permutation.identity(q3.d)
    assert res.ok
    assert dg.verify_solution(q3, res.coloring, L)
    # the instance itself is avoidable, as the oracle confirms independently
    assert dg.oracle_avoidable(q3.graph, q3.d, L).avoidable


def test_solve_distance2_reports_a_failed_swap_search(q3, monkeypatch):
    # with no edge-disjoint system on any trial, all 200 trials are spent
    monkeypatch.setattr(dg.solver, "_disjoint_cycle_system", lambda cg, f, L: None)
    res = dg.solve_distance2(q3, dg.generate_distance2(q3, 8, 2))
    assert not res.ok
    assert res.coloring is None and res.permutation is None and res.plan is None
    assert res.trials_used == 200
    assert res.failure == dg.FailureReport(
        "swap-search", "no edge-disjoint system of allowed cycles found", trials=200)


def test_solve_distance2_solves_archived_exhaustion_inputs():
    # the inputs the identity-only search gave up on, each stored with an
    # oracle witness as its solution; read, never written
    paths = sorted(ARTIFACTS.glob("*.json"))
    assert len(paths) == 13
    for path in paths:
        inst = dg.load_instance(path)
        cg = dg.to_colored_graph(inst)
        assert inst.report["oracle"]["avoidable"], path.name
        assert dg.verify_solution(cg, inst.solution, inst.lists), path.name
        res = dg.solve_distance2(cg, inst.lists)
        assert res.ok, path.name
        assert dg.verify_solution(cg, res.coloring, inst.lists), path.name


def recursive_disjoint_cycle_system(cg, f, L):
    """The recursive backtracking search the explicit stack replaced."""
    options = [allowed for _, _, allowed in
               ref_candidates(cg, f, L, dg.conflict_edges(cg.graph, f, L))]
    chosen = []

    def extend(i, used):
        if i == len(options):
            return True
        for cyc in options[i]:
            if not used & cyc.edge_mask:
                chosen.append(cyc)
                if extend(i + 1, used | cyc.edge_mask):
                    return True
                chosen.pop()
        return False

    return chosen if extend(0, 0) else None


def test_disjoint_cycle_system_keeps_the_recursive_search_order():
    # the archived inputs backtrack and fail under the identity; the seeded
    # Q3/Q4 lists cover successes, each under the first permutation trials
    inputs = [(cg := dg.to_colored_graph(inst := dg.load_instance(p)), inst.lists)
              for p in sorted(ARTIFACTS.glob("*.json"))]
    inputs += [(cg, dg.generate_distance2(cg, seed, cg.s_measured - 1))
               for cg in (dg.hypercube(3), dg.hypercube(4)) for seed in range(20)]
    outcomes = set()
    for cg, L in inputs:
        census = dg.solver._Checker(cg, L)
        for images in dg.RandomSearch(trials=6, seed=1).candidates(cg.d):
            f = dg.apply_permutation(cg.coloring, dg.Permutation(images))
            rho = (0, *images)  # rho[c] is the image of color c
            got = dg.solver._disjoint_cycle_system(census, rho, census.conflicts(rho))
            assert got == recursive_disjoint_cycle_system(cg, f, L)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_verify_solution_cases(q3):
    g, h = q3.graph, q3.coloring
    assert dg.verify_solution(q3, h, dg.EMPTY)
    assert not dg.verify_solution(q3, h, dg.ListAssignment.from_dict({0: [h[0]]}))
    broken = list(h.colors)
    broken[0] = 0
    assert not dg.verify_solution(q3, dg.EdgeColoring(tuple(broken), 3), dg.EMPTY)
    improper = list(h.colors)
    improper[g.edges.index((0, 2))] = h[g.edges.index((0, 1))]
    assert not dg.verify_solution(q3, dg.EdgeColoring(tuple(improper), 3), dg.EMPTY)
    # find_violation: the properness witness first, then the least conflict edge
    assert dg.find_violation(g, h, dg.EMPTY) is None
    lists = dg.ListAssignment.from_dict({3: [h[3]], 5: [h[5]], 6: [h[6] % 3 + 1]})
    assert dg.find_violation(g, h, lists) == 3
    assert dg.find_violation(g, dg.EdgeColoring(tuple(improper), 3), lists) == (
        g.edges.index((0, 1)), g.edges.index((0, 2)), h[g.edges.index((0, 1))], 0)


@pytest.mark.parametrize("name", ["q3", "q4", "k44", "q2xk44"])
def test_condition_c_counts_match_allowed_cycles(name):
    # the checker's precomputed blocker masks and allowed_cycles against
    # swapping each cycle and looking up its four edges; tau = 0 makes every
    # disallowed cycle a witness. generate_sparse at beta = 1/s gives mostly
    # single colors, the random lists up to two per edge.
    cg = {"q3": lambda: dg.hypercube(3), "q4": lambda: dg.hypercube(4),
          "k44": lambda: dg.complete_bipartite_pow2(2),
          "q2xk44": lambda: dg.cartesian_product(dg.hypercube(2),
                                                 dg.complete_bipartite_pow2(2))}[name]()
    g, s = cg.graph, cg.s_measured
    p = dg.SolverParams(cg.d, s, Fraction(1, 2), Fraction(0), Fraction(1, 2))
    for L in (dg.generate_sparse(cg, Fraction(1, s), seed=3), random_lists(g, cg.d, 3, 2)):
        assert L.total_entries() > 0
        sole_blockers = set()
        rng = random.Random(name)
        for _ in range(6):
            images = list(range(1, cg.d + 1))
            rng.shuffle(images)
            rho = dg.Permutation(tuple(images))
            f = dg.apply_permutation(cg.coloring, rho)
            counts = dict(dg.check_permutation(cg, L, rho, p).witnesses_c)
            table = dg.color_table(g, f)
            for e in range(g.m):
                cycles = dg.two_colored_cycles_through(g, f, e, table)
                clean = []
                for c in cycles:
                    swapped = dg.swap_cycle(f, c)
                    blocking = [role for role, x in zip(("uv", "vz", "zt", "tu"), c.edge_ids)
                                if swapped[x] in L.get(x)]
                    if len(blocking) == 1:
                        sole_blockers.add(blocking[0])
                    if not blocking:
                        clean.append(c)
                assert dg.allowed_cycles(cg, f, L, e, table) == tuple(clean), (name, rho, e)
                assert counts.get(e, 0) == len(cycles) - len(clean), (name, rho, e)
        # each of the swap rule's four list lookups alone decides some cycle
        assert sole_blockers == {"uv", "vz", "zt", "tu"}


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_solve_sparse_never_returns_unverified_success(seed):
    q4 = dg.hypercube(4)
    L = dg.generate_sparse(q4, Fraction(1, 4), seed)
    p = dg.SolverParams(4, 4, Fraction(1, 4), Fraction(3, 4), Fraction(3, 4))
    res = dg.solve_sparse(q4, L, p, dg.RandomSearch(16, seed=seed))
    if res.ok:
        assert dg.verify_solution(q4, res.coloring, L)
        assert are_edge_disjoint(res.plan.cycles)
        conflicts = dg.conflict_edges(q4.graph,
                                      dg.apply_permutation(q4.coloring, res.permutation),
                                      L)
        assert len(res.plan.cycles) == len(conflicts)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_solve_distance2_success_or_archived_shape(seed):
    q4 = dg.hypercube(4)
    L = dg.generate_distance2(q4, seed, 3)
    res = dg.solve_distance2(q4, L)
    if res.ok:
        assert dg.verify_solution(q4, res.coloring, L)
    else:
        assert res.failure.phase == "swap-search"
