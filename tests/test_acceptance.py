"""Acceptance suite: one test per criterion, one pass/fail line each.

Criterion 3 asserts a perfect success rate for the distance-2 solver. Should
an input fail, the test archives it, as a self-certifying file carrying an
exhaustive-search witness, under pytest's temporary directory, and names
that directory, the success rates and the failing seeds in its failure
message. The inputs that once failed it (two same-matching conflicts at edge
distance exactly 2 whose only allowed cycles share a partner edge under the
standard coloring) are kept in tests/artifacts/distance2_exhaustion/ as
read-only regression inputs for tests/test_solver.py.
"""

import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

import dsgraph as dg
from tests.conftest import (are_edge_disjoint, oracle_cycle_census, random_lists,
                            vertex_color_set, vertex_used_counts)


def run_criterion(number, label, body):
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_constructor_s_values():
    def body():
        t0 = time.perf_counter()
        built = []
        for d in range(1, 7):
            cg = dg.hypercube(d)
            assert cg.s_claimed == cg.s_measured == d and cg.claim_verified
            built.append(cg)
        for t in range(1, 4):
            cg = dg.complete_bipartite_pow2(t)
            assert cg.s_claimed == cg.s_measured == cg.d == 2 ** t
            built.append(cg)
        k44 = dg.complete_bipartite_pow2(2)
        for k in (1, 2):
            cg = dg.remove_standard_matchings(k44, k)
            assert cg.s_measured == 4 - k
            built.append(cg)
        cg = dg.remove_standard_matchings(dg.complete_bipartite_pow2(3), 3)
        assert cg.s_measured == 5
        built.append(cg)

        c4, q3, q1 = dg.hypercube(2), dg.hypercube(3), dg.hypercube(1)
        p1 = dg.cartesian_product(c4, q3)
        p2 = dg.cartesian_product(k44, q1)
        p3 = dg.cartesian_product(p1, p2)
        for p, a, b in ((p1, c4, q3), (p2, k44, q1), (p3, p1, p2)):
            assert p.s_claimed == min(a.d + b.s, b.d + a.s)
            assert p.s_measured == p.s_claimed and p.claim_verified
            built.append(p)

        cube_gens = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        cube = dg.cayley_involutions(dg.CayleySpec(dg.CyclicProduct((2, 2, 2)),
                                                   generators=cube_gens,
                                                   commuting=cube_gens))
        assert cube.graph.edges == q3.graph.edges and cube.s_measured == 3
        k4_gens = ((1, 0), (0, 1), (1, 1))
        k4 = dg.cayley_involutions(dg.CayleySpec(dg.CyclicProduct((2, 2)),
                                                 generators=k4_gens,
                                                 commuting=k4_gens))
        assert k4.graph.n == 4 and k4.s_measured == 3
        z4 = dg.cayley_abelian(dg.CayleySpec(dg.CyclicProduct((4,)),
                                             half_set=((1,),)))
        assert z4.s_measured == 2
        z4z2 = dg.cayley_abelian(dg.CayleySpec(dg.CyclicProduct((4, 2)),
                                               half_set=((1, 0), (0, 1))))
        assert z4z2.s_measured == 3
        built.extend((cube, k4, z4, z4z2))

        # cross-check every census against the independent quadruple scan
        for cg in built:
            census = oracle_cycle_census(cg.graph, cg.coloring)
            direct = {e: len(dg.two_colored_cycles_through(cg.graph, cg.coloring, e))
                      for e in range(len(cg.graph.edges))}
            assert census == direct
            assert cg.s_measured == min(census.values()) + 1
        assert time.perf_counter() - t0 < 60

    run_criterion(1, "constructor s-values", body)


def test_criterion_2_inequality_suite():
    def body():
        t0 = time.perf_counter()
        worst = None
        for s in range(11, 257):
            for d in range(s, 257):
                p = dg.default_params(d, s)
                rep = dg.swap_choice_margin(d, s, p.gamma, p.tau, p.epsilon)
                assert rep.satisfied and rep.components["margin"] > 0, (s, d)
                m = rep.components["margin"]
                if worst is None or m < worst:
                    worst = m
        assert worst == Fraction(81, 512)

        p10 = dg.default_params(10, 10)
        rep = dg.swap_choice_margin(10, 10, p10.gamma, p10.tau, p10.epsilon)
        assert not rep.satisfied
        assert rep.components["margin"] == Fraction(-33, 256)
        assert float(rep.components["margin"]) == -0.12890625

        for n in (2 ** 4, 2 ** 8, 2 ** 12, 2 ** 16, 2 ** 20):
            for s in (11, 16, 32, 128):
                for d in (s, 2 * s):
                    beta = mp.power(2, dg.beta_threshold(n, d, s))
                    p = dg.default_params(d, s)
                    rep = dg.permutation_union_bound(n, d, s, beta, p.gamma, p.tau)
                    assert rep.components["term1"] < 0.5
                    assert rep.components["term2"] < 0.125
                    assert rep.components["sum"] < 1 and rep.satisfied

        assert dg.beta_threshold(16, 4, 4) == mp.mpf(-651)
        assert time.perf_counter() - t0 < 30

    run_criterion(2, "inequality suite", body)


def _archive_exhaustion(cg, label, seed, L, res, out_dir):
    inst = dg.from_colored_graph(cg, lists=L)
    probe = dg.oracle_avoidable(cg.graph, cg.d, L)
    if probe.avoidable:
        inst.solution = probe.witness
    inst.report = {
        "phase": res.failure.phase,
        "message": res.failure.message,
        "generator": {"kind": "distance2", "seed": seed, "max_list": cg.s - 1},
        "oracle": {"avoidable": probe.avoidable,
                   "nodes_explored": probe.nodes_explored},
    }
    path = out_dir / f"{label}_seed{seed}.json"
    dg.save_instance(inst, path)
    return path, probe.avoidable


def test_criterion_3_distance2_end_to_end(tmp_path):
    def body():
        t0 = time.perf_counter()
        families = (("hypercube3", dg.hypercube(3)),
                    ("hypercube4", dg.hypercube(4)),
                    ("k44", dg.complete_bipartite_pow2(2)),
                    ("k88", dg.complete_bipartite_pow2(3)))
        failures = []
        counts = {}
        for label, cg in families:
            ok = 0
            for seed in range(100):
                L = dg.generate_distance2(cg, seed, cg.s - 1)
                res = dg.solve_distance2(cg, L)
                if res.ok and dg.verify_solution(cg, res.coloring, L):
                    ok += 1
                else:
                    failures.append((label, cg, seed, L, res))
            counts[label] = ok
        elapsed = time.perf_counter() - t0
        if failures:
            archived = []
            for label, cg, seed, L, res in failures:
                path, avoidable = _archive_exhaustion(cg, label, seed, L, res,
                                                      tmp_path)
                archived.append((path.name, avoidable))
            detail = ", ".join(f"{label}={n}/100" for label, n in counts.items())
            seeds = ", ".join(f"{label} seed {seed}" for label, _, seed, _, _ in failures)
            all_avoidable = all(a for _, a in archived)
            pytest.fail(
                f"distance-2 solver success rates: {detail}; failing inputs: "
                f"{seeds}; {len(archived)} archived to {tmp_path}; exhaustive "
                f"search shows {'every' if all_avoidable else 'not every'} "
                f"archived instance is avoidable")
        assert elapsed < 120

    run_criterion(3, "distance-2 end-to-end", body)


def test_criterion_4_oracle_equivalence():
    def body():
        q3 = dg.hypercube(3)
        k44 = dg.complete_bipartite_pow2(2)
        cases = [(q3, dg.SolverParams(3, 3, Fraction(1, 3), Fraction(2, 3),
                                      Fraction(2, 3))),
                 (k44, dg.SolverParams(4, 4, Fraction(1, 4), Fraction(3, 4),
                                       Fraction(3, 4)))]
        for cg, params in cases:
            for seed in range(25):
                L = random_lists(cg.graph, cg.d, seed, 2)
                res = dg.solve_sparse(cg, L, params, dg.RandomSearch(32, seed=seed))
                probe = dg.oracle_avoidable(cg.graph, cg.d, L)
                if res.ok:
                    assert dg.verify_solution(cg, res.coloring, L)
                    assert probe.avoidable
                if not probe.avoidable:
                    assert not res.ok
                if probe.avoidable:
                    assert dg.verify_solution(cg, probe.witness, L)

    run_criterion(4, "oracle equivalence", body)


def test_criterion_5_swap_plan_properties():
    def body():
        configs = (("hypercube4", dg.hypercube(4), Fraction(1, 4),
                    Fraction(1, 4), Fraction(3, 4), Fraction(3, 4), range(67)),
                   ("hypercube6", dg.hypercube(6), Fraction(1, 6),
                    Fraction(1, 6), Fraction(1, 2), Fraction(1, 2), range(67)),
                   ("k88", dg.complete_bipartite_pow2(3), Fraction(1, 8),
                    Fraction(3, 8), Fraction(1, 2), Fraction(7, 8), range(66)))
        report = []
        for label, cg, beta, gamma, tau, epsilon, seeds in configs:
            g, h, s = cg.graph, cg.coloring, cg.s
            params = dg.SolverParams(cg.d, s, gamma, tau, epsilon, beta=beta)
            vertex_cap = 2 * params.gamma_s + params.epsilon_s + 1
            elim1_cap = 20 * gamma * cg.d / epsilon
            elim2_cap = 9 * params.gamma_s + 3 * params.epsilon_s + 3
            ok = 0
            for seed in seeds:
                L = dg.generate_sparse(cg, beta, seed)
                assert dg.validate_beta_sparse(cg, L, beta).ok
                res = dg.solve_sparse(cg, L, params, dg.RandomSearch(64, seed=seed))
                if not res.ok:
                    continue
                ok += 1
                plan = res.plan
                assert are_edge_disjoint(plan.cycles)
                hprime = dg.apply_permutation(h, res.permutation)
                conflicts = dg.conflict_edges(g, hprime, L)
                anchors = {c.e_uv for c in plan.cycles}
                assert anchors == conflicts
                assert len(plan.cycles) == len(conflicts)
                for c in plan.cycles:
                    assert not ({c.e_vz, c.e_zt, c.e_tu} & conflicts)
                for count in vertex_used_counts(plan, g).values():
                    assert count <= vertex_cap
                for rec in plan.records:
                    assert rec.survivors == (rec.allowed
                                             - rec.eliminated_overloaded
                                             - rec.eliminated_conflict_or_used)
                    assert rec.allowed >= rec.total_cycles - params.tau_s
                    assert rec.eliminated_overloaded <= elim1_cap
                    assert rec.eliminated_conflict_or_used <= elim2_cap
                assert dg.verify_solution(cg, res.coloring, L)
            report.append(f"{label} {ok}/{len(seeds)}")
        print(f"[acceptance] criterion 5 success rates (reported, not gated): "
              + ", ".join(report))

    run_criterion(5, "swap plan properties", body)


def test_criterion_6_swap_algebra():
    def body():
        rng = random.Random(2026)
        for cg in (dg.hypercube(3), dg.hypercube(4),
                   dg.complete_bipartite_pow2(2), dg.complete_bipartite_pow2(3)):
            g, h = cg.graph, cg.coloring
            palettes = [vertex_color_set(g, h, u) for u in range(g.n)]
            f = h
            done = attempts = 0
            while done < 2500:
                attempts += 1
                assert attempts < 50000
                e = rng.randrange(len(g.edges))
                cycles = dg.two_colored_cycles_through(g, f, e)
                if not cycles:
                    continue
                c = cycles[rng.randrange(len(cycles))]
                nxt = dg.swap_cycle(f, c)
                if done % 97 == 0:
                    assert dg.swap_cycle(nxt, c) == f
                f = nxt
                done += 1
                assert dg.is_proper(g, f)
                for u in c.vertices:
                    assert vertex_color_set(g, f, u) == palettes[u]
            # full palette audit at the end of each family's run
            for u in range(g.n):
                assert vertex_color_set(g, f, u) == palettes[u]

    run_criterion(6, "swap algebra", body)


def test_criterion_7_claim_discrepancy_regression():
    def body():
        spec = dg.CayleySpec(dg.CyclicProduct((6,)), half_set=((1,),))
        with pytest.warns(dg.ClaimDiscrepancyWarning):
            cg = dg.cayley_abelian(spec)
        assert cg.s_claimed == 2
        assert cg.s_measured == 1
        assert not cg.claim_verified

    run_criterion(7, "claim discrepancy regression", body)
