"""The two workloads, each made of instance groups: set-up that builds inputs,
and one ``Case`` per instance.

Each group function takes the library package, the workload seed, the
smoke flag and a scratch directory, does its set-up (families, files, warm
caches) and returns the instance list of one pass. ``Case.run`` is the timed
part and calls the library only through module attributes, so a tracer that
replaces those attributes sees every call. ``Case.check`` runs untimed, uses
the independent checks in ``checks`` and returns the instance's outcome and
its canonical output text for the digest.

Instance seeds come from the workload seed as ``100 * seed + i``, so seed 0
reproduces the seeds 0..99 that the test suite and the README talk about.
A few instances are pinned to fixed seeds because they are recorded defects
(see ``distance2`` and ``oracle``).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable

from checks import CheckFailed, require_agree, require_valid

HALF = Fraction(1, 2)
PERMUTATION_TRIALS = 200
ORACLE_NODE_BUDGET = 3000
DISTANCE2_SOLVE_DEADLINE_S = 2.0


@dataclass(frozen=True)
class Case:
    label: str
    run: Callable[[Callable[..., None]], Any]  # called with ``lap``, see run.Stopwatch
    check: Callable[[Any], tuple[str, str]]
    deadline_s: float


@dataclass(frozen=True)
class Family:
    label: str
    n: int
    m: int
    d: int
    s: int
    instances: int

    @classmethod
    def of(cls, label: str, cg, instances: int) -> "Family":
        return cls(label, cg.graph.n, cg.graph.m, cg.d, cg.s_measured, instances)


@dataclass
class Workload:
    cases: list[Case]
    families: list[Family]


@dataclass(frozen=True)
class SolveOutput:
    lists: Any
    sparse_ok: bool | None
    result: Any
    verdict: bool | None


def _check_solve(ref, out: SolveOutput, text: Callable[[], str]) -> tuple[str, str]:
    """Outcome of a generate/solve/verify instance, checked against reference ``ref``."""
    if out.sparse_ok is False:
        raise CheckFailed("generate_sparse produced lists that validate_beta_sparse rejects")
    result = out.result
    if not result.ok:
        return f"solver-fail:{result.failure.phase}", text()
    lists = dict(out.lists.items())
    require_valid(ref.graph.edges, ref.d, result.coloring.colors, lists, "solver solution")
    require_agree(True, out.verdict, "verify_solution")
    return "verified", text()


def _dumps(dg, cg, out: SolveOutput) -> str:
    io = dg.instance_io
    solution = out.result.coloring if out.result.ok else None
    return io.dumps_instance(io.Instance(graph=cg.graph, d=cg.d, lists=out.lists,
                                         solution=solution))


# -- cold-pipeline -------------------------------------------------------------


def _load(dg, path: str):
    inst = dg.instance_io.load_instance(path)
    return inst, dg.instance_io.to_colored_graph(inst)


# One function per CLI call, so that each stage's graph and tables are freed
# before the next stage loads its own.

def _cold_generate(dg, p_graph: str, p_lists: str, seed: int):
    _, cg = _load(dg, p_graph)
    lists = dg.list_assignments.generate_sparse(cg, Fraction(1, cg.s_measured), seed)
    dg.instance_io.save_instance(dg.instance_io.from_colored_graph(cg, lists), p_lists)
    return lists


def _cold_validate(dg, p_lists: str) -> bool:
    inst, cg = _load(dg, p_lists)
    beta = Fraction(1, cg.s_measured)
    return dg.list_assignments.validate_beta_sparse(cg, inst.lists, beta).ok


def _cold_solve(dg, p_lists: str, p_solved: str, seed: int):
    sv = dg.solver
    inst, cg = _load(dg, p_lists)
    beta = Fraction(1, cg.s_measured)
    params = sv.SolverParams(d=cg.d, s=cg.s_measured, gamma=beta, tau=HALF, epsilon=HALF,
                             beta=beta)
    result = sv.solve_sparse(cg, inst.lists, params,
                             sv.RandomSearch(trials=PERMUTATION_TRIALS, seed=seed))
    inst.report = {"phase": "done" if result.ok else result.failure.phase,
                   "trials": result.trials_used}
    if result.ok:
        inst.solution = result.coloring
        inst.plan = tuple(c.vertices for c in result.plan.cycles)
    dg.instance_io.save_instance(inst, p_solved)
    return result


def _cold_verify(dg, p_solved: str) -> bool:
    inst, cg = _load(dg, p_solved)
    return dg.solver.verify_solution(cg, inst.solution, inst.lists)


def _cold_run(dg, d: int, seed: int, prefix: str, lap) -> tuple[SolveOutput, str]:
    p_graph, p_lists, p_solved = (f"{prefix}-{x}.json" for x in ("graph", "lists", "solved"))
    io = dg.instance_io
    io.save_instance(io.from_colored_graph(dg.constructors.hypercube(d)), p_graph)
    lap()
    lists = _cold_generate(dg, p_graph, p_lists, seed)
    lap()
    sparse_ok = _cold_validate(dg, p_lists)
    lap()
    result = _cold_solve(dg, p_lists, p_solved, seed)
    verdict = None
    if result.ok:
        lap()
        verdict = _cold_verify(dg, p_solved)
    return SolveOutput(lists, sparse_ok, result, verdict), p_solved


def _cold_check(ref, run_out) -> tuple[str, str]:
    out, path = run_out
    return _check_solve(ref, out, lambda: Path(path).read_text(encoding="utf-8"))


def cold_pipeline(dg, seed: int, smoke: bool, work: Path) -> Workload:
    """Q7 and Q6 at beta = 1/s, each stage on a graph freshly loaded from its file.

    One Q7 instance (stages of about 0.2 s) and six Q6 instances (stages of
    about 0.04 s). Every stage stays short, so a run times each stage many
    times.
    """
    dims = (6, 6, 5) if smoke else (7, 6, 6, 6, 6, 6, 6)
    refs = {d: dg.constructors.hypercube(d) for d in set(dims)}
    cases = []
    for i, d in enumerate(dims):
        list_seed = 100 * seed + i
        cases.append(Case(f"Q{d}/seed{list_seed}",
                          partial(_cold_run, dg, d, list_seed, str(work / f"cold{i}")),
                          partial(_cold_check, refs[d]), 60.0))
    families = [Family.of(f"Q{d}", refs[d], dims.count(d)) for d in sorted(refs)]
    return Workload(cases, families)


# -- sweep -----------------------------------------------------------------------


def _sweep_row(dg, cg, beta, params, seed: int, lap=lambda: None) -> SolveOutput:
    la, sv = dg.list_assignments, dg.solver
    lists = la.generate_sparse(cg, beta, seed)
    lap()
    sparse = la.validate_beta_sparse(cg, lists, beta)
    lap()
    result = sv.solve_sparse(cg, lists, params,
                             sv.RandomSearch(trials=PERMUTATION_TRIALS, seed=seed))
    verdict = None
    if result.ok:
        lap()
        verdict = sv.verify_solution(cg, result.coloring, lists)
    return SolveOutput(lists, sparse.ok, result, verdict)


def _sweep_bounds(dg, cg, params, lap):
    b = dg.bounds
    n, d, s = cg.graph.n, cg.d, cg.s_measured
    return (b.beta_threshold(n, d, s),
            b.permutation_union_bound(n, d, s, params.beta, params.gamma, params.tau),
            b.swap_choice_margin(d, s, params.gamma, params.tau, params.epsilon))


def _bounds_check(out) -> tuple[str, str]:
    threshold, union, margin = out
    return "computed", repr((threshold, union.satisfied, union.components,
                             margin.satisfied, margin.components))


def sweep(dg, seed: int, smoke: bool, work: Path) -> Workload:
    """``dsgraph sweep`` rows in-process on families whose tables set-up warmed."""
    con = dg.constructors
    if smoke:
        specs = [("Q6", lambda: con.hypercube(6), 6, 6, 3),
                 ("K8,8", lambda: con.complete_bipartite_pow2(3), 8, 8, 3),
                 ("Q2xK4,4", lambda: con.cartesian_product(
                     con.hypercube(2), con.complete_bipartite_pow2(2)), 6, 6, 3)]
    else:
        # Q7 rather than Q8: a Q8 row spends 0.6 s in one generate_sparse
        # call, too long a stage to time steadily. In in-process the two
        # K32,32 rows (a 0.25 s solve each) sit above the tail percentile,
        # which falls among the Q4xK4,4 rows.
        specs = [("Q7", lambda: con.hypercube(7), 7, 7, 8),
                 ("K32,32", lambda: con.complete_bipartite_pow2(5), 32, 16, 2),
                 ("Q4xK4,4", lambda: con.cartesian_product(
                     con.hypercube(4), con.complete_bipartite_pow2(2)), 8, 8, 8),
                 ("K16,16", lambda: con.complete_bipartite_pow2(4), 16, 8, 8)]
    cases, families = [], []
    for label, build, beta_den, gamma_den, rows in specs:
        cg = build()
        beta = Fraction(1, beta_den)
        params = dg.solver.SolverParams(d=cg.d, s=cg.s_measured, gamma=Fraction(1, gamma_den),
                                        tau=HALF, epsilon=HALF, beta=beta)
        _sweep_row(dg, cg, beta, params, 100 * seed + 99)  # untimed warm-up row
        families.append(Family.of(label, cg, rows))
        cases.append(Case(f"{label}/bounds", partial(_sweep_bounds, dg, cg, params),
                          _bounds_check, 10.0))
        for i in range(rows):
            cases.append(Case(
                f"{label}/beta{beta}/seed{100 * seed + i}",
                partial(_sweep_row, dg, cg, beta, params, 100 * seed + i),
                lambda out, cg=cg: _check_solve(cg, out, partial(_dumps, dg, cg, out)),
                10.0))
    return Workload(cases, families)


# -- distance2 -------------------------------------------------------------------


def _distance2_run(dg, path: str, seed: int, lap) -> tuple[Any, SolveOutput]:
    sv = dg.solver
    _, cg = _load(dg, path)
    lap()
    lists = dg.list_assignments.generate_distance2(cg, seed, cg.s_measured - 1)
    lap(DISTANCE2_SOLVE_DEADLINE_S)
    result = sv.solve_distance2(cg, lists)
    verdict = None
    if result.ok:
        lap()
        verdict = sv.verify_solution(cg, result.coloring, lists)
    return cg, SolveOutput(lists, None, result, verdict)


def _distance2_check(dg, ref, run_out) -> tuple[str, str]:
    cg, out = run_out
    return _check_solve(ref, out, partial(_dumps, dg, cg, out))


def distance2(dg, seed: int, smoke: bool, work: Path) -> Workload:
    """generate_distance2(max_list = s-1), solve_distance2, verify; one fresh load each.

    Q10 seed 0 is pinned: it is the recorded backtracking hang, and ends in a
    timeout. The instance deadline leaves generate_distance2 (about 6 s on
    Q10, 9 s traced) time to finish even on a slow host, so the memory
    peak and the counters do not depend on where the deadline struck; the
    solve stage then gets DISTANCE2_SOLVE_DEADLINE_S of its own, so the hang
    costs the run little. In cold-pipeline the median falls inside the Q4
    group and the tail percentile inside the Q7 group. The Q7 instances
    (about 0.06 s each) are the largest that run every pass, so that every
    stage is short and timed many times; Q8 (a 0.3 s generate_distance2
    call) is left out for that reason.
    """
    if smoke:
        plan = [(3, 5, (8,)), (4, 5, ()), (5, 2, ())]
    else:
        plan = [(3, 100, ()), (4, 100, ()), (5, 20, ()), (6, 12, ()), (7, 8, ()),
                (10, 0, (0,))]
    cases, families = [], []
    for d, count, pinned in plan:
        cg = dg.constructors.hypercube(d)
        path = str(work / f"hypercube{d}.json")
        dg.instance_io.save_instance(dg.instance_io.from_colored_graph(cg), path)
        families.append(Family.of(f"Q{d}", cg, count + len(pinned)))
        for s in [100 * seed + i for i in range(count)] + list(pinned):
            cases.append(Case(f"Q{d}/seed{s}", partial(_distance2_run, dg, path, s),
                              partial(_distance2_check, dg, cg), 30.0))
    return Workload(cases, families)


# -- oracle ----------------------------------------------------------------------


def random_lists(dg, cg, seed: int):
    """Zero, one or two forbidden colors per edge, uniformly; no sparsity promise."""
    rng = random.Random(seed)
    raw = {}
    for e in range(cg.graph.m):
        k = rng.randint(0, 2)
        if k:
            raw[e] = rng.sample(range(1, cg.d + 1), k)
    return dg.list_assignments.ListAssignment.from_dict(raw)


def _oracle_run(dg, cg, lists, lap):
    try:
        return dg.oracle.oracle_avoidable(cg.graph, cg.d, lists, limit=ORACLE_NODE_BUDGET)
    except dg.errors.OracleBudgetExceeded:
        return None


def _oracle_check(cg, lists, solver_solved: bool, res) -> tuple[str, str]:
    if res is None:
        return "undecided", ""
    if res.avoidable:
        require_valid(cg.graph.edges, cg.d, res.witness.colors, dict(lists.items()),
                      "oracle witness")
        return "decided", f"avoidable {list(res.witness.colors)}"
    if solver_solved:
        raise CheckFailed("oracle says not avoidable on an instance a solver solved")
    return "decided", "not avoidable"


def oracle(dg, seed: int, smoke: bool, work: Path) -> Workload:
    """oracle_avoidable under a fixed node budget on distance-2 and random lists.

    Two distance-2 instances are pinned, as recorded cases: Q8 seed 0
    exhausts the budget, Q8 seed 10 recurses past Python's limit.
    """
    con = dg.constructors
    if smoke:
        counts = [("Q3", con.hypercube(3), 3, 3), ("K4,4", con.complete_bipartite_pow2(2), 3, 3)]
        pinned = [("Q6", con.hypercube(6), (0,))]
    else:
        # (label, graph, distance-2 count, random count). In in-process the
        # Q5 distance-2 group holds the median, with cheaper instances below
        # it and dearer ones above. The Q7 group, most of it out of budget
        # (20-80 ms each), and the pinned Q8 instances (0.1-0.3 s each) are
        # among the instances above the tail percentile.
        q8 = con.hypercube(8)
        counts = [("Q3", con.hypercube(3), 15, 15), ("Q4", con.hypercube(4), 15, 15),
                  ("Q5", con.hypercube(5), 100, 20), ("Q6", con.hypercube(6), 12, 6),
                  ("K4,4", con.complete_bipartite_pow2(2), 15, 15),
                  ("K8,8", con.complete_bipartite_pow2(3), 20, 20),
                  ("K16,16", con.complete_bipartite_pow2(4), 15, 10),
                  ("Q7", con.hypercube(7), 8, 0)]
        pinned = [("Q8", q8, (0, 10))]
    jobs = []
    for label, cg, n_d2, n_random in counts:
        jobs += [(label, cg, "d2", 100 * seed + i) for i in range(n_d2)]
        jobs += [(label, cg, "random", 100 * seed + i) for i in range(n_random)]
    for label, cg, seeds in pinned:
        jobs += [(label, cg, "d2", s) for s in seeds
                 if (label, cg, "d2", s) not in jobs]  # seed 0 draws seeds 0..n itself
    cases = []
    for label, cg, kind, s in jobs:
        solved = False
        if kind == "d2":
            lists = dg.list_assignments.generate_distance2(cg, s, cg.s_measured - 1)
            result = dg.solver.solve_distance2(cg, lists)
            if result.ok:
                require_valid(cg.graph.edges, cg.d, result.coloring.colors,
                              dict(lists.items()), "solve_distance2 solution")
                solved = True
        else:
            lists = random_lists(dg, cg, s)
        cases.append(Case(f"{label}/{kind}/seed{s}", partial(_oracle_run, dg, cg, lists),
                          partial(_oracle_check, cg, lists, solved), 10.0))
    per_label = Counter(label for label, *_ in jobs)
    graphs = {label: cg for label, cg, *_ in jobs}
    return Workload(cases, [Family.of(k, graphs[k], n) for k, n in per_label.items()])


def _combined(*parts):
    """A workload whose instances are those of several groups, one pass after
    the other, each label prefixed with its group's name."""
    def build(dg, seed: int, smoke: bool, work: Path) -> Workload:
        cases, families = [], []
        for name, group in parts:
            w = group(dg, seed, smoke, work)
            cases += [replace(c, label=f"{name}:{c.label}") for c in w.cases]
            families += [replace(f, label=f"{name}:{f.label}") for f in w.families]
        return Workload(cases, families)
    return build


# Two workloads, not four: the host this runs on changes speed for tens of
# seconds at a time, and only runs much longer than that time each stage
# steadily; the run time the benchmark contract allows is shared between the
# workloads. cold-pipeline holds the CLI-style groups, whose every stage
# loads its graph afresh; in-process the groups that reuse graphs and tables
# built in set-up.
WORKLOADS = {
    "cold-pipeline": _combined(("sparse", cold_pipeline), ("distance2", distance2)),
    "in-process": _combined(("sweep", sweep), ("oracle", oracle)),
}
