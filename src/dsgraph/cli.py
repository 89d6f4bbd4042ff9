"""Command-line front end: construction, analysis, solving, and sweeps.

Exit codes: 0 success (or verified), 1 solver failure (or failed
verification), 2 invalid input. Instances travel as dsgraph-v1 JSON files;
sweep results land in CSV with exact rational parameters, so identical
configurations reproduce identical bytes (timing is opt-in).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from fractions import Fraction

from . import bounds as bounds_mod
from .constructors import (CayleySpec, CyclicProduct, cartesian_product, cayley_abelian,
                           cayley_involutions, complete_bipartite_pow2, hypercube,
                           remove_standard_matchings)
from .errors import DsgraphError, OracleBudgetExceeded
from .graph_core import _cycle_tuples, color_table
from .instance_io import (from_colored_graph, load_instance, save_instance,
                          to_colored_graph)
from .list_assignments import (EMPTY, generate_distance2, generate_sparse,
                               support_is_distance2_matching)
from .oracle import oracle_avoidable
from .solver import (Exhaustive, RandomSearch, SolverParams, default_params, find_violation,
                     solve_distance2, solve_sparse)

FAMILIES = ("hypercube", "complete_bipartite_pow2", "remove_standard_matchings",
            "cartesian_product", "cayley_involutions", "cayley_abelian")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_tuples(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_parse_ints(part) for part in text.split(";") if part)


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _mpf_str(x) -> str:
    from mpmath import mp
    return mp.nstr(x, 30)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def cmd_construct(args) -> int:
    name = args.family
    if name == "hypercube":
        _require(args.d is not None, "--d is required for hypercube")
        cg = hypercube(args.d)
    elif name == "complete_bipartite_pow2":
        _require(args.t is not None, "--t is required for complete_bipartite_pow2")
        cg = complete_bipartite_pow2(args.t)
    elif name == "remove_standard_matchings":
        _require(args.t is not None, "--t is required for remove_standard_matchings")
        _require(args.k is not None, "--k is required for remove_standard_matchings")
        colors = _parse_ints(args.colors) if args.colors else None
        cg = remove_standard_matchings(complete_bipartite_pow2(args.t), args.k, colors)
    elif name == "cartesian_product":
        _require(args.left is not None and args.right is not None,
                 "--left and --right instance files are required for cartesian_product")
        cg = cartesian_product(to_colored_graph(load_instance(args.left)),
                               to_colored_graph(load_instance(args.right)))
    elif name == "cayley_involutions":
        _require(args.orders is not None, "--orders is required for cayley_involutions")
        _require(args.gens is not None, "--gens is required for cayley_involutions")
        group = CyclicProduct(_parse_ints(args.orders))
        commuting = _parse_tuples(args.commuting) if args.commuting else ()
        cg = cayley_involutions(CayleySpec(group, generators=_parse_tuples(args.gens),
                                           commuting=commuting))
    elif name == "cayley_abelian":
        _require(args.orders is not None, "--orders is required for cayley_abelian")
        _require(args.gens is not None, "--gens is required for cayley_abelian")
        group = CyclicProduct(_parse_ints(args.orders))
        cg = cayley_abelian(CayleySpec(group, half_set=_parse_tuples(args.gens)))
    else:
        raise ValueError(f"unknown family {name!r}")
    save_instance(from_colored_graph(cg), args.out)
    print(f"{name}: n={cg.graph.n} d={cg.d} m={cg.graph.m} "
          f"s_claimed={cg.s_claimed} s_measured={cg.s_measured} -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    inst = load_instance(args.file)
    cg = to_colored_graph(inst)
    g, f = cg.graph, cg.coloring
    sizes = {c: 0 for c in range(1, cg.d + 1)}
    for c in f.colors:
        sizes[c] += 1
    table = color_table(g, f)  # f is proper: certified above
    counts = [len(_cycle_tuples(g, f.colors, f.d, e, table)) for e in range(g.m)]
    info = {
        "n": g.n,
        "d": cg.d,
        "m": g.m,
        "s": {"claimed": cg.s_claimed, "measured": cg.s_measured},
        "claim_verified": cg.claim_verified,
        "matching_sizes": sizes,
        "cycles_per_edge": {"min": min(counts, default=0), "max": max(counts, default=0)},
    }
    if args.json:
        print(json.dumps(info, sort_keys=True, indent=2))
    else:
        print(f"n: {g.n}")
        print(f"d: {cg.d}")
        print(f"edges: {g.m}")
        print(f"s claimed: {cg.s_claimed}")
        print(f"s measured: {cg.s_measured}")
        print(f"claim verified: {'yes' if cg.claim_verified else 'NO'}")
        print("matching sizes: " + " ".join(f"{c}={sizes[c]}" for c in sorted(sizes)))
        print(f"cycles per edge: min={info['cycles_per_edge']['min']} "
              f"max={info['cycles_per_edge']['max']}")
    return 0


def cmd_gen_lists(args) -> int:
    inst = load_instance(args.file)
    cg = to_colored_graph(inst)
    if args.distance2:
        max_list = args.max_list if args.max_list is not None else cg.s_measured - 1
        lists = generate_distance2(cg, args.seed, max_list)
    else:
        _require(args.beta is not None, "one of --beta or --distance2 is required")
        lists = generate_sparse(cg, args.beta, args.seed)
    inst.lists = lists
    out = args.out or args.file
    save_instance(inst, out)
    print(f"lists: {len(lists.support())} edges, {lists.total_entries()} entries "
          f"-> {out}")
    return 0


def _thresholds(args, d: int, s: int) -> tuple:
    """(gamma, tau, epsilon) from the flags, ``default_params(d, s)`` filling unset ones."""
    base = default_params(d, s)
    flags = (args.gamma, args.tau, args.epsilon)
    return tuple(b if x is None else x for x, b in zip(flags, (base.gamma, base.tau, base.epsilon)))


def _solver_params(cg, args) -> SolverParams:
    return SolverParams(cg.d, cg.s_measured, *_thresholds(args, cg.d, cg.s_measured))


def cmd_solve(args) -> int:
    inst = load_instance(args.file)
    cg = to_colored_graph(inst)
    lists = inst.lists if inst.lists is not None else EMPTY
    mode = args.mode
    if mode == "auto":
        small = all(len(cs) <= cg.s_measured - 1 for _, cs in lists.items())
        mode = "theorem2" if small and support_is_distance2_matching(cg, lists) \
            else "theorem1"
    if mode == "theorem2":
        result = solve_distance2(cg, lists)
        report = {"mode": "theorem2"}
    else:
        strategy = Exhaustive() if args.exhaustive \
            else RandomSearch(trials=args.trials, seed=args.seed)
        result = solve_sparse(cg, lists, _solver_params(cg, args), strategy)
        report = {"mode": "theorem1", "trials": result.trials_used}
    if result.ok:  # both solvers report ok only after verify_solution passed
        report["phase"] = "done"
        if result.plan is not None:
            report["cycles_swapped"] = len(result.plan.cycles)
            if result.plan.records:
                report["selection"] = [dataclasses.asdict(r) for r in result.plan.records]
        inst.solution = result.coloring
        if result.plan is not None:
            inst.plan = tuple((c.u, c.v, c.z, c.t) for c in result.plan.cycles)
        inst.report = report
        out = args.out or args.file
        save_instance(inst, out)
        print(f"solved ({report['mode']}): {len(result.plan.cycles) if result.plan else 0} "
              f"swaps, verified -> {out}")
        return 0
    fail = result.failure
    report.update((k, v) for k, v in dataclasses.asdict(fail).items() if v is not None)
    inst.report = report
    out = args.out or args.file
    save_instance(inst, out)
    print(f"solve failed in phase {fail.phase}: {fail.message}", file=sys.stderr)
    return 1


def cmd_verify(args) -> int:
    inst = load_instance(args.file)
    if inst.solution is None:
        raise ValueError("verify needs a 'solution' block in the instance file")
    g, f = inst.graph, inst.solution
    violation = find_violation(g, f, inst.lists if inst.lists is not None else EMPTY)
    if violation is None:
        print("verified: proper and avoids every list")
        return 0
    if isinstance(violation, int):
        u, v = g.edges[violation]
        print(f"conflict: edge {violation} ({u},{v}) has forbidden color {f[violation]}")
    else:
        first, e, c, w = violation
        print(f"improper: edges {first} and {e} share color {c} at vertex {w}")
    return 1


def cmd_oracle(args) -> int:
    _require(args.budget >= 0, "--budget must be >= 0")
    inst = load_instance(args.file)
    lists = inst.lists if inst.lists is not None else EMPTY
    try:
        result = oracle_avoidable(inst.graph, inst.d, lists, args.budget)
    except OracleBudgetExceeded as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 1
    counts = (f"{result.nodes_explored} nodes, {result.item_forced} item-forced, "
              f"{result.item_dead_ends} item dead ends")
    if result.avoidable:
        print(f"avoidable ({counts})")
        if args.out:
            inst.solution = result.witness
            save_instance(inst, args.out)
            print(f"witness -> {args.out}")
        return 0
    print(f"not avoidable ({counts})")
    return 1


def cmd_bounds(args) -> int:
    from mpmath import mp
    n, d, s = args.n, args.d, args.s
    threshold = bounds_mod.beta_threshold(n, d, s)
    info: dict = {"n": n, "d": d, "s": s,
                  "beta_threshold_log2": _mpf_str(threshold)}
    gamma, tau, epsilon = _thresholds(args, d, s) if s <= d \
        else (args.gamma, args.tau, args.epsilon)
    if gamma is not None and tau is not None and epsilon is not None:
        info["gamma"] = _frac_str(gamma)
        info["tau"] = _frac_str(tau)
        info["epsilon"] = _frac_str(epsilon)
        margin = bounds_mod.swap_choice_margin(d, s, gamma, tau, epsilon)
        info["swap_margin"] = {"margin": _frac_str(margin.components["margin"]),
                               "satisfied": margin.satisfied}
        beta = args.beta if args.beta is not None else mp.power(2, threshold)
        info["beta"] = _frac_str(args.beta) if args.beta is not None \
            else f"2^({_mpf_str(threshold)})"
        union = bounds_mod.permutation_union_bound(n, d, s, beta, gamma, tau)
        info["union_bound"] = {
            "term1_log2": _mpf_str(union.components["term1_log2"]),
            "term2_log2": _mpf_str(union.components["term2_log2"]),
            "sum": _mpf_str(union.components["sum"]),
            "satisfied": union.satisfied,
        }
    if s <= d:
        kappa = Fraction(s, d)
        c1, c2 = bounds_mod.fixed_ratio_constants(kappa)
        info["fixed_ratio"] = {"kappa": _frac_str(kappa), "c1": _frac_str(c1),
                               "c2": _frac_str(c2)}
    if args.c is not None and s >= 11:
        info["list_length"] = {
            "c": _frac_str(args.c),
            "constant": bounds_mod.list_length_feasible(n, d, s, args.c, "constant"),
            "power": bounds_mod.list_length_feasible(n, d, s, args.c, "power"),
        }
    if args.json:
        print(json.dumps(info, sort_keys=True, indent=2))
    else:
        def emit(prefix: str, value) -> None:
            if isinstance(value, dict):
                for key in value:
                    emit(f"{prefix}.{key}" if prefix else key, value[key])
            else:
                print(f"{prefix} = {value}")
        emit("", info)
    return 0


def _sweep_family(token: str):
    name, _, arg = token.partition(":")
    if name == "hypercube":
        return f"hypercube:{arg}", hypercube(int(arg))
    if name == "complete_bipartite_pow2":
        return f"complete_bipartite_pow2:{arg}", complete_bipartite_pow2(int(arg))
    raise ValueError(f"sweep family must be hypercube:D or "
                     f"complete_bipartite_pow2:T, got {token!r}")


def cmd_sweep(args) -> int:
    families = [_sweep_family(tok) for tok in args.families.split(",") if tok]
    _require(bool(families), "--families must name at least one family")
    grid = [Fraction(tok) for tok in args.beta_grid.split(",") if tok]
    _require(bool(grid), "--beta-grid must contain at least one value")
    _require(args.seeds >= 1, "--seeds must be >= 1")
    rows = []
    tally: dict[Fraction, list[int]] = {b: [0, 0] for b in grid}
    for label, cg in families:
        for beta in grid:
            params = dataclasses.replace(_solver_params(cg, args), beta=beta)
            for seed in range(args.seeds):
                lists = generate_sparse(cg, beta, seed)
                start = time.perf_counter()
                result = solve_sparse(cg, lists, params,
                                      RandomSearch(trials=args.trials, seed=seed))
                wall = time.perf_counter() - start
                phase1 = result.permutation is not None
                phase2 = result.plan is not None
                verified = result.ok
                tally[beta][0] += 1 if verified else 0
                tally[beta][1] += 1
                rows.append({
                    "family": label, "n": cg.graph.n, "d": cg.d, "s": cg.s_measured,
                    "beta": _frac_str(beta), "gamma": _frac_str(params.gamma),
                    "tau": _frac_str(params.tau), "epsilon": _frac_str(params.epsilon),
                    "seed": seed,
                    "phase1_success": str(phase1).lower(),
                    "phase2_success": str(phase2).lower(),
                    "verified": str(verified).lower(),
                    "trials_used": result.trials_used,
                    "wall_time_s": f"{wall:.6f}" if args.timing else "",
                })
    fieldnames = ["family", "n", "d", "s", "beta", "gamma", "tau", "epsilon", "seed",
                  "phase1_success", "phase2_success", "verified", "trials_used",
                  "wall_time_s"]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    for beta in grid:
        good, total = tally[beta]
        print(f"beta={_frac_str(beta)}: verified {good}/{total}")
    print(f"{len(rows)} rows -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsgraph",
        description="Construct edge-colored graphs, generate forbidden-color lists, "
                    "and solve or audit list-avoidance instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family instance and save it")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--d", type=int, help="hypercube dimension")
    p.add_argument("--t", type=int, help="bipartite size exponent (d = 2^t)")
    p.add_argument("--k", type=int, help="number of matchings to remove")
    p.add_argument("--colors", help="comma-separated colors to remove")
    p.add_argument("--left", help="instance file for the left product factor")
    p.add_argument("--right", help="instance file for the right product factor")
    p.add_argument("--orders", help="comma-separated cyclic factor orders, e.g. 2,2,2")
    p.add_argument("--gens", help="generators as semicolon-separated tuples, e.g. 1,0;0,1")
    p.add_argument("--commuting", help="pairwise-commuting subset, same syntax as --gens")
    p.add_argument("--out", required=True, help="output instance file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="recompute s, matchings, and the cycle census")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen-lists", help="attach generated forbidden lists")
    p.add_argument("file")
    p.add_argument("--beta", type=_fraction, help="sparsity ratio as p/q")
    p.add_argument("--distance2", action="store_true",
                   help="lists on a random distance-2 matching instead")
    p.add_argument("--max-list", type=int, dest="max_list",
                   help="largest list size for --distance2 (default s-1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default: in place)")
    p.set_defaults(func=cmd_gen_lists)

    p = sub.add_parser("solve", help="find an avoiding proper coloring")
    p.add_argument("file")
    p.add_argument("--mode", choices=("theorem1", "theorem2", "auto"), default="auto")
    p.add_argument("--gamma", type=_fraction)
    p.add_argument("--tau", type=_fraction)
    p.add_argument("--epsilon", type=_fraction)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true",
                   help="scan all d! color permutations instead of sampling")
    p.add_argument("--out", help="output file (default: in place)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check the stored solution against the lists")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exact avoidability decision by backtracking")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=10**8)
    p.add_argument("--out", help="save the witness coloring here when avoidable")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bounds", help="evaluate thresholds and inequalities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--beta", type=_fraction)
    p.add_argument("--gamma", type=_fraction)
    p.add_argument("--tau", type=_fraction)
    p.add_argument("--epsilon", type=_fraction)
    p.add_argument("--c", type=_fraction, help="list-length level parameter")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="seeded success-rate experiments to CSV")
    p.add_argument("--families", required=True,
                   help="comma-separated tokens like hypercube:4")
    p.add_argument("--beta-grid", required=True, dest="beta_grid",
                   help="comma-separated rationals, e.g. 0,1/16,1/8")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--gamma", type=_fraction)
    p.add_argument("--tau", type=_fraction)
    p.add_argument("--epsilon", type=_fraction)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--timing", action="store_true",
                   help="record wall time per row (breaks byte reproducibility)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DsgraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
