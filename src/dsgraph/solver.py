"""Two-phase avoidance solver plus the distance-2 special case.

Phase one searches for a permutation of the color names under which the
recolored standard coloring has few, well-spread conflicts with the forbidden
lists: per anchored 6-neighborhood and standard matching at most gamma*s
conflicts (a), per vertex at most gamma*s conflict edges (b), and per edge at
most tau*s of its two-colored 4-cycles disallowed (c). Phase two walks the
conflict edges in canonical order and picks, for each, an allowed 4-cycle
whose swap removes the conflict, filtering out cycles that touch overloaded
vertices or matchings (at least epsilon*s used edges) or edges that are
conflicts or already used. The chosen cycles are pairwise edge-disjoint, so
swapping them all yields a proper coloring with no conflicts.

A cycle is "allowed" when ``swap_blockers`` shows that swapping it leaves all
four edges outside their lists. Swaps preserve properness and each vertex's color set.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .constructors import ColoredGraph
from .errors import (ColorOutOfRange, PermutationBudgetExceeded, PermutationNotFound,
                     PermutationSearchFailed, PreconditionViolated, ResourceLimit,
                     SwapPlanStuck)
# is_proper, swap_cycle and t_neighborhood are unused here but wrapped by
# perfbench/tracing.py.
from .graph_core import (EdgeColoring, FourCycle, Graph, apply_swaps, color_table,
                         is_proper, properness_witness, standard_matchings, swap_cycle,
                         t_neighborhood, two_colored_cycles_through)
from .list_assignments import (ListAssignment, as_fraction, conflict_edges,
                               support_is_distance2_matching)

EXHAUSTIVE_D_CAP = 8
_NO_COLORS = frozenset()


@dataclass(frozen=True)
class Permutation:
    """Bijection on colors {1..d}; images[i] is the image of color i+1."""

    images: tuple[int, ...]

    def __post_init__(self):
        d = len(self.images)
        if sorted(self.images) != list(range(1, d + 1)):
            raise ValueError("images must be a permutation of 1..d")

    @property
    def d(self) -> int:
        return len(self.images)

    def __call__(self, color: int) -> int:
        return self.images[color - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.d
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(tuple(inv))

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(tuple(range(1, d + 1)))


@dataclass(frozen=True)
class SolverParams:
    """Numeric knobs; beta for the lists, gamma/tau for phase one, epsilon for phase two.

    gamma, tau, epsilon live in [0, 1); zero is admitted for degenerate
    probes even though the guarantees need positive values.
    """

    d: int
    s: int
    gamma: Fraction
    tau: Fraction
    epsilon: Fraction
    beta: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_fraction(self.gamma))
        object.__setattr__(self, "tau", as_fraction(self.tau))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        if self.d < 1 or self.s < 1:
            raise ValueError("d and s must be positive")
        for name in ("gamma", "tau", "epsilon"):
            v = getattr(self, name)
            if not 0 <= v < 1:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")

    @property
    def gamma_s(self) -> Fraction:
        return self.gamma * self.s

    @property
    def tau_s(self) -> Fraction:
        return self.tau * self.s

    @property
    def epsilon_s(self) -> Fraction:
        return self.epsilon * self.s


def apply_permutation(h: EdgeColoring, rho: Permutation) -> EdgeColoring:
    """Recolor every edge through rho; color classes move as whole matchings."""
    if rho.d != h.d:
        raise ValueError("permutation size does not match color count")
    return EdgeColoring(tuple(rho(c) if c else 0 for c in h.colors), h.d)


@dataclass(frozen=True)
class PermutationCheck:
    """Violation witnesses of the three phase-one conditions; a condition holds
    when it has none.

    Witness shapes: (anchor_edge, matching_color, count) for (a);
    (vertex, count) for (b); (edge, disallowed_count) for (c).
    """

    witnesses_a: tuple = ()
    witnesses_b: tuple = ()
    witnesses_c: tuple = ()

    @property
    def ok_a(self) -> bool:
        return not self.witnesses_a

    @property
    def ok_b(self) -> bool:
        return not self.witnesses_b

    @property
    def ok_c(self) -> bool:
        return not self.witnesses_c

    @property
    def ok(self) -> bool:
        return self.ok_a and self.ok_b and self.ok_c


class _Checker:
    """Precomputed structures for evaluating many permutations on one instance.

    Cycle structure does not depend on the permutation (recoloring permutes
    cycle colors but not the cycles themselves), so the cycles through listed
    edges are enumerated once under h, each handled from its least listed edge
    and giving one row to each of its four edges; per trial only those rows
    need a look. Condition (a) counts each matching's conflict edges per
    anchor with ``Graph.crowded_anchors``. Integer counts are compared against
    floor(gamma*s) and floor(tau*s), which decides exactly as the Fractions
    would.
    """

    def __init__(self, cg: ColoredGraph, L: ListAssignment, params: SolverParams):
        self.gs = math.floor(params.gamma_s)
        self.ts = math.floor(params.tau_s)
        g, h = cg.graph, cg.coloring
        self.graph, self.edges = g, g.edges
        self.lists = dict(L.items())
        self.supp = sorted(self.lists)
        self.h_colors = h.colors
        table = color_table(g, h)
        # edge -> [(own color - 1, other color - 1, blocks own, blocks other)];
        # a cycle with no listed edge can never be blocked and has no rows
        rows: defaultdict[int, list] = defaultdict(list)
        done: set[int] = set()  # listed edges whose cycles already gave their rows
        for e in self.supp:
            for cyc in two_colored_cycles_through(g, h, e, table):
                if not done.isdisjoint(cyc.edge_ids):
                    continue
                ba, bb = swap_blockers(L, cyc)
                ia, ib = cyc.color_a - 1, cyc.color_b - 1
                row_a, row_b = (ia, ib, ba, bb), (ib, ia, bb, ba)
                rows[cyc.e_uv].append(row_a)
                rows[cyc.e_zt].append(row_a)
                rows[cyc.e_vz].append(row_b)
                rows[cyc.e_tu].append(row_b)
            done.add(e)
        self.sensitive = sorted(rows.items())

    def accepts(self, rho: Permutation) -> bool:
        return next(self.witnesses(rho), None) is None

    def check(self, rho: Permutation) -> PermutationCheck:
        found: dict[str, list] = {"a": [], "b": [], "c": []}
        for kind, witness in self.witnesses(rho):
            found[kind].append(witness)
        return PermutationCheck(tuple(found["a"]), tuple(found["b"]), tuple(found["c"]))

    def witnesses(self, rho: Permutation):
        """Yield ("b" | "a" | "c", witness) lazily: (b) by vertex, then (a) by
        matching and anchor, then (c) by edge, each in ascending order."""
        gs = self.gs
        conf = [e for e in self.supp if rho(self.h_colors[e]) in self.lists[e]]
        per_vertex: Counter = Counter()
        for e in conf:
            u, v = self.edges[e]
            per_vertex[u] += 1
            per_vertex[v] += 1
        for u, cnt in sorted(per_vertex.items()):
            if cnt > gs:
                yield "b", (u, cnt)
        by_matching: dict[int, list[int]] = {}
        for e in conf:
            by_matching.setdefault(self.h_colors[e], []).append(e)
        for m, group in sorted(by_matching.items()):
            for a, cnt in self.graph.crowded_anchors(group, gs, 6):
                yield "a", (a, m, cnt)
        images = rho.images
        for e, rows in self.sensitive:
            bad = 0
            for ia, ib, blocks_a, blocks_b in rows:
                if images[ia] in blocks_a or images[ib] in blocks_b:
                    bad += 1
            if bad > self.ts:
                yield "c", (e, bad)


def check_permutation(cg: ColoredGraph, L: ListAssignment, rho: Permutation,
                      params: SolverParams) -> PermutationCheck:
    """Evaluate conditions (a), (b), (c) for one permutation, collecting all witnesses."""
    return _Checker(cg, L, params).check(rho)


@dataclass(frozen=True)
class RandomSearch:
    """Seeded random permutation trials; trial 1 is always the identity."""

    trials: int
    seed: int = 0
    exhausted = PermutationBudgetExceeded

    def candidates(self, d: int):
        """The identity, then one list shuffled in place again for each later trial."""
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        rng = random.Random(self.seed)
        base = list(range(1, d + 1))
        yield tuple(base)
        for _ in range(self.trials - 1):
            rng.shuffle(base)
            yield tuple(base)


@dataclass(frozen=True)
class Exhaustive:
    """Lexicographic scan of all d! permutations; capped to small d."""

    cap: int = EXHAUSTIVE_D_CAP
    exhausted = PermutationNotFound

    def candidates(self, d: int):
        if d > self.cap:
            raise ResourceLimit(f"exhaustive search needs d <= {self.cap}, got {d}")
        yield from itertools.permutations(range(1, d + 1))


def _search_permutation(accept, d: int, strategy) -> tuple[Permutation, int]:
    """First permutation that ``accept`` takes, with its 1-based trial count.

    Raises the strategy's own ``exhausted`` error when no candidate is taken.
    """
    count = 0
    for images in strategy.candidates(d):
        count += 1
        rho = Permutation(images)
        if accept(rho):
            return rho, count
    raise strategy.exhausted(count)


def find_permutation(cg: ColoredGraph, L: ListAssignment, params: SolverParams,
                     strategy) -> Permutation:
    """First permutation passing check_permutation, by trial index or lexicographic order.

    Raises PermutationNotFound when an exhaustive scan proves none exists and
    PermutationBudgetExceeded when random trials run out (which proves nothing).
    """
    rho, _ = _search_permutation(_Checker(cg, L, params).accepts, cg.d, strategy)
    return rho


def swap_blockers(L: ListAssignment, cyc: FourCycle) -> tuple[frozenset, frozenset]:
    """(blocks_a, blocks_b): the swap moves the a-color onto vz and tu, whose lists
    block it, and the b-color onto uv and zt, whose lists block it."""
    a1, a2 = L.lists.get(cyc.e_vz, _NO_COLORS), L.lists.get(cyc.e_tu, _NO_COLORS)
    b1, b2 = L.lists.get(cyc.e_uv, _NO_COLORS), L.lists.get(cyc.e_zt, _NO_COLORS)
    # pass a list through when its partner is empty: no new set for most cycles
    return (a1 | a2 if a1 and a2 else a1 or a2, b1 | b2 if b1 and b2 else b1 or b2)


def allowed_cycles(cg: ColoredGraph, f: EdgeColoring, L: ListAssignment, e: int,
                   table=None) -> tuple[FourCycle, ...]:
    """Cycles through e whose swap leaves all four edges conflict-free."""
    return _allowed_among(f, L, two_colored_cycles_through(cg.graph, f, e, table))


def _allowed_among(f: EdgeColoring, L: ListAssignment, cycles) -> tuple[FourCycle, ...]:
    """The cycles, already enumerated under f, that ``allowed_cycles`` would keep."""
    out = []
    for cyc in cycles:
        blocks_a, blocks_b = swap_blockers(L, cyc)
        if f[cyc.e_uv] not in blocks_a and f[cyc.e_vz] not in blocks_b:
            out.append(cyc)
    return tuple(out)


@dataclass(frozen=True)
class SelectionRecord:
    """Per-conflict-edge accounting of the candidate filters."""

    edge: int
    total_cycles: int
    allowed: int
    eliminated_overloaded: int
    eliminated_conflict_or_used: int
    survivors: int


@dataclass(frozen=True)
class SwapPlan:
    """Edge-disjoint cycles chosen for the conflict edges, in processing order."""

    cycles: tuple[FourCycle, ...]
    used: frozenset[int]
    records: tuple[SelectionRecord, ...]


def construct_swap_plan(cg: ColoredGraph, hprime: EdgeColoring, L: ListAssignment,
                        params: SolverParams) -> tuple[EdgeColoring, SwapPlan]:
    """Pick one allowed cycle per conflict edge and swap them all.

    Conflict edges are visited in ascending edge order. A candidate survives
    when (1) neither corner vertex nor the standard matching holding its two
    side edges is overloaded (at least epsilon*s used edges; the matching
    count is taken inside the conflict edge's 4-neighborhood against the
    current used set) and (2) its three non-conflict edges are neither
    conflict edges nor already used. Ties break to the least (z, t).
    """
    if params.epsilon <= 0:
        raise ValueError("epsilon must be positive for overload filtering")
    g, h = cg.graph, cg.coloring
    es = math.ceil(params.epsilon_s)  # a count reaches epsilon*s exactly when it reaches es
    conflicts = sorted(conflict_edges(g, hprime, L))
    # edge sets are bitmasks over edge indices; incident[w] holds the edges at w
    conflict_mask = sum(1 << f for f in conflicts)
    incident = g.edge_balls(0)
    class_mask = [sum(1 << f for f in m) for m in standard_matchings(g, h)]
    table = color_table(g, hprime)
    used = 0
    cycles: list[FourCycle] = []
    records: list[SelectionRecord] = []
    for e in conflicts:
        used_w4 = used & g.nbhd_mask(e, 4)
        blocked = conflict_mask | used
        all_cycles = two_colored_cycles_through(g, hprime, e, table)
        allowed = _allowed_among(hprime, L, all_cycles)
        elim_over = 0
        elim_conf_used = 0
        survivors: list[FourCycle] = []
        for cyc in allowed:
            if ((used & incident[cyc.z]).bit_count() >= es
                    or (used & incident[cyc.t]).bit_count() >= es
                    or (used_w4 & class_mask[h[cyc.e_vz] - 1]).bit_count() >= es
                    or (used_w4 & class_mask[h[cyc.e_tu] - 1]).bit_count() >= es):
                elim_over += 1
                continue
            if blocked & (1 << cyc.e_vz | 1 << cyc.e_zt | 1 << cyc.e_tu):
                elim_conf_used += 1
                continue
            survivors.append(cyc)
        if not survivors:
            raise SwapPlanStuck(e, {
                "total": len(all_cycles),
                "allowed": len(allowed),
                "not_allowed": len(all_cycles) - len(allowed),
                "overloaded": elim_over,
                "conflict_or_used": elim_conf_used,
            })
        chosen = min(survivors, key=lambda c: (c.z, c.t))
        cycles.append(chosen)
        records.append(SelectionRecord(e, len(all_cycles), len(allowed),
                                       elim_over, elim_conf_used, len(survivors)))
        used |= chosen.edge_mask
    result = apply_swaps(hprime, cycles)
    remaining = conflict_edges(g, result, L)
    if remaining:
        raise SwapPlanStuck(min(remaining), {"post_swap_conflicts": len(remaining)})
    return result, SwapPlan(tuple(cycles), frozenset(f for c in cycles for f in c.edge_ids),
                            tuple(records))


@dataclass(frozen=True)
class FailureReport:
    """Which phase gave up and why; trials/stuck fields filled where they apply."""

    phase: str
    message: str
    stuck_edge: int | None = None
    eliminated: dict | None = None
    trials: int | None = None


@dataclass(frozen=True)
class SolveResult:
    coloring: EdgeColoring | None
    permutation: Permutation | None
    plan: SwapPlan | None
    trials_used: int
    failure: FailureReport | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.coloring is not None


def find_violation(g: Graph, f: EdgeColoring,
                   L: ListAssignment) -> tuple[int, int, int, int] | int | None:
    """The ``properness_witness`` of f, else its least conflict edge, else None.

    Does not check that f is total or has g.m colors.
    """
    return properness_witness(g, f) or min(conflict_edges(g, f, L), default=None)


def verify_solution(cg: ColoredGraph, f: EdgeColoring, L: ListAssignment) -> bool:
    """True when f is a total proper d-edge-coloring avoiding every list."""
    g = cg.graph
    if len(f) != g.m or f.d != cg.d or not f.is_total:
        return False
    return find_violation(g, f, L) is None


def _verified(cg: ColoredGraph, L: ListAssignment, final: EdgeColoring,
              rho: Permutation, plan: SwapPlan, trials: int) -> SolveResult:
    """The solved result, or the verify failure when final does not check out."""
    if not verify_solution(cg, final, L):
        return SolveResult(None, rho, plan, trials, FailureReport(
            "verify", "swapped coloring failed verification"))
    return SolveResult(final, rho, plan, trials)


def solve_sparse(cg: ColoredGraph, L: ListAssignment, params: SolverParams | None = None,
                 strategy=None) -> SolveResult:
    """Run both phases; on failure return a report instead of raising.

    Defaults: params from bounds.default_params on (d, measured s), and a
    200-trial seeded random permutation search.
    """
    if params is None:
        from .bounds import default_params
        params = default_params(cg.d, cg.s_measured)
    if strategy is None:
        strategy = RandomSearch(trials=200, seed=0)
    try:
        rho, trials = _search_permutation(_Checker(cg, L, params).accepts, cg.d, strategy)
    except PermutationSearchFailed as exc:
        return SolveResult(None, None, None, exc.trials, FailureReport(
            "permutation", str(exc), trials=exc.trials))
    hprime = apply_permutation(cg.coloring, rho)
    try:
        final, plan = construct_swap_plan(cg, hprime, L, params)
    except SwapPlanStuck as exc:
        return SolveResult(None, rho, None, trials, FailureReport(
            "swap", str(exc), stuck_edge=exc.edge, eliminated=exc.eliminated))
    return _verified(cg, L, final, rho, plan, trials)


def _disjoint_cycle_system(cg: ColoredGraph, f: EdgeColoring,
                           L: ListAssignment) -> list[FourCycle] | None:
    """One allowed cycle per conflict edge of f, pairwise edge-disjoint, or None.

    Backtracks over each conflict's allowed cycles in (z, t) order, conflicts
    in ascending edge order.
    """
    g = cg.graph
    table = color_table(g, f)
    options = [sorted(allowed_cycles(cg, f, L, e, table), key=lambda c: (c.z, c.t))
               for e in sorted(conflict_edges(g, f, L))]
    chosen: list[FourCycle] = []

    def extend(i: int, used: int) -> bool:
        if i == len(options):
            return True
        for cyc in options[i]:
            mask = cyc.edge_mask
            if used & mask:
                continue
            chosen.append(cyc)
            if extend(i + 1, used | mask):
                return True
            chosen.pop()
        return False

    return chosen if extend(0, 0) else None


def solve_distance2(cg: ColoredGraph, L: ListAssignment) -> SolveResult:
    """Avoidance when listed edges form a distance-2 matching and lists stay under s.

    Each conflict edge needs one allowed cycle, cycles of conflicts at
    distance exactly 2 may contend for a shared partner edge, and
    backtracking over edge-disjoint choices resolves that. List sizes are
    capped at s-1, which guarantees at least one allowed cycle exists per
    conflict in isolation. When two conflicts' only allowed cycles share an
    edge, no choice works on the standard coloring itself, so the search runs
    inside phase one's permutation loop (200 seeded trials, trial 1 the
    identity): recoloring whole color classes keeps properness and the
    4-cycles but changes which edges conflict and which cycles are allowed.
    """
    h, s = cg.coloring, cg.s_measured
    if not support_is_distance2_matching(cg, L):
        raise PreconditionViolated("listed edges must form a distance-2 matching")
    for e, colors in L.items():
        if len(colors) > s - 1:
            raise PreconditionViolated(
                f"list on edge {e} has {len(colors)} colors; at most {s - 1} allowed")
        for c in colors:
            if not 1 <= c <= cg.d:
                raise ColorOutOfRange(f"color {c} on edge {e} outside 1..{cg.d}")
    found: list = []

    def accept(rho: Permutation) -> bool:
        hprime = apply_permutation(h, rho)
        chosen = _disjoint_cycle_system(cg, hprime, L)
        if chosen is not None:
            found.append((hprime, chosen))
        return chosen is not None

    try:
        rho, trials = _search_permutation(accept, cg.d, RandomSearch(trials=200, seed=0))
    except PermutationBudgetExceeded as exc:
        return SolveResult(None, None, None, exc.trials, FailureReport(
            "swap-search", "no edge-disjoint system of allowed cycles found",
            trials=exc.trials))
    hprime, chosen = found[0]
    plan = SwapPlan(tuple(chosen), frozenset(e for c in chosen for e in c.edge_ids), ())
    return _verified(cg, L, apply_swaps(hprime, chosen), rho, plan, trials)
