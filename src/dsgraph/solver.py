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

A cycle is "allowed" when ``_swap_allowed`` holds: swapping it leaves all four
edges outside their lists. That one rule decides phase one's (c) and the
candidates of both phase-two searches, all read off one census per instance
(``_Checker``) under each trial's permutation, so no trial builds a coloring
or a color table. Swaps preserve properness and each vertex's color set.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .constructors import ColoredGraph
from .errors import (PermutationBudgetExceeded, PermutationNotFound,
                     PermutationSearchFailed, PreconditionViolated, ResourceLimit,
                     SwapPlanStuck)
# is_proper, swap_cycle and t_neighborhood are unused here, and the solvers
# read neither allowed_cycles nor the two_colored_cycles_through it calls, but
# perfbench/tracing.py wraps them.
from .graph_core import (EdgeColoring, FourCycle, Graph, _cycle_tuples, apply_swaps,
                         color_table, is_proper, properness_witness, swap_cycle,
                         t_neighborhood, two_colored_cycles_through)
from .list_assignments import (ListAssignment, _check_colors, _crowded, _shuffle,
                               conflict_edges, support_is_distance2_matching)

EXHAUSTIVE_D_CAP = 8
# random permutation trials of both solvers, and the CLI's default --trials
DEFAULT_TRIALS = 200


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
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "tau", Fraction(self.tau))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "beta", Fraction(self.beta))
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


def default_params(d: int, s: int) -> SolverParams:
    """The parameter point at which the two-phase guarantees are proved.

    gamma = s/(512*d), tau = 1/128, epsilon = 1/8; beta is left at zero for
    the caller to fill in. Requires 1 <= s <= d.
    """
    if not 1 <= s <= d:
        raise ValueError("need 1 <= s <= d")
    return SolverParams(d=d, s=s, gamma=Fraction(s, 512 * d),
                        tau=Fraction(1, 128), epsilon=Fraction(1, 8))


def apply_permutation(h: EdgeColoring, rho: Permutation) -> EdgeColoring:
    """Recolor every edge through rho; color classes move as whole matchings."""
    if rho.d != h.d:
        raise ValueError("permutation size does not match color count")
    images = (0, *rho.images)  # the uncolored slot 0 stays 0
    return EdgeColoring(tuple(map(images.__getitem__, h.colors)), h.d)


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
    """One instance's census, read under any color permutation rho, and phase
    one's conditions on it.

    ``hits[m - 1][x]`` lists the listed edges of matching m whose list holds
    x, so the conflicts under rho are the union of ``hits[m - 1][rho(m)]``,
    which (b) and (a) read through ``list_assignments._crowded``. rho only
    relabels colors, so the cycles of rho∘h are those of h: ``_cycle_tuples``
    looks each up once, on the standard table the ColoredGraph keeps, when
    first read, in ``seconds`` per (edge, second color under h) for (c) and
    in ``cycles`` per conflict edge for phase two. A swap gives each edge of
    its cycle the cycle's other color, so only a forbidden color x of a
    listed edge e can refuse a cycle through e, the one whose second color
    is rho^-1(x); (c) counts those that ``_swap_allowed`` refuses, each once,
    against each of their edges, in O(sum of the list sizes) per trial.
    Counts are compared with floor(gamma*s) and floor(tau*s), which decides
    as the Fractions would. Phase two passes no params; given a coloring f,
    the census reads f, on a table of its own, in place of h.
    """

    def __init__(self, cg: ColoredGraph, L: ListAssignment,
                 params: SolverParams | None = None, f: EdgeColoring | None = None):
        _check_colors(L, cg.graph, cg.d)
        if params is not None:
            self.gs, self.ts = math.floor(params.gamma_s), math.floor(params.tau_s)
        self.cg, self.L, self.get = cg, L, L.lists.get
        self.f = cg.coloring if f is None else f
        self.proper = f is None  # h is certified proper
        self.table = cg.standard_table if f is None else functools.cache(
            functools.partial(color_table, cg.graph, f))
        self.seconds: dict[tuple[int, int], list] = {}
        self.cycles: dict[int, list[tuple]] = {}
        self.hits: list[dict[int, list[int]]] = [{} for _ in range(cg.d)]
        for e, xs in sorted(L.lists.items()):
            for x in xs:
                self.hits[self.f.colors[e] - 1].setdefault(x, []).append(e)

    def conflicts(self, images) -> list[int]:
        """The conflict edges under rho, ascending; ``images[c]`` = rho(c)."""
        return sorted(itertools.chain.from_iterable(
            [hit[x] for x, hit in zip(images[1:], self.hits) if x in hit]))

    def candidates(self, images, conflicts):
        """(e, its cycles, those ``_swap_allowed`` keeps under images) for each
        conflict edge e, as (z, t, b, e_vz, e_tu, partner) in (z, t) order;
        lazy, so a search that stops at one edge reads no later edge's
        cycles."""
        get, f = self.get, self.f
        for e in conflicts:
            if e not in self.cycles:
                self.cycles[e] = sorted(_cycle_tuples(self.cg.graph, f.colors, range(1, f.d + 1),
                                                      e, self.table(), self.proper))
            cycles, ra = self.cycles[e], images[f.colors[e]]
            yield e, cycles, [c for c in cycles
                              if _swap_allowed(get, ra, images[c[2]], e, c[3], c[4], c[5])]

    def four_cycle(self, e: int, cyc: tuple, images) -> FourCycle:
        """The ``FourCycle`` of e's cycle cyc, a ``candidates`` entry, under images."""
        g, colors = self.cg.graph, self.f.colors
        return FourCycle(g.tails[e], g.heads[e], cyc[0], cyc[1], e, cyc[3], cyc[5], cyc[4],
                         images[colors[e]], images[cyc[2]])

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
        images, ts = rho.images, self.ts
        # each matching's conflict edges, all under color 0
        conf = {(m, 0): hit[x] for m, (x, hit) in enumerate(zip(images, self.hits), 1)
                if x in hit}
        for kind, witness, cnt in _crowded(self.cg, conf, self.gs):
            yield "b" if kind == "ii" else "a", (*witness[:-1], cnt)  # drop color 0
        get, seconds, inverse = self.get, self.seconds, rho.inverse().images
        g, colors = self.cg.graph, self.f.colors
        blocked = set()  # each refused cycle as its four edges, sorted
        for image, hit in zip(images, self.hits):
            for x, group in hit.items():
                b = inverse[x - 1]  # b = h(e) when x = rho(h(e)): no cycle
                for e in group:
                    if (e, b) not in seconds:
                        seconds[e, b] = _cycle_tuples(g, colors, (b,), e, self.table(), True)
                    for _, _, _, ez, et, partner in seconds[e, b]:
                        if not _swap_allowed(get, image, x, e, ez, et, partner):
                            blocked.add(tuple(sorted((e, ez, et, partner))))
        if len(blocked) > ts:  # otherwise no edge lies in more than ts refused cycles
            bad = Counter(itertools.chain.from_iterable(blocked))
            for e in sorted(e for e, cnt in bad.items() if cnt > ts):
                yield "c", (e, bad[e])


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
        base = list(range(1, d + 1))
        yield tuple(base)
        rng = random.Random(self.seed)  # most searches stop at the identity
        for _ in range(self.trials - 1):
            _shuffle(rng, base)
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


def _search_permutation(accept, d: int, strategy):
    """(rho, what ``accept(rho)`` returned, 1-based trial count) for the first
    permutation rho that ``accept`` returns a truthy value for.

    Raises the strategy's own ``exhausted`` error when no candidate is taken.
    """
    count = 0
    for images in strategy.candidates(d):
        count += 1
        rho = Permutation(images)
        if taken := accept(rho):
            return rho, taken, count
    raise strategy.exhausted(count)


def find_permutation(cg: ColoredGraph, L: ListAssignment, params: SolverParams,
                     strategy) -> Permutation:
    """First permutation passing check_permutation, by trial index or lexicographic order.

    Raises PermutationNotFound when an exhaustive scan proves none exists and
    PermutationBudgetExceeded when random trials run out (which proves nothing).
    """
    return _search_permutation(_Checker(cg, L, params).accepts, cg.d, strategy)[0]


def _swap_allowed(get, ra: int, rb: int, e: int, ez: int, et: int, partner: int) -> bool:
    """The swap rule: swapping a cycle with ra on e and zt and rb on ez and et
    is allowed when no list (``get``) holds its edge's new color."""
    return not (rb in get(e, ()) or ra in get(ez, ()) or ra in get(et, ())
                or rb in get(partner, ()))


def allowed_cycles(cg: ColoredGraph, f: EdgeColoring, L: ListAssignment, e: int,
                   table=None) -> tuple[FourCycle, ...]:
    """Cycles through e whose swap leaves all four edges conflict-free."""
    get = L.lists.get
    return tuple(c for c in two_colored_cycles_through(cg.graph, f, e, table)
                 if _swap_allowed(get, c.color_a, c.color_b, c.e_uv, c.e_vz, c.e_tu, c.e_zt))


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
    records: tuple[SelectionRecord, ...] = ()

    @property
    def used(self) -> frozenset[int]:
        """The edges the cycles cover."""
        return frozenset(e for c in self.cycles for e in c.edge_ids)


def construct_swap_plan(cg: ColoredGraph, hprime: EdgeColoring, L: ListAssignment,
                        params: SolverParams) -> tuple[EdgeColoring, SwapPlan]:
    """Pick one allowed cycle per conflict edge of the proper coloring hprime
    and swap them all.

    Conflict edges are visited in ascending edge order. A candidate survives
    when (1) neither corner vertex nor the standard matching holding its two
    side edges is overloaded (at least epsilon*s used edges; the matching
    count is taken inside the conflict edge's 4-neighborhood against the
    current used set) and (2) its three non-conflict edges are neither
    conflict edges nor already used. Ties break to the least (z, t).
    """
    return _swap_plan(_Checker(cg, L, f=hprime), range(hprime.d + 1), hprime, params)


def _swap_plan(census: _Checker, images, hprime: EdgeColoring,
               params: SolverParams) -> tuple[EdgeColoring, SwapPlan]:
    """``construct_swap_plan`` of hprime, the census's coloring under
    ``images`` (``images[c]`` = rho(c)), read off the census."""
    if params.epsilon <= 0:
        raise ValueError("epsilon must be positive for overload filtering")
    g, h = census.cg.graph, census.cg.coloring.colors
    es = math.ceil(params.epsilon_s)  # a count reaches epsilon*s exactly when it reaches es
    conflicts = census.conflicts(images)
    # edge sets are bitmasks over edge indices; the chosen cycles are
    # edge-disjoint, so each adds two used edges at each of its corners
    conflict_mask = sum(1 << f for f in conflicts)
    class_mask = census.cg.class_masks()
    load = [0] * g.n
    used = 0
    cycles: list[FourCycle] = []
    records: list[SelectionRecord] = []
    for e, all_cycles, allowed in census.candidates(images, conflicts):
        used_w4 = used & g.nbhd_mask(e, 4)
        blocked = conflict_mask | used
        elim_over = 0
        elim_conf_used = 0
        survivors = []
        for cyc in allowed:
            side, other = h[cyc[3]], h[cyc[4]]  # one standard matching, unless f is given
            if (load[cyc[0]] >= es or load[cyc[1]] >= es
                    or (used_w4 & class_mask[side - 1]).bit_count() >= es
                    or other != side and (used_w4 & class_mask[other - 1]).bit_count() >= es):
                elim_over += 1
            elif blocked & (1 << cyc[3] | 1 << cyc[4] | 1 << cyc[5]):
                elim_conf_used += 1
            else:
                survivors.append(cyc)
        if not survivors:
            raise SwapPlanStuck(e, {
                "total": len(all_cycles),
                "allowed": len(allowed),
                "not_allowed": len(all_cycles) - len(allowed),
                "overloaded": elim_over,
                "conflict_or_used": elim_conf_used,
            })
        chosen = census.four_cycle(e, survivors[0], images)
        cycles.append(chosen)
        records.append(SelectionRecord(e, len(all_cycles), len(allowed),
                                       elim_over, elim_conf_used, len(survivors)))
        used |= chosen.edge_mask
        for w in chosen.vertices:
            load[w] += 2
    result = apply_swaps(hprime, cycles)
    remaining = conflict_edges(g, result, census.L)
    if remaining:
        raise SwapPlanStuck(min(remaining), {"post_swap_conflicts": len(remaining)})
    return result, SwapPlan(tuple(cycles), tuple(records))


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

    Defaults: params from ``default_params`` on (d, measured s), and a seeded
    random search of ``DEFAULT_TRIALS`` permutations. Raises ColorOutOfRange
    for a list on an edge that does not exist or with a color outside 1..d.
    """
    if params is None:
        params = default_params(cg.d, cg.s_measured)
    if strategy is None:
        strategy = RandomSearch(trials=DEFAULT_TRIALS, seed=0)
    checker = _Checker(cg, L, params)
    try:
        rho, _, trials = _search_permutation(checker.accepts, cg.d, strategy)
    except PermutationSearchFailed as exc:
        return SolveResult(None, None, None, exc.trials, FailureReport(
            "permutation", str(exc), trials=exc.trials))
    hprime = apply_permutation(cg.coloring, rho)
    try:
        final, plan = _swap_plan(checker, (0, *rho.images), hprime, params)
    except SwapPlanStuck as exc:
        return SolveResult(None, rho, None, trials, FailureReport(
            "swap", str(exc), stuck_edge=exc.edge, eliminated=exc.eliminated))
    return _verified(cg, L, final, rho, plan, trials)


def _disjoint_cycle_system(census: _Checker, images,
                           conflicts: list[int]) -> list[FourCycle] | None:
    """One allowed cycle per conflict edge, pairwise edge-disjoint, or None.

    Backtracks over each conflict's allowed cycles in (z, t) order, conflicts
    in ascending edge order, on an explicit stack (no recursion limit).
    """
    options = [(e, allowed) for e, _, allowed in census.candidates(images, conflicts)]
    picks: list[int] = []  # picks[i]: the index in options[i] of conflict i's cycle
    used = [0]  # used[i]: the edges the cycles of the first i picks cover
    start = 0  # the first option to try for the next conflict
    while len(picks) < len(options):
        e, row = options[len(picks)]
        for j in range(start, len(row)):
            mask = 1 << e | 1 << row[j][3] | 1 << row[j][4] | 1 << row[j][5]
            if not used[-1] & mask:
                picks.append(j)
                used.append(used[-1] | mask)
                start = 0
                break
        else:
            if not picks:
                return None
            start = picks.pop() + 1
            used.pop()
    return [census.four_cycle(e, row[j], images) for (e, row), j in zip(options, picks)]


def solve_distance2(cg: ColoredGraph, L: ListAssignment) -> SolveResult:
    """Avoidance when listed edges form a distance-2 matching and lists stay under s.

    Each conflict edge needs one allowed cycle, cycles of conflicts at
    distance exactly 2 may contend for a shared partner edge, and
    backtracking over edge-disjoint choices resolves that. List sizes are
    capped at s-1, which guarantees at least one allowed cycle exists per
    conflict in isolation. When two conflicts' only allowed cycles share an
    edge, no choice works on the standard coloring itself, so the search runs
    inside phase one's permutation loop (``DEFAULT_TRIALS`` seeded trials,
    trial 1 the identity): recoloring whole color classes keeps properness and
    the 4-cycles but changes which edges conflict and which cycles are allowed.
    """
    census = _Checker(cg, L)
    if not support_is_distance2_matching(cg, L):
        raise PreconditionViolated("listed edges must form a distance-2 matching")
    s = cg.s_measured
    for e, colors in L.items():
        if len(colors) > s - 1:
            raise PreconditionViolated(
                f"list on edge {e} has {len(colors)} colors; at most {s - 1} allowed")

    def accept(rho: Permutation):
        images = (0, *rho.images)
        chosen = _disjoint_cycle_system(census, images, census.conflicts(images))
        return chosen is not None and (chosen,)

    try:
        rho, (chosen,), trials = _search_permutation(
            accept, cg.d, RandomSearch(trials=DEFAULT_TRIALS, seed=0))
    except PermutationBudgetExceeded as exc:
        return SolveResult(None, None, None, exc.trials, FailureReport(
            "swap-search", "no edge-disjoint system of allowed cycles found",
            trials=exc.trials))
    final = apply_swaps(apply_permutation(cg.coloring, rho), chosen)
    return _verified(cg, L, final, rho, SwapPlan(tuple(chosen)), trials)
