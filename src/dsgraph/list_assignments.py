"""Sparse lists of forbidden colors and their validity conditions.

A list assignment L maps some edges to nonempty forbidden-color sets. It is
beta-sparse for a colored graph (graph, h, d, s) when, writing B = beta * s:

  (i)   every list has size <= B;
  (ii)  at every vertex, each color appears in at most B incident lists;
  (iii) for every edge-anchored 6-neighborhood W, every standard matching M
        of h, and every color c: at most B edges of M inside W list c.

Counts are integers, so comparing them against floor(B) is exact; B itself
stays a Fraction in every reported violation.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .constructors import ColoredGraph
from .errors import ColorOutOfRange, InvalidBound
from .graph_core import EdgeColoring, Graph, add_count, is_distance_t_matching


@dataclass(frozen=True, eq=False)
class ListAssignment:
    """Sparse map edge index -> frozenset of forbidden colors."""

    lists: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ListAssignment":
        lists = {}
        for e, cs in raw.items():
            cs = frozenset(cs)
            if cs:
                lists[int(e)] = cs
        return cls(lists)

    def get(self, e: int) -> frozenset:
        return self.lists.get(e, frozenset())

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.lists))

    def items(self):
        return self.lists.items()

    def total_entries(self) -> int:
        return sum(len(v) for v in self.lists.values())

    def __eq__(self, other):
        return isinstance(other, ListAssignment) and self.lists == other.lists


EMPTY = ListAssignment({})


@dataclass(frozen=True)
class Violation:
    condition: str          # "i", "ii", or "iii"
    witness: tuple          # (edge,) / (vertex, color) / (anchor_edge, matching_color, color)
    count: int
    bound: Fraction


@dataclass(frozen=True)
class SparsityReport:
    ok: bool
    beta: Fraction
    violations: tuple[Violation, ...]


def as_fraction(x) -> Fraction:
    """Exact conversion; floats convert by their binary value."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _check_colors(L: ListAssignment, g: Graph, d: int) -> None:
    for e, cs in L.items():
        if not 0 <= e < g.m:
            raise ColorOutOfRange(f"list attached to nonexistent edge {e}")
        for c in cs:
            if not 1 <= c <= d:
                raise ColorOutOfRange(f"color {c} on edge {e} outside 1..{d}")


def validate_beta_sparse(cg: ColoredGraph, L: ListAssignment, beta) -> SparsityReport:
    """Check conditions (i)-(iii); the report lists one violation per witness.

    Condition (iii) quantifies over one 6-neighborhood per edge; anchors with
    identical neighborhoods share one violation, reported through the least
    anchor of each W6 class.
    """
    g, h, d = cg.graph, cg.coloring, cg.d
    beta = as_fraction(beta)
    if beta < 0:
        raise InvalidBound("beta must be nonnegative")
    _check_colors(L, g, d)
    bound = beta * cg.s_measured
    cap = math.floor(bound)
    violations = []
    for e, cs in sorted(L.items()):
        if len(cs) > cap:
            violations.append(Violation("i", (e,), len(cs), bound))
    per_vertex: Counter = Counter()
    for e, cs in L.items():
        u, v = g.edges[e]
        for c in cs:
            per_vertex[(u, c)] += 1
            per_vertex[(v, c)] += 1
    for (u, c), cnt in sorted(per_vertex.items()):
        if cnt > cap:
            violations.append(Violation("ii", (u, c), cnt, bound))
    groups: dict[tuple[int, int], list[int]] = {}
    for e, cs in L.items():
        for c in cs:
            groups.setdefault((h[e], c), []).append(e)
    crowded = [(a, m, c, cnt) for (m, c), group in groups.items()
               for a, cnt in g.crowded_anchors(group, cap, 6)]
    for a, m, c, cnt in sorted(crowded):
        violations.append(Violation("iii", (a, m, c), cnt, bound))
    return SparsityReport(not violations, beta, tuple(violations))


def generate_sparse(cg: ColoredGraph, beta, seed: int) -> ListAssignment:
    """Greedy-random beta-sparse assignment, deterministic per seed.

    Visits (edge, color) pairs in a seeded shuffle and admits a pair exactly
    when all three conditions survive the addition. The result is maximal for
    the visit order but not globally maximum.
    """
    g, h, d = cg.graph, cg.coloring, cg.d
    beta = as_fraction(beta)
    if beta < 0:
        raise InvalidBound("beta must be nonnegative")
    cap = math.floor(beta * cg.s_measured)
    rng = random.Random(seed)
    pairs = [(e, c) for e in range(g.m) for c in range(1, d + 1)]
    rng.shuffle(pairs)
    if cap < 1:
        return EMPTY
    lists: dict[int, set[int]] = {}
    per_vertex: Counter = Counter()
    balls = g.edge_balls(6)
    # (matching, color) -> bit-sliced counts of admitted pairs per anchor W6;
    # the top level holds the anchors already at cap
    levels: dict[tuple[int, int], list[int]] = {}
    for e, c in pairs:
        cur = lists.get(e)
        if cur is not None and c in cur:
            continue
        if cur is not None and len(cur) >= cap:
            continue
        u, v = g.edges[e]
        if per_vertex[(u, c)] >= cap or per_vertex[(v, c)] >= cap:
            continue
        w6 = balls[u] | balls[v]
        counts = levels.get((h[e], c))
        if counts is None:
            counts = levels[(h[e], c)] = [0] * cap
        elif counts[-1] & w6:
            continue
        if cur is None:
            lists[e] = {c}
        else:
            cur.add(c)
        per_vertex[(u, c)] += 1
        per_vertex[(v, c)] += 1
        add_count(counts, w6)
    return ListAssignment({e: frozenset(cs) for e, cs in lists.items()})


def generate_distance2(cg: ColoredGraph, seed: int, max_list: int) -> ListAssignment:
    """Lists supported on a seeded maximal distance-2 matching.

    Each supported edge gets a uniform random nonempty list of at most
    max_list colors drawn from all of {1..d} (so the edge's own standard
    color may appear). max_list must be at most s-1; 0 is the degenerate
    legal bound and yields the empty assignment.
    """
    g, d = cg.graph, cg.d
    s = cg.s_measured
    if max_list < 0 or max_list > s - 1:
        raise InvalidBound(f"max_list={max_list} outside 0..s-1={s - 1}")
    if max_list == 0:
        return EMPTY
    rng = random.Random(seed)
    order = list(range(g.m))
    rng.shuffle(order)
    # e is admissible iff it lies in no chosen edge's W_1, by symmetry of distance
    blocked = 0
    support: list[int] = []
    for e in order:
        if not blocked >> e & 1:
            support.append(e)
            blocked |= g.nbhd_mask(e, 1)
    lists = {}
    for e in sorted(support):
        size = rng.randint(1, max_list)
        lists[e] = frozenset(rng.sample(range(1, d + 1), size))
    return ListAssignment(lists)


def conflict_edges(g: Graph, f: EdgeColoring, L: ListAssignment) -> frozenset[int]:
    """Edges whose current color sits in their own forbidden list."""
    return frozenset(e for e, cs in L.items() if f[e] in cs)


def support_is_distance2_matching(cg: ColoredGraph, L: ListAssignment) -> bool:
    return is_distance_t_matching(cg.graph, L.support(), 2)
