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

from .constructors import _LIST_PAIRS_CAP, ColoredGraph
from .errors import ColorOutOfRange, InvalidBound, ResourceLimit
# is_distance_t_matching is unused here but wrapped by perfbench/tracing.py.
from .graph_core import (EdgeColoring, Graph, _bits, _is_distance_t_matching, _steps,
                         add_count, is_distance_t_matching)


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


def _check_colors(L: ListAssignment, g: Graph, d: int) -> None:
    for e, cs in L.items():
        if not 0 <= e < g.m:
            raise ColorOutOfRange(f"list attached to nonexistent edge {e}")
        for c in cs:
            if not 1 <= c <= d:
                raise ColorOutOfRange(f"color {c} on edge {e} outside 1..{d}")


def _crowded(cg: ColoredGraph, groups: dict, cap: int):
    """Lazily yield the counts past cap of the edges grouped by (matching, color).

    First ("ii", (vertex, color), count) for each vertex where more than cap
    edges under one color meet, ascending; then, key by key ascending,
    ("iii", (anchor, matching, color), count) for each class of equal W6 that
    holds more than cap of the key's edges, named by its least anchor. The
    validator groups the lists by (matching, listed color); phase one groups
    each matching's conflict edges under color 0, for its (b) and (a).
    """
    g, width = cg.graph, cg.d + 1
    edges = g.edges
    # (vertex, color) as the int vertex * (d + 1) + color
    ends = Counter(w * width + c for (_, c), group in groups.items()
                   for e in group for w in edges[e])
    for key, cnt in sorted(item for item in ends.items() if item[1] > cap):
        yield "ii", divmod(key, width), cnt
    for m, c in sorted(key for key, group in groups.items() if len(group) > cap):
        balls = g.edge_balls(6)  # built only once some group exceeds cap
        levels = [0] * (cap + 1)
        members = 0
        for e in groups[m, c]:
            u, v = edges[e]
            add_count(levels, balls[u] | balls[v])
            members |= 1 << e
        seen: set[int] = set()
        for a in _bits(levels[cap]):
            u, v = edges[a]
            w = balls[u] | balls[v]
            if w not in seen:  # anchors with equal W6 have equal counts
                seen.add(w)
                yield "iii", (a, m, c), (members & w).bit_count()


def validate_beta_sparse(cg: ColoredGraph, L: ListAssignment, beta) -> SparsityReport:
    """Check conditions (i)-(iii); the report lists one violation per witness.

    Condition (iii) quantifies over one 6-neighborhood per edge; anchors with
    identical neighborhoods share one violation, reported through the least
    anchor of each W6 class.
    """
    g, h, d = cg.graph, cg.coloring, cg.d
    beta = Fraction(beta)
    if beta < 0:
        raise InvalidBound("beta must be nonnegative")
    _check_colors(L, g, d)
    bound = beta * cg.s_measured
    cap = math.floor(bound)
    violations = [Violation("i", (e,), len(cs), bound)
                  for e, cs in sorted(L.items()) if len(cs) > cap]
    colors = h.colors
    groups: dict[tuple[int, int], list[int]] = {}
    for e, cs in L.items():
        for c in cs:
            groups.setdefault((colors[e], c), []).append(e)
    violations += [Violation(*v, bound) for v in sorted(_crowded(cg, groups, cap))]
    return SparsityReport(not violations, beta, tuple(violations))


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle x in place with exactly the draws of ``rng.shuffle(x)``.

    The package's one seeded shuffle: both list generators and the solver's
    random permutation trials call it, so their draws follow this loop, not
    the interpreter's ``Random._randbelow``.

    ``random.Random.shuffle`` swaps x[i] with x[randbelow(i + 1)] for i from
    the top down, and randbelow(n) redraws getrandbits(n.bit_length()) until
    the draw is below n. The loop inlines those calls and walks i in blocks
    of one bit length. It stays because ``Random.shuffle`` takes three times
    as long: 1.0 against 0.35 ms on Q7's 3,136 pairs, on an Intel Xeon.
    """
    getrandbits = rng.getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        bottom = max(1 << (k - 1), 2) - 1  # the least i whose i + 1 has k bits
        for i in range(top, bottom - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = bottom - 1


def generate_sparse(cg: ColoredGraph, beta, seed: int) -> ListAssignment:
    """Greedy-random beta-sparse assignment, deterministic per seed.

    Visits (edge, color) pairs in a seeded shuffle and admits a pair exactly
    when all three conditions survive the addition. The result is maximal for
    the visit order but not globally maximum.

    The scan stops once no later pair can be admitted. An anchor at cap for a
    key k = (matching, color) refuses k to every edge of its W6, so when an
    admission under k brings the admitted edge's own anchor to cap, all of
    its W6 is dead for k. Once the dead edges of every key of a nonempty
    matching cover that matching's class, the rest of the shuffle is skipped.

    Raises ResourceLimit before the pairs are listed when there are more
    than ``constructors._LIST_PAIRS_CAP`` of them, or when the W6 balls
    would pass ``graph_core.EDGE_BALL_BYTES_CAP``.
    """
    g, h, d = cg.graph, cg.coloring, cg.d
    beta = Fraction(beta)
    if beta < 0:
        raise InvalidBound("beta must be nonnegative")
    cap = math.floor(beta * cg.s_measured)
    if cap < 1:
        return EMPTY
    if g.m * d > _LIST_PAIRS_CAP:
        raise ResourceLimit(f"{g.m * d} (edge, color) pairs above cap {_LIST_PAIRS_CAP}")
    balls = g.edge_balls(6)
    # pair p stands for edge p // d and color p % d + 1
    pairs = list(range(g.m * d))
    _shuffle(random.Random(seed), pairs)
    edges, colors = g.edges, h.colors
    lists: dict[int, set[int]] = {}
    sizes = [0] * g.m
    full = [0] * g.n  # per vertex w, bit c - 1 set once color c is at cap at w
    per_vertex: dict[int, int] = {}  # w * d + c - 1 -> admitted pairs, for the keys met
    # matching * d + c - 1 -> bit-sliced counts of admitted pairs per anchor
    # W6; the top level holds the anchors already at cap
    levels: dict[int, list[int]] = {}
    # the same key -> the edges known dead for it; live counts the keys whose
    # class those do not cover yet
    dead: dict[int, int] = {}
    classes = cg.class_masks()
    live = d * sum(1 for mask in classes if mask)
    for p in pairs:
        e = p // d
        if sizes[e] >= cap:
            continue
        c0 = p - e * d
        u, v = edges[e]
        bit = 1 << c0
        if (full[u] | full[v]) & bit:
            continue
        w6 = balls[u] | balls[v]
        k = colors[e] * d + c0
        if k not in levels:
            counts = levels[k] = [0] * cap
        elif (counts := levels[k])[-1] & w6:
            continue
        if sizes[e]:
            lists[e].add(c0 + 1)
        else:
            lists[e] = {c0 + 1}
        sizes[e] += 1
        for w in (u, v):
            i = w * d + c0
            per_vertex[i] = cnt = per_vertex.get(i, 0) + 1
            if cnt >= cap:
                full[w] |= bit
        add_count(counts, w6)
        if counts[-1] >> e & 1:
            dead[k] = mask = dead.get(k, 0) | w6
            cls = classes[colors[e] - 1]
            if mask & cls == cls:
                live -= 1
                if not live:
                    break
    return ListAssignment({e: frozenset(cs) for e, cs in lists.items()})


def _draw_list(getrandbits, d: int, max_list: int) -> frozenset[int]:
    """One distance-2 list, with exactly the draws of
    ``size = rng.randint(1, max_list)`` and then
    ``rng.sample(range(1, d + 1), size)``.

    Both calls reduce to ``Random._randbelow(n)``: getrandbits(n.bit_length())
    redrawn until it is below n. ``sample`` swaps the pick out of a pool when
    the pool is small against a set of the picks (the ``setsize`` rule of
    the interpreter's ``sample``), else redraws indices already picked. The
    list needs 1 <= max_list <= d. It stays because the two calls take 2-3
    times as long: 2.3-3.6 against 1.1 us per list, on an Intel Xeon.
    """
    k = max_list.bit_length()
    size = getrandbits(k)
    while size >= max_list:
        size = getrandbits(k)
    size += 1
    setsize = 21
    if size > 5:
        setsize += 4 ** math.ceil(math.log(size * 3, 4))
    if d <= setsize:
        pool = list(range(1, d + 1))
        picked = []
        for n in range(d, d - size, -1):
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            picked.append(pool[j])
            pool[j] = pool[n - 1]
        return frozenset(picked)
    k = d.bit_length()
    seen: set[int] = set()
    for _ in range(size):
        j = getrandbits(k)
        while j >= d or j in seen:
            j = getrandbits(k)
        seen.add(j)
    return frozenset(j + 1 for j in seen)


def generate_distance2(cg: ColoredGraph, seed: int, max_list: int) -> ListAssignment:
    """Lists supported on a seeded maximal distance-2 matching.

    Each supported edge gets a uniform random nonempty list of at most
    max_list colors drawn from all of {1..d} (so the edge's own standard
    color may appear), by ``_draw_list``. max_list must be at most s-1; 0 is
    the degenerate legal bound and yields the empty assignment. The matching
    is read off the closed neighbourhoods of the edges it admits, through
    the graph's kept partner rows (``_neighbours``), or ``Graph.adjacency``
    where it has none; no edge ball is built.
    """
    g, d = cg.graph, cg.d
    s = cg.s_measured
    if max_list < 0 or max_list > s - 1:
        raise InvalidBound(f"max_list={max_list} outside 0..s-1={s - 1}")
    if max_list == 0:
        return EMPTY
    rng = random.Random(seed)
    order = list(range(g.m))
    _shuffle(rng, order)
    # e is admissible iff it lies in no chosen edge's W_1, by symmetry of
    # distance: iff neither end of e lies in N[u] | N[v] of a chosen edge uv,
    # which is N(u) | N(v) since u and v are neighbours
    tails, heads, step = g.tails, g.heads, _neighbours(cg)
    near = bytearray(g.n + 1)  # the last slot is the partner rows' sink
    support: list[int] = []
    for e in order:
        u, v = tails[e], heads[e]
        if near[u] or near[v]:
            continue
        support.append(e)
        for w in (u, v):
            for x in step(w):
                near[x] = 1
    getrandbits = rng.getrandbits
    return ListAssignment({e: _draw_list(getrandbits, d, max_list) for e in sorted(support)})


def conflict_edges(g: Graph, f: EdgeColoring, L: ListAssignment) -> frozenset[int]:
    """Edges whose current color sits in their own forbidden list."""
    colors = f.colors
    return frozenset(e for e, cs in L.items() if colors[e] in cs)


def _neighbours(cg: ColoredGraph):
    """w -> the vertices next to w: cg's kept partner rows read across
    (``ColoredGraph.neighbours``, which name the sink n where w has no edge
    of a color), or ``Graph.adjacency`` where cg has no rows."""
    rows = cg.neighbours()
    return _steps(cg.graph) if rows is None else rows.__getitem__


def support_is_distance2_matching(cg: ColoredGraph, L: ListAssignment) -> bool:
    """Whether the listed edges form a distance-2 matching, searched through
    cg's vertex neighbourhoods (``_neighbours``)."""
    return _is_distance_t_matching(cg.graph, L.support(), 2, _neighbours(cg))
