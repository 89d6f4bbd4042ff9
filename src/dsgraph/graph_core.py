"""Graphs with canonical edge indexing and the two-colored 4-cycle machinery.

Edges are stored as (u, v) pairs with u < v, sorted lexicographically; an
edge's index in that order is its identity everywhere in the package. All
distances between edges count edges on a shortest path between endpoints, so
adjacent (or identical) edges are at distance 0.

Every bounded-distance question goes through one kernel, the per-vertex edge
ball. E_0(w) is the bitmask of the edges incident to w, and
E_t(w) = E_{t-1}(w) | OR over neighbours x of E_{t-1}(x), so E_t(w) holds the
edges with an endpoint within distance t of w. An edge uv then has the
t-neighborhood W_t(uv) = E_t(u) | E_t(v), exactly, disconnected graphs
included. ``Graph.edge_balls`` builds E_0 in one pass over the edge list,
setting bit e at both endpoints of edge e, and the neighbour lists in a
second; each radius then ORs every vertex's neighbours' balls into its own,
and the growth stops at the first radius where no ball grows. The balls are
cached for each radius a caller asks for (n*m/8 bytes each, refused above
``EDGE_BALL_BYTES_CAP``), and ``Graph.nbhd_mask`` returns W_t(e); the bits
of that mask serve ``t_neighborhood``, ``is_distance_t_matching`` and the
distance-2 list generator.

Edge distance is symmetric, so the anchors whose W_t holds e are exactly the
bits of W_t(e). Questions of the form "how many chosen edges lie in each
anchor's W_t" therefore need no table: ``add_count`` adds W_t(e) to a
bit-sliced counter over all anchors at once, and ``Graph.crowded_anchors``
names the anchors whose count exceeds a cap, one per class of equal W_t.

A proper coloring makes 4-cycle enumeration cheap: for an edge uv of color a
and any other color c there is at most one c-colored edge at v (to some z) and
at most one at u (to some t), and uvzt is a two-colored 4-cycle exactly when
the partner edge zt exists and carries color a. ``color_table`` lays those
edges out as one list per vertex, indexed by color 0..d, with -1 where a
vertex has no edge of that color, so a candidate costs two list reads, and
the far end of an edge (x, y) at v is x + y - v.
The partner is read off the same table: when ``table[z][a]`` and
``table[t][a]`` name one edge, that a-colored edge joins z and t. That cycle
test lives in one place, ``_cycle_tuples``, which returns plain
(c, e_vz, e_tu, partner) tuples in O(d) work per edge:
``two_colored_cycles_through`` wraps them into ``FourCycle``s, and phase
one's checker reads them raw from the per-graph memo
``ColoredGraph.standard_cycles``.

The census behind the certified s, ``compute_s``, needs only how many
cycles pass through each edge, so on a proper, total coloring it counts per
color pair, at C level, the vertices where the walk c, a, c, a closes; other
colorings are counted edge by edge with ``_cycle_tuples``.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq, itemgetter, ne

from .errors import IncompleteColoring, NotTwoColored, ResourceLimit

UNREACHABLE = math.inf
# per radius; admits Q14 (235 MB) and refuses Q15 (1.0 GB)
EDGE_BALL_BYTES_CAP = 256 * 2 ** 20


class Graph:
    """Simple undirected graph with canonical edge order and cached edge balls."""

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        self.n = n
        self.edges = edges
        self.m = len(edges)
        adjacency: list[list[int]] = [[] for _ in range(n)]
        index: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(edges):
            adjacency[u].append(i)
            adjacency[v].append(i)
            index[(u, v)] = i
        self.adjacency = tuple(tuple(a) for a in adjacency)
        self.edge_index = index
        # the endpoint columns: edge e is (tails[e], heads[e])
        self.tails, self.heads = tuple(zip(*edges)) or ((), ())
        self._balls: dict[int, tuple[int, ...]] = {}
        self._half_edges: tuple[int, dict[int, int], tuple[int, ...]] | None = None

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Canonicalize and validate an edge list (u < v, lexicographic, no dupes)."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        return cls(n, tuple(canon))

    def other_endpoint(self, e: int, w: int) -> int:
        u, v = self.edges[e]
        return v if w == u else u

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @functools.cached_property
    def max_degree(self) -> int:
        """The largest vertex degree; 0 for a graph without edges."""
        return max(map(len, self.adjacency), default=0)

    def vertex_distances_from_edge(self, e: int) -> tuple[float, ...]:
        """BFS layers from both endpoints of e at once (distance 0 for each)."""
        u, v = self.edges[e]
        dist: list[float] = [UNREACHABLE] * self.n
        dist[u] = dist[v] = 0
        queue = deque((u, v))
        while queue:
            w = queue.popleft()
            nd = dist[w] + 1
            for ei in self.adjacency[w]:
                x = self.other_endpoint(ei, w)
                if nd < dist[x]:
                    dist[x] = nd
                    queue.append(x)
        return tuple(dist)

    def edge_balls(self, t: int) -> tuple[int, ...]:
        """Per vertex w, the bitmask E_t(w) of edges with an endpoint within distance t of w.

        Cached per requested radius only. The growth stops early once no
        ball grows, so a radius beyond the diameter costs no more than the
        diameter itself. Raises ResourceLimit instead of building a table of
        more than ``EDGE_BALL_BYTES_CAP`` bytes.
        """
        if t < 0:
            raise ValueError("t must be nonnegative")
        cached = self._balls.get(t)
        if cached is not None:
            return cached
        size = self.n * self.m // 8
        if size > EDGE_BALL_BYTES_CAP:
            raise ResourceLimit(
                f"edge balls need {size} bytes per radius, above cap {EDGE_BALL_BYTES_CAP}")
        balls = [0] * self.n
        for e, (u, v) in enumerate(self.edges):
            bit = 1 << e
            balls[u] |= bit
            balls[v] |= bit
        if t:
            neighbours: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                neighbours[u].append(v)
                neighbours[v].append(u)
        for _ in range(t):
            # one local accumulator per vertex: growing edge by edge
            # (grown[u] |= balls[v]; grown[v] |= balls[u]) writes half its ORs
            # back into the list, which made t >= 4 on Q12 15-18% slower
            grown = []
            for ball, nbrs in zip(balls, neighbours):
                for x in nbrs:
                    ball |= balls[x]
                grown.append(ball)
            if grown == balls:
                break
            balls = grown
        out = tuple(balls)
        self._balls[t] = out
        return out

    def half_edge_layout(self) -> tuple[int, dict[int, int], tuple[int, ...]]:
        """(F, fields, partner): the half-edge bit layout of the exact oracle.

        F is the largest degree plus one, and vertex w owns the F bits from
        w * F up, its field: bit w * F + j stands for the half-edge at w of
        ``adjacency[w][j]``, and the top bit, w * F + F - 1, is a flag no
        half-edge uses. ``fields[k]`` is the sum of the fields (half-edges
        and flag) of the vertices of degree k, and ``partner[w]`` holds w's
        field and the far half-edges of the edges at w (for an edge wx, its
        half-edge at x), so the two half-edges of an edge uv are
        ``partner[u] & partner[v]``. Cached.
        """
        if self._half_edges is None:
            width = self.max_degree + 1
            fields: dict[int, int] = {}
            partner = [0] * self.n
            for x, adj in enumerate(self.adjacency):
                base = x * width
                field = ((1 << len(adj)) - 1 | 1 << width - 1) << base
                fields[len(adj)] = fields.get(len(adj), 0) | field
                partner[x] |= field
                for j, e in enumerate(adj):
                    partner[self.other_endpoint(e, x)] |= 1 << (base + j)
            self._half_edges = (width, fields, tuple(partner))
        return self._half_edges

    def nbhd_mask(self, e: int, t: int) -> int:
        """W_t(e) as a bitmask: the edges at distance <= t from e."""
        balls = self.edge_balls(t)
        u, v = self.edges[e]
        return balls[u] | balls[v]

    def crowded_anchors(self, edges, cap: int, t: int) -> list[tuple[int, int]]:
        """(least anchor, count) for each W_t class of anchor edges whose W_t
        holds more than cap of the distinct edges, in ascending anchor order.

        Anchors with equal W_t have equal counts, so the least anchor of a
        crowded class is the least anchor with that W_t at all.
        """
        if len(edges) <= cap:
            return []
        balls = self.edge_balls(t)
        levels = [0] * (cap + 1)
        members = 0
        for e in edges:
            u, v = self.edges[e]
            add_count(levels, balls[u] | balls[v])
            members |= 1 << e
        seen: set[int] = set()
        out = []
        for a in _bits(levels[cap]):
            u, v = self.edges[a]
            w = balls[u] | balls[v]
            if w not in seen:
                seen.add(w)
                out.append((a, (members & w).bit_count()))
        return out

    # unused by the library; kept because perfbench/tracing.py wraps it by name
    def neighborhood_dedup(self, t: int):
        """Unique t-neighborhood edge sets, a representative anchor for each,
        and for every edge the ids of the unique sets that contain it."""
        reps: dict[int, int] = {}
        for e in range(self.m):
            reps.setdefault(self.nbhd_mask(e, t), e)
        sets: list[frozenset[int]] = []
        containing: list[list[int]] = [[] for _ in range(self.m)]
        for uid, mask in enumerate(reps):
            members = _bits(mask)
            sets.append(frozenset(members))
            for f in members:
                containing[f].append(uid)
        return tuple(sets), tuple(tuple(c) for c in containing), tuple(reps.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class EdgeColoring:
    """Total map edge index -> color in {1..d}; 0 marks an uncolored slot."""

    colors: tuple[int, ...]
    d: int

    def __post_init__(self):
        for i, c in enumerate(self.colors):
            if not (0 <= c <= self.d):
                raise ValueError(f"color {c} at edge {i} outside 0..{self.d}")

    def __getitem__(self, e: int) -> int:
        return self.colors[e]

    def __len__(self) -> int:
        return len(self.colors)

    @property
    def is_total(self) -> bool:
        return 0 not in self.colors


@dataclass(frozen=True)
class FourCycle:
    """Two-colored 4-cycle u-v-z-t-u.

    color_a sits on uv and on the partner edge zt; color_b on vz and tu.
    The recorded colors are those seen at enumeration time; ``apply_swaps``
    revalidates against the coloring it is given.
    """

    u: int
    v: int
    z: int
    t: int
    e_uv: int
    e_vz: int
    e_zt: int
    e_tu: int
    color_a: int
    color_b: int

    @property
    def edge_ids(self) -> tuple[int, int, int, int]:
        return (self.e_uv, self.e_vz, self.e_zt, self.e_tu)

    @property
    def edge_mask(self) -> int:
        return 1 << self.e_uv | 1 << self.e_vz | 1 << self.e_zt | 1 << self.e_tu

    @property
    def vertices(self) -> tuple[int, int, int, int]:
        return (self.u, self.v, self.z, self.t)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def add_count(levels: list[int], mask: int) -> None:
    """Count each bit of mask once more in the bit-sliced counter levels.

    levels[j] holds the bits counted more than j times; the top level
    saturates, so k levels tell the counts 0 to k - 1 and "at least k" apart.
    """
    for j in range(len(levels) - 1, 0, -1):
        levels[j] |= levels[j - 1] & mask
    levels[0] |= mask


def edge_distance(g: Graph, e: int, f: int) -> float:
    """Fewest edges on a shortest path between an endpoint of e and one of f.

    0 for identical or adjacent edges; UNREACHABLE when no path connects them.
    """
    if not (0 <= e < g.m and 0 <= f < g.m):
        raise ValueError("edge index out of range")
    dist = g.vertex_distances_from_edge(e)
    a, b = g.edges[f]
    return min(dist[a], dist[b])


def t_neighborhood(g: Graph, e: int, t: int) -> frozenset[int]:
    """Edge indices at distance <= t from e, e included: the bits of W_t(e)."""
    if not 0 <= e < g.m:
        raise ValueError("edge index out of range")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return frozenset(_bits(g.nbhd_mask(e, t)))


def properness_witness(g: Graph,
                       f: EdgeColoring) -> tuple[int, int, int, int] | None:
    """First repeated color at a vertex, as (earlier edge, edge, color, vertex).

    Each edge writes the color-table slots (u, c) and (v, c). When a count
    made at C level finds all those slots distinct there is no witness; only
    otherwise does the ordered scan run to name one.
    """
    colors = f.colors
    slots = set(zip(g.tails, colors))
    slots.update(zip(g.heads, colors))
    if len(slots) == 2 * min(g.m, len(colors)):
        return None
    seen: list[dict[int, int]] = [{} for _ in range(g.n)]
    for e, ((u, v), c) in enumerate(zip(g.edges, colors)):
        for w in (u, v):
            first = seen[w].setdefault(c, e)
            if first != e:
                return first, e, c, w
    return None


def is_proper(g: Graph, f: EdgeColoring) -> bool:
    """True iff no vertex sees a color twice. Raises on partial colorings."""
    if len(f) != g.m:
        raise ValueError("coloring length does not match edge count")
    if not f.is_total:
        raise IncompleteColoring("coloring leaves some edge uncolored")
    return properness_witness(g, f) is None


def color_table(g: Graph, f: EdgeColoring) -> list[list[int]]:
    """Per vertex, the incident edge of each color 0..d, -1 where there is none.

    ``table[w][c]`` is the edge of color c at w; on improper input the last
    edge in edge order wins.
    """
    colors = f.colors
    table = [[-1] * (f.d + 1) for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        c = colors[e]
        table[u][c] = e
        table[v][c] = e
    return table


def _cycle_tuples(g: Graph, colors, d: int, e: int,
                  table: list[list[int]]) -> list[tuple[int, int, int, int]]:
    """(c, e_vz, e_tu, partner) for each two-colored 4-cycle through e, ascending c.

    The one cycle test: the c-colored edges at v and u must both exist, end in
    distinct vertices z and t, and zt must exist and carry e's color a. When
    ``table[z][a]`` and ``table[t][a]`` hold the same edge, that edge is zt.
    Otherwise zt is looked up by its endpoints, which keeps improper
    colorings exact: there the last writer in a slot can hide zt.
    """
    edges, index = g.edges, g.edge_index
    u, v = edges[e]
    a = colors[e]
    at_u, at_v = table[u], table[v]
    out = []
    for c in range(1, d + 1):
        if c == a:
            continue
        ez = at_v[c]
        et = at_u[c]
        if ez < 0 or et < 0:
            continue
        x, y = edges[ez]
        z = x + y - v
        x, y = edges[et]
        t = x + y - u
        if z == t:
            continue
        partner = table[z][a]
        if partner < 0 or partner != table[t][a]:
            partner = index.get((z, t) if z < t else (t, z))
            if partner is None or colors[partner] != a:
                continue
        out.append((c, ez, et, partner))
    return out


def two_colored_cycles_through(g: Graph, f: EdgeColoring, e: int,
                               table: list[list[int]] | None = None) -> tuple[FourCycle, ...]:
    """All two-colored 4-cycles through e under f, in ascending second-color order.

    Requires f proper on the edges it touches; properness guarantees each
    second color yields at most one candidate and distinct cycles get
    distinct second colors. Pass a precomputed ``color_table`` when calling
    in a loop.
    """
    if table is None:
        table = color_table(g, f)
    edges = g.edges
    u, v = edges[e]
    a = f.colors[e]
    out = []
    for c, ez, et, partner in _cycle_tuples(g, f.colors, f.d, e, table):
        x, y = edges[ez]
        z = x + y - v
        x, y = edges[et]
        out.append(FourCycle(u, v, z, x + y - u, e, ez, partner, et, a, c))
    return tuple(out)


def _partner_rows(g: Graph, colors, d: int) -> list[list[int]] | None:
    """Per color c, the list p with p[w] the far end of w's c-colored edge.

    Index n is a sink: p[w] = n where w has no c-colored edge, and p[n] = n.
    One pass over the edges; None unless the coloring covers every edge with
    a color in 1..d, repeats no (vertex, color) slot and meets no loop.
    """
    sink = g.n
    if len(colors) != g.m or 0 in colors:
        return None
    rows = [[sink] * (sink + 1) for _ in range(d + 1)]
    for u, v, c in zip(g.tails, g.heads, colors):
        row = rows[c]
        if row[u] != sink or row[v] != sink or u == v:
            return None
        row[u] = v
        row[v] = u
    return rows


def compute_s(g: Graph, f: EdgeColoring) -> int:
    """1 + the minimum over edges of the two-colored 4-cycle count.

    The certified s of a colored graph: every edge lies in at least s-1
    two-colored 4-cycles. Equals 1 on 4-cycle-free graphs; never exceeds d.

    On a proper, total coloring the census runs per color pair, not per
    edge. With p_c the partner rows of ``_partner_rows``, the walk c, a, c, a
    from w returns to w exactly when w lies on the a-c cycle u-v-z-t through
    its a-colored and its c-colored edge, so the fixed points of
    (p_a o p_c)^2, composed at C level by ``operator.itemgetter``, are the
    vertices of the a-c cycles. Each pair adds its fixed points to the
    (vertex, a) and (vertex, c) lanes of one integer per color, and s - 1 is
    the least lane of a slot that holds an edge. A lane is wide enough for d
    (the sink lane reaches d - 1). Any other coloring, and a palette of more
    than twice the average degree, where most pairs would meet nowhere,
    counts the tuples of ``_cycle_tuples`` edge by edge.
    """
    if g.m == 0:
        return 1
    colors, d, sink = f.colors, f.d, g.n
    # d * d * n / 2 lane steps against about m * d: a palette of more than
    # twice the average degree is counted edge by edge
    rows = _partner_rows(g, colors, d) if d * sink <= 4 * g.m else None
    if rows is None:
        table = color_table(g, f)
        return 1 + min(len(_cycle_tuples(g, colors, d, e, table)) for e in range(g.m))
    for width, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")):  # memoryview formats
        if d < 256 ** width:
            break
    order = sys.byteorder
    low = 0 if order == "little" else width - 1  # the lane's low byte
    buf = bytearray(width * (sink + 1))
    buf[low::width] = b"\1" * (sink + 1)
    every = int.from_bytes(buf, order)
    fixed = tuple(range(sink + 1))
    steps = [itemgetter(*row) for row in rows]  # steps[c](x)[w] = x[p_c[w]]
    counts = [0] * (d + 1)
    for a in range(1, d):
        pa = rows[a]
        for c in range(a + 1, d + 1):
            q = steps[c](pa)
            q = itemgetter(*q)(q)
            if q == fixed:  # every vertex lies on an a-c cycle, as when s = d
                lane = every
            else:
                buf[low::width] = bytes(map(eq, q, fixed))
                lane = int.from_bytes(buf, order)
            counts[a] += lane
            counts[c] += lane
    lanes = b"".join(map(int.to_bytes, counts[1:], repeat(len(buf)), repeat(order)))
    return 1 + min(compress(memoryview(lanes).cast(code),
                            map(ne, chain.from_iterable(rows[1:]), repeat(sink))))


def standard_matchings(g: Graph, h: EdgeColoring) -> tuple[frozenset[int], ...]:
    """The d color classes of the standard coloring h; index c - 1 holds color c."""
    buckets: list[list[int]] = [[] for _ in range(h.d + 1)]
    for e in range(g.m):
        buckets[h[e]].append(e)
    return tuple(frozenset(buckets[c]) for c in range(1, h.d + 1))


def is_distance_t_matching(g: Graph, edge_set, t: int) -> bool:
    """True iff all pairs in edge_set are at edge distance >= t.

    A distance-1 matching is an ordinary matching; distance 2 additionally
    separates the endpoints by at least one edge. Each edge e passes when
    W_{t-1}(e) meets the set in e alone.
    """
    if t <= 0:
        return True
    es = set(edge_set)
    selected = sum(1 << e for e in es)
    return all(g.nbhd_mask(e, t - 1) & selected == 1 << e for e in es)


def apply_swaps(f: EdgeColoring, cycles) -> EdgeColoring:
    """Exchange the two colors along each two-colored 4-cycle in turn, copying once.

    Each cycle is validated against the colors the earlier swaps left, so a
    cycle may be replayed after its own swap (double-swap is the identity).
    Preserves properness and every vertex's color set.
    """
    colors = list(f.colors)
    for c in cycles:
        ca, cb = colors[c.e_uv], colors[c.e_vz]
        if ca == cb or colors[c.e_zt] != ca or colors[c.e_tu] != cb:
            raise NotTwoColored(
                f"cycle {c.vertices} is not two-colored under this coloring")
        colors[c.e_uv] = colors[c.e_zt] = cb
        colors[c.e_vz] = colors[c.e_tu] = ca
    return EdgeColoring(tuple(colors), f.d)


def swap_cycle(f: EdgeColoring, c: FourCycle) -> EdgeColoring:
    """Exchange the two colors along one two-colored 4-cycle; see ``apply_swaps``."""
    return apply_swaps(f, (c,))
