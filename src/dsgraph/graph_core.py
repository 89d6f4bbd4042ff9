"""Graphs with canonical edge indexing and the two-colored 4-cycle machinery.

Edges are stored as (u, v) pairs with u < v, sorted lexicographically; an
edge's index in that order is its identity everywhere in the package. All
distances between edges count edges on a shortest path between endpoints, so
adjacent (or identical) edges are at distance 0. A ``Graph`` builds only its
edge list and endpoint columns up front; every index over them (the
per-vertex edge lists, the edge-id lookup, the edge balls) is built on first
read, so a stage that loads a file and certifies it builds none of them.

Bounded-distance questions about every anchor at once go through one
kernel, the per-vertex edge ball. E_0(w) is the bitmask of the edges
incident to w, and
E_t(w) = E_{t-1}(w) | OR over neighbours x of E_{t-1}(x), so E_t(w) holds the
edges with an endpoint within distance t of w. An edge uv then has the
t-neighborhood W_t(uv) = E_t(u) | E_t(v), exactly, disconnected graphs
included. ``Graph.edge_balls`` builds E_0 in one pass over the edge list,
setting bit e at both endpoints of edge e, and the neighbour lists in a
second; each radius then ORs every vertex's neighbours' balls into its own,
and the growth stops at the first radius where no ball grows. The balls are
cached for each radius a caller asks for (n*m/8 bytes each, refused above
``EDGE_BALL_BYTES_CAP``), and ``Graph.nbhd_mask`` returns W_t(e). The
kernel's readers are the W6 counts of ``list_assignments`` (``_crowded``,
``generate_sparse``), the swap plan's W4 and the oracle's E_0. Questions
about a few edges read vertex neighbourhoods instead, so none builds an
n*m-bit table: ``_reach`` is one breadth-first search of bounded radius,
behind ``is_distance_t_matching`` (from the ends of each selected edge)
and ``t_neighborhood`` (from the ends of one edge). It steps through
``adjacency`` (``_steps``), or, in the distance-2 support check, through
the partner rows a certified ``ColoredGraph`` keeps, read across; the
distance-2 list generator marks N[u] and N[v] of each edge uv it admits
through the same rows, so no cold distance-2 stage builds ``adjacency``.

Edge distance is symmetric, so the anchors whose W_t holds e are exactly the
bits of W_t(e). Questions of the form "how many chosen edges lie in each
anchor's W_t" therefore need no table: ``add_count`` adds W_t(e) to a
bit-sliced counter over all anchors at once, which is how
``list_assignments._crowded`` names the anchors whose W6 count exceeds a cap.

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
(z, t, c, e_vz, e_tu, partner) tuples for the second colors c it is given, in
O(1) work per color: ``two_colored_cycles_through`` tries every color and
wraps the tuples into ``FourCycle``s, and the solver's census reads the
cycles of the listed edges under the standard coloring off the table a
``ColoredGraph`` keeps, once each, for any permutation of the colors.

The census behind the certified s, ``compute_s``, needs only how many
cycles pass through each edge, so on a proper, total coloring it counts per
color pair, at C level, the vertices where the walk c, a, c, a closes. The
partner rows of that count hold each (vertex, color) slot once, so building
them also tests properness, which is how a certification checks it, and a
certified ``ColoredGraph`` keeps them for its vertex neighbourhoods. Other
colorings, and palettes much wider than the degree, are counted edge by edge
with ``_cycle_tuples`` on a table of only the 2m slots that hold an edge.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq, itemgetter, ne
from typing import NamedTuple

from .errors import IncompleteColoring, NotTwoColored, ResourceLimit

UNREACHABLE = math.inf
# per radius; admits Q14 (235 MB) and refuses Q15 (1.0 GB)
EDGE_BALL_BYTES_CAP = 256 * 2 ** 20
# (F, fields, partner, halves, ones, highs, lows), see Graph.half_edge_layout
HalfEdgeLayout = tuple[int, dict[int, int], tuple[int, ...], int, int, int, int]


class Graph:
    """Simple undirected graph with canonical edge order.

    Built eagerly: ``n``, ``edges``, ``m`` and the endpoint columns ``tails``
    and ``heads``. Built on first read and kept: ``adjacency`` (the oracle,
    the radius searches of a bare graph), ``edge_index``
    (``_cycle_tuples`` on a coloring that may be improper), ``max_degree``,
    the edge balls of each radius and the oracle's half-edge layout.
    """

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...], *,
                 _columns: tuple[tuple[int, ...], tuple[int, ...]] | None = None):
        self.n = n
        self.edges = edges
        self.m = len(edges)
        # the endpoint columns: edge e is (tails[e], heads[e]); a loader that
        # split them off while checking the edges passes them as _columns
        self.tails, self.heads = _columns or tuple(zip(*edges)) or ((), ())
        self._balls: dict[int, tuple[int, ...]] = {}
        self._half_edges: HalfEdgeLayout | None = None

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the ids of its edges, ascending; built on first read."""
        adjacency: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            adjacency[u].append(i)
            adjacency[v].append(i)
        return tuple(map(tuple, adjacency))

    @functools.cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """The id of each edge (u, v), u < v; built on first read."""
        return dict(zip(self.edges, range(self.m)))

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
        more than ``EDGE_BALL_BYTES_CAP`` bytes. The table is n*m bits, so it
        serves only readers that count over every anchor; the radius
        searches of ``_reach`` and the distance-2 list generator read vertex
        neighbourhoods.
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

    def half_edge_layout(self) -> HalfEdgeLayout:
        """(F, fields, partner, halves, ones, highs, lows): the half-edge bit
        layout of the exact oracle.

        F is the largest degree plus one, and vertex w owns the F bits from
        w * F up, its field: bit w * F + j stands for the half-edge at w of
        ``adjacency[w][j]``, and the top bit, w * F + F - 1, is a flag no
        half-edge uses. ``fields[k]`` is the sum of the fields (half-edges
        and flag) of the vertices of degree k, ``halves`` the sum of all
        fields, and ``partner[w]`` holds w's field and the far half-edges of
        the edges at w (for an edge wx, its half-edge at x), so the two
        half-edges of an edge uv are ``partner[u] & partner[v]``. ``ones``,
        ``highs`` and ``lows`` hold, in every field, its lowest bit, its flag
        and the F - 1 bits below the flag: the constants of the oracle's SWAR
        sweep. Cached.
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
            ones = ((1 << self.n * width) - 1) // ((1 << width) - 1)
            highs = ones << width - 1
            self._half_edges = (width, fields, tuple(partner), sum(fields.values()),
                                ones, highs, highs - ones)
        return self._half_edges

    def nbhd_mask(self, e: int, t: int) -> int:
        """W_t(e) as a bitmask: the edges at distance <= t from e."""
        balls = self.edge_balls(t)
        u, v = self.edges[e]
        return balls[u] | balls[v]

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
        # range-checked at C level over the distinct colors; the ordered scan
        # runs only to name the first bad one
        present = set(self.colors)
        if present and not (0 <= min(present) and max(present) <= self.d):
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


class FourCycle(NamedTuple):
    """Two-colored 4-cycle u-v-z-t-u.

    color_a sits on uv and on the partner edge zt; color_b on vz and tu.
    The recorded colors are those seen at enumeration time; ``apply_swaps``
    revalidates against the coloring it is given. A named tuple, because
    phase two builds d - 1 of them per conflict edge: equality and hashing
    are those of the tuple of the ten fields, so a FourCycle equals a plain
    tuple of the same values.
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


def t_neighborhood(g: Graph, e: int, t: int) -> frozenset[int]:
    """Edge indices at distance <= t from e, e included: the edges at the ends
    of e and at the vertices a radius-t search from them reaches (``_reach``,
    over ``adjacency``); no edge ball is built."""
    if not 0 <= e < g.m:
        raise ValueError("edge index out of range")
    if t < 0:
        raise ValueError("t must be nonnegative")
    ends = (g.tails[e], g.heads[e])
    near = _reach(_steps(g), ends, t, [-1] * (g.n + 1), e, bytearray(g.n + 1))
    return frozenset(chain.from_iterable(map(g.adjacency.__getitem__, chain(ends, near))))


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


def _cycle_tuples(g: Graph, colors, seconds, e: int, table,
                  proper: bool = False) -> list[tuple[int, int, int, int, int, int]]:
    """(z, t, c, e_vz, e_tu, partner) for each two-colored 4-cycle u-v-z-t
    through e = uv whose second color c is in ``seconds``, in the order of
    ``seconds``.

    The one cycle test: the c-colored edges at v and u must both exist, end in
    distinct vertices z and t, and zt must exist and carry e's color a. When
    ``table[z][a]`` and ``table[t][a]`` hold the same edge, that edge is zt.
    On a proper coloring nothing else can be zt; otherwise, unless the
    caller passes ``proper`` (no vertex sees a color twice), zt is looked up
    by its endpoints in ``g.edge_index``, which keeps improper colorings
    exact: there the last writer in a slot can hide zt. ``table`` is a
    ``color_table`` or any rows that answer -1 for a missing slot.
    """
    edges = g.edges
    u, v = edges[e]
    a = colors[e]
    at_u, at_v = table[u], table[v]
    out = []
    for c in seconds:
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
            if proper:
                continue
            partner = g.edge_index.get((z, t) if z < t else (t, z))
            if partner is None or colors[partner] != a:
                continue
        out.append((z, t, c, ez, et, partner))
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
    u, v = g.edges[e]
    a = f.colors[e]
    return tuple(FourCycle(u, v, z, t, e, ez, partner, et, a, c) for z, t, c, ez, et, partner
                 in _cycle_tuples(g, f.colors, range(1, f.d + 1), e, table))


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


def _census_rows(g: Graph, f: EdgeColoring) -> list[list[int]] | None:
    """The ``_partner_rows`` of f when its palette is narrow (d * n <= 4m),
    else None.

    d * d * n / 2 lane steps of the per color-pair census against at most
    m * d for the count edge by edge: a palette of more than twice the
    average degree is counted edge by edge, and gets no rows. On a narrow
    palette, None means that f repeats a (vertex, color) slot, leaves an
    edge uncolored or meets a loop, so building the rows is a properness
    test as well.
    """
    return _partner_rows(g, f.colors, f.d) if f.d * g.n <= 4 * g.m else None


class _Slots(dict):
    """One vertex's row of a sparse color table: color -> edge, -1 if none."""

    __slots__ = ()

    def __missing__(self, c: int) -> int:
        return -1


def compute_s(g: Graph, f: EdgeColoring, rows: list[list[int]] | None = None) -> int:
    """1 + the minimum over edges of the two-colored 4-cycle count.

    The certified s of a colored graph: every edge lies in at least s-1
    two-colored 4-cycles. Equals 1 on 4-cycle-free graphs; never exceeds d.

    On a proper, total coloring the census runs per color pair, not per
    edge. With p_c the partner rows of ``_census_rows`` (a caller that has
    built them passes them as ``rows``), the walk c, a, c, a from w returns
    to w exactly when w lies on the a-c cycle u-v-z-t through its a-colored
    and its c-colored edge, so the fixed points of (p_a o p_c)^2, composed
    at C level by ``operator.itemgetter``, are the vertices of the a-c
    cycles. Each pair adds its fixed points to the (vertex, a) and
    (vertex, c) lanes of one integer per color, and s - 1 is the least lane
    of a slot that holds an edge. A lane is wide enough for d (the sink lane
    reaches d - 1). Any other coloring, and a wide palette, counts the tuples
    of ``_cycle_tuples`` edge by edge, on a table of the 2m slots that hold
    an edge, each edge trying the colors that both its ends see.
    """
    if g.m == 0:
        return 1
    if rows is None:
        rows = _census_rows(g, f)
    colors, d, sink = f.colors, f.d, g.n
    if rows is None:
        table: defaultdict[int, _Slots] = defaultdict(_Slots)
        for e, (u, v, c) in enumerate(zip(g.tails, g.heads, colors)):
            table[u][c] = e
            table[v][c] = e
        proper = sum(map(len, table.values())) == 2 * g.m  # no slot written twice
        # a second color c needs a c-colored edge at both ends of e
        return 1 + min(len(_cycle_tuples(g, colors, table[u].keys() & table[v].keys() - {0},
                                         e, table, proper))
                       for e, (u, v) in enumerate(g.edges))
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


def _steps(g: Graph):
    """w -> the far ends of the edges at w, read through ``adjacency``, which
    is built at the first step."""
    tails, heads = g.tails, g.heads
    return lambda w: [tails[f] + heads[f] - w for f in g.adjacency[w]]


def _reach(step, sources, radius: int, seen: list, mark, stop: bytearray) -> list[int] | None:
    """The vertices within ``radius`` steps of ``sources`` that are not
    sources, nearest first, each once; None as soon as the search meets a
    vertex x with ``stop[x]`` set.

    ``step`` maps a vertex to the vertices next to it (``_steps``). ``seen``
    and ``stop`` have one slot per vertex and a last one for the sink n that
    partner rows name where a vertex has no edge of a color; the sink is
    marked first and so never met. x counts as met once ``seen[x] == mark``,
    so searches with distinct marks can share one ``seen``.
    """
    seen[-1] = mark
    for w in sources:
        seen[w] = mark
    frontier, out = sources, []
    for _ in range(radius):
        reached = []
        for w in frontier:
            for x in step(w):
                if seen[x] != mark:
                    if stop[x]:
                        return None
                    seen[x] = mark
                    reached.append(x)
        if not reached:
            break
        out += reached
        frontier = reached
    return out


def is_distance_t_matching(g: Graph, edge_set, t: int) -> bool:
    """True iff all pairs in edge_set are at edge distance >= t.

    A distance-1 matching is an ordinary matching; distance 2 additionally
    separates the endpoints by at least one edge. Two edges lie at distance
    < t exactly when an end of one is within distance t - 1 of an end of the
    other, so a breadth-first search of radius t - 1 from the ends of each
    selected edge (``_reach``, through ``adjacency``) fails at the first end
    of another selected edge it reaches; no edge ball is built. Raises
    ValueError for an edge index outside 0..m-1.
    """
    return _is_distance_t_matching(g, edge_set, t, _steps(g))


def _is_distance_t_matching(g: Graph, edge_set, t: int, step) -> bool:
    """``is_distance_t_matching``, searching with ``step`` (see ``_reach``)."""
    es = set(edge_set)
    if es and not (0 <= min(es) and max(es) < g.m):
        raise ValueError("edge index out of range")
    if t <= 0:
        return True
    tails, heads = g.tails, g.heads
    ends = bytearray(g.n + 1)  # 1 at each end of a selected edge; the last slot is the sink
    for e in es:
        for w in (tails[e], heads[e]):
            if ends[w]:  # two selected edges meet at w: distance 0
                return False
            ends[w] = 1
    if t == 1:
        return True
    seen = [-1] * (g.n + 1)
    for e in es:
        if _reach(step, (tails[e], heads[e]), t - 1, seen, e, ends) is None:
            return False
    return True


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
