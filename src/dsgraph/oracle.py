"""Exact ground truth, independent of the fast solver.

oracle_avoidable decides by exhaustive backtracking whether any proper
d-edge-coloring avoids the forbidden lists. oracle_cycle_census recounts
two-colored 4-cycles from scratch by scanning vertex quadruples, so it shares
no code path with the per-edge cycle enumeration it is used to cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph_core
from .errors import ColorOutOfRange, OracleBudgetExceeded, ResourceLimit
from .graph_core import EdgeColoring, Graph
from .list_assignments import ListAssignment

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class OracleResult:
    avoidable: bool
    witness: EdgeColoring | None
    nodes_explored: int


def oracle_avoidable(g: Graph, d: int, L: ListAssignment,
                     limit: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Decide exactly whether some proper d-edge-coloring avoids every list.

    Backtracking over edges, always branching on the edge with the fewest
    colors still available (forbidden list removed, colors used at either
    endpoint removed), colors in ascending order. Ties go to the first such
    edge in the iteration order of one ``uncolored`` set, which a frame
    leaves when pushed and rejoins when popped, and the first uncolored edge
    in that order with at most one color left is taken at once (a dead end
    when it has none). That set order, not ascending edge id, fixes the node
    count, witness and budget point that the references in the tests pin.

    No edge's count is computed on its own. ``avail[c]`` is the bitmask of
    the edges where color c + 1 is allowed and free at both ends, and
    ``planes`` is a bit-sliced binary counter over all edges, P =
    max(1, d.bit_length()) planes wide: at every search node, bit i of the
    number of colors in ``avail`` at edge e is bit e of ``planes[i]``.
    Coloring uv with c removes c from the edges in
    ``avail[c] & (E_0(u) | E_0(v))``, and one borrow chain subtracts that
    mask from the counter into a new plane list. The frame keeps the
    previous ``avail[c]`` and plane list, so undoing restores both by
    reference. The uncolored edges with at most one color left, or else
    those with the fewest, then come from a few whole-graph ANDs; a single
    such edge is read off its bit, and only among several is the set walked
    to the first of them. An explicit stack keeps the depth (up to m) off
    the interpreter's recursion limit.

    The frames hold up to m * (P + 1) ints of m bits, so a graph whose worst
    case, m * (P + 1) * m / 8 bytes, exceeds
    ``graph_core.EDGE_BALL_BYTES_CAP`` raises ResourceLimit before the
    search: Q11 and K64,64 run, Q12 and K128,128 are refused. Raises
    ColorOutOfRange for a list on an edge that does not exist (colors
    outside 1..d are ignored, as forbidding nothing), OracleBudgetExceeded
    after ``limit`` assignment attempts, and ValueError for a negative
    ``limit``.
    """
    if limit < 0:
        raise ValueError(f"node budget must be nonnegative, got {limit}")
    m = g.m
    width = max(1, d.bit_length())
    frame_bytes = m * (width + 1) * m // 8
    if frame_bytes > graph_core.EDGE_BALL_BYTES_CAP:
        raise ResourceLimit(f"oracle frames need up to {frame_bytes} bytes, "
                            f"above cap {graph_core.EDGE_BALL_BYTES_CAP}")
    full = (1 << d) - 1
    allowed = [full] * m
    forbidden = [0] * d
    for e, colors in L.items():
        if not 0 <= e < m:
            raise ColorOutOfRange(f"list attached to nonexistent edge {e}")
        for c in colors:
            if 1 <= c <= d:
                allowed[e] &= ~(1 << (c - 1))
                forbidden[c - 1] |= 1 << e
    unc = (1 << m) - 1
    avail = [unc ^ f for f in forbidden]
    planes = [0] * width
    for carry in avail:
        for i, p in enumerate(planes):
            planes[i], carry = p ^ carry, p & carry
    edges = g.edges
    balls = g.edge_balls(0)
    used = [0] * g.n
    assignment = [0] * m
    uncolored = set(range(m))
    nodes = 0

    # one frame per colored edge, pushed when its color is assigned:
    # (edge, colors not yet tried, its color's bit, that color's avail and the planes before)
    stack: list[tuple] = []
    while unc:
        high = 0
        for p in planes[1:]:
            high |= p
        # the uncolored edges with at most one color left, else those with the fewest
        pick = unc & ~high
        if not pick:
            pick = unc
            for p in reversed(planes):
                if pick & ~p:
                    pick &= ~p
        if pick & (pick - 1):
            for e in uncolored:
                if pick >> e & 1:
                    break
        else:
            e = pick.bit_length() - 1
        if (planes[0] | high) >> e & 1:
            uncolored.remove(e)
            unc ^= 1 << e
            u, v = edges[e]
            mask = allowed[e] & ~(used[u] | used[v])
        else:
            # a dead end: pop and undo frames until one has a color left to try
            while True:
                if not stack:
                    return OracleResult(False, None, nodes)
                e, mask, bit, before, planes = stack.pop()
                u, v = edges[e]
                used[u] &= ~bit
                used[v] &= ~bit
                avail[bit.bit_length() - 1] = before
                if mask:
                    break
                uncolored.add(e)
                unc |= 1 << e
        bit = mask & -mask
        nodes += 1
        if nodes > limit:
            raise OracleBudgetExceeded(nodes)
        c = bit.bit_length()
        before = avail[c - 1]
        stack.append((e, mask ^ bit, bit, before, planes))
        assignment[e] = c
        used[u] |= bit
        used[v] |= bit
        lost = before & (balls[u] | balls[v])
        avail[c - 1] = before ^ lost
        counted = []
        for p in planes:
            counted.append(p ^ lost)
            lost &= ~p
        planes = counted
    return OracleResult(True, EdgeColoring(tuple(assignment), d), nodes)


def oracle_cycle_census(g: Graph, f: EdgeColoring) -> dict[int, int]:
    """Per-edge counts of two-colored 4-cycles, by direct quadruple scan.

    A 4-cycle u-v-z-t is generated once in canonical form: u is its least
    vertex, v and t are the two neighbors of u on the cycle with v < t, and z
    is their common neighbor opposite u. The cycle counts for each of its
    edges when its edges alternate between exactly two colors.
    """
    counts = {e: 0 for e in range(g.m)}
    neighbor_sets = []
    for u in range(g.n):
        neighbor_sets.append({g.other_endpoint(e, u) for e in g.adjacency[u]})
    for u in range(g.n):
        nbrs = sorted(w for w in neighbor_sets[u] if w > u)
        for i, v in enumerate(nbrs):
            for t in nbrs[i + 1:]:
                for z in neighbor_sets[v] & neighbor_sets[t]:
                    if z <= u:
                        continue
                    e_uv = g.edge_index[(min(u, v), max(u, v))]
                    e_vz = g.edge_index[(min(v, z), max(v, z))]
                    e_zt = g.edge_index[(min(z, t), max(z, t))]
                    e_tu = g.edge_index[(min(t, u), max(t, u))]
                    ca, cb = f[e_uv], f[e_vz]
                    if ca == 0 or cb == 0 or ca == cb:
                        continue
                    if f[e_zt] == ca and f[e_tu] == cb:
                        for e in (e_uv, e_vz, e_zt, e_tu):
                            counts[e] += 1
    return counts
