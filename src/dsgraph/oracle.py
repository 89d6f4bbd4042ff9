"""Exact ground truth, independent of the fast solver.

oracle_avoidable decides by exhaustive backtracking whether any proper
d-edge-coloring avoids the forbidden lists. oracle_cycle_census recounts
two-colored 4-cycles from scratch by scanning vertex quadruples, so it shares
no code path with the per-edge cycle enumeration it is used to cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OracleBudgetExceeded
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
    leaves when pushed and rejoins when popped, and a scan stops at the first
    edge with one color left. That set order, not ascending edge id, fixes
    the node count, witness and budget point that the recursive reference in
    the tests pins. Bitmasks keep the inner loop cheap, and an explicit stack
    keeps the depth (up to m) off the interpreter's recursion limit.
    Raises OracleBudgetExceeded after ``limit`` assignment attempts, and
    ValueError for a negative ``limit``.
    """
    if limit < 0:
        raise ValueError(f"node budget must be nonnegative, got {limit}")
    edges = g.edges
    full = (1 << d) - 1
    allowed = [full] * g.m
    for e, colors in L.items():
        mask = full
        for c in colors:
            if 1 <= c <= d:
                mask &= ~(1 << (c - 1))
        allowed[e] = mask
    used = [0] * g.n
    assignment = [0] * g.m
    uncolored = set(range(g.m))
    nodes = 0

    # one frame per colored edge: [edge, colors not yet tried, color being tried]
    stack: list[list[int]] = []
    while uncolored:
        # the uncolored edge with the fewest available colors, or -1 when some has none
        best, best_mask, best_count = -1, 0, d + 1
        for e in uncolored:
            u, v = edges[e]
            mask = allowed[e] & ~(used[u] | used[v])
            count = mask.bit_count()
            if count < best_count:
                if count == 0:
                    best = -1
                    break
                best, best_mask, best_count = e, mask, count
                if count == 1:
                    break
        if best >= 0:
            uncolored.remove(best)
            stack.append([best, best_mask, 0])
        # move the deepest frame to its next color, unwinding frames that have none
        while stack:
            frame = stack[-1]
            e, mask, bit = frame
            u, v = edges[e]
            if bit:
                used[u] &= ~bit
                used[v] &= ~bit
            if mask:
                bit = mask & -mask
                frame[1], frame[2] = mask ^ bit, bit
                nodes += 1
                if nodes > limit:
                    raise OracleBudgetExceeded(nodes)
                assignment[e] = bit.bit_length()
                used[u] |= bit
                used[v] |= bit
                break
            assignment[e] = 0
            uncolored.add(e)
            stack.pop()
        if not stack:
            return OracleResult(False, None, nodes)
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
