"""Exact ground truth, independent of the fast solver.

oracle_avoidable decides by exhaustive backtracking whether any proper
d-edge-coloring avoids the forbidden lists. It branches on edges, and once a
search has met a dead end it also reasons on (vertex, color) items, as in an
exact-cover search: at a vertex of degree d every color is used exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ColorOutOfRange, OracleBudgetExceeded, ResourceLimit
from .graph_core import EdgeColoring, Graph
from .list_assignments import ListAssignment

DEFAULT_NODE_BUDGET = 10**8

# the most bytes the search's frames may need, checked before any node
FRAME_BYTES_CAP = 256 * 2**20


@dataclass(frozen=True)
class OracleResult:
    avoidable: bool
    witness: EdgeColoring | None
    nodes_explored: int
    # nodes that colored the one edge left to some (vertex, color) item
    item_forced: int = 0
    # dead ends met at an item with no edge left, rather than at an edge
    item_dead_ends: int = 0


def oracle_avoidable(g: Graph, d: int, L: ListAssignment,
                     limit: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Decide exactly whether some proper d-edge-coloring avoids every list.

    Backtracking over edges, colors in ascending order. At each node the
    lowest-id uncolored edge with at most one color left (forbidden list and
    colors used at either endpoint removed) takes that color, or is a dead
    end when it has none; without such an edge the search branches on the
    lowest-id edge with the fewest colors.

    ``avail[c]`` is the bitmask of the edges where color c + 1 is allowed and
    free at both ends, and ``zeros`` is a complemented bit-sliced binary
    counter over all edges, P = max(1, d.bit_length()) planes wide: bit e of
    ``zeros[i]`` is set when bit i of the number of colors in ``avail`` at
    edge e is clear. Set-up counts d at every edge and subtracts each
    color's forbidden mask. Coloring uv with c removes c from the edges in
    ``lost = avail[c] & (E_0(u) | E_0(v))``: an XOR takes them out of
    ``avail[c]`` and a borrow chain subtracts them from the planes in place,
    two int operations a plane (``z ^ lost``, then ``lost &= z``), ending
    as soon as no borrow is left; every edge in ``lost`` had c counted, so
    it ends by plane P - 1. The edges with at most one color are
    ``unc & zeros[1] & ... & zeros[P-1]``, and the fewest-colors scan
    keeps, from the top plane down, the edges whose bit is clear wherever
    some edge's is. Whether the picked edge has a color at all is read off
    its own small color mask, ``allowed[e] & ~(used[u] | used[v])``, which
    the node needs anyway. The frame keeps ``lost``, edges at u or v only,
    as its undo trail: undoing ORs it back into ``avail[c]`` and adds it
    back to the planes with a carry chain, which retraces the borrows. An
    explicit stack keeps the depth (up to m) off the interpreter's
    recursion limit.

    Items. A (w, c) item exists for each vertex w of degree exactly d and
    each color c not yet used at w; its options are the uncolored edges at w
    that may still take c. An item with no option is a dead end, and an item
    with one option forces that edge to c in one node that keeps no
    alternative. The item state lives in the bit layout of
    ``Graph.half_edge_layout``, where vertex w owns an F-bit field, F = W + 1
    for the largest degree W: one bit per half-edge at w and a flag on top.
    In ``H[c]`` the field of w is empty unless (w, c) is an item; then its
    flag is set, and so is the bit of each half-edge at w whose edge allows
    c and whose far end has not used it. ``uh`` holds the flags and the
    half-edges of the uncolored edges, so the options of (w, c) are the
    half-edge bits in w's field of ``H[c] & uh``. Coloring uv with c is one
    AND, which clears the fields and far half-edges of u and v in ``H[c]``,
    and one XOR of the two half-edges of uv out of ``uh``. A SWAR sweep of
    about ten int operations per color finds the items with at most one
    option, and among them the dead ones; its constants, like the flags and
    half-edges ``uh`` starts from, are cached with the layout.

    The items are armed at the call's first dead end: a search that never
    backtracks runs the edge search alone. That dead end builds ``H`` and
    ``uh`` once by walking the lists and replaying the stack, and each frame
    then also keeps the ``H[c]`` it replaced. From then on every branch
    point sweeps first: a dead item is a dead end, and else the
    lowest-vertex single item of the lowest color is forced. A sweep that
    finds neither leaves a clean state, and backtracking to a frame pushed
    after it restores one, so the next sweep looks only at the colors that
    have changed since: those assigned, and those with an option among the
    half-edges colored.

    Each frame holds one int of m bits (``lost``, whose top bit may be
    edge m - 1) and, once armed, one of n * F bits, so a graph whose worst
    case, m * (m + n * F) / 8 bytes, exceeds ``FRAME_BYTES_CAP`` raises
    ResourceLimit before the search: Q12 (228 MiB) and K128,128 (96.5 MiB)
    run, Q13 (1.04 GiB) is refused. Raises
    ColorOutOfRange for a list on an edge that does not exist (colors
    outside 1..d are ignored, as forbidding nothing), OracleBudgetExceeded
    after ``limit`` assignment attempts, and ValueError for a negative
    ``limit``.
    """
    if limit < 0:
        raise ValueError(f"node budget must be nonnegative, got {limit}")
    m = g.m
    frame_bytes = m * (m + g.n * (g.max_degree + 1)) // 8
    if frame_bytes > FRAME_BYTES_CAP:
        raise ResourceLimit(f"oracle frames need up to {frame_bytes} bytes, "
                            f"above cap {FRAME_BYTES_CAP}")
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
    zeros = [0 if d >> i & 1 else unc for i in range(max(1, d.bit_length()))]
    tops = range(1, len(zeros))
    for lost in forbidden:
        i = 0
        while lost:
            z = zeros[i]
            zeros[i] = z ^ lost
            lost &= z
            i += 1
    edges = g.edges
    balls = g.edge_balls(0)
    used = [0] * g.n
    assignment = [0] * m
    nodes = item_forced = item_dead_ends = 0
    H = None  # the item state, built at the first dead end

    # one frame per colored edge, pushed when its color is assigned: (edge,
    # colors not yet tried, its color's bit, the edges it took out of that
    # color's avail, and that color's H before once H is built, else None)
    stack: list[tuple] = []
    while unc:
        pick = unc
        for i in tops:
            pick &= zeros[i]  # the uncolored edges with at most one color left
        if pick:
            pick &= -pick
            e = pick.bit_length() - 1
            u, v = edges[e]
            mask = allowed[e] & ~(used[u] | used[v])  # empty at a dead end
        else:
            found = (0, 0) if H is None else _sweep(H, uh, stale, removed, ones, highs, lows)
            if found is None:
                item_dead_ends += 1
                mask = 0
            elif found[0]:
                single, c = found
                item_forced += 1
                w = ((single & -single).bit_length() - 1) // field_width
                option = ((H[c] & uh) >> (w * field_width)) & ((1 << (field_width - 1)) - 1)
                e = g.adjacency[w][option.bit_length() - 1]
                u, v = edges[e]
                pick = 1 << e
                mask = 1 << c
            else:
                # no item is dead or single (or none is armed): the branch
                # frame starts clean
                stale = removed = 0
                pick = unc
                for z in reversed(zeros):
                    t = pick & z
                    if t:
                        pick = t
                pick &= -pick
                e = pick.bit_length() - 1
                u, v = edges[e]
                mask = allowed[e] & ~(used[u] | used[v])
        if mask:
            unc ^= pick
        else:
            # pop and undo frames until one has a color left to try
            while True:
                if not stack:
                    return OracleResult(False, None, nodes, item_forced, item_dead_ends)
                e, mask, bit, lost, before_h = stack.pop()
                u, v = edges[e]
                used[u] ^= bit
                used[v] ^= bit
                c = bit.bit_length() - 1
                avail[c] |= lost
                i = 0
                while lost:  # add lost back: a carry chain
                    zeros[i] = z = zeros[i] ^ lost
                    lost &= z  # carry where the count's bit was set, now clear
                    i += 1
                if H is not None:
                    H[c] = before_h
                    uh ^= partner[u] & partner[v]
                if mask:
                    break
                unc |= 1 << e
            if H is None:
                field_width, _, partner, _, ones, highs, lows = g.half_edge_layout()
                H, uh = _build_items(g, d, L, stack)
                # the frames pushed after the next one start swept, those below never were
                armed_at = len(stack) + 1
                stale = full
            else:
                # back at the clean state where that frame was pushed, if it was swept
                stale = 0 if len(stack) >= armed_at else full
            removed = 0
        bit = mask & -mask
        nodes += 1
        if nodes > limit:
            raise OracleBudgetExceeded(nodes)
        c = bit.bit_length() - 1
        lost = avail[c] & (balls[u] | balls[v])
        avail[c] ^= lost
        if H is None:
            stack.append((e, mask ^ bit, bit, lost, None))
        else:
            before_h = H[c]
            stack.append((e, mask ^ bit, bit, lost, before_h))
            H[c] = before_h & ~(partner[u] | partner[v])
            halves = partner[u] & partner[v]
            uh ^= halves
            removed |= halves
            stale |= bit
        assignment[e] = c + 1
        used[u] |= bit
        used[v] |= bit
        i = 0
        while lost:  # subtract lost: a borrow chain
            z = zeros[i]
            zeros[i] = z ^ lost
            lost &= z
            i += 1
    return OracleResult(True, EdgeColoring(tuple(assignment), d), nodes,
                        item_forced, item_dead_ends)


def _build_items(g: Graph, d: int, L: ListAssignment,
                 stack: list[tuple]) -> tuple[list[int], int]:
    """(H, uh), the item state for ``oracle_avoidable``, built by walking the
    lists and replaying its stack; each frame on the stack gets the ``H[c]``
    its color replaced."""
    _, fields, partner, uh, *_ = g.half_edge_layout()
    H = [fields.get(d, 0)] * d
    edges = g.edges
    for e, colors in L.items():
        u, v = edges[e]
        halves = partner[u] & partner[v]
        for c in colors:
            if 1 <= c <= d:
                H[c - 1] &= ~halves
    for i, (e, rest, bit, lost, _) in enumerate(stack):
        u, v = edges[e]
        c = bit.bit_length() - 1
        before_h = H[c]
        H[c] = before_h & ~(partner[u] | partner[v])
        uh ^= partner[u] & partner[v]
        stack[i] = (e, rest, bit, lost, before_h)
    return H, uh


def _sweep(H: list[int], uh: int, stale: int, removed: int, ones: int, highs: int,
           lows: int) -> tuple[int, int] | None:
    """None if some (vertex, color) item is dead, else (single, c): the flags
    of the items with exactly one option in the lowest color c that has any,
    or single = 0 if no item has one option.

    Only the colors that may have changed since the search was last clean
    are looked at: those in the bitmask ``stale``, whose ``H[c]`` changed,
    and those with an option among the ``removed`` half-edges. Per field,
    adding the full value of the low F - 1 bits carries into the flag
    exactly when one of them is set. Clearing each field's lowest set bit
    first (no borrow crosses a field once every flag is set) leaves no
    option bit in the items with at most one option; of those, the ones
    whose own option bits carry nothing are dead.
    """
    single = color = 0
    for c, h in enumerate(H):
        if stale >> c & 1 or h & removed:
            x = h & uh
            y = ((x | highs) - ones) & x
            few = x & ~((y & lows) + lows) & highs
            if few:
                if few & ~((x & lows) + lows):
                    return None
                if not single:
                    single, color = few, c
    return single, color
