"""Shared builders and cycle/coloring helpers for the test suite."""

import json
import math
import random
from collections import Counter

import pytest

import dsgraph as dg
from dsgraph.graph_core import add_count


@pytest.fixture(scope="session")
def q3():
    return dg.hypercube(3)


@pytest.fixture(scope="session")
def q4():
    return dg.hypercube(4)


@pytest.fixture(scope="session")
def k44():
    return dg.complete_bipartite_pow2(2)


@pytest.fixture(scope="session")
def k88():
    return dg.complete_bipartite_pow2(3)


def random_lists(g, d, seed, max_size):
    """Arbitrary per-edge forbidden sets, no sparsity promise."""
    rng = random.Random(seed)
    raw = {}
    for e in range(len(g.edges)):
        k = rng.randint(0, max_size)
        if k:
            raw[e] = rng.sample(range(1, d + 1), min(k, d))
    return dg.ListAssignment.from_dict(raw)


def edge_distance(g, e, f):
    """Fewest edges on a shortest path between an endpoint of e and one of f.

    0 for identical or adjacent edges; math.inf when no path connects them.
    """
    if not (0 <= e < g.m and 0 <= f < g.m):
        raise ValueError("edge index out of range")
    dist = g.vertex_distances_from_edge(e)
    a, b = g.edges[f]
    return min(dist[a], dist[b])


def edge_set(cycle):
    return frozenset(cycle.edge_ids)


def vertex_color_set(g, f, u):
    """The colors f puts on the edges at u."""
    return frozenset(f[e] for e in g.adjacency[u])


def vertex_used_counts(plan, g):
    """Per vertex, how many of the plan's used edges meet it."""
    counts = Counter()
    for e in plan.used:
        u, v = g.edges[e]
        counts[u] += 1
        counts[v] += 1
    return counts


def are_edge_disjoint(cycles):
    seen = set()
    for c in cycles:
        es = edge_set(c)
        if seen & es:
            return False
        seen |= es
    return True


def are_vertex_disjoint(cycles):
    seen = set()
    for c in cycles:
        vs = set(c.vertices)
        if seen & vs:
            return False
        seen |= vs
    return True


def ref_generate_sparse(cg, beta, seed):
    """``generate_sparse`` as it stood before its state went into flat lists:
    (edge, color) tuples shuffled by ``random.Random.shuffle``, a Counter per
    (vertex, color) and W6(e) ORed afresh for every pair."""
    g, h, d = cg.graph, cg.coloring, cg.d
    cap = math.floor(beta * cg.s_measured)
    if cap < 1:
        return dg.EMPTY
    rng = random.Random(seed)
    pairs = [(e, c) for e in range(g.m) for c in range(1, d + 1)]
    rng.shuffle(pairs)
    lists = {}
    per_vertex = Counter()
    balls = g.edge_balls(6)
    levels = {}
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
    return dg.ListAssignment({e: frozenset(cs) for e, cs in lists.items()})


def edge_oracle(g, d, L, limit):
    """``oracle_avoidable`` as it stood before it reasoned on (vertex, color)
    items: the edge search on bit-sliced color counters, ties to the first
    edge in the order of one ``uncolored`` set. Kept as the reference whose
    node count, witness and budget point equal those of the recursive and
    scanning searches in ``tests/test_oracle.py``, in their result shape:
    (avoidable, colors or None, nodes), or ("budget", nodes)."""
    m = g.m
    width = max(1, d.bit_length())
    full = (1 << d) - 1
    allowed = [full] * m
    forbidden = [0] * d
    for e, colors in L.items():
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
    stack = []
    while unc:
        high = 0
        for p in planes[1:]:
            high |= p
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
            while True:
                if not stack:
                    return False, None, nodes
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
            return "budget", nodes
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
    return True, tuple(assignment), nodes


def item_oracle(g, d, L, limit):
    """``oracle_avoidable`` as it stood before its counter planes were kept
    complemented: the edge search on bit-sliced color counters, the
    (vertex, color) items armed at the first dead end (``_item_build``) and
    read by ``_item_sweep``. Kept as the reference whose ``OracleResult``,
    counters and budget point the node step must reproduce."""
    if limit < 0:
        raise ValueError(f"node budget must be nonnegative, got {limit}")
    m = g.m
    width = max(1, d.bit_length())
    frame_bytes = m * (m * (width + 1) + g.n * (g.max_degree + 1)) // 8
    if frame_bytes > dg.graph_core.EDGE_BALL_BYTES_CAP:
        raise dg.ResourceLimit(f"oracle frames need up to {frame_bytes} bytes, "
                               f"above cap {dg.graph_core.EDGE_BALL_BYTES_CAP}")
    full = (1 << d) - 1
    allowed = [full] * m
    forbidden = [0] * d
    for e, colors in L.items():
        if not 0 <= e < m:
            raise dg.ColorOutOfRange(f"list attached to nonexistent edge {e}")
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
    nodes = item_forced = item_dead_ends = 0
    H = None  # the item state, built at the first dead end

    # one frame per colored edge, pushed when its color is assigned: (edge,
    # colors not yet tried, its color's bit, that color's avail and the planes
    # before, and that color's H before once H is built, else None)
    stack = []
    while unc:
        high = 0
        for p in planes[1:]:
            high |= p
        pick = unc & ~high  # the uncolored edges with at most one color left
        if pick:
            pick &= -pick
            dead = pick & ~planes[0]  # the lowest of them has none
        else:
            dead = 0
            pick = unc
            for p in reversed(planes):
                if pick & ~p:
                    pick &= ~p
            pick &= -pick
            if H is not None:
                found = _item_sweep(H, uh, stale, removed, ones, highs, lows)
                if found is None:
                    item_dead_ends += 1
                    dead = 1
                elif found[0]:
                    single, c = found
                    item_forced += 1
                    w = ((single & -single).bit_length() - 1) // field_width
                    option = ((H[c] & uh) >> (w * field_width)) & ((1 << (field_width - 1)) - 1)
                    e = g.adjacency[w][option.bit_length() - 1]
                    pick = 0
                else:
                    # no item is dead or single: the branch frame starts clean
                    stale = removed = 0
        if dead:
            # pop and undo frames until one has a color left to try
            while True:
                if not stack:
                    return dg.OracleResult(False, None, nodes, item_forced, item_dead_ends)
                e, mask, bit, before, planes, before_h = stack.pop()
                u, v = edges[e]
                used[u] &= ~bit
                used[v] &= ~bit
                c = bit.bit_length() - 1
                avail[c] = before
                if H is not None:
                    H[c] = before_h
                    uh ^= partner[u] & partner[v]
                if mask:
                    break
                unc |= 1 << e
            if H is None:
                field_width, partner, ones, highs, lows, H, uh = _item_build(g, d, L, stack)
                # the frames pushed after the next one start swept, those below never were
                armed_at = len(stack) + 1
                stale = full
            else:
                # back at the clean state where that frame was pushed, if it was swept
                stale = 0 if len(stack) >= armed_at else full
            removed = 0
        else:
            if pick:
                e = pick.bit_length() - 1
                u, v = edges[e]
                mask = allowed[e] & ~(used[u] | used[v])
            else:
                u, v = edges[e]
                mask = 1 << c
            unc ^= 1 << e
        bit = mask & -mask
        nodes += 1
        if nodes > limit:
            raise dg.OracleBudgetExceeded(nodes)
        c = bit.bit_length()
        before = avail[c - 1]
        if H is None:
            stack.append((e, mask ^ bit, bit, before, planes, None))
        else:
            before_h = H[c - 1]
            stack.append((e, mask ^ bit, bit, before, planes, before_h))
            H[c - 1] = before_h & ~(partner[u] | partner[v])
            halves = partner[u] & partner[v]
            uh ^= halves
            removed |= halves
            stale |= bit
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
    return dg.OracleResult(True, dg.EdgeColoring(tuple(assignment), d), nodes,
                           item_forced, item_dead_ends)


def _item_build(g, d, L, stack):
    width, fields, partner = g.half_edge_layout()[:3]
    ones = ((1 << g.n * width) - 1) // ((1 << width) - 1)
    highs = ones << width - 1
    uh = sum(fields.values())
    H = [fields.get(d, 0)] * d
    edges = g.edges
    for e, colors in L.items():
        u, v = edges[e]
        halves = partner[u] & partner[v]
        for c in colors:
            if 1 <= c <= d:
                H[c - 1] &= ~halves
    for i, (e, rest, bit, before, planes, _) in enumerate(stack):
        u, v = edges[e]
        c = bit.bit_length() - 1
        before_h = H[c]
        H[c] = before_h & ~(partner[u] | partner[v])
        uh ^= partner[u] & partner[v]
        stack[i] = (e, rest, bit, before, planes, before_h)
    return width, partner, ones, highs, highs - ones, H, uh


def _item_sweep(H, uh, stale, removed, ones, highs, lows):
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


def oracle_cycle_census(g, f):
    """Per-edge counts of two-colored 4-cycles, by direct quadruple scan.

    A 4-cycle u-v-z-t is generated once in canonical form: u is its least
    vertex, v and t are the two neighbors of u on the cycle with v < t, and z
    is their common neighbor opposite u. The cycle counts for each of its
    edges when its edges alternate between exactly two colors. It scans
    vertex quadruples, so it shares no code path with the library's per-edge
    cycle enumeration or its census, which the tests check against it.
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


def ref_generate_distance2(cg, seed, max_list):
    """``generate_distance2`` on the edge-ball kernel, shuffling with
    ``rng.shuffle``: each admitted edge ORed its whole W_1, read off
    ``Graph.edge_balls(1)``, into one mask of the blocked edges."""
    g, d = cg.graph, cg.d
    if max_list == 0:
        return dg.EMPTY
    rng = random.Random(seed)
    order = list(range(g.m))
    rng.shuffle(order)
    blocked, support = 0, []
    for e in order:
        if not blocked >> e & 1:
            support.append(e)
            blocked |= g.nbhd_mask(e, 1)
    return dg.ListAssignment({e: frozenset(rng.sample(range(1, d + 1), rng.randint(1, max_list)))
                              for e in sorted(support)})


def ref_is_distance_t_matching(g, edge_set, t):
    """``is_distance_t_matching`` on the edge-ball kernel: each selected edge
    e passed when W_{t-1}(e), from ``Graph.edge_balls(t - 1)``, met the set
    in e alone."""
    if t <= 0:
        return True
    es = set(edge_set)
    selected = sum(1 << e for e in es)
    return all(g.nbhd_mask(e, t - 1) & selected == 1 << e for e in es)


def ref_graph_indexes(g):
    """(adjacency, edge_index) as ``Graph.__init__`` built them eagerly,
    before both became cached properties read on first use."""
    adjacency = [[] for _ in range(g.n)]
    index = {}
    for i, (u, v) in enumerate(g.edges):
        adjacency[u].append(i)
        adjacency[v].append(i)
        index[(u, v)] = i
    return tuple(tuple(a) for a in adjacency), index


def _ref_color_array(values, m, d, name):
    if not isinstance(values, list) or len(values) != m:
        raise dg.InvalidInstance(f"{name}: length must equal the number of edges ({m})")
    for c in values:
        if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= d:
            raise dg.InvalidInstance(f"{name}: colors must be integers in 1..{d}")
    return tuple(values)


def ref_from_json_dict(data):
    """``from_json_dict`` as it stood before its checks ran over whole arrays:
    one item at a time, raising at the first broken one. List keys follow the
    canonical rule (only str(e) for an edge e) that both validators share."""
    err = dg.InvalidInstance
    if not isinstance(data, dict):
        raise err("top level: must be a JSON object")
    if data.get("format") != dg.instance_io.FORMAT_TAG:
        raise err(f"format: expected '{dg.instance_io.FORMAT_TAG}'")
    n = data.get("n")
    d = data.get("d")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise err("n: must be a nonnegative integer")
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise err("d: must be a nonnegative integer")
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise err("edges: must be an array of [u, v] pairs")
    edges = []
    for item in raw_edges:
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)):
            raise err("edges: each entry must be a pair of integers")
        u, v = item
        if not 0 <= u < v < n:
            raise err("edges: must be canonical (0 <= u < v < n)")
        edges.append((u, v))
    if edges != sorted(edges):
        raise err("edges: must be sorted lexicographically")
    if len(set(edges)) != len(edges):
        raise err("edges: duplicates are not allowed")
    graph = dg.Graph(n, tuple(edges))
    m = graph.m

    coloring = solution = None
    if "coloring" in data:
        coloring = dg.EdgeColoring(_ref_color_array(data["coloring"], m, d, "coloring"), d)
    if "solution" in data:
        solution = dg.EdgeColoring(_ref_color_array(data["solution"], m, d, "solution"), d)

    s_claimed = s_measured = None
    if "s" in data:
        block = data["s"]
        if not isinstance(block, dict):
            raise err("s: must be an object with 'claimed' and 'measured'")
        for key in ("claimed", "measured"):
            if key in block:
                value = block[key]
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise err(f"s.{key}: must be a positive integer")
        s_claimed = block.get("claimed")
        s_measured = block.get("measured")

    lists = None
    if "lists" in data:
        raw = data["lists"]
        if not isinstance(raw, dict):
            raise err("lists: must map edge indices to color arrays")
        parsed = {}
        for key, colors in raw.items():
            if not isinstance(key, str) or not key.isdigit():
                raise err(f"lists: key {key!r} is not a decimal edge index")
            if not key.isascii() or len(key) > 1 and key[0] == "0":
                raise err(f"lists: key {key!r} is not in canonical form (str of the edge index)")
            if len(key) > len(str(m)) or int(key) >= m:
                raise err(f"lists: key '{key}' is not a valid edge index")
            if (not isinstance(colors, list)
                    or any(not isinstance(c, int) or isinstance(c, bool) for c in colors)):
                raise err(f"lists['{key}']: must be an array of integers")
            if any(not 1 <= c <= d for c in colors):
                raise err(f"lists['{key}']: colors must lie in 1..{d}")
            if colors != sorted(set(colors)):
                raise err(f"lists['{key}']: colors must be sorted and unique")
            parsed[int(key)] = colors
        lists = dg.ListAssignment.from_dict(parsed)

    plan = None
    if "plan" in data:
        raw = data["plan"]
        if not isinstance(raw, list):
            raise err("plan: must be an array of 4-vertex cycles")
        rows = []
        for item in raw:
            if (not isinstance(item, list) or len(item) != 4
                    or any(not isinstance(x, int) or isinstance(x, bool) for x in item)):
                raise err("plan: each cycle must be four vertex integers")
            if any(not 0 <= x < n for x in item):
                raise err("plan: cycle vertices must lie in 0..n-1")
            rows.append(tuple(item))
        plan = tuple(rows)

    report = data.get("report")
    if report is not None and not isinstance(report, dict):
        raise err("report: must be an object")
    family = data.get("family", {})
    if not isinstance(family, dict):
        raise err("family: must be an object")
    return dg.instance_io.Instance(graph=graph, d=d, coloring=coloring, s_claimed=s_claimed,
                                   s_measured=s_measured, lists=lists, solution=solution,
                                   plan=plan, report=report, family=family)


def to_json_dict(inst):
    """The dsgraph-v1 document of an instance as JSON values: the object
    ``load_instance`` parses and ``dumps_instance`` writes."""
    data = {
        "format": dg.instance_io.FORMAT_TAG,
        "n": inst.graph.n,
        "d": inst.d,
        "edges": [list(e) for e in inst.graph.edges],
    }
    if inst.coloring is not None:
        data["coloring"] = list(inst.coloring.colors)
    if inst.solution is not None:
        data["solution"] = list(inst.solution.colors)
    if inst.s_claimed is not None or inst.s_measured is not None:
        block = {}
        if inst.s_claimed is not None:
            block["claimed"] = inst.s_claimed
        if inst.s_measured is not None:
            block["measured"] = inst.s_measured
        data["s"] = block
    if inst.lists is not None:
        data["lists"] = {str(e): sorted(cs) for e, cs in inst.lists.items()}
    if inst.plan is not None:
        data["plan"] = [list(c) for c in inst.plan]
    if inst.report is not None:
        data["report"] = inst.report
    if inst.family:
        data["family"] = inst.family
    return data


def ref_dumps_instance(inst):
    """The reference writer for ``dumps_instance``: the whole document
    through the standard library's indenting encoder."""
    return json.dumps(to_json_dict(inst), sort_keys=True, indent=2) + "\n"


def ref_t_neighborhood(g, e, t):
    """``t_neighborhood`` on the edge-ball kernel: the bits of W_t(e), read off
    ``Graph.edge_balls(t)``."""
    if not 0 <= e < g.m:
        raise ValueError("edge index out of range")
    if t < 0:
        raise ValueError("t must be nonnegative")
    mask = g.nbhd_mask(e, t)
    return frozenset(i for i in range(g.m) if mask >> i & 1)


def ref_swap_allowed(L, cyc):
    """The swap rule on a ``FourCycle``, as the solver coded it before its
    census: swapping cyc puts color a on vz and tu and color b on uv and zt,
    and is allowed when none of the four lists holds its edge's new color."""
    get = L.lists.get
    a, b = cyc.color_a, cyc.color_b
    return not (a in get(cyc.e_vz, ()) or a in get(cyc.e_tu, ())
                or b in get(cyc.e_uv, ()) or b in get(cyc.e_zt, ()))


def ref_candidates(cg, f, L, conflicts):
    """The solver's per-trial candidate list before its census: a fresh
    ``color_table`` of the recolored f, every cycle of each conflict edge as
    a ``FourCycle``, and (e, cycles, those ``ref_swap_allowed`` keeps sorted
    by (z, t)) for each conflict in ascending order."""
    g = cg.graph
    table = dg.color_table(g, f)
    for e in sorted(conflicts):
        cycles = dg.two_colored_cycles_through(g, f, e, table)
        yield e, cycles, sorted((c for c in cycles if ref_swap_allowed(L, c)),
                                key=lambda c: (c.z, c.t))


def ref_disjoint_cycle_system(cg, f, L):
    """The distance-2 search on ``ref_candidates`` of the recolored f: one
    allowed cycle per conflict edge, pairwise edge-disjoint, by backtracking
    in (z, t) order, conflicts ascending; None when there is none."""
    options = [allowed for _, _, allowed in
               ref_candidates(cg, f, L, dg.conflict_edges(cg.graph, f, L))]
    picks, used, start = [], [0], 0
    while len(picks) < len(options):
        row = options[len(picks)]
        for j in range(start, len(row)):
            if not used[-1] & row[j].edge_mask:
                picks.append(j)
                used.append(used[-1] | row[j].edge_mask)
                start = 0
                break
        else:
            if not picks:
                return None
            start = picks.pop() + 1
            used.pop()
    return [row[j] for row, j in zip(options, picks)]


def ref_construct_swap_plan(cg, hprime, L, params):
    """``construct_swap_plan`` on ``ref_candidates``: each conflict's cycles as
    ``FourCycle``s of the recolored hprime, the corner loads read off
    ``Graph.edge_balls(0)`` and both side edges' matchings tested."""
    g, h = cg.graph, cg.coloring
    es = math.ceil(params.epsilon_s)
    conflicts = dg.conflict_edges(g, hprime, L)
    conflict_mask = sum(1 << f for f in conflicts)
    incident = g.edge_balls(0)
    class_mask = cg.class_masks()
    used = 0
    cycles, records = [], []
    for e, all_cycles, allowed in ref_candidates(cg, hprime, L, conflicts):
        used_w4 = used & g.nbhd_mask(e, 4)
        blocked = conflict_mask | used
        elim_over = elim_conf_used = 0
        survivors = []
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
            raise dg.SwapPlanStuck(e, {
                "total": len(all_cycles), "allowed": len(allowed),
                "not_allowed": len(all_cycles) - len(allowed),
                "overloaded": elim_over, "conflict_or_used": elim_conf_used})
        cycles.append(survivors[0])
        records.append(dg.SelectionRecord(e, len(all_cycles), len(allowed),
                                          elim_over, elim_conf_used, len(survivors)))
        used |= survivors[0].edge_mask
    result = dg.apply_swaps(hprime, cycles)
    remaining = dg.conflict_edges(g, result, L)
    if remaining:
        raise dg.SwapPlanStuck(min(remaining), {"post_swap_conflicts": len(remaining)})
    return result, dg.SwapPlan(tuple(cycles), tuple(records))
