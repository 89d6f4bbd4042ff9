"""Graph families that arrive with a certified standard coloring.

Every constructor returns a ColoredGraph whose measured s comes from a fresh
cycle census (compute_s); the claimed s of the underlying construction is
stored alongside. All constructors except cayley_abelian treat a measured
value below the claim as a bug and raise; cayley_abelian records the shortfall
and warns instead, because its claim is known not to hold on every admissible
input (see the Z_6 regression in the test suite).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

from .errors import (CertificationFailed, ClaimDiscrepancyWarning, InvalidCayleySpec,
                     InvalidK, ResourceLimit)
from .graph_core import EdgeColoring, Graph, compute_s, is_proper

HYPERCUBE_DIM_CAP = 16
BIPARTITE_T_CAP = 7
CAYLEY_ORDER_CAP = 4096


@dataclass(frozen=True, eq=False)
class ColoredGraph:
    """A graph, its standard coloring, and the claimed/measured cycle parameters."""

    graph: Graph
    coloring: EdgeColoring
    d: int
    s_claimed: int
    s_measured: int
    family: dict = field(repr=False)

    @property
    def s(self) -> int:
        """The certified parameter: always the measured one."""
        return self.s_measured

    @property
    def claim_verified(self) -> bool:
        return self.s_measured >= self.s_claimed


def _certify(graph: Graph, colors: tuple[int, ...], d: int, s_claimed: int | None,
             family: dict, strict: bool = True) -> ColoredGraph:
    """Check properness and measure s; a claim of None claims the measured value."""
    coloring = EdgeColoring(colors, d)
    if not is_proper(graph, coloring):
        raise CertificationFailed(f"{family.get('name')}: constructed coloring is not proper")
    s_measured = compute_s(graph, coloring)
    if s_claimed is None:
        s_claimed = s_measured
    if s_measured < s_claimed:
        if strict:
            raise CertificationFailed(
                f"{family.get('name')}: measured s={s_measured} below claimed s={s_claimed}")
        warnings.warn(
            f"{family.get('name')}: measured s={s_measured} below claimed s={s_claimed}",
            ClaimDiscrepancyWarning, stacklevel=3)
    family = dict(family)
    family["s_claimed"] = s_claimed
    family["s_measured"] = s_measured
    family["claim_verified"] = s_measured >= s_claimed
    return ColoredGraph(graph, coloring, d, s_claimed, s_measured, family)


def _sorted_colored_edges(items) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Canonicalize a list of ((u, v), color) into sorted edges + aligned colors."""
    items = sorted(items)
    edges = tuple(uv for uv, _ in items)
    colors = tuple(c for _, c in items)
    return edges, colors


def hypercube(d: int) -> ColoredGraph:
    """Q_d: vertices are bitmasks 0..2^d-1, edge color = flipped bit index + 1.

    Under this coloring every edge lies in exactly d-1 two-colored 4-cycles
    (one per other dimension), so s = d.
    """
    if d < 1:
        raise ValueError("hypercube dimension must be >= 1")
    if d > HYPERCUBE_DIM_CAP:
        raise ResourceLimit(f"hypercube dimension {d} above cap {HYPERCUBE_DIM_CAP}")
    n = 1 << d
    items = []
    for x in range(n):
        for i in range(d):
            if not x & (1 << i):
                items.append(((x, x | (1 << i)), i + 1))
    edges, colors = _sorted_colored_edges(items)
    graph = Graph(n, edges)
    return _certify(graph, colors, d, d, {"name": "hypercube", "params": {"d": d}})


def complete_bipartite_pow2(t: int) -> ColoredGraph:
    """K_{d,d} with d = 2^t; edge u_i v_j gets color (i XOR j) + 1; s = d."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t > BIPARTITE_T_CAP:
        raise ResourceLimit(f"t={t} above cap {BIPARTITE_T_CAP}")
    d = 1 << t
    items = []
    for i in range(d):
        for j in range(d):
            items.append(((i, d + j), (i ^ j) + 1))
    edges, colors = _sorted_colored_edges(items)
    graph = Graph(2 * d, edges)
    return _certify(graph, colors, d, d,
                    {"name": "complete_bipartite_pow2", "params": {"t": t}})


def remove_standard_matchings(cg: ColoredGraph, k: int,
                              colors: tuple[int, ...] | None = None) -> ColoredGraph:
    """Drop k color classes from a complete_bipartite_pow2 graph.

    The remainder is (d-k)-regular and keeps the XOR coloring restricted to
    the surviving colors (relabeled order-preservingly to 1..d-k); its
    certified s is d-k. By default the k largest colors go.
    """
    if cg.family.get("name") != "complete_bipartite_pow2":
        raise ValueError("matching removal is defined on complete_bipartite_pow2 outputs")
    d = cg.d
    if not 0 < k < d:
        raise InvalidK(f"k={k} must satisfy 0 < k < d={d}")
    if colors is None:
        removed = set(range(d - k + 1, d + 1))
    else:
        removed = set(colors)
        if len(colors) != k or len(removed) != k:
            raise InvalidK("colors must be k distinct values")
        if not removed <= set(range(1, d + 1)):
            raise InvalidK("colors must lie in 1..d")
    relabel = {}
    nxt = 1
    for c in range(1, d + 1):
        if c not in removed:
            relabel[c] = nxt
            nxt += 1
    items = []
    for e, (u, v) in enumerate(cg.graph.edges):
        c = cg.coloring[e]
        if c not in removed:
            items.append(((u, v), relabel[c]))
    edges, cols = _sorted_colored_edges(items)
    graph = Graph(cg.graph.n, edges)
    family = {"name": "remove_standard_matchings",
              "params": {"k": k, "removed_colors": sorted(removed)},
              "base": {k2: v for k2, v in cg.family.items() if k2 in ("name", "params")}}
    return _certify(graph, cols, d - k, d - k, family)


def cartesian_product(cg1: ColoredGraph, cg2: ColoredGraph) -> ColoredGraph:
    """Cartesian product; the second factor's colors shift up by d1.

    d = d1 + d2 and the certified claim is s = min(d1 + s2, d2 + s1), taking
    each factor's measured s.
    """
    g1, g2 = cg1.graph, cg2.graph
    n2 = g2.n
    items = []
    for e, (a1, a2) in enumerate(g1.edges):
        c = cg1.coloring[e]
        for b in range(n2):
            items.append(((a1 * n2 + b, a2 * n2 + b), c))
    for e, (b1, b2) in enumerate(g2.edges):
        c = cg1.d + cg2.coloring[e]
        for a in range(g1.n):
            items.append(((a * n2 + b1, a * n2 + b2), c))
    edges, colors = _sorted_colored_edges(items)
    graph = Graph(g1.n * n2, edges)
    d = cg1.d + cg2.d
    s_claim = min(cg1.d + cg2.s_measured, cg2.d + cg1.s_measured)
    family = {"name": "cartesian_product", "params": {},
              "left": {k: v for k, v in cg1.family.items() if k in ("name", "params")},
              "right": {k: v for k, v in cg2.family.items() if k in ("name", "params")}}
    return _certify(graph, colors, d, s_claim, family)


# --- finite groups -----------------------------------------------------------

class CyclicProduct:
    """Direct product of cyclic groups Z_m1 x ... x Z_mk, elements as tuples."""

    def __init__(self, orders: tuple[int, ...]):
        if not orders or any(m < 1 for m in orders):
            raise ValueError("orders must be positive")
        self.orders = tuple(orders)
        self.elements = tuple(itertools.product(*(range(m) for m in orders)))

    @property
    def identity(self):
        return tuple(0 for _ in self.orders)

    def mul(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def inv(self, a):
        return tuple((-x) % m for x, m in zip(a, self.orders))

    def __len__(self):
        return len(self.elements)


class MulTable:
    """Finite group given by a multiplication table over elements 0..m-1.

    Validates identity, inverses, and that rows and columns are permutations;
    associativity is the caller's responsibility (checking it is cubic).
    """

    def __init__(self, table):
        m = len(table)
        if any(len(row) != m for row in table):
            raise ValueError("table must be square")
        allv = set(range(m))
        for row in table:
            if set(row) != allv:
                raise ValueError("each row must be a permutation of 0..m-1")
        for j in range(m):
            if {row[j] for row in table} != allv:
                raise ValueError("each column must be a permutation of 0..m-1")
        ident = None
        for e in range(m):
            if all(table[e][x] == x and table[x][e] == x for x in range(m)):
                ident = e
                break
        if ident is None:
            raise ValueError("table has no identity element")
        self.table = tuple(tuple(row) for row in table)
        self.elements = tuple(range(m))
        self._identity = ident
        inv = [None] * m
        for a in range(m):
            for b in range(m):
                if table[a][b] == ident and table[b][a] == ident:
                    inv[a] = b
                    break
        if any(i is None for i in inv):
            raise ValueError("some element has no two-sided inverse")
        self._inv = tuple(inv)

    @property
    def identity(self):
        return self._identity

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def __len__(self):
        return len(self.elements)


def element_order(group, a) -> int:
    e = group.identity
    x = a
    k = 1
    while x != e:
        x = group.mul(x, a)
        k += 1
        if k > len(group):
            raise InvalidCayleySpec("element order exceeds group order (not a group?)")
    return k


@dataclass(frozen=True)
class CayleySpec:
    """Input bundle for the two Cayley constructions.

    ``generators``/``commuting`` feed the all-involutions form; ``half_set``
    feeds the abelian even-order form (its full connection set is derived as
    half_set united with its inverses).
    """

    group: object
    generators: tuple = ()
    commuting: tuple = ()
    half_set: tuple = ()


def _check_group_size(group):
    if len(group) > CAYLEY_ORDER_CAP:
        raise ResourceLimit(f"group order {len(group)} above cap {CAYLEY_ORDER_CAP}")


def cayley_involutions(spec: CayleySpec) -> ColoredGraph:
    """Cayley graph on involutions, edge {u, ua} colored by its generator a.

    Requires every generator to be an involution and every member of the
    commuting subset to commute with the whole connection set; the certified
    claim is s = max(1, |commuting subset|).
    """
    group = spec.group
    _check_group_size(group)
    S = tuple(spec.generators)
    Sc = tuple(spec.commuting)
    if not S:
        raise InvalidCayleySpec("empty generating set")
    if len(set(S)) != len(S):
        raise InvalidCayleySpec("duplicate generator")
    e = group.identity
    if e in S:
        raise InvalidCayleySpec("identity in generating set")
    for a in S:
        if group.mul(a, a) != e:
            raise InvalidCayleySpec(f"generator {a!r} is not an involution")
    if not set(Sc) <= set(S):
        raise InvalidCayleySpec("commuting subset not contained in the generating set")
    for c in Sc:
        for a in S:
            if group.mul(c, a) != group.mul(a, c):
                raise InvalidCayleySpec(f"{c!r} does not commute with {a!r}")
    elt_index = {g: i for i, g in enumerate(group.elements)}
    color_of = {a: i + 1 for i, a in enumerate(S)}
    assignment: dict[tuple[int, int], int] = {}
    for g in group.elements:
        gi = elt_index[g]
        for a in S:
            hi = elt_index[group.mul(g, a)]
            key = (gi, hi) if gi < hi else (hi, gi)
            prev = assignment.get(key)
            if prev is None:
                assignment[key] = color_of[a]
            elif prev != color_of[a]:
                raise InvalidCayleySpec("inconsistent edge color (generators not involutive?)")
    items = [(uv, c) for uv, c in assignment.items()]
    edges, colors = _sorted_colored_edges(items)
    graph = Graph(len(group), edges)
    family = {"name": "cayley_involutions",
              "params": {"generators": [list(a) if isinstance(a, tuple) else a for a in S],
                         "commuting": [list(a) if isinstance(a, tuple) else a for a in Sc]}}
    return _certify(graph, colors, len(S), max(1, len(Sc)), family)


def cayley_abelian(spec: CayleySpec) -> ColoredGraph:
    """Cayley graph of an abelian group on even-order generators.

    The half set s_1..s_k must satisfy: even element orders d_i, no two
    members mutually inverse, and every group element factoring uniquely as
    s_1^{x_1} ... s_k^{x_k} with 0 <= x_i < d_i. The edge {u, u s_i} is
    colored s_i when x_i is even at u and s_i^{-1} when odd; the full
    connection set is the half set united with its inverses, d = |S|.

    The construction's claim is s = d. The claim is recorded but certification
    uses the measured census; a shortfall raises ClaimDiscrepancyWarning, not
    an error.
    """
    group = spec.group
    _check_group_size(group)
    Sk = tuple(spec.half_set)
    if not Sk:
        raise InvalidCayleySpec("empty half set")
    if len(set(Sk)) != len(Sk):
        raise InvalidCayleySpec("duplicate half-set generator")
    e = group.identity
    if e in Sk:
        raise InvalidCayleySpec("identity in half set")
    for a in group.elements:
        for b in group.elements:
            if group.mul(a, b) != group.mul(b, a):
                raise InvalidCayleySpec("group is not abelian")
    orders = []
    for s in Sk:
        r = element_order(group, s)
        if r % 2:
            raise InvalidCayleySpec(f"generator {s!r} has odd order {r}")
        orders.append(r)
    for i, si in enumerate(Sk):
        for j, sj in enumerate(Sk):
            if i < j and group.inv(si) == sj:
                raise InvalidCayleySpec(f"generators {si!r} and {sj!r} are mutual inverses")
    total = 1
    for r in orders:
        total *= r
    if total != len(group):
        raise InvalidCayleySpec(
            f"power sequences do not factor the group uniquely "
            f"(product of orders {total} != group order {len(group)})")
    factor_of: dict = {}
    for xs in itertools.product(*(range(r) for r in orders)):
        g = e
        for s, x in zip(Sk, xs):
            p = e
            for _ in range(x):
                p = group.mul(p, s)
            g = group.mul(g, p)
        if g in factor_of:
            raise InvalidCayleySpec("power sequences do not factor the group uniquely")
        factor_of[g] = xs
    tokens: list = []
    for s in Sk:
        tokens.append(s)
        si = group.inv(s)
        if si != s:
            tokens.append(si)
    color_of = {tok: i + 1 for i, tok in enumerate(tokens)}
    d = len(tokens)
    elt_index = {g: i for i, g in enumerate(group.elements)}
    assignment: dict[tuple[int, int], int] = {}
    for g in group.elements:
        gi = elt_index[g]
        xs = factor_of[g]
        for i, s in enumerate(Sk):
            hi = elt_index[group.mul(g, s)]
            key = (gi, hi) if gi < hi else (hi, gi)
            tok = s if xs[i] % 2 == 0 else group.inv(s)
            prev = assignment.get(key)
            if prev is None:
                assignment[key] = color_of[tok]
            elif prev != color_of[tok]:
                raise InvalidCayleySpec("edge received two different colors")
    items = [(uv, c) for uv, c in assignment.items()]
    edges, colors = _sorted_colored_edges(items)
    graph = Graph(len(group), edges)
    family = {"name": "cayley_abelian",
              "params": {"half_set": [list(a) if isinstance(a, tuple) else a for a in Sk]}}
    return _certify(graph, colors, d, d, family, strict=False)
