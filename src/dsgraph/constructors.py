"""Graph families that arrive with a certified standard coloring.

Every constructor lists its colored edges as ((u, v), color) items and ends
in one call to ``_build``, which sorts them into a Graph and its coloring
and hands both to ``_certify``. ``_certify`` is the one path to a certified
ColoredGraph, also for a loaded file (``instance_io.to_colored_graph``): it
checks properness, naming the two edges that share a color when that fails,
and takes the measured s from a fresh cycle census (compute_s); the claimed
s of the underlying construction is stored alongside. All constructors except
cayley_abelian treat a measured value below the claim as a bug and raise;
cayley_abelian records the shortfall and warns instead, because its claim is
known not to hold on every admissible input (see the Z_6 regression in the
test suite).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

from .errors import (CertificationFailed, ClaimDiscrepancyWarning, InvalidCayleySpec,
                     InvalidK, ResourceLimit)
from .graph_core import (EdgeColoring, Graph, _cycle_tuples, color_table, compute_s, is_proper,
                         properness_witness, standard_matchings)

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
    # per edge, None or its flat ``standard_cycles`` entry; init=False, so
    # dataclasses.replace gives the new graph an empty memo
    _cycle_memo: list = field(default_factory=list, init=False, repr=False)
    # the ``class_masks``, empty until the first call; init=False as above
    _class_masks: list = field(default_factory=list, init=False, repr=False)

    def standard_cycles(self, edges) -> list[tuple[int, ...]]:
        """For each edge in ``edges``, its ``_cycle_tuples`` under the standard
        coloring flattened into one tuple (c, e_vz, e_tu, partner, c, ...).

        The tuple of an edge is computed on its first request and kept, so
        every later solve on this graph reads it from the memo.
        """
        memo = self._cycle_memo
        if not memo:
            memo.extend([None] * self.graph.m)
        g, h = self.graph, self.coloring
        table = None
        out = []
        for e in edges:
            flat = memo[e]
            if flat is None:
                if table is None:
                    table = color_table(g, h)
                flat = memo[e] = tuple(itertools.chain.from_iterable(
                    _cycle_tuples(g, h.colors, h.d, e, table)))
            out.append(flat)
        return out

    def class_masks(self) -> list[int]:
        """The color classes of the standard coloring as edge bitmasks, index
        c - 1 for color c; built on the first call and kept."""
        if not self._class_masks:
            self._class_masks.extend(sum(1 << e for e in m)
                                     for m in standard_matchings(self.graph, self.coloring))
        return self._class_masks

    @property
    def s(self) -> int:
        """The certified parameter: always the measured one."""
        return self.s_measured

    @property
    def claim_verified(self) -> bool:
        return self.s_measured >= self.s_claimed


def _certify(graph: Graph, coloring: EdgeColoring, s_claimed: int | None,
             family: dict, strict: bool = True, stacklevel: int = 3) -> ColoredGraph:
    """Check properness and measure s; a claim of None claims the measured value.

    A tolerated shortfall warns ``stacklevel`` frames up, at the caller of
    the public function.
    """
    name = family.get("name") or "instance"  # a loaded file may carry no family
    if not is_proper(graph, coloring):
        first, e, c, w = properness_witness(graph, coloring)
        raise CertificationFailed(f"{name}: coloring is not proper: "
                                  f"edges {first} and {e} share color {c} at vertex {w}")
    s_measured = compute_s(graph, coloring)
    if s_claimed is None:
        s_claimed = s_measured
    if s_measured < s_claimed:
        message = f"{name}: measured s={s_measured} below claimed s={s_claimed}"
        if strict:
            raise CertificationFailed(message)
        warnings.warn(message, ClaimDiscrepancyWarning, stacklevel=stacklevel)
    family = dict(family)
    family["s_claimed"] = s_claimed
    family["s_measured"] = s_measured
    family["claim_verified"] = s_measured >= s_claimed
    return ColoredGraph(graph, coloring, coloring.d, s_claimed, s_measured, family)


def _build(n: int, items, d: int, s_claimed: int, family: dict,
           strict: bool = True) -> ColoredGraph:
    """Sort ((u, v), color) items into a Graph and its d-coloring, and certify."""
    items = sorted(items)
    graph = Graph(n, tuple(uv for uv, _ in items))
    coloring = EdgeColoring(tuple(c for _, c in items), d)
    return _certify(graph, coloring, s_claimed, family, strict, stacklevel=4)


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
    return _build(n, items, d, d, {"name": "hypercube", "params": {"d": d}})


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
    return _build(2 * d, items, d, d, {"name": "complete_bipartite_pow2", "params": {"t": t}})


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
    family = {"name": "remove_standard_matchings",
              "params": {"k": k, "removed_colors": sorted(removed)},
              "base": {k2: v for k2, v in cg.family.items() if k2 in ("name", "params")}}
    return _build(cg.graph.n, items, d - k, d - k, family)


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
    s_claim = min(cg1.d + cg2.s_measured, cg2.d + cg1.s_measured)
    family = {"name": "cartesian_product", "params": {},
              "left": {k: v for k, v in cg1.family.items() if k in ("name", "params")},
              "right": {k: v for k, v in cg2.family.items() if k in ("name", "params")}}
    return _build(g1.n * n2, items, cg1.d + cg2.d, s_claim, family)


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


def _check_connection_set(group, S: tuple, set_name: str, member: str) -> None:
    """The checks both Cayley forms share: group size, then S nonempty,
    without repeats and without the identity."""
    if len(group) > CAYLEY_ORDER_CAP:
        raise ResourceLimit(f"group order {len(group)} above cap {CAYLEY_ORDER_CAP}")
    if not S:
        raise InvalidCayleySpec(f"empty {set_name}")
    if len(set(S)) != len(S):
        raise InvalidCayleySpec(f"duplicate {member}")
    if group.identity in S:
        raise InvalidCayleySpec(f"identity in {set_name}")


def _cayley_items(group, steps: tuple, color, clash: str) -> list:
    """The ((u, v), color) item of each edge {g, g*a}, for every element g
    and step a; ``color(g, i)`` colors the edge of steps[i] at g, and an edge
    given two different colors raises InvalidCayleySpec(clash)."""
    elt_index = {g: i for i, g in enumerate(group.elements)}
    assignment: dict[tuple[int, int], int] = {}
    for g in group.elements:
        gi = elt_index[g]
        for i, a in enumerate(steps):
            hi = elt_index[group.mul(g, a)]
            key = (gi, hi) if gi < hi else (hi, gi)
            c = color(g, i)
            if assignment.setdefault(key, c) != c:
                raise InvalidCayleySpec(clash)
    return list(assignment.items())


def cayley_involutions(spec: CayleySpec) -> ColoredGraph:
    """Cayley graph on involutions, edge {u, ua} colored by its generator a.

    Requires every generator to be an involution and every member of the
    commuting subset to commute with the whole connection set; the certified
    claim is s = max(1, |commuting subset|).
    """
    group = spec.group
    S = tuple(spec.generators)
    Sc = tuple(spec.commuting)
    _check_connection_set(group, S, "generating set", "generator")
    e = group.identity
    for a in S:
        if group.mul(a, a) != e:
            raise InvalidCayleySpec(f"generator {a!r} is not an involution")
    if not set(Sc) <= set(S):
        raise InvalidCayleySpec("commuting subset not contained in the generating set")
    for c in Sc:
        for a in S:
            if group.mul(c, a) != group.mul(a, c):
                raise InvalidCayleySpec(f"{c!r} does not commute with {a!r}")
    items = _cayley_items(group, S, lambda g, i: i + 1,
                          "inconsistent edge color (generators not involutive?)")
    family = {"name": "cayley_involutions",
              "params": {"generators": [list(a) if isinstance(a, tuple) else a for a in S],
                         "commuting": [list(a) if isinstance(a, tuple) else a for a in Sc]}}
    return _build(len(group), items, len(S), max(1, len(Sc)), family)


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
    Sk = tuple(spec.half_set)
    _check_connection_set(group, Sk, "half set", "half-set generator")
    e = group.identity
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
    # per half-set member, its color at an even and at an odd exponent
    parity_colors = [(color_of[s], color_of[group.inv(s)]) for s in Sk]
    items = _cayley_items(group, Sk, lambda g, i: parity_colors[i][factor_of[g][i] % 2],
                          "edge received two different colors")
    d = len(tokens)
    family = {"name": "cayley_abelian",
              "params": {"half_set": [list(a) if isinstance(a, tuple) else a for a in Sk]}}
    return _build(len(group), items, d, d, family, strict=False)
