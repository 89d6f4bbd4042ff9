"""Graph families that arrive with a certified standard coloring.

Every constructor lists its colored edges as ((u, v), color) items and ends
in one call to ``_build``, which sorts them into a Graph and its coloring
and hands both to ``_certify``. ``_certify`` is the one path to a certified
ColoredGraph, also for a loaded file (``instance_io.to_colored_graph``): it
makes one pass over the (vertex, color) slots, and takes the measured s from
a fresh cycle census (compute_s); the claimed s of the underlying
construction is stored alongside. On a palette of at most twice the average
degree that pass builds the census's partner rows, which refuse a repeated
slot: they are the test of ``properness_witness``, the package's one
properness test, built here once so that the census and the graph keep
them. Only when they refuse, or on a wider palette, does
``properness_witness`` run, and it names the two edges that share a color.
The ColoredGraph keeps those rows until a distance-2 stage reads them as its
vertex neighbourhoods, and the standard color table once a solver reads it,
so later stages build neither ``Graph.adjacency`` nor a second table. All
constructors except cayley_abelian treat a measured value below the claim as
a bug and raise; cayley_abelian records the shortfall and warns instead,
because its claim is known not to hold on every admissible input (see the
Z_6 regression in the test suite).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

from .errors import (CertificationFailed, ClaimDiscrepancyWarning, InvalidCayleySpec,
                     InvalidK, ResourceLimit)
from .graph_core import (EdgeColoring, Graph, _census_rows, color_table, compute_s,
                         properness_witness)

HYPERCUBE_DIM_CAP = 16
BIPARTITE_T_CAP = 7
CAYLEY_ORDER_CAP = 4096
# the edges of Q16, the largest hypercube: Q8 x Q8 sits exactly at the cap
_PRODUCT_EDGE_CAP = HYPERCUBE_DIM_CAP << (HYPERCUBE_DIM_CAP - 1)
# the vertices of Q16 and of Q8 x Q8, the most any constructor builds
_VERTEX_CAP = 1 << HYPERCUBE_DIM_CAP
# color-table slots n * (d + 1); a Cayley graph of order 4096 with d = 4095,
# the widest constructor output, sits exactly at the cap
_COLOR_TABLE_CAP = CAYLEY_ORDER_CAP * CAYLEY_ORDER_CAP
# (edge, color) pairs m * d that list_assignments.generate_sparse lists before
# its scan, 40 bytes each on 64-bit CPython (a pointer and an int): Q16 and
# Q8 x Q8 sit exactly at the cap, which bounds the list at 320 MiB
_LIST_PAIRS_CAP = HYPERCUBE_DIM_CAP * _PRODUCT_EDGE_CAP


def _check_size(n: int, d: int) -> None:
    """Refuse more vertices than Q16, a degree no simple graph on n vertices
    has, or a color table past its cap, before anything sized by them is built."""
    if n > _VERTEX_CAP:
        raise ResourceLimit(f"{n} vertices above cap {_VERTEX_CAP}")
    if d > max(n - 1, 0):
        raise ResourceLimit(f"degree {d} on {n} vertices: no simple graph has it")
    if n * (d + 1) > _COLOR_TABLE_CAP:
        raise ResourceLimit(f"{n * (d + 1)} color-table slots above cap {_COLOR_TABLE_CAP}")


@dataclass(frozen=True, eq=False)
class ColoredGraph:
    """A graph, its standard coloring, and the claimed/measured cycle parameters."""

    graph: Graph
    coloring: EdgeColoring
    d: int
    s_claimed: int
    s_measured: int
    family: dict = field(repr=False)
    # the certification's partner rows ("rows") until ``neighbours`` reads
    # them across and drops them, then "neighbours", "table" (the
    # ``standard_table``) and "masks" (the ``class_masks``); init=False, so
    # dataclasses.replace gives the new graph an empty one
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def class_masks(self) -> list[int]:
        """The color classes of the standard coloring as edge bitmasks, index
        c - 1 for color c; built on the first call, in one pass over the
        colors, and kept."""
        kept = self._kept
        if "masks" not in kept:
            masks = [0] * (self.coloring.d + 1)
            for e, c in enumerate(self.coloring.colors):
                masks[c] |= 1 << e
            kept["masks"] = masks[1:]
        return kept["masks"]

    def neighbours(self) -> tuple[tuple[int, ...], ...] | None:
        """Per vertex w, the far end of its edge of each color 1..d, or the sink
        n, and one more entry for the sink: the partner rows of
        ``graph_core._census_rows`` read across. Built on first read from the
        rows the certification kept, which are dropped then, and kept. None on
        a palette wider than twice the average degree or on an improper
        coloring."""
        kept = self._kept
        if "neighbours" not in kept:
            rows = kept.pop("rows") if "rows" in kept else _census_rows(self.graph, self.coloring)
            kept["neighbours"] = None if rows is None else tuple(zip(*rows[1:]))
        return kept["neighbours"]

    def standard_table(self) -> list[list[int]]:
        """The ``color_table`` of the standard coloring, built on first read
        and kept: the edge in each (vertex, color) slot, -1 where none."""
        kept = self._kept
        if "table" not in kept:
            kept["table"] = color_table(self.graph, self.coloring)
        return kept["table"]

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

    The census rows built for the properness test are handed to compute_s
    and kept for ``ColoredGraph.neighbours``, so the slots are laid out once.

    A tolerated shortfall warns ``stacklevel`` frames up, at the caller of
    the public function.
    """
    name = family.get("name") or "instance"  # a loaded file may carry no family
    if len(coloring) != graph.m or not coloring.is_total:  # a hand-built Instance
        raise CertificationFailed(f"{name}: coloring must color each of the {graph.m} edges")
    # the rows are properness_witness's own test, built here so that the
    # census and the graph keep them; it runs only to name a repeat they
    # refuse, or on a wide palette, which has no rows
    rows = _census_rows(graph, coloring)
    witness = properness_witness(graph, coloring) if rows is None else None
    if witness is not None:
        first, e, c, w = witness
        raise CertificationFailed(f"{name}: coloring is not proper: "
                                  f"edges {first} and {e} share color {c} at vertex {w}")
    s_measured = compute_s(graph, coloring, rows)
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
    cg = ColoredGraph(graph, coloring, coloring.d, s_claimed, s_measured, family)
    cg._kept["rows"] = rows
    return cg


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
    each factor's measured s. A product with more edges than Q16, or past the
    caps of ``_check_size``, raises ResourceLimit before any edge is listed.
    """
    g1, g2 = cg1.graph, cg2.graph
    n2 = g2.n
    m = g1.m * n2 + g2.m * g1.n
    if m > _PRODUCT_EDGE_CAP:
        raise ResourceLimit(f"cartesian product has {m} edges, above cap {_PRODUCT_EDGE_CAP}")
    _check_size(g1.n * n2, cg1.d + cg2.d)
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
    """Direct product of cyclic groups Z_m1 x ... x Z_mk, elements as tuples;
    they are listed on first use, so a size cap can refuse a large group first."""

    def __init__(self, orders: tuple[int, ...]):
        if not orders or any(m < 1 for m in orders):
            raise ValueError("orders must be positive")
        self.orders = tuple(orders)
        self.identity = (0,) * len(self.orders)

    @functools.cached_property
    def elements(self) -> tuple:
        return tuple(itertools.product(*(range(m) for m in self.orders)))

    def mul(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def inv(self, a):
        return tuple((-x) % m for x, m in zip(a, self.orders))

    def __len__(self):
        return math.prod(self.orders)


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
        self.table = tuple(tuple(row) for row in table)
        self.elements = tuple(range(m))
        # each row is a permutation, so 0 * x = 0 names the only candidate
        # identity x, and a * b = e the only candidate inverse b of a
        ident = self.table[0].index(0) if m else None
        if ident is None or any(self.table[ident][x] != x or self.table[x][ident] != x
                                for x in self.elements):
            raise ValueError("table has no identity element")
        self.identity = ident
        self._inv = tuple(row.index(ident) for row in self.table)
        if any(self.table[b][a] != ident for a, b in enumerate(self._inv)):
            raise ValueError("some element has no two-sided inverse")

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def __len__(self):
        return len(self.elements)


def _powers(group, a) -> list:
    """a^0, a^1, ..., a^(r-1), where r is the order of a."""
    e = group.identity
    powers = [e]
    x = a
    while x != e:
        powers.append(x)
        if len(powers) > len(group):
            raise InvalidCayleySpec("element order exceeds group order (not a group?)")
        x = group.mul(x, a)
    return powers


def element_order(group, a) -> int:
    return len(_powers(group, a))


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
    """The checks both Cayley forms share: group size, then every member of S
    an element of the group, S nonempty, without repeats and without the identity."""
    order = group.__len__()  # len() raises OverflowError past sys.maxsize
    if order > CAYLEY_ORDER_CAP:
        raise ResourceLimit(f"group order {order} above cap {CAYLEY_ORDER_CAP}")
    elements = set(group.elements)
    for a in S:
        if a not in elements:
            raise InvalidCayleySpec(f"{member} {a!r} is not an element of the group")
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

    Only the half-set members are checked to commute with every element:
    the factorization check shows that they generate the group, and a group
    generated by central elements is abelian. Each check then costs one pass
    over the group per member.

    The construction's claim is s = d. The claim is recorded but certification
    uses the measured census; a shortfall raises ClaimDiscrepancyWarning, not
    an error.
    """
    group = spec.group
    Sk = tuple(spec.half_set)
    _check_connection_set(group, Sk, "half set", "half-set generator")
    for s in Sk:
        for g in group.elements:
            if group.mul(s, g) != group.mul(g, s):
                raise InvalidCayleySpec("group is not abelian")
    powers = []
    for s in Sk:
        pw = _powers(group, s)
        if len(pw) % 2:
            raise InvalidCayleySpec(f"generator {s!r} has odd order {len(pw)}")
        powers.append(pw)
    for si, sj in itertools.combinations(Sk, 2):
        if group.inv(si) == sj:
            raise InvalidCayleySpec(f"generators {si!r} and {sj!r} are mutual inverses")
    total = math.prod(map(len, powers))
    if total != len(group):
        raise InvalidCayleySpec(
            f"power sequences do not factor the group uniquely "
            f"(product of orders {total} != group order {len(group)})")
    factor_of: dict = {}
    for xs in itertools.product(*(range(len(pw)) for pw in powers)):
        g = group.identity
        for pw, x in zip(powers, xs):
            g = group.mul(g, pw[x])
        if g in factor_of:
            raise InvalidCayleySpec("power sequences do not factor the group uniquely")
        factor_of[g] = xs
    tokens = dict.fromkeys(t for s in Sk for t in (s, group.inv(s)))  # s = s^-1 once
    color_of = {tok: c for c, tok in enumerate(tokens, 1)}
    # per half-set member, its color at an even and at an odd exponent
    parity_colors = [(color_of[s], color_of[group.inv(s)]) for s in Sk]
    items = _cayley_items(group, Sk, lambda g, i: parity_colors[i][factor_of[g][i] % 2],
                          "edge received two different colors")
    d = len(tokens)
    family = {"name": "cayley_abelian",
              "params": {"half_set": [list(a) if isinstance(a, tuple) else a for a in Sk]}}
    return _build(len(group), items, d, d, family, strict=False)
