"""Graph families and their certified cycle-count parameters."""

import dataclasses
import tracemalloc
import warnings

import pytest

import dsgraph as dg
from dsgraph import constructors, graph_core
from dsgraph.constructors import (BIPARTITE_T_CAP, CAYLEY_ORDER_CAP,
                                  HYPERCUBE_DIM_CAP)
from dsgraph.instance_io import from_json_dict
from tests.test_neighborhood_kernel import BUILDERS


def test_hypercube_shape_and_s():
    for d in range(1, 7):
        cg = dg.hypercube(d)
        assert cg.graph.n == 2 ** d
        assert len(cg.graph.edges) == d * 2 ** (d - 1)
        assert cg.d == d
        assert cg.s_claimed == cg.s_measured == d
        assert cg.claim_verified


def test_hypercube_coloring_follows_dimensions(q3):
    g, h = q3.graph, q3.coloring
    for e, (u, v) in enumerate(g.edges):
        assert h[e] == (u ^ v).bit_length()


def test_complete_bipartite_shape_and_s():
    for t in range(1, 4):
        cg = dg.complete_bipartite_pow2(t)
        half = 2 ** t
        assert cg.graph.n == 2 * half
        assert len(cg.graph.edges) == half * half
        assert cg.d == half
        assert cg.s_claimed == cg.s_measured == half


def test_resource_caps():
    with pytest.raises(dg.ResourceLimit):
        dg.hypercube(HYPERCUBE_DIM_CAP + 1)
    with pytest.raises(dg.ResourceLimit):
        dg.complete_bipartite_pow2(BIPARTITE_T_CAP + 1)
    big = dg.CyclicProduct((2,) * 13)
    assert len(big) == 8192 > CAYLEY_ORDER_CAP
    with pytest.raises(dg.ResourceLimit):
        dg.cayley_abelian(dg.CayleySpec(big, half_set=((1,) + (0,) * 12,)))


def instance_dict(n, d, **blocks):
    return {"format": "dsgraph-v1", "n": n, "d": d, "edges": [], **blocks}


FILE_SIZES = {"file_vertices": (65_537, 0),
              "file_degree": (2, 2),
              "file_color_table": (4097, 4096)}


def over_cap_call(case, monkeypatch):
    """A call that a size cap refuses. Where the real over-cap input is
    itself costly to build, the cap is lowered instead; each input other
    than the file sizes, which sit just past each bound, is big enough that
    building it before the check would pass 1 MB."""
    if case in FILE_SIZES:
        return lambda: from_json_dict(instance_dict(*FILE_SIZES[case]))
    if case == "product_vertices":
        # two edgeless factors on 257 vertices multiply to 66,049
        factor = dg.to_colored_graph(from_json_dict(instance_dict(257, 0, coloring=[])))
        return lambda: dg.cartesian_product(factor, factor)
    if case == "hypercube":
        return lambda: dg.hypercube(HYPERCUBE_DIM_CAP + 1)
    if case == "complete_bipartite_pow2":
        return lambda: dg.complete_bipartite_pow2(BIPARTITE_T_CAP + 1)
    if case == "cayley_order":
        # Z_2^14 is 16,384 tuples, about 3 MB, if listed before the cap is read
        return lambda: dg.cayley_abelian(dg.CayleySpec(dg.CyclicProduct((2,) * 14),
                                                       half_set=((1,) + (0,) * 13,)))
    if case == "cartesian_product":
        q6 = dg.hypercube(6)  # Q6 x Q6 has 2 * 192 * 64 edges
        monkeypatch.setattr(constructors, "_PRODUCT_EDGE_CAP", 2 * 192 * 64 - 1)
        return lambda: dg.cartesian_product(q6, q6)
    g = dg.hypercube(11).graph
    if case == "edge_balls":
        monkeypatch.setattr(graph_core, "EDGE_BALL_BYTES_CAP", g.n * g.m // 8 - 1)
        return lambda: g.edge_balls(1)
    assert case == "oracle_frames"
    monkeypatch.setattr(graph_core, "EDGE_BALL_BYTES_CAP", 1 << 20)
    return lambda: dg.oracle_avoidable(g, 11, dg.EMPTY)


@pytest.mark.parametrize("case", ["hypercube", "complete_bipartite_pow2", "cayley_order",
                                  "cartesian_product", "edge_balls", "oracle_frames",
                                  *FILE_SIZES, "product_vertices"])
def test_size_caps_refuse_before_they_allocate(case, monkeypatch):
    call = over_cap_call(case, monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(dg.ResourceLimit):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cayley_order_cap_refuses_an_order_past_sys_maxsize():
    # the elements are listed on first use, so the huge group below is never built
    assert "elements" not in vars(dg.CyclicProduct((2,)))
    huge = dg.CyclicProduct((2,) * 64)
    with pytest.raises(dg.ResourceLimit) as info:
        dg.cayley_involutions(dg.CayleySpec(huge, generators=((1,) + (0,) * 63,)))
    assert str(info.value) == f"group order {2 ** 64} above cap {CAYLEY_ORDER_CAP}"


def test_cartesian_product_cap_counts_the_product_edges(q3, monkeypatch):
    # Q8 x Q8 has 2 * 1024 * 256 edges, as many as Q16, the largest hypercube
    assert constructors._PRODUCT_EDGE_CAP == 16 * 2 ** 15 == 2 * 1024 * 256
    c4 = dg.hypercube(2)
    monkeypatch.setattr(constructors, "_PRODUCT_EDGE_CAP", 80)
    assert dg.cartesian_product(c4, q3).graph.m == 80
    monkeypatch.setattr(constructors, "_PRODUCT_EDGE_CAP", 79)
    with pytest.raises(dg.ResourceLimit) as info:
        dg.cartesian_product(c4, q3)
    assert str(info.value) == "cartesian product has 80 edges, above cap 79"


def test_remove_standard_matchings(k44, k88):
    for k in (1, 2):
        out = dg.remove_standard_matchings(k44, k)
        assert out.d == 4 - k
        assert out.s_measured == 4 - k
        assert len(out.graph.edges) == 16 - 4 * k
    out = dg.remove_standard_matchings(k88, 3)
    assert out.d == 5 and out.s_measured == 5


def test_remove_standard_matchings_explicit_colors(k44):
    # surviving colors are renumbered to 1..d-k, so check the edge set instead
    out = dg.remove_standard_matchings(k44, 1, colors=(2,))
    dropped = {e for e in range(16) if k44.coloring[e] == 2}
    kept = {k44.graph.edges[e] for e in range(16) if e not in dropped}
    assert set(out.graph.edges) == kept
    assert out.d == 3
    assert out.family["params"]["removed_colors"] == [2]


def test_remove_standard_matchings_rejects_bad_k(k44):
    for k in (0, 4, -1):
        with pytest.raises(dg.InvalidK):
            dg.remove_standard_matchings(k44, k)
    with pytest.raises(dg.InvalidK):
        dg.remove_standard_matchings(k44, 2, colors=(1, 1))
    with pytest.raises(dg.InvalidK):
        dg.remove_standard_matchings(k44, 1, colors=(5,))


def test_cartesian_product_parameters(q3, k44):
    c4 = dg.hypercube(2)
    q1 = dg.hypercube(1)
    p1 = dg.cartesian_product(c4, q3)
    p2 = dg.cartesian_product(k44, q1)
    p3 = dg.cartesian_product(p1, p2)
    for p, (parts, n, m) in ((p1, ((c4, q3), 32, 80)),
                             (p2, ((k44, q1), 16, 40)),
                             (p3, ((p1, p2), 512, 2560))):
        a, b = parts
        assert p.graph.n == n and len(p.graph.edges) == m
        assert p.d == a.d + b.d
        assert p.s_claimed == min(a.d + b.s, b.d + a.s)
        assert p.s_measured == p.s_claimed
        assert p.claim_verified


def test_cayley_involutions_cube_isomorph(q3):
    group = dg.CyclicProduct((2, 2, 2))
    gens = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    cg = dg.cayley_involutions(dg.CayleySpec(group, generators=gens, commuting=gens))
    assert cg.graph.edges == q3.graph.edges
    assert cg.s_claimed == cg.s_measured == 3
    # colorings agree up to relabeling generator order against dimension order
    rho = dg.Permutation((3, 2, 1))
    assert dg.apply_permutation(cg.coloring, rho) == q3.coloring


def test_cayley_involutions_k4():
    group = dg.CyclicProduct((2, 2))
    gens = ((1, 0), (0, 1), (1, 1))
    cg = dg.cayley_involutions(dg.CayleySpec(group, generators=gens, commuting=gens))
    assert cg.graph.n == 4
    assert cg.graph.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert cg.d == 3 and cg.s_measured == 3


def test_cayley_involutions_rejects_bad_specs():
    group = dg.CyclicProduct((2, 2))
    ok = ((1, 0), (0, 1))
    with pytest.raises(dg.InvalidCayleySpec, match="empty"):
        dg.cayley_involutions(dg.CayleySpec(group))
    with pytest.raises(dg.InvalidCayleySpec, match="duplicate"):
        dg.cayley_involutions(dg.CayleySpec(group, generators=((1, 0), (1, 0))))
    with pytest.raises(dg.InvalidCayleySpec, match="identity"):
        dg.cayley_involutions(dg.CayleySpec(group, generators=((0, 0),)))
    z4 = dg.CyclicProduct((4,))
    with pytest.raises(dg.InvalidCayleySpec, match="not an involution"):
        dg.cayley_involutions(dg.CayleySpec(z4, generators=((1,),)))
    with pytest.raises(dg.InvalidCayleySpec, match="commuting subset"):
        dg.cayley_involutions(dg.CayleySpec(group, generators=ok, commuting=((1, 1),)))


@pytest.mark.parametrize("build,field,value,message", [
    (dg.cayley_involutions, "generators", (), "empty generating set"),
    (dg.cayley_involutions, "generators", ((1, 0), (1, 0)), "duplicate generator"),
    (dg.cayley_involutions, "generators", ((0, 0),), "identity in generating set"),
    (dg.cayley_abelian, "half_set", (), "empty half set"),
    (dg.cayley_abelian, "half_set", ((1, 0), (1, 0)), "duplicate half-set generator"),
    (dg.cayley_abelian, "half_set", ((0, 0),), "identity in half set"),
])
def test_connection_set_checks_keep_their_wording(build, field, value, message):
    spec = dg.CayleySpec(dg.CyclicProduct((2, 2)), **{field: value})
    with pytest.raises(dg.InvalidCayleySpec) as info:
        build(spec)
    assert str(info.value) == message


KLEIN = dg.MulTable([[a ^ b for b in range(4)] for a in range(4)])


@pytest.mark.parametrize("build,group,field,members,bad", [
    (dg.cayley_abelian, dg.CyclicProduct((4, 2)), "half_set", ((1,),), (1,)),
    (dg.cayley_abelian, dg.CyclicProduct((4, 2)), "half_set", ((5, 0), (0, 1)), (5, 0)),
    (dg.cayley_involutions, dg.CyclicProduct((2, 2)), "generators", ((1, 0, 5), (0, 1)),
     (1, 0, 5)),
    (dg.cayley_involutions, KLEIN, "generators", (1, -2), -2),
    (dg.cayley_involutions, KLEIN, "generators", (1, 9), 9),
])
def test_connection_set_members_must_be_group_elements(build, group, field, members, bad):
    with pytest.raises(dg.InvalidCayleySpec) as info:
        build(dg.CayleySpec(group, **{field: members}))
    member = "generator" if field == "generators" else "half-set generator"
    assert str(info.value) == f"{member} {bad!r} is not an element of the group"


def test_non_associative_table_gives_an_edge_two_colors():
    # a Latin square with identity 0 in which every element squares to 0,
    # but (1*1)*2 = 2 != 4 = 1*(1*2)
    table = dg.MulTable([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    with pytest.raises(dg.InvalidCayleySpec) as info:
        dg.cayley_involutions(dg.CayleySpec(table, generators=(1, 2, 3, 4)))
    assert str(info.value) == "inconsistent edge color (generators not involutive?)"


def test_cayley_abelian_small_groups():
    c4 = dg.cayley_abelian(dg.CayleySpec(dg.CyclicProduct((4,)), half_set=((1,),)))
    assert c4.graph.n == 4 and c4.d == 2 and c4.s_measured == 2
    g8 = dg.cayley_abelian(dg.CayleySpec(dg.CyclicProduct((4, 2)),
                                         half_set=((1, 0), (0, 1))))
    assert g8.graph.n == 8 and g8.d == 3
    assert g8.s_claimed == g8.s_measured == 3
    assert g8.claim_verified


def test_cayley_abelian_z6_claim_shortfall_is_flagged():
    spec = dg.CayleySpec(dg.CyclicProduct((6,)), half_set=((1,),))
    with pytest.warns(dg.ClaimDiscrepancyWarning) as record:
        cg = dg.cayley_abelian(spec)
    # the warning points at the caller, not into the library
    assert [w.filename for w in record] == [__file__]
    assert cg.s_claimed == 2
    assert cg.s_measured == 1
    assert not cg.claim_verified


def test_cayley_abelian_rejects_bad_specs():
    z6 = dg.CyclicProduct((6,))
    with pytest.raises(dg.InvalidCayleySpec, match="odd order"):
        dg.cayley_abelian(dg.CayleySpec(z6, half_set=((2,),)))
    with pytest.raises(dg.InvalidCayleySpec, match="mutual inverses"):
        dg.cayley_abelian(dg.CayleySpec(z6, half_set=((1,), (5,))))
    z22 = dg.CyclicProduct((2, 2))
    # one order-2 generator cannot reach all four elements
    with pytest.raises(dg.InvalidCayleySpec, match="factor the group"):
        dg.cayley_abelian(dg.CayleySpec(z22, half_set=((1, 0),)))
    with pytest.raises(dg.InvalidCayleySpec, match="empty"):
        dg.cayley_abelian(dg.CayleySpec(z6, half_set=()))


class CountingProduct(dg.CyclicProduct):
    calls = 0

    def mul(self, a, b):
        self.calls += 1
        return super().mul(a, b)


def unit_vectors(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


@pytest.mark.parametrize("orders,half_set", [((1024,), ((1,),)),
                                             ((4,) + (2,) * 8, unit_vectors(9))])
def test_cayley_abelian_multiplies_linearly_often(orders, half_set):
    group = CountingProduct(orders)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", dg.ClaimDiscrepancyWarning)
        cg = dg.cayley_abelian(dg.CayleySpec(group, half_set=half_set))
    assert cg.graph.n == len(group) == 1024
    assert group.calls <= 4 * len(group) * (len(half_set) + 1)


def dihedral_d4():
    """D4 as r^i s^j -> i + 4j, with s r = r^-1 s."""
    def mul(a, b):  # r^i s^j r^k s^l = r^(i -+ k) s^(j + l)
        (j, i), (l, k) = divmod(a, 4), divmod(b, 4)
        return (i + (-k if j else k)) % 4 + 4 * ((j + l) % 2)
    return dg.MulTable([[mul(a, b) for b in range(8)] for a in range(8)])


@pytest.mark.parametrize("half_set", [(1, 4), (4, 1), (1,), (2, 4), (5, 4), (1, 5)],
                         ids=["r,s", "s,r", "r", "r2,s", "rs,s", "r,rs"])
def test_cayley_abelian_refuses_a_non_abelian_group(half_set):
    with pytest.raises(dg.InvalidCayleySpec) as info:
        dg.cayley_abelian(dg.CayleySpec(dihedral_d4(), half_set=half_set))
    assert str(info.value) == "group is not abelian"


def test_cayley_abelian_half_set_in_the_centre_cannot_factor_the_group():
    # r^2 commutes with every element of D4, so the abelian check passes and
    # the factorization check refuses: central elements generate no more
    # than an abelian subgroup
    with pytest.raises(dg.InvalidCayleySpec) as info:
        dg.cayley_abelian(dg.CayleySpec(dihedral_d4(), half_set=(2,)))
    assert str(info.value) == ("power sequences do not factor the group uniquely "
                               "(product of orders 2 != group order 8)")


def test_cayley_abelian_refuses_a_repeated_product():
    # orders 4 * 2 match |Z4 x Z2|, but (1,0)^2 = (2,0) is reached twice
    spec = dg.CayleySpec(dg.CyclicProduct((4, 2)), half_set=((1, 0), (2, 0)))
    with pytest.raises(dg.InvalidCayleySpec) as info:
        dg.cayley_abelian(spec)
    assert str(info.value) == "power sequences do not factor the group uniquely"


def test_mul_table_wraps_explicit_group():
    z3 = dg.MulTable([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert len(z3) == 3
    assert z3.mul(1, 2) == 0
    assert z3.inv(1) == 2
    assert dg.element_order(z3, 1) == 3


def test_certification_failure_on_false_claim(q3):
    with pytest.raises(dg.CertificationFailed):
        dg.constructors._certify(q3.graph, q3.coloring, 99, {}, strict=True)


def test_family_metadata_records_provenance(k44):
    out = dg.remove_standard_matchings(k44, 1)
    assert out.family["name"] == "remove_standard_matchings"
    assert out.family["base"]["name"] == "complete_bipartite_pow2"
    assert out.family["params"]["removed_colors"] == [4]


@pytest.mark.parametrize("label", sorted(BUILDERS))
def test_class_masks_memo_matches_a_fresh_build(label):
    cg = BUILDERS[label]()
    assert "masks" not in cg._kept
    fresh = [sum(1 << e for e in m) for m in dg.standard_matchings(cg.graph, cg.coloring)]
    masks = cg.class_masks()
    assert masks == fresh and len(masks) == cg.d
    assert cg.class_masks() is masks
    # a copy with another coloring builds its own
    images = list(range(cg.d, 0, -1))
    f = dg.apply_permutation(cg.coloring, dg.Permutation(tuple(images)))
    recolored = dataclasses.replace(cg, coloring=f)
    assert "masks" not in recolored._kept
    assert recolored.class_masks() == fresh[::-1]
