"""Forbidden-color lists: sparsity validation and seeded generators."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph import list_assignments
from dsgraph.instance_io import from_json_dict
from dsgraph.list_assignments import _shuffle
from tests.conftest import ref_generate_distance2, ref_generate_sparse
from tests.test_neighborhood_kernel import BUILDERS


def test_from_dict_normalizes():
    L = dg.ListAssignment.from_dict({3: [2, 1, 2], 0: []})
    assert L.get(3) == frozenset({1, 2})
    assert L.get(0) == frozenset()
    assert L.support() == (3,)
    assert L.total_entries() == 2


def test_empty_assignment_constant():
    assert dg.EMPTY.support() == ()
    assert dg.EMPTY.total_entries() == 0


def test_validate_accepts_generated_sparse(k44):
    L = dg.generate_sparse(k44, Fraction(1, 4), 7)
    report = dg.validate_beta_sparse(k44, L, Fraction(1, 4))
    assert report.ok
    assert report.violations == ()
    # beta*s = 1 here, so every list is a singleton
    assert all(len(cs) == 1 for _, cs in L.items())


def test_validate_flags_per_edge_overflow(q3):
    L = dg.ListAssignment.from_dict({0: [1, 2]})
    report = dg.validate_beta_sparse(q3, L, Fraction(1, 3))
    assert not report.ok
    assert any(v.condition == "i" and v.witness == (0,) and v.count == 2
               for v in report.violations)
    # a fractional bound: 2 > 3/2 is flagged and reported as the Fraction
    report = dg.validate_beta_sparse(q3, L, Fraction(1, 2))
    assert [(v.condition, v.count, v.bound) for v in report.violations] == \
        [("i", 2, Fraction(3, 2))]
    assert dg.validate_beta_sparse(q3, L, Fraction(2, 3)).ok


def test_validate_flags_vertex_color_overflow(q3):
    # edges 0 and 1 meet at vertex 0 and both forbid color 3
    L = dg.ListAssignment.from_dict({0: [3], 1: [3]})
    report = dg.validate_beta_sparse(q3, L, Fraction(1, 3))
    assert not report.ok
    assert any(v.condition == "ii" and v.witness == (0, 3) for v in report.violations)


def test_validate_flags_neighborhood_matching_overflow(k44):
    # two color-1 edges forbidding the same color inside one 6-neighborhood
    L = dg.ListAssignment.from_dict({0: [2], 5: [2]})
    report = dg.validate_beta_sparse(k44, L, Fraction(1, 4))
    assert not report.ok
    v = next(v for v in report.violations if v.condition == "iii")
    assert v.count == 2
    assert v.bound == Fraction(1)
    anchor, matching_color, color = v.witness
    assert matching_color == 1 and color == 2


def test_validate_monotone_in_beta(q3):
    L = dg.generate_sparse(q3, Fraction(1, 3), 5)
    assert dg.validate_beta_sparse(q3, L, Fraction(1, 3)).ok
    assert dg.validate_beta_sparse(q3, L, Fraction(1, 2)).ok
    assert dg.validate_beta_sparse(q3, L, 1).ok


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2 ** 30 - 1))
def test_validate_monotone_in_beta_random_lists(bits):
    # arbitrary small lists: whatever beta accepts, any larger one must too
    q3 = dg.hypercube(3)
    raw = {}
    for e in range(12):
        cs = [c for c in (1, 2, 3) if bits >> (e * 2) & (1 << (c % 2))]
        if cs:
            raw[e] = cs
    L = dg.ListAssignment.from_dict(raw)
    ok_small = dg.validate_beta_sparse(q3, L, Fraction(1, 3)).ok
    ok_big = dg.validate_beta_sparse(q3, L, Fraction(2, 3)).ok
    assert ok_big or not ok_small


def test_generate_sparse_zero_beta_is_empty(q3):
    assert dg.generate_sparse(q3, 0, 9) == dg.EMPTY


def test_generate_sparse_refuses_too_many_pairs_before_listing_them(monkeypatch):
    beta = Fraction(1, 3)
    expected = dg.generate_sparse(dg.hypercube(3), beta, 5)
    # Q3 has m * d = 12 * 3 = 36 pairs: admitted at the cap, with the same lists
    monkeypatch.setattr(list_assignments, "_LIST_PAIRS_CAP", 36)
    assert dg.generate_sparse(dg.hypercube(3), beta, 5) == expected
    monkeypatch.setattr(list_assignments, "_LIST_PAIRS_CAP", 35)
    cg = dg.hypercube(3)
    shuffles = []
    monkeypatch.setattr(list_assignments, "_shuffle", lambda *a: shuffles.append(a))
    with pytest.raises(dg.ResourceLimit, match=r"^36 \(edge, color\) pairs above cap 35$"):
        dg.generate_sparse(cg, beta, 5)
    assert shuffles == [] and cg.graph._balls == {}  # refused before either was built
    assert dg.generate_sparse(cg, 0, 5) == dg.EMPTY  # no scan, nothing to refuse


def test_the_pair_cap_admits_q16_and_k128_128():
    cap = list_assignments._LIST_PAIRS_CAP
    assert 16 * (16 << 15) <= cap <= 1 << 24  # Q16: d = 16, m = 16 * 2^15
    assert 128 * 128 * 128 <= cap  # K128,128: d = 128, m = 128^2


def test_generate_sparse_deterministic_per_seed(q4):
    a = dg.generate_sparse(q4, Fraction(1, 4), 12)
    b = dg.generate_sparse(q4, Fraction(1, 4), 12)
    c = dg.generate_sparse(q4, Fraction(1, 4), 13)
    assert a == b
    assert a != c


def test_generate_sparse_output_always_validates(q4, k88):
    for cg in (q4, k88):
        for seed in range(6):
            for beta in (Fraction(1, cg.s), Fraction(1, 2)):
                L = dg.generate_sparse(cg, beta, seed)
                assert dg.validate_beta_sparse(cg, L, beta).ok


@pytest.mark.parametrize("n", [*range(65), 32768])
def test_local_shuffle_makes_the_draws_of_random_shuffle(n):
    for seed in (0, 1, 12345):
        expected, got = list(range(n)), list(range(n))
        lib, local = random.Random(seed), random.Random(seed)
        lib.shuffle(expected)
        _shuffle(local, got)
        assert got == expected
        assert local.getrandbits(64) == lib.getrandbits(64)


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=2 ** 64), st.lists(
    st.integers(min_value=0, max_value=70), min_size=1, max_size=6))
def test_repeated_shuffles_on_one_rng_match_random_shuffle(seed, lengths):
    # the permutation trials reshuffle one list in place on one Random, and
    # generate_distance2 draws randint and sample after its shuffle: each
    # shuffle must leave both the list and the generator's state as rng.shuffle
    lib, local = random.Random(seed), random.Random(seed)
    for n in lengths:
        expected, got = list(range(n)), list(range(n))
        for _ in range(3):
            lib.shuffle(expected)
            _shuffle(local, got)
            assert got == expected
            assert local.getstate() == lib.getstate()


@pytest.mark.parametrize("label", ["Q4", "Q6", "K8,8", "Q2xK4,4"])
def test_generate_distance2_matches_the_random_shuffle_reference(label):
    cg = BUILDERS[label]()
    for seed in range(8):
        for max_list in range(1, cg.s_measured):
            assert (dg.generate_distance2(cg, seed, max_list)
                    == ref_generate_distance2(cg, seed, max_list))


FAMILY_BUILDERS = {**BUILDERS, "Q7": lambda: dg.hypercube(7),
                   "K16,16": lambda: dg.complete_bipartite_pow2(4),
                   "Q4xK4,4": lambda: dg.cartesian_product(dg.hypercube(4),
                                                           dg.complete_bipartite_pow2(2))}


@pytest.mark.parametrize("label", sorted(FAMILY_BUILDERS))
def test_generate_sparse_matches_the_tuple_shuffle_reference(label):
    cg = FAMILY_BUILDERS[label]()
    s = cg.s_measured
    for k in (1, 2, 3):
        for seed in range(4):
            L = dg.generate_sparse(cg, Fraction(k, s), seed)
            ref = ref_generate_sparse(cg, Fraction(k, s), seed)
            # dict order included: it is the order of first admission
            assert list(L.items()) == list(ref.items())
            # and each frozenset iterates as the reference's does
            assert [tuple(cs) for cs in L.lists.values()] == \
                [tuple(cs) for cs in ref.lists.values()]


SCAN_LABELS = ["Q5", "Q6", "Q7", "K8,8", "K16,16", "Q4xK4,4", "2xC4"]
_scan_graphs: dict = {}


def scan_graph(label):
    if label not in _scan_graphs:
        _scan_graphs[label] = FAMILY_BUILDERS[label]()
    return _scan_graphs[label]


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(SCAN_LABELS), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2 ** 32))
def test_generate_sparse_stops_at_saturation_with_the_reference_lists(label, k, seed):
    cg = scan_graph(label)
    beta = Fraction(k, cg.s_measured)
    L = dg.generate_sparse(cg, beta, seed)
    ref = ref_generate_sparse(cg, beta, seed)
    assert list(L.items()) == list(ref.items())
    assert [tuple(cs) for cs in L.lists.values()] == [tuple(cs) for cs in ref.lists.values()]


def test_generate_sparse_scan_stops_early_on_q7(monkeypatch):
    # every pair past the first quarter of the shuffle is replaced by None,
    # which fails as soon as the scan reads it
    shuffle = list_assignments._shuffle

    def first_quarter(rng, x):
        shuffle(rng, x)
        x[len(x) // 4:] = [None] * (len(x) - len(x) // 4)

    cg = scan_graph("Q7")
    monkeypatch.setattr(list_assignments, "_shuffle", first_quarter)
    for k in (1, 2, 3):
        for seed in range(5):
            L = dg.generate_sparse(cg, Fraction(k, 7), seed)
            assert L == ref_generate_sparse(cg, Fraction(k, 7), seed)


def test_generate_sparse_state_grows_with_the_pairs_met_not_with_d():
    # one edge with d = 999: tables sized n * d or d * d would pass 15 MB
    cg = dg.to_colored_graph(from_json_dict({"format": "dsgraph-v1", "n": 1000, "d": 999,
                                             "edges": [[0, 1]], "coloring": [1]}))
    cg.graph.edge_balls(6)
    tracemalloc.start()
    try:
        L = dg.generate_sparse(cg, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L == ref_generate_sparse(cg, 1, 0)
    assert L.total_entries() == 1
    assert peak < 1 << 20


def test_generate_sparse_rejects_out_of_range_colors(q3):
    L = dg.ListAssignment.from_dict({0: [4]})
    with pytest.raises(dg.ColorOutOfRange):
        dg.validate_beta_sparse(q3, L, 1)


def test_generate_distance2_support_and_sizes(q3, q4, k88):
    for cg in (q3, q4, k88):
        for seed in range(5):
            L = dg.generate_distance2(cg, seed, cg.s - 1)
            assert dg.support_is_distance2_matching(cg, L)
            assert dg.is_distance_t_matching(cg.graph, L.support(), 2)
            assert all(1 <= len(cs) <= cg.s - 1 for _, cs in L.items())
            assert L.support()


def test_generate_distance2_deterministic(q4):
    assert dg.generate_distance2(q4, 2, 3) == dg.generate_distance2(q4, 2, 3)


def test_generate_distance2_bounds(q3):
    with pytest.raises(dg.InvalidBound):
        dg.generate_distance2(q3, 0, 3)
    with pytest.raises(dg.InvalidBound):
        dg.generate_distance2(q3, 0, -1)
    assert dg.generate_distance2(q3, 0, 0) == dg.EMPTY


def test_conflict_edges_matches_brute_force(q4):
    g, h = q4.graph, q4.coloring
    for seed in range(4):
        L = dg.generate_sparse(q4, Fraction(1, 2), seed)
        brute = frozenset(e for e in range(len(g.edges)) if h[e] in L.get(e))
        assert dg.conflict_edges(g, h, L) == brute


def test_conflict_edges_trivial_cases(q3):
    g, h = q3.graph, q3.coloring
    assert dg.conflict_edges(g, h, dg.EMPTY) == frozenset()
    L = dg.ListAssignment.from_dict({0: [h[0]]})
    assert dg.conflict_edges(g, h, L) == frozenset({0})


def test_neighborhood_counts_monotone_under_inclusion(k88):
    # condition-(iii) counts over a larger neighborhood dominate smaller ones
    g, h = k88.graph, k88.coloring
    L = dg.generate_sparse(k88, Fraction(1, 4), 3)
    pairs = [(e, c) for e, cs in L.items() for c in cs]
    for anchor in range(0, len(g.edges), 7):
        small = dg.t_neighborhood(g, anchor, 4)
        large = dg.t_neighborhood(g, anchor, 6)
        assert small <= large
        for m in range(1, h.d + 1):
            for c in range(1, h.d + 1):
                cnt = lambda nb: sum(1 for e, cc in pairs
                                     if cc == c and h[e] == m and e in nb)
                assert cnt(small) <= cnt(large)
