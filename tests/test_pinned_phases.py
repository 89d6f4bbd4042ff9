"""Byte-identity guard for the two solver phases with nonempty conflict sets.

The CLI digests in ``test_pinned_outputs`` run at the default gamma, where
floor(gamma*s) = 0, so phase one there accepts only conflict-free
permutations and phase two never plans a swap. These digests pin both
phases where they have work to do:

* ``check_permutation`` ok flags and witness tuples, in order, for six
  seeded permutations of ``generate_sparse`` lists (beta = 2/s) at
  gamma = 1/s, tau = 1/4;
* ``construct_swap_plan`` on the permutation a 40-trial phase-one search
  accepts (beta = 1/s, tau = 1/2, epsilon = 1/2, gamma = 1/s and 2/s,
  seeds 0-7): the plan's cycles, used edges, selection records and final
  coloring, or the stuck edge and its elimination breakdown.

The digests were recorded before phase one became a single witness stream
and before phase two's edge sets became bitmasks.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

import dsgraph as dg

FAMILIES = {
    "Q4": lambda: dg.hypercube(4),
    "Q6": lambda: dg.hypercube(6),
    "K4,4": lambda: dg.complete_bipartite_pow2(2),
    "K8,8": lambda: dg.complete_bipartite_pow2(3),
    "K16,16": lambda: dg.complete_bipartite_pow2(4),
    "Q2xK4,4": lambda: dg.cartesian_product(dg.hypercube(2), dg.complete_bipartite_pow2(2)),
    "Q4xK4,4": lambda: dg.cartesian_product(dg.hypercube(4), dg.complete_bipartite_pow2(2)),
}

PINNED_CHECK = {
    "Q4": "e288d61720a39bb3bf2f4ca302dbc0373867faa83f4b68bbc75898b23df1986e",
    "K4,4": "d780efc0f044182989cdacf98a8ec0723262435453fa83d0e15bc0e4b835b937",
    "K8,8": "f78f91bf8e8df849719e61ec14d38502fb574543a532d1ed436e266711308fc1",
    "Q2xK4,4": "048f3c5876c2067ca54b3edab4a9051de3989a5a7db7d261cdd11218b187d49d",
}

PINNED_PLAN = {
    ("Q6", 1): "5abdf87b3d2197830f03bc0fb56e0d414088ce2014c7e091346d32cf6557fe53",
    ("Q6", 2): "5d675d61371f54848a355878148390ce9293cd420e67885cb745ae9f87054a29",
    ("K16,16", 1): "b2ad624a6bd529403f9a4e28babde88de5c34c3fca6ef66296746c9d1507c7b7",
    ("K16,16", 2): "1457445cd93f88f2c54b86ac87469a2a95ff9ae6d10bfade1ebf091e4fc774d8",
    ("Q4xK4,4", 1): "bcf6569e698d03491c3ba06dc4b400f4f0a8411c2b4d82b3b425015b25cb3ed1",
    ("Q4xK4,4", 2): "ba1033ee3e2bcf01f4de1dad903070de63c6ba93ae0d98300cd9280a05fd5f5b",
}


def check_digest(name: str) -> tuple[str, Counter]:
    cg = FAMILIES[name]()
    s = cg.s_measured
    L = dg.generate_sparse(cg, Fraction(2, s), seed=0)
    p = dg.SolverParams(cg.d, s, Fraction(1, s), Fraction(1, 4), Fraction(1, 2))
    rng = random.Random(name)
    digest = hashlib.sha256()
    kinds = Counter()
    for _ in range(6):
        images = list(range(1, cg.d + 1))
        rng.shuffle(images)
        res = dg.check_permutation(cg, L, dg.Permutation(tuple(images)), p)
        digest.update(repr((res.ok_a, res.ok_b, res.ok_c, res.witnesses_a,
                            res.witnesses_b, res.witnesses_c)).encode())
        kinds.update(a=len(res.witnesses_a), b=len(res.witnesses_b),
                     c=len(res.witnesses_c))
    return digest.hexdigest(), kinds


def plan_digest(name: str, gamma_s: int) -> str:
    cg = FAMILIES[name]()
    s = cg.s_measured
    p = dg.SolverParams(cg.d, s, Fraction(gamma_s, s), Fraction(1, 2), Fraction(1, 2))
    digest = hashlib.sha256()
    for seed in range(8):
        L = dg.generate_sparse(cg, Fraction(1, s), seed)
        try:
            rho = dg.find_permutation(cg, L, p, dg.RandomSearch(40, seed=seed))
        except dg.PermutationBudgetExceeded:
            digest.update(b"no permutation")
            continue
        hprime = dg.apply_permutation(cg.coloring, rho)
        try:
            final, plan = dg.construct_swap_plan(cg, hprime, L, p)
        except dg.SwapPlanStuck as exc:
            stuck = (rho.images, exc.edge, sorted(exc.eliminated.items()))
            digest.update(repr(stuck).encode())
            continue
        digest.update(repr((rho.images, plan.cycles, sorted(plan.used), plan.records,
                            final.colors)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_CHECK))
def test_check_permutation_witnesses_match_pinned_digest(name):
    digest, kinds = check_digest(name)
    assert all(kinds[k] for k in "abc"), kinds
    assert digest == PINNED_CHECK[name]


@pytest.mark.parametrize("name,gamma_s", sorted(PINNED_PLAN))
def test_construct_swap_plan_matches_pinned_digest(name, gamma_s):
    assert plan_digest(name, gamma_s) == PINNED_PLAN[name, gamma_s]
