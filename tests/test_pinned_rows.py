"""Byte-identity guard for whole ``dsgraph sweep`` rows at the benchmark's parameters.

A sweep row runs ``generate_sparse`` -> ``validate_beta_sparse`` ->
``solve_sparse`` (200 seeded random trials) -> ``verify_solution`` on one
``ColoredGraph`` that every row of the family reuses, as the in-process
benchmark does. Per family, the sha256 covers, row by row in seed order, the
``dumps_instance`` text of the lists and the solution (no solution when the
solve fails), the validation verdict, the failure phase, ``trials_used`` and
the verification verdict. The parameters are the benchmark's: tau = epsilon =
1/2 and, per family, beta and gamma below.

The digests were recorded before ``generate_sparse`` kept its state in flat
lists and before phase one's checker kept one entry per 4-cycle.
"""

import hashlib
from fractions import Fraction

import pytest

import dsgraph as dg
from dsgraph.instance_io import Instance, dumps_instance

HALF = Fraction(1, 2)

# label -> (builder, beta denominator, gamma denominator, seeds)
FAMILIES = {
    "Q7": (lambda: dg.hypercube(7), 7, 7, range(8)),
    "K16,16": (lambda: dg.complete_bipartite_pow2(4), 16, 8, range(8)),
    "Q4xK4,4": (lambda: dg.cartesian_product(dg.hypercube(4), dg.complete_bipartite_pow2(2)),
                8, 8, range(8)),
    "K32,32": (lambda: dg.complete_bipartite_pow2(5), 32, 16, range(2)),
}

PINNED = {
    "Q7": "1128c9d0685b603a23b5ff67b8413531c0a7e8a3ead21600c79e164ce2f32b5a",
    "K16,16": "0a70a70f9ec6f9ef02e6774ba81160dd31f1dfb55321cb1ff26298c836371980",
    "Q4xK4,4": "3fca11b72108cb22b8529274cd620e019b2d2d87dca370455ab110a03b2d1c4b",
    "K32,32": "5abebeecf6b6f149d386bb5caad98aca182c91755c43f4dd75cb2918c43e5435",
}


def rows_digest(label: str) -> str:
    build, beta_den, gamma_den, seeds = FAMILIES[label]
    cg = build()
    beta = Fraction(1, beta_den)
    params = dg.SolverParams(cg.d, cg.s_measured, Fraction(1, gamma_den), HALF, HALF, beta)
    digest = hashlib.sha256()
    for seed in seeds:
        lists = dg.generate_sparse(cg, beta, seed)
        sparse_ok = dg.validate_beta_sparse(cg, lists, beta).ok
        result = dg.solve_sparse(cg, lists, params, dg.RandomSearch(trials=200, seed=seed))
        verdict = dg.verify_solution(cg, result.coloring, lists) if result.ok else None
        text = dumps_instance(Instance(graph=cg.graph, d=cg.d, lists=lists,
                                       solution=result.coloring))
        phase = result.failure.phase if result.failure else None
        digest.update(text.encode())
        digest.update(repr((sparse_ok, phase, result.trials_used, verdict)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("label", sorted(PINNED))
def test_sweep_rows_match_pinned_digest(label):
    assert rows_digest(label) == PINNED[label]
