"""Search guard: the benchmark's own oracle inputs, hashed against a pinned digest.

The job plan below is that of the in-process workload's oracle group at
seed 0 (``perfbench/workloads.py::oracle``): per family, distance-2 lists
for seeds 0..n-1 and random lists for seeds 0..r-1, then the pinned Q8
distance-2 seeds, 303 jobs in that order. ``random_lists(g, d, seed, 2)``
draws the same lists as the workload's own helper whenever d >= 2. Each job
runs ``oracle_avoidable`` at the workload's budget, and the sha256 covers
(label, kind, seed, avoidable, witness colors, nodes, item-forced nodes,
item dead ends) of every job in plan order. The digest was recorded before
the counter planes were kept complemented, so any change to the nodes the
search visits, its counters or its witnesses shows here.
"""

import hashlib

import dsgraph as dg
from tests.conftest import random_lists

ORACLE_NODE_BUDGET = 3000

# (label, constructor, distance-2 seeds, random seeds)
JOB_PLAN = [
    ("Q3", lambda: dg.hypercube(3), 15, 15),
    ("Q4", lambda: dg.hypercube(4), 15, 15),
    ("Q5", lambda: dg.hypercube(5), 100, 20),
    ("Q6", lambda: dg.hypercube(6), 12, 6),
    ("K4,4", lambda: dg.complete_bipartite_pow2(2), 15, 15),
    ("K8,8", lambda: dg.complete_bipartite_pow2(3), 20, 20),
    ("K16,16", lambda: dg.complete_bipartite_pow2(4), 15, 10),
    ("Q7", lambda: dg.hypercube(7), 8, 0),
]
PINNED_Q8_SEEDS = (0, 10)

PINNED_NODES = 36347
PINNED_DIGEST = "8f72f166cc340deb3d94175eed0e9b179ec12ad16e31b7a5030d089792b35997"


def oracle_jobs():
    jobs = []
    for label, build, n_d2, n_random in JOB_PLAN:
        cg = build()
        jobs += [(label, cg, "d2", s) for s in range(n_d2)]
        jobs += [(label, cg, "random", s) for s in range(n_random)]
    q8 = dg.hypercube(8)
    jobs += [("Q8", q8, "d2", s) for s in PINNED_Q8_SEEDS]
    return jobs


def test_benchmark_oracle_jobs_match_pinned_digest():
    jobs = oracle_jobs()
    assert len(jobs) == 303
    digest = hashlib.sha256()
    nodes = 0
    for label, cg, kind, seed in jobs:
        if kind == "d2":
            L = dg.generate_distance2(cg, seed, cg.s_measured - 1)
        else:
            L = random_lists(cg.graph, cg.d, seed, 2)
        # an undecided job raises OracleBudgetExceeded
        res = dg.oracle_avoidable(cg.graph, cg.d, L, limit=ORACLE_NODE_BUDGET)
        nodes += res.nodes_explored
        colors = res.witness.colors if res.avoidable else None
        row = (label, kind, seed, res.avoidable, colors, res.nodes_explored,
               res.item_forced, res.item_dead_ends)
        digest.update(repr(row).encode() + b"\n")
    assert nodes == PINNED_NODES
    assert digest.hexdigest() == PINNED_DIGEST
