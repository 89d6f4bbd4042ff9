"""What a cold stage builds: lazy graph indexes and one slot pass per certification.

A CLI stage loads its file, certifies the stored coloring and runs one
command. ``Graph.adjacency`` and ``Graph.edge_index`` are built only when
something reads them, and on a palette of at most twice the average degree
the census's partner rows are the properness test, so a certified load lays
out the (vertex, color) slots once. The tests below hold the lazy indexes to
the eager build they replaced, count the certification's calls, and bound the
load stage's memory as the graph grows.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph import constructors, graph_core, instance_io
from dsgraph.instance_io import from_json_dict, load_instance, save_instance
from tests.conftest import _counting, ref_graph_indexes

LAZY = ("adjacency", "edge_index")


def unbuilt(g):
    return [name for name in LAZY if name not in vars(g)]


def _load(path):
    inst = load_instance(path)
    return inst, dg.to_colored_graph(inst)


def test_cold_stages_leave_the_graph_indexes_unbuilt(tmp_path):
    # the stages of a sparse pipeline on Q7, each on a fresh load
    cg = dg.hypercube(7)
    beta = Fraction(1, 7)
    lists = dg.generate_sparse(cg, beta, 0)
    path = tmp_path / "q7-lists.json"
    save_instance(dg.from_colored_graph(cg, lists), path)
    inst, cg = _load(path)
    assert unbuilt(cg.graph) == list(LAZY)
    params = dg.SolverParams(d=cg.d, s=cg.s_measured, gamma=beta, tau=Fraction(1, 2),
                             epsilon=Fraction(1, 2), beta=beta)
    result = dg.solve_sparse(cg, inst.lists, params, dg.RandomSearch(trials=200, seed=0))
    assert result.ok
    assert unbuilt(cg.graph) == list(LAZY)
    inst.solution = result.coloring
    save_instance(inst, path)
    inst, cg = _load(path)
    assert dg.verify_solution(cg, inst.solution, inst.lists)
    assert unbuilt(cg.graph) == list(LAZY)


@st.composite
def simple_graphs(draw):
    """Random simple graphs: isolated vertices, no vertices and no edges included."""
    n = draw(st.integers(min_value=0, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=30)) if pairs else set()
    return dg.Graph.from_edges(n, edges)


@settings(deadline=None, max_examples=150)
@given(simple_graphs())
def test_lazy_indexes_equal_the_eager_build(g):
    adjacency, index = ref_graph_indexes(g)
    assert unbuilt(g) == list(LAZY)
    assert g.edge_index == index
    assert g.adjacency == adjacency
    assert g.adjacency is g.adjacency  # built once, then kept
    assert g.max_degree == max(map(len, adjacency), default=0)
    assert [g.degree(v) for v in range(g.n)] == list(map(len, adjacency))


@pytest.mark.parametrize("build", [lambda: dg.hypercube(5), lambda: dg.complete_bipartite_pow2(3),
                                   lambda: dg.cartesian_product(dg.hypercube(2),
                                                                dg.complete_bipartite_pow2(2))])
def test_certify_reads_properness_off_the_census_rows(build, monkeypatch):
    cg = build()
    inst = dg.from_colored_graph(cg)
    witness = _counting(monkeypatch, constructors, "properness_witness")
    census = _counting(monkeypatch, constructors, "compute_s")
    rows = _counting(monkeypatch, graph_core, "_partner_rows")
    again = dg.to_colored_graph(inst)
    assert (len(witness), len(census), len(rows)) == (0, 1, 1)
    assert again.s_measured == cg.s_measured


def test_wide_palette_certification_uses_the_witness_scan(monkeypatch):
    # the star K1,5 on 5 colors: d * n = 30 > 4m = 20, so no partner rows
    inst = from_json_dict({"format": "dsgraph-v1", "n": 6, "d": 5,
                           "edges": [[0, i] for i in range(1, 6)], "coloring": [1, 2, 3, 4, 5]})
    witness = _counting(monkeypatch, constructors, "properness_witness")
    rows = _counting(monkeypatch, graph_core, "_partner_rows")
    assert dg.to_colored_graph(inst).s_measured == 1
    assert (len(witness), len(rows)) == (1, 0)


def test_an_improper_narrow_coloring_is_named_by_the_witness_scan(q3, monkeypatch):
    inst = dg.from_colored_graph(q3)
    colors = list(q3.coloring.colors)
    colors[1] = colors[0]  # edges 0 and 1 of Q3 meet at vertex 0
    inst.coloring = dg.EdgeColoring(tuple(colors), 3)
    witness = _counting(monkeypatch, constructors, "properness_witness")
    census = _counting(monkeypatch, constructors, "compute_s")
    with pytest.raises(dg.CertificationFailed, match="edges 0 and 1 share color"):
        dg.to_colored_graph(inst)
    assert (len(witness), len(census)) == (1, 0)


def test_wide_palette_certification_holds_only_the_edge_slots():
    # one edge with d = 999: a table of n * (d + 1) slots would peak at 7.7 MB
    inst = from_json_dict({"format": "dsgraph-v1", "n": 1000, "d": 999,
                           "edges": [[0, 1]], "coloring": [1]})
    tracemalloc.start()
    try:
        cg = dg.to_colored_graph(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cg.s_measured == 1
    assert peak < 1 << 20


def test_naming_a_wide_palette_repeat_holds_only_the_edge_slots():
    # two edges at vertex 0, both colored 1, with n = 65536 and d = 255: a
    # scan that kept one dict per vertex would peak at 4.6 MB
    inst = from_json_dict({"format": "dsgraph-v1", "n": 65536, "d": 255,
                           "edges": [[0, 1], [0, 2]], "coloring": [1, 1]})
    tracemalloc.start()
    try:
        with pytest.raises(dg.CertificationFailed,
                           match="edges 0 and 1 share color 1 at vertex 0"):
            dg.to_colored_graph(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert dg.find_violation(inst.graph, inst.coloring, dg.EMPTY) == (0, 1, 1, 0)


CONSTRUCTOR_FAMILIES = {
    "Q5": lambda: dg.hypercube(5),
    "K8,8": lambda: dg.complete_bipartite_pow2(3),
    "K8,8 less two matchings": lambda: dg.remove_standard_matchings(
        dg.complete_bipartite_pow2(3), 2, (2, 5)),
    "Q2xK4,4": lambda: dg.cartesian_product(dg.hypercube(2), dg.complete_bipartite_pow2(2)),
    "Cayley involutions on Z2^3": lambda: dg.cayley_involutions(dg.CayleySpec(
        dg.CyclicProduct((2, 2, 2)), generators=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        commuting=((1, 0, 0),))),
    "Cayley abelian on Z4xZ4": lambda: dg.cayley_abelian(dg.CayleySpec(
        dg.CyclicProduct((4, 4)), half_set=((1, 0), (0, 1)))),
}


@pytest.mark.parametrize("label", sorted(CONSTRUCTOR_FAMILIES))
def test_class_masks_equal_the_standard_matchings(label):
    cg = CONSTRUCTOR_FAMILIES[label]()
    expected = [sum(1 << e for e in m)
                for m in dg.standard_matchings(cg.graph, cg.coloring)]
    assert cg.class_masks() == expected
    assert cg.class_masks() is cg.class_masks()


# The load stage's resource contract: one partner-row pass per certified
# load, and a tracemalloc peak that grows about linearly in m. Measured on
# Q10 -> Q11 -> Q12 (m = 5120, 11264, 24576): peaks of 1387, 3177 and 7081
# KB, growth exponents 1.05 and 1.03. Each rung loads in a fresh
# interpreter: in one that has run other tests, the free lists (up to 2000
# tuples of each small size) hold a state that moved a Q9 -> Q10 step from
# 1.07 to 1.105 in a full tier-1 run. The rungs start at Q10 because vertex
# ids below 256 are the interpreter's cached small ints, which a parsed edge
# list does not allocate: all of Q8's and half of Q9's, so the steps
# Q8 -> Q9 and Q9 -> Q10 read 1.16 and 1.09.
LOAD_PEAK_EXPONENT = 1.1

LOAD_RUNG = """
import json, sys, tracemalloc
from dsgraph import graph_core, instance_io
calls = []
partner_rows = graph_core._partner_rows
graph_core._partner_rows = lambda *args: calls.append(args) or partner_rows(*args)
tracemalloc.start()
cg = instance_io.to_colored_graph(instance_io.load_instance(sys.argv[1]))
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps([cg.graph.m, peak, len(calls), list(vars(cg.graph))]))
"""


def test_load_stage_ladder(tmp_path):
    package_root = str(Path(dg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    rungs = []
    for d in (10, 11, 12):
        path = tmp_path / f"q{d}.json"
        save_instance(dg.from_colored_graph(dg.hypercube(d)), path)
        child = subprocess.run([sys.executable, "-c", LOAD_RUNG, str(path)], env=env,
                               capture_output=True, text=True, check=True)
        m, peak, calls, built = json.loads(child.stdout)
        assert calls == 1
        assert not set(LAZY) & set(built)
        rungs.append((m, peak))
    for (m0, p0), (m1, p1) in zip(rungs, rungs[1:]):
        assert math.log(p1 / p0) / math.log(m1 / m0) < LOAD_PEAK_EXPONENT
