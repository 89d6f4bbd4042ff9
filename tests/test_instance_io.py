"""dsgraph-v1 files: byte-stable serialization and invariant-naming validation."""

import copy
import json
import warnings
from fractions import Fraction

import pytest

import dsgraph as dg
from dsgraph.instance_io import dumps_instance, from_json_dict, to_json_dict


def full_instance(k44):
    L = dg.generate_sparse(k44, Fraction(1, 4), 7)
    inst = dg.from_colored_graph(k44, lists=L)
    res = dg.solve_sparse(k44, L, dg.SolverParams(4, 4, Fraction(1, 2),
                                                  Fraction(3, 4), Fraction(3, 4)))
    if res.ok:
        inst.solution = res.coloring
        inst.plan = tuple((c.u, c.v, c.z, c.t) for c in res.plan.cycles)
        inst.report = {"phase": "done", "trials": res.trials_used}
    return inst


def test_round_trip_preserves_everything(k44, tmp_path):
    inst = full_instance(k44)
    path = tmp_path / "a.json"
    dg.save_instance(inst, path)
    back = dg.load_instance(path)
    assert back.graph.edges == inst.graph.edges
    assert back.coloring == inst.coloring
    assert back.lists == inst.lists
    assert back.solution == inst.solution
    assert back.plan == inst.plan
    assert back.report == inst.report
    assert back.family == inst.family
    assert back.s_claimed == inst.s_claimed and back.s_measured == inst.s_measured


def test_round_trip_is_byte_stable(k44, tmp_path):
    inst = full_instance(k44)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dg.save_instance(inst, p1)
    dg.save_instance(dg.load_instance(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dumps_is_sorted_and_newline_terminated(q3):
    text = dumps_instance(dg.from_colored_graph(q3))
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["format"] == "dsgraph-v1"
    assert list(data) == sorted(data)


def test_to_colored_graph_recomputes_s(q3):
    inst = dg.from_colored_graph(q3)
    cg = dg.to_colored_graph(inst)
    assert cg.s_measured == 3
    assert cg.graph.edges == q3.graph.edges


def test_to_colored_graph_warns_on_inflated_claim(q3):
    inst = dg.from_colored_graph(q3)
    inst.s_claimed = 99
    with pytest.warns(dg.ClaimDiscrepancyWarning):
        cg = dg.to_colored_graph(inst)
    assert cg.s_measured == 3
    assert not cg.claim_verified


def test_to_colored_graph_requires_coloring(q3):
    inst = dg.from_colored_graph(q3)
    inst.coloring = None
    with pytest.raises(dg.InvalidInstance, match="coloring"):
        dg.to_colored_graph(inst)


def test_missing_s_block_is_recomputed(q3, monkeypatch):
    data = to_json_dict(dg.from_colored_graph(q3))
    del data["s"]
    inst = from_json_dict(data)
    assert inst.s_claimed is None
    calls = []

    def counting(g, f):
        calls.append(g)
        return dg.compute_s(g, f)

    # every module namespace that binds compute_s, so no census goes uncounted
    for module in (dg.constructors, dg.instance_io):
        monkeypatch.setattr(module, "compute_s", counting)
    cg = dg.to_colored_graph(inst)
    assert len(calls) == 1
    assert (cg.s_claimed, cg.s_measured) == (3, 3)
    assert cg.family == q3.family


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.update(format="nope"), "format"),
    (lambda d: d.update(n=True), "nonnegative integer"),
    (lambda d: d.update(edges=[[0, 3], [0, 1], [1, 2], [2, 3]]), "sorted"),
    (lambda d: d["edges"].__setitem__(0, [1, 0]), "canonical"),
    (lambda d: d.update(edges=[[0, 1], [0, 1], [0, 3], [1, 2]]), "duplicates"),
    (lambda d: d.update(coloring=[1, 2]), "length"),
    (lambda d: d.update(coloring=[1, 2, 2, 5]), "colors must be integers"),
    (lambda d: d.update(lists={"9": [1]}), "not a valid edge index"),
    (lambda d: d.update(lists={"0": [1, 1]}), "sorted and unique"),
    (lambda d: d.update(plan=[[0, 1, 2]]), "four vertex integers"),
    (lambda d: d.update(plan=[[0, 1, 2, 9]]), "0..n-1"),
    (lambda d: d.update(report=3), "object"),
])
def test_validation_names_the_broken_invariant(mutate, message):
    base = to_json_dict(dg.from_colored_graph(dg.hypercube(2)))
    data = copy.deepcopy(base)
    mutate(data)
    with pytest.raises(dg.InvalidInstance, match=message):
        from_json_dict(data)


def test_load_rejects_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(dg.InvalidInstance):
        dg.load_instance(p)


def test_lists_survive_round_trip_without_s_inflation(q4, tmp_path):
    L = dg.generate_distance2(q4, 5, 3)
    inst = dg.from_colored_graph(q4, lists=L)
    path = tmp_path / "inst.json"
    dg.save_instance(inst, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = dg.load_instance(path)
    assert back.lists == L
