"""dsgraph-v1 files: byte-stable serialization and invariant-naming validation."""

import copy
import dataclasses
import functools
import json
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsgraph as dg
from dsgraph.instance_io import dumps_instance, from_json_dict
from tests.conftest import ref_dumps_instance, ref_from_json_dict, to_json_dict

ARTIFACT_DIR = Path(__file__).resolve().parent / "artifacts"
ARTIFACTS = sorted(ARTIFACT_DIR.rglob("*.json"))


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
    with pytest.warns(dg.ClaimDiscrepancyWarning) as record:
        cg = dg.to_colored_graph(inst)
    # the warning points at the caller, not into the library
    assert [w.filename for w in record] == [__file__]
    assert cg.s_measured == 3
    assert not cg.claim_verified


def test_to_colored_graph_names_the_repeated_color(q3):
    inst = dg.from_colored_graph(q3)
    colors = list(q3.coloring.colors)
    colors[1] = colors[0]  # edges 0 and 1 of Q3 are (0,1) and (0,2)
    inst.coloring = dg.EdgeColoring(tuple(colors), 3)
    with pytest.raises(dg.CertificationFailed) as info:
        dg.to_colored_graph(inst)
    assert str(info.value) == ("hypercube: coloring is not proper: "
                               f"edges 0 and 1 share color {colors[0]} at vertex 0")


@pytest.mark.parametrize("cut", [lambda cs: (0, *cs[1:]), lambda cs: cs[:-1]])
def test_to_colored_graph_refuses_a_partial_coloring(q3, cut):
    # a hand-built Instance may leave an edge uncolored or carry too few colors
    inst = dg.from_colored_graph(q3)
    inst.coloring = dg.EdgeColoring(cut(q3.coloring.colors), 3)
    with pytest.raises(dg.CertificationFailed) as info:
        dg.to_colored_graph(inst)
    assert str(info.value) == "hypercube: coloring must color each of the 12 edges"


def test_a_loaded_coloring_is_certified_as_loaded(q3, tmp_path):
    path = tmp_path / "q3.json"
    dg.save_instance(dg.from_colored_graph(q3), path)
    inst = dg.load_instance(path)
    cg = dg.to_colored_graph(inst)
    assert cg.coloring is inst.coloring
    assert cg.d == inst.d == 3


def test_to_colored_graph_takes_the_instance_d(q3):
    # a hand-built Instance whose coloring carries another d is re-wrapped
    inst = dg.from_colored_graph(q3)
    inst.coloring = dg.EdgeColoring(q3.coloring.colors, 5)
    cg = dg.to_colored_graph(inst)
    assert cg.d == cg.coloring.d == 3
    assert cg.coloring.colors == q3.coloring.colors


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

    def counting(g, f, *rows):  # rows: the census rows _certify already built
        calls.append(g)
        return dg.compute_s(g, f, *rows)

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
    # str.isdigit() holds for "²" but int() refuses it
    (lambda d: d.update(lists={"²": [1]}), "'²' is not in canonical form"),
    (lambda d: d.update(lists={"01": [1]}), "'01' is not in canonical form"),
    (lambda d: d.update(lists={"٠": [1]}), "'٠' is not in canonical form"),
    # "00" names edge 0 as well, and would drop one of the two lists
    (lambda d: d.update(lists={"0": [1], "00": [2]}), "'00' is not in canonical form"),
    (lambda d: d.update(lists={"1" + "0" * 5000: [1]}), "not a valid edge index"),
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


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_archived_files_resave_byte_identically_and_certify(path, tmp_path):
    inst = dg.load_instance(path)
    dg.save_instance(inst, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    assert dg.to_colored_graph(inst).s_measured == inst.s_measured


def test_every_archived_file_is_found():
    assert len(ARTIFACTS) == 13


class _Int(int):
    """An int subclass: the array-level passes leave it to the per-item loop."""


class _List(list):
    """A list subclass, likewise."""


@functools.cache
def _documents():
    """Parsed JSON of real instances with every block the faults touch."""
    k44, q3 = dg.complete_bipartite_pow2(2), dg.hypercube(3)
    sparse = dg.from_colored_graph(k44, lists=dg.generate_sparse(k44, Fraction(1, 2), 7))
    sparse.solution = k44.coloring
    sparse.plan = tuple(c.vertices for c in dg.two_colored_cycles_through(
        k44.graph, k44.coloring, 0))
    sparse.report = {"phase": "done"}
    docs = {"K4,4 sparse": to_json_dict(sparse),
            "Q3 distance-2": to_json_dict(dg.from_colored_graph(
                q3, lists=dg.generate_distance2(q3, 5, 2))),
            "archived Q4": json.loads((ARTIFACT_DIR / "distance2_exhaustion"
                                       / "hypercube4_seed49.json").read_text(encoding="utf-8"))}
    return {label: json.loads(json.dumps(doc)) for label, doc in docs.items()}


def _array(doc, key, default):
    if not isinstance(doc.get(key), list) or not doc[key]:
        doc[key] = default
    return doc[key]


def _odd_value(doc, rng):
    return rng.choice([doc["n"], doc["d"] + 1, 0, -1, True, 1.5, "1", None, _Int(1)])


def _fault_edges(doc, rng):
    edges = _array(doc, "edges", [[0, 1]])
    i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
    item = edges[i]  # an earlier fault may have broken it
    pair = list(item[:2]) if isinstance(item, (list, tuple)) and len(item) > 1 else [0, 1]
    edges[i] = rng.choice([
        edges[j], pair[::-1], pair[:1], pair * 2, tuple(pair), "uv", _List(pair),
        [pair[0], _odd_value(doc, rng)], [_odd_value(doc, rng), pair[1]]])
    if rng.random() < 0.2:
        del edges[j]


def _fault_colors(key):
    def fault(doc, rng):
        colors = _array(doc, key, [1] * len(doc["edges"]))
        i = rng.randrange(len(colors))
        kind = rng.randrange(4)
        if kind == 0:
            colors[i] = _odd_value(doc, rng)
        elif kind == 1:
            del colors[i]
        elif kind == 2:
            doc[key] = rng.choice([tuple(colors), "x", None, _List(colors)])
        else:
            del doc[key]
    return fault


def _fault_lists(doc, rng):
    lists = doc.get("lists")
    if not isinstance(lists, dict):
        lists = doc["lists"] = {}
    m, d = len(doc["edges"]), doc["d"]
    if not lists or rng.random() < 0.25:
        lists[str(rng.randrange(m + 2))] = sorted(rng.sample(range(1, d + 1), rng.randint(0, d)))
    key = rng.choice(list(lists))
    kind = rng.randrange(3)
    if kind == 0:
        new = rng.choice(["0" + str(key), "²", "٠", " 1", "+1", "1_0", "-1", str(m), "x", "",
                          "9" * 5000, 3, "0"])
        lists[new] = lists.pop(key)
    elif kind == 1:
        colors = lists[key] if isinstance(lists[key], list) else [1]
        lists[key] = rng.choice([colors + colors[:1], colors[::-1] + [1], [0], [d + 1], [True],
                                 [1.0], ["1"], tuple(colors), None, [], _List(colors),
                                 [_Int(1)]])
    else:
        doc["lists"] = rng.choice([[], "x", None])


def _fault_plan(doc, rng):
    plan = _array(doc, "plan", [[0, 1, 3, 2]])
    i = rng.randrange(len(plan))
    row = list(plan[i])
    if rng.random() < 0.5:
        row[rng.randrange(len(row))] = _odd_value(doc, rng)
        plan[i] = row
    else:
        plan[i] = rng.choice([row[:3], row + row[:1], tuple(row), _List(row), [_Int(0), *row[1:]]])
    if rng.random() < 0.1:
        doc["plan"] = rng.choice([{}, "x", None])


FAULTS = {"edges": _fault_edges, "coloring": _fault_colors("coloring"),
          "solution": _fault_colors("solution"), "lists": _fault_lists, "plan": _fault_plan}


def _outcome(validate, doc):
    try:
        return "ok", validate(copy.deepcopy(doc))
    except dg.InvalidInstance as exc:
        return "invalid", str(exc)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(["K4,4 sparse", "Q3 distance-2", "archived Q4"]),
       st.lists(st.tuples(st.sampled_from(sorted(FAULTS)), st.integers(0, 2 ** 32)),
                min_size=1, max_size=2))
def test_array_checks_agree_with_the_per_item_validator(label, faults):
    doc = copy.deepcopy(_documents()[label])
    for name, seed in faults:
        FAULTS[name](doc, random.Random(seed))
    outcome = _outcome(from_json_dict, doc)
    assert outcome == _outcome(ref_from_json_dict, doc)
    if outcome[0] == "ok":  # the graph keeps the columns the edge check split
        g = outcome[1].graph
        assert (g.tails, g.heads) == (tuple(zip(*g.edges)) or ((), ()))


# -- the writer against the whole-document encoder ---------------------------

# strings with quotes, backslashes, newlines, tabs and non-ASCII characters
_texts = st.text(alphabet=st.sampled_from('ab"\\\n\t/é€😀\x00 '), max_size=6)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=12)
_counts = st.integers(min_value=0, max_value=50)


def _solved_report(draw):
    """The report ``dsgraph solve`` writes for a solved input."""
    records = draw(st.lists(st.builds(dg.SelectionRecord, _counts, _counts, _counts, _counts,
                                      _counts, _counts), max_size=3))
    report = {"mode": "theorem1", "trials": draw(_counts), "phase": "done",
              "cycles_swapped": len(records)}
    if records:
        report["selection"] = [dataclasses.asdict(r) for r in records]
    return report


def _failed_report(draw):
    """The report ``dsgraph solve`` writes when a phase gives up."""
    eliminated = draw(st.none() | st.fixed_dictionaries(
        {k: _counts for k in ("total", "allowed", "not_allowed", "overloaded",
                              "conflict_or_used")}))
    fail = dg.FailureReport(draw(st.sampled_from(["permutation", "swap", "swap-search"])),
                            draw(_texts), draw(st.none() | _counts), eliminated,
                            draw(st.none() | _counts))
    report = {"mode": draw(st.sampled_from(["theorem1", "theorem2"]))}
    report.update((k, v) for k, v in dataclasses.asdict(fail).items() if v is not None)
    return report


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # a sparse subset leaves isolated vertices; none at all gives m = 0
    edges = tuple(sorted(draw(st.sets(st.sampled_from(pairs), max_size=20)))) if pairs else ()
    m, d = len(edges), draw(st.integers(min_value=0, max_value=12))
    colorings = st.lists(st.integers(min_value=0, max_value=d), min_size=m, max_size=m).map(
        lambda cs: dg.EdgeColoring(tuple(cs), d))
    inst = dg.instance_io.Instance(graph=dg.Graph(n, edges), d=d)
    inst.coloring = draw(st.none() | colorings)
    inst.solution = draw(st.none() | colorings)
    inst.s_claimed = draw(st.none() | st.integers(min_value=1, max_value=12))
    inst.s_measured = draw(st.none() | st.integers(min_value=1, max_value=12))
    # keys up to 120 sort differently as strings ("10" < "9"); empty lists included
    inst.lists = draw(st.none() | st.dictionaries(
        st.integers(min_value=0, max_value=120),
        st.frozensets(st.integers(min_value=1, max_value=12), max_size=4),
        max_size=15).map(dg.ListAssignment))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    inst.plan = draw(st.none() | st.lists(st.tuples(vertex, vertex, vertex, vertex),
                                          max_size=4).map(tuple))
    kind = draw(st.sampled_from(["none", "free", "solved", "failed"]))
    inst.report = {"none": lambda: None,
                   "free": lambda: draw(st.dictionaries(_texts, _json_values, max_size=4)),
                   "solved": lambda: _solved_report(draw),
                   "failed": lambda: _failed_report(draw)}[kind]()
    inst.family = draw(st.dictionaries(_texts, _json_values, max_size=4))
    return inst


@settings(deadline=None, max_examples=400)
@given(instances())
def test_writer_matches_the_whole_document_encoder(inst):
    assert dumps_instance(inst) == ref_dumps_instance(inst)

