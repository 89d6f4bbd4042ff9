"""Command-line workflows driven in process through main(argv)."""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

import dsgraph as dg
from dsgraph.cli import FAMILIES, main
from tests.conftest import oracle_cycle_census
from tests.test_neighborhood_kernel import BUILDERS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_then_analyze(tmp_path, capsys):
    f = str(tmp_path / "q3.json")
    code, out, _ = run(capsys, "construct", "--family", "hypercube", "--d", "3",
                       "--out", f)
    assert code == 0
    assert "n=8" in out and "s_measured=3" in out
    code, out, _ = run(capsys, "analyze", f)
    assert code == 0
    assert "s measured: 3" in out
    assert "claim verified: yes" in out
    assert "cycles per edge: min=2 max=2" in out


def test_analyze_json_mode(tmp_path, capsys):
    f = str(tmp_path / "k44.json")
    run(capsys, "construct", "--family", "complete_bipartite_pow2", "--t", "2",
        "--out", f)
    code, out, _ = run(capsys, "analyze", f, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["s"]["measured"] == 4
    assert data["cycles_per_edge"]["min"] == 3


def test_construct_removed_and_cayley(tmp_path, capsys):
    f = str(tmp_path / "r.json")
    code, out, _ = run(capsys, "construct", "--family", "remove_standard_matchings",
                       "--t", "2", "--k", "1", "--out", f)
    assert code == 0 and "d=3" in out
    g = str(tmp_path / "c.json")
    code, out, _ = run(capsys, "construct", "--family", "cayley_involutions",
                       "--orders", "2,2,2", "--gens", "1,0,0;0,1,0;0,0,1",
                       "--commuting", "1,0,0;0,1,0;0,0,1", "--out", g)
    assert code == 0 and "n=8" in out
    code, out, _ = run(capsys, "construct", "--family", "cayley_abelian",
                       "--orders", "4,2", "--gens", "1,0;0,1",
                       "--out", str(tmp_path / "a.json"))
    assert code == 0 and "s_measured=3" in out


@pytest.mark.parametrize("family,orders,gens,bad", [
    ("cayley_abelian", "4,2", "1", "(1,)"),
    ("cayley_abelian", "4,2", "5,0;0,1", "(5, 0)"),
    ("cayley_involutions", "2,2", "1,0,5;0,1", "(1, 0, 5)"),
])
def test_construct_refuses_a_member_outside_the_group(family, orders, gens, bad, tmp_path,
                                                      capsys):
    out = tmp_path / "c.json"
    code, _, err = run(capsys, "construct", "--family", family, "--orders", orders,
                       "--gens", gens, "--out", str(out))
    assert code == 2
    assert err.endswith(f"{bad} is not an element of the group\n")
    assert not out.exists()


def test_construct_product_from_files(tmp_path, capsys, monkeypatch):
    a, b, p = (str(tmp_path / x) for x in ("a.json", "b.json", "p.json"))
    run(capsys, "construct", "--family", "hypercube", "--d", "2", "--out", a)
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", b)
    code, out, _ = run(capsys, "construct", "--family", "cartesian_product",
                       "--left", a, "--right", b, "--out", p)
    assert code == 0
    assert "n=32" in out and "s_measured=5" in out
    # the product of C4 and Q3 has 80 edges
    monkeypatch.setattr(dg.constructors, "_PRODUCT_EDGE_CAP", 79)
    code, _, err = run(capsys, "construct", "--family", "cartesian_product",
                       "--left", a, "--right", b, "--out", p)
    assert code == 2 and "80 edges, above cap 79" in err


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_construct_requires_each_flag_of_its_family(family, tmp_path, capsys):
    flags, _ = FAMILIES[family]
    values = {"d": "2", "t": "1", "k": "1", "orders": "2", "gens": "1"}
    out = tmp_path / "x.json"
    for missing in flags:
        given = [a for f in flags if f != missing
                 for a in (f"--{f}", values.get(f, str(out)))]
        code, _, err = run(capsys, "construct", "--family", family, *given,
                           "--out", str(out))
        assert (code, err) == (2, f"error: --{missing} is required for {family}\n")
        assert not out.exists()


def test_full_distance2_pipeline(tmp_path, capsys):
    f = str(tmp_path / "q3.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", f)
    code, out, _ = run(capsys, "gen-lists", f, "--distance2", "--max-list", "2",
                       "--seed", "1")
    assert code == 0 and "lists:" in out
    code, out, _ = run(capsys, "solve", f, "--mode", "theorem2")
    assert code == 0 and "verified" in out
    code, out, _ = run(capsys, "verify", f)
    assert code == 0
    assert "avoids every list" in out
    data = json.loads(open(f).read())
    assert data["report"]["mode"] == "theorem2"
    assert "solution" in data


@pytest.mark.parametrize("flags,message", [
    (("--beta", "1/4", "--distance2"), "not allowed with argument"),
    ((), "one of the arguments --beta --distance2 is required"),
])
def test_gen_lists_takes_exactly_one_of_beta_and_distance2(flags, message, tmp_path,
                                                           capsys):
    f = tmp_path / "q3.json"
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", str(f))
    before = f.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["gen-lists", str(f), *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert f.read_bytes() == before


def test_gen_lists_refuses_max_list_without_distance2(tmp_path, capsys):
    f = tmp_path / "q4.json"
    run(capsys, "construct", "--family", "hypercube", "--d", "4", "--out", str(f))
    before = f.read_bytes()
    code, out, err = run(capsys, "gen-lists", str(f), "--beta", "1/4", "--max-list", "3")
    assert (code, out, err) == (2, "", "error: --max-list applies only to --distance2\n")
    assert f.read_bytes() == before


def test_gen_lists_reports_the_edge_ball_cap(tmp_path, capsys, monkeypatch):
    f = str(tmp_path / "q4.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "4", "--out", f)
    monkeypatch.setattr(dg.graph_core, "EDGE_BALL_BYTES_CAP", 63)
    code, _, err = run(capsys, "gen-lists", f, "--beta", "1/4")
    assert code == 2
    assert "above cap 63" in err


def test_solve_auto_prefers_distance2_form(tmp_path, capsys):
    f = str(tmp_path / "q4.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "4", "--out", f)
    run(capsys, "gen-lists", f, "--distance2", "--seed", "2")
    code, out, _ = run(capsys, "solve", f, "--mode", "auto")
    assert code == 0
    assert "theorem2" in out


def test_solve_auto_falls_back_to_theorem1_on_sparse_lists(tmp_path, capsys):
    f = str(tmp_path / "q5.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "5", "--out", f)
    run(capsys, "gen-lists", f, "--beta", "1/5", "--seed", "2")
    flags = ("--gamma", "1/5", "--tau", "2/5", "--epsilon", "1/2", "--trials", "20")
    results = {}
    for mode in ("auto", "theorem1"):
        out = str(tmp_path / f"{mode}.json")
        code, stdout, err = run(capsys, "solve", f, "--mode", mode, *flags, "--out", out)
        results[mode] = code, stdout.replace(out, "OUT"), err, open(out, "rb").read()
    assert results["auto"] == results["theorem1"]
    assert results["auto"][:2] == (0, "solved (theorem1): 5 swaps, verified -> OUT\n")
    code, _, err = run(capsys, "solve", f, "--mode", "theorem2", *flags,
                       "--out", str(tmp_path / "theorem2.json"))
    assert code == 2
    assert err == "error: listed edges must form a distance-2 matching\n"


def test_solve_and_verify_a_thousand_conflicts_on_q12(tmp_path, capsys):
    # 1024 color-1 edges (x, x|1) with x >> 1 of even weight form a distance-2
    # matching; each forbids its own color, so the disjoint search decides
    # 1024 conflicts in a row, past Python's recursion limit
    f = tmp_path / "q12.json"
    run(capsys, "construct", "--family", "hypercube", "--d", "12", "--out", str(f))
    data = json.loads(f.read_text())
    index = {tuple(uv): e for e, uv in enumerate(data["edges"])}
    data["lists"] = {str(index[x, x | 1]): [1] for x in range(0, 4096, 2)
                     if (x >> 1).bit_count() % 2 == 0}
    assert len(data["lists"]) == 1024
    assert {data["coloring"][int(e)] for e in data["lists"]} == {1}
    f.write_text(json.dumps(data))
    code, out, _ = run(capsys, "solve", str(f))
    assert (code, out) == (0, f"solved (theorem2): 1024 swaps, verified -> {f}\n")
    code, out, _ = run(capsys, "verify", str(f))
    assert (code, out) == (0, "verified: proper and avoids every list\n")


def test_solve_failure_writes_report_and_exits_1(tmp_path, capsys):
    f = str(tmp_path / "k44.json")
    run(capsys, "construct", "--family", "complete_bipartite_pow2", "--t", "2",
        "--out", f)
    data = json.loads(open(f).read())
    data["lists"] = {"0": [1, 2, 3, 4]}
    open(f, "w").write(json.dumps(data))
    code, out, err = run(capsys, "solve", f, "--mode", "theorem1", "--trials", "8")
    assert code == 1
    assert "failed" in err
    data = json.loads(open(f).read())
    assert data["report"]["phase"] == "permutation"
    assert "solution" not in data


def test_solve_theorem2_failure_writes_its_report(tmp_path, capsys, monkeypatch):
    f = str(tmp_path / "q3.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", f)
    run(capsys, "gen-lists", f, "--distance2", "--max-list", "2", "--seed", "8")
    monkeypatch.setattr(dg.solver, "_disjoint_cycle_system", lambda cg, f, L: None)
    code, _, err = run(capsys, "solve", f, "--mode", "theorem2")
    assert code == 1 and "swap-search" in err
    data = json.loads(open(f).read())
    assert data["report"] == {"mode": "theorem2", "phase": "swap-search",
                              "message": "no edge-disjoint system of allowed cycles found",
                              "trials": 200}
    assert "solution" not in data and "plan" not in data


def test_calls_that_change_the_answer_drop_its_stale_blocks(tmp_path, capsys):
    solved, failed, witness = (str(tmp_path / f"{x}.json") for x in ("a", "b", "c"))

    def blocks(path):
        return {"solution", "plan", "report"} & json.loads(open(path).read()).keys()

    run(capsys, "construct", "--family", "hypercube", "--d", "4", "--out", solved)
    run(capsys, "gen-lists", solved, "--distance2")
    assert run(capsys, "solve", solved)[0] == 0
    assert blocks(solved) == {"solution", "plan", "report"}
    # a failed solve keeps only its failure report
    code, _, _ = run(capsys, "solve", solved, "--mode", "theorem1", "--trials", "1",
                     "--out", failed)
    assert code == 1 and blocks(failed) == {"report"}
    # the oracle's witness is a solution with no solver plan or report
    assert run(capsys, "oracle", solved, "--out", witness)[0] == 0
    assert blocks(witness) == {"solution"}
    # new lists leave nothing that answered the old ones
    run(capsys, "gen-lists", solved, "--beta", "1/2")
    assert blocks(solved) == set()
    code, _, err = run(capsys, "verify", solved)
    assert code == 2 and "solution" in err


def test_verify_names_the_conflict(tmp_path, capsys):
    f = str(tmp_path / "q3.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", f)
    run(capsys, "gen-lists", f, "--distance2", "--max-list", "2", "--seed", "1")
    run(capsys, "solve", f, "--mode", "theorem2")
    data = json.loads(open(f).read())
    # poison one list with the solved color so the stored solution conflicts
    e = data["lists"] and sorted(int(k) for k in data["lists"])[0]
    colors = sorted(set(data["lists"][str(e)]) | {data["solution"][e]})
    data["lists"][str(e)] = colors
    open(f, "w").write(json.dumps(data))
    code, out, _ = run(capsys, "verify", f)
    assert code == 1
    assert f"conflict: edge {e}" in out
    assert "forbidden color" in out


def test_verify_names_the_improper_vertex(tmp_path, capsys):
    f = str(tmp_path / "q3.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", f)
    data = json.loads(open(f).read())
    q3 = dg.hypercube(3)
    g, h = q3.graph, q3.coloring
    solution = list(h.colors)
    # edges (0,1) and (0,2) meet at vertex 0; give the second the first's color
    e01, e02 = g.edges.index((0, 1)), g.edges.index((0, 2))
    solution[e02] = h[e01]
    data["solution"] = solution
    open(f, "w").write(json.dumps(data))
    code, out, _ = run(capsys, "verify", f)
    assert code == 1
    assert out == f"improper: edges {e01} and {e02} share color {h[e01]} at vertex 0\n"


def test_analyze_names_the_repeated_color_of_an_improper_coloring(tmp_path, capsys):
    f = str(tmp_path / "q3.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", f)
    data = json.loads(open(f).read())
    g = dg.hypercube(3).graph
    # edges (0,1) and (0,2) meet at vertex 0; give the second the first's color
    e01, e02 = g.edges.index((0, 1)), g.edges.index((0, 2))
    data["coloring"][e02] = data["coloring"][e01]
    open(f, "w").write(json.dumps(data))
    code, _, err = run(capsys, "analyze", f)
    assert code == 2
    assert err == (f"error: hypercube: coloring is not proper: edges {e01} and {e02} "
                   f"share color {data['coloring'][e01]} at vertex 0\n")


def _cycles_line(census) -> str:
    counts = census.values()
    return f"cycles per edge: min={min(counts, default=0)} max={max(counts, default=0)}\n"


@pytest.mark.parametrize("label", sorted(BUILDERS))
def test_analyze_counts_agree_with_the_quadruple_scan(label, tmp_path, capsys):
    cg = BUILDERS[label]()
    f = str(tmp_path / "g.json")
    dg.save_instance(dg.from_colored_graph(cg), f)
    census = oracle_cycle_census(cg.graph, cg.coloring)
    code, out, _ = run(capsys, "analyze", f)
    assert code == 0 and out.endswith(_cycles_line(census))
    code, out, _ = run(capsys, "analyze", f, "--json")
    assert json.loads(out)["cycles_per_edge"] == {"min": min(census.values()),
                                                  "max": max(census.values())}


@pytest.mark.parametrize("drop,line", [
    ((), "min=2 max=2"),
    (((0, 1),), "min=1 max=2"),  # the six edges of its two lost cycles keep one each
    (tuple(dg.hypercube(3).graph.edges), "min=0 max=0"),
], ids=["Q3", "Q3 minus an edge", "no edges"])
def test_analyze_counts_uneven_and_empty_graphs(drop, line, tmp_path, capsys):
    q3 = dg.hypercube(3)
    kept = [(uv, c) for uv, c in zip(q3.graph.edges, q3.coloring.colors) if uv not in drop]
    g = dg.Graph(8, tuple(uv for uv, _ in kept))
    h = dg.EdgeColoring(tuple(c for _, c in kept), 3)
    f = str(tmp_path / "g.json")
    dg.save_instance(dg.instance_io.Instance(graph=g, d=3, coloring=h), f)
    code, out, _ = run(capsys, "analyze", f)
    assert code == 0
    assert out.endswith(_cycles_line(oracle_cycle_census(g, h))) and line in out


def _without_family(tmp_path, capsys, edit):
    f = str(tmp_path / "q4.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "4", "--out", f)
    data = json.loads(open(f).read())
    del data["family"]
    edit(data)
    open(f, "w").write(json.dumps(data))
    return f


def test_claim_warning_of_a_file_without_family_names_the_instance(tmp_path, capsys):
    f = _without_family(tmp_path, capsys, lambda data: data["s"].update(claimed=9))
    with pytest.warns(dg.ClaimDiscrepancyWarning) as record:
        code, out, _ = run(capsys, "analyze", f)
    assert code == 0 and "claim verified: NO" in out
    assert [str(w.message) for w in record] == ["instance: measured s=4 below claimed s=9"]


def test_improper_file_without_family_names_the_instance(tmp_path, capsys):
    def clash(data):  # edges 0 and 1 of Q4 are (0,1) and (0,2)
        data["coloring"][1] = data["coloring"][0]

    f = _without_family(tmp_path, capsys, clash)
    code, _, err = run(capsys, "analyze", f)
    assert code == 2
    assert err == ("error: instance: coloring is not proper: "
                   "edges 0 and 1 share color 1 at vertex 0\n")


def test_verify_requires_solution(tmp_path, capsys):
    # a file without a solution block is a usage error, not a failed check
    f = str(tmp_path / "q3.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", f)
    code, _, err = run(capsys, "verify", f)
    assert code == 2
    assert "solution" in err


def test_oracle_decisions(tmp_path, capsys):
    f = str(tmp_path / "c4.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "2", "--out", f)
    data = json.loads(open(f).read())
    data["lists"] = {"0": [1, 2]}
    open(f, "w").write(json.dumps(data))
    code, out, _ = run(capsys, "oracle", f)
    assert code == 1 and "not avoidable" in out

    data["lists"] = {"0": [1]}
    open(f, "w").write(json.dumps(data))
    w = str(tmp_path / "wit.json")
    code, out, _ = run(capsys, "oracle", f, "--out", w)
    assert code == 0 and "avoidable" in out
    witness = dg.load_instance(w)
    assert witness.solution is not None
    assert dg.verify_solution(dg.to_colored_graph(witness), witness.solution,
                              witness.lists)


def test_oracle_budget_is_undecided(tmp_path, capsys):
    f = str(tmp_path / "k44.json")
    run(capsys, "construct", "--family", "complete_bipartite_pow2", "--t", "2",
        "--out", f)
    code, _, err = run(capsys, "oracle", f, "--budget", "3")
    assert code == 1
    assert "undecided" in err


def test_oracle_negative_budget_is_usage_error(tmp_path, capsys):
    f = str(tmp_path / "q3.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", f)
    code, out, err = run(capsys, "oracle", f, "--budget", "-5")
    assert code == 2
    assert err == "error: --budget must be >= 0\n"
    assert out == ""


def test_oracle_budget_on_q8_is_undecided_not_a_crash(tmp_path, capsys):
    # the search is m = 1024 edges deep here; 3000 nodes decide it, 1000 do not
    f = str(tmp_path / "q8.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "8", "--out", f)
    run(capsys, "gen-lists", f, "--distance2", "--seed", "10")
    w = str(tmp_path / "wit.json")
    code, out, _ = run(capsys, "oracle", f, "--budget", "3000", "--out", w)
    assert code == 0 and out.startswith("avoidable (1101 nodes, 57 item-forced, 2 item dead ends)")
    witness = dg.load_instance(w)
    assert len(witness.solution) == 1024
    assert dg.verify_solution(dg.to_colored_graph(witness), witness.solution, witness.lists)
    code, _, err = run(capsys, "oracle", f, "--budget", "1000")
    assert code == 1
    assert "undecided" in err and "Traceback" not in err


def test_oracle_reports_the_frame_byte_cap(tmp_path, capsys, monkeypatch):
    f = str(tmp_path / "q3.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", f)
    # Q3's frames need 12 * (12 * 3 + 8 * 4) / 8 = 102 bytes
    monkeypatch.setattr(dg.graph_core, "EDGE_BALL_BYTES_CAP", 53)
    code, out, err = run(capsys, "oracle", f)
    assert code == 2
    assert err.startswith("error:") and "above cap 53" in err
    assert out == ""


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "no-such-file.json")
    assert code == 2
    assert err.startswith("error:")


def test_invalid_instance_is_usage_error(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text("{\"format\": \"nope\"}")
    code, _, err = run(capsys, "verify", str(f))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("encode, message", [
    (lambda text: b"\xff" + text.encode(),
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (lambda text: text.encode()[:50] + b"\xc3(" + text.encode()[50:],
     "'utf-8' codec can't decode byte 0xc3 in position 50: invalid continuation byte"),
    (lambda text: text.encode("utf-16"),
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (lambda text: b"\xef\xbb\xbf" + text.encode(),
     "top level: not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0))"),
], ids=["invalid-start", "invalid-continuation", "utf-16", "utf-8-bom"])
def test_a_file_that_is_not_plain_utf8_is_a_usage_error(encode, message, tmp_path, capsys):
    # the loader decodes UTF-8 itself: json.loads on bytes would accept the
    # UTF-16 file and the BOM
    f = tmp_path / "q3.json"
    dg.save_instance(dg.from_colored_graph(dg.hypercube(3)), f)
    f.write_bytes(encode(f.read_text(encoding="utf-8")))
    assert run(capsys, "analyze", str(f)) == (2, "", f"error: {message}\n")


def test_bounds_text_output(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "4096", "--d", "32", "--s", "32",
                       "--c", "1")
    assert code == 0
    assert "beta_threshold_log2 = -219.0" in out
    assert "swap_margin.satisfied = True" in out
    assert "union_bound.satisfied = True" in out
    assert "list_length.constant" in out


def test_bounds_json_output(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "4096", "--d", "32", "--s", "32",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["beta_threshold_log2"] == "-219.0"
    assert data["swap_margin"]["satisfied"] is True
    assert data["union_bound"]["satisfied"] is True


def test_bounds_small_s_skips_asymptotic_checks(capsys):
    # the list-length feasibility forms assume s >= 11, so s=4 omits them
    code, out, _ = run(capsys, "bounds", "--n", "16", "--d", "4", "--s", "4",
                       "--c", "1")
    assert code == 0
    assert "beta_threshold_log2 = -651.0" in out
    assert "list_length" not in out


def test_sweep_is_byte_deterministic(tmp_path, capsys):
    args = ("sweep", "--families", "hypercube:3,complete_bipartite_pow2:2",
            "--beta-grid", "0,1/4", "--seeds", "3", "--gamma", "1/4",
            "--tau", "3/4", "--epsilon", "3/4", "--trials", "16")
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    code, out, _ = run(capsys, *args, "--out", a)
    assert code == 0
    assert "beta=0: verified 6/6" in out
    run(capsys, *args, "--out", b)
    assert open(a, "rb").read() == open(b, "rb").read()
    rows = open(a).read().splitlines()
    assert rows[0] == ("family,n,d,s,beta,gamma,tau,epsilon,seed,"
                       "phase1_success,phase2_success,verified,trials_used,wall_time_s")
    zero_rows = [r for r in rows[1:] if r.split(",")[4] == "0"]
    assert zero_rows and all(r.split(",")[11] == "true" for r in zero_rows)
    assert all(r.endswith(",") for r in rows[1:])


def test_sweep_runs_each_distinct_beta_once(tmp_path, capsys):
    f = str(tmp_path / "r.csv")
    code, out, _ = run(capsys, "sweep", "--families", "hypercube:3,hypercube:3",
                       "--beta-grid", "1/2,1/2,2/4,0", "--seeds", "2", "--out", f)
    assert code == 0
    rows = open(f).read().splitlines()[1:]
    assert len(rows) == 8
    assert [r.split(",")[4] for r in rows] == ["1/2", "1/2", "0", "0"] * 2
    assert [line.split(":")[0] for line in out.splitlines()[:-1]] == ["beta=1/2", "beta=0"]
    assert out.splitlines()[-1] == f"8 rows -> {f}"


def test_sweep_timing_flag_fills_the_column(tmp_path, capsys):
    f = str(tmp_path / "t.csv")
    code, _, _ = run(capsys, "sweep", "--families", "hypercube:3", "--beta-grid",
                     "0", "--seeds", "1", "--trials", "4", "--out", f, "--timing")
    assert code == 0
    row = open(f).read().splitlines()[1]
    assert not row.endswith(",")
    float(row.rsplit(",", 1)[1])


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("args,digest", [
    (("--families", "hypercube:4,complete_bipartite_pow2:2", "--beta-grid", "0,1/8",
      "--seeds", "3"),
     "522db4e6d286b81705c73ecf74010f4d7ee2074098c564fbb76f4783c8f0c1c6"),
    (("--families", "hypercube:3,complete_bipartite_pow2:2", "--beta-grid", "0,1/4",
      "--seeds", "3", "--gamma", "1/4", "--tau", "3/4", "--epsilon", "3/4",
      "--trials", "16"),
     "c192007b79d97750fe4b4edd09de9fd6fc15d4792e73e00e60e6a3526b14eef2"),
])
def test_sweep_token_csvs_keep_their_bytes(args, digest, tmp_path, capsys):
    f = tmp_path / "s.csv"
    assert run(capsys, "sweep", *args, "--out", str(f))[0] == 0
    assert _sha256(f) == digest


def test_sweep_takes_instance_files(tmp_path, capsys):
    q4, k44, prod, cay = (str(tmp_path / x) for x in ("q4.json", "k44.json", "p.json",
                                                        "c.json"))
    run(capsys, "construct", "--family", "hypercube", "--d", "4", "--out", q4)
    run(capsys, "construct", "--family", "complete_bipartite_pow2", "--t", "2", "--out", k44)
    run(capsys, "construct", "--family", "cartesian_product", "--left", q4, "--right", k44,
        "--out", prod)
    run(capsys, "construct", "--family", "cayley_abelian", "--orders", "4,2",
        "--gens", "1,0;0,1", "--out", cay)
    # lists stored in a file are ignored: sweep draws its own for each beta and seed
    run(capsys, "gen-lists", cay, "--beta", "1")
    f = str(tmp_path / "s.csv")
    code, out, _ = run(capsys, "sweep", "--families", f"{prod},{cay},hypercube:3",
                       "--beta-grid", "0", "--seeds", "2", "--out", f)
    assert code == 0
    assert out.splitlines() == ["beta=0: verified 6/6", f"6 rows -> {f}"]
    rows = [r.split(",") for r in open(f).read().splitlines()[1:]]
    assert [r[:4] for r in rows] == [[prod, "128", "8", "8"]] * 2 + [[cay, "8", "3", "3"]] * 2 \
        + [["hypercube:3", "8", "3", "3"]] * 2
    # a token row and a file row of the same graph agree past the label
    q3 = str(tmp_path / "q3.json")
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", q3)
    g = str(tmp_path / "q3.csv")
    code, _, _ = run(capsys, "sweep", "--families", q3, "--beta-grid", "0", "--seeds", "2",
                     "--out", g)
    assert code == 0
    assert [r.split(",")[1:] for r in open(g).read().splitlines()[1:]] \
        == [r[1:] for r in rows[4:]]


def test_sweep_refuses_a_family_with_more_than_one_flag(tmp_path, capsys):
    f = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", "--families", "remove_standard_matchings:2",
                       "--beta-grid", "0", "--out", str(f))
    assert code == 2
    assert "pass the instance file" in err
    assert not f.exists()


@pytest.mark.parametrize("token", ["hypercube", "hypercube:x", "complete_bipartite_pow2:"])
def test_sweep_names_a_family_token_without_an_integer(token, tmp_path, capsys):
    f = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", "--families", token, "--beta-grid", "0",
                       "--out", str(f))
    name = token.partition(":")[0]
    assert (code, err) == (2, f"error: family token {token!r}: expected {name}:N "
                              f"with an integer N\n")
    assert not f.exists()


def test_sweep_missing_file_is_usage_error(tmp_path, capsys):
    f = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", "--families", str(tmp_path / "none.json"),
                       "--beta-grid", "0", "--out", str(f))
    assert code == 2
    assert err.startswith("error:") and "none.json" in err
    assert not f.exists()


def readme_cli_lines() -> list[str]:
    """The ``dsgraph`` commands of README's CLI block, backslash continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```\n(.*?)^```", text, re.S | re.M).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("dsgraph ")]


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    lines = readme_cli_lines()
    assert len(lines) >= 9
    assert any(re.search(r"sweep --families \S*\.json", line) for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
