"""Command-line workflows driven in process through main(argv)."""

import json

import pytest

import dsgraph as dg
from dsgraph.cli import main
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


def test_construct_product_from_files(tmp_path, capsys):
    a, b, p = (str(tmp_path / x) for x in ("a.json", "b.json", "p.json"))
    run(capsys, "construct", "--family", "hypercube", "--d", "2", "--out", a)
    run(capsys, "construct", "--family", "hypercube", "--d", "3", "--out", b)
    code, out, _ = run(capsys, "construct", "--family", "cartesian_product",
                       "--left", a, "--right", b, "--out", p)
    assert code == 0
    assert "n=32" in out and "s_measured=5" in out


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
    census = dg.oracle_cycle_census(cg.graph, cg.coloring)
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
    assert out.endswith(_cycles_line(dg.oracle_cycle_census(g, h))) and line in out


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


def test_sweep_timing_flag_fills_the_column(tmp_path, capsys):
    f = str(tmp_path / "t.csv")
    code, _, _ = run(capsys, "sweep", "--families", "hypercube:3", "--beta-grid",
                     "0", "--seeds", "1", "--trials", "4", "--out", f, "--timing")
    assert code == 0
    row = open(f).read().splitlines()[1]
    assert not row.endswith(",")
    float(row.rsplit(",", 1)[1])
