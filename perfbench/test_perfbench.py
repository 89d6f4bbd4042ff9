"""Tests for the benchmark itself, on the tiny inputs of ``--smoke``.

Run from the root of the repository:  python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import CheckFailed, Digest, coloring_violation, require_agree
from run import end_to_end, nearest_rank, run_pass, tail_percentile
from workloads import WORKLOADS, Case

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def bench(*args, cwd=HERE.parent):
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_end_to_end_metrics(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0",
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "instances_per_s", "instance_s.p50",
                                      "instance_s.tail", "ok_frac", "peak_rss_mb"}
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}


def test_smoke_trace_layers_and_known_failures():
    proc = bench("--workload", "cold-pipeline", "--seed", "0", "--seconds", "1", "--trace",
                 "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc)["metrics"]
    # gen, validate, solve x 3 sparse instances; the distance-2 group builds none.
    assert metrics["graph_core.nbhd_builds"]["value"] == 9
    assert metrics["graph_core.bfs_runs"]["value"] > 0
    # Q3 seed 8 is one of the recorded criterion-3 instances.
    assert metrics["solver.fail.swap-search"]["value"] >= 1
    assert metrics["instance_io.bytes"]["value"] > 0
    assert "trace.overhead_frac" in metrics

    proc = bench("--workload", "in-process", "--seed", "0", "--seconds", "1", "--trace", "1",
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc)["metrics"]
    assert metrics["oracle.nodes"]["value"] > 0
    assert metrics["bounds.calls"]["value"] > 0
    assert metrics["instance_io.bytes"]["value"] == 0


def test_digest_repeats_and_does_not_depend_on_tracing():
    digests = set()
    for trace in ("0", "1", "0"):
        proc = bench("--workload", "in-process", "--seed", "3", "--seconds", "1", "--trace",
                     trace, "--smoke")
        assert proc.returncode == 0, proc.stderr
        line = next(x for x in proc.stdout.splitlines() if "output digest:" in x)
        digests.add(line.split()[-1])
    assert len(digests) == 1


def test_without_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "in-process",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_coloring_violation_catches_each_defect():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]  # a 4-cycle
    good = [1, 2, 1, 2]
    assert coloring_violation(edges, 2, good, {}) is None
    assert "vertex" in coloring_violation(edges, 2, [1, 1, 2, 2], {})
    assert "outside" in coloring_violation(edges, 2, [1, 2, 1, 3], {})
    assert "forbidden" in coloring_violation(edges, 2, good, {2: {1}})
    assert "colors for" in coloring_violation(edges, 2, good[:3], {})


def test_disagreeing_verdicts_fail():
    with pytest.raises(CheckFailed):
        require_agree(True, False, "verify_solution")


def test_digest_is_order_sensitive():
    a, b = Digest(), Digest()
    a.add("x", "1")
    a.add("y", "2")
    b.add("y", "2")
    b.add("x", "1")
    assert a.hexdigest() != b.hexdigest()


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(19) is None
    for n in (20, 64, 302, 744):
        p = tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > nearest_rank(values, p) for v in values)
        assert beyond >= 10
        assert sum(v > nearest_rank(values, p + 1) for v in values) < 10 or p == 99


def test_check_failure_on_a_later_pass_fails_the_instance():
    checked = []

    def check(out):
        checked.append(out)
        if len(checked) == 2:
            raise CheckFailed("stale output on the second pass")
        return "verified", ""

    cases = [Case("flaky", lambda lap: 1, check, 5.0),
             Case("steady", lambda lap: 2, lambda out: ("verified", ""), 5.0)]
    records = []
    for _ in range(3):
        run_pass(cases, records)
    assert [r["outcome"] for r in records] == ["check-failed", "verified"]
    assert len(records[0]["runs"]) == 3


def test_timed_out_instances_stay_out_of_the_time_metrics():
    # Stage medians 0.5 and 0.5, so 1.0 s, scaled by 2 into reference seconds.
    records = [{"label": "a", "outcome": "verified",
                "runs": [[0.5, 0.5], [0.25, 1.0], [0.75, 0.5]]},
               {"label": "b", "outcome": "timeout", "runs": [[6.0, 2.0]]}]
    metrics = end_to_end(records, [0.1, 0.2, 0.3], 2.0, 0.5)
    assert metrics["instances_per_s"][0] == 1 / 2.0
    assert metrics["instance_s.tail"][0] == 2.0
    assert metrics["ok_frac"][0] == 0.5
    assert metrics["setup_s"][0] == 0.1
