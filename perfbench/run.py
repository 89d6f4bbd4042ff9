"""Benchmark for dsgraph: two workloads, end-to-end metrics and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-pipeline --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload in-process --smoke --seconds 1 --trace 1

Workloads (``workloads.py``): cold-pipeline (sparse and distance-2 stages as
separate CLI calls) and in-process (sweep rows, bounds and oracle). A run
builds its inputs from ``--seed`` during set-up, then runs at least
MIN_PASSES whole passes over the workload's instance list, and more while
they fit in ``--seconds``. An instance is timed stage by stage (one stage
per CLI call it stands for), and its time is the sum over stages of each
stage's median over the passes. Every instance runs under a wall-clock
deadline (SIGALRM), which a stage may replace for the stages after it, and
ends in exactly one outcome: verified / decided / computed (success), or
solver-fail:<phase>, undecided, timeout, error:<exception class> or
check-failed (failure). A check failure on any pass is the instance's
outcome. An instance that timed out is not run again. Outputs are checked
by ``checks.py``, never by the library's own verifier.

The host this was built on runs the same code up to 1.8 times slower for a
minute or more at a time, as other tenants load the machine, so a whole run
can be slow. Between instances, at most once every CAL_EVERY_S, the run
therefore times ``calibration_work``, a fixed piece of interpreter work, and
reports instance times in reference seconds: measured seconds times
CAL_REF_S over the median calibration time of the run. Set-up times are
scaled the same way by SETUP_CAL_SAMPLES calibration timings made before
each set-up and after the last. The measured values are kept in the
details file and printed beside the scaled ones.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: setup_s (median of SETUP_REPEATS set-ups),
instances_per_s (instances over the summed instance times),
instance_s.p50, instance_s.tail (the highest whole percentile that leaves
at least ten instances beyond it, or the maximum when there are fewer than
twenty), ok_frac (successes over attempts) and peak_rss_mb. The three time
metrics leave out instances that timed out: their time is the deadline, not
work; they are counted in ok_frac, ``failed`` and outcome.timeout. With
``--trace 1`` it carries the per-layer metrics of ``tracing.py`` instead,
from one traced pass, plus trace.overhead_frac from an untraced pass of the
same instances. Details (outcomes, digest, tail percentile, input sizes,
per-instance times, spans) go to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.

``--workload all`` runs each workload in its own child process, one after
the other, so that peak_rss_mb belongs to one workload. ``--smoke`` swaps in
tiny inputs for the benchmark's own tests.

Exit codes: 0 when every output passed its check, 1 when one did not,
2 when the library cannot be found in this checkout (no result is printed).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

from checks import CheckFailed, Digest
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
CAL_EVERY_S = 0.05
SETUP_CAL_SAMPLES = 10
# The reference host runs calibration_work in 2 ms. The 2-vCPU Intel Xeon VM
# with CPython 3.11.7 the benchmark was built on takes 1.2 to 2.8 ms,
# depending on the load other tenants put on the machine.
CAL_REF_S = 0.002
MIN_PASSES = 2
SETUP_DEADLINE_S = 40.0
OK_OUTCOMES = ("verified", "decided", "computed")


def import_library():
    """Import dsgraph from this checkout's src/, or None when it is not there."""
    src = ROOT / "src"
    if not (src / "dsgraph" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import dsgraph
    import dsgraph.errors  # noqa: F401  (bound as an attribute for the workloads)
    if Path(dsgraph.__file__).resolve().parent != (src / "dsgraph").resolve():
        return None
    return dsgraph


class DeadlineExpired(BaseException):
    """Raised from SIGALRM; a BaseException so no library ``except Exception`` eats it."""


def _alarm(signum, frame):
    raise DeadlineExpired()


class Stopwatch:
    """Splits one instance's time into stages; the case calls ``lap`` between them.

    ``lap(deadline_s)`` also gives the stages after it a deadline of their own.
    """

    def __init__(self):
        self.laps: list[float] = []
        self._last = time.perf_counter()

    def lap(self, deadline_s: float | None = None) -> None:
        if deadline_s is not None:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
        now = time.perf_counter()
        self.laps.append(now - self._last)
        self._last = now

    def stop(self) -> list[float]:
        self.lap()
        return self.laps


def run_case(case, tracer, digest_add):
    """Run one instance under its deadline; return (outcome, stage times)."""
    with tracer.span(case.label) if tracer else nullcontext():
        watch = Stopwatch()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, case.deadline_s)
                out = case.run(watch.lap)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            laps = watch.stop()
        except DeadlineExpired:
            return "timeout", watch.stop()
        except Exception as exc:  # any library failure is an outcome, not a crash
            return f"error:{type(exc).__name__}", watch.stop()
    try:
        outcome, text = case.check(out)
    except CheckFailed as exc:
        print(f"check failed on {case.label}: {exc}", file=sys.stderr)
        return "check-failed", laps
    digest_add(f"{case.label} {outcome}", text)
    return outcome, laps


def instance_seconds(record) -> float:
    """Sum over stages of each stage's median over the passes.

    Each stage stands for one CLI call, so each is timed on its own; when the
    passes did not go through the same stages, the median whole pass counts.
    """
    runs = record["runs"]
    if len({len(r) for r in runs}) == 1:
        return sum(statistics.median(stage) for stage in zip(*runs))
    return statistics.median(sum(r) for r in runs)


def note_outcome(record, outcome: str) -> None:
    """Merge a later pass's outcome into ``record``: a check failure on any
    pass becomes the instance's outcome, any other change is kept aside."""
    if outcome == record["outcome"]:
        return
    if outcome == "check-failed":
        record["first_outcome"] = record["outcome"]
        record["outcome"] = outcome
    elif record["outcome"] != "check-failed":
        record["later_outcome"] = outcome


def run_pass(cases, records, tracer=None, digest=None, between=None) -> None:
    """Run every case once. The first pass fills ``records``; later passes add
    stage times to each record, except for cases that timed out, which would
    only spend their deadline again. ``between`` is called before each case."""
    add = digest.add if digest is not None else (lambda label, text="": None)
    first = not records
    for i, case in enumerate(cases):
        if not first and records[i]["outcome"] == "timeout":
            continue
        if between is not None:
            between()
        outcome, laps = run_case(case, tracer, add)
        if first:
            records.append({"label": case.label, "outcome": outcome, "runs": [laps]})
            continue
        records[i]["runs"].append(laps)
        note_outcome(records[i], outcome)


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile leaving at least 10 of ``n`` samples beyond it.

    None (meaning the maximum) when even the median leaves fewer than ten.
    """
    if n < 20:
        return None
    p = 100 * (n - 10) // n
    while n - math.ceil(p * n / 100) < 10:
        p -= 1
    return p


def nearest_rank(values, p: int | None) -> float:
    xs = sorted(values)
    if p is None:
        return xs[-1]
    return xs[max(0, math.ceil(p * len(xs) / 100) - 1)]


def end_to_end(records, setup_times, scale: float, setup_scale: float) -> dict:
    """The end-to-end metrics; instance times are multiplied by ``scale`` and
    set-up times by ``setup_scale``."""
    times = [scale * instance_seconds(r) for r in records if r["outcome"] != "timeout"]
    ok = sum(r["outcome"] in OK_OUTCOMES for r in records)
    return {
        "setup_s": (setup_scale * statistics.median(setup_times), "s"),
        "instances_per_s": (len(times) / sum(times), "1/s"),
        "instance_s.p50": (nearest_rank(times, 50), "s"),
        "instance_s.tail": (nearest_rank(times, tail_percentile(len(times))), "s"),
        "ok_frac": (ok / len(records), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def calibration_work() -> int:
    """A fixed piece of interpreter work (tuple-keyed dicts, small sets, integer
    arithmetic), the kind of work the library's inner loops do."""
    seen: dict = {}
    acc = 0
    for i in range(3000):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + 1
        acc += len({i & 7, i & 3, i % 5}) + (i * 7919 % 1013)
    return acc + max(seen.values())


class Calibration:
    """Timings of ``calibration_work``. ``maybe`` runs between instances and
    takes one at most every CAL_EVERY_S, so that the samples are spread over
    the run as the instances' are; ``sample`` takes them at once."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def maybe(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()
            self._due = time.perf_counter() + CAL_EVERY_S

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            calibration_work()
            self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds: the
        median over passes of a stage's times is set against the median of
        the calibration times, which were taken over the same stretch."""
        return CAL_REF_S / statistics.median(self.samples)


def timed_passes(cases, seconds: float, digest) -> tuple[list, int, Calibration]:
    """At least MIN_PASSES passes, more while another one fits in ``seconds``."""
    records: list = []
    cal = Calibration()
    passes, start = 0, time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        run_pass(cases, records, None, digest if passes == 0 else None, cal.maybe)
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            return records, passes, cal


def traced_pass(cases, tracer, digest) -> tuple[list, dict]:
    """One traced pass for the per-layer metrics, then one untraced pass of the
    same cases to price the tracing."""
    records: list = []
    tracer.reset()
    run_pass(cases, records, tracer, digest)
    tracer.uninstall()
    plain: list = []
    run_pass(cases, plain)
    for r, q in zip(records, plain):
        note_outcome(r, q["outcome"])
    both = [(sum(r["runs"][0]), sum(q["runs"][0])) for r, q in zip(records, plain)
            if "timeout" not in (r["outcome"], q["outcome"])]
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (
        sum(t for t, _ in both) / sum(u for _, u in both) - 1, "frac")
    kinds = Counter(r["outcome"].split(":")[0] for r in records)
    metrics["outcome.timeout"] = (kinds["timeout"], "count")
    metrics["outcome.error"] = (kinds["error"], "count")
    metrics["fail_frac"] = (1 - sum(kinds[k] for k in OK_OUTCOMES) / len(records), "frac")
    return records, metrics


def run_workload(dg, name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    build = WORKLOADS[name]
    warnings.filterwarnings("ignore", module=r"dsgraph\.")
    signal.signal(signal.SIGALRM, _alarm)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR))
    tracer = Tracer() if trace else None
    digest = Digest()
    details: dict = {}
    try:
        setup_times: list[float] = []
        setup_cal = Calibration()
        if tracer:
            tracer.install(dg)
        while len(setup_times) < (1 if trace else SETUP_REPEATS):
            workload = None  # free the previous set-up before building the next
            gc.collect()
            setup_cal.sample(SETUP_CAL_SAMPLES)
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, SETUP_DEADLINE_S)
            try:
                workload = build(dg, seed, smoke, work)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            setup_times.append(time.perf_counter() - start)
        setup_cal.sample(SETUP_CAL_SAMPLES)
        cases = workload.cases
        gc.collect()
        if tracer:
            records, metrics = traced_pass(cases, tracer, digest)
            details["spans"] = [s for s in tracer.spans if s is not None]
            passes = 1
        else:
            records, passes, cal = timed_passes(cases, seconds, digest)
            scale, setup_scale = cal.scale(), setup_cal.scale()
            metrics = end_to_end(records, setup_times, scale, setup_scale)
            details["setup_times_s"] = setup_times
            details["calibration"] = {"samples": len(cal.samples), "scale": scale,
                                      "median_s": CAL_REF_S / scale,
                                      "setup_scale": setup_scale}
            details["measured"] = {k: v for k, (v, _) in
                                   end_to_end(records, setup_times, 1.0, 1.0).items()}
            timed = sum(r["outcome"] != "timeout" for r in records)
            details["tail"] = tail_percentile(timed) or "max"
            details["timed_instances"] = timed
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    outcomes = Counter(r["outcome"] for r in records)
    result = {
        "correct": "check-failed" not in outcomes,
        "attempted": len(records),
        "failed": sum(v for k, v in outcomes.items() if k not in OK_OUTCOMES),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "passes": passes, "inputs": [asdict(f) for f in workload.families],
        "digest": digest.hexdigest(), "outcomes": dict(sorted(outcomes.items())),
        "outcome_changes": sum("later_outcome" in r for r in records),
        "instances": records,
    })
    path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    path.write_text(json.dumps({"result": result, **details}, indent=1) + "\n")
    return result, details, path


def print_report(name, result, details, path) -> None:
    print(f"== {name}: {result['attempted']} instances in {details['passes']} pass(es), "
          f"{result['failed']} failed, correct={result['correct']}")
    print("   inputs: " + ", ".join(f"{f['label']}(n={f['n']} m={f['m']} d={f['d']} "
                                      f"s={f['s']}) x{f['instances']}"
                                      for f in details["inputs"]))
    print(f"   outcomes: {details['outcomes']}")
    if "tail" in details:
        tail = details["tail"]
        print(f"   tail percentile: {tail if tail == 'max' else f'p{tail}'} "
              f"of {details['timed_instances']} timed instances")
    print(f"   output digest: {details['digest']}")
    if "calibration" in details:
        cal = details["calibration"]
        print(f"   calibration: median {cal['median_s'] * 1e3:.4g} ms of {cal['samples']} samples, "
              f"instance times scaled by {cal['scale']:.4g}, set-up times by "
              f"{cal['setup_scale']:.4g}")
    measured = details.get("measured", {})
    for key, m in result["metrics"].items():
        raw = f" (measured {measured[key]:.6g})" if measured.get(key, m["value"]) != m["value"] \
            else ""
        print(f"   {key} = {m['value']:.6g} {m['unit']}{raw}")
    print(f"   details -> {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        status = max(status, proc.returncode)
        child = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for key, m in child["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    dg = import_library()
    if dg is None:
        print(f"dsgraph sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, details, path = run_workload(dg, args.workload, args.seed, args.seconds,
                                         bool(args.trace), args.smoke)
    print_report(args.workload, result, details, path)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
