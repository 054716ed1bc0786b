"""Benchmark of the chemlinker pipeline: one workload, one seed, one run.

    python3 bench/run.py --workload {train,generate,evaluate} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the workload sets up several times (`setup_s` is the
median, scaled to the reference loop's speed) and then runs whole rounds
until their operations have taken `--seconds`. With `--trace 1` it sets
up once and runs every round twice, untraced and traced in alternating
order, and reports the per-layer metrics of the traced runs and the
tracing overhead; the spans go to `bench/out/trace-<workload>-<seed>.jsonl`.
Every output is checked. The last line of standard output is the JSON
result; the line before it is a report with the per-stage throughputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The reference loop's time on the machine the reference figures in
# README.md come from; `setup_s` is set-up time scaled to that speed.
REFERENCE_S = 0.020
MIN_ROUNDS = 2
# Rounds whose operations fail early take little measured time; the wall
# clock ends such a run.
WALL_FACTOR = 3
DEADLINE_S = 170


class Deadline(BaseException):
    """Raised by the alarm; not an Exception, so no operation swallows it."""


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def reference_s() -> float:
    """Time of a fixed pure-Python loop that does not touch the program.

    A shared host can change speed by half from one minute to the next;
    this loop, timed before and after each round, measures how fast the
    machine ran that round.
    """
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return perf_counter() - start


def run_plain(w, seconds: float) -> tuple[dict, dict, int, int]:
    setups = []
    setup_reference = []
    for _ in range(w.setups):
        gc.collect()
        before = reference_s()
        start = perf_counter()
        w.setup()
        setups.append(perf_counter() - start)
        setup_reference.append((before + reference_s()) / 2)
    rounds = []
    reference = []
    first = None
    started = perf_counter()
    while (sum(r.seconds for r in rounds) < seconds
           and perf_counter() - started < WALL_FACTOR * seconds) \
            or len(rounds) < MIN_ROUNDS:
        inputs = w.prepare(len(rounds))
        before = reference_s()
        result = w.execute(inputs)
        reference.append((before + reference_s()) / 2)
        if result.ok:
            w.check(inputs, result)
        if first is None:
            first = (inputs, result)
        else:
            result.outputs = {}
        rounds.append(result)
    if first[1].ok:
        w.finish(*first)
    done = [(r, ref) for r, ref in zip(rounds, reference) if r.ok]
    # Medians over rounds, so that a burst of machine noise in one round
    # does not move the result. work_per_ref is the work a round did in
    # the time the reference loop took around it: the program's speed
    # relative to the machine's speed in that round. setup_s scales each
    # set-up the same way, to the time it would take at REFERENCE_S.
    metrics = {
        "setup_s": {"value": statistics.median(
            t / ref * REFERENCE_S for t, ref in zip(setups, setup_reference)),
            "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "work_per_ref": {"value": statistics.median(
            r.work / r.seconds * ref for r, ref in done) if done else 0.0,
            "unit": "units/ref"},
    }
    report = {
        "rounds": len(rounds),
        "measured_s": sum(r.seconds for r in rounds),
        "work_per_s": statistics.median(
            r.work / r.seconds for r, _ in done) if done else 0.0,
        "reference_loop_ms": statistics.median(reference) * 1e3,
        "setup_runs_s": setups,
        "setup_reference_ms": [ref * 1e3 for ref in setup_reference],
        "stages": {name: {"value": value, "unit": unit} for name, (
            value, unit) in w.stage_metrics([r for r, _ in done]).items()},
    }
    return (metrics, report, sum(r.attempted for r in rounds),
            sum(r.failed for r in rounds))


def run_traced(w, seconds: float, trace_path: Path):
    from bench import checks, tracing

    w.setup()
    tracer = tracing.Tracer()
    plain = traced = 0.0
    attempted = failed = passing = index = 0
    started = perf_counter()
    while (plain + traced < seconds
           and perf_counter() - started < WALL_FACTOR * seconds) \
            or index < 1:
        inputs = w.prepare(index)
        outcomes = {}
        for use_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            if use_tracer:
                tracer.round = index
                tracer.install()
                try:
                    result = w.execute(inputs)
                finally:
                    tracer.uninstall()
            else:
                result = w.execute(inputs)
            if result.ok:
                w.check(inputs, result)
            outcomes[use_tracer] = result
            attempted += result.attempted
            failed += result.failed
        if outcomes[True].ok and outcomes[False].ok and \
                outcomes[True].outputs != outcomes[False].outputs:
            raise checks.CheckFailed(
                "the same inputs gave different outputs traced and untraced")
        plain += outcomes[False].seconds
        traced += outcomes[True].seconds
        passing += outcomes[True].passing
        index += 1
    metrics = tracing.per_layer_metrics(tracer, index, passing)
    metrics["trace.overhead_pct"] = {
        "value": (traced / plain - 1.0) * 100.0, "unit": "%"}
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write(trace_path)
    report = {"rounds": index, "untraced_s": plain, "traced_s": traced,
              "spans": len(tracer.spans), "trace_file": str(
                  trace_path.relative_to(ROOT))}
    return metrics, report, attempted, failed


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "generate", "evaluate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chemlinker" / "__init__.py").is_file():
        print(f"error: no chemlinker sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # One caller thread, BLAS included; set before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import checks, workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    correct = True
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            trace_path = BENCH / "out" / \
                f"trace-{args.workload}-{args.seed}.jsonl"
            metrics, report, attempted, failed = run_traced(
                w, args.seconds, trace_path)
        else:
            metrics, report, attempted, failed = run_plain(w, args.seconds)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        metrics, report, attempted, failed = {}, {}, 1, 0
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:   # another run is still using it
            pass
    report.update(workload=args.workload, seed=args.seed,
                  src_lines=src_lines())
    print("report " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
