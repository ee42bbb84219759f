"""The courant benchmark: time to a verified verdict of ``courant <command>``.

Usage, from the root of a checkout::

    python3 bench/run.py --workload axioms --seed 1 --seconds 27 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 27

``--workload`` is one of axioms, mutants, transport, forms, or all.  The
seed picks one pass of tasks from the committed pool (workloads.py).
Each task runs ``courant.cli.main(argv)`` in a fresh interpreter, one
at a time; its report is checked against the oracle (oracle.py).  The
run repeats the pass while another pass would end no more than half a
pass after ``--seconds`` (and always runs at least one).

``--trace 0`` reports the end-to-end metrics:

* ``pass_s``: median over passes of the summed task times of one pass;
* ``task_s.p50``, ``task_s.p90``: task time, pooled over passes;
* ``setup_s``: median time to import ``courant.cli`` in a fresh child;
* ``peak_rss_mb``: the largest child max-RSS;
* ``ok_frac``: the share of tasks whose result matched the oracle.

A task time is the import plus one ``main`` call, as timed in the child.
The summary lines also give ``failed_frac`` (1 - ok_frac), sample
counts and the input digest.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracing.py plus ``trace.pass_s`` and
``trace.overhead`` (median traced pass_s over median untraced pass_s).
Counts are per pass; times are medians over traced passes.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` (tasks that missed the oracle, leaving out the
known failures of workloads.KNOWN_FAILURES) and ``metrics``.  A fuller
record, with every task's verdict, goes to ``bench/.work``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import oracle
import tracing
import workloads
from runner import ROOT, ChildError, run_child, run_task

WORK_DIR = os.path.join(workloads.BENCH_DIR, ".work")


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (statistics' inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.tasks = workloads.generate(workload, seed)
        self.dir = os.path.join(WORK_DIR, "%s-%d-%s" % (workload, seed, "trace" if trace else "plain"))
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = os.path.join(self.dir, "inputs")
        self.digest = workloads.write_inputs(self.tasks, self.inputs)
        self.spans = os.path.join(self.dir, "spans.jsonl") if trace else ""
        self.expected = oracle.load()
        self.configs = {t.config: workloads.pool_text(t.config) for t in self.tasks}
        self.verdicts = []  # (task id, pass, "ok" | "known" | "failed", reason)

    def run_pass(self, number: int, trace: bool) -> list:
        results = []
        for task in self.tasks:
            result = run_task(task, self.inputs, trace, self.spans)
            reason = oracle.judge(task, self.expected.get(task.id), result, self.configs[task.config])
            verdict = "ok" if reason is None else ("known" if task.known_failure else "failed")
            self.verdicts.append((task.id, number, verdict, reason))
            result["verdict"] = verdict
            results.append(result)
        return results


def task_s(result: dict) -> float:
    return result["import_s"] + result["main_s"]


def end_to_end(passes: list) -> dict:
    flat = [r for p in passes for r in p]
    times = [task_s(r) for r in flat]
    ok = sum(r["verdict"] == "ok" for r in flat)
    return {
        "pass_s": (statistics.median(sum(task_s(r) for r in p) for p in passes), "s", len(passes)),
        "task_s.p50": (statistics.median(times), "s", len(times)),
        "task_s.p90": (quantile(times, 0.9), "s", len(times)),
        "setup_s": (statistics.median(r["import_s"] for r in flat), "s", len(flat)),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in flat) / 1024.0, "MB", len(flat)),
        "ok_frac": (ok / len(flat), "frac", len(flat)),
    }


def per_layer(passes: list, untraced_pass_s: float):
    """Per-layer metrics, and whether their counts repeat in every pass."""
    per_pass = [tracing.layer_metrics(tracing.merge(r["layers"] for r in p)) for p in passes]
    counts = [{k: v for k, (v, unit) in m.items() if unit != tracing.SECONDS} for m in per_pass]
    out = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == tracing.SECONDS:
            value = statistics.median(m[name][0] for m in per_pass)
        out[name] = (value, unit, len(passes))
    traced = statistics.median(sum(task_s(r) for r in p) for p in passes)
    out["trace.pass_s"] = (traced, "s", len(passes))
    out["trace.overhead"] = (traced / untraced_pass_s, "x", len(passes))
    return out, all(c == counts[0] for c in counts)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, trace)
    run_child(None)  # compile bytecode and warm the file cache, untimed
    start = time.perf_counter()
    passes, untraced, pass_wall = [], [], 0.0
    # another pass only if it would end no more than half a pass late
    while not passes or time.perf_counter() - start + pass_wall / 2 < seconds:
        begun = time.perf_counter()
        if trace:  # an untraced pass next to each traced one, for the overhead
            untraced.append(run.run_pass(len(passes) + 1, False))
        passes.append(run.run_pass(len(passes) + 1, trace))
        pass_wall = time.perf_counter() - begun
    flat = [r for p in passes for r in p]
    if trace:
        metrics, repeat = per_layer(passes, statistics.median(sum(task_s(r) for r in p) for p in untraced))
        missing = sorted({m for r in flat for m in r["layers"]["missing"]})
        extra = {"counts_repeat": repeat, "missing_trace_points": missing}
    else:
        metrics = end_to_end(passes)
        extra = {}
    every = [r for p in passes + untraced for r in p]
    failed = sum(r["verdict"] == "failed" for r in every)
    known = sum(r["verdict"] == "known" for r in every)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "inputs_sha256": run.digest,
        "tasks_per_pass": len(run.tasks),
        "passes": len(passes),
        "attempted": len(every),
        "failed": failed,
        "known_failures": known,
        "failed_frac": (failed + known) / len(every),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "task_s": [[task_s(r) for r in p] for p in passes],
        "verdicts": run.verdicts,
        **extra,
    }
    with open(os.path.join(run.dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def print_summary(record: dict) -> None:
    print(
        "workload %s  seed %d  trace %d  inputs sha256:%s"
        % (record["workload"], record["seed"], record["trace"], record["inputs_sha256"])
    )
    print(
        "  %d tasks per pass, %d passes, %d attempted, %d failed, %d known failures"
        % (record["tasks_per_pass"], record["passes"], record["attempted"], record["failed"], record["known_failures"])
    )
    for name, m in record["metrics"].items():
        print("  %-30s %14.6f %-5s (n=%d)" % (name, m["value"], m["unit"], m["samples"]))
    if not record["trace"]:
        print("  %-30s %14.6f %-5s (n=%d)" % ("failed_frac", record["failed_frac"], "frac", record["attempted"]))
    shown = set()
    for task_id, _, verdict, reason in record["verdicts"]:
        if verdict != "ok" and task_id not in shown:
            shown.add(task_id)
            print("  %s %s: %s" % (verdict.upper(), task_id, reason))
    if record.get("missing_trace_points"):
        print("  WARNING trace points not found in courant: %s" % ", ".join(record["missing_trace_points"]))
    if record["trace"] and not record["counts_repeat"]:
        print("  WARNING per-layer counts differ between passes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="courant benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "courant", "cli.py")):
        print("no src/courant in %s: run from the root of a courant checkout" % ROOT, file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except ChildError as exc:
        print("benchmark aborted: %s" % exc, file=sys.stderr)
        return 2
    for record in records:
        print_summary(record)
    if len(records) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in records[0]["metrics"].items()}
    else:
        metrics = {
            "%s.%s" % (r["workload"], k): {"value": m["value"], "unit": m["unit"]}
            for r in records
            for k, m in r["metrics"].items()
        }
    failed = sum(r["failed"] for r in records)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
