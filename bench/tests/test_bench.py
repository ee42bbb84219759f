"""Tests of the benchmark itself: generator, oracle and tracing.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
Each test that runs a task starts fresh interpreters, as the benchmark
does, and picks cheap tasks.
"""

import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from runner import run_task  # noqa: E402
from workloads import POOL_DIR, Task  # noqa: E402

CHEAP = [
    Task("pontryagin", "form_c_1", "json"),
    Task("shift", "form_d_hoist", "text", ("--kind", "central")),  # exit 1 via a ValueError
    Task("check", "bad_poly", "text"),  # exit 2
    Task("check", "bad_deep_parens", "json"),  # known crasher
    Task("transport", "iso_d_5", "text"),
]


def test_generator_is_deterministic(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 3)
        assert [t.id for t in first] == [t.id for t in workloads.generate(workload, 3)]
        a = workloads.write_inputs(first, str(tmp_path / workload / "a"))
        b = workloads.write_inputs(first, str(tmp_path / workload / "b"))
        assert a == b
        for name in os.listdir(tmp_path / workload / "a"):
            assert (tmp_path / workload / "a" / name).read_bytes() == (tmp_path / workload / "b" / name).read_bytes()
        other = workloads.generate(workload, 4)
        assert workloads.write_inputs(other, str(tmp_path / workload / "c")) != a


def test_oracle_covers_every_drawable_task():
    expected = oracle.load()
    for task in workloads.all_tasks():
        entry = expected[task.id]
        assert entry["input"] == workloads.sha256(workloads.pool_text(task.config)), task.id
    known = [t for t in workloads.all_tasks() if t.known_failure]
    assert len(known) == 2 * len(workloads.KNOWN_FAILURES)
    assert all(expected[t.id]["exit"] == 2 for t in known)


def _judge(task, entry, result):
    return oracle.judge(task, entry, result, workloads.pool_text(task.config))


def test_oracle_flags_valid_config_expected_to_fail():
    expected = oracle.load()
    valid = Task("check", "mut_d_0", "text", ("--degree", "2"))
    entry = dict(expected[valid.id])
    assert entry["exit"] == 1
    # the valid fixture D, judged against a mutant's expectation
    task = Task("check", "form_d_hoist", "text", ("--degree", "2"))
    entry["input"] = workloads.sha256(workloads.pool_text(task.config))
    result = run_task(task, POOL_DIR)
    assert result["exit"] == 0
    assert _judge(task, entry, result) == "exit 0, expected 1"


def test_oracle_flags_corrupted_expected_report():
    expected = oracle.load()
    passing = Task("pontryagin", "form_c_1", "json")
    result = run_task(passing, POOL_DIR)
    entry = dict(expected[passing.id])
    assert _judge(passing, entry, result) is None
    entry["sha256"] = entry["sha256"][::-1]
    assert _judge(passing, entry, result) == "report differs from the expected report"

    failing = Task("check", "mut_c_0", "json", ("--degree", "1"))
    result = run_task(failing, POOL_DIR)
    entry = dict(expected[failing.id])
    assert _judge(failing, entry, result) is None
    entry["checks"] = [[name, "pass"] for name, _ in entry["checks"]]
    assert _judge(failing, entry, result) == "check names or statuses differ"


@pytest.mark.parametrize("task", CHEAP, ids=lambda t: t.id)
def test_traced_report_is_byte_identical(task):
    plain = run_task(task, POOL_DIR)
    traced = run_task(task, POOL_DIR, trace=True)
    for key in ("exit", "raised", "stdout"):
        assert traced[key] == plain[key]
    assert traced["layers"]["missing"] == []


def test_layer_counts_repeat_across_traced_runs():
    def counts():
        summaries = [run_task(t, POOL_DIR, trace=True)["layers"] for t in CHEAP]
        metrics = tracing.layer_metrics(tracing.merge(summaries))
        return {k: v for k, (v, unit) in metrics.items() if unit != tracing.SECONDS}

    first = counts()
    assert first == counts()
    assert first["poly.mul.calls"] > 0 and first["dorfman.bracket.calls"] > 0
    assert first["morphism.raised"] >= 1  # central shift on a centerless fiber
    assert first["cli.raised"] == 1  # the deep-parenthesis crash escapes main
