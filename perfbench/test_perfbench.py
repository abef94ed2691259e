"""Self-tests of the benchmark: smoke runs of every workload, and proof that
the output checks fail on corrupted results.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _smoke(workload: str):
    inputs = workloads.build(workload, seed=3, scale="smoke")
    return inputs, workloads.execute(inputs)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def smoke_round(request):
    return _smoke(request.param)


def test_smoke_round_passes_every_check(smoke_round):
    inputs, outcome = smoke_round
    report = checks.check_round(inputs, outcome)
    assert report.correct, report.errors
    assert not report.failed, report.reasons
    assert report.attempted == len(inputs.specs) == len(outcome.queries)
    metrics = run.sim_metrics(outcome, report.failed)
    assert all(value > 0 for value in metrics.values()), metrics


def test_repeat_round_reproduces_the_fingerprint(smoke_round):
    inputs, outcome = smoke_round
    again = workloads.execute(workloads.build(inputs.workload, seed=3, scale="smoke"))
    assert again.fingerprint() == outcome.fingerprint()


def _drop_one_chunk(outcome):
    """Remove the last delivered chunk of the first sub-query that has two."""
    for run_result in outcome.runs:
        for index, query in enumerate(run_result.queries):
            if len(query.delivery_order) > 1:
                run_result.queries[index] = dataclasses.replace(
                    query, delivery_order=tuple(query.delivery_order)[:-1]
                )
                return
    raise AssertionError("no query delivered two chunks")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_catch_a_dropped_chunk(workload):
    inputs, outcome = _smoke(workload)
    _drop_one_chunk(outcome)
    report = checks.check_round(inputs, outcome)
    assert len(report.failed) == 1, report.reasons


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_catch_a_duplicated_completion(workload):
    inputs, outcome = _smoke(workload)
    outcome.queries.append(outcome.queries[0])
    report = checks.check_round(inputs, outcome)
    assert report.failed == {outcome.queries[0].query_id}, report.reasons


def test_checks_catch_a_broken_breakdown():
    inputs, outcome = _smoke("open-dsm")
    query = outcome.queries[1]
    query.breakdown = dataclasses.replace(
        query.breakdown, cpu_execute=query.breakdown.cpu_execute + 1e-6
    )
    report = checks.check_round(inputs, outcome)
    assert report.failed == {query.query_id}, report.reasons


def test_checks_catch_too_few_bytes_read():
    inputs, outcome = _smoke("closed-nsm")
    outcome.runs[0] = dataclasses.replace(outcome.runs[0], bytes_read=1)
    report = checks.check_round(inputs, outcome)
    assert not report.correct
    assert any("fewer than" in error for error in report.errors)


@pytest.mark.parametrize("workload", ("open-dsm", "cluster-r2-faults"))
def test_traced_round_conserves_time_and_restores_the_program(workload):
    inputs = workloads.build(workload, seed=3, scale="smoke")
    untraced = workloads.execute(workloads.build(workload, seed=3, scale="smoke"))
    originals = {
        (owner, name): owner.__dict__[name]
        for targets in tracing.LAYER_TARGETS.values()
        for owner, names in targets
        for name in names
    }
    tracer = tracing.Tracer()
    tracer.install()
    started = time.perf_counter()
    try:
        outcome = workloads.execute(inputs)
    finally:
        wall_s = time.perf_counter() - started
        tracer.uninstall()
    assert all(owner.__dict__[name] is fn for (owner, name), fn in originals.items())
    assert outcome.fingerprint() == untraced.fingerprint()
    metrics = tracing.layer_metrics(tracer, wall_s=wall_s, outcome=outcome)
    layer_self = sum(value for name, value in metrics.items() if name.endswith("self_s"))
    assert layer_self + metrics["unattributed_s"] == pytest.approx(wall_s)
    # The wrappers' own cost is in no layer's self time.
    assert metrics["unattributed_s"] >= tracer.wrapper_s > 0
    declared = {name for name, _ in run.declared_metrics("per_layer")}
    assert declared == set(metrics) | {"trace_overhead"}
    assert metrics["sim.probes"] >= metrics["sim.steps"] > 0
    assert metrics["core.loads_issued"] > 0


def test_command_prints_the_declared_metrics():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "closed-nsm",
         "--seed", "5", "--seconds", "0", "--trace", "0", "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS * 4 * 8
    declared = dict(run.declared_metrics("end_to_end"))
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
