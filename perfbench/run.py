"""Run one benchmark workload and print its metrics as a JSON last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload closed-nsm --seed 1 --seconds 20 --trace 0

A run builds the workload's inputs from ``--seed``, then repeats whole
rounds (every query of the workload, each round on identical inputs) until
``--seconds`` have passed, with at least :data:`MIN_ROUNDS` rounds.  With
``--trace 0`` each round is preceded by a timed lap of set-ups.  Every
round is checked (:mod:`checks`), and every round must reproduce the first
round's scheduling fingerprint.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
round with the median host time (:mod:`tracing`); its spans are written to
``perfbench/out/``.

Host time is noisy on a shared machine: a fixed pure-Python loop ran up to
twice as slow for stretches of half a second to several seconds, and the
same round's host time ranged over 1.6x.  :class:`HostSpeed` therefore
times a short reference loop every :data:`SAMPLE_INTERVAL_S` during each
measured section and converts the section's host seconds to seconds at the
reference loop's nominal speed.  That cut the spread of one round's time
from 15-29% to 5-7% of its median.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Rounds every run makes at least: two would do for the repeat check,
#: three give the median a middle.
MIN_ROUNDS = 3
#: Before each round, set-ups are repeated for at least
#: :data:`SETUP_LAP_S` host seconds; ``setup_s`` is the laps' nominal
#: seconds over the number of set-ups in them.  One set-up (4-20 ms) is too
#: short for the host-speed samples to average over, and laps spread over
#: the run follow its host-speed phases as the rounds do.  The slowest
#: workload runs only 3-4 rounds, too few laps for their median to be
#: steadier than their mean.
SETUP_LAP_S = 0.75
#: The reference loop's size, its time at nominal speed (about what it
#: takes on a 2.1 GHz x86 core with no co-tenant), and how often it is
#: timed during a measured section.  Sampling costs about 3% of host time,
#: which is left out of the measured time.
REFERENCE_ITERATIONS = 1000
REFERENCE_NOMINAL_S = 0.0004
SAMPLE_INTERVAL_S = 0.01
MIB = 1 << 20


def declared_metrics(kind: str) -> list:
    """``(name, unit)`` of each ``end_to_end`` or ``per_layer`` metric
    declared in the repository's ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)[kind]
    return [(metric["name"], metric["unit"]) for metric in declared]


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python loop of heap and dict work, the
    operations the simulator's event cores are made of."""
    heap: list = []
    table: dict = {}
    started = time.perf_counter()
    for index in range(REFERENCE_ITERATIONS):
        heapq.heappush(heap, (index * 7919) % 1009)
        key = index & 1023
        table[key] = table.get(key, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - started


class HostSpeed:
    """Times one section in seconds at nominal host speed.

    A ``SIGALRM`` interval timer runs :func:`reference_loop` every
    :data:`SAMPLE_INTERVAL_S` of host time; one more sample is taken on
    entry and on exit.  The handler runs between bytecodes of the main
    thread and touches no state of the program.  On exit,
    :attr:`nominal_s` holds the section's host seconds, with the samples'
    own time taken out, converted to seconds at nominal speed by the mean
    sample.  The mean, not the median: samples fall into a fast and a slow
    mode, and the median jumps between them.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.nominal_s = 0.0
        self._sampled_s = 0.0
        self._started = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        elapsed = reference_loop()
        self.samples.append(elapsed)
        self._sampled_s += elapsed

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._sampled_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        work = time.perf_counter() - self._started - self._sampled_s
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.nominal_s = work * REFERENCE_NOMINAL_S / statistics.fmean(self.samples)


def sim_metrics(outcome, failed) -> dict:
    """The simulated end-to-end metrics of one round's outcome."""
    import numpy as np

    latencies = [q.latency for q in outcome.queries if q.query_id not in failed]
    completed = len(latencies)
    p50, p95 = np.percentile(latencies, [50, 95]) if latencies else (0.0, 0.0)
    return {
        "sim_latency_p50_s": float(p50),
        "sim_latency_p95_s": float(p95),
        "sim_read_mb_per_query": outcome.bytes_read / MIB / max(1, completed),
        "sim_throughput_qps": completed / outcome.makespan if outcome.makespan else 0.0,
    }


class Runner:
    """One run: rounds, their checks and the repeat comparison."""

    def __init__(self, workload: str, seed: int, scale: str = "full") -> None:
        import checks
        import workloads

        self._checks = checks
        self._workloads = workloads
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.fingerprint = None
        self.first_outcome = None
        self.first_failed: set = set()

    def build(self):
        return self._workloads.build(self.workload, self.seed, self.scale)

    def setup_lap(self) -> tuple:
        """Nominal seconds of a lap of repeated set-ups, and their number."""
        count = 0
        with HostSpeed() as speed:
            deadline = time.perf_counter() + SETUP_LAP_S
            while count == 0 or time.perf_counter() < deadline:
                self.build()
                count += 1
        return speed.nominal_s, count

    def round(self, tracer=None, speed: bool = False):
        """Build fresh inputs and run one checked round.

        Returns the outcome and the round's host seconds, converted to
        nominal seconds when ``speed`` is set.
        """
        inputs = self.build()
        if tracer is not None:
            tracer.install()
        try:
            if speed:
                with HostSpeed() as clock:
                    outcome = self._workloads.execute(inputs)
                elapsed = clock.nominal_s
            else:
                started = time.perf_counter()
                outcome = self._workloads.execute(inputs)
                elapsed = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.record(inputs, outcome)
        return outcome, elapsed

    def record(self, inputs, outcome) -> None:
        report = self._checks.check_round(inputs, outcome)
        self.attempted += report.attempted
        self.failed += len(report.failed)
        self.errors.extend(report.errors)
        fingerprint = outcome.fingerprint()
        if self.fingerprint is None:
            self.fingerprint = fingerprint
            self.first_outcome = outcome
            self.first_failed = set(report.failed)
        elif fingerprint != self.fingerprint:
            self.errors.append("a repeat round gave a different scheduling fingerprint")

    @property
    def correct(self) -> bool:
        return not self.errors


def run_untraced(runner: Runner, seconds: float) -> dict:
    setup_laps = []
    rates = []
    deadline = time.perf_counter() + seconds
    while len(rates) < MIN_ROUNDS or time.perf_counter() < deadline:
        setup_laps.append(runner.setup_lap())
        outcome, elapsed = runner.round(speed=True)
        rates.append(len(outcome.queries) / elapsed)
    setup_seconds = sum(lap_s for lap_s, _ in setup_laps)
    setups = sum(count for _, count in setup_laps)
    metrics = {
        "host_qps": statistics.median(rates),
        "setup_s": setup_seconds / setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics.update(sim_metrics(runner.first_outcome, runner.first_failed))
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in declared_metrics("end_to_end")
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    import tracing

    untraced = []
    traced = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.round()[1])
        tracer = tracing.Tracer()
        outcome, elapsed = runner.round(tracer)
        traced.append((elapsed, tracer, outcome))
    traced.sort(key=lambda entry: entry[0])
    elapsed, tracer, outcome = traced[(len(traced) - 1) // 2]
    tracer.write_spans(
        os.path.join(HERE, "out", f"spans-{runner.workload}-seed{runner.seed}.json")
    )
    metrics = tracing.layer_metrics(tracer, elapsed, outcome)
    metrics["trace_overhead"] = statistics.median(
        seconds for seconds, _, _ in traced
    ) / statistics.median(untraced)
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in declared_metrics("per_layer")
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=1, help="1 while developing; 7919 is held out"
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    runner = Runner(args.workload, args.seed, args.scale)
    if args.workload not in runner._workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.trace:
        metrics = run_traced(runner, args.seconds)
    else:
        metrics = run_untraced(runner, args.seconds)
    for error in runner.errors[:10]:
        print(f"check failed: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": runner.correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
