"""Output checks, computed apart from the simulator from the generated inputs.

Per-query checks mark a query as failed; run-level checks make the round
incorrect.  A query fails when it did not complete exactly once, when its
chunks were not delivered exactly once each, when its reported CPU time is
not its family's per-chunk cost times its chunks, when its latency is below
that CPU time, or when its latency breakdown does not sum to its latency.
A round is incorrect when its makespan is shorter than the bytes it read
could be transferred in, when it read fewer bytes than the requested data
holds, or when a disk was busy for more than the whole run.

On a cluster the shard results carry sub-queries, whose ids are synthesized
on the resilient path.  Each sub-query is therefore mapped back to global
chunks through the placement (computed here, not asked of the program) and
matched to the expected chunk groups as a multiset keyed by query name and
global chunks: every group of every query must be delivered by exactly one
completed sub-query.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.storage.dsm import DSMTableLayout

TOLERANCE = 1e-9


@dataclass
class CheckReport:
    """Queries that failed a check, and run-level violations."""

    attempted: int
    failed: Set[int] = field(default_factory=set)
    errors: List[str] = field(default_factory=list)
    reasons: Dict[int, str] = field(default_factory=dict)

    def fail(self, query_id: int, reason: str) -> None:
        self.failed.add(query_id)
        self.reasons.setdefault(query_id, reason)

    @property
    def correct(self) -> bool:
        return not self.errors


def check_round(inputs, outcome) -> CheckReport:
    """Check one round's outcome against the inputs that produced it."""
    specs = {spec.query_id: spec for spec in inputs.specs}
    report = CheckReport(attempted=len(specs))
    _check_completions(specs, outcome, report)
    if inputs.cluster is None:
        _check_single_node(inputs, specs, outcome, report)
    else:
        _check_cluster(inputs, specs, outcome, report)
    _check_breakdowns(specs, outcome, report)
    _check_disk(inputs, outcome, report)
    return report


def _check_completions(specs, outcome, report: CheckReport) -> None:
    seen = Counter(query.query_id for query in outcome.queries)
    for query_id in specs:
        if seen[query_id] == 0:
            report.fail(query_id, "did not complete")
        elif seen[query_id] > 1:
            report.fail(query_id, f"completed {seen[query_id]} times")
    for query_id in seen:
        if query_id not in specs:
            report.errors.append(f"completion of unknown query {query_id}")


def _cpu_of(inputs, name: str, chunks: int) -> float:
    return inputs.families[name].cpu_per_chunk * chunks


def _close(left: float, right: float) -> bool:
    return abs(left - right) <= TOLERANCE * max(1.0, abs(left), abs(right))


def _check_single_node(inputs, specs, outcome, report: CheckReport) -> None:
    (run,) = outcome.runs
    for result in run.queries:
        spec = specs.get(result.query_id)
        if spec is None:
            continue
        order = tuple(result.delivery_order)
        if len(order) != len(spec.chunks) or set(order) != set(spec.chunks):
            report.fail(result.query_id, "delivery is not its chunks once each")
        expected_cpu = _cpu_of(inputs, spec.name, len(spec.chunks))
        if not _close(result.cpu_seconds, expected_cpu):
            report.fail(result.query_id, "cpu_seconds differs from its family")
        if result.latency < expected_cpu - TOLERANCE:
            report.fail(result.query_id, "latency below its CPU time")


def _groups(spec, per_shard: int) -> Dict[int, Tuple[int, ...]]:
    groups: Dict[int, List[int]] = {}
    for chunk in spec.chunks:
        groups.setdefault(chunk // per_shard, []).append(chunk)
    return {primary: tuple(sorted(chunks)) for primary, chunks in groups.items()}


def _check_cluster(inputs, specs, outcome, report: CheckReport) -> None:
    cluster = inputs.cluster
    per_shard = inputs.layout.num_chunks // cluster.shards
    expected: Counter = Counter()
    owners: Dict[tuple, List[int]] = {}
    largest_group_cpu: Dict[int, float] = {}
    for query_id, spec in specs.items():
        groups = _groups(spec, per_shard)
        for chunks in groups.values():
            key = (spec.name, chunks)
            expected[key] += 1
            owners.setdefault(key, []).append(query_id)
        largest_group_cpu[query_id] = max(
            _cpu_of(inputs, spec.name, len(chunks)) for chunks in groups.values()
        )
    observed: Counter = Counter()
    for shard, run in enumerate(outcome.runs):
        stored = inputs.shard_chunks[shard]
        for result in run.queries:
            order = tuple(result.delivery_order)
            if len(set(order)) != len(order) or any(
                not 0 <= local < len(stored) for local in order
            ):
                continue
            chunks = tuple(sorted(stored[local] for local in order))
            family = inputs.families.get(result.name)
            if family is None or len(chunks) != result.chunks:
                continue
            cpu = family.cpu_per_chunk * len(chunks)
            if not _close(result.cpu_seconds, cpu) or result.latency < cpu - TOLERANCE:
                continue
            observed[(result.name, chunks)] += 1
    for key, count in expected.items():
        delivered = observed.get(key, 0)
        if delivered != count:
            # Groups with the same key are interchangeable; blame as many of
            # their queries as the count is off by.
            for query_id in owners[key][: abs(count - delivered)]:
                report.fail(query_id, "a chunk group was not delivered exactly once")
    for query in outcome.queries:
        cpu = largest_group_cpu.get(query.query_id)
        if cpu is not None and query.latency < cpu - TOLERANCE:
            report.fail(query.query_id, "latency below its CPU time")


def _check_breakdowns(specs, outcome, report: CheckReport) -> None:
    for query in outcome.queries:
        if query.query_id not in specs:
            continue
        if query.breakdown is None:
            report.fail(query.query_id, "no latency breakdown")
            continue
        total = sum(query.breakdown.phase_seconds().values())
        if abs(total - query.latency) > TOLERANCE:
            report.fail(query.query_id, "latency breakdown does not sum to latency")


def _requested_bytes(inputs) -> int:
    """Bytes of the union of requested chunks (NSM) or pages (DSM)."""
    layout = inputs.layout
    if isinstance(layout, DSMTableLayout):
        pages = set()
        for spec in inputs.specs:
            for chunk in spec.chunks:
                for column in spec.columns:
                    block = layout.block(column, chunk)
                    pages.update(
                        (column, page)
                        for page in range(block.first_page, block.last_page + 1)
                    )
        return len(pages) * layout.page_bytes
    chunks = set()
    for spec in inputs.specs:
        chunks.update(spec.chunks)
    return sum(layout.chunk_size_bytes(chunk) for chunk in chunks)


def _check_disk(inputs, outcome, report: CheckReport) -> None:
    disk = inputs.config.disk
    node_bandwidth = disk.bandwidth_bytes_per_s * disk.spindles * disk.volumes
    for index, run in enumerate(outcome.runs):
        if run.total_time < run.bytes_read / node_bandwidth - TOLERANCE:
            report.errors.append(
                f"run {index}: makespan {run.total_time:.6f}s is shorter than "
                f"{run.bytes_read} bytes at {node_bandwidth:.0f} B/s"
            )
        for volume, busy in enumerate(
            (run.disk_utilisation,) + tuple(run.volume_utilisation)
        ):
            if busy > 1.0 + TOLERANCE:
                report.errors.append(f"run {index}: disk utilisation {busy} > 1")
    aggregate = node_bandwidth * len(outcome.runs)
    if outcome.makespan < outcome.bytes_read / aggregate - TOLERANCE:
        report.errors.append(
            f"makespan {outcome.makespan:.6f}s is shorter than "
            f"{outcome.bytes_read} bytes at {aggregate:.0f} B/s"
        )
    requested = _requested_bytes(inputs)
    if outcome.bytes_read < requested:
        report.errors.append(
            f"read {outcome.bytes_read} bytes, fewer than the {requested} "
            "bytes the queries requested"
        )
