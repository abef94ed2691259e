"""The four benchmark workloads: seeded inputs, one round, one outcome.

A workload turns ``(seed, scale)`` into the inputs of one round (layout,
queries, buffer managers, simulator configuration) and runs that round to
the end.  The program under test receives only these generated inputs.  Every
round of a run repeats the identical inputs, so its simulated outcome must
repeat exactly; the host time it takes is what varies.

Template mixes are balanced (each template appears equally often, in a
seeded order) and open-loop arrivals are Poisson arrivals conditioned on
exactly ``n`` arrivals in ``n / rate`` seconds.  Both keep the simulated
figures of two different seeds close, so a seed change does not read as a
regression.

Entry points of the program are looked up through their modules at call
time (``server.run_service``, ``coordinator.run_cluster_service``), so the
traced mode can patch them where the benchmark looks them up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import coordinator as coordinator_module
from repro.common.config import (
    PAPER_DSM_SYSTEM,
    PAPER_NSM_SYSTEM,
    BufferConfig,
    ClusterConfig,
    CoordinatorConfig,
    CpuConfig,
    DiskConfig,
    FailureConfig,
    FailureEvent,
    HedgeConfig,
    NetworkConfig,
    ServiceConfig,
    SystemConfig,
)
from repro.common.units import KB, MB
from repro.core.cscan import ScanRequest
from repro.service import server as server_module
from repro.service.arrivals import Arrival
from repro.sim import runner as runner_module
from repro.sim.results import scheduling_fingerprint
from repro.sim.setup import make_dsm_abm, make_nsm_abm
from repro.storage.nsm import NSMTableLayout
from repro.storage.schema import ColumnSpec, DataType, TableSchema
from repro.workload import (
    dsm_query_families,
    lineitem_dsm_layout,
    lineitem_nsm_layout,
    nsm_query_families,
    standard_templates,
)
from repro.workload.queries import QueryFamily, QueryTemplate, make_scan_request

POLICY = "relevance"
WORKLOADS = ("closed-nsm", "open-dsm", "cluster-64", "cluster-r2-faults")


# ----------------------------------------------------------------- outcome
@dataclass
class QueryOutcome:
    """One whole query as a user sees it."""

    query_id: int
    name: str
    submit_time: float
    finish_time: float
    breakdown: Any

    @property
    def latency(self) -> float:
        return self.finish_time - self.submit_time


@dataclass
class Outcome:
    """What one round produced, in the shape the checks and metrics read.

    ``runs`` holds the simulator results (one per shard on a cluster);
    ``queries`` the whole-query outcomes; ``result`` the raw object the
    entry point returned.
    """

    runs: list
    queries: List[QueryOutcome]
    makespan: float
    result: Any

    @property
    def bytes_read(self) -> int:
        return sum(run.bytes_read for run in self.runs)

    def fingerprint(self) -> tuple:
        return tuple(scheduling_fingerprint(run) for run in self.runs)


# ------------------------------------------------------------------ inputs
@dataclass
class Inputs:
    """Everything one round needs, built from the seed.

    ``specs`` are the generated whole queries (the checks compare the
    program's outputs with them); ``arrivals`` is ``None`` for closed
    streams.
    """

    workload: str
    config: SystemConfig
    specs: List[ScanRequest]
    families: Dict[str, QueryFamily]
    layout: Any
    abms: list
    arrivals: Optional[List[Arrival]] = None
    service: Optional[ServiceConfig] = None
    cluster: Optional[ClusterConfig] = None
    simulator: Any = None
    #: Global chunk ids stored on each shard, in shard-local order.
    shard_chunks: Optional[List[Tuple[int, ...]]] = None


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload; ``full`` is what the benchmark runs, ``smoke``
    what the self-tests run."""

    queries: int
    size: float


SCALES: Dict[str, Dict[str, Scale]] = {
    # queries: streams x 8 (closed) or arrivals (open); size: TPC-H SF or
    # table chunks.
    "closed-nsm": {"full": Scale(32, 10.0), "smoke": Scale(4, 1.0)},
    "open-dsm": {"full": Scale(480, 5.0), "smoke": Scale(16, 1.0)},
    "cluster-64": {"full": Scale(240, 512), "smoke": Scale(16, 512)},
    "cluster-r2-faults": {"full": Scale(720, 512), "smoke": Scale(24, 512)},
}


def balanced_order(
    templates: Sequence[QueryTemplate], count: int, rng: np.random.Generator
) -> List[QueryTemplate]:
    """``count`` templates, each as often as possible, in a seeded order."""
    pool = [templates[index % len(templates)] for index in range(count)]
    return [pool[index] for index in rng.permutation(count)]


def conditioned_poisson_times(
    count: int, rate_qps: float, rng: np.random.Generator
) -> List[float]:
    """Poisson arrival times conditioned on ``count`` arrivals in
    ``count / rate_qps`` seconds (sorted uniform points)."""
    gaps = rng.exponential(1.0, size=count + 1)
    times = np.cumsum(gaps[:-1]) / gaps.sum() * (count / rate_qps)
    return [float(time) for time in times]


def _arrivals(templates, layout, count, rate_qps, rng) -> List[Arrival]:
    order = balanced_order(templates, count, rng)
    times = conditioned_poisson_times(count, rate_qps, rng)
    return [
        Arrival(time=time, spec=make_scan_request(template, query_id, layout, rng))
        for query_id, (time, template) in enumerate(zip(times, order))
    ]


def _families(templates) -> Dict[str, QueryFamily]:
    return {template.label: template.family for template in templates}


# ---------------------------------------------------------- closed-nsm
def _build_closed_nsm(seed: int, scale: Scale) -> Inputs:
    config = PAPER_NSM_SYSTEM
    layout = lineitem_nsm_layout(scale.size, buffer=config.buffer)
    fast, slow = nsm_query_families(config)
    templates = standard_templates(fast, slow)
    rng = np.random.default_rng(seed)
    streams: List[List[ScanRequest]] = []
    query_id = 0
    for _ in range(int(scale.queries)):
        stream = []
        for template in balanced_order(templates, len(templates), rng):
            stream.append(make_scan_request(template, query_id, layout, rng))
            query_id += 1
        streams.append(stream)
    abm = make_nsm_abm(layout, config, POLICY)
    simulator = runner_module.ScanSimulator(streams, config, abm)
    return Inputs(
        workload="closed-nsm",
        config=config,
        specs=[spec for stream in streams for spec in stream],
        families=_families(templates),
        layout=layout,
        abms=[abm],
        simulator=simulator,
    )


def _run_closed_nsm(inputs: Inputs) -> Outcome:
    run = inputs.simulator.run()
    queries = [
        QueryOutcome(q.query_id, q.name, q.arrival_time, q.finish_time, q.breakdown)
        for q in run.queries
    ]
    return Outcome(runs=[run], queries=queries, makespan=run.total_time, result=run)


# ------------------------------------------------------------ open-dsm
#: Below the knee: the disk is about a quarter busy at this rate, which keeps
#: p95 within 5% from seed to seed (at 1 q/s it moved 10%).
OPEN_DSM_RATE_QPS = 0.6
OPEN_DSM_MPL = 8
OPEN_DSM_BUFFERED = 0.30


def _build_open_dsm(seed: int, scale: Scale) -> Inputs:
    config = PAPER_DSM_SYSTEM
    layout = lineitem_dsm_layout(scale.size, buffer=config.buffer)
    capacity_pages = int(layout.table_pages() * OPEN_DSM_BUFFERED)
    fast, slow = dsm_query_families(layout, config)
    templates = standard_templates(fast, slow)
    rng = np.random.default_rng(seed)
    arrivals = _arrivals(
        templates, layout, int(scale.queries), OPEN_DSM_RATE_QPS, rng
    )
    abm = make_dsm_abm(layout, config, POLICY, capacity_pages=capacity_pages)
    return Inputs(
        workload="open-dsm",
        config=config,
        specs=[arrival.spec for arrival in arrivals],
        families=_families(templates),
        layout=layout,
        abms=[abm],
        arrivals=arrivals,
        service=ServiceConfig(max_concurrent=OPEN_DSM_MPL, queue_capacity=None),
    )


def _run_open_dsm(inputs: Inputs) -> Outcome:
    result = server_module.run_service(
        inputs.arrivals, inputs.config, inputs.abms[0], inputs.service
    )
    run = result.run
    queries = [
        QueryOutcome(q.query_id, q.name, q.submit_time, q.finish_time, q.breakdown)
        for q in run.queries
    ]
    return Outcome(
        runs=[run],
        queries=queries,
        makespan=run.total_time,
        result=result,
    )


# ------------------------------------------------------------- clusters
#: One shard machine: a modest disk and enough cores that I/O dominates.
SHARD_BUFFER_CHUNKS = 8
SHARD_SYSTEM = SystemConfig(
    disk=DiskConfig(
        bandwidth_bytes_per_s=100 * MB, avg_seek_s=0.002, sequential_seek_s=0.0005
    ),
    cpu=CpuConfig(cores=8),
    buffer=BufferConfig(
        chunk_bytes=1 * MB, page_bytes=64 * KB, capacity_chunks=SHARD_BUFFER_CHUNKS
    ),
)
#: A priced coordinator: its CPU is about 20% busy at cluster-64's rate.
COORDINATOR = CoordinatorConfig(
    classify_s=0.0005,
    scatter_per_subquery_s=0.0005,
    gather_per_subquery_s=0.0005,
    merge_per_query_s=0.0005,
)
NETWORK = NetworkConfig(bandwidth_bytes_per_s=256 * MB, per_message_s=0.0002)
CLUSTER_SCHEMA = TableSchema.build(
    "cluster_nsm", [ColumnSpec(name, DataType.INT64) for name in "abcd"]
)
CLUSTER_FAST = QueryFamily("F", cpu_per_chunk=0.002)
CLUSTER_SLOW = QueryFamily("S", cpu_per_chunk=0.008)
#: cluster-r2-faults' mix: scans of 8, 16, ..., 64 chunks of the 512-chunk
#: table for each family.  A ladder of sizes smooths the latency tail; with
#: four sizes p95 sat on the edge of the largest template's plateau and
#: moved 8-11% from seed to seed.
R2_TEMPLATES = tuple(
    QueryTemplate(family, 1.5625 * step)
    for family in (CLUSTER_FAST, CLUSTER_SLOW)
    for step in range(1, 9)
)
#: cluster-64's mix: two fast and three slow templates.  Its latencies form
#: a fast and a slow cluster; with this mix the median lands inside the
#: tight S-03 group instead of on the gap between the two clusters, where it
#: would jump from seed to seed.
CLUSTER_64_TEMPLATES = (
    QueryTemplate(CLUSTER_FAST, 3.125),
    QueryTemplate(CLUSTER_FAST, 12.5),
    QueryTemplate(CLUSTER_SLOW, 3.125),
    QueryTemplate(CLUSTER_SLOW, 6.25),
    QueryTemplate(CLUSTER_SLOW, 12.5),
)

CLUSTER_64_SHARDS = 64
CLUSTER_64_RATE_QPS = 32.0
CLUSTER_64_MPL_PER_SHARD = 4

R2_SHARDS = 16
R2_REPLICAS = 2
R2_RATE_QPS = 24.0
R2_MPL_PER_SHARD = 4
R2_HEDGE = HedgeConfig(quantile=0.95, multiplier=1.5, min_samples=16)
R2_DEGRADE_FACTOR = 0.25


def r2_failure_schedule(span_s: float) -> FailureConfig:
    """Degrade shard 5, then shard 13, each for a tenth of the arrival span,
    then shard 9 for three tenths: fixed fractions of the span, whatever the
    seed.

    No shard is killed.  A kill that lands while a query is still on the
    coordinator's CPU re-scatters that query's group before the query is
    ready, and assembling its latency breakdown then raises
    ``SimulationError`` (negative ``rescatter_wait``), which ends the whole
    round.  Whether a kill lands there depends on the seed's arrival times,
    so kills would make the failed share differ from seed to seed.
    """
    events = (
        (0.20, 5, "degrade"),
        (0.30, 5, "repair"),
        (0.35, 13, "degrade"),
        (0.45, 13, "repair"),
        (0.55, 9, "degrade"),
        (0.85, 9, "repair"),
    )
    return FailureConfig(
        events=tuple(
            FailureEvent(round(fraction * span_s, 6), shard, kind)
            for fraction, shard, kind in events
        ),
        degrade_factor=R2_DEGRADE_FACTOR,
    )


def range_shard_chunks(
    num_chunks: int, shards: int, replicas: int
) -> List[Tuple[int, ...]]:
    """Global chunks stored on each shard under range placement with
    chained declustering: shard ``s`` holds the ranges of primaries
    ``s, s-1, ..., s-R+1``, in ascending chunk order."""
    per_shard = num_chunks // shards
    stored = []
    for shard in range(shards):
        chunks = set()
        for replica in range(replicas):
            primary = (shard - replica) % shards
            chunks.update(range(primary * per_shard, (primary + 1) * per_shard))
        stored.append(tuple(sorted(chunks)))
    return stored


def _build_cluster(
    workload: str,
    seed: int,
    scale: Scale,
    cluster: ClusterConfig,
    templates: Sequence[QueryTemplate],
    rate_qps: float,
) -> Inputs:
    config = SHARD_SYSTEM
    num_chunks = int(scale.size)
    tuples_per_chunk = int(config.buffer.chunk_bytes // CLUSTER_SCHEMA.tuple_logical_bytes)
    layout = NSMTableLayout.from_buffer_config(
        CLUSTER_SCHEMA, num_chunks * tuples_per_chunk, config.buffer
    )
    rng = np.random.default_rng(seed)
    arrivals = _arrivals(templates, layout, int(scale.queries), rate_qps, rng)
    shard_chunks = range_shard_chunks(num_chunks, cluster.shards, cluster.replicas)
    abms = [
        make_nsm_abm(
            NSMTableLayout.from_buffer_config(
                CLUSTER_SCHEMA, len(stored) * tuples_per_chunk, config.buffer
            ),
            config,
            POLICY,
            capacity_chunks=SHARD_BUFFER_CHUNKS,
        )
        for stored in shard_chunks
    ]
    return Inputs(
        workload=workload,
        config=config,
        specs=[arrival.spec for arrival in arrivals],
        families=_families(templates),
        layout=layout,
        abms=abms,
        arrivals=arrivals,
        cluster=cluster,
        shard_chunks=shard_chunks,
    )


def _build_cluster_64(seed: int, scale: Scale) -> Inputs:
    cluster = ClusterConfig(
        shards=CLUSTER_64_SHARDS,
        placement="range",
        mpl_per_shard=CLUSTER_64_MPL_PER_SHARD,
        coordinator=COORDINATOR,
        network=NETWORK,
    )
    return _build_cluster(
        "cluster-64", seed, scale, cluster, CLUSTER_64_TEMPLATES, CLUSTER_64_RATE_QPS
    )


def _build_cluster_r2(seed: int, scale: Scale) -> Inputs:
    span_s = int(scale.queries) / R2_RATE_QPS
    cluster = ClusterConfig(
        shards=R2_SHARDS,
        placement="range",
        mpl_per_shard=R2_MPL_PER_SHARD,
        coordinator=COORDINATOR,
        network=NETWORK,
        replicas=R2_REPLICAS,
        failures=r2_failure_schedule(span_s),
        hedge=R2_HEDGE,
    )
    return _build_cluster(
        "cluster-r2-faults", seed, scale, cluster, R2_TEMPLATES, R2_RATE_QPS
    )


def _run_cluster(inputs: Inputs) -> Outcome:
    result = coordinator_module.run_cluster_service(
        inputs.arrivals, inputs.config, inputs.abms, inputs.cluster
    )
    queries = [
        QueryOutcome(r.query_id, r.name, r.submit_time, r.finish_time, r.breakdown)
        for r in result.records
    ]
    return Outcome(
        runs=list(result.shard_runs),
        queries=queries,
        makespan=result.duration,
        result=result,
    )


_BUILDERS = {
    "closed-nsm": (_build_closed_nsm, _run_closed_nsm),
    "open-dsm": (_build_open_dsm, _run_open_dsm),
    "cluster-64": (_build_cluster_64, _run_cluster),
    "cluster-r2-faults": (_build_cluster_r2, _run_cluster),
}


def build(workload: str, seed: int, scale: str = "full") -> Inputs:
    """Build one round's inputs (the benchmark's set-up work)."""
    builder, _ = _BUILDERS[workload]
    return builder(seed, SCALES[workload][scale])


def execute(inputs: Inputs) -> Outcome:
    """Run one round to the end."""
    _, runner = _BUILDERS[inputs.workload]
    return runner(inputs)
