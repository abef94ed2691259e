"""Traced mode: spans around the calls into each layer, from outside ``src/``.

:class:`Tracer` patches each layer's public functions where their callers
look them up (class attributes for methods, module attributes for the
functions other modules import by name) and restores them afterwards.  Every
call becomes a span: its duration, minus the time of the spans it encloses,
is the layer's self time.  A wrapper's own bookkeeping (its frame, its span
record, the counters) is timed too and taken out of its caller's self time,
so tracer cost is not charged to the calling layer; only the call into the
wrapper and its return stay there.  The self times of all layers plus
``unattributed_s`` (time in no span: the benchmark's own loop and the
wrappers' bookkeeping, the latter also kept as :attr:`Tracer.wrapper_s`) sum
to the traced wall-clock by construction.

Spans are kept in memory up to :data:`MAX_SPANS` and written out as JSON
when the run ends; self times and counts cover every call regardless.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from repro.cluster import coordinator as coordinator_module
from repro.cluster import failures as failures_module
from repro.cluster import shardmap as shardmap_module
from repro.core import abm as abm_module
from repro.disk import multivolume as multivolume_module
from repro.net import resources as resources_module
from repro.service import frontdoor as frontdoor_module
from repro.service import server as server_module
from repro.sim import lockstep as lockstep_module
from repro.sim import runner as runner_module

MAX_SPANS = 100_000

_ABM_METHODS = (
    "register",
    "unregister",
    "select_chunk",
    "finish_chunk",
    "cancel",
    "next_load",
    "complete_load",
)

#: layer -> ``(owner, attribute names)``; the owner is the class or module
#: the caller looks the name up in.
LAYER_TARGETS = {
    "sim.lockstep": ((lockstep_module.LockstepRunner, ("run",)),),
    "sim.runner": (
        (
            runner_module.ScanSimulator,
            (
                "__init__",
                "run",
                "begin_run",
                "is_done",
                "next_step_time",
                "step",
                "finish",
                "cancel_query",
                "fail_stop",
                "set_disk_bandwidth_scale",
            ),
        ),
        (server_module, ("run_simulation",)),
    ),
    "core": (
        (abm_module._BaseABM, ("register", "unregister")),
        (abm_module.ActiveBufferManager, _ABM_METHODS[2:]),
        (abm_module.DSMActiveBufferManager, _ABM_METHODS[2:]),
    ),
    "disk": ((multivolume_module.MultiVolumeDisk, ("serve",)),),
    "service.frontdoor": (
        (server_module, ("run_service",)),
        (
            server_module.OpenSystemSource,
            ("next_event_time", "poll", "on_complete", "drained"),
        ),
        (
            frontdoor_module.FrontDoor,
            ("next_arrival_time", "pump", "on_complete", "drained", "class_reports"),
        ),
    ),
    "service.slo": (
        (server_module, ("build_slo_report",)),
        (coordinator_module, ("build_slo_report", "merge_shard_slo_reports")),
    ),
    "cluster": (
        (coordinator_module, ("run_cluster_service",)),
        (
            coordinator_module.ClusterCoordinator,
            (
                "next_arrival_time",
                "pump",
                "drained",
                "complete_subquery",
                "attach_shards",
                "kill_shard",
                "degrade_shard",
                "repair_shard",
                "next_hedge_time",
                "fire_hedges",
                "stall_detail",
                "sub_ids_of",
                "availability_report",
                "take_pending",
                "pending_head_time",
                "has_pending",
                "earliest_in_flight",
            ),
        ),
        (
            coordinator_module.ShardSource,
            ("next_event_time", "poll", "on_complete", "drained"),
        ),
        (failures_module.FailureInjector, ("next_event_time", "fire")),
        (failures_module.HedgeMonitor, ("next_event_time", "fire")),
        (shardmap_module.ShardMap, ("plan", "plan_groups", "sub_request")),
    ),
    "net": (
        (
            resources_module.CoordinatorResources,
            (
                "admit",
                "deliver_scatter",
                "deliver_gather",
                "process_gather",
                "timelines",
                "busy_timelines",
                "report",
            ),
        ),
    ),
    "obs": (
        (runner_module, ("build_single_node_breakdown",)),
        (server_module, ("build_blame_report", "evaluate_alerts")),
        (
            coordinator_module,
            ("build_blame_report", "assemble_cluster_breakdown", "evaluate_alerts"),
        ),
    ),
}

LAYERS = tuple(LAYER_TARGETS)


class Tracer:
    """Patches the layers on :meth:`install`, restores them on
    :meth:`uninstall`, and accumulates self time and counts in between."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {}
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        self.wrapper_s = 0.0
        self.probes = 0
        self.idle_probes = 0
        self.steps = 0
        self.next_load_calls = 0
        self.loads_issued = 0
        self.chunk_selections = 0
        self.chunks_consumed = 0
        self.disk_requests = 0
        self._stack: List[list] = []
        self._next_id = 0
        self._last_probe: Dict[int, float] = {}
        self._saved: List[tuple] = []

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        for layer, targets in LAYER_TARGETS.items():
            for owner, names in targets:
                for name in names:
                    original = owner.__dict__[name]
                    self._saved.append((owner, name, original))
                    setattr(owner, name, self._wrap(layer, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap(self, layer: str, name: str, function):
        perf_counter = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        spans = self.spans
        calls = self.calls
        label = f"{layer}:{name}"
        calls[label] = 0
        count = _COUNTERS.get(label)
        tracer = self

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            frame = [0.0, tracer._next_id]
            tracer._next_id += 1
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            try:
                start = perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - start
                    self_s[layer] += duration - frame[0]
                    calls[label] += 1
                    if len(spans) < MAX_SPANS:
                        spans.append((frame[1], parent, label, start, end))
                    else:
                        tracer.dropped_spans += 1
                if count is not None:
                    count(tracer, args, result)
            finally:
                # The wrapper's own cost around the span leaves the caller's
                # self time too; it is counted in no layer.
                wrapped = perf_counter() - entered
                tracer.wrapper_s += wrapped - duration
                if stack:
                    stack[-1][0] += wrapped
            return result

        wrapper.__name__ = getattr(function, "__name__", name)
        wrapper.__doc__ = getattr(function, "__doc__", None)
        return wrapper

    # -------------------------------------------------------------- output
    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON (one object per span)."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "calls": self.calls,
                    "dropped_spans": self.dropped_spans,
                    "wrapper_s": self.wrapper_s,
                    "spans": [
                        {"id": span_id, "parent": parent, "name": label,
                         "start": start, "end": end}
                        for span_id, parent, label, start, end in self.spans
                    ],
                },
                handle,
            )


def _count_probe(tracer: Tracer, args, result) -> None:
    simulator = id(args[0])
    tracer.probes += 1
    if simulator in tracer._last_probe and tracer._last_probe[simulator] == result:
        tracer.idle_probes += 1
    tracer._last_probe[simulator] = result


def _count_step(tracer: Tracer, args, result) -> None:
    tracer.steps += 1
    tracer._last_probe.pop(id(args[0]), None)


def _count_next_load(tracer: Tracer, args, result) -> None:
    tracer.next_load_calls += 1
    if result is not None:
        tracer.loads_issued += 1


def _count_select(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.chunk_selections += 1


def _count_finish_chunk(tracer: Tracer, args, result) -> None:
    tracer.chunks_consumed += 1


def _count_serve(tracer: Tracer, args, result) -> None:
    tracer.disk_requests += 1


_COUNTERS = {
    "sim.runner:next_step_time": _count_probe,
    "sim.runner:step": _count_step,
    "core:next_load": _count_next_load,
    "core:select_chunk": _count_select,
    "core:finish_chunk": _count_finish_chunk,
    "disk:serve": _count_serve,
}


def layer_metrics(tracer: Tracer, wall_s: float, outcome) -> Dict[str, float]:
    """The per-layer metrics of one traced round, ``trace_overhead`` aside
    (it needs the untraced rounds too)."""
    runs = outcome.runs
    result = outcome.result
    slo = getattr(result, "slo", None)
    coordinator = getattr(result, "coordinator", None)
    availability = getattr(result, "availability", None)
    total_time = sum(run.total_time for run in runs)
    requests = sum(run.io_requests for run in runs)
    attributed = sum(tracer.self_s.values())
    metrics = {
        "sim.lockstep.self_s": tracer.self_s["sim.lockstep"],
        "sim.probes": tracer.probes,
        "sim.idle_probes": tracer.idle_probes,
        "sim.steps": tracer.steps,
        "sim.runner.self_s": tracer.self_s["sim.runner"],
        "core.self_s": tracer.self_s["core"],
        "core.decisions": tracer.chunk_selections + tracer.loads_issued,
        "core.next_load_calls": tracer.next_load_calls,
        "core.loads_issued": tracer.loads_issued,
        "core.chunks_per_load": (
            tracer.chunks_consumed / tracer.loads_issued if tracer.loads_issued else 0.0
        ),
        "disk.self_s": tracer.self_s["disk"],
        "disk.requests": tracer.disk_requests,
        "disk.read_mb": outcome.bytes_read / (1 << 20),
        "disk.util": (
            sum(run.disk_utilisation * run.total_time for run in runs) / total_time
            if total_time > 0 else 0.0
        ),
        "disk.sequential_frac": (
            sum(run.disk_sequential_fraction * run.io_requests for run in runs) / requests
            if requests else 0.0
        ),
        "service.frontdoor.self_s": tracer.self_s["service.frontdoor"],
        "service.queue_wait_p95_s": slo.queue_wait.p95 if slo is not None else 0.0,
        "service.slo.self_s": tracer.self_s["service.slo"],
        "cluster.self_s": tracer.self_s["cluster"],
        "cluster.subqueries": (
            sum(report.offered for report in result.shard_reports)
            if hasattr(result, "shard_reports") else 0
        ),
        "cluster.rescatters": availability.rescatters if availability else 0,
        "cluster.hedges_fired": availability.hedges_fired if availability else 0,
        "cluster.hedges_cancelled": availability.hedges_cancelled if availability else 0,
        "net.self_s": tracer.self_s["net"],
        "net.coordinator_cpu_util": coordinator.cpu_utilisation if coordinator else 0.0,
        "net.coordinator_nic_util": coordinator.nic_utilisation if coordinator else 0.0,
        "obs.self_s": tracer.self_s["obs"],
        "unattributed_s": wall_s - attributed,
    }
    return metrics
