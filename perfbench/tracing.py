"""Per-layer split of one measured phase, from spans around layer entry points.

The traced run wraps the public entry points of each layer, named after the
repository's modules, while it runs and only then: the program itself is
not instrumented.  Each wrapped call becomes a span (name, start, end,
parent) kept in memory.  A layer's self time is its spans' time minus the
time of the spans they enclose, so the self times of all layers plus the
``bench.driver`` remainder add up to the traced wall time.  The simulated
split works the same way on the ``latency`` each call returned, with the
remainder being simulated time no layer reported (idle time of the open
loop, less client-side latencies that overlapped it).

An entry point that no longer exists (for example a per-record path that a
refactor deleted) is reported as absent; its layer reads zero if it has no
entry point left.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import sys
import time
from array import array
from typing import Any, Callable

from repro.api import metric_name


def _latency(_self, result) -> float:
    return getattr(result, "latency", 0.0) or 0.0


def _acks(_self, result) -> float:
    return sum(getattr(ack, "latency", 0.0) for ack in result or ())


def _seconds(_self, result) -> float:
    return result if isinstance(result, float) else 0.0


def _poll_latency(self, _result) -> float:
    return getattr(self, "last_poll_latency", 0.0)


def _catch_up(_self, result) -> float:
    return getattr(result, "simulated_seconds", 0.0)


def _none(_self, _result) -> float:
    return 0.0


#: (layer, module, attribute path, simulated latency of one call).
ENTRY_POINTS: list[tuple[str, str, str, Callable]] = [
    ("messaging.producer", "repro.messaging.producer", "Producer.send", _latency),
    ("messaging.producer", "repro.messaging.producer", "Producer.flush", _acks),
    ("messaging.transactions", "repro.messaging.transactions", "TransactionalProducer.send", _latency),
    ("messaging.transactions", "repro.messaging.transactions", "TransactionalProducer.flush", _acks),
    ("messaging.transactions", "repro.messaging.transactions", "TransactionalProducer.commit", _none),
    ("messaging.transactions", "repro.messaging.transactions",
     "TransactionalProducer.send_offsets_to_transaction", _none),
    ("messaging.cluster", "repro.messaging.cluster", "MessagingCluster.produce", _latency),
    ("messaging.cluster", "repro.messaging.cluster", "MessagingCluster.fetch", _latency),
    ("messaging.replication", "repro.messaging.replication", "ReplicationManager.poll", _none),
    ("messaging.replication", "repro.messaging.cluster", "MessagingCluster.run_until_replicated", _none),
    ("messaging.consumer", "repro.messaging.consumer", "Consumer.poll", _poll_latency),
    ("storage.log", "repro.storage.log", "PartitionLog.append_batch", _latency),
    ("storage.log", "repro.storage.log", "PartitionLog.append_stored_batch", _latency),
    ("storage.log", "repro.storage.log", "PartitionLog.read", _latency),
    ("storage.pagecache", "repro.storage.pagecache", "PageCache.write_batch", _seconds),
    ("storage.pagecache", "repro.storage.pagecache", "PageCache.read", _seconds),
    ("storage.tiered", "repro.storage.tiered.tier", "ColdTier.read_through", _latency),
    ("storage.tiered", "repro.storage.tiered.archiver", "SegmentArchiver.archive", _latency),
    ("common.compression", "repro.common.compression", "compress_entries", _none),
    ("common.compression", "repro.common.compression", "decompress_entries", _none),
    # Consumers inflate through the frame itself, not decompress_entries.
    ("common.compression", "repro.common.compression", "BatchFrame.entries", _none),
    ("processing.job", "repro.processing.job", "JobRunner.poll_once", _latency),
    ("processing.job", "repro.processing.job", "JobRunner.checkpoint", _none),
    ("processing.state", "repro.processing.state", "KeyValueState.put", _none),
    ("processing.state", "repro.processing.state", "KeyValueState.get", _none),
    ("processing.checkpoint", "repro.processing.checkpoint", "CheckpointManager.commit", _none),
    ("processing.checkpoint", "repro.processing.checkpoint",
     "CheckpointManager.commit_transactional", _none),
    ("serving.router", "repro.serving.router", "StateQueryRouter.get", _latency),
    ("serving.router", "repro.serving.router", "StateQueryRouter.range", _latency),
    ("serving.replica", "repro.serving.replica", "StandbyReplica.catch_up", _catch_up),
    ("observability.telemetry", "repro.observability.telemetry",
     "TelemetryExporter.publish_once", _none),
]

LAYERS: list[str] = list(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))
DRIVER = "bench.driver"

#: Extra per-layer metrics and their units, beside self_s, calls and sim_s.
EXTRAS: dict[str, str] = {
    "messaging.producer.records_per_request": "records",
    "messaging.transactions.records_per_request": "records",
    "messaging.transactions.commits": "count",
    "messaging.cluster.produce_requests": "count",
    "messaging.consumer.records_per_poll": "records",
    "messaging.consumer.empty_poll_ratio": "ratio",
    "storage.pagecache.hit_ratio": "ratio",
    "storage.tiered.cold_hit_ratio": "ratio",
    "storage.tiered.cold_fetches": "count",
    "common.compression.wire_reduction": "ratio",
    "processing.job.records_per_pass": "records",
    "processing.job.idle_pass_ratio": "ratio",
    "processing.job.max_backlog": "records",
    "processing.checkpoint.commits": "count",
    "serving.router.get_p50_us": "us",
    "serving.router.get_p99_us": "us",
    "serving.router.range_p50_us": "us",
    "serving.replica.max_staleness_records": "records",
    "observability.telemetry.cycles": "count",
}

#: Every per-layer metric the traced run prints, with its unit.
METRICS: dict[str, str] = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = "s"
    METRICS[f"{_layer}.calls"] = "count"
    METRICS[f"{_layer}.sim_s"] = "s"
METRICS[f"{DRIVER}.self_s"] = "s"
METRICS[f"{DRIVER}.sim_s"] = "s"
METRICS.update(EXTRAS)
METRICS["traced_wall_s"] = "s"
METRICS["trace_overhead"] = "ratio"

_COUNTERS = {
    "pagecache_hits": metric_name("storage", "pagecache", "hits"),
    "pagecache_misses": metric_name("storage", "pagecache", "misses"),
    "cold_hits": metric_name("storage", "tiered", "cold_hits"),
    "cold_fetches": metric_name("storage", "tiered", "cold_fetches"),
}


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class LayerTracer:
    """Wraps the entry points and records spans while a phase is on.

    Use as the workload's hooks: :meth:`begin` and :meth:`end` bracket the
    measured phase of one round; :meth:`install` / :meth:`uninstall` put
    the wrappers in place for the whole traced run.
    """

    def __init__(self) -> None:
        self.absent: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.recording = False
        self.rounds: list[dict[str, Any]] = []

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        for index, (layer, module_name, path, sim_of) in enumerate(ENTRY_POINTS):
            try:
                module = importlib.import_module(module_name)
                owner: Any = module
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}:{path}")
                continue
            wrapper = self._wrap(LAYERS.index(layer), index, original, sim_of)
            if owner is module:
                # A module function is also bound by name in every module
                # that imported it; patch each binding.
                for name, mod in list(sys.modules.items()):
                    if (name.startswith("repro")
                            and getattr(mod, parts[-1], None) is original):
                        self._patch(mod, parts[-1], wrapper)
            else:
                self._patch(owner, parts[-1], wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: Any, name: str, wrapper: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: int, entry: int, original: Any, sim_of: Callable):
        tracer = self
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            rnd = tracer._round
            stack = rnd["stack"]
            parent = stack[-1] if stack else None
            tracer._before(rnd, entry, args, kwargs, parent)
            span_id = rnd["next_id"]
            rnd["next_id"] = span_id + 1
            # [span id, layer, child wall, child simulated]
            frame = [span_id, layer, 0.0, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                try:
                    sim = sim_of(args[0] if args else None, result)
                except (AttributeError, TypeError):
                    sim = 0.0
                rnd["self_s"][layer] += duration - frame[2]
                rnd["sim_s"][layer] += sim - frame[3]
                rnd["calls"][layer] += 1
                if parent is not None:
                    parent[2] += duration
                    parent[3] += sim
                spans = rnd["spans"]
                spans["id"].append(span_id)
                spans["parent"].append(parent[0] if parent is not None else -1)
                spans["layer"].append(layer)
                spans["start"].append(start)
                spans["end"].append(end)
                tracer._after(rnd, entry, args, result, duration)

        wrapper.__wrapped__ = original
        return wrapper

    # -- per-entry extras ----------------------------------------------------

    def _before(self, rnd, entry, args, kwargs, parent) -> None:
        path = ENTRY_POINTS[entry][2]
        extra = rnd["extra"]
        if path == "MessagingCluster.produce":
            extra["produce_requests"] += 1
            entries = kwargs.get("entries", args[3] if len(args) > 3 else ())
            by = LAYERS[parent[1]] if parent is not None else None
            if by in ("messaging.producer", "messaging.transactions"):
                extra[f"{by}.requests"] += 1
                extra[f"{by}.records"] += len(entries)
        elif path == "JobRunner.poll_once":
            extra["backlog"] = max(extra["backlog"], args[0].backlog())

    def _after(self, rnd, entry, args, result, duration) -> None:
        path = ENTRY_POINTS[entry][2]
        extra = rnd["extra"]
        if path == "Consumer.poll":
            extra["polls"] += 1
            extra["polled"] += len(result or ())
            extra["empty_polls"] += 0 if result else 1
        elif path == "JobRunner.poll_once" and result is not None:
            extra["passes"] += 1
            extra["pass_records"] += result.records_processed
            extra["idle_passes"] += 0 if result.records_processed else 1
        elif path in ("compress_entries", "BatchFrame.entries"):
            frame = result if path == "compress_entries" else args[0]
            if frame is not None and id(frame) not in rnd["frames"]:
                rnd["frames"].add(id(frame))
                extra["logical_bytes"] += frame.payload_bytes
                extra["wire_bytes"] += frame.wire_bytes
        elif path == "TransactionalProducer.commit":
            extra["txn_commits"] += 1
        elif path.startswith("CheckpointManager.commit"):
            extra["checkpoints"] += 1
        elif path == "StateQueryRouter.get":
            rnd["get_s"].append(duration)
        elif path == "StateQueryRouter.range":
            rnd["range_s"].append(duration)
        elif path == "StandbyReplica.catch_up" and result is not None:
            extra["staleness"] = max(extra["staleness"], result.records_applied)
        elif path == "TelemetryExporter.publish_once":
            extra["cycles"] += 1

    # -- phases ----------------------------------------------------------------

    def begin(self, liquid) -> None:
        self._liquid = liquid
        self._counters0 = self._counters()
        self._round = {
            "stack": [],
            "next_id": 0,
            "self_s": [0.0] * len(LAYERS),
            "sim_s": [0.0] * len(LAYERS),
            "calls": [0] * len(LAYERS),
            "spans": {"id": array("q"), "parent": array("q"),
                      "layer": array("b"), "start": array("d"), "end": array("d")},
            "extra": _ZeroDict(),
            "frames": set(),
            "get_s": [],
            "range_s": [],
            "sim_start": liquid.clock.now(),
        }
        self.recording = True
        self._round["wall_start"] = time.perf_counter()

    def end(self) -> None:
        wall_end = time.perf_counter()
        self.recording = False
        rnd = self._round
        rnd["wall_s"] = wall_end - rnd["wall_start"]
        rnd["sim_total"] = self._liquid.clock.now() - rnd["sim_start"]
        counters = self._counters()
        rnd["counters"] = {k: counters[k] - self._counters0[k] for k in counters}
        rnd["frames"] = None
        self.rounds.append(rnd)
        self._liquid = None

    def _counters(self) -> dict[str, float]:
        metrics = self._liquid.cluster.metrics
        return {k: metrics.counter(name).value for k, name in _COUNTERS.items()}

    # -- results ----------------------------------------------------------------

    def median_round(self) -> dict[str, Any]:
        ordered = sorted(self.rounds, key=lambda r: r["wall_s"])
        return ordered[(len(ordered) - 1) // 2]

    @staticmethod
    def split(rnd: dict[str, Any]) -> dict[str, float]:
        """Every per-layer metric of one traced round, by name."""
        out: dict[str, float] = {}
        for index, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = rnd["self_s"][index]
            out[f"{layer}.calls"] = rnd["calls"][index]
            out[f"{layer}.sim_s"] = rnd["sim_s"][index]
        out[f"{DRIVER}.self_s"] = rnd["wall_s"] - sum(rnd["self_s"])
        out[f"{DRIVER}.sim_s"] = rnd["sim_total"] - sum(rnd["sim_s"])
        e, c = rnd["extra"], rnd["counters"]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        for by in ("messaging.producer", "messaging.transactions"):
            out[f"{by}.records_per_request"] = ratio(e[f"{by}.records"],
                                                     e[f"{by}.requests"])
        out["messaging.transactions.commits"] = e["txn_commits"]
        out["messaging.cluster.produce_requests"] = e["produce_requests"]
        out["messaging.consumer.records_per_poll"] = ratio(e["polled"], e["polls"])
        out["messaging.consumer.empty_poll_ratio"] = ratio(e["empty_polls"], e["polls"])
        out["storage.pagecache.hit_ratio"] = ratio(
            c["pagecache_hits"], c["pagecache_hits"] + c["pagecache_misses"])
        out["storage.tiered.cold_hit_ratio"] = ratio(
            c["cold_hits"], c["cold_hits"] + c["cold_fetches"])
        out["storage.tiered.cold_fetches"] = c["cold_fetches"]
        out["common.compression.wire_reduction"] = ratio(e["logical_bytes"],
                                                         e["wire_bytes"])
        out["processing.job.records_per_pass"] = ratio(e["pass_records"], e["passes"])
        out["processing.job.idle_pass_ratio"] = ratio(e["idle_passes"], e["passes"])
        out["processing.job.max_backlog"] = e["backlog"]
        out["processing.checkpoint.commits"] = e["checkpoints"]
        out["serving.router.get_p50_us"] = _percentile(rnd["get_s"], 0.50) * 1e6
        out["serving.router.get_p99_us"] = _percentile(rnd["get_s"], 0.99) * 1e6
        out["serving.router.range_p50_us"] = _percentile(rnd["range_s"], 0.50) * 1e6
        out["serving.replica.max_staleness_records"] = e["staleness"]
        out["observability.telemetry.cycles"] = e["cycles"]
        out["traced_wall_s"] = rnd["wall_s"]
        return out

    @staticmethod
    def write_spans(rnd: dict[str, Any], path, header: dict[str, Any]) -> None:
        """Write one round's spans as gzipped JSON lines, after a header."""
        spans = rnd["spans"]
        t0 = rnd["wall_start"]
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({**header, "layers": LAYERS,
                                  "columns": ["id", "parent", "layer",
                                              "start_s", "end_s"]}) + "\n")
            for i in range(len(spans["id"])):
                out.write(json.dumps([
                    spans["id"][i], spans["parent"][i], spans["layer"][i],
                    round(spans["start"][i] - t0, 9), round(spans["end"][i] - t0, 9),
                ]) + "\n")


class _ZeroDict(dict):
    def __missing__(self, key):
        return 0
