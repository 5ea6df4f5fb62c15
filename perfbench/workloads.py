"""The benchmark's three workloads, driven through ``repro.api`` only.

Each workload has a generator, which turns ``--seed`` into the complete
input before any timing starts, and a round, which builds a fresh Liquid
deployment from that input (set-up), runs the measured phase, and checks
every output against a dict model of the input (the oracles).  A round is
deterministic in simulated time: the same input gives bit-identical
``sim_*`` values, round after round and process after process.

* ``nearline``: produce -> replicate -> stateful job -> derived feed, as an
  open loop in simulated time, then a dashboard reading the job's state.
* ``backfill``: a new job version rewinds a tiered, partly archived topic
  to offset 0 and recomputes per-page counts, which are then read back.
* ``serving``: an exactly-once counting job with standby replicas and
  telemetry, read by one closed-loop query client while it writes.

Only names exported by ``repro.api`` are imported here, so refactors of the
internals need no edit of this file.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import math
import random
import statistics
import time
import typing
from typing import Any

from repro.api import (
    ACKS_ALL,
    EXACTLY_ONCE,
    AdminClient,
    ConsumerConfig,
    JobConfig,
    Liquid,
    ProducerConfig,
    StateQueryRouter,
    StoreConfig,
)

WORKLOADS = ("nearline", "backfill", "serving")

PARTITIONS = 4
INPUT = "events"
DERIVED = "derived"
PAGES = 400
USER_AGENTS = ("Mozilla/5.0 (X11; Linux x86_64)", "Mozilla/5.0 (Macintosh)",
               "Mozilla/5.0 (iPhone; CPU iPhone OS 17_0)")
COUNTRIES = ("us", "in", "br", "de", "gb", "fr", "ca", "jp")


@dataclasses.dataclass(frozen=True)
class Params:
    """Sizes of one workload; ``scale`` shrinks them for the self-test."""

    events: int
    members: int
    #: Point reads after the measured stream (nearline, backfill).
    reads: int = 0
    #: Mean open-loop input rate, events per simulated second; arrivals are
    #: Poisson (nearline, serving).
    rate: float = 0.0
    #: The job polls on this simulated cadence, like a consumer whose fetch
    #: waits for data; a pass that overruns starts the next one at once.
    poll_interval: float = 0.02
    #: Simulated seconds the serving client waits between two queries.
    think_time: float = 0.0002

    def scaled(self, scale: float) -> "Params":
        return dataclasses.replace(
            self,
            events=max(200, int(self.events * scale)),
            members=max(50, int(self.members * scale)),
            reads=int(self.reads * scale),
        )


# The nearline rate is about half the simulated capacity the at-least-once
# job reaches at this cadence.  The exactly-once job batches its writes and
# is about a quarter busy at the serving rate.
PARAMS = {
    "nearline": Params(events=6000, members=2000, reads=60_000, rate=700.0),
    "backfill": Params(events=80_000, members=2000, reads=30_000),
    "serving": Params(events=8000, members=1500, rate=2000.0),
}

#: Backfill history covers this many simulated seconds.
HISTORY_S = 7200.0


# -- input generation ----------------------------------------------------------


@dataclasses.dataclass
class Inputs:
    workload: str
    seed: int
    params: Params
    #: Tracking events in due order; ``due`` is relative to the start of
    #: the measured phase (simulated seconds).
    events: list[dict[str, Any]]
    #: Keys of the point reads after the stream (nearline, backfill).
    reads: list[str] = dataclasses.field(default_factory=list)
    #: Serving only: the client's query plan, ``(kind, arg, allow_stale)``.
    queries: list[tuple[str, Any, bool]] = dataclasses.field(default_factory=list)


def _zipf_sampler(rng: random.Random, n: int, s: float = 1.1):
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return lambda: min(bisect.bisect_left(cdf, rng.random()), n - 1)


def _pareto_sampler(rng: random.Random, n: int, alpha: float = 1.16):
    return lambda: int(rng.paretovariate(alpha) - 1.0) % n


def generate(workload: str, seed: int, scale: float = 1.0) -> Inputs:
    """The complete, seeded input of one workload."""
    if workload not in PARAMS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    params = PARAMS[workload].scaled(scale)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "serving":
        member_of = _pareto_sampler(rng, params.members)
    else:
        member_of = _zipf_sampler(rng, params.members)
    page_of = _zipf_sampler(rng, PAGES, s=0.9)
    n = params.events
    dues, due = [], 0.0
    for _ in range(n):
        dues.append(due)
        due += rng.expovariate(params.rate) if params.rate else HISTORY_S / n
    events = []
    for i, due in enumerate(dues):
        events.append({
            "id": i,
            "member": f"m{member_of()}",
            "page": f"/p/{page_of()}",
            "country": COUNTRIES[rng.randrange(len(COUNTRIES))],
            "ua": USER_AGENTS[rng.randrange(len(USER_AGENTS))],
            "dwell_ms": rng.randrange(20, 30_000),
            "due": due,
        })
    reads = []
    if workload == "nearline":
        reads = [f"m{member_of()}" for _ in range(params.reads)]
    elif workload == "backfill":
        reads = [f"/p/{page_of()}" for _ in range(params.reads)]
    queries: list[tuple[str, Any, bool]] = []
    if workload == "serving":
        # Enough plan for the whole run; the client stops when the job does.
        horizon = due + 1.0
        for q in range(int(horizon / params.think_time) + 1):
            if q % 20 == 19:
                lo = rng.randrange(10, 100)
                queries.append(("range", (f"m{lo}", f"m{lo + 1}"), False))
            else:
                queries.append(("get", f"m{member_of()}", q % 2 == 1))
    return Inputs(workload, seed, params, events, reads, queries)


# -- the measured round --------------------------------------------------------


@dataclasses.dataclass
class RoundResult:
    """What one set-up + measured phase produced."""

    #: Seconds of the measured stream (reads after it excluded), at the
    #: reference pace.
    stream_s: float
    #: Raw wall seconds of the whole measured phase, reads and reference
    #: slices included: the span a traced round covers.
    phase_s: float
    #: Input records taken to a verified result.
    records: int
    attempted: int
    failed: int
    #: Seconds spent inside ``StateQueryRouter`` calls, at the reference
    #: pace, and their count.
    query_s: float
    queries: int
    #: Simulated-clock metrics; bit-identical for identical inputs.
    sim: dict[str, float]
    #: Oracle findings, one line each (empty when every check passed).
    errors: list[str]
    #: Median seconds to build the deployment, at the reference pace.
    setup_s: float = 0.0


class NoHooks:
    """Called around the measured phase; the traced run overrides these."""

    def begin(self, liquid: Liquid) -> None:
        pass

    def end(self) -> None:
        pass


#: The clock of every paced measurement: the thread's CPU time, which
#: leaves out the time the guest scheduler or the host (steal) ran something
#: else.  The workload is single-threaded and does no I/O.
CLOCK = time.thread_time


class Pace:
    """Slices of fixed reference work, interleaved with the measured work.

    A shared host speeds up and slows down by tens of percent, over
    milliseconds to minutes, as its other tenants come and go.  The slices
    run between stretches of the measured work (laps), so they see the same
    swings, and each lap is read at the pace of the slices around it: its
    time is scaled by ``(NOMINAL_S / s) ** ELASTICITY``, where ``s`` is the
    median of the ``WINDOW`` slices nearest the lap.  The median ignores a
    slice that a garbage collection of the program's heap happened to land
    in.  The elasticity is below 1 because the program, whose heap does not
    fit the caches, gains less than the slice when the host turns fast:
    there the slice ran about twice as fast and the program about 1.7 times.
    """

    NOMINAL_S = 250e-6
    ELASTICITY = 0.7
    WINDOW = 9

    def __init__(self) -> None:
        #: Seconds of each reference slice.
        self.slices: list[float] = []
        #: Seconds of the measured work between two consecutive slices.
        self.laps: list[float] = []
        self._mark: float | None = None

    def slice(self) -> None:
        start = CLOCK()
        if self._mark is not None:
            self.laps.append(start - self._mark)
        table: dict[str, dict] = {}
        for i in range(400):
            key = f"k{i % 37}"
            entry = table.get(key)
            if entry is None:
                table[key] = {"n": 1, "v": [i]}
            else:
                entry["n"] += 1
                entry["v"].append((i, key))
        self._mark = CLOCK()
        self.slices.append(self._mark - start)

    @property
    def lap(self) -> int:
        """The number of the lap running now."""
        return len(self.slices) - 1

    def factor(self, lap: int) -> float:
        """Reference pace over the host's pace around ``lap``."""
        half = self.WINDOW // 2
        local = statistics.median(self.slices[max(0, lap - half):lap + half + 1])
        return (self.NOMINAL_S / local) ** self.ELASTICITY

    def paced(self, laps: dict[int, float] | None = None) -> float:
        """Seconds of measured work at the reference pace.

        By default every lap; ``laps`` maps lap numbers to seconds measured
        inside those laps instead.
        """
        items = laps.items() if laps is not None else enumerate(self.laps)
        return sum(seconds * self.factor(lap) for lap, seconds in items)


#: Deployments built per round; the round's set-up time is their median and
#: the last one is measured.  Set-ups of a few milliseconds are repeated so
#: that the median is steady.
SETUPS_PER_ROUND = {"nearline": 9, "backfill": 1, "serving": 9}


def run_round(inputs: Inputs, hooks: NoHooks | None = None,
              corrupt: bool = False) -> RoundResult:
    """Build, run and check one round of ``inputs.workload``.

    ``corrupt`` changes one output before the oracles look at it; the
    self-test uses it to show that the oracles catch a wrong result.
    """
    setup, measure = {"nearline": (_setup_nearline, _measure_nearline),
                      "backfill": (_setup_backfill, _measure_backfill),
                      "serving": (_setup_serving, _measure_serving)}[inputs.workload]
    pace = Pace()
    setups = []
    pace.slice()
    for _ in range(SETUPS_PER_ROUND[inputs.workload]):
        first = len(pace.laps)
        deployment = setup(inputs, pace)
        pace.slice()
        setups.append({lap: pace.laps[lap] for lap in range(first, len(pace.laps))})
    result = measure(inputs, deployment, hooks or NoHooks(), corrupt)
    result.setup_s = statistics.median(pace.paced(laps) for laps in setups)
    return result


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _sim_metrics(processed: int, busy: float, makespan: float, wire: float,
                 records: int, latencies: list[float]) -> dict[str, float]:
    ordered = sorted(latencies)
    return {
        "sim_capacity_rps": processed / busy,
        "sim_latency_p50_ms": _percentile(ordered, 0.50) * 1e3,
        "sim_latency_p99_ms": _percentile(ordered, 0.99) * 1e3,
        "sim_makespan_s": makespan,
        "sim_wire_bytes_per_record": wire / records,
    }


def _wire_bytes(liquid: Liquid) -> float:
    return AdminClient(liquid.cluster).compression_stats()["bytes_on_wire"]


class _QueryClock:
    """Seconds spent inside router calls, from one closed-loop client.

    The seconds are kept per lap of ``pace``, so that they can be read at
    the reference pace.  A garbage collection that lands inside a call is
    left out: it walks the whole heap, and everything allocated since the
    last one triggered it, not the query path.  Where it lands depends on
    the seed, so counting it would split ``query_rps`` into two modes.
    """

    def __init__(self, pace: Pace) -> None:
        self.pace = pace
        self.laps: dict[int, float] = {}
        self.count = 0
        self._gc_start = 0.0
        self._gc_s = 0.0

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = CLOCK()
        else:
            self._gc_s += CLOCK() - self._gc_start

    def call(self, fn, *args, **kwargs):
        gc.callbacks.append(self._on_gc)
        self._gc_s = 0.0
        start = CLOCK()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = CLOCK() - start - self._gc_s
            gc.callbacks.remove(self._on_gc)
            lap = self.pace.lap
            self.laps[lap] = self.laps.get(lap, 0.0) + elapsed
            self.count += 1

    def seconds(self) -> float:
        """Seconds inside the calls, at the reference pace."""
        return self.pace.paced(laps=self.laps)


def _read_back(router: StateQueryRouter, store: str, keys: list[str],
               model: dict[str, int]) -> tuple[_QueryClock, int]:
    """Point-read ``keys`` after the stream; count answers off the model."""
    pace = Pace()
    clock = _QueryClock(pace)
    wrong = 0
    for i, key in enumerate(keys):
        if i % READS_PER_SLICE == 0:
            pace.slice()
        if clock.call(router.get, store, key).value != model.get(key):
            wrong += 1
    pace.slice()
    return clock, wrong


#: Point reads between two reference slices.
READS_PER_SLICE = 200


#: The open loops' producer flushes once per job cadence, like a time-based
#: linger; this caps a partition's batch in between.
OPEN_LOOP_LINGER = 64


def _open_loop(liquid: Liquid, producer, runner, consumer, events: list[dict],
               params: Params, pace: Pace, on_pass=None) -> dict[str, Any]:
    """Drive an open loop in simulated time until every event is derived.

    Events are sent when due and stamped with their due time.  The job polls
    every ``poll_interval``; the downstream consumer drains whenever new
    output can have become visible, and each derived record's latency runs
    from its event's due time to the simulated time its poll returned it.
    Events never derived count as infinitely late.
    """
    clock = liquid.clock
    t0 = clock.now()
    n = len(events)
    arrivals: dict[int, float] = {}
    derived: list[dict] = []
    busy = 0.0
    processed = 0
    i = 0
    next_poll = t0

    def drain() -> None:
        while True:
            batch = consumer.poll()
            if not batch:
                return
            arrived = clock.now() + consumer.last_poll_latency
            for record in batch:
                derived.append(record.value)
                arrivals.setdefault(record.value["id"], arrived - record.timestamp)

    idle_passes = 0
    while len(arrivals) < n and idle_passes <= 50:
        pace.slice()
        now = clock.now()
        while i < n and t0 + events[i]["due"] <= now:
            event = events[i]
            producer.send(INPUT, event, key=event["member"],
                          timestamp=t0 + event["due"])
            i += 1
        producer.flush()
        if now >= next_poll:
            result = runner.poll_once()
            busy += result.latency
            processed += result.records_processed
            next_poll += params.poll_interval
            drain()
            if on_pass is not None:
                on_pass(derived)
            if i == n and result.records_processed == 0:
                # Input exhausted and the job idle: commit open transactions
                # and let replication publish the tail.
                runner.checkpoint()
                idle_passes += 1
        liquid.tick(max(0.0, next_poll - clock.now()))
        drain()
    return {
        "derived": derived,
        "busy": busy,
        "processed": processed,
        "makespan": clock.now() - t0,
        "latencies": [arrivals.get(e["id"], math.inf) for e in events],
    }


def _check_derived(derived: list[dict], expected: list[int]) -> tuple[int, list[str]]:
    """Count inputs whose derived record is missing, duplicated or wrong."""
    seen = [0] * len(expected)
    wrong = 0
    for value in derived:
        event_id = value["id"]
        seen[event_id] += 1
        if value["count"] != expected[event_id]:
            wrong += 1
    missing = sum(1 for s in seen if s == 0)
    duplicated = sum(s - 1 for s in seen if s > 1)
    errors = []
    if missing or duplicated or wrong:
        errors.append(f"derived feed: {missing} missing, {duplicated} "
                      f"duplicated, {wrong} wrong counts")
    return missing + duplicated + wrong, errors


def _running_counts(events: list[dict]) -> list[int]:
    """Per event, the count of its member including itself."""
    counts: dict[str, int] = {}
    out = []
    for event in events:
        counts[event["member"]] = counts.get(event["member"], 0) + 1
        out.append(counts[event["member"]])
    return out


def _totals(events: list[dict], field: str) -> dict[str, int]:
    totals: dict[str, int] = {}
    for event in events:
        totals[event[field]] = totals.get(event[field], 0) + 1
    return totals


class _EnrichTask:
    """Keeps a changelogged per-member count; emits one record per input."""

    def init(self, context) -> None:
        self.counts = context.store("counts")

    def process(self, record, collector) -> None:
        event = record.value
        member = event["member"]
        count = (self.counts.get(member) or 0) + 1
        self.counts.put(member, count)
        collector.send(
            DERIVED,
            {"id": event["id"], "member": member, "page": event["page"],
             "count": count},
            key=member,
            timestamp=record.timestamp,
        )


# -- nearline --------------------------------------------------------------------


def _setup_nearline(inputs: Inputs, pace: Pace) -> dict[str, Any]:
    liquid = Liquid(num_brokers=3)
    liquid.create_feed(INPUT, partitions=PARTITIONS)
    runner = liquid.submit_job(
        JobConfig(name="enrich", inputs=[INPUT], task_factory=_EnrichTask,
                  stores=[StoreConfig("counts")]),
        outputs=[DERIVED],
    )
    producer = liquid.producer(config=ProducerConfig(
        acks=ACKS_ALL, compression="zlib:6", linger_messages=OPEN_LOOP_LINGER))
    consumer = liquid.consumer(config=ConsumerConfig(max_poll_messages=500))
    consumer.assign(liquid.cluster.partitions_of(DERIVED))
    return {"liquid": liquid, "runner": runner, "producer": producer,
            "consumer": consumer, "router": StateQueryRouter(runner)}


def _measure_nearline(inputs: Inputs, d: dict[str, Any], hooks: NoHooks,
                      corrupt: bool) -> RoundResult:
    events = inputs.events
    liquid, router = d["liquid"], d["router"]
    model = _totals(events, "member")
    wire0 = _wire_bytes(liquid)
    gc.collect()  # set-up garbage is not the measured phase's cost
    hooks.begin(liquid)
    pace = Pace()
    start = time.perf_counter()
    run = _open_loop(liquid, d["producer"], d["runner"], d["consumer"], events,
                     inputs.params, pace)
    pace.slice()
    stream_s = pace.paced()
    # A dashboard then reads members' counts, popular members most often.
    queries, wrong_reads = _read_back(router, "counts", inputs.reads, model)
    phase_s = time.perf_counter() - start
    hooks.end()
    wire = _wire_bytes(liquid) - wire0

    if corrupt:
        run["derived"][len(run["derived"]) // 2]["count"] += 1
    failed, errors = _check_derived(run["derived"], _running_counts(events))
    if wrong_reads:
        errors.append(f"reads: {wrong_reads} member counts differ from the model")
    n = len(events)
    sim = _sim_metrics(run["processed"], run["busy"], run["makespan"], wire, n,
                       run["latencies"])
    return RoundResult(stream_s, phase_s, n - failed, n + queries.count,
                       failed + wrong_reads, queries.seconds(), queries.count,
                       sim, errors)


# -- backfill --------------------------------------------------------------------


def _topic_config_types(liquid: Liquid) -> dict[str, type]:
    """The retention, log and tiered config classes of a topic.

    Resolved from the annotations of the topic config the cluster hands
    out, so this module needs no import from outside ``repro.api``.
    """
    any_topic = liquid.cluster.topics()[0]
    hints = typing.get_type_hints(type(liquid.cluster.topic_config(any_topic)))
    tiered = next(t for t in typing.get_args(hints["tiered"]) if t is not type(None))
    return {"retention": hints["retention"], "log": hints["log"], "tiered": tiered}


class _PageCountTask:
    """Recounts views per page, changelog-free, and checks what it reads.

    Each partition must deliver the ids the producer put there, in order and
    at contiguous offsets, across the cold/hot boundary.  ``expected`` maps
    a partition to its ids in offset order.
    """

    def __init__(self, registry: list, expected: dict[int, list[int]]) -> None:
        registry.append(self)
        self.expected = expected
        self.read: dict[int, int] = {}
        self.out_of_order = 0

    def init(self, context) -> None:
        self.pages = context.store("pages")

    def process(self, record, collector) -> None:
        event = record.value
        partition = record.partition
        position = self.read.get(partition, 0)
        ids = self.expected[partition]
        if (record.offset != position or position >= len(ids)
                or event["id"] != ids[position]):
            self.out_of_order += 1
        self.read[partition] = position + 1
        page = event["page"]
        self.pages.put(page, (self.pages.get(page) or 0) + 1)


# Retention keeps the newest hour of the two-hour history hot; the rest is
# archived.  The hot bytes exceed each broker's page cache, so the replay
# reads the disk as well as the object store.
BACKFILL_RETENTION_S = 3600.0
BACKFILL_SEGMENT_MESSAGES = 250
BACKFILL_PAGE_CACHE_BYTES = 256 * 1024
BACKFILL_PRODUCE_BATCH = 50
#: Simulated seconds between the history loader's clock ticks.
BACKFILL_TICK_S = 10.0


def _setup_backfill(inputs: Inputs, pace: Pace) -> dict[str, Any]:
    events = inputs.events
    liquid = Liquid(num_brokers=3, page_cache_bytes=BACKFILL_PAGE_CACHE_BYTES,
                    maintenance_interval=60.0)
    types = _topic_config_types(liquid)
    liquid.create_feed(
        INPUT,
        partitions=PARTITIONS,
        retention=types["retention"](retention_seconds=BACKFILL_RETENTION_S),
        log=types["log"](segment_max_messages=BACKFILL_SEGMENT_MESSAGES),
        tiered=types["tiered"](),
    )
    producer = liquid.producer(config=ProducerConfig(
        acks=ACKS_ALL, compression="zlib:6",
        linger_messages=BACKFILL_PRODUCE_BATCH))
    clock = liquid.clock
    t0 = clock.now()
    for event in events:
        due = t0 + event["due"]
        if due - clock.now() >= BACKFILL_TICK_S:
            liquid.tick(due - clock.now())
            pace.slice()
        # Keyed by page, so each page's count lives on one task's shard.
        producer.send(INPUT, event, key=event["page"], timestamp=due)
    producer.flush()
    liquid.tick(60.0)
    tasks: list[_PageCountTask] = []
    expected: dict[int, list[int]] = {}
    runner = liquid.submit_job(JobConfig(
        name="recount", version="v2", inputs=[INPUT],
        task_factory=lambda: _PageCountTask(tasks, expected),
        stores=[StoreConfig("pages", changelog=False)],
    ))
    return {"liquid": liquid, "runner": runner, "tasks": tasks,
            "expected": expected, "router": StateQueryRouter(runner)}


def _measure_backfill(inputs: Inputs, d: dict[str, Any], hooks: NoHooks,
                      corrupt: bool) -> RoundResult:
    events = inputs.events
    liquid, runner, router, tasks = d["liquid"], d["runner"], d["router"], d["tasks"]
    clock = liquid.clock
    # The router routes a key with the producer's partitioner.
    for event in events:
        d["expected"].setdefault(router.task_for_key(event["page"]), []).append(
            event["id"])
    model = _totals(events, "page")
    n = len(events)
    wire0 = _wire_bytes(liquid)
    gc.collect()  # set-up garbage is not the measured phase's cost
    hooks.begin(liquid)
    pace = Pace()
    start = time.perf_counter()
    t_start = clock.now()
    busy = 0.0
    latencies: list[float] = []
    while runner.backlog():
        pace.slice()
        result = runner.poll_once()
        busy += result.latency
        # Every history record was due when the rewind began.
        latencies.extend([clock.now() - t_start] * result.records_processed)
    makespan = clock.now() - t_start
    pace.slice()
    stream_s = pace.paced()
    if corrupt:
        page = inputs.reads[0]
        tasks[router.task_for_key(page)].pages.put(page, -1)
    queries, wrong_reads = _read_back(router, "pages", inputs.reads, model)
    phase_s = time.perf_counter() - start
    hooks.end()
    wire = _wire_bytes(liquid) - wire0

    errors = []
    read = sum(sum(t.read.values()) for t in tasks)
    out_of_order = sum(t.out_of_order for t in tasks)
    unread = max(0, n - read)
    if read != n or out_of_order:
        errors.append(f"replay: read {read} of {n} records, {out_of_order} "
                      f"out of order or past a gap")
    if wrong_reads:
        errors.append(f"reads: {wrong_reads} page counts differ from the model")
    sim = _sim_metrics(read, busy, makespan, wire, n,
                       latencies + [math.inf] * unread)
    return RoundResult(stream_s, phase_s, n - unread - out_of_order,
                       n + queries.count, unread + out_of_order + wrong_reads,
                       queries.seconds(), queries.count, sim, errors)


# -- serving ---------------------------------------------------------------------


class _CountingTask(_EnrichTask):
    """The enrich task, which also tells the oracle how far it has read."""

    def __init__(self, registry: dict) -> None:
        self.registry = registry
        self.processed = 0

    def init(self, context) -> None:
        super().init(context)
        self.registry[context.task_id] = self

    def process(self, record, collector) -> None:
        super().process(record, collector)
        self.processed += 1


def _setup_serving(inputs: Inputs, pace: Pace) -> dict[str, Any]:
    tasks: dict[int, _CountingTask] = {}
    liquid = Liquid(num_brokers=3)
    liquid.create_feed(INPUT, partitions=PARTITIONS)
    runner = liquid.submit_job(
        JobConfig(name="counts", inputs=[INPUT],
                  task_factory=lambda: _CountingTask(tasks),
                  stores=[StoreConfig("counts")],
                  processing_guarantee=EXACTLY_ONCE, num_standby_replicas=1),
        outputs=[DERIVED],
    )
    router = StateQueryRouter(runner)
    liquid.enable_telemetry(interval=1.0, with_slos=True, servers=router.servers)
    producer = liquid.producer(config=ProducerConfig(
        acks=ACKS_ALL, linger_messages=OPEN_LOOP_LINGER))
    consumer = liquid.consumer(config=ConsumerConfig(
        max_poll_messages=500, isolation_level="read_committed"))
    consumer.assign(liquid.cluster.partitions_of(DERIVED))
    return {"liquid": liquid, "runner": runner, "producer": producer,
            "consumer": consumer, "router": router, "tasks": tasks}


def _measure_serving(inputs: Inputs, d: dict[str, Any], hooks: NoHooks,
                     corrupt: bool) -> RoundResult:
    events = inputs.events
    liquid, router, tasks = d["liquid"], d["router"], d["tasks"]

    # Committed inputs per input partition, read off the read_committed
    # derived feed, which holds one record per input.
    partition_of = [router.task_for_key(e["member"]) for e in events]
    committed = [0] * PARTITIONS
    counted = [0]
    clock = liquid.clock
    pace = Pace()
    queries = _QueryClock(pace)
    plan = inputs.queries
    cursor = {"next": 0, "at": clock.now()}
    answers: list[tuple] = []

    def client(derived: list[dict]) -> None:
        for value in derived[counted[0]:]:
            committed[partition_of[value["id"]]] += 1
        counted[0] = len(derived)
        # Closed loop: the next query is sent when the previous one has
        # returned plus the think time, until the client catches up with
        # the simulated present.  Answers are checked after the run.
        while cursor["at"] <= clock.now() and cursor["next"] < len(plan):
            kind, arg, allow_stale = plan[cursor["next"]]
            cursor["next"] += 1
            if kind == "get":
                answer = queries.call(router.get, "counts", arg,
                                      allow_stale=allow_stale)
                pairs = ((arg, answer.value),)
            else:
                answer = queries.call(router.range, "counts", *arg)
                pairs = answer.value
            answers.append((kind, arg, pairs, answer.staleness_records,
                            tuple(committed),
                            tuple(tasks[p].processed for p in range(PARTITIONS))))
            cursor["at"] += answer.latency + inputs.params.think_time

    wire0 = _wire_bytes(liquid)
    gc.collect()  # set-up garbage is not the measured phase's cost
    hooks.begin(liquid)
    start = time.perf_counter()
    run = _open_loop(liquid, d["producer"], d["runner"], d["consumer"], events,
                     inputs.params, pace, on_pass=client)
    pace.slice()
    phase_s = time.perf_counter() - start
    stream_s = pace.paced()
    hooks.end()
    wire = _wire_bytes(liquid) - wire0
    final = dict(router.range("counts").value)
    liquid.telemetry.stop()

    if corrupt:
        run["derived"][len(run["derived"]) // 2]["count"] += 1
    failed, errors = _check_derived(run["derived"], _running_counts(events))
    model = _totals(events, "member")
    wrong_state = sum(1 for m in model.keys() | final.keys()
                      if final.get(m) != model.get(m))
    if wrong_state:
        errors.append(f"store: {wrong_state} member counts differ from the model")
    bad = _check_answers(answers, events, partition_of)
    if bad:
        errors.append(f"queries: {len(bad)} answers outside their staleness "
                      f"bound, first: {bad[0]}")
    n = len(events)
    sim = _sim_metrics(run["processed"], run["busy"], run["makespan"], wire, n,
                       run["latencies"])
    return RoundResult(stream_s, phase_s, n - failed, n + queries.count + 1,
                       failed + wrong_state + len(bad), queries.seconds(),
                       queries.count, sim, errors)


def _check_answers(answers: list[tuple], events: list[dict],
                   partition_of: list[int]) -> list[str]:
    """Answers outside ``[model(committed - staleness), model(processed)]``.

    Under exactly-once the committed state is the state of record: a
    standby trails the committed changelog by at most the staleness it
    reports, and the primary may also serve writes not yet committed.  Both
    bounds count inputs of the key's own input partition.
    """
    steps: dict[str, list[int]] = {}
    seen = [0] * PARTITIONS
    for event, partition in zip(events, partition_of):
        seen[partition] += 1
        steps.setdefault(event["member"], []).append(seen[partition])
    member_partition = {e["member"]: p for e, p in zip(events, partition_of)}
    bad = []
    for kind, arg, pairs, staleness, committed, processed in answers:
        for member, value in pairs:
            partition = member_partition.get(member)
            if partition is None:
                ok = value is None
            else:
                positions = steps[member]
                low = bisect.bisect_right(
                    positions, max(0, committed[partition] - staleness))
                high = bisect.bisect_right(positions, processed[partition])
                ok = low <= (value or 0) <= high
            if not ok:
                bad.append(f"{kind} {arg!r}: {member} = {value!r} "
                           f"(staleness {staleness})")
    return bad
