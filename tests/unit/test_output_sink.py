"""Unit tests for the per-task output sink: batched emits and changelog
writes under both guarantees, what a crash drops, and what staleness a
standby read reports while writes sit in the sink."""

import math
from collections import Counter

import pytest

from repro.common.clock import SimClock
from repro.common.errors import TaskFailedError
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.processing.job import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    JobConfig,
    JobRunner,
    StoreConfig,
)
from repro.processing.state import changelog_topic_name
from repro.serving import StateQueryRouter

CHANGELOG = changelog_topic_name("sink", "counts")


class SplitTask:
    """Even offsets go to the derived feed, odd ones only update the
    changelogged store: one output or changelog record per input."""

    def init(self, context):
        self.counts = context.store("counts")

    def process(self, record, collector):
        if record.offset % 2 == 0:
            collector.send("out", record.value, key=record.key,
                           partition=record.partition)
        else:
            self.counts.put(record.key, self.counts.get_or_default(record.key, 0) + 1)


class CountEmitTask:
    """Counts per key in a changelogged store and emits each input."""

    fail_at = None  # input offset to raise on, while armed

    def init(self, context):
        self.counts = context.store("counts")

    def process(self, record, collector):
        self.counts.put(record.key, self.counts.get_or_default(record.key, 0) + 1)
        if record.offset == CountEmitTask.fail_at:
            raise RuntimeError("task died mid-pass")
        collector.send("out", {"i": record.value["i"]}, key=record.key,
                       partition=record.partition)


def make_cluster(partitions, n):
    cluster = MessagingCluster(num_brokers=1, clock=SimClock())
    cluster.create_topic("in", num_partitions=partitions, replication_factor=1)
    cluster.create_topic("out", num_partitions=partitions, replication_factor=1)
    producer = Producer(cluster, linger_messages=500)
    for i in range(n):
        producer.send("in", {"i": i}, key=f"k{i % 50}", partition=i % partitions)
    producer.flush()
    return cluster


def config(task_factory, **overrides):
    return JobConfig(
        name="sink",
        inputs=["in"],
        task_factory=task_factory,
        stores=[StoreConfig("counts")],
        **overrides,
    )


def log_of(cluster, topic, partition, isolation="read_uncommitted"):
    """Data records of one partition, control markers left out."""
    fetched = cluster.fetch(topic, partition, 0, 1_000_000, isolation=isolation)
    return [r for r in fetched.records if r.value is not None]


class TestRequestCount:
    def drain(self, linger):
        """Drain 10,000 inputs over 2 partitions; returns (produce
        requests to the derived feed and changelog, passes run)."""
        cluster = make_cluster(partitions=2, n=10_000)
        requests = Counter()
        produce = cluster.produce

        def counting(topic, partition, entries, **kwargs):
            requests[topic] += 1
            return produce(topic, partition, entries, **kwargs)

        cluster.produce = counting
        runner = JobRunner(config(SplitTask, linger_messages=linger), cluster)
        passes = 0
        while runner.poll_once().records_processed:
            passes += 1
        runner.checkpoint()
        assert sum(len(log_of(cluster, "out", p)) for p in range(2)) == 5_000
        assert sum(len(log_of(cluster, CHANGELOG, p)) for p in range(2)) == 5_000
        return requests["out"] + requests[CHANGELOG], passes

    def test_at_least_once_ships_batches_not_records(self):
        requests, passes = self.drain(linger=64)
        # Full batches, plus at most one partial batch per partition each
        # task writes (one output, one changelog) at the end of each pass.
        assert requests <= math.ceil(10_000 / 64) + passes * 2 * 2
        assert requests < 300

    def test_linger_one_ships_every_record(self):
        requests, _passes = self.drain(linger=1)
        assert requests == 10_000


class TestCrashDropsUnsentOutput:
    @pytest.mark.parametrize("guarantee", [AT_LEAST_ONCE, EXACTLY_ONCE])
    def test_dead_incarnation_never_produces_its_buffer(self, guarantee):
        cluster = make_cluster(partitions=1, n=100)
        runner = JobRunner(
            config(CountEmitTask, checkpoint_interval=20,
                   processing_guarantee=guarantee),
            cluster,
        )
        runner.poll_once(max_messages=20)  # shipped and checkpointed
        CountEmitTask.fail_at = 30
        try:
            with pytest.raises(TaskFailedError):
                runner.poll_once(max_messages=20)  # 20..30 buffered, then dies
            # Nothing the failed pass wrote reached the log.
            assert len(log_of(cluster, "out", 0)) == 20
            assert len(log_of(cluster, CHANGELOG, 0)) == 20
            runner.crash()
        finally:
            CountEmitTask.fail_at = None
        runner.recover()
        runner.run_until_idle()
        # Replay starts at the checkpoint (20): had the dead incarnation's
        # buffer shipped, inputs 20..29 would appear twice.
        emitted = Counter(r.value["i"] for r in log_of(cluster, "out", 0))
        assert sorted(emitted) == list(range(100))
        assert set(emitted.values()) == {1}
        assert len(log_of(cluster, CHANGELOG, 0)) == 100
        counts = runner.task(0).stores["counts"]
        assert {f"k{k}": counts.get(f"k{k}") for k in range(50)} == {
            f"k{k}": 2 for k in range(50)
        }


class TestStalenessCountsUnsentChangelog:
    def test_allow_stale_get_counts_staged_updates(self):
        cluster = make_cluster(partitions=1, n=10)
        runner = JobRunner(
            config(CountEmitTask, checkpoint_interval=1000,
                   processing_guarantee=EXACTLY_ONCE, num_standby_replicas=1),
            cluster,
        )
        runner.run_until_idle()  # commits; the standby catches up
        router = StateQueryRouter(runner)
        assert router.get("counts", "k1", allow_stale=True).value == 1
        producer = Producer(cluster)
        updates = 5
        for i in range(updates):
            producer.send("in", {"i": 100 + i}, key="k1")
        runner.poll_once()  # staged below the linger: nothing in the log
        assert runner.task(0).stores["counts"].get("k1") == 1 + updates
        (replica,) = runner.standby_replicas(0)[0].values()
        assert replica.lag() == 0
        stale = router.get("counts", "k1", allow_stale=True)
        assert stale.served_by == "standby"
        unapplied = runner.task(0).stores["counts"].get("k1") - stale.value
        assert unapplied == updates
        assert stale.staleness_records >= unapplied
        assert router.servers[0].standby_staleness()["counts"] >= unapplied
