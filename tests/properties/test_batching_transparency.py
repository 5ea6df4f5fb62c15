"""Property-based tests: a task's output batching is invisible in the log.

Each job task writes through one output sink that buffers emits and
changelog entries (``JobConfig.linger_messages``).  Batching may change
*when* records ship, never *what* lands: for either guarantee, with or
without a crash and recovery between passes, the derived feed and the
changelog hold the same keys, values, timestamps and per-partition order
at ``linger_messages=1`` as at the default, and the rebuilt store state is
the same.  Under exactly-once the ``read_committed`` output is compared
byte for byte, headers included but for ``__seq``: the broker stamps each
record with the idempotence sequence of the produce request it arrived in,
which names the batch and so records the batching itself.

The job's clock is driven by the test (``auto_advance_clock=False``) in
fixed steps, so both settings see the same simulated times; the pass
latencies charged to the job differ by design — that is the point of
batching.
"""

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
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

CHANGELOG = changelog_topic_name("batched", "counts")

inputs = st.lists(
    st.tuples(st.integers(0, 7), st.integers(-50, 50)), min_size=1, max_size=120
)
schedules = st.lists(st.integers(1, 40), min_size=1, max_size=8)


class CountEmitTask:
    """Counts per key in a changelogged store; emits every input with the
    running count.  Odd inputs keep their timestamp, even ones are stamped
    when the task writes them."""

    def init(self, context):
        self.counts = context.store("counts")

    def process(self, record, collector):
        n = self.counts.get_or_default(record.key, 0) + 1
        self.counts.put(record.key, n)
        collector.send(
            "out",
            {"n": n, "v": record.value},
            key=record.key,
            partition=record.partition,
            timestamp=record.timestamp if record.offset % 2 else None,
        )


def run(guarantee, linger, data, partitions, budgets, crash_after,
        checkpoint_interval):
    clock = SimClock()
    cluster = MessagingCluster(num_brokers=1, clock=clock)
    cluster.create_topic("in", num_partitions=partitions, replication_factor=1)
    cluster.create_topic("out", num_partitions=partitions, replication_factor=1)
    producer = Producer(cluster)
    for key, value in data:
        producer.send("in", value, key=f"k{key}")
        clock.advance(0.001)
    overrides = {} if linger is None else {"linger_messages": linger}
    runner = JobRunner(
        JobConfig(
            name="batched",
            inputs=["in"],
            task_factory=CountEmitTask,
            stores=[StoreConfig("counts")],
            checkpoint_interval=checkpoint_interval,
            processing_guarantee=guarantee,
            **overrides,
        ),
        cluster,
        auto_advance_clock=False,
    )
    for i, budget in enumerate(budgets):
        runner.poll_once(max_messages=budget)
        clock.advance(0.01)
        if i == crash_after:
            runner.crash()
            runner.recover()
    runner.run_until_idle()
    runner.checkpoint()
    isolation = "read_committed" if guarantee == EXACTLY_ONCE else "read_uncommitted"
    logs = {}
    for topic in ("out", CHANGELOG):
        for partition in range(partitions):
            fetched = cluster.fetch(
                topic, partition, 0, 1_000_000, isolation=isolation
            )
            logs[(topic, partition)] = [
                (r.key, r.value, r.timestamp,
                 sorted(h for h in r.headers.items() if h[0] != "__seq"))
                for r in fetched.records
                if r.value is not None or r.headers.get("__ctrl") is None
            ]
    state = {
        task.task_id: sorted(task.stores["counts"].items())
        for task in runner.tasks()
    }
    return logs, state


def outcomes(guarantee, data, partitions, budgets, crash_after, interval):
    return [
        run(guarantee, linger, data, partitions, budgets, crash_after, interval)
        for linger in (1, None)
    ]


common = dict(
    data=inputs,
    partitions=st.integers(1, 3),
    budgets=schedules,
    crash_after=st.one_of(st.none(), st.integers(0, 7)),
    interval=st.integers(1, 50),
)


class TestBatchingTransparency:
    @given(**common)
    @settings(max_examples=30, deadline=None)
    def test_at_least_once_log_and_state_unchanged(
        self, data, partitions, budgets, crash_after, interval
    ):
        unbatched, batched = outcomes(
            AT_LEAST_ONCE, data, partitions, budgets, crash_after, interval
        )
        assert batched == unbatched

    @given(**common)
    @settings(max_examples=30, deadline=None)
    def test_exactly_once_committed_output_byte_identical(
        self, data, partitions, budgets, crash_after, interval
    ):
        (logs1, state1), (logs64, state64) = outcomes(
            EXACTLY_ONCE, data, partitions, budgets, crash_after, interval
        )
        assert repr(logs64).encode() == repr(logs1).encode()
        assert state64 == state1
        # Every input lands exactly once in the committed output.
        emitted = sum(
            len(records) for (topic, _p), records in logs64.items()
            if topic == "out"
        )
        assert emitted == len(data)
