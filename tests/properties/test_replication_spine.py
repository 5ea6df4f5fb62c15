"""Properties of the batch-native produce → replicate spine.

Three shortcuts carry the spine, and each must be unobservable:

* a record's payload size is computed once, upstream, and carried to the
  log — it must equal :func:`estimate_size` recomputed from scratch over
  the stored record, for every kind of record the producers write;
* an ``acks=all`` leader pushes the records it just appended to its
  in-sync followers, which store the leader's immutable objects;
* a replication pass skips a follower that a fetch could not change.

The last is checked twice: every follower converges on its leader after
an arbitrary mix of produces, background passes, broker kills, restarts and
leader changes, and the same schedule run with the skip disabled leaves
every replica in the identical state after every step.
"""

from contextlib import nullcontext
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.errors import MessagingError
from repro.common.records import (
    RECORD_FRAMING_BYTES,
    TopicPartition,
    estimate_size,
)
from repro.messaging.cluster import ACKS_ALL, ACKS_LEADER, MessagingCluster
from repro.messaging.config import ProducerConfig
from repro.messaging.partition import PartitionReplica
from repro.messaging.producer import Producer
from repro.messaging.transactions import TransactionalProducer
from repro.observability.trace import Tracer, tracing

PARTITIONS = 2
BROKERS = 3

steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["all", "leader"]),
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=0, max_value=PARTITIONS - 1),
        ),
        st.tuples(st.just("tick"), st.just(0), st.just(0)),
        st.tuples(
            st.sampled_from(["kill", "restart"]),
            st.integers(min_value=0, max_value=BROKERS - 1),
            st.just(0),
        ),
        st.tuples(
            st.just("kill_leader"),
            st.just(0),
            st.integers(min_value=0, max_value=PARTITIONS - 1),
        ),
    ),
    min_size=1,
    max_size=30,
)


def replica_state(cluster: MessagingCluster) -> list:
    """Everything replication can change, on every replica of the cluster."""
    out = []
    for broker in cluster.brokers():
        for replica in broker.replicas():
            log = replica.log
            out.append((
                broker.broker_id,
                str(replica.partition),
                replica.role,
                replica.leader_epoch,
                replica.high_watermark,
                log.log_end_offset,
                [(m.offset, m.key, m.value, m.size, m.stored_size)
                 for m in log.all_messages()],
                [(base, last) for base, last, _f in log.frames_between(0, 1 << 62)],
                dict(replica._follower_leo),
            ))
    for p in range(PARTITIONS):
        out.append(cluster.controller.isr_for(TopicPartition("t", p)))
    return out


def run(schedule, snapshot=None):
    """Execute ``schedule``; ``snapshot(cluster)`` is called after each step."""
    cluster = MessagingCluster(
        num_brokers=BROKERS, clock=SimClock(), replication_max_lag=2
    )
    cluster.create_topic("t", num_partitions=PARTITIONS, replication_factor=3)
    producers = {
        "all": Producer(cluster, ProducerConfig(
            acks=ACKS_ALL, compression="zlib:6", linger_messages=3,
            idempotent=True, max_retries=1, retry_jitter_seed=7,
        )),
        "leader": Producer(cluster, ProducerConfig(
            acks=ACKS_LEADER, max_retries=1, retry_jitter_seed=7,
        )),
    }
    counter = 0
    for action, n, p in schedule:
        if action in producers:
            for _ in range(n):
                counter += 1
                try:
                    producers[action].send(
                        "t", {"n": counter}, key=f"k{counter % 5}", partition=p
                    )
                except MessagingError:
                    pass  # re-buffered; a later flush retries it
        elif action == "tick":
            cluster.tick(0.1)
        elif action == "kill":
            if len(cluster.controller.live_brokers()) > 1:
                cluster.kill_broker(n)
        elif action == "restart":
            cluster.restart_broker(n)
        else:
            leader = cluster.leader_of("t", p)
            if leader is not None and len(cluster.controller.live_brokers()) > 1:
                cluster.kill_broker(leader)
        if snapshot is not None:
            snapshot(cluster)
    for broker_id in range(BROKERS):
        cluster.restart_broker(broker_id)
    for producer in producers.values():
        try:
            producer.flush()
        except MessagingError:
            pass
    cluster.run_until_replicated()
    cluster.tick(0.1)  # one more pass carries the final high watermark
    if snapshot is not None:
        snapshot(cluster)
    return cluster


#: An uncommitted acks=1 record on broker 1 (leader of partition 1), whose
#: followers are down; broker 1 dies, broker 2 takes over with an empty
#: log, and broker 1 is back online before the new leader's first write
#: lands at the same offset.
DIVERGENT_TAIL = [
    ("leader", 1, 1), ("kill", 0, 0), ("kill", 1, 0), ("restart", 0, 0),
    ("kill_leader", 0, 0), ("all", 1, 1),
]


class TestFollowersConverge:
    @given(steps)
    @example(DIVERGENT_TAIL)
    @settings(max_examples=60, deadline=None)
    def test_every_follower_equals_its_leader(self, schedule):
        cluster = run(schedule)
        for p in range(PARTITIONS):
            tp = TopicPartition("t", p)
            state = cluster.controller.partition_state(tp)
            assert state.leader is not None
            leader = cluster.broker(state.leader).replica(tp)
            # Every replica is back in sync, so the ISR re-expanded fully.
            assert sorted(state.isr) == sorted(state.replicas)
            expected = [
                (m.offset, m.size, m.stored_size)
                for m in leader.log.all_messages()
            ]
            frames = leader.log.frames_between(0, 1 << 62)
            for broker_id in state.replicas:
                if broker_id == state.leader:
                    continue
                follower = cluster.broker(broker_id).replica(tp)
                assert [
                    (m.offset, m.size, m.stored_size)
                    for m in follower.log.all_messages()
                ] == expected
                got = follower.log.frames_between(0, 1 << 62)
                assert [(b, l) for b, l, _f in got] == [
                    (b, l) for b, l, _f in frames
                ]
                # Frames cross the hop as the same opaque objects.
                assert all(x[2] is y[2] for x, y in zip(got, frames))
                assert follower.high_watermark == leader.high_watermark
                assert follower.leader_epoch == leader.leader_epoch

    @given(steps)
    @settings(max_examples=40, deadline=None)
    def test_idle_follower_skip_is_unobservable(self, schedule):
        with_skip: list = []
        run(schedule, lambda c: with_skip.append(replica_state(c)))
        without_skip: list = []
        with mock.patch.object(
            PartitionReplica, "follower_is_current", lambda *_args: False
        ):
            run(schedule, lambda c: without_skip.append(replica_state(c)))
        assert with_skip == without_skip


# -- carried sizes ---------------------------------------------------------------

keys = st.one_of(st.none(), st.text(max_size=6), st.integers())
values = st.one_of(
    st.text(max_size=30),
    st.integers(),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
    st.lists(st.floats(allow_nan=False), max_size=3),
)


def header_maps(names):
    return st.one_of(
        st.none(),
        st.dictionaries(
            st.sampled_from(names),
            st.one_of(st.integers(), st.text(max_size=5)),
            max_size=3,
        ),
    )


def record_lists(names):
    return st.lists(
        st.tuples(keys, values, header_maps(names)), min_size=1, max_size=20
    )


#: For the idempotent producer, user headers may already carry the keys the
#: broker stamps, with values of another size: the stamp replaces them, so
#: the carried size must change by the difference, not by a fixed amount.
#: The transactional producer stamps ``__pid`` itself on every record.
records = {
    "plain": record_lists(["h", "trace-id"]),
    "zlib": record_lists(["h", "trace-id"]),
    "idempotent": record_lists(["h", "__pid", "__seq"]),
    "transactional": record_lists(["h", "trace-id"]),
}
modes = st.sampled_from(sorted(records))


def assert_sizes_recomputed(cluster: MessagingCluster) -> None:
    checked = 0
    for broker in cluster.brokers():
        for replica in broker.replicas():
            framed = {}
            for base, last, frame in replica.log.frames_between(0, 1 << 62):
                for offset, share in zip(range(base, last + 1),
                                         frame.stored_sizes()):
                    framed[offset] = share
            for m in replica.log.all_messages():
                assert m.size == (
                    estimate_size(m.key)
                    + estimate_size(m.value)
                    + estimate_size(m.headers)
                    + RECORD_FRAMING_BYTES
                )
                assert m.stored_size == framed.get(m.offset, m.size)
                checked += 1
    assert checked


class TestCarriedSizes:
    @given(st.data(), modes, st.booleans(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_carried_size_equals_recomputed(self, data, mode, traced, linger):
        batch = data.draw(records[mode])
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic("t", num_partitions=2, replication_factor=3)
        with tracing(Tracer(seed=1)) if traced else nullcontext():
            if mode == "transactional":
                producer = TransactionalProducer(
                    cluster, "txn-1", linger_messages=linger
                )
                producer.begin()
                for key, value, hdrs in batch:
                    producer.send("t", value, key=key, headers=hdrs)
                producer.commit()
            else:
                producer = Producer(cluster, ProducerConfig(
                    acks=ACKS_ALL,
                    linger_messages=linger,
                    compression="zlib:6" if mode == "zlib" else "none",
                    idempotent=mode == "idempotent",
                ))
                for key, value, hdrs in batch:
                    producer.send("t", value, key=key, headers=hdrs)
                producer.flush()
        cluster.run_until_replicated()
        assert_sizes_recomputed(cluster)
