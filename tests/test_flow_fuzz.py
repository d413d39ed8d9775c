"""Differential fuzzing of the columnar serving core against scalar oracles.

* ``FlowTable`` (struct-of-arrays, batch at a time) against
  ``flow_oracle.ScalarFlowTable`` (packet at a time), fed through both
  ``add_packets`` and ``PacketFrame.from_packets`` -> ``add_frame``.  After
  every call the emitted flows must be equal -- same order, every field --
  and so must the number of active flows.
* ``InferenceEngine.submit_many`` against enqueueing one item at a time:
  the same batch boundaries and the same backpressure counters.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.ring import PacketFrame
from repro.exceptions import ConfigurationError
from repro.nids.flow import FlowTable
from repro.nids.packets import Packet
from repro.serving import InferenceEngine
from repro.serving.stages import Stage

from flow_oracle import ScalarFlowTable

IDLE = 1.0
MAX_DURATION = 2.5
#: Timestamps move on a dyadic grid, so gaps of exactly IDLE are exact,
#: until a 0.1 step makes float sums depend on their order; "above" lands
#: one ulp past IDLE.  Negative steps make decreasing runs.
STEPS = (0.0, 0.0, 0.1, 0.25, 0.5, 0.75, IDLE, "above", 1.5, 3.0, -0.25, -1.0, -3.0)
HOSTS = ("10.0.0.1", "10.0.0.2", "192.168.1.7")
FOREIGN = "172.16.0.9"
PORTS = (0, 22, 80, 65535)
PROTOCOLS = ("tcp", "tcp", "udp", "icmp")
LABELS = ("benign", "benign", "benign", "port_scan", "dos")
LENGTHS = (0, 1, 60, 1500)
FLAGS = (0, 0x02, 0x12, 0x3F)

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _guard(key):
    """Shard ownership: flows touching the foreign host live elsewhere."""
    return FOREIGN not in (key.ip_a, key.ip_b)


@st.composite
def packet_streams(draw, hosts=HOSTS):
    """Batches of packets over a few endpoint pairs, so flows run long."""
    endpoint = st.tuples(st.sampled_from(hosts), st.sampled_from(PORTS))
    pairs = draw(
        st.lists(
            st.tuples(endpoint, endpoint, st.sampled_from(PROTOCOLS)), min_size=1, max_size=6
        )
    )
    fields = draw(
        st.lists(
            st.tuples(
                st.sampled_from(STEPS),
                st.integers(0, len(pairs) - 1),
                st.booleans(),
                st.sampled_from(LENGTHS),
                st.sampled_from(FLAGS),
                st.sampled_from(LABELS),
            ),
            min_size=1,
            max_size=250,
        )
    )
    t = 100.0
    packets = []
    for step, pair, reply, length, flags, label in fields:
        t = math.nextafter(t + IDLE, math.inf) if step == "above" else t + step
        (src, sport), (dst, dport), protocol = pairs[pair]
        if reply:
            (src, sport), (dst, dport) = (dst, dport), (src, sport)
        packets.append(Packet(t, src, dst, sport, dport, protocol, length, flags, label))
    sizes = draw(st.lists(st.integers(1, 600), min_size=1, max_size=40))
    batches, start = [], 0
    for size in sizes * (len(packets) // sum(sizes) + 1):
        if start >= len(packets):
            break
        batches.append(packets[start : start + size])
        start += size
    return batches


def _feed(table, batch, via_frame):
    if via_frame:
        return table.add_frame(PacketFrame.from_packets(batch))
    return table.add_packets(batch)


def _assert_equivalent(batches, via_frame, shard_guard=None):
    table = FlowTable(IDLE, MAX_DURATION, shard_guard=shard_guard)
    oracle = ScalarFlowTable(IDLE, MAX_DURATION, shard_guard=shard_guard)
    for batch in batches:
        try:
            expected = oracle.add_packets(batch)
        except ConfigurationError:
            with pytest.raises(ConfigurationError):
                _feed(table, batch, via_frame)
        else:
            assert _feed(table, batch, via_frame) == expected
        assert table.active_flows == oracle.active_flows
    assert table.flush() == oracle.flush()
    assert table.active_flows == 0


class TestFlowTableFuzz:
    @FUZZ
    @given(packet_streams())
    def test_add_packets_matches_oracle(self, batches):
        _assert_equivalent(batches, via_frame=False)

    @FUZZ
    @given(packet_streams())
    def test_add_frame_matches_oracle(self, batches):
        _assert_equivalent(batches, via_frame=True)

    @FUZZ
    @given(packet_streams(hosts=HOSTS + (FOREIGN,)))
    def test_shard_guard_rejects_batch_untouched(self, batches):
        _assert_equivalent(batches, via_frame=False, shard_guard=_guard)

    def test_rows_are_recycled_not_preallocated(self):
        table = FlowTable(IDLE, MAX_DURATION)
        capacity = table._alive.shape[0]
        for i in range(50):
            packet = Packet(float(3 * i), "10.0.0.1", "10.0.0.2", 1000 + i, 80, "tcp", 60)
            table.add_packets([packet])
            assert table.active_flows == 1
        assert table._alive.shape[0] == capacity

    def test_out_of_range_port_rejected(self):
        packet = Packet(0.0, "10.0.0.1", "10.0.0.2", 70000, 80, "tcp", 60)
        with pytest.raises(ConfigurationError):
            FlowTable().add_packets([packet])


# ------------------------------------------------------------------ engine
class _Noop(Stage):
    name = "noop"

    def process(self, batch):
        pass


class _ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _submit_one(engine, item):
    """Per-item submit as the engine did it before bulk ingest (the oracle)."""
    entry = (engine.clock(), item)
    while not engine.queue.push(entry):
        engine.queue.stats.forced_flushes += 1
        engine._dispatch()
    engine.poll()


def _engine(clock, seen, **kwargs):
    return InferenceEngine(
        [_Noop()],
        clock=clock,
        on_batch=lambda batch: seen.append(list(batch.packets)),
        keep_batches=0,
        **kwargs,
    )


ENGINE_CONFIGS = {
    "block": dict(max_batch_size=8, max_wait_s=None, queue_capacity=32, backpressure="block"),
    "drop_oldest": dict(
        max_batch_size=8, max_wait_s=None, queue_capacity=32, backpressure="drop_oldest"
    ),
    "block_small_queue": dict(
        max_batch_size=8, max_wait_s=None, queue_capacity=5, backpressure="block"
    ),
    "drop_small_queue": dict(
        max_batch_size=8, max_wait_s=None, queue_capacity=5, backpressure="drop_oldest"
    ),
    "max_wait": dict(max_batch_size=8, max_wait_s=0.5, queue_capacity=32, backpressure="block"),
    "max_wait_drop_small_queue": dict(
        max_batch_size=8, max_wait_s=0.5, queue_capacity=5, backpressure="drop_oldest"
    ),
    "zero_wait": dict(max_batch_size=8, max_wait_s=0.0, queue_capacity=32, backpressure="block"),
}


class TestSubmitManyMatchesSubmit:
    @pytest.mark.parametrize("config", sorted(ENGINE_CONFIGS))
    @settings(max_examples=60, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from((0.0, 0.1, 0.25, 0.5, 2.0))),
            min_size=1,
            max_size=30,
        )
    )
    def test_same_batches_and_counters(self, config, calls):
        kwargs = ENGINE_CONFIGS[config]
        clock_one, clock_bulk = _ManualClock(), _ManualClock()
        seen_one, seen_bulk = [], []
        one = _engine(clock_one, seen_one, **kwargs)
        bulk = _engine(clock_bulk, seen_bulk, **kwargs)
        item = 0
        for size, advance in calls:
            clock_one.now += advance
            clock_bulk.now += advance
            items = list(range(item, item + size))
            item += size
            for value in items:
                _submit_one(one, value)
            returned = bulk.submit_many(items)
            assert seen_bulk[len(seen_bulk) - len(returned) :] == [
                list(batch.packets) for batch in returned
            ]
            assert seen_bulk == seen_one
            assert bulk.pending == one.pending
            assert bulk.backpressure_stats.to_dict() == one.backpressure_stats.to_dict()
        bulk.close()
        one.close()
        assert seen_bulk == seen_one
