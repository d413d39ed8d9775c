"""Packet-by-packet reference of :class:`repro.nids.flow.FlowTable`.

The production table merges whole batches into a struct of arrays.  This
module keeps the scalar semantics that table must reproduce: every flow
statistic is folded one packet at a time, expiry is checked at every
packet, and the flows each run of non-decreasing timestamps closes are
ordered by the rule in the ``repro.nids.flow`` module docstring.  The tests
compare the two record for record.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.nids.flow import FlowKey, FlowRecord
from repro.nids.packets import Packet, TCP_FLAGS


def fold_packet(record: FlowRecord, packet: Packet) -> None:
    """Fold ``packet`` into the flow statistics of ``record``."""
    is_forward = (
        packet.src_ip == record.initiator_ip and packet.src_port == record.initiator_port
    )
    if record.total_packets > 0:
        iat = packet.timestamp - record.last_packet_time
        record.iat_count += 1
        record.iat_sum += iat
        record.iat_sumsq += iat * iat
        if iat < record.iat_min:
            record.iat_min = iat
        if iat > record.iat_max:
            record.iat_max = iat
    record.last_packet_time = packet.timestamp
    record.end_time = max(record.end_time, packet.timestamp)
    length = packet.length
    if is_forward:
        record.fwd_packets += 1
        record.fwd_bytes += length
        record.fwd_len_sumsq += float(length) * length
        if length < record.fwd_len_min:
            record.fwd_len_min = length
        if length > record.fwd_len_max:
            record.fwd_len_max = length
        record.distinct_dst_ports.add(packet.dst_port)
    else:
        record.bwd_packets += 1
        record.bwd_bytes += length
        record.bwd_len_sumsq += float(length) * length
    if packet.protocol == "tcp":
        flags = packet.tcp_flags
        record.syn_count += bool(flags & TCP_FLAGS["SYN"])
        record.fin_count += bool(flags & TCP_FLAGS["FIN"])
        record.rst_count += bool(flags & TCP_FLAGS["RST"])
        record.psh_count += bool(flags & TCP_FLAGS["PSH"])
        record.ack_count += bool(flags & TCP_FLAGS["ACK"])
        record.urg_count += bool(flags & TCP_FLAGS["URG"])
    # A flow carrying any attack packet is labeled with that attack.
    if packet.label != "benign" and record.label == "benign":
        record.label = packet.label


def record_from_first_packet(packet: Packet) -> FlowRecord:
    """Start a new flow record from its first packet."""
    record = FlowRecord(
        key=FlowKey.from_packet(packet),
        initiator_ip=packet.src_ip,
        initiator_port=packet.src_port,
        start_time=packet.timestamp,
        end_time=packet.timestamp,
    )
    fold_packet(record, packet)
    return record


class ScalarFlowTable:
    """The scalar twin of ``FlowTable``: same constructor, same results."""

    def __init__(
        self,
        idle_timeout: float = 5.0,
        max_flow_duration: float = 120.0,
        shard_guard: Optional[Callable[[FlowKey], bool]] = None,
    ):
        self.idle_timeout = float(idle_timeout)
        self.max_flow_duration = float(max_flow_duration)
        self.shard_guard = shard_guard
        self._active: Dict[FlowKey, FlowRecord] = {}
        self._rank: Dict[FlowKey, int] = {}
        self._next_rank = 0

    @property
    def active_flows(self) -> int:
        return len(self._active)

    def add_packet(self, packet: Packet) -> List[FlowRecord]:
        return self.add_packets([packet])

    def add_packets(self, packets: Sequence[Packet]) -> List[FlowRecord]:
        packets = list(packets)
        slot_of: Dict[FlowKey, int] = {}
        for packet in packets:
            slot_of.setdefault(FlowKey.from_packet(packet), len(slot_of))
        if self.shard_guard is not None:
            for key in slot_of:
                if key not in self._active and not self.shard_guard(key):
                    raise ConfigurationError(f"flow {key} does not belong to this shard")
        expired: List[FlowRecord] = []
        start = 0
        for i in range(1, len(packets) + 1):
            if i == len(packets) or packets[i].timestamp < packets[i - 1].timestamp:
                expired.extend(self._run(packets[start:i], slot_of))
                start = i
        return expired

    def flush(self) -> List[FlowRecord]:
        flows = sorted(self._active.values(), key=lambda record: self._rank[record.key])
        self._active.clear()
        self._rank.clear()
        return flows

    def _expire(self, now: float) -> List[FlowRecord]:
        stale = [
            key
            for key, record in self._active.items()
            if (now - record.end_time) > self.idle_timeout
            or (now - record.start_time) > self.max_flow_duration
        ]
        return [self._active.pop(key) for key in stale]

    def _run(self, packets: List[Packet], slot_of: Dict[FlowKey, int]) -> List[FlowRecord]:
        before = dict(self._active)
        #: Per key, the records that took packets in this run, in order.
        folded: Dict[FlowKey, List[FlowRecord]] = {}
        died: List[FlowRecord] = []
        for packet in packets:
            died.extend(self._expire(packet.timestamp))
            key = FlowKey.from_packet(packet)
            record = self._active.get(key)
            if record is None:
                record = self._active[key] = record_from_first_packet(packet)
            else:
                fold_packet(record, packet)
            records = folded.setdefault(key, [])
            if not records or records[-1] is not record:
                records.append(record)

        for key, records in folded.items():
            if records[0] is not before.get(key):
                self._rank[key] = self._next_rank + slot_of[key]
        self._next_rank += len(slot_of)

        position = {
            id(record): (slot_of[key], index)
            for key, records in folded.items()
            for index, record in enumerate(records[:-1])
        }
        superseded, split, timed_out = [], [], []
        for record in died:
            key = record.key
            if id(record) in position:
                split.append(record)
            elif record is before.get(key) and key in folded and folded[key][0] is not record:
                # Its key's first packet of the run found it timed out.
                superseded.append(record)
            else:
                timed_out.append(record)
        superseded.sort(key=lambda record: slot_of[record.key])
        split.sort(key=lambda record: position[id(record)])
        timed_out.sort(key=lambda record: self._rank[record.key])
        self._rank = {key: rank for key, rank in self._rank.items() if key in self._active}
        return superseded + split + timed_out
