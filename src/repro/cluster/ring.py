"""Zero-copy shared-memory ring-buffer transport for the cluster data plane.

PR 3 moved the *model* out of the pickle path (:mod:`shared_model`); this
module moves the *data*.  The old dispatch path pickled every
``PacketBatch`` -- a list of ``Packet`` dataclass objects -- through an
``mp.Queue`` on the way out and pickled every ack on the way back, which
made the transport (not the compute) the cluster's bottleneck:
``BENCH_cluster.json`` showed 4.6x aggregate capacity but a wall-clock
*slowdown* because both sides burned CPU serializing objects.

The replacement is a per-worker pair of single-producer/single-consumer
rings over ``multiprocessing.shared_memory``:

* the **data ring** (coordinator -> worker) carries each routed micro-batch
  as one slot of fixed-width columnar records -- a
  :data:`PACKET_DTYPE` row per packet plus a per-batch *flow sidecar*
  (:data:`FLOW_DTYPE`, one row per unique canonical flow in the batch) and
  a label table, written **once** into the slot.  The worker maps NumPy
  views straight over the slot: no pickle, no copy, no per-packet Python
  objects on the hot path (the worker's flow table ingests the columns
  directly; see ``FlowTable.add_frame``);
* the **result ring** (worker -> coordinator) carries fixed-width batch
  acks (:data:`ACK_HEADER`) plus up to ``pred_capacity`` fixed-width
  :class:`~repro.serving.stages.FlowPrediction` records per slot
  (:data:`PRED_DTYPE`); overflow predictions simply ride the next ack.

Ring layout (one shm block per ring)::

    +-----------+-----------+------------------- ... -------------------+
    | head  i64 | tail  i64 | slot 0 | slot 1 |   ...   | slot n-1      |
    | (64B line)| (64B line)|           n_slots x slot_bytes            |
    +-----------+-----------+------------------- ... -------------------+

``head`` counts slots the producer has committed, ``tail`` slots the
consumer has released; both increase monotonically and are read modulo
``n_slots``.  The cursors live on separate cache lines so the two sides
never write-share a line.  Aligned 8-byte loads/stores are atomic on every
platform CPython runs on, and the producer commits the slot payload
*before* advancing ``head`` (program order; x86-TSO keeps the store order
visible -- the same discipline ``shared_model`` relies on for its
generation counter).

Backpressure matches the ``BoundedQueue`` "block" policy the old
``mp.Queue(maxsize=...)`` inbox implemented: a full ring makes the
*producer* wait (the coordinator services supervision events while it
spins; the worker stamps its heartbeat), never silently drops.  Shedding
remains a supervision-level policy, not a transport behaviour.

Slot lifetime: a data slot is released (made reusable) only after the
worker has fully processed the batch **and written its ack** to the result
ring -- a crash mid-slot therefore leaves the slot occupied, the watchdog
reclaims the whole ring at respawn (the frames live on in the
coordinator's :class:`~repro.cluster.supervision.BatchLedger`, which
re-materializes them into the fresh incarnation's ring), and
``reclaimed_slots`` is accounted on the failure record.  Flow-aware
retention -- keeping a batch until every flow it opened has closed -- is
the ledger's job, on the coordinator heap, where retention time is
unbounded; the ring only bounds *in-flight* batches.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nids.flow import FlowKey, PacketColumns
from repro.nids.packets import Packet
from repro.serving.stages import FlowPrediction

# --------------------------------------------------------------- wire dtypes
#: One row per packet.  ``flags`` is pre-zeroed for non-TCP packets (the
#: flow engine only reads it for ``protocol == "tcp"``, so this is
#: semantically lossless) and the endpoints are factored into the flow
#: sidecar: ``flow_slot`` indexes it and ``src_is_a`` says whether the
#: packet's source is the canonical key's A endpoint.
PACKET_DTYPE = np.dtype(
    [
        ("ts", "<f8"),
        ("length", "<u4"),
        ("flow_slot", "<u4"),
        ("sport", "<u2"),
        ("dport", "<u2"),
        ("flags", "<u1"),
        ("src_is_a", "<u1"),
        ("label_id", "<u2"),
    ]
)

#: One row per unique canonical flow in the batch (the *sidecar*): the
#: strings are stored once per flow, not once per packet.  ``S40`` leaves
#: room for IPv6 text form; dataset/generator traffic uses dotted IPv4.
FLOW_DTYPE = np.dtype(
    [
        ("ip_a", "S40"),
        ("port_a", "<u2"),
        ("ip_b", "S40"),
        ("port_b", "<u2"),
        ("protocol", "S8"),
        # Tenant id of the flow under the fabric's tenant keying (0 in
        # single-tenant deployments): stamped once by the coordinator so
        # workers route each flow to its tenant's model without re-deriving
        # the keying per flow.
        ("tenant", "<u2"),
    ]
)

#: Per-batch label table (packet rows carry 16-bit ids into it).
LABEL_DTYPE = np.dtype("S64")

#: Data-ring slot header.
FRAME_HEADER = np.dtype(
    [
        ("seq", "<i8"),
        ("n_packets", "<u4"),
        ("n_flows", "<u4"),
        ("n_labels", "<u4"),
        ("learn", "<u1"),
        ("_pad", "V11"),
    ]
)

#: Result-ring slot header (the fixed-width ack record).
ACK_HEADER = np.dtype(
    [
        ("seq", "<i8"),
        ("index", "<i8"),
        ("watermark", "<i8"),
        ("packets", "<u4"),
        ("flows", "<u4"),
        ("alerts", "<u4"),
        ("n_preds", "<u4"),
        ("_pad", "V8"),
    ]
)

#: Fixed-width FlowPrediction record.  ``token`` bounds two IPv6 endpoints
#: plus ports and protocol (40+1+5 + 1 + 40+1+5 + 1 + 8 = 102).
PRED_DTYPE = np.dtype(
    [
        ("token", "S104"),
        ("prediction", "S48"),
        ("label", "S64"),
        ("start_time", "<f8"),
        ("end_time", "<f8"),
        ("confidence", "<f8"),
        ("flagged", "<u1"),
        ("_pad", "V7"),
    ]
)

_CURSOR_BYTES = 128  # two 64-byte cache lines: head line + tail line


def _check_widths(values: Sequence[str], width: int, what: str) -> None:
    """NumPy silently truncates oversized ``S`` assignments; refuse instead."""
    for value in values:
        if len(value) > width:
            raise ConfigurationError(
                f"{what} {value!r} exceeds the transport's fixed width "
                f"({len(value)} > {width} bytes); widen the wire dtype"
            )


# -------------------------------------------------------------- packet frame
class PacketFrame:
    """One micro-batch in columnar, fixed-width, shm-mappable form.

    Built once by the coordinator (:meth:`from_packets`), written once into
    a ring slot (:func:`encode_frame`), and consumed in place by the worker
    (:func:`decode_frame` returns a frame whose arrays are *views* over the
    slot -- valid until the slot is released).  The worker-side flow table
    ingests :meth:`columns` directly, so the per-packet Python loop that
    both pickle and flow pass-1 used to pay happens exactly once, on the
    coordinator.

    ``to_packets`` materializes :class:`Packet` objects for the rare slow
    paths (failover rerouting, tests); it is memoized per frame.
    """

    __slots__ = ("records", "flows", "labels", "_cols", "_packets")

    def __init__(self, records: np.ndarray, flows: np.ndarray, labels: np.ndarray):
        self.records = records
        self.flows = flows
        self.labels = labels
        self._cols: Optional[PacketColumns] = None
        self._packets: Optional[List[Packet]] = None

    # ---------------------------------------------------------- construction
    @classmethod
    def from_packets(
        cls,
        packets: Sequence[Packet],
        tenant_of: Optional[Callable[[str, str], int]] = None,
    ) -> "PacketFrame":
        """Columnarize a routed packet batch (the coordinator's single pass).

        ``tenant_of`` (canonical ``(ip_a, ip_b)`` -> tenant id) stamps the
        sidecar's tenant column -- the fabric's tenant keying, evaluated
        once per unique flow rather than once per packet.  Without it every
        flow belongs to tenant 0.
        """
        cols = PacketColumns.from_packets(packets)
        keys = cols.keys
        _check_widths(
            [key[0] for key in keys] + [key[2] for key in keys],
            FLOW_DTYPE["ip_a"].itemsize,
            "flow endpoint",
        )
        _check_widths([key[4] for key in keys], FLOW_DTYPE["protocol"].itemsize, "protocol")
        _check_widths(cols.labels, LABEL_DTYPE.itemsize, "label")
        records = np.zeros(cols.n_packets, dtype=PACKET_DTYPE)
        if cols.n_packets:
            records["ts"] = cols.ts
            records["length"] = cols.lengths
            records["flags"] = cols.flags
            records["flow_slot"] = cols.slots
            records["sport"] = cols.sports
            records["dport"] = cols.dports
            records["src_is_a"] = cols.src_is_a
            records["label_id"] = cols.label_ids
        flows = np.zeros(len(keys), dtype=FLOW_DTYPE)
        if keys:
            ip_a, port_a, ip_b, port_b, protocol = zip(*keys)
            flows["ip_a"] = ip_a
            flows["port_a"] = port_a
            flows["ip_b"] = ip_b
            flows["port_b"] = port_b
            flows["protocol"] = protocol
            if tenant_of is not None:
                flows["tenant"] = [tenant_of(key[0], key[2]) for key in keys]
        return cls(records, flows, np.array(cols.labels, dtype=LABEL_DTYPE))

    # -------------------------------------------------------------- geometry
    @property
    def n_packets(self) -> int:
        """Packets carried by the frame."""
        return int(self.records.shape[0])

    @property
    def n_flows(self) -> int:
        """Unique canonical flows in the frame's sidecar."""
        return int(self.flows.shape[0])

    @property
    def n_labels(self) -> int:
        """Entries in the frame's label table."""
        return int(self.labels.shape[0])

    @property
    def nbytes(self) -> int:
        """Payload bytes the frame occupies on the wire (header included)."""
        return (
            FRAME_HEADER.itemsize
            + self.records.nbytes
            + self.flows.nbytes
            + self.labels.nbytes
        )

    # ------------------------------------------------------------- consumers
    def tenants(self) -> np.ndarray:
        """Per-sidecar-row tenant ids (int64; all zero outside fabric mode)."""
        return self.flows["tenant"].astype(np.int64)

    def flow_keys(self) -> List[FlowKey]:
        """The canonical :class:`FlowKey` per sidecar row."""
        return [FlowKey(*key) for key in self.columns().keys]

    def columns(self) -> PacketColumns:
        """The frame as the flow table's input columns (cached).

        The strings are decoded once per sidecar row and label, never per
        packet.
        """
        if self._cols is not None:
            return self._cols
        records = self.records
        flows = self.flows
        keys = list(
            zip(
                [ip.decode() for ip in flows["ip_a"].tolist()],
                flows["port_a"].tolist(),
                [ip.decode() for ip in flows["ip_b"].tolist()],
                flows["port_b"].tolist(),
                [protocol.decode() for protocol in flows["protocol"].tolist()],
            )
        )
        self._cols = PacketColumns(
            keys=keys,
            labels=[label.decode() for label in self.labels.tolist()],
            slots=records["flow_slot"].astype(np.int64),
            src_is_a=records["src_is_a"].astype(bool),
            label_ids=records["label_id"].astype(np.int64),
            ts=records["ts"].astype(np.float64),
            lengths=records["length"].astype(np.int64),
            flags=records["flags"].astype(np.int64),
            sports=records["sport"].astype(np.int64),
            dports=records["dport"].astype(np.int64),
        )
        return self._cols

    def to_packets(self) -> List[Packet]:
        """Materialize :class:`Packet` objects (slow paths only; memoized).

        ``tcp_flags`` of non-TCP packets come back as 0 -- the flow engine
        never reads them, so round-tripping is semantically exact.
        """
        if self._packets is not None:
            return self._packets
        cols = self.columns()
        self._packets = [
            Packet(
                timestamp=ts,
                src_ip=key[0] if src_a else key[2],
                dst_ip=key[2] if src_a else key[0],
                src_port=sport,
                dst_port=dport,
                protocol=key[4],
                length=length,
                tcp_flags=flags,
                label=cols.labels[label_id],
            )
            for ts, key, src_a, sport, dport, length, flags, label_id in zip(
                cols.ts.tolist(),
                [cols.keys[slot] for slot in cols.slots.tolist()],
                cols.src_is_a.tolist(),
                cols.sports.tolist(),
                cols.dports.tolist(),
                cols.lengths.tolist(),
                cols.flags.tolist(),
                cols.label_ids.tolist(),
            )
        ]
        return self._packets

    def detach(self) -> "PacketFrame":
        """A heap-owned copy (for retaining a decoded frame past its slot)."""
        return PacketFrame(
            self.records.copy(), self.flows.copy(), self.labels.copy()
        )


# -------------------------------------------------------------- slot layouts
@dataclass(frozen=True)
class FrameSlotLayout:
    """Capacity plan of one data-ring slot (picklable)."""

    packet_capacity: int
    flow_capacity: int
    label_capacity: int

    @classmethod
    def for_batch_size(cls, batch_size: int) -> "FrameSlotLayout":
        """Capacities that fit any batch of at most ``batch_size`` packets.

        Flows and labels are both bounded by the packet count (every packet
        contributes at most one new flow and one new label).
        """
        return cls(
            packet_capacity=batch_size,
            flow_capacity=batch_size,
            label_capacity=min(batch_size, 65536),
        )

    @property
    def slot_bytes(self) -> int:
        """Bytes one slot occupies."""
        return (
            FRAME_HEADER.itemsize
            + self.packet_capacity * PACKET_DTYPE.itemsize
            + self.flow_capacity * FLOW_DTYPE.itemsize
            + self.label_capacity * LABEL_DTYPE.itemsize
        )

    def offsets(self) -> Tuple[int, int, int]:
        """(packets, flows, labels) byte offsets inside a slot."""
        packets = FRAME_HEADER.itemsize
        flows = packets + self.packet_capacity * PACKET_DTYPE.itemsize
        labels = flows + self.flow_capacity * FLOW_DTYPE.itemsize
        return packets, flows, labels


@dataclass(frozen=True)
class AckSlotLayout:
    """Capacity plan of one result-ring slot (picklable)."""

    pred_capacity: int

    @property
    def slot_bytes(self) -> int:
        """Bytes one slot occupies."""
        return ACK_HEADER.itemsize + self.pred_capacity * PRED_DTYPE.itemsize


def encode_frame(
    buf: memoryview,
    layout: FrameSlotLayout,
    seq: int,
    learn: bool,
    frame: PacketFrame,
) -> int:
    """Write ``frame`` into a reserved data slot; returns payload bytes."""
    if frame.n_packets > layout.packet_capacity:
        raise ConfigurationError(
            f"frame carries {frame.n_packets} packets; slot capacity is "
            f"{layout.packet_capacity}"
        )
    if frame.n_flows > layout.flow_capacity or frame.n_labels > layout.label_capacity:
        raise ConfigurationError(
            "frame sidecar exceeds the slot's flow/label capacity"
        )
    header = np.ndarray((), dtype=FRAME_HEADER, buffer=buf)
    header["seq"] = seq
    header["n_packets"] = frame.n_packets
    header["n_flows"] = frame.n_flows
    header["n_labels"] = frame.n_labels
    header["learn"] = 1 if learn else 0
    p_off, f_off, l_off = layout.offsets()
    np.ndarray(frame.n_packets, dtype=PACKET_DTYPE, buffer=buf, offset=p_off)[
        ...
    ] = frame.records
    np.ndarray(frame.n_flows, dtype=FLOW_DTYPE, buffer=buf, offset=f_off)[
        ...
    ] = frame.flows
    np.ndarray(frame.n_labels, dtype=LABEL_DTYPE, buffer=buf, offset=l_off)[
        ...
    ] = frame.labels
    return frame.nbytes


def decode_frame(
    buf: memoryview, layout: FrameSlotLayout
) -> Tuple[int, bool, PacketFrame]:
    """Map a data slot in place; returns ``(seq, learn, frame-of-views)``.

    The frame's arrays alias the slot buffer -- valid until the consumer
    releases the slot (``detach()`` to keep one longer).
    """
    header = np.ndarray((), dtype=FRAME_HEADER, buffer=buf)
    n_packets = int(header["n_packets"])
    n_flows = int(header["n_flows"])
    n_labels = int(header["n_labels"])
    p_off, f_off, l_off = layout.offsets()
    frame = PacketFrame(
        records=np.ndarray(n_packets, dtype=PACKET_DTYPE, buffer=buf, offset=p_off),
        flows=np.ndarray(n_flows, dtype=FLOW_DTYPE, buffer=buf, offset=f_off),
        labels=np.ndarray(n_labels, dtype=LABEL_DTYPE, buffer=buf, offset=l_off),
    )
    return int(header["seq"]), bool(header["learn"]), frame


def encode_ack(
    buf: memoryview,
    layout: AckSlotLayout,
    *,
    seq: int,
    index: int,
    watermark: int,
    packets: int,
    flows: int,
    alerts: int,
    predictions: Sequence[FlowPrediction],
) -> int:
    """Write one fixed-width ack (plus its prediction rows) into a slot.

    ``predictions`` must already be truncated to ``layout.pred_capacity``
    (the worker defers any overflow to its next drain).
    """
    header = np.ndarray((), dtype=ACK_HEADER, buffer=buf)
    header["seq"] = seq
    header["index"] = index
    header["watermark"] = watermark
    header["packets"] = packets
    header["flows"] = flows
    header["alerts"] = alerts
    header["n_preds"] = len(predictions)
    if predictions:
        _check_widths(
            [p.token for p in predictions], PRED_DTYPE["token"].itemsize, "flow token"
        )
        _check_widths(
            [p.prediction for p in predictions],
            PRED_DTYPE["prediction"].itemsize,
            "prediction class",
        )
        _check_widths(
            [p.label for p in predictions], PRED_DTYPE["label"].itemsize, "flow label"
        )
        rows = np.ndarray(
            len(predictions), dtype=PRED_DTYPE, buffer=buf, offset=ACK_HEADER.itemsize
        )
        for i, p in enumerate(predictions):
            rows[i] = (
                p.token,
                p.prediction,
                p.label,
                p.start_time,
                p.end_time,
                p.confidence,
                1 if p.flagged else 0,
                b"",
            )
    return ACK_HEADER.itemsize + len(predictions) * PRED_DTYPE.itemsize


def decode_ack(buf: memoryview, layout: AckSlotLayout) -> Dict[str, Any]:
    """Read one ack slot into plain Python values (the coordinator side)."""
    header = np.ndarray((), dtype=ACK_HEADER, buffer=buf)
    n_preds = int(header["n_preds"])
    predictions: Optional[List[FlowPrediction]] = None
    if n_preds:
        rows = np.ndarray(
            n_preds, dtype=PRED_DTYPE, buffer=buf, offset=ACK_HEADER.itemsize
        )
        predictions = [
            FlowPrediction(
                token=row["token"].decode(),
                start_time=float(row["start_time"]),
                end_time=float(row["end_time"]),
                prediction=row["prediction"].decode(),
                confidence=float(row["confidence"]),
                label=row["label"].decode(),
                flagged=bool(row["flagged"]),
            )
            for row in rows
        ]
    return {
        "seq": int(header["seq"]),
        "index": int(header["index"]),
        "watermark": int(header["watermark"]),
        "packets": int(header["packets"]),
        "flows": int(header["flows"]),
        "alerts": int(header["alerts"]),
        "predictions": predictions,
    }


# -------------------------------------------------------------------- rings
@dataclass(frozen=True)
class RingSpec:
    """Picklable attach handle for one ring."""

    name: str
    n_slots: int
    slot_bytes: int


class ShmRing:
    """A bounded SPSC ring of fixed-size slots over one shared-memory block.

    One side constructs with ``create=True`` (owner: closes *and* unlinks);
    the other attaches via :meth:`attach` (closes only).  Exactly one
    producer and one consumer may use a ring -- the cursors carry no locks.
    """

    def __init__(self, name: str, n_slots: int, slot_bytes: int, create: bool):
        if n_slots < 1 or slot_bytes < 1:
            raise ConfigurationError("ring needs n_slots >= 1 and slot_bytes >= 1")
        self.n_slots = int(n_slots)
        self.slot_bytes = int(slot_bytes)
        size = _CURSOR_BYTES + self.n_slots * self.slot_bytes
        if create:
            self._block = shared_memory.SharedMemory(create=True, size=size, name=name)
        else:
            # Same resource-tracker discipline as shared_model._attach_block:
            # the attach side must not co-own the segment (gh-82300).
            from repro.cluster.shared_model import _attach_block

            self._block = _attach_block(name)
        self._owner = bool(create)
        self._head = np.ndarray((1,), dtype=np.int64, buffer=self._block.buf, offset=0)
        self._tail = np.ndarray((1,), dtype=np.int64, buffer=self._block.buf, offset=64)
        if create:
            self._head[0] = 0
            self._tail[0] = 0
        self._closed = False

    # ------------------------------------------------------------------- API
    @classmethod
    def create(cls, name: str, n_slots: int, slot_bytes: int) -> "ShmRing":
        """Create and own a new ring."""
        return cls(name, n_slots, slot_bytes, create=True)

    @classmethod
    def attach(cls, spec: RingSpec) -> "ShmRing":
        """Attach to an existing ring (never unlinks on close)."""
        return cls(spec.name, spec.n_slots, spec.slot_bytes, create=False)

    def spec(self) -> RingSpec:
        """The picklable attach handle."""
        return RingSpec(self._block.name, self.n_slots, self.slot_bytes)

    @property
    def occupancy(self) -> int:
        """Committed-but-unreleased slots (reclaim accounting)."""
        return int(self._head[0] - self._tail[0])

    @property
    def free_slots(self) -> int:
        """Slots the producer may still reserve."""
        return self.n_slots - self.occupancy

    def try_reserve(self) -> Optional[memoryview]:
        """Producer: the next slot's writable buffer, or None when full."""
        head = int(self._head[0])
        if head - int(self._tail[0]) >= self.n_slots:
            return None
        return self._slot(head)

    def commit(self) -> None:
        """Producer: publish the slot filled after :meth:`try_reserve`.

        The payload writes precede this cursor store in program order, so a
        consumer that observes the new head observes the payload.
        """
        self._head[0] += 1

    def try_peek(self) -> Optional[memoryview]:
        """Consumer: the oldest committed slot's buffer, or None when empty."""
        tail = int(self._tail[0])
        if int(self._head[0]) - tail <= 0:
            return None
        return self._slot(tail)

    def release(self) -> None:
        """Consumer: mark the peeked slot reusable (views into it die here)."""
        self._tail[0] += 1

    def close(self, unlink: Optional[bool] = None) -> None:
        """Detach; the owner (or ``unlink=True``) also destroys the block."""
        if self._closed:
            return
        self._closed = True
        self._head = None
        self._tail = None
        try:
            self._block.close()
        except BufferError:
            # A stray slot view is still alive somewhere; the mmap stays
            # pinned until it dies, but the segment itself must not leak --
            # proceed to unlink regardless.
            pass
        if self._owner if unlink is None else unlink:
            try:
                self._block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # ------------------------------------------------------------- internals
    def _slot(self, cursor: int) -> memoryview:
        start = _CURSOR_BYTES + (cursor % self.n_slots) * self.slot_bytes
        return self._block.buf[start : start + self.slot_bytes]


# ----------------------------------------------------------------- transport
@dataclass(frozen=True)
class TransportSpec:
    """Everything a worker needs to attach its ring pair (picklable)."""

    data: RingSpec
    result: RingSpec
    frame_layout: FrameSlotLayout
    ack_layout: AckSlotLayout


def ring_name(token: str, kind: str, worker_id: int, incarnation: int) -> str:
    """A per-incarnation shm name within macOS's 31-char limit."""
    return f"{token}-{kind}{worker_id}i{incarnation}"


def transport_token(prefix: str = "rr") -> str:
    """A collision-free name prefix for one cluster's rings."""
    return f"{prefix}-{secrets.token_hex(3)}"


@dataclass
class TransportStats:
    """Coordinator-side accounting of what the ring transport moved/saved."""

    frames: int = 0
    packets: int = 0
    #: Payload bytes memcpy'd into data slots (the one copy each batch pays).
    bytes_moved: int = 0
    #: Serialization passes eliminated vs the queue path: one pickle and one
    #: unpickle per dispatched frame, plus the same pair per ack frame.
    copies_avoided: int = 0
    #: Producer waits on a full data ring (block-policy backpressure).
    ring_full_stalls: int = 0
    #: Worker waits on a full result ring (summed from worker reports).
    result_ring_stalls: int = 0
    #: Occupied slots freed by watchdog-driven ring reclamation at respawn.
    reclaimed_slots: int = 0
    #: Coordinator CPU spent columnarizing + encoding frames (the transport
    #: overhead the wall-speedup record reports).
    serialize_cpu_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view."""
        return {
            "frames": self.frames,
            "packets": self.packets,
            "bytes_moved": self.bytes_moved,
            "copies_avoided": self.copies_avoided,
            "ring_full_stalls": self.ring_full_stalls,
            "result_ring_stalls": self.result_ring_stalls,
            "reclaimed_slots": self.reclaimed_slots,
            "serialize_cpu_seconds": self.serialize_cpu_seconds,
        }


__all__ = [
    "ACK_HEADER",
    "AckSlotLayout",
    "FLOW_DTYPE",
    "FRAME_HEADER",
    "FrameSlotLayout",
    "LABEL_DTYPE",
    "PACKET_DTYPE",
    "PRED_DTYPE",
    "PacketFrame",
    "RingSpec",
    "ShmRing",
    "TransportSpec",
    "TransportStats",
    "decode_ack",
    "decode_frame",
    "encode_ack",
    "encode_frame",
    "ring_name",
    "transport_token",
]
