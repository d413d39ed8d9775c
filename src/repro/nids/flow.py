"""Flow assembly: grouping packets into bidirectional flows.

A *flow* is identified by the canonical 5-tuple (both directions map to the
same flow).  The :class:`FlowTable` ingests time-ordered packets, keeps active
flows, and expires them on an idle timeout -- the same mechanism CICFlowMeter
uses to produce the flow records behind the CIC datasets.

One ingestion core serves every caller.  A batch first becomes
:class:`PacketColumns`: ``FlowTable.add_packets`` columnarizes ``Packet``
objects in one Python pass, and ``FlowTable.add_frame`` takes the columns a
cluster transport frame already carries.  The table holds its active flows
as a struct of arrays -- one row per flow with its counters, moments,
extrema, initiator side, times, label, table rank and first destination
port (the rare further distinct ports go to a per-flow set) -- so a batch
merges into the table with array scatters, expiry is one mask over the rows, and
:class:`FlowRecord` objects are built only for the flows that expire.

Every statistic equals a packet-by-packet fold in arrival order, float sums
included.  A batch is processed as maximal runs of non-decreasing
timestamps, and the flows one run closes come out in three groups:

1. flows their key's first packet of the run finds timed out, in order of
   the key's first appearance in the batch;
2. flows the run itself splits off (idle gap or duration overrun), by the
   key's first appearance, then by time;
3. flows timed out at the run's last packet, in table order: the order in
   which their keys entered the table, where a flow that continues its
   key's previous flow keeps that flow's place.

``flush`` returns the remaining flows in table order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nids.packets import Packet, TCP_FLAGS

#: A canonical flow key as a plain tuple: ``(ip_a, port_a, ip_b, port_b, protocol)``.
KeyTuple = Tuple[str, int, str, int, str]

#: Columns of ``np.unpackbits`` (most significant bit first) holding the TCP
#: flags counted per flow, in :class:`FlowRecord` field order.
_FLAG_COLUMNS = [
    8 - TCP_FLAGS[name].bit_length() for name in ("SYN", "FIN", "RST", "PSH", "ACK", "URG")
]
_MAX_PORT = 65535
_MIN_CAPACITY = 64
_SUM_LANES = np.arange(4)
#: Columns of the table's per-row float matrix.
_F_START, _F_END, _F_LAST = 0, 1, 2
_F_SUMS = slice(3, 7)  # fwd/bwd length sums of squares, iat sum, iat sum of squares
_F_MINS = slice(7, 9)  # fwd length and iat minima
_F_MAXS = slice(9, 11)  # fwd length and iat maxima
#: Columns of the table's per-row integer matrix.
_I_FWD, _I_BWD, _I_FWD_BYTES, _I_BWD_BYTES, _I_IATS = range(5)
_I_FLAGS = slice(5, 11)  # TCP flag counts, as _FLAG_COLUMNS


@dataclass(frozen=True)
class FlowKey:
    """Canonical bidirectional flow identifier.

    The canonical form orders the two endpoints so that packets of both
    directions hash to the same key.
    """

    ip_a: str
    port_a: int
    ip_b: str
    port_b: int
    protocol: str

    @classmethod
    def from_packet(cls, packet: Packet) -> "FlowKey":
        """Build the canonical key for ``packet``."""
        forward = (packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port)
        backward = (packet.dst_ip, packet.dst_port, packet.src_ip, packet.src_port)
        a, b = (forward, backward) if forward <= backward else (backward, forward)
        return cls(ip_a=a[0], port_a=a[1], ip_b=a[2], port_b=a[3], protocol=packet.protocol)

    @property
    def token(self) -> str:
        """Canonical string form of the key (direction-independent).

        The same token identifies a flow everywhere it travels: the shard
        router hashes it, the replay subsystem joins serving-path
        predictions against golden offline predictions on it, and worker
        processes ship it back across the cluster wire format.
        """
        return f"{self.ip_a}:{self.port_a}|{self.ip_b}:{self.port_b}|{self.protocol}"


@dataclass
class FlowRecord:
    """Aggregated statistics of one bidirectional flow.

    The *forward* direction is defined by the first packet seen.  All
    statistics are running aggregates (counts, sums, sums of squares,
    extrema), so a record costs O(1) memory regardless of flow length; the
    feature extractor derives means and standard deviations from the
    moments.  :class:`FlowTable` builds records only when a flow expires.
    """

    key: FlowKey
    initiator_ip: str
    initiator_port: int
    start_time: float
    end_time: float
    label: str = "benign"
    fwd_packets: int = 0
    bwd_packets: int = 0
    fwd_bytes: int = 0
    bwd_bytes: int = 0
    fwd_len_sumsq: float = 0.0
    fwd_len_min: float = math.inf
    fwd_len_max: float = -math.inf
    bwd_len_sumsq: float = 0.0
    iat_count: int = 0
    iat_sum: float = 0.0
    iat_sumsq: float = 0.0
    iat_min: float = math.inf
    iat_max: float = -math.inf
    last_packet_time: float = 0.0
    syn_count: int = 0
    fin_count: int = 0
    rst_count: int = 0
    psh_count: int = 0
    ack_count: int = 0
    urg_count: int = 0
    distinct_dst_ports: Set[int] = field(default_factory=set)

    @property
    def duration(self) -> float:
        """Flow duration in seconds (0 for single-packet flows)."""
        return max(0.0, self.end_time - self.start_time)

    @property
    def total_packets(self) -> int:
        """Total packets in both directions."""
        return self.fwd_packets + self.bwd_packets

    @property
    def total_bytes(self) -> int:
        """Total bytes in both directions."""
        return self.fwd_bytes + self.bwd_bytes


@dataclass
class PacketColumns:
    """A packet batch in columns: the one input of the flow table's core.

    ``keys`` holds the canonical flow keys in first-seen order and ``slots``
    indexes it per packet.  ``src_is_a`` says whether a packet's source is
    its key's A endpoint, which fixes its direction.  ``flags`` is zero for
    non-TCP packets, and ``label_ids`` index ``labels``.
    """

    keys: List[KeyTuple]
    labels: List[str]
    slots: np.ndarray
    src_is_a: np.ndarray
    label_ids: np.ndarray
    ts: np.ndarray
    lengths: np.ndarray
    flags: np.ndarray
    sports: np.ndarray
    dports: np.ndarray

    @property
    def n_packets(self) -> int:
        """Packets in the batch."""
        return int(self.ts.shape[0])

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "PacketColumns":
        """Columnarize ``packets`` in one pass.

        Each distinct (endpoints, protocol, label) combination is
        canonicalized once; repeats cost one dict lookup.
        """
        slot_of: Dict[KeyTuple, int] = {}
        keys: List[KeyTuple] = []
        label_of: Dict[str, int] = {}
        labels: List[str] = []
        combo_of: Dict[tuple, int] = {}
        combos: List[Tuple[int, bool, int, int, int]] = []
        codes: List[int] = []
        ts: List[float] = []
        lengths: List[int] = []
        flags: List[int] = []
        get = combo_of.get
        add_code, add_ts, add_length, add_flags = (
            codes.append, ts.append, lengths.append, flags.append
        )
        for p in packets:
            route = (p.src_ip, p.src_port, p.dst_ip, p.dst_port, p.protocol, p.label)
            code = get(route)
            if code is None:
                sip, sport, dip, dport, protocol, label = route
                src_is_a = (sip, sport) <= (dip, dport)
                if src_is_a:
                    key = (sip, sport, dip, dport, protocol)
                else:
                    key = (dip, dport, sip, sport, protocol)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(keys)
                    keys.append(key)
                label_id = label_of.get(label)
                if label_id is None:
                    label_id = label_of[label] = len(labels)
                    labels.append(label)
                code = combo_of[route] = len(combos)
                combos.append((slot, src_is_a, label_id, sport, dport))
            add_code(code)
            add_ts(p.timestamp)
            add_length(p.length)
            add_flags(p.tcp_flags)
        combo = np.array(combos, dtype=np.int64).reshape(-1, 5)
        if combos and (combo[:, 3:].min() < 0 or combo[:, 3:].max() > _MAX_PORT):
            raise ConfigurationError(f"packet ports must be in [0, {_MAX_PORT}]")
        code = np.array(codes, dtype=np.int64)
        slots = combo[:, 0][code]
        is_tcp = np.array([key[4] == "tcp" for key in keys], dtype=bool)
        return cls(
            keys=keys,
            labels=labels,
            slots=slots,
            src_is_a=combo[:, 1].astype(bool)[code],
            label_ids=combo[:, 2][code],
            ts=np.array(ts, dtype=np.float64),
            lengths=np.array(lengths, dtype=np.int64),
            flags=np.where(is_tcp[slots], np.array(flags, dtype=np.int64), 0),
            sports=combo[:, 3][code],
            dports=combo[:, 4][code],
        )


class FlowTable:
    """Assembles packets into flows with an idle-timeout expiry policy.

    Parameters
    ----------
    idle_timeout:
        A flow is expired (emitted) once no packet has been seen for this many
        seconds.
    max_flow_duration:
        Long-lived flows are force-expired after this duration so streaming
        detection does not wait forever.
    shard_guard:
        Optional ownership predicate ``FlowKey -> bool``.  In sharded cluster
        serving each flow's state must live on exactly one worker (the
        router's invariant); a table owned by one shard installs its guard
        here and a misrouted packet -- which would silently split one flow's
        state across two replicas -- raises :class:`ConfigurationError`
        instead.  Checked once per new flow key, before the batch touches
        any state, so a rejected batch leaves the table unchanged.
    """

    _floats: np.ndarray
    _ints: np.ndarray
    _init_a: np.ndarray
    _label: np.ndarray
    _rank: np.ndarray
    _port0: np.ndarray
    _alive: np.ndarray
    #: Per-row arrays; rows of expired flows are recycled through a free stack.
    _ROW_ARRAYS = (
        # _F_* columns: times, float sums (accumulated in arrival order), extrema
        ("_floats", (11,), np.float64),
        # _I_* columns: fwd/bwd packets and bytes, iat count, TCP flag counts
        ("_ints", (11,), np.int64),
        ("_init_a", (), bool),
        ("_label", (), np.int64),
        ("_rank", (), np.int64),
        # first forward destination port, -1 before any forward packet
        ("_port0", (), np.int64),
        ("_alive", (), bool),
    )

    def __init__(
        self,
        idle_timeout: float = 5.0,
        max_flow_duration: float = 120.0,
        shard_guard: Optional[Callable[["FlowKey"], bool]] = None,
    ):
        if idle_timeout <= 0 or max_flow_duration <= 0:
            raise ConfigurationError("timeouts must be positive")
        self.idle_timeout = float(idle_timeout)
        self.max_flow_duration = float(max_flow_duration)
        self.shard_guard = shard_guard
        #: Active key -> its row.
        self._row_of: Dict[KeyTuple, int] = {}
        self._keys: List[Optional[FlowKey]] = []
        self._label_names: List[str] = ["benign"]
        self._label_index: Dict[str, int] = {"benign": 0}
        self._next_rank = 0
        #: Row -> its forward destination ports other than the first.
        self._more_ports: Dict[int, Set[int]] = {}
        for name, tail, dtype in self._ROW_ARRAYS:
            setattr(self, name, np.zeros((0, *tail), dtype=dtype))
        self._free = np.empty(0, dtype=np.int64)
        self._n_free = 0
        self._grow(_MIN_CAPACITY)

    # ------------------------------------------------------------------- API
    @property
    def active_flows(self) -> int:
        """Number of currently active (unexpired) flows."""
        return len(self._row_of)

    def active_keys(self) -> List[FlowKey]:
        """Keys of the currently active flows (for liveness watermarks)."""
        keys = self._keys
        return [keys[row] for row in self._row_of.values()]

    def add_packet(self, packet: Packet) -> List[FlowRecord]:
        """Ingest one packet; returns any flows expired by the packet's timestamp."""
        return self.add_packets([packet])

    def add_packets(self, packets: Sequence[Packet]) -> List[FlowRecord]:
        """Ingest a packet batch; returns the flows it expired, in emission order."""
        return self._ingest(PacketColumns.from_packets(packets))

    def add_frame(self, frame) -> List[FlowRecord]:
        """Ingest a columnar transport frame (``repro.cluster.ring``).

        ``frame`` is duck-typed (``columns()`` returning
        :class:`PacketColumns`) so this module stays import-free of the
        transport.  The result is identical to ``add_packets`` of the
        frame's packets.
        """
        return self._ingest(frame.columns())

    def flush(self) -> List[FlowRecord]:
        """Expire and return all remaining active flows (end of capture)."""
        rows = self._alive.nonzero()[0]
        rows = rows[self._rank[rows].argsort(kind="stable")]
        self._row_of.clear()
        return self._emit(rows)

    # ------------------------------------------------------------- internals
    def _check_ownership(self, key: FlowKey) -> None:
        if self.shard_guard is not None and not self.shard_guard(key):
            raise ConfigurationError(
                f"flow {key} does not belong to this table's shard; a misrouted "
                "packet would split one flow's state across worker replicas"
            )

    def _grow(self, needed: int) -> None:
        """Double the row capacity until ``needed`` rows fit."""
        old = self._alive.shape[0]
        capacity = max(old, _MIN_CAPACITY)
        while capacity < needed:
            capacity *= 2
        if capacity == old:
            return
        for name, tail, dtype in self._ROW_ARRAYS:
            grown = np.zeros((capacity, *tail), dtype=dtype)
            grown[:old] = getattr(self, name)
            setattr(self, name, grown)
        self._keys.extend([None] * (capacity - old))
        free = np.empty(capacity, dtype=np.int64)
        free[: self._n_free] = self._free[: self._n_free]
        # Pushed highest first, so low rows are handed out first.
        free[self._n_free : self._n_free + capacity - old] = np.arange(capacity - 1, old - 1, -1)
        self._free = free
        self._n_free += capacity - old

    def _alloc(self, k: int) -> np.ndarray:
        if self._n_free < k:
            self._grow(self._alive.shape[0] - self._n_free + k)
        self._n_free -= k
        return self._free[self._n_free : self._n_free + k].copy()

    def _label_id(self, name: str) -> int:
        index = self._label_index.get(name)
        if index is None:
            index = self._label_index[name] = len(self._label_names)
            self._label_names.append(name)
        return index

    def _ingest(self, cols: PacketColumns) -> List[FlowRecord]:
        n = cols.n_packets
        if n == 0:
            return []
        keys = cols.keys
        if self.shard_guard is not None:
            for key in keys:
                if key not in self._row_of:
                    self._check_ownership(FlowKey(*key))
        label_map = np.array([self._label_id(name) for name in cols.labels], dtype=np.int64)
        columns = (
            cols.slots,
            cols.src_is_a,
            label_map[cols.label_ids],
            cols.ts,
            cols.lengths,
            cols.flags,
            cols.dports,
        )
        ts = cols.ts
        bounds = [0, *((ts[1:] < ts[:-1]).nonzero()[0] + 1).tolist(), n]
        expired: List[FlowRecord] = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            expired.extend(self._ingest_run(keys, *(column[lo:hi] for column in columns)))
        return expired

    def _ingest_run(
        self,
        keys: List[KeyTuple],
        slot: np.ndarray,
        src_is_a: np.ndarray,
        label: np.ndarray,
        ts: np.ndarray,
        lengths: np.ndarray,
        flags: np.ndarray,
        dport: np.ndarray,
    ) -> List[FlowRecord]:
        """Merge one run of non-decreasing timestamps into the table."""
        idle = self.idle_timeout
        max_dur = self.max_flow_duration
        n = ts.shape[0]
        floats = self._floats

        # ---- group packets by key, in time order within each key ----------
        order = slot.argsort(kind="stable")
        g_slot = slot[order]
        g_ts = ts[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(g_slot[1:], g_slot[:-1], out=first[1:])
        first_pos = first.nonzero()[0]
        present = g_slot[first_pos]

        # ---- does each key's first packet continue its active flow? -------
        row_of = self._row_of
        prior = np.array([row_of.get(keys[j], -1) for j in present.tolist()], dtype=np.int64)
        slot_row = np.full(present.shape[0], -1, dtype=np.int64)
        active = (prior >= 0).nonzero()[0]
        superseded = prior[:0]
        if active.size:
            rows = prior[active]
            t0 = g_ts[first_pos[active]]
            merge = ((t0 - floats[rows, _F_END]) <= idle) & (
                (t0 - floats[rows, _F_START]) <= max_dur
            )
            slot_row[active[merge]] = rows[merge]
            superseded = rows[~merge]
        m_row = slot_row[first.cumsum() - 1]
        m_first = first & (m_row >= 0)
        any_merged = bool(m_first.any())

        # ---- idle splits: a packet finds its flow's end more than idle ago --
        prev_t = np.empty(n)
        prev_t[0] = -np.inf
        prev_t[1:] = g_ts[:-1]
        flow_end = prev_t
        if any_merged:
            flow_end = np.where(m_row >= 0, np.maximum(floats[m_row, _F_END], prev_t), prev_t)
        seg_start = first | ((g_ts - flow_end) > idle)

        # ---- duration splits, at the first overrunning packet, repeated ----
        while True:
            spos = seg_start.nonzero()[0]
            seg_of = seg_start.cumsum() - 1
            s_merged = m_first[spos]
            s_time = g_ts[spos]
            if any_merged:
                s_time[s_merged] = floats[m_row[spos[s_merged]], _F_START]
            over = ((g_ts - s_time[seg_of]) > max_dur).nonzero()[0]
            if not over.size:
                break
            over_seg = seg_of[over]
            first_over = np.ones(over.shape[0], dtype=bool)
            np.not_equal(over_seg[1:], over_seg[:-1], out=first_over[1:])
            seg_start[over[first_over]] = True

        n_seg = spos.shape[0]
        seg_last = np.empty(n_seg, dtype=np.int64)
        seg_last[:-1] = spos[1:] - 1
        seg_last[-1] = n - 1
        seg_slot = g_slot[spos]
        last_of_key = np.ones(n_seg, dtype=bool)
        np.not_equal(seg_slot[1:], seg_slot[:-1], out=last_of_key[:-1])
        merged = s_merged.nonzero()[0]
        merged_rows = m_row[spos[merged]]

        # ---- per-packet direction and inter-arrival times ------------------
        g_src_a = src_is_a[order]
        init_a = g_src_a[spos]
        init_a[merged] = self._init_a[merged_rows]
        fwd = g_src_a == init_a[seg_of]
        iat = g_ts - prev_t
        iat_ok = ~seg_start
        if any_merged:
            iat[m_first] = g_ts[m_first] - floats[m_row[m_first], _F_LAST]
            iat_ok |= m_first

        # ---- per-flow aggregates -------------------------------------------
        g_len = lengths[order]
        ints = np.empty((n, 11), dtype=np.int64)
        ints[:, _I_FWD] = fwd
        ints[:, _I_BWD] = ~fwd
        ints[:, _I_FWD_BYTES] = np.where(fwd, g_len, 0)
        ints[:, _I_BWD_BYTES] = g_len - ints[:, _I_FWD_BYTES]
        ints[:, _I_IATS] = iat_ok
        ints[:, _I_FLAGS] = np.unpackbits(flags[order].astype(np.uint8)[:, None], axis=1)[
            :, _FLAG_COLUMNS
        ]
        agg = np.add.reduceat(ints, spos, axis=0)
        agg[merged] += self._ints[merged_rows]

        flow = np.empty((n_seg, 11))
        flow[:, _F_START] = s_time
        flow[:, _F_LAST] = g_ts[seg_last]
        flow[:, _F_END] = flow[:, _F_LAST]
        # Float sums accumulate in arrival order, continuing a merged flow's
        # running value, so they equal a packet-by-packet fold bit for bit:
        # bincount adds its weights in array order, and the zeros padding
        # the lanes a packet does not feed leave a sum unchanged.
        len_f = g_len.astype(np.float64)
        gap = np.where(iat_ok, iat, 0.0)
        values = np.empty((n, 4))
        values[:, 0] = np.where(fwd, len_f * len_f, 0.0)
        values[:, 1] = len_f * len_f - values[:, 0]
        values[:, 2] = gap
        values[:, 3] = gap * gap
        bins = (seg_of[:, None] * 4 + _SUM_LANES).ravel()
        weights = values.ravel()
        extrema = np.empty((n, 2))
        extrema[:, 0] = np.where(fwd, len_f, np.inf)
        extrema[:, 1] = np.where(iat_ok, iat, np.inf)
        flow[:, _F_MINS] = np.minimum.reduceat(extrema, spos, axis=0)
        extrema[:, 0] = np.where(fwd, len_f, -np.inf)
        extrema[:, 1] = np.where(iat_ok, iat, -np.inf)
        flow[:, _F_MAXS] = np.maximum.reduceat(extrema, spos, axis=0)
        if any_merged:
            before = floats[merged_rows]
            bins = np.concatenate([(merged[:, None] * 4 + _SUM_LANES).ravel(), bins])
            weights = np.concatenate([before[:, _F_SUMS].ravel(), weights])
            flow[merged, _F_END] = np.maximum(before[:, _F_END], flow[merged, _F_LAST])
            flow[merged, _F_MINS] = np.minimum(flow[merged, _F_MINS], before[:, _F_MINS])
            flow[merged, _F_MAXS] = np.maximum(flow[merged, _F_MAXS], before[:, _F_MAXS])
        flow[:, _F_SUMS] = np.bincount(bins, weights=weights, minlength=4 * n_seg).reshape(n_seg, 4)

        # The first attack label a flow carries sticks.
        g_label = label[order]
        seg_label = np.zeros(n_seg, dtype=np.int64)
        attack = g_label.nonzero()[0]
        if attack.size:
            attack_seg = seg_of[attack]
            first_attack = np.ones(attack.shape[0], dtype=bool)
            np.not_equal(attack_seg[1:], attack_seg[:-1], out=first_attack[1:])
            seg_label[attack_seg[first_attack]] = g_label[attack[first_attack]]
        previous_label = self._label[merged_rows]
        seg_label[merged] = np.where(previous_label != 0, previous_label, seg_label[merged])

        # Distinct forward destination ports: a flow's first one in a row
        # array, the rare further ones in a per-flow set.
        port0 = np.full(n_seg, -1, dtype=np.int64)
        fwd_pos = fwd.nonzero()[0]
        fwd_seg = seg_of[fwd_pos]
        fwd_port = dport[order[fwd_pos]]
        if fwd_pos.size:
            first_fwd = np.ones(fwd_pos.shape[0], dtype=bool)
            np.not_equal(fwd_seg[1:], fwd_seg[:-1], out=first_fwd[1:])
            port0[fwd_seg[first_fwd]] = fwd_port[first_fwd]
        previous_port = self._port0[merged_rows]
        port0[merged] = np.where(previous_port >= 0, previous_port, port0[merged])

        # ---- write the run's flows into rows -------------------------------
        new = ~s_merged
        rows = np.empty(n_seg, dtype=np.int64)
        rows[merged] = merged_rows
        rows[new] = self._alloc(n_seg - merged.shape[0])
        self._floats[rows] = flow
        self._ints[rows] = agg
        self._init_a[rows] = init_a
        self._label[rows] = seg_label
        self._port0[rows] = port0
        self._alive[rows] = True

        # A key keeps its table rank while its flow continues; a key entering
        # the table is ranked by first appearance in the batch.
        tail = last_of_key.nonzero()[0]
        inherited = slot_row[present.searchsorted(seg_slot[tail])]
        self._rank[rows[tail]] = np.where(
            inherited >= 0, self._rank[inherited], self._next_rank + seg_slot[tail]
        )
        self._next_rank += len(keys)

        flow_keys: Dict[int, FlowKey] = {}
        key_objects = self._keys
        for row, j, is_tail in zip(
            rows[new].tolist(), seg_slot[new].tolist(), last_of_key[new].tolist()
        ):
            key = flow_keys.get(j)
            if key is None:
                key = flow_keys[j] = FlowKey(*keys[j])
            key_objects[row] = key
            if is_tail:
                row_of[keys[j]] = row

        other = (fwd_port != port0[fwd_seg]).nonzero()[0]
        for row, port in zip(rows[fwd_seg[other]].tolist(), fwd_port[other].tolist()):
            self._more_ports.setdefault(row, set()).add(port)

        # ---- expiry at the run's last packet: one mask over all rows -------
        now = ts[-1]
        floats = self._floats
        dead = self._alive & (
            ((now - floats[:, _F_END]) > idle) | ((now - floats[:, _F_START]) > max_dur)
        )
        closed = np.concatenate([superseded, rows[~last_of_key]])
        dead[closed] = False
        timed_out = dead.nonzero()[0]
        timed_out = timed_out[self._rank[timed_out].argsort(kind="stable")]
        for row in timed_out.tolist():
            key = key_objects[row]
            del row_of[(key.ip_a, key.port_a, key.ip_b, key.port_b, key.protocol)]
        return self._emit(np.concatenate([closed, timed_out]))

    def _emit(self, rows: np.ndarray) -> List[FlowRecord]:
        """Build the records of ``rows`` (in order) and free the rows."""
        if not rows.size:
            return []
        keys = self._keys
        names = self._label_names
        more_ports = self._more_ports
        records = []
        for row, init_a, label, port0, ints, floats in zip(
            rows.tolist(),
            self._init_a[rows].tolist(),
            self._label[rows].tolist(),
            self._port0[rows].tolist(),
            self._ints[rows].tolist(),
            self._floats[rows].tolist(),
        ):
            key = keys[row]
            keys[row] = None
            ports = more_ports.pop(row, set())
            if port0 >= 0:
                ports.add(port0)
            fwd_n, bwd_n, fwd_bytes, bwd_bytes, iats, syn, fin, rst, psh, ack, urg = ints
            start, end, last, fwd_sq, bwd_sq, iat_sum, iat_sq = floats[:7]
            fwd_min, iat_min, fwd_max, iat_max = floats[7:]
            records.append(
                FlowRecord(
                    key,
                    key.ip_a if init_a else key.ip_b,
                    key.port_a if init_a else key.port_b,
                    start,
                    end,
                    names[label],
                    fwd_n,
                    bwd_n,
                    fwd_bytes,
                    bwd_bytes,
                    fwd_sq,
                    fwd_min,
                    fwd_max,
                    bwd_sq,
                    iats,
                    iat_sum,
                    iat_sq,
                    iat_min,
                    iat_max,
                    last,
                    syn,
                    fin,
                    rst,
                    psh,
                    ack,
                    urg,
                    ports,
                )
            )
        self._alive[rows] = False
        self._free[self._n_free : self._n_free + rows.shape[0]] = rows
        self._n_free += rows.shape[0]
        return records
