"""Windowed streaming detection on top of the serving engine.

Wraps a trained :class:`repro.nids.pipeline.DetectionPipeline` so packets can
be pushed continuously.  Internally the detector is a thin orchestration of
the production serving subsystem: packets enter a bounded
:class:`repro.serving.InferenceEngine` whose stage chain is the pipeline's
own components prefixed with flow assembly, micro-batches dispatch at the
window size, and each window reports per-stage detection latency -- the
quantity the paper argues HDC keeps low enough for real-time edge
deployment.

With an :class:`repro.serving.OnlineLearner` attached, each window also
feeds the model online: prequential confidence/accuracy go to the drift
monitor, labeled flows are folded in through ``partial_fit``, and detected
drift triggers CyberHD's dimension regeneration without taking the detector
offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError
from repro.nids.alerts import Alert
from repro.nids.flow import FlowTable
from repro.nids.packets import Packet
from repro.nids.pipeline import DetectionPipeline, DetectionResult
from repro.serving.engine import InferenceEngine
from repro.serving.online import OnlineLearner
from repro.serving.stages import FlowAssemblyStage, ServingBatch
from repro.serving.telemetry import TelemetryRecorder


@dataclass
class WindowResult:
    """Result of processing one micro-batch window.

    Attributes
    ----------
    window_index:
        Sequential index of the window.
    n_packets:
        Packets ingested in this window.
    n_flows:
        Flows that expired (and were classified) during this window.
    n_alerts:
        Alerts raised in this window.
    latency_seconds:
        Detection latency for the window's flows (sum of the detection
        stage latencies).
    alerts:
        The raised alerts.
    stage_latencies:
        Per-stage wall-clock seconds for this window (assemble / extract /
        encode / classify / alert).
    """

    window_index: int
    n_packets: int
    n_flows: int
    n_alerts: int
    latency_seconds: float
    alerts: List[Alert] = field(default_factory=list)
    stage_latencies: Dict[str, float] = field(default_factory=dict)


class StreamingDetector:
    """Micro-batch streaming wrapper around a trained detection pipeline.

    Parameters
    ----------
    pipeline:
        A trained :class:`DetectionPipeline`.
    window_size:
        Number of packets per micro-batch.
    idle_timeout:
        Flow-table idle timeout in seconds.
    queue_capacity:
        Bound of the ingest queue (defaults to four windows).
    backpressure:
        Overflow policy, ``"block"`` or ``"drop_oldest"``
        (see :mod:`repro.serving.backpressure`).  Note that the detector
        runs the engine synchronously (windows dispatch inline at
        ``window_size``), so the queue only overflows -- and
        ``drop_oldest`` only sheds -- when ``queue_capacity`` is set
        *below* ``window_size``, which simulates a producer outrunning the
        detector: packets are then silently shed (counted in
        :attr:`backpressure_stats`) and no window completes until
        :meth:`flush`.  In wall-clock deployments overload shedding comes
        from the threaded engine instead.
    online:
        Optional :class:`OnlineLearner`; when set, every window updates the
        model from its labeled flows and drift triggers regeneration.
    telemetry:
        Optional shared :class:`TelemetryRecorder` (a fresh one is created
        if omitted); exposes aggregate per-stage latency and throughput.
    history:
        How many full :class:`DetectionResult` objects (flows + feature
        matrices) to retain on :attr:`detections`; ``None`` keeps all.
        :attr:`results` (lightweight window summaries) is always complete.
    """

    def __init__(
        self,
        pipeline: DetectionPipeline,
        window_size: int = 500,
        idle_timeout: float = 5.0,
        queue_capacity: Optional[int] = None,
        backpressure: str = "block",
        online: Optional[OnlineLearner] = None,
        telemetry: Optional[TelemetryRecorder] = None,
        history: Optional[int] = 512,
    ):
        if not pipeline.is_fitted:
            raise NotFittedError("StreamingDetector requires a trained pipeline")
        if window_size < 1:
            raise ConfigurationError("window_size must be >= 1")
        self.pipeline = pipeline
        self.window_size = int(window_size)
        self.online = online
        self.telemetry = telemetry if telemetry is not None else TelemetryRecorder()
        stages = [
            FlowAssemblyStage(FlowTable(idle_timeout=idle_timeout)),
            *pipeline.stages,
        ]
        self.engine = InferenceEngine(
            stages,
            max_batch_size=self.window_size,
            max_wait_s=None,  # windows are packet-count driven (deterministic)
            queue_capacity=queue_capacity or 4 * self.window_size,
            backpressure=backpressure,
            telemetry=self.telemetry,
            on_batch=self._finalize_window,
            keep_batches=0,  # windows are consumed via on_batch; don't hold them twice
        )
        self._window_index = 0
        self.history = history
        self.results: List[WindowResult] = []
        self.detections: List[DetectionResult] = []

    # ------------------------------------------------------------------- API
    def push(self, packet: Packet) -> Optional[WindowResult]:
        """Ingest one packet; returns a window result when a window completes."""
        before = len(self.results)
        self.engine.submit(packet)
        return self.results[-1] if len(self.results) > before else None

    def push_many(self, packets: Iterable[Packet]) -> List[WindowResult]:
        """Ingest many packets; returns all completed window results.

        The packets enter the engine in bulk; windows complete at the same
        packet counts as pushing the packets one by one.
        """
        before = len(self.results)
        self.engine.submit_many(list(packets))
        return self.results[before:]

    def flush(self) -> WindowResult:
        """Process any buffered packets and all still-active flows.

        Always appends (and returns) a final window result; its
        ``n_packets`` counts the packets drained from the ingest buffer
        (the seed implementation erroneously reported 0 here).
        """
        self.engine.close()
        return self.results[-1]

    # ------------------------------------------------------------- internals
    def _finalize_window(self, batch: ServingBatch) -> WindowResult:
        detection = DetectionResult.from_batch(batch)
        stage_latencies = dict(detection.stage_latencies)
        if "assemble" in batch.stage_seconds:
            stage_latencies["assemble"] = batch.stage_seconds["assemble"]
        result = WindowResult(
            window_index=self._window_index,
            n_packets=len(batch.packets),
            n_flows=len(batch.flows),
            n_alerts=len(detection.alerts),
            latency_seconds=detection.latency_seconds,
            alerts=detection.alerts,
            stage_latencies=stage_latencies,
        )
        self._window_index += 1
        self.results.append(result)
        self.detections.append(detection)
        if self.history is not None and len(self.detections) > self.history:
            del self.detections[: len(self.detections) - self.history]
        if self.online is not None and batch.n_flows:
            self._learn_online(batch)
        return result

    def _learn_online(self, batch: ServingBatch) -> None:
        """Feed one processed window to the online learner (prequential)."""
        correct = np.asarray(
            [p == t for p, t in zip(batch.predictions, batch.labels)], dtype=bool
        )
        data = self.pipeline.batch_training_data(batch)
        if data is None:
            X, y = batch.features[:0], None
        else:
            X, y = data
        self.online.observe(X, y=y, confidences=batch.confidences, correct=correct)

    # ------------------------------------------------------------ statistics
    @property
    def total_alerts(self) -> int:
        """Total alerts raised across all processed windows."""
        return sum(r.n_alerts for r in self.results)

    @property
    def total_flows(self) -> int:
        """Total flows classified across all processed windows."""
        return sum(r.n_flows for r in self.results)

    @property
    def total_packets(self) -> int:
        """Total packets ingested across all processed windows."""
        return sum(r.n_packets for r in self.results)

    @property
    def mean_latency(self) -> float:
        """Window-weighted mean detection latency (seconds per window)."""
        if not self.results:
            return 0.0
        return float(sum(r.latency_seconds for r in self.results) / len(self.results))

    @property
    def mean_latency_per_flow(self) -> float:
        """Flow-weighted mean latency: seconds of detection work per flow.

        Unlike :attr:`mean_latency` (which weights every window equally,
        including empty ones), this divides total detection time by the
        number of flows actually served -- the per-item cost a capacity
        plan needs.
        """
        flows = self.total_flows
        if flows == 0:
            return 0.0
        return float(sum(r.latency_seconds for r in self.results) / flows)

    @property
    def backpressure_stats(self):
        """Ingest-queue counters (see :class:`BackpressureStats`)."""
        return self.engine.backpressure_stats
