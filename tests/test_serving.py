"""Tests for the serving subsystem: columnar flow engine equivalence, the
batched inference engine (micro-batching, backpressure, telemetry), online
learning (partial_fit, drift-triggered regeneration) and pipeline
persistence."""

import numpy as np
import pytest

from repro.core.cyberhd import CyberHD
from repro.core.trainer import adaptive_epoch
from repro.datasets.loaders import load_dataset
from repro.exceptions import ConfigurationError, NotFittedError
from repro.models.hdc_classifier import BaselineHDC
from repro.nids.feature_extraction import FlowFeatureExtractor
from repro.nids.flow import FlowTable
from repro.nids.packets import TrafficGenerator
from repro.nids.pipeline import DetectionPipeline
from repro.nids.streaming import StreamingDetector
from repro.persistence import load_model, load_pipeline, save_model, save_pipeline
from repro.serving import (
    BoundedQueue,
    DriftMonitor,
    FlowAssemblyStage,
    InferenceEngine,
    OnlineLearner,
    TelemetryRecorder,
    score_confidences,
)

from flow_oracle import ScalarFlowTable


@pytest.fixture(scope="module")
def split_dataset():
    ds = load_dataset("nsl_kdd", n_train=800, n_test=200, seed=0)
    return ds


# ``packet_pipeline`` comes from conftest.py (session scope, read-only).


class TestColumnarFlowEquivalence:
    """The struct-of-arrays FlowTable must match the scalar oracle exactly."""

    def test_batch_matches_scalar(self):
        packets = TrafficGenerator(seed=3).generate(120)
        scalar = ScalarFlowTable(idle_timeout=2.0)
        flows_a = scalar.add_packets(packets) + scalar.flush()
        columnar = FlowTable(idle_timeout=2.0)
        flows_b = columnar.add_packets(packets) + columnar.flush()
        assert flows_b == flows_a
        extractor = FlowFeatureExtractor()
        Xa, _ = extractor.extract_batch(flows_a, dtype=np.float64)
        Xb, _ = extractor.extract_batch(flows_b, dtype=np.float64)
        np.testing.assert_array_equal(Xa, Xb)

    def test_cross_batch_merging_matches_scalar(self):
        packets = TrafficGenerator(seed=4).generate(80)
        scalar = ScalarFlowTable(idle_timeout=2.0)
        chunked = FlowTable(idle_timeout=2.0)
        for i in range(0, len(packets), 97):
            assert chunked.add_packets(packets[i : i + 97]) == scalar.add_packets(
                packets[i : i + 97]
            )
            assert chunked.active_flows == scalar.active_flows
        assert chunked.flush() == scalar.flush()

    def test_duration_overrun_fallback_matches_scalar(self):
        packets = TrafficGenerator(seed=5).generate(60)
        scalar = ScalarFlowTable(idle_timeout=100.0, max_flow_duration=0.5)
        flows_a = scalar.add_packets(packets) + scalar.flush()
        columnar = FlowTable(idle_timeout=100.0, max_flow_duration=0.5)
        flows_b = columnar.add_packets(packets) + columnar.flush()
        assert len(flows_b) > len({flow.key for flow in flows_b})  # flows were split
        assert flows_b == flows_a

    def test_extract_single_matches_batch(self):
        table = FlowTable()
        flows = table.add_packets(TrafficGenerator(seed=6).generate(40)) + table.flush()
        extractor = FlowFeatureExtractor()
        X, _ = extractor.extract_batch(flows, dtype=np.float64)
        for i, flow in enumerate(flows):
            np.testing.assert_allclose(extractor.extract(flow), X[i])

    def test_extract_batch_default_float32(self):
        table = FlowTable()
        flows = table.add_packets(TrafficGenerator(seed=6).generate(10)) + table.flush()
        X, labels = FlowFeatureExtractor().extract_batch(flows)
        assert X.dtype == np.float32
        assert len(labels) == len(flows)


class TestScoreConfidences:
    def test_single_class_raises(self):
        with pytest.raises(ConfigurationError):
            score_confidences(np.ones((4, 1)))

    def test_empty_scores(self):
        assert score_confidences(np.zeros((0, 3))).shape == (0,)

    def test_margin_in_unit_interval(self):
        rng = np.random.default_rng(0)
        conf = score_confidences(rng.normal(size=(50, 5)))
        assert np.all(conf >= 0.0) and np.all(conf <= 1.0)


class TestBoundedQueue:
    def test_drop_oldest_counts(self):
        queue = BoundedQueue(capacity=3, policy="drop_oldest")
        for i in range(10):
            assert queue.push(i)
        assert len(queue) == 3
        assert queue.stats.dropped_oldest == 7
        assert queue.drain() == [7, 8, 9]

    def test_block_refuses_when_full(self):
        queue = BoundedQueue(capacity=2, policy="block")
        assert queue.push(1) and queue.push(2)
        assert not queue.push(3)
        assert queue.stats.accepted == 2
        assert queue.stats.high_watermark == 2

    def test_invalid_policy(self):
        with pytest.raises(ConfigurationError):
            BoundedQueue(capacity=4, policy="banana")


class TestBoundedQueueConcurrency:
    """Multi-threaded stress: BackpressureStats must stay consistent with the
    items actually delivered, under concurrent producers and a draining
    consumer."""

    PRODUCERS = 6
    ITEMS_PER_PRODUCER = 2000

    def _stress(self, policy):
        import threading

        queue = BoundedQueue(capacity=64, policy=policy)
        delivered = []
        stop = threading.Event()
        start_barrier = threading.Barrier(self.PRODUCERS + 2)
        rejected = [0] * self.PRODUCERS

        def produce(worker):
            start_barrier.wait()
            for i in range(self.ITEMS_PER_PRODUCER):
                if not queue.push((worker, i)):
                    rejected[worker] += 1  # block policy: caller must drain

        def consume():
            start_barrier.wait()
            while not stop.is_set() or len(queue):
                batch = queue.drain(32)
                if batch:
                    delivered.extend(batch)

        producers = [
            threading.Thread(target=produce, args=(w,)) for w in range(self.PRODUCERS)
        ]
        consumer = threading.Thread(target=consume)
        for thread in [*producers, consumer]:
            thread.start()
        start_barrier.wait()
        for thread in producers:
            thread.join()
        stop.set()
        consumer.join()
        remaining = queue.drain()
        return queue, delivered, remaining, sum(rejected)

    def test_drop_oldest_counters_consistent(self):
        queue, delivered, remaining, rejected = self._stress("drop_oldest")
        total = self.PRODUCERS * self.ITEMS_PER_PRODUCER
        stats = queue.stats
        # drop_oldest never refuses: every submission is accepted.
        assert rejected == 0
        assert stats.submitted == total
        assert stats.accepted == total
        # Conservation: every accepted item was either delivered, still
        # queued at the end, or counted as an eviction -- nothing vanishes
        # and nothing is double-counted.
        assert len(delivered) + len(remaining) + stats.dropped_oldest == stats.accepted
        # No duplicates across delivery and eviction.
        assert len(set(delivered + remaining)) == len(delivered) + len(remaining)
        assert 0 < stats.high_watermark <= queue.capacity

    def test_block_policy_conserves_items(self):
        queue, delivered, remaining, rejected = self._stress("block")
        total = self.PRODUCERS * self.ITEMS_PER_PRODUCER
        stats = queue.stats
        # Refused pushes are not counted as submissions (the engine retries).
        assert stats.submitted == total - rejected
        assert stats.accepted == stats.submitted
        assert stats.dropped_oldest == 0
        assert len(delivered) + len(remaining) == stats.accepted
        assert len(set(delivered + remaining)) == stats.accepted
        assert 0 < stats.high_watermark <= queue.capacity


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestInferenceEngine:
    def _engine(self, **kwargs):
        stages = [FlowAssemblyStage(FlowTable())]
        clock = kwargs.pop("clock", _FakeClock())
        telemetry = TelemetryRecorder(clock=clock)
        return (
            InferenceEngine(stages, telemetry=telemetry, clock=clock, **kwargs),
            clock,
        )

    def test_dispatch_at_max_batch_size(self):
        packets = TrafficGenerator(seed=1).generate(10)
        engine, _ = self._engine(max_batch_size=8, max_wait_s=None)
        results = engine.submit_many(packets[:7])
        assert results == []
        result = engine.submit(packets[7])
        assert result is not None
        assert len(result.packets) == 8

    def test_dispatch_on_max_wait(self):
        packets = TrafficGenerator(seed=1).generate(10)
        engine, clock = self._engine(max_batch_size=1000, max_wait_s=5.0)
        assert engine.submit(packets[0]) is None
        clock.now += 10.0
        result = engine.submit(packets[1])
        assert result is not None
        assert len(result.packets) == 2

    def test_forced_flush_keeps_item(self):
        packets = TrafficGenerator(seed=1).generate(10)
        engine, _ = self._engine(
            max_batch_size=1000, max_wait_s=None, queue_capacity=4, backpressure="block"
        )
        for p in packets[:20]:
            engine.submit(p)
        stats = engine.backpressure_stats
        assert stats.forced_flushes > 0
        # Nothing lost: every submitted packet is either queued or processed.
        processed = sum(len(b.packets) for b in engine.batches)
        assert processed + engine.pending == 20

    def test_close_flushes_active_flows(self):
        packets = TrafficGenerator(seed=2).generate(5)
        engine, _ = self._engine(max_batch_size=10_000, max_wait_s=None)
        engine.submit_many(packets)
        batch = engine.close()
        assert batch is not None
        assert len(batch.flows) > 0  # the flow-table flush fed the batch
        assert engine.pending == 0

    def test_telemetry_records_stages(self):
        packets = TrafficGenerator(seed=2).generate(5)
        engine, clock = self._engine(max_batch_size=50, max_wait_s=None)
        engine.submit_many(packets)
        engine.close()
        stats = engine.telemetry.to_dict()
        assert "assemble" in stats
        assert stats["assemble"]["batches"] >= 1


class TestDriftMonitor:
    def test_reference_freeze_and_trigger(self):
        monitor = DriftMonitor(window=50, min_samples=10, confidence_drop=0.2, cooldown=10)
        monitor.observe(np.full(20, 0.9))
        assert monitor.reference_confidence == pytest.approx(0.9)
        assert not monitor.should_regenerate()
        monitor.observe(np.full(50, 0.4))
        assert monitor.should_regenerate()
        event = monitor.notify_regenerated()
        assert event.reference_confidence == pytest.approx(0.9)
        assert not monitor.should_regenerate()  # windows cleared + cooldown

    def test_accuracy_drop_triggers(self):
        monitor = DriftMonitor(window=40, min_samples=10, confidence_drop=9.0, accuracy_drop=0.2)
        monitor.observe(np.full(20, 0.8), correct=np.ones(20, dtype=bool))
        monitor.observe(np.full(40, 0.8), correct=np.zeros(40, dtype=bool))
        assert monitor.should_regenerate()

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            DriftMonitor(window=10, min_samples=20)


class TestPartialFit:
    def test_equivalence_with_one_adaptive_epoch(self, split_dataset):
        """partial_fit(X, y) == one batched adaptive_epoch over encode(X)."""
        ds = split_dataset
        X1, y1 = ds.X_train[:600], ds.y_train[:600]
        X2, y2 = ds.X_train[600:], ds.y_train[600:]
        for model in (
            BaselineHDC(dim=96, epochs=3, seed=0),
            CyberHD(dim=96, epochs=3, regeneration_rate=0.1, seed=0),
        ):
            model.fit(X1, y1)
            expected = model.class_hypervectors_.copy()
            H2 = model.encode(X2)
            lr = getattr(model, "learning_rate", None) or model.config.learning_rate
            bs = getattr(model, "batch_size", None) or model.config.batch_size
            adaptive_epoch(expected, H2, y2, learning_rate=lr, batch_size=bs, shuffle=False)
            model.partial_fit(X2, y2)
            np.testing.assert_array_equal(model.class_hypervectors_, expected)

    def test_cold_start_requires_classes(self, split_dataset):
        ds = split_dataset
        model = CyberHD(dim=64, seed=0)
        with pytest.raises(ConfigurationError):
            model.partial_fit(ds.X_train[:50], ds.y_train[:50])

    def test_cold_start_learns(self, split_dataset):
        ds = split_dataset
        model = CyberHD(dim=128, seed=0)
        classes = np.unique(ds.y_train)
        for start in range(0, 800, 100):
            model.partial_fit(
                ds.X_train[start : start + 100],
                ds.y_train[start : start + 100],
                classes=classes,
            )
        assert model.score(ds.X_test, ds.y_test) > 0.6
        assert model.online_batches_ == 8

    def test_unknown_labels_rejected(self, split_dataset):
        ds = split_dataset
        model = BaselineHDC(dim=64, epochs=2, seed=0).fit(ds.X_train[:400], ds.y_train[:400])
        bad = np.full(10, 10_000, dtype=np.int64)
        with pytest.raises(ValueError):
            model.partial_fit(ds.X_train[:10], bad)

    def test_partial_fit_unsupported_on_mlp(self, split_dataset):
        from repro.baselines.mlp import MLPClassifier

        ds = split_dataset
        model = MLPClassifier(hidden_layers=(8,), epochs=1, seed=0)
        model.fit(ds.X_train[:200], ds.y_train[:200])
        with pytest.raises(NotImplementedError):
            model.partial_fit(ds.X_train[:10], ds.y_train[:10])


class TestOnlineRegeneration:
    def test_unchanged_dimensions_preserved(self, split_dataset):
        """Regeneration must be surgical: unselected dimensions unchanged."""
        ds = split_dataset
        model = CyberHD(dim=128, epochs=4, regeneration_rate=0.1, seed=0)
        model.fit(ds.X_train, ds.y_train)
        H_before = model.encode(ds.X_test)
        C_before = model.class_hypervectors_.copy()
        event = model.regenerate_online(ds.X_train[:200], ds.y_train[:200])
        assert event is not None and event.online and event.epoch == -1
        keep = np.setdiff1d(np.arange(128), event.dimensions)
        H_after = model.encode(ds.X_test)
        np.testing.assert_array_equal(H_before[:, keep], H_after[:, keep])
        np.testing.assert_array_equal(C_before[:, keep], model.class_hypervectors_[:, keep])
        # ...and the regenerated columns actually changed.
        assert not np.array_equal(
            H_before[:, event.dimensions], H_after[:, event.dimensions]
        )

    def test_zero_rate_is_noop(self, split_dataset):
        ds = split_dataset
        model = CyberHD(dim=64, epochs=2, regeneration_rate=0.0, seed=0)
        model.fit(ds.X_train[:300], ds.y_train[:300])
        assert model.regenerate_online(rate=0.0) is None

    def test_predictions_survive_regeneration(self, split_dataset):
        ds = split_dataset
        model = CyberHD(dim=128, epochs=4, regeneration_rate=0.1, seed=0)
        model.fit(ds.X_train, ds.y_train)
        before = model.score(ds.X_test, ds.y_test)
        model.regenerate_online(ds.X_train, ds.y_train)
        model.partial_fit(ds.X_train, ds.y_train)
        after = model.score(ds.X_test, ds.y_test)
        assert after >= before - 0.05


class TestOnlineLearner:
    def test_updates_and_buffering(self, split_dataset):
        ds = split_dataset
        model = CyberHD(dim=64, epochs=2, seed=0).fit(ds.X_train[:400], ds.y_train[:400])
        learner = OnlineLearner(model, buffer_size=128)
        learner.observe(ds.X_train[400:500], ds.y_train[400:500])
        assert learner.updates == 1
        assert learner.buffer_rows == 100
        learner.observe(ds.X_train[500:600], ds.y_train[500:600])
        assert learner.buffer_rows <= 128 + 100  # bounded ring

    def test_drift_triggers_regeneration(self, split_dataset):
        ds = split_dataset
        model = CyberHD(dim=64, epochs=2, regeneration_rate=0.1, seed=0)
        model.fit(ds.X_train[:400], ds.y_train[:400])
        monitor = DriftMonitor(window=50, min_samples=10, confidence_drop=0.2, cooldown=10)
        learner = OnlineLearner(model, monitor=monitor, min_buffer_for_regeneration=10)
        # Healthy reference, then a confidence collapse.
        learner.observe(
            ds.X_train[400:450], ds.y_train[400:450], confidences=np.full(50, 0.9)
        )
        outcome = learner.observe(
            ds.X_train[450:550], ds.y_train[450:550], confidences=np.full(100, 0.2)
        )
        assert outcome["regeneration"] is not None
        assert learner.regenerations == 1
        assert monitor.events


class TestStreamingOnline:
    def test_flush_reports_drained_packets(self, packet_pipeline):
        """Regression: the seed flush() reported n_packets=0."""
        detector = StreamingDetector(packet_pipeline, window_size=10_000)
        packets = TrafficGenerator(seed=11).generate(20)
        detector.push_many(packets)
        final = detector.flush()
        assert final.n_packets == len(packets)
        assert detector.total_packets == len(packets)

    def test_flow_weighted_latency(self, packet_pipeline):
        detector = StreamingDetector(packet_pipeline, window_size=100)
        detector.push_many(TrafficGenerator(seed=12).generate(60))
        detector.flush()
        assert detector.mean_latency >= 0.0
        assert detector.mean_latency_per_flow >= 0.0
        if detector.total_flows:
            total = sum(r.latency_seconds for r in detector.results)
            assert detector.mean_latency_per_flow == pytest.approx(
                total / detector.total_flows
            )

    def test_window_stage_latencies(self, packet_pipeline):
        detector = StreamingDetector(packet_pipeline, window_size=200)
        detector.push_many(TrafficGenerator(seed=13).generate(40))
        final = detector.flush()
        assert "assemble" in final.stage_latencies
        if final.n_flows:
            assert "classify" in final.stage_latencies

    def test_backpressure_drop_oldest_counters(self, packet_pipeline):
        """Satellite: counters under queue overflow."""
        detector = StreamingDetector(
            packet_pipeline,
            window_size=10_000,
            queue_capacity=50,
            backpressure="drop_oldest",
        )
        packets = TrafficGenerator(seed=14).generate(30)
        detector.push_many(packets)
        stats = detector.backpressure_stats
        assert stats.submitted == len(packets)
        assert stats.dropped_oldest == len(packets) - 50
        assert stats.high_watermark == 50
        final = detector.flush()
        assert final.n_packets == 50  # only the newest survivors are served

    def test_online_streaming_updates_model(self, packet_pipeline):
        model = packet_pipeline.classifier
        before = model.online_batches_
        snapshot = model.class_vector_snapshot()
        try:
            learner = OnlineLearner(model)
            detector = StreamingDetector(packet_pipeline, window_size=300, online=learner)
            detector.push_many(TrafficGenerator(seed=15).generate(120))
            detector.flush()
            assert learner.updates > 0
            assert model.online_batches_ > before
        finally:
            # The pipeline fixture is session-scoped and read-only.
            model.set_class_vectors(snapshot)


class TestStreamingDriftExperiment:
    def test_online_within_two_points_of_refit(self):
        """Acceptance: partial_fit + drift regeneration keep streaming
        accuracy within 2 points of offline refit on the drift scenario."""
        from repro.eval.experiments import streaming_drift_experiment

        result = streaming_drift_experiment(scale="fast", seed=0)
        rows = {row["path"]: row["tail_accuracy"] for row in result.rows}
        assert rows["online"] >= rows["offline_refit"] - 0.02
        assert rows["online"] >= rows["frozen"] - 0.01  # adaptation never hurts


class TestPipelinePersistence:
    def test_pipeline_round_trip(self, packet_pipeline, tmp_path):
        path = save_pipeline(packet_pipeline, tmp_path / "pipeline.npz")
        restored = load_pipeline(path)
        table = FlowTable()
        flows = table.add_packets(TrafficGenerator(seed=21).generate(40)) + table.flush()
        original = packet_pipeline.detect_flows(flows)
        loaded = restored.detect_flows(flows)
        assert original.predictions == loaded.predictions
        np.testing.assert_allclose(original.confidences, loaded.confidences, rtol=1e-6)
        assert restored.class_names == packet_pipeline.class_names

    def test_loaded_pipeline_remains_online_updatable(self, packet_pipeline, tmp_path):
        path = save_pipeline(packet_pipeline, tmp_path / "pipeline.npz")
        restored = load_pipeline(path)
        table = FlowTable()
        flows = table.add_packets(TrafficGenerator(seed=22).generate(30)) + table.flush()
        known = [f for f in flows if f.label in restored.class_names]
        assert restored.partial_fit_flows(known) == len(known)

    def test_kind_mismatch_rejected(self, packet_pipeline, split_dataset, tmp_path):
        pipeline_path = save_pipeline(packet_pipeline, tmp_path / "pipeline.npz")
        with pytest.raises(ConfigurationError):
            load_model(pipeline_path)
        model = BaselineHDC(dim=64, epochs=2, seed=0).fit(
            split_dataset.X_train[:300], split_dataset.y_train[:300]
        )
        model_path = save_model(model, tmp_path / "model.npz")
        with pytest.raises(ConfigurationError):
            load_pipeline(model_path)

    def test_unfitted_pipeline_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_pipeline(DetectionPipeline(), tmp_path / "nope.npz")
