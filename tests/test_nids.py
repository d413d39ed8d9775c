"""Tests for the NIDS substrate: traffic, flows, features, metrics, alerts."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nids.alerts import Alert, AlertManager, Severity, classify_severity
from repro.nids.feature_extraction import FLOW_FEATURE_NAMES, FlowFeatureExtractor
from repro.nids.flow import FlowKey, FlowTable
from repro.nids.metrics import confusion_matrix, detection_report
from repro.nids.packets import DEFAULT_PROFILES, Packet, TrafficGenerator

from flow_oracle import fold_packet, record_from_first_packet


def _make_packet(ts=0.0, src="10.0.0.2", dst="192.168.1.5", sport=5555, dport=80, label="benign", flags=0x10):
    return Packet(
        timestamp=ts,
        src_ip=src,
        dst_ip=dst,
        src_port=sport,
        dst_port=dport,
        protocol="tcp",
        length=100,
        tcp_flags=flags,
        label=label,
    )


class TestTrafficGenerator:
    def test_generate_packet_count_and_ordering(self):
        generator = TrafficGenerator(seed=0)
        packets = generator.generate(30)
        assert len(packets) > 30
        timestamps = [p.timestamp for p in packets]
        assert timestamps == sorted(timestamps)

    def test_profiles_labelled(self):
        generator = TrafficGenerator(seed=1)
        packets = generator.generate(50)
        labels = {p.label for p in packets}
        assert "benign" in labels
        assert labels.issubset(set(generator.profile_names()))

    def test_stream_matches_generate_semantics(self):
        generator = TrafficGenerator(seed=2)
        streamed = list(generator.stream(10))
        assert len(streamed) > 0

    def test_flow_packets_follow_profile(self):
        generator = TrafficGenerator(seed=3)
        scan_profile = next(p for p in DEFAULT_PROFILES if p.name == "port_scan")
        packets = generator.generate_flow_packets(scan_profile, start_time=0.0)
        forward = [p for p in packets if p.src_ip.startswith("10.")]
        assert len({p.dst_port for p in forward}) > 5  # sweeps many ports
        assert all(p.tcp_flags & 0x02 for p in forward)  # SYN set

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            TrafficGenerator(profiles=[])
        with pytest.raises(ConfigurationError):
            TrafficGenerator(n_hosts=1)
        with pytest.raises(ConfigurationError):
            TrafficGenerator(profile_weights=[1.0])  # wrong length
        with pytest.raises(ConfigurationError):
            TrafficGenerator(seed=0).generate(0)


class TestFlowAssembly:
    def test_flow_key_bidirectional(self):
        forward = _make_packet()
        backward = _make_packet(src="192.168.1.5", dst="10.0.0.2", sport=80, dport=5555)
        assert FlowKey.from_packet(forward) == FlowKey.from_packet(backward)

    def test_flow_record_accumulates(self):
        first = _make_packet(ts=1.0)
        record = record_from_first_packet(first)
        fold_packet(record, _make_packet(ts=2.0))
        reply = _make_packet(ts=3.5, src="192.168.1.5", dst="10.0.0.2", sport=80, dport=5555)
        fold_packet(record, reply)
        assert record.fwd_packets == 2
        assert record.bwd_packets == 1
        assert record.duration == pytest.approx(2.5)
        assert record.total_bytes == 300

    def test_flow_label_prefers_attack(self):
        record = record_from_first_packet(_make_packet(label="benign"))
        fold_packet(record, _make_packet(ts=0.5, label="port_scan"))
        assert record.label == "port_scan"

    def test_flow_table_idle_timeout(self):
        table = FlowTable(idle_timeout=1.0)
        table.add_packet(_make_packet(ts=0.0))
        assert table.active_flows == 1
        expired = table.add_packet(_make_packet(ts=5.0, sport=7777))
        assert len(expired) == 1
        assert table.active_flows == 1

    def test_flow_table_flush(self):
        table = FlowTable()
        table.add_packets([_make_packet(ts=float(i) * 0.01) for i in range(5)])
        flows = table.flush()
        assert len(flows) == 1
        assert table.active_flows == 0
        assert flows[0].total_packets == 5

    def test_flow_table_invalid_timeouts(self):
        with pytest.raises(ConfigurationError):
            FlowTable(idle_timeout=0.0)

    def test_end_to_end_flow_count(self):
        generator = TrafficGenerator(seed=4)
        packets = generator.generate(20)
        table = FlowTable(idle_timeout=2.0)
        flows = table.add_packets(packets) + table.flush()
        assert len(flows) >= 15  # roughly one flow per generated flow


class TestFeatureExtraction:
    def test_feature_vector_shape_and_names(self):
        extractor = FlowFeatureExtractor()
        table = FlowTable()
        table.add_packets([_make_packet(), _make_packet(ts=0.4)])
        (record,) = table.flush()
        features = extractor.extract(record)
        assert features.shape == (len(FLOW_FEATURE_NAMES),)
        assert extractor.n_features == len(FLOW_FEATURE_NAMES)
        assert np.all(np.isfinite(features))

    def test_extract_batch(self):
        generator = TrafficGenerator(seed=5)
        table = FlowTable()
        flows = table.add_packets(generator.generate(15)) + table.flush()
        X, labels = FlowFeatureExtractor().extract_batch(flows)
        assert X.shape == (len(flows), len(FLOW_FEATURE_NAMES))
        assert len(labels) == len(flows)

    def test_extract_batch_empty(self):
        X, labels = FlowFeatureExtractor().extract_batch([])
        assert X.shape == (0, len(FLOW_FEATURE_NAMES))
        assert labels == []

    def test_attack_flows_separable_from_benign(self):
        generator = TrafficGenerator(seed=6)
        table = FlowTable()
        flows = table.add_packets(generator.generate(120)) + table.flush()
        X, labels = FlowFeatureExtractor().extract_batch(flows)
        syn_ratio_index = FLOW_FEATURE_NAMES.index("syn_ratio")
        scan_ratios = [X[i, syn_ratio_index] for i, l in enumerate(labels) if l == "syn_flood"]
        benign_ratios = [X[i, syn_ratio_index] for i, l in enumerate(labels) if l == "benign"]
        if scan_ratios and benign_ratios:
            assert np.mean(scan_ratios) > np.mean(benign_ratios)


class TestMetrics:
    def test_confusion_matrix_diagonal(self):
        y = np.array([0, 1, 2, 1])
        matrix = confusion_matrix(y, y, 3)
        assert matrix.trace() == 4

    def test_confusion_matrix_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            confusion_matrix(np.array([0, 1]), np.array([0]), 2)

    def test_detection_report_perfect(self):
        y = np.array([0, 1, 1, 2])
        report = detection_report(y, y, ["benign", "dos", "probe"], attack_mask=[False, True, True])
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.detection_rate == 1.0
        assert report.false_alarm_rate == 0.0

    def test_detection_report_false_alarms(self):
        y_true = np.array([0, 0, 0, 0])
        y_pred = np.array([0, 1, 0, 1])
        report = detection_report(y_true, y_pred, ["benign", "dos"], attack_mask=[False, True])
        assert report.false_alarm_rate == 0.5
        assert report.detection_rate is None

    def test_per_class_metrics_keys(self):
        y_true = np.array([0, 1, 1, 0])
        y_pred = np.array([0, 1, 0, 0])
        report = detection_report(y_true, y_pred, ["a", "b"])
        assert set(report.per_class["b"]) == {"precision", "recall", "f1", "support"}
        assert report.per_class["b"]["recall"] == 0.5

    def test_summary_string(self):
        y = np.array([0, 1])
        report = detection_report(y, y, ["a", "b"], attack_mask=[False, True])
        text = report.summary()
        assert "accuracy" in text and "detection rate" in text

    def test_attack_mask_length_validation(self):
        with pytest.raises(ConfigurationError):
            detection_report(np.array([0]), np.array([0]), ["a", "b"], attack_mask=[True])

    def test_zero_support_class_reports_zero_metrics(self):
        """A class absent from both truth and predictions must report 0.0
        precision/recall/f1 with support 0 -- never NaN or a warning."""
        y_true = np.array([0, 0, 1])
        y_pred = np.array([0, 0, 1])
        with np.errstate(divide="raise", invalid="raise"):
            report = detection_report(y_true, y_pred, ["a", "b", "ghost"])
        ghost = report.per_class["ghost"]
        assert ghost == {"precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 0.0}
        # Macro averages must skip the unsupported class, not dilute with 0s.
        assert report.macro_recall == 1.0

    def test_never_predicted_class_has_zero_precision(self):
        """Precision over an empty prediction set is defined as 0.0."""
        y_true = np.array([0, 1, 1])
        y_pred = np.array([0, 0, 0])
        with np.errstate(divide="raise", invalid="raise"):
            report = detection_report(y_true, y_pred, ["a", "b"])
        assert report.per_class["b"]["precision"] == 0.0
        assert report.per_class["b"]["recall"] == 0.0
        assert report.per_class["b"]["f1"] == 0.0

    def test_empty_report_is_all_zeros(self):
        """Zero evaluated rows: every aggregate is 0.0, no division blows up."""
        with np.errstate(divide="raise", invalid="raise"):
            report = detection_report(
                np.array([], dtype=int),
                np.array([], dtype=int),
                ["a", "b"],
                attack_mask=[False, True],
            )
        assert report.accuracy == 0.0
        assert report.macro_f1 == 0.0
        assert report.detection_rate is None
        assert report.false_alarm_rate is None

    def test_all_attack_truth_leaves_false_alarm_rate_none(self):
        """No benign rows -> a false-alarm rate is undefined, not 0/0."""
        y = np.array([1, 1])
        with np.errstate(divide="raise", invalid="raise"):
            report = detection_report(y, y, ["a", "b"], attack_mask=[False, True])
        assert report.detection_rate == 1.0
        assert report.false_alarm_rate is None


class TestAlerts:
    def _flow(self):
        return record_from_first_packet(_make_packet())

    def test_severity_mapping(self):
        assert classify_severity("port_scan") == Severity.LOW
        assert classify_severity("DoS_Hulk") == Severity.MEDIUM
        assert classify_severity("SSH-Bruteforce") == Severity.HIGH
        assert classify_severity("Backdoor") == Severity.CRITICAL
        assert classify_severity("unknown-thing") == Severity.MEDIUM

    def test_raise_alert_and_counts(self):
        manager = AlertManager()
        alert = manager.raise_alert(self._flow(), "port_scan", 0.9)
        assert isinstance(alert, Alert)
        assert manager.count_by_class() == {"port_scan": 1}
        assert manager.count_by_severity() == {"LOW": 1}
        assert manager.highest_severity() == Severity.LOW

    def test_deduplication_window(self):
        manager = AlertManager(dedup_window=10.0)
        flow = self._flow()
        assert manager.raise_alert(flow, "dos", 0.9, timestamp=1.0) is not None
        assert manager.raise_alert(flow, "dos", 0.9, timestamp=2.0) is None
        assert manager.suppressed == 1
        assert manager.raise_alert(flow, "dos", 0.9, timestamp=20.0) is not None

    def test_dedup_keys_on_destination_when_initiator_is_endpoint_b(self):
        # 192.168.9.9 sorts after both victims, so it is each key's B endpoint.
        manager = AlertManager(dedup_window=10.0)
        first = record_from_first_packet(
            _make_packet(ts=1.0, src="192.168.9.9", dst="10.0.0.1", sport=40000, dport=22)
        )
        second = record_from_first_packet(
            _make_packet(ts=2.0, src="192.168.9.9", dst="10.0.0.2", sport=40001, dport=22)
        )
        assert first.key.ip_b == first.initiator_ip == second.key.ip_b
        assert manager.raise_alert(first, "ssh_bruteforce", 0.9) is not None
        alert = manager.raise_alert(second, "ssh_bruteforce", 0.9)
        assert alert is not None and alert.destination_ip == "10.0.0.2"
        assert manager.suppressed == 0
        assert manager.raise_alert(second, "ssh_bruteforce", 0.9, timestamp=3.0) is None

    def test_min_confidence_filter(self):
        manager = AlertManager(min_confidence=0.5)
        assert manager.raise_alert(self._flow(), "dos", 0.1) is None
        assert manager.suppressed == 1

    def test_clear(self):
        manager = AlertManager()
        manager.raise_alert(self._flow(), "dos", 0.9)
        manager.clear()
        assert manager.alerts == []
        assert manager.highest_severity() is None
