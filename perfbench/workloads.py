"""The three workloads of record and the run protocol they share.

``stream_mixed``
    The ``mixed_benign`` scenario trace through one ``StreamingDetector``,
    windows of 512 packets.
``stream_sharded``
    The same trace and window size through a 2-worker
    ``ClusterCoordinator`` with ``capture_predictions=True``.
``learn_tabular``
    NSL-KDD (``paper`` preset): ``CyberHD.fit`` at the paper's
    configuration, then classification of the held-out split in 512-row
    batches.

Every workload is closed-loop: the client hands over the next window only
after the call that took the previous one returns.  Every run follows one
order: training inputs -> set-up (timed, repeated) -> serving inputs, whose
memory is measured -> their reference -> ``gc.collect(); gc.freeze()`` ->
one warm-up pass, which also samples peak memory -> timed passes until
``--seconds`` have passed and at least :data:`MIN_WINDOWS` windows were
timed.  A traced run alternates untraced and traced passes so that the
tracing overhead is measured in one process.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.measure import (
    PeakTreePss,
    Tally,
    digest,
    feed,
    float64_cosines,
    median,
    oracle_disagreements,
    settle,
    stretch_percentile,
    tree_pss_mb,
)
from perfbench.spans import GcTimer, Tracer, self_totals

import repro.core.cyberhd as cyberhd_module
from repro import CyberHD, load_dataset
from repro.cluster import ClusterConfig, ClusterCoordinator, compile_scenario_trace, get_scenario
from repro.datasets.synthetic import GenerationConfig
from repro.nids.pipeline import DetectionPipeline
from repro.nids.streaming import StreamingDetector
from repro.replay import GoldenTrace, diff_against_golden
from repro.replay.golden import CONFIDENCE_ATOL
from repro.serving.stages import batch_flow_predictions

WINDOW = 512
#: Also the stretch of windows each p99 is taken over.
MIN_WINDOWS = 1000
MIN_PASSES = 3
SETUP_REPEATS = 9
#: The timed phase stops here even when MIN_WINDOWS is not reached.
TIME_CAP_S = 100.0
TRAIN_FLOWS = 2000
#: mixed_benign at this scale is about 160k packets, 317 windows of 512.
TRACE_FLOWS_SCALE = 7.0
N_WORKERS = 2
N_TRAIN = 8000
N_TEST = 20000
PAPER_MODEL = {"dim": 500, "epochs": 20, "regeneration_rate": 0.10}
DIGESTS = Path(__file__).with_name("digests.json")

clock = time.perf_counter

#: The metrics as BENCHMARK.json declares them; every run reports exactly
#: one of these two sets.
_DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: Every end-to-end metric: name -> unit.
END_TO_END = {metric["name"]: metric["unit"] for metric in _DECLARED["end_to_end"]}
#: Every per-layer metric: name -> unit.  A workload that does not run a
#: layer reports 0 for it.  Times are self seconds per timed pass, or per
#: fit for the training layers; counts are per pass, or per fit.
PER_LAYER = {metric["name"]: metric["unit"] for metric in _DECLARED["per_layer"]}

#: The root span of each client step; its self time is ``unattributed_s``.
CLIENT = "client"


class InputDigestMismatch(RuntimeError):
    """The generated inputs differ from the digest recorded for this seed."""


@dataclass
class PassResult:
    """One timed pass over a workload's whole input."""

    wall_s: float
    offered: int
    served: int
    latencies_s: List[float]
    traced: bool
    #: Per-layer values of a traced pass.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Reference disagreements: (kind, token or row) pairs.
    mismatches: List[Tuple[str, str]] = field(default_factory=list)
    reference_agreement: float = 1.0

    @property
    def rate(self) -> float:
        return self.served / self.wall_s


@dataclass
class RunResult:
    metrics: Dict[str, Tuple[float, str, int]]
    attempted: int
    failed: int
    problems: List[str]
    passes: List[PassResult]
    spans: Optional[Tracer] = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# ------------------------------------------------------------------- inputs
def _packet_columns(packets: List[Any]) -> List[Any]:
    fields = (
        "timestamp", "src_ip", "dst_ip", "src_port", "dst_port",
        "protocol", "length", "tcp_flags", "label",
    )
    return [(name, [getattr(p, name) for p in packets]) for name in fields]


def training_capture(seed: int) -> List[Any]:
    """The labelled packets the stream workloads train on."""
    # The scenario's phase generators use seeds seed * 1009 + phase; the
    # training capture takes a seed no phase uses.
    return get_scenario("mixed_benign").training_packets(
        n_flows=TRAIN_FLOWS, seed=seed * 1009 + 1
    )


def serving_trace(seed: int) -> Any:
    """The compiled ``mixed_benign`` trace both stream workloads serve."""
    return compile_scenario_trace(
        get_scenario("mixed_benign"), flows_scale=TRACE_FLOWS_SCALE, seed=seed
    )


def training_hash(training: List[Any]) -> Any:
    """A SHA-256 hasher fed the training capture's packet columns."""
    hasher = hashlib.sha256()
    feed(hasher, _packet_columns(training))
    return hasher


def stream_digest(hasher: Any, trace: Any) -> str:
    """Finish a :func:`training_hash` with the trace and its ground truth."""
    truth = [(flow.token, flow.label, flow.is_attack) for flow in trace.flows]
    feed(hasher, [*_packet_columns(trace.packets), truth])
    return hasher.hexdigest()


def tabular_split(seed: int) -> Any:
    return load_dataset(
        "nsl_kdd", n_train=N_TRAIN, n_test=N_TEST, seed=seed,
        config=GenerationConfig.preset("paper"),
    )


def tabular_digest(ds: Any) -> str:
    return digest([ds.X_train, ds.y_train, ds.X_test, ds.y_test, tuple(ds.class_names)])


def input_digests(seed: int) -> Dict[str, str]:
    """Every workload input digest of one seed, by kind."""
    return {
        "stream": stream_digest(training_hash(training_capture(seed)), serving_trace(seed)),
        "tabular": tabular_digest(tabular_split(seed)),
    }


def check_digest(kind: str, seed: int, value: str, notes: List[str]) -> None:
    """Raise when ``value`` differs from the digest recorded for ``seed``."""
    recorded = json.loads(DIGESTS.read_text()).get(kind, {}).get(str(seed))
    if recorded is None:
        notes.append(f"no recorded {kind} input digest for seed {seed}; inputs unchecked")
    elif recorded != value:
        raise InputDigestMismatch(
            f"{kind} inputs for seed {seed} hash to {value}, recorded {recorded}: "
            "the generators changed what this benchmark measures"
        )


# ---------------------------------------------------------------- training
def trace_training(tracer: Tracer, counts: Dict[str, float]) -> None:
    """Wrap what ``CyberHD.fit`` calls (traced set-up only)."""

    def epoch_done(result: Tuple[int, float]) -> None:
        counts["core.trainer.epochs"] += 1
        counts["core.trainer.updates"] += result[0]

    def dims_chosen(result: Tuple[np.ndarray, float]) -> None:
        counts["core.regeneration.dims_regenerated"] += result[0].size

    def encoder_made(encoder: Any) -> None:
        tracer.patch(encoder, "encode", "hdc.encoders.train_encode")
        tracer.patch(encoder, "encode_partial", "hdc.encoders.train_encode")

    tracer.patch(CyberHD, "fit", "core.cyberhd.fit")
    # Wrapped only to reach the encoder it builds; its time stays in fit_s.
    tracer.patch(cyberhd_module, "make_encoder", "core.cyberhd.fit", encoder_made)
    tracer.patch(cyberhd_module, "adaptive_epoch", "core.trainer.epoch", epoch_done)
    tracer.patch(
        cyberhd_module, "select_drop_dimensions", "core.regeneration.regenerate", dims_chosen
    )
    tracer.patch(cyberhd_module, "apply_regeneration", "core.regeneration.regenerate")
    tracer.patch(cyberhd_module, "warm_start_regenerated", "core.regeneration.regenerate")


def span_layers(tracer: Tracer, first_span: int) -> Dict[str, float]:
    """Self seconds per layer of the spans since ``first_span``."""
    totals = self_totals(tracer.spans[first_span:], first_span)
    layers = {f"{name}_s": value for name, value in totals.items() if name != CLIENT}
    layers["unattributed_s"] = totals.get(CLIENT, 0.0)
    return layers


def paper_model(seed: int) -> CyberHD:
    return CyberHD(seed=seed, **PAPER_MODEL)


# --------------------------------------------------------------- workloads
class StreamWorkload:
    """Shared inputs and reference of the two packet workloads."""

    def __init__(self, seed: int, notes: List[str]):
        self.seed = seed
        self.notes = notes
        self.training = training_capture(seed)
        self.pipeline: Optional[DetectionPipeline] = None

    def fit(self) -> DetectionPipeline:
        pipeline = DetectionPipeline(paper_model(self.seed))
        pipeline.fit_packets(self.training)
        return pipeline

    def drop_training(self) -> None:
        """Free the training capture, keeping its part of the input digest."""
        self.input_hash = training_hash(self.training)
        self.training = None

    def make_serving_inputs(self) -> None:
        """The serving trace, its ground truth and the digest check."""
        self.trace = serving_trace(self.seed)
        check_digest("stream", self.seed, stream_digest(self.input_hash, self.trace), self.notes)
        self.truth = {flow.token: flow for flow in self.trace.flows}

    def make_reference(self) -> None:
        """The golden trace: the program's offline detection of the trace."""
        self.golden = GoldenTrace.record(self.pipeline, self.trace)
        self.pipeline.alert_manager.clear()

    def check(self, result: PassResult, observed: Dict[str, Any]) -> None:
        report = diff_against_golden(self.golden, observed, "perfbench")
        kinds = {
            "missing": report.missing_flows,
            "extra": report.extra_flows,
            "prediction": report.prediction_mismatches,
            "flag": report.flag_mismatches,
            "confidence": report.confidence_mismatches,
        }
        bad = set()
        for kind, tokens in kinds.items():
            result.mismatches.extend((kind, token) for token in tokens)
            bad.update(tokens)
        result.reference_agreement = 1.0 - len(bad) / (report.n_golden + len(report.extra_flows))
        self.observed = observed

    def quality(self) -> Dict[str, float]:
        """Detection quality of the last checked pass against ground truth."""
        seen = self.observed
        attacks = [t for t, flow in self.truth.items() if flow.is_attack]
        benign = [t for t, flow in self.truth.items() if not flow.is_attack]
        flagged = {t for t, record in seen.items() if record.flagged}
        correct = sum(
            1 for t, flow in self.truth.items() if t in seen and seen[t].prediction == flow.label
        )
        return {
            "attack_recall": sum(1 for t in attacks if t in flagged) / len(attacks),
            "benign_pass_rate": sum(1 for t in benign if t in seen and t not in flagged) / len(benign),
            "accuracy": correct / len(self.truth),
        }

    def n_reference(self) -> int:
        return len(self.truth)


class StreamMixed(StreamWorkload):
    def setup(self) -> float:
        start = clock()
        pipeline = self.fit()
        # Construction is set-up work; each timed pass builds its own detector.
        StreamingDetector(pipeline, window_size=WINDOW)
        elapsed = clock() - start
        self.pipeline = pipeline
        return elapsed

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        pipeline = self.pipeline
        pipeline.alert_manager.clear()
        detector = StreamingDetector(pipeline, window_size=WINDOW)
        table = detector.engine.stages[0].table
        if tracer is not None:
            stage_spans = {
                "assemble": "nids.flow.assemble",
                "extract": "nids.feature_extraction.extract",
                "classify": "serving.stages.classify",
                "alert": "nids.alerts.alert",
            }
            for stage in detector.engine.stages:
                tracer.patch(stage, "run", stage_spans[stage.name])
            tracer.patch(detector, "push_many", "serving.engine.ingest")
            tracer.patch(detector, "flush", "serving.engine.ingest")
            tracer.patch(pipeline.classifier.encoder_, "encode", "hdc.encoders.encode")
            tracer.patch(pipeline.classifier, "scores_from_encoded", "core.cyberhd.classify")
            first_span = len(tracer.spans)
        packets = self.trace.packets
        is_attack = pipeline.is_attack_class
        observed: Dict[str, Any] = {}
        latencies: List[float] = []
        active_max = 0
        with GcTimer() if tracer is not None else nullcontext() as gc_timer:
            start = clock()
            for index, begin in enumerate(range(0, len(packets), WINDOW)):
                if tracer is not None:
                    tracer.group = index
                    root = tracer.begin(CLIENT)
                window = packets[begin:begin + WINDOW]
                t0 = clock()
                results = detector.push_many(window)
                t1 = clock()
                if tracer is not None:
                    tracer.end(root)
                    active_max = max(active_max, table.active_flows)
                if results:
                    latencies.append(t1 - t0)
                    for detection in detector.detections[-len(results):]:
                        for record in batch_flow_predictions(detection, is_attack):
                            observed[record.token] = record
            if tracer is not None:
                tracer.group += 1
                root = tracer.begin(CLIENT)
            detector.flush()
            if tracer is not None:
                tracer.end(root)
            for record in batch_flow_predictions(detector.detections[-1], is_attack):
                observed[record.token] = record
            wall = clock() - start
        result = PassResult(
            wall, len(packets), detector.total_packets, latencies, tracer is not None
        )
        if tracer is not None:
            tracer.restore()
            layers = span_layers(tracer, first_span)
            layers.update({
                "nids.flow.packets": detector.total_packets,
                "nids.flow.flows_out": detector.total_flows,
                "nids.flow.active_flows_max": active_max,
                "nids.feature_extraction.flows": detector.total_flows,
                "nids.alerts.raised": len(pipeline.alert_manager.alerts),
                "nids.alerts.suppressed": pipeline.alert_manager.suppressed,
                "python.gc_s": gc_timer.seconds,
                "python.gc_gen2_collections": gc_timer.collections[2],
            })
            result.layers = layers
        self.check(result, observed)
        return result


class StreamSharded(StreamWorkload):
    def _coordinator(self, pipeline: DetectionPipeline) -> ClusterCoordinator:
        config = ClusterConfig(n_workers=N_WORKERS, batch_size=WINDOW, capture_predictions=True)
        return ClusterCoordinator(pipeline, config)

    def setup(self) -> float:
        start = clock()
        pipeline = self.fit()
        coordinator = self._coordinator(pipeline)
        coordinator.start()
        elapsed = clock() - start
        coordinator.shutdown()
        self.pipeline = pipeline
        return elapsed

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        coordinator = self._coordinator(self.pipeline)
        if tracer is not None:
            first_span = len(tracer.spans)
            tracer.patch(coordinator, "start", "cluster.coordinator.start")
            tracer.patch(coordinator, "serve_packets", "cluster.coordinator.dispatch")
            tracer.patch(coordinator, "shutdown", "cluster.coordinator.drain")
            tracer.patch(coordinator.router, "partition_packets", "cluster.router.route")
        coordinator.start()
        packets = self.trace.packets
        stamps: List[float] = []

        def feed():
            for begin in range(0, len(packets), WINDOW):
                stamps.append(clock())
                yield from packets[begin:begin + WINDOW]

        with GcTimer() if tracer is not None else nullcontext() as gc_timer:
            start = clock()
            if tracer is not None:
                root = tracer.begin(CLIENT)
            report = coordinator.serve(feed())
            if tracer is not None:
                tracer.end(root)
            wall = clock() - start
        # Window k's time runs from the coordinator pulling its first packet
        # to pulling the next window's first packet: routing and dispatching
        # it, including any wait on a full ring.
        latencies = list(np.diff(stamps))
        served = report.total_packets
        result = PassResult(wall, len(packets), served, latencies, tracer is not None)
        if tracer is not None:
            tracer.restore()
            layers = span_layers(tracer, first_span)
            transport = report.transport
            workers = report.workers
            busy = sum(w.busy_seconds for w in workers)
            shard_packets = [w.packets for w in workers]
            layers.update({
                "cluster.router.shard_skew": max(shard_packets) * len(workers) / sum(shard_packets),
                "cluster.ring.serialize_s": transport["serialize_cpu_seconds"],
                "cluster.ring.frames": transport["frames"],
                "cluster.ring.bytes_moved": transport["bytes_moved"],
                "cluster.ring.full_stalls": transport["ring_full_stalls"],
                "cluster.ring.result_stalls": transport["result_ring_stalls"],
                "cluster.worker.busy_s": busy,
                "cluster.worker.idle_fraction": 1.0 - busy / (len(workers) * wall),
                "cluster.worker.batches": sum(w.batches for w in workers),
                "cluster.supervision.respawns": report.recovery.total_respawns,
                "cluster.supervision.redispatched_batches": (
                    report.recovery.total_redispatched_batches
                ),
                "python.gc_s": gc_timer.seconds,
                "python.gc_gen2_collections": gc_timer.collections[2],
            })
            for stage in ("assemble", "extract", "encode", "classify", "alert"):
                layers[f"cluster.worker.{stage}_s"] = sum(
                    w.telemetry.get(stage, {}).get("total_seconds", 0.0) for w in workers
                )
            result.layers = layers
        self.check(result, {p.token: p for p in report.flow_predictions})
        return result


class LearnTabular:
    def __init__(self, seed: int, notes: List[str]):
        self.seed = seed
        self.notes = notes
        self.ds = tabular_split(seed)
        self.model: Optional[CyberHD] = None

    def setup(self) -> float:
        model = paper_model(self.seed)
        start = clock()
        model.fit(self.ds.X_train, self.ds.y_train)
        elapsed = clock() - start
        self.model = model
        return elapsed

    def drop_training(self) -> None:
        """Free the split; :meth:`make_serving_inputs` generates it again."""
        self.ds = None

    def make_serving_inputs(self) -> None:
        """The held-out split (the whole split, generated again) and its
        digest check."""
        self.ds = tabular_split(self.seed)
        check_digest("tabular", self.seed, tabular_digest(self.ds), self.notes)

    def make_reference(self) -> None:
        """The float64 oracle's cosines."""
        self.cosines = float64_cosines(self.model, self.ds.X_test)

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        model = self.model
        X = self.ds.X_test
        if tracer is not None:
            first_span = len(tracer.spans)
            tracer.patch(model, "predict", "core.cyberhd.score")
            tracer.patch(model.encoder_, "encode", "hdc.encoders.encode")
            tracer.patch(model, "scores_from_encoded", "core.cyberhd.classify")
        batches: List[np.ndarray] = []
        latencies: List[float] = []
        with GcTimer() if tracer is not None else nullcontext() as gc_timer:
            start = clock()
            for index, begin in enumerate(range(0, X.shape[0], WINDOW)):
                if tracer is not None:
                    tracer.group = index
                    root = tracer.begin(CLIENT)
                batch = X[begin:begin + WINDOW]
                t0 = clock()
                labels = model.predict(batch)
                t1 = clock()
                if tracer is not None:
                    tracer.end(root)
                if batch.shape[0] == WINDOW:
                    latencies.append(t1 - t0)
                batches.append(labels)
            wall = clock() - start
        predicted = np.concatenate(batches)
        result = PassResult(wall, X.shape[0], predicted.shape[0], latencies, tracer is not None)
        if tracer is not None:
            tracer.restore()
            layers = span_layers(tracer, first_span)
            layers["python.gc_s"] = gc_timer.seconds
            layers["python.gc_gen2_collections"] = gc_timer.collections[2]
            result.layers = layers
        # The program scores in float32, so a float64 tie within the
        # program's own float32 confidence tolerance may break either way.
        wrong = oracle_disagreements(
            self.model.classes_, self.cosines, predicted, CONFIDENCE_ATOL
        )
        result.mismatches.extend(("oracle", f"row {row}") for row in wrong)
        result.reference_agreement = 1.0 - wrong.size / predicted.size
        self.predicted = predicted
        return result

    def quality(self) -> Dict[str, float]:
        y = self.ds.y_test
        attack_mask = np.asarray(self.ds.schema.attack_mask)
        flagged = attack_mask[self.predicted]
        is_attack = attack_mask[y]
        return {
            "attack_recall": float(np.mean(flagged[is_attack])),
            "benign_pass_rate": float(np.mean(~flagged[~is_attack])),
            "accuracy": float(np.mean(self.predicted == y)),
        }

    def n_reference(self) -> int:
        return int(self.cosines.shape[0])


WORKLOADS: Dict[str, Callable[[int, List[str]], Any]] = {
    "stream_mixed": StreamMixed,
    "stream_sharded": StreamSharded,
    "learn_tabular": LearnTabular,
}


# ------------------------------------------------------------------ protocol
def _medians(samples: List[Dict[str, float]]) -> Dict[str, Tuple[float, int]]:
    """Per key: the median over the samples (0 where a sample lacks it)."""
    keys = {key for sample in samples for key in sample}
    return {
        key: (median(sample.get(key, 0.0) for sample in samples), len(samples))
        for key in keys
    }


def run(name: str, seed: int, seconds: float, trace: bool, notes: List[str]) -> RunResult:
    """One run of workload ``name``: set-up, inputs, warm-up, timed passes."""
    workload = WORKLOADS[name](seed, notes)
    tracer = Tracer() if trace else None
    setup_samples: List[float] = []
    fit_layers: List[Dict[str, float]] = []
    for repeat in range(SETUP_REPEATS):
        if tracer is not None:
            counts = dict.fromkeys(
                (
                    "core.trainer.epochs",
                    "core.trainer.updates",
                    "core.regeneration.dims_regenerated",
                ),
                0,
            )
            first_span = len(tracer.spans)
            tracer.group = repeat
            trace_training(tracer, counts)
        setup_samples.append(workload.setup())
        if tracer is not None:
            tracer.restore()
            totals = self_totals(tracer.spans[first_span:], first_span)
            fit_layers.append({**{f"{k}_s": v for k, v in totals.items()}, **counts})

    # inputs_mb is what the benchmark's own serving inputs hold.  The
    # reference is made after it: recording the golden trace is program
    # work, and the state it leaves behind counts as the program's memory.
    workload.drop_training()
    settle()
    base_mb = tree_pss_mb()
    workload.make_serving_inputs()
    settle()
    inputs_mb = tree_pss_mb() - base_mb
    workload.make_reference()
    # Hand the reference's garbage back, so that the warm-up pass must map
    # fresh pages for what it allocates and the peak shows it.
    settle()
    gc.freeze()

    # The warm-up pass lets caches fill and lazy set-up finish.  Peak memory
    # is sampled during it and not during the timed passes: the sampler's
    # reads of /proc/<pid>/smaps_rollup stall the sampled processes and
    # would inflate the latency tail.
    tally = Tally()
    with PeakTreePss() as memory:
        warm_up = workload.run_pass(None)
    tally.record(warm_up.offered, warm_up.served)
    passes: List[PassResult] = []
    start = clock()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        result = workload.run_pass(tracer if traced else None)
        passes.append(result)
        tally.record(result.offered, result.served)
        elapsed = clock() - start
        windows = sum(len(p.latencies_s) for p in passes if not p.traced)
        passes_needed = MIN_PASSES * (2 if tracer is not None else 1)
        if elapsed >= seconds and windows >= MIN_WINDOWS and len(passes) >= passes_needed:
            break
        if elapsed >= TIME_CAP_S:
            break
    gc.unfreeze()

    problems: List[str] = []
    for index, result in enumerate([warm_up, *passes]):
        if result.mismatches:
            shown = ", ".join(f"{kind}:{token}" for kind, token in result.mismatches[:20])
            problems.append(
                f"pass {index}: {len(result.mismatches)} disagreements with the reference: {shown}"
            )
    untraced = [p for p in passes if not p.traced]
    if tracer is None:
        latencies = [s for p in untraced for s in p.latencies_s]
        p99 = stretch_percentile(latencies, 99, MIN_WINDOWS)
        if p99 is None:
            problems.append(f"{len(latencies)} windows do not support a p99")
            p99 = float("nan")
        n_reference = workload.n_reference()
        values = {
            "setup_s": (median(setup_samples), len(setup_samples)),
            "inputs_per_s": (median(p.rate for p in untraced), len(untraced)),
            "window_p50_ms": (1e3 * median(latencies), len(latencies)),
            "window_p99_ms": (1e3 * p99, len(latencies)),
            "peak_rss_mb": (memory.peak_mb - inputs_mb, memory.samples),
            "reference_agreement": (
                min(p.reference_agreement for p in [warm_up, *passes]), n_reference
            ),
            "served_fraction": (tally.served_fraction, tally.attempted),
            **{key: (value, n_reference) for key, value in workload.quality().items()},
        }
        units = END_TO_END
    else:
        traced_passes = [p for p in passes if p.traced]
        values = dict.fromkeys(PER_LAYER, (0.0, 0))
        values.update(_medians(fit_layers))
        values.update(_medians([p.layers for p in traced_passes]))
        if "nids.flow.active_flows_max" in traced_passes[0].layers:
            maxima = [p.layers["nids.flow.active_flows_max"] for p in traced_passes]
            values["nids.flow.active_flows_max"] = (max(maxima), len(maxima))
        untraced_rate = median(p.rate for p in untraced)
        traced_rate = median(p.rate for p in traced_passes)
        values["tracing.untraced_inputs_per_s"] = (untraced_rate, len(untraced))
        values["tracing.traced_inputs_per_s"] = (traced_rate, len(traced_passes))
        values["tracing.overhead_fraction"] = (untraced_rate / traced_rate - 1.0, len(passes))
        units = PER_LAYER
    if set(values) != set(units):
        raise RuntimeError(
            f"measurements without a declared metric: {sorted(set(values) - set(units))}; "
            f"declared metrics not measured: {sorted(set(units) - set(values))}"
        )
    metrics = {key: (value, units[key], n) for key, (value, n) in values.items()}
    return RunResult(metrics, tally.attempted, tally.failed, problems, passes, tracer)
