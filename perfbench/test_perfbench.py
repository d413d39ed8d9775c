"""Tests of the benchmark's own arithmetic: spans, percentiles, digests,
failure accounting and the float64 oracle."""

import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench.measure import (
    Tally,
    digest,
    float64_cosines,
    oracle_disagreements,
    stretch_percentile,
    supported_percentile,
)
from perfbench.spans import Tracer, self_times, self_totals


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.begin("window")
    clock.advance(1.0)
    child = tracer.begin("assemble")
    clock.advance(2.0)
    grandchild = tracer.begin("encode")
    clock.advance(0.5)
    tracer.end(grandchild)
    tracer.end(child)
    clock.advance(0.25)
    second = tracer.begin("alert")
    clock.advance(0.75)
    tracer.end(second)
    tracer.end(root)

    assert self_times(tracer.spans) == pytest.approx([1.25, 2.0, 0.5, 0.75])
    assert sum(self_times(tracer.spans)) == pytest.approx(4.5)
    assert [span.parent for span in tracer.spans] == [-1, 0, 1, 0]

    # A later slice of the same tracer keeps its parent links.
    first = len(tracer.spans)
    again = tracer.begin("window")
    clock.advance(3.0)
    inner = tracer.begin("assemble")
    clock.advance(1.0)
    tracer.end(inner)
    tracer.end(again)
    assert self_totals(tracer.spans[first:], first) == pytest.approx(
        {"window": 3.0, "assemble": 1.0}
    )


def test_spans_must_close_in_order():
    tracer = Tracer(FakeClock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_patch_wraps_and_restore_undoes():
    class Stage:
        def run(self, value):
            return value + 1

    stage = Stage()
    seen = []
    tracer = Tracer(FakeClock())
    tracer.patch(stage, "run", "stage", observe=seen.append)
    assert stage.run(1) == 2
    assert seen == [2]
    assert [span.name for span in tracer.spans] == ["stage"]
    tracer.restore()
    assert "run" not in vars(stage)
    stage.run(5)
    assert len(tracer.spans) == 1


def test_tail_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1000))
    p99 = supported_percentile(samples, 99)
    assert p99 == pytest.approx(989.01)
    assert sum(1 for s in samples if s > p99) == 10
    assert supported_percentile(list(range(900)), 99) is None
    assert supported_percentile(list(range(100)), 99) is None
    assert supported_percentile(list(range(100)), 50) == pytest.approx(49.5)
    # Ties at the top leave nothing strictly beyond the percentile.
    assert supported_percentile([1.0] * 2000, 99) is None
    assert supported_percentile([], 50) is None


def test_stretch_percentile_is_the_median_over_stretches():
    steady = [float(i % 1000) for i in range(3500)]
    assert stretch_percentile(steady, 99, 1000) == pytest.approx(989.01)
    # A burst inside one stretch moves that stretch's p99 only.
    burst = steady[:1000] + [1e6 + i for i in range(100)] + steady[1100:]
    assert stretch_percentile(burst, 99, 1000) == pytest.approx(989.01)
    assert supported_percentile(burst, 99) > 1e5
    # The last stretch takes the remainder; too few samples give None.
    assert stretch_percentile(steady[:1999], 99, 1000) == supported_percentile(steady[:1999], 99)
    assert stretch_percentile(steady[:999], 99, 1000) is None
    # A stretch without ten samples beyond its p99 gives None.
    assert stretch_percentile([1.0] * 1000 + steady[:1000], 99, 1000) is None


def test_tally_counts_shortfall_as_failed():
    tally = Tally()
    tally.record(512, 512)
    tally.record(512, 500)
    assert (tally.attempted, tally.failed) == (1024, 12)
    assert tally.failed_fraction == pytest.approx(12 / 1024)
    assert tally.served_fraction == pytest.approx(1 - 12 / 1024)
    with pytest.raises(ValueError):
        tally.record(10, 11)
    assert Tally().failed_fraction == 1.0


def test_digest_separates_parts_and_dtypes():
    a = np.arange(6, dtype=np.int64)
    assert digest([a, "x"]) == digest([a.copy(), "x"])
    assert digest([a]) != digest([a.astype(np.int32)])
    assert digest([a]) != digest([a.reshape(2, 3)])
    assert digest(["ab", "c"]) != digest(["a", "bc"])
    assert digest([[0.1, 0.2]]) != digest([[0.1, 0.2000000001]])


def test_input_digests_are_stable_per_seed_and_change_across_seeds():
    from perfbench import workloads
    from repro.cluster import compile_scenario_trace, get_scenario

    def stream(seed):
        scenario = get_scenario("mixed_benign")
        training = scenario.training_packets(n_flows=20, seed=seed * 1009 + 1)
        trace = compile_scenario_trace(scenario, flows_scale=0.05, seed=seed)
        return workloads.stream_digest(workloads.training_hash(training), trace)

    assert stream(3) == stream(3)
    assert stream(3) != stream(4)
    tabular = workloads.tabular_digest
    assert tabular(workloads.tabular_split(3)) == tabular(workloads.tabular_split(3))
    assert tabular(workloads.tabular_split(3)) != tabular(workloads.tabular_split(4))


def test_oracle_on_hand_built_two_class_model():
    rng = np.random.default_rng(0)
    bases = rng.normal(size=(256, 2))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=256)

    def encode(X):
        return np.cos(X @ bases.T + phases)

    prototypes = np.array([[0.0, 0.0], [3.0, -3.0]])
    classes = np.array([3, 7])
    model = SimpleNamespace(
        encoder_=SimpleNamespace(bases=bases, phases=phases),
        class_hypervectors_=encode(prototypes).astype(np.float32),
        classes_=classes,
    )
    X = np.vstack([prototypes[0] + 0.05 * rng.normal(size=(20, 2)),
                   prototypes[1] + 0.05 * rng.normal(size=(20, 2))])
    truth = np.array([3] * 20 + [7] * 20)
    cosines = float64_cosines(model, X)
    assert list(classes[np.argmax(cosines, axis=1)]) == list(truth)
    assert oracle_disagreements(classes, cosines, truth, 1e-5).size == 0
    flipped = truth.copy()
    flipped[[0, 25]] = [7, 3]
    assert list(oracle_disagreements(classes, cosines, flipped, 1e-5)) == [0, 25]
    # A float32-sized tie may break either way.
    tie = np.array([[0.5, 0.5 - 1e-7]])
    assert oracle_disagreements(classes, tie, np.array([7]), 1e-5).size == 0
    assert oracle_disagreements(classes, tie, np.array([7]), 1e-8).size == 1
    with pytest.raises(ValueError):
        oracle_disagreements(classes, tie, np.array([5]), 1e-5)


def test_oracle_agrees_with_a_trained_cyberhd():
    from repro import CyberHD, load_dataset

    ds = load_dataset("nsl_kdd", n_train=400, n_test=300, seed=0)
    model = CyberHD(dim=128, epochs=3, seed=0).fit(ds.X_train, ds.y_train)
    cosines = float64_cosines(model, ds.X_test)
    assert oracle_disagreements(model.classes_, cosines, model.predict(ds.X_test), 1e-5).size == 0
    np.testing.assert_allclose(
        cosines, model.predict_scores(ds.X_test), rtol=1e-4, atol=1e-5
    )


def test_stop_child_processes_leaves_no_process_behind():
    # In a fresh interpreter: the resource tracker shared memory starts and
    # a forked child must both be gone, and reaped, afterwards.
    script = textwrap.dedent("""
        import multiprocessing, time
        from multiprocessing import shared_memory
        from perfbench.measure import child_pids, stop_child_processes

        block = shared_memory.SharedMemory(create=True, size=16)
        block.close()
        block.unlink()
        child = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(60,), daemon=True
        )
        child.start()
        assert len(child_pids()) == 2, child_pids()
        stop_child_processes()
        assert child_pids() == [], child_pids()
    """)
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
