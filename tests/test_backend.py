"""Tests for the vectorized compute backend.

Covers the three contracts this backend is built on:

1. ``encode_partial`` + in-place column update is **bitwise identical** to a
   full re-encode, for every bundled encoder and both dtypes -- this is what
   makes CyberHD's incremental regeneration re-encoding safe.
2. The float32 backend produces the same predictions as the float64 backend
   on the seed test fixtures.
3. The aggregation/similarity primitives (segment_sum, cached-norm cosine,
   quantized scoring) agree with their naive reference formulations.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.cyberhd import CyberHD
from repro.exceptions import ConfigurationError, EncodingError
from repro.hdc.backend import (
    QuantizedClassMatrix,
    resolve_dtype,
    row_norms,
    segment_sum,
    update_row_norms,
)
from repro.hdc.encoders import make_encoder
from repro.hdc.quantization import dequantize
from repro.hdc.similarity import cosine_similarity_matrix
from repro.models.hdc_classifier import BaselineHDC

ENCODERS = ("rbf", "linear", "level_id")
DTYPES = ("float32", "float64")


def _features(n=64, f=12, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, f))


class TestDtypePolicy:
    def test_resolve_dtype_aliases(self):
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype("f64") == np.float64
        assert resolve_dtype(None) == np.float32
        assert resolve_dtype(np.float64) == np.float64

    def test_resolve_dtype_rejects_non_float(self):
        with pytest.raises(ConfigurationError):
            resolve_dtype("int8")
        with pytest.raises(ConfigurationError):
            resolve_dtype(np.int32)

    @pytest.mark.parametrize("name", ENCODERS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_encoders_emit_policy_dtype(self, name, dtype):
        encoder = make_encoder(name, in_features=12, dim=32, rng=0, dtype=dtype)
        H = encoder.encode(_features())
        assert H.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("name", ENCODERS)
    def test_encoder_structure_is_dtype_independent(self, name):
        """Same seed => same random draws regardless of dtype policy."""
        X = _features()
        h32 = make_encoder(name, in_features=12, dim=32, rng=7, dtype="float32").encode(X)
        h64 = make_encoder(name, in_features=12, dim=32, rng=7, dtype="float64").encode(X)
        np.testing.assert_allclose(h32, h64, atol=1e-5)


class TestEncodePartial:
    @pytest.mark.parametrize("name", ENCODERS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_partial_matches_full_slice_bitwise(self, name, dtype):
        X = _features()
        encoder = make_encoder(name, in_features=12, dim=64, rng=1, dtype=dtype)
        dims = np.array([0, 3, 17, 40, 63])
        full = encoder.encode(X)
        part = encoder.encode_partial(X, dims)
        assert part.dtype == full.dtype
        assert np.array_equal(full[:, dims], part)

    @pytest.mark.parametrize("name", ENCODERS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_inplace_update_matches_full_reencode_bitwise(self, name, dtype):
        """The incremental regeneration contract: after `regenerate(dims)`,
        patching only the regenerated columns reproduces the full re-encode
        exactly."""
        X = _features()
        encoder = make_encoder(name, in_features=12, dim=64, rng=2, dtype=dtype)
        H = encoder.encode(X)
        dims = np.array([1, 5, 8, 30, 31, 62])
        encoder.regenerate(dims)
        H[:, dims] = encoder.encode_partial(X, dims)
        np.testing.assert_array_equal(H, encoder.encode(X))

    def test_partial_rejects_out_of_range(self):
        encoder = make_encoder("rbf", in_features=4, dim=16, rng=0)
        with pytest.raises(EncodingError):
            encoder.encode_partial(_features(f=4), [16])

    def test_partial_empty_dims(self):
        encoder = make_encoder("rbf", in_features=4, dim=16, rng=0, dtype="float32")
        out = encoder.encode_partial(_features(f=4), [])
        assert out.shape == (64, 0) and out.dtype == np.float32

    def test_rbf_partial_with_sine(self):
        X = _features(f=4)
        encoder = make_encoder(
            "rbf", in_features=4, dim=32, rng=0, use_sine=True, dtype="float32"
        )
        dims = np.arange(3, 20)
        assert np.array_equal(encoder.encode(X)[:, dims], encoder.encode_partial(X, dims))


class TestSegmentSum:
    @pytest.mark.parametrize("method", ("matmul", "bincount", "add_at", "auto"))
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_methods_agree_with_reference(self, method, dtype):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((100, 17)).astype(dtype)
        ids = rng.integers(0, 6, size=100)
        expected = np.zeros((6, 17), dtype=np.float64)
        np.add.at(expected, ids, rows.astype(np.float64))
        out = segment_sum(rows, ids, 6, method=method)
        assert out.shape == (6, 17)
        assert out.dtype == np.dtype(dtype)
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-5)

    def test_empty_segments_are_zero(self):
        out = segment_sum(np.ones((2, 3)), np.array([0, 0]), 4)
        np.testing.assert_array_equal(out[1:], 0.0)

    def test_rejects_bad_ids(self):
        with pytest.raises(ConfigurationError):
            segment_sum(np.ones((2, 3)), np.array([0, 5]), 4)
        with pytest.raises(ConfigurationError):
            segment_sum(np.ones((2, 3)), np.array([0]), 4)
        with pytest.raises(ConfigurationError):
            segment_sum(np.ones((2, 3)), np.array([0, 1]), 4, method="nope")


class TestCachedNormSimilarity:
    def test_cached_norms_match_uncached(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((40, 32))
        c = rng.standard_normal((5, 32))
        base = cosine_similarity_matrix(q, c)
        cached = cosine_similarity_matrix(
            q, c, query_norms=row_norms(q), class_norms=row_norms(c)
        )
        np.testing.assert_allclose(cached, base, rtol=1e-12)

    def test_zero_rows_still_zero_with_cached_norms(self):
        q = np.zeros((2, 8))
        c = np.ones((3, 8))
        sims = cosine_similarity_matrix(q, c, query_norms=row_norms(q))
        np.testing.assert_array_equal(sims, 0.0)

    def test_float32_inputs_keep_dtype(self):
        q = np.ones((2, 8), dtype=np.float32)
        c = np.ones((3, 8), dtype=np.float32)
        assert cosine_similarity_matrix(q, c).dtype == np.float32

    def test_out_buffer_is_used(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((4, 8))
        c = rng.standard_normal((3, 8))
        out = np.empty((4, 3))
        result = cosine_similarity_matrix(q, c, out=out)
        assert result is out
        np.testing.assert_allclose(out, cosine_similarity_matrix(q, c))

    def test_update_row_norms_refreshes_touched_rows(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 16))
        norms = row_norms(m)
        m[2] *= 3.0
        update_row_norms(norms, m, np.array([2]))
        np.testing.assert_allclose(norms, row_norms(m))


class TestQuantizedInference:
    @pytest.mark.parametrize("bits", (1, 8))
    def test_scores_match_dequantized_cosine(self, bits):
        rng = np.random.default_rng(4)
        classes = rng.standard_normal((4, 64))
        H = rng.standard_normal((20, 64))
        qcm = QuantizedClassMatrix.from_matrix(classes, bits=bits)
        recon = dequantize(qcm.quantized)
        # 1-bit scoring is fully binary: queries are sign-binarized too, so
        # the reference cosine runs on the +-1 queries (the regime the
        # XOR/popcount packed path reproduces bit for bit).
        queries = np.where(H >= 0, 1.0, -1.0) if bits == 1 else H
        np.testing.assert_allclose(
            qcm.scores(H), cosine_similarity_matrix(queries, recon), rtol=1e-6, atol=1e-9
        )

    def test_int8_codes_storage(self):
        classes = np.random.default_rng(5).standard_normal((3, 32))
        qcm = QuantizedClassMatrix.from_matrix(classes, bits=8)
        assert qcm.codes.dtype == np.int8
        assert qcm.bits == 8

    def test_quantized_inference_survives_persistence(self, small_dataset, tmp_path):
        from repro.persistence import load_model, save_model

        model = CyberHD(dim=64, epochs=3, seed=0, inference_bits=8)
        model.fit(small_dataset.X_train, small_dataset.y_train)
        loaded = load_model(save_model(model, tmp_path / "m.npz"))
        assert loaded.config.inference_bits == 8
        np.testing.assert_array_equal(
            loaded.predict(small_dataset.X_test), model.predict(small_dataset.X_test)
        )

    def test_cyberhd_quantized_inference_agrees(self, small_dataset):
        full = CyberHD(dim=128, epochs=4, regeneration_rate=0.1, seed=0)
        quant = CyberHD(
            dim=128, epochs=4, regeneration_rate=0.1, seed=0, inference_bits=8
        )
        full.fit(small_dataset.X_train, small_dataset.y_train)
        quant.fit(small_dataset.X_train, small_dataset.y_train)
        agreement = np.mean(
            full.predict(small_dataset.X_test) == quant.predict(small_dataset.X_test)
        )
        assert agreement >= 0.95


class TestDtypeEquivalence:
    """Satellite: float32 backend predictions match float64 on seed fixtures."""

    def test_cyberhd_float32_predictions_match_float64(self, small_dataset):
        kwargs = dict(dim=128, epochs=6, regeneration_rate=0.1, seed=0)
        m32 = CyberHD(dtype="float32", **kwargs).fit(
            small_dataset.X_train, small_dataset.y_train
        )
        m64 = CyberHD(dtype="float64", **kwargs).fit(
            small_dataset.X_train, small_dataset.y_train
        )
        assert m32.class_hypervectors_.dtype == np.float32
        assert m64.class_hypervectors_.dtype == np.float64
        p32 = m32.predict(small_dataset.X_test)
        p64 = m64.predict(small_dataset.X_test)
        np.testing.assert_array_equal(p32, p64)

    def test_baseline_hdc_float32_predictions_match_float64(self, small_dataset):
        kwargs = dict(dim=128, epochs=4, seed=0)
        m32 = BaselineHDC(dtype="float32", **kwargs).fit(
            small_dataset.X_train, small_dataset.y_train
        )
        m64 = BaselineHDC(dtype="float64", **kwargs).fit(
            small_dataset.X_train, small_dataset.y_train
        )
        np.testing.assert_array_equal(
            m32.predict(small_dataset.X_test), m64.predict(small_dataset.X_test)
        )

    def test_cyberhd_rejects_unknown_dtype(self):
        with pytest.raises(ConfigurationError):
            CyberHD(dim=32, dtype="float16")

    def test_cyberhd_rejects_bad_inference_bits(self):
        with pytest.raises(ConfigurationError):
            CyberHD(dim=32, inference_bits=3)


class TestBenchHarness:
    def test_records_and_json_roundtrip(self, tmp_path):
        from repro.perf import bench_primitives, write_bench_json

        records = bench_primitives(dim=64, n=64, features=8, repeats=1)
        assert records, "harness produced no records"
        for record in records:
            assert {"op", "dtype", "D", "n", "wall_time_s"} <= set(record)
            assert record["wall_time_s"] >= 0.0
        path = write_bench_json(records, tmp_path / "bench.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-bench/2"
        assert len(payload["records"]) == len(records)
        # Provenance makes bench trajectories comparable across PRs.
        provenance = payload["provenance"]
        assert {
            "git_revision",
            "python_version",
            "numpy_version",
            "dtype_policy",
            "cpu_count",
        } <= set(provenance)
        assert provenance["dtype_policy"] == "float32"
        assert provenance["cpu_count"] >= 1

    def test_legacy_fit_reference_trains(self):
        from repro.core.config import CyberHDConfig
        from repro.perf import legacy_fit_cyberhd

        rng = np.random.default_rng(0)
        X = rng.uniform(size=(120, 6))
        y = rng.integers(0, 3, size=120)
        classes = legacy_fit_cyberhd(
            X, y, CyberHDConfig(dim=32, epochs=3, seed=0, dtype="float64")
        )
        assert classes.shape == (3, 32)
        assert np.any(classes != 0.0)

    def test_cli_bench_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--dim", "64", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        ops = {r["op"] for r in payload["records"]}
        assert "fit_speedup" in ops and "encode_rbf" in ops
        assert "fit_speedup" in capsys.readouterr().out
