"""Vectorized compute backend for the HDC hot paths.

This module centralizes the numeric policy and the low-level aggregation
primitives that the encoders, the trainer and the models share, so the whole
training/inference pipeline runs as the "highly parallel matrix operations"
the paper's efficiency argument is built on:

``resolve_dtype`` / ``DEFAULT_DTYPE``
    The dtype policy: float32 by default (half the memory traffic and
    roughly 2x the BLAS throughput on commodity CPUs), float64 opt-in for
    bit-for-bit compatibility with the original float64 implementation.

``segment_sum``
    Scatter-add of sample rows into per-class accumulators.  Replaces
    ``np.add.at`` (a slow element-wise ufunc loop) with either a one-hot
    matrix product (BLAS GEMM, the default) or a flattened ``np.bincount``
    aggregation.

``row_norms`` / ``update_row_norms``
    Norm bookkeeping for the cached-norm cosine-similarity fast path: class
    hypervector norms are computed once per *update* instead of once per
    mini-batch (see :func:`repro.hdc.similarity.cosine_similarity_matrix`).

``merge_class_deltas``
    The cluster aggregation rule: additive merge of per-replica class-matrix
    deltas with row-granular cached-norm invalidation (the property that
    makes HDC online learning shard across worker processes exactly; see
    :mod:`repro.cluster`).

``QuantizedClassMatrix``
    An int8-quantized (any supported bitwidth, really) inference path that
    reuses :mod:`repro.hdc.quantization` and pre-computes the row norms of
    the quantized class matrix so scoring needs one integer-weight GEMM and
    one elementwise rescale.  At ``bits == 1`` queries are sign-binarized
    too -- fully binary inference, the regime the bit-packed XOR/popcount
    fabric (:mod:`repro.hdc.bitpack`) reproduces bit for bit.

Performance characteristics, the incremental re-encode contract and the
before/after benchmark table live in ``PERFORMANCE.md`` at the repository
root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hdc.quantization import QuantizedArray, quantize

DTypeSpec = Union[str, type, np.dtype]

#: dtype used by the compute backend unless the caller opts out.
DEFAULT_DTYPE: str = "float32"

_DTYPE_ALIASES = {
    "float32": np.float32,
    "f32": np.float32,
    "single": np.float32,
    "float64": np.float64,
    "f64": np.float64,
    "double": np.float64,
}

_SCATTER_METHODS = ("auto", "matmul", "bincount", "add_at")


def resolve_dtype(spec: Optional[DTypeSpec]) -> np.dtype:
    """Resolve a dtype policy spec to a concrete NumPy floating dtype.

    Accepts ``"float32"``/``"float64"`` (and common aliases), NumPy dtypes,
    or ``None`` (which resolves to :data:`DEFAULT_DTYPE`).  Anything that is
    not a 32- or 64-bit float is rejected: the HDC pipeline is built on real
    arithmetic, and silently running it at float16 precision (or on integer
    arrays) produces models that are wrong in ways that are hard to trace.
    """
    if spec is None:
        spec = DEFAULT_DTYPE
    if isinstance(spec, str):
        try:
            return np.dtype(_DTYPE_ALIASES[spec.lower()])
        except KeyError as exc:
            raise ConfigurationError(
                f"unsupported dtype {spec!r}; supported: float32, float64"
            ) from exc
    dtype = np.dtype(spec)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ConfigurationError(
            f"unsupported dtype {dtype}; supported: float32, float64"
        )
    return dtype


# --------------------------------------------------------------- aggregation
def segment_sum(
    rows: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    method: str = "auto",
) -> np.ndarray:
    """Sum ``rows`` into ``num_segments`` buckets selected by ``segment_ids``.

    Parameters
    ----------
    rows:
        ``(n, D)`` contribution rows (a 1-D array is treated as one column).
    segment_ids:
        ``(n,)`` integer bucket index per row, in ``0..num_segments-1``.
    num_segments:
        Number of output buckets ``k`` (the class count, for the trainer).
    method:
        ``"matmul"`` builds a ``(k, n)`` one-hot matrix and uses one GEMM --
        the fastest option whenever ``k`` is small, which for NIDS class
        counts it always is.  ``"bincount"`` flattens to a single
        ``np.bincount`` call (no ``(k, n)`` temporary, but bincount works in
        float64).  ``"add_at"`` is the original ``np.add.at`` scatter, kept
        for benchmarking and as a reference implementation.  ``"auto"``
        picks ``"matmul"``.

    Returns
    -------
    ndarray
        ``(k, D)`` bucket sums with the dtype of ``rows``.
    """
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    ids = np.asarray(segment_ids, dtype=np.int64).ravel()
    if ids.shape[0] != rows.shape[0]:
        raise ConfigurationError(
            f"segment_ids has {ids.shape[0]} entries but rows has {rows.shape[0]}"
        )
    k = int(num_segments)
    if k <= 0:
        raise ConfigurationError("num_segments must be positive")
    if ids.size and (ids.min() < 0 or ids.max() >= k):
        raise ConfigurationError(
            f"segment_ids must be in [0, {k}), got [{ids.min()}, {ids.max()}]"
        )
    if method not in _SCATTER_METHODS:
        raise ConfigurationError(
            f"unknown scatter method {method!r}; supported: {_SCATTER_METHODS}"
        )
    if method == "auto":
        method = "matmul"

    if method == "matmul":
        onehot = np.zeros((k, ids.size), dtype=rows.dtype)
        onehot[ids, np.arange(ids.size)] = 1
        return onehot @ rows
    if method == "bincount":
        d = rows.shape[1]
        flat_ids = (ids[:, None] * d + np.arange(d)[None, :]).ravel()
        out = np.bincount(flat_ids, weights=rows.ravel(), minlength=k * d)
        return out.reshape(k, d).astype(rows.dtype, copy=False)
    out = np.zeros((k, rows.shape[1]), dtype=rows.dtype)
    np.add.at(out, ids, rows)
    return out


# -------------------------------------------------------------------- norms
def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row, in the matrix's own dtype."""
    matrix = np.atleast_2d(np.asarray(matrix))
    return np.linalg.norm(matrix, axis=1)


def update_row_norms(
    norms: np.ndarray, matrix: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Refresh the cached norms of the given ``rows`` of ``matrix`` in place.

    This is the invalidation half of the cached-norm similarity fast path:
    after a trainer mini-batch updates a handful of class hypervectors, only
    the norms of the touched rows are recomputed.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    if rows.size:
        norms[rows] = np.linalg.norm(matrix[rows], axis=1)
    return norms


def merge_class_deltas(
    class_hypervectors: np.ndarray,
    deltas: Sequence[np.ndarray],
    class_norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fold per-replica class-matrix deltas into a base matrix in place.

    This is the cluster aggregation rule: HDC class hypervectors are sums of
    (weighted) sample hypervectors, so the updates accumulated by independent
    replicas -- each ``delta = replica_matrix - base_matrix`` -- merge
    *exactly* by addition, something few model families allow.  The merged
    matrix equals applying every replica's ``partial_fit`` stream to the
    base, where each replica's updates were computed against the base state
    (round-synchronous semantics; see ``docs/cluster.md``).

    Parameters
    ----------
    class_hypervectors:
        ``(k, D)`` base class matrix, updated in place.
    deltas:
        Iterable of ``(k, D)`` delta matrices (one per replica).  Deltas of
        mismatched shape are rejected.
    class_norms:
        Optional cached ``(k,)`` norm vector; only the rows any delta
        actually touched are recomputed (the same invalidation contract as
        :func:`update_row_norms`).

    Returns
    -------
    ndarray
        The merged ``class_hypervectors`` (same array object).
    """
    touched = np.zeros(class_hypervectors.shape[0], dtype=bool)
    for delta in deltas:
        delta = np.asarray(delta)
        if delta.shape != class_hypervectors.shape:
            raise ConfigurationError(
                f"delta shape {delta.shape} does not match class matrix shape "
                f"{class_hypervectors.shape}"
            )
        rows = np.any(delta != 0, axis=1)
        if not np.any(rows):
            continue
        class_hypervectors[rows] += delta[rows].astype(
            class_hypervectors.dtype, copy=False
        )
        touched |= rows
    if class_norms is not None:
        update_row_norms(class_norms, class_hypervectors, np.flatnonzero(touched))
    return class_hypervectors


# -------------------------------------------------------- quantized inference
def normalize_similarity_grams(
    grams: np.ndarray,
    scale: float,
    query_norms: np.ndarray,
    class_norms: np.ndarray,
) -> np.ndarray:
    """Rescale an integer-code Gram matrix into cosine similarities, in place.

    Shared by the quantized GEMM path (:class:`QuantizedClassMatrix`) and the
    bit-packed popcount path (:class:`repro.hdc.bitpack.PackedClassMatrix`):
    both produce the same raw Grams, and running the *identical* sequence of
    float operations here is what makes their scores bit-for-bit equal.
    """
    grams *= scale
    eps = np.finfo(np.float64).tiny
    grams /= np.where(query_norms < 1e-12, 1.0, query_norms)[:, None]
    grams /= np.maximum(np.where(class_norms < 1e-12, 1.0, class_norms), eps)[None, :]
    return grams


@dataclass
class QuantizedClassMatrix:
    """Low-bitwidth class matrix with pre-computed norms for fast scoring.

    Wraps :func:`repro.hdc.quantization.quantize` output: the integer codes
    are kept in the smallest integer dtype that fits (int8 for the default
    8-bit policy), and the row norms of the *dequantized* matrix are cached
    so cosine scoring is one GEMM plus an elementwise rescale -- no float
    reconstruction of the ``(k, D)`` matrix per call.
    """

    quantized: QuantizedArray
    codes: np.ndarray
    norms: np.ndarray
    _float_codes_t: Dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def from_matrix(cls, class_hypervectors: np.ndarray, bits: int = 8) -> "QuantizedClassMatrix":
        """Quantize a ``(k, D)`` class matrix for inference.

        Rows are normalized before quantization: cosine scoring is invariant
        to per-row scale, and a shared per-tensor scale would otherwise let
        the large-magnitude majority-class rows starve the rare attack
        classes of quantization resolution.
        """
        m = np.asarray(class_hypervectors, dtype=np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        m = m / np.where(norms < 1e-12, 1.0, norms)
        q = quantize(m, bits)
        if bits == 1:
            # 1-bit codes are stored {0, 1}; decode to bipolar for the GEMM.
            codes = np.where(q.codes > 0, 1, -1).astype(np.int8)
        elif bits <= 8:
            codes = q.codes.astype(np.int8)
        elif bits <= 16:
            codes = q.codes.astype(np.int16)
        else:
            codes = q.codes.astype(np.int32)
        norms = np.linalg.norm(codes.astype(np.float64) * q.scale, axis=1)
        return cls(quantized=q, codes=codes, norms=norms)

    @property
    def bits(self) -> int:
        """Element bitwidth of the stored codes."""
        return self.quantized.bits

    def scores(self, queries: np.ndarray, query_norms: Optional[np.ndarray] = None) -> np.ndarray:
        """Cosine similarity of ``(n, D)`` queries against the quantized classes.

        At ``bits == 1`` the queries are sign-binarized first (elements
        ``>= 0`` map to ``+1``), making the score a *fully binary* inner
        product -- the regime a 1-bit accelerator runs, and the contract
        the XOR/popcount path (:class:`repro.hdc.bitpack.PackedClassMatrix`)
        reproduces bit for bit.  ``query_norms`` is ignored for 1-bit
        scoring: binarized queries all have norm ``sqrt(D)``.
        """
        q = np.atleast_2d(np.asarray(queries))
        if q.shape[1] != self.codes.shape[1]:
            raise ConfigurationError(
                f"query dimensionality {q.shape[1]} != class dimensionality "
                f"{self.codes.shape[1]}"
            )
        dtype = np.dtype(q.dtype if q.dtype in (np.float32, np.float64) else np.float64)
        if self.bits == 1:
            one = dtype.type(1.0)
            q = np.where(q >= 0, one, -one).astype(dtype, copy=False)
            query_norms = None
        key = np.dtype(dtype).name
        if key not in self._float_codes_t:
            # One-time float view per query dtype; the codes are immutable
            # after construction, so predict calls reuse it.
            self._float_codes_t[key] = self.codes.T.astype(dtype)
        grams = q @ self._float_codes_t[key]
        qn = row_norms(q) if query_norms is None else np.asarray(query_norms)
        return normalize_similarity_grams(grams, self.quantized.scale, qn, self.norms)


__all__ = [
    "DEFAULT_DTYPE",
    "resolve_dtype",
    "segment_sum",
    "row_norms",
    "update_row_norms",
    "merge_class_deltas",
    "normalize_similarity_grams",
    "QuantizedClassMatrix",
]
