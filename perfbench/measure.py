"""Measurement helpers: percentiles with their support, failure accounting,
input digests, tree memory, provenance and the float64 reference oracle."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import platform
import signal
import statistics
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

#: A tail percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10

#: Seconds between two samples of :class:`PeakTreePss`.
PSS_INTERVAL_S = 0.02


def supported_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or None when fewer than :data:`MIN_BEYOND` samples exceed it."""
    if not samples:
        return None
    values = np.asarray(samples, dtype=np.float64)
    value = float(np.percentile(values, q))
    if int(np.count_nonzero(values > value)) < MIN_BEYOND:
        return None
    return value


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def stretch_percentile(samples: Sequence[float], q: float, stretch: int) -> Optional[float]:
    """Median of the supported ``q``-th percentiles of consecutive stretches.

    ``samples`` are cut, in order, into stretches of ``stretch`` samples; the
    last stretch also takes the remainder.  A burst of host slowness then
    moves the percentile of one stretch rather than the reported value.
    None when there are fewer than ``stretch`` samples or a stretch does not
    support the percentile (see :func:`supported_percentile`).
    """
    count = len(samples) // stretch
    if count == 0:
        return None
    bounds = [index * stretch for index in range(count)] + [len(samples)]
    values = [supported_percentile(samples[a:b], q) for a, b in zip(bounds, bounds[1:])]
    if any(value is None for value in values):
        return None
    return median(values)


@dataclass
class Tally:
    """Inputs offered against inputs served; the shortfall counts as failed."""

    attempted: int = 0
    failed: int = 0

    def record(self, offered: int, served: int) -> None:
        if served > offered:
            raise ValueError(f"served {served} inputs of {offered} offered")
        self.attempted += offered
        self.failed += offered - served

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def served_fraction(self) -> float:
        return 1.0 - self.failed_fraction


def feed(hasher: Any, parts: Iterable[Any]) -> None:
    """Add a sequence of arrays, strings or row tuples to a SHA-256 hasher.

    Each part is length-prefixed so that moving a boundary between parts
    changes the digest.  Arrays hash their dtype, shape and bytes; other
    parts hash their ``repr`` (exact for floats).
    """
    for part in parts:
        if isinstance(part, np.ndarray):
            data = (
                f"{part.dtype.str}{part.shape}".encode()
                + np.ascontiguousarray(part).tobytes()
            )
        else:
            data = repr(part).encode()
        hasher.update(len(data).to_bytes(8, "little"))
        hasher.update(data)


def digest(parts: Iterable[Any]) -> str:
    """SHA-256 over a sequence of parts (see :func:`feed`)."""
    hasher = hashlib.sha256()
    feed(hasher, parts)
    return hasher.hexdigest()


def pss_mb(pid: Any = "self") -> float:
    """Proportional set size of one process in MB (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    raise RuntimeError(f"no Pss line in /proc/{pid}/smaps_rollup")


def child_pids() -> List[int]:
    pids: List[int] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except FileNotFoundError:
            continue
    return pids


def tree_pss_mb() -> float:
    """PSS of this process plus its children: every page is counted once."""
    return pss_mb() + sum(pss_mb(pid) for pid in child_pids())


try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):
    _malloc_trim = None


def settle() -> None:
    """Free garbage and hand the free heap back to the system.

    Freed heap otherwise stays resident: a difference of two
    :func:`tree_pss_mb` readings would count the garbage made between them
    as live memory, and later allocations would reuse those pages unseen.
    """
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


class PeakTreePss:
    """Samples :func:`tree_pss_mb` on a background thread; keeps the peak."""

    def __init__(self):
        self.peak_mb = 0.0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-pss", daemon=True)

    def _sample(self) -> None:
        self.peak_mb = max(self.peak_mb, tree_pss_mb())
        self.samples += 1

    def _run(self) -> None:
        while not self._stop.wait(PSS_INTERVAL_S):
            self._sample()

    def __enter__(self) -> "PeakTreePss":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def stop_child_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    Shared memory starts ``multiprocessing``'s resource tracker, which
    CPython leaves to outlive the interpreter; closing its pipe ends it once
    no forked child holds the pipe open, so any other child still alive is
    killed first.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for pid in child_pids():
        if pid == tracker._pid:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    tracker._stop()


def git_revision(root: Path) -> Optional[str]:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 of the program's Python sources, for checkouts without git."""
    files = sorted((root / "src").rglob("*.py"))
    return digest((str(path.relative_to(root)), path.read_bytes()) for path in files)


def provenance(root: Path, seed: int) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(root),
        "source_digest": source_digest(root),
        "seed": seed,
    }


def float64_cosines(model: Any, X: np.ndarray) -> np.ndarray:
    """Cosines a CyberHD model's scores should equal, recomputed in float64.

    Encodes with the model's public RBF tensors, ``cos(X @ bases.T +
    phases)``, and takes the cosine against ``class_hypervectors_``; row
    ``i``, column ``j`` scores sample ``i`` against ``classes_[j]``.
    """
    bases = np.asarray(model.encoder_.bases, dtype=np.float64)
    phases = np.asarray(model.encoder_.phases, dtype=np.float64)
    classes = np.asarray(model.class_hypervectors_, dtype=np.float64)
    H = np.cos(np.asarray(X, dtype=np.float64) @ bases.T + phases)
    norms = np.linalg.norm(H, axis=1)[:, None] * np.linalg.norm(classes, axis=1)[None, :]
    return (H @ classes.T) / np.where(norms == 0.0, 1.0, norms)


def oracle_disagreements(
    classes: np.ndarray, cosines: np.ndarray, predicted: np.ndarray, atol: float
) -> np.ndarray:
    """Rows whose predicted class scores more than ``atol`` below the best.

    A prediction that differs from the float64 argmax only on a tie within
    ``atol`` -- the model computes in float32 -- is not a disagreement.
    """
    chosen = np.searchsorted(classes, predicted)
    if not np.array_equal(classes[np.clip(chosen, 0, classes.size - 1)], predicted):
        raise ValueError("predictions outside the model's classes")
    rows = np.arange(cosines.shape[0])
    return np.flatnonzero(cosines.max(axis=1) - cosines[rows, chosen] > atol)
