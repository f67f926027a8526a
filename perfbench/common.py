"""Shared pieces of the benchmark: spans, checks, statistics, host stamp.

Nothing here reaches into the program under test beyond its public
functions; spans are recorded around calls made by the benchmark itself.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import json
import math
import os
import resource
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: seconds of the benchmark's own clock
now = time.perf_counter


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
class Tracer:
    """In-memory spans: (id, name, start, end, parent, request id, attrs).

    The parent is the innermost span open on the same thread.  Spans are
    kept in memory and written out once, by :meth:`dump`, when the run
    ends.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, req: Any = None, **attrs: Any):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = now()
        try:
            yield
        finally:
            t1 = now()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, t0, t1, parent, req, attrs))

    def durations(self, name: str) -> List[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds and self seconds.

        Self time is a span's duration minus the part of its interval
        covered by its children.
        """
        children: Dict[int, List[tuple]] = {}
        for s in self.spans:
            if s[4] is not None:
                children.setdefault(s[4], []).append((s[2], s[3]))
        out: Dict[str, Dict[str, float]] = {}
        for sid, name, t0, t1, _parent, _req, _attrs in self.spans:
            covered, edge = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, edge), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    edge = c1
            row = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - covered
        return out

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            **meta,
            "summary": self.self_times(),
            "spans": [
                {"id": sid, "name": name, "start": t0, "end": t1,
                 "parent": parent, "req": req, **attrs}
                for sid, name, t0, t1, parent, req, attrs in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class NullTracer:
    """Tracing off: every span is a no-op."""

    def span(self, name: str, req: Any = None, **attrs: Any):
        return nullcontext()


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
class Ledger:
    """Counts attempted operations, misses and broken invariants.

    A miss is an error, timeout, refusal or wrong result; an invariant
    is a condition checked after drain (no leases or arenas left out).
    The run is correct only with no miss and no broken invariant.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.broken = 0
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def miss(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)

    def check_equal(self, got: Any, ref: np.ndarray, what: str) -> bool:
        """Count one result that must equal ``ref`` bit for bit."""
        if isinstance(got, np.ndarray) and np.array_equal(got, ref):
            self.ok()
            return True
        self.miss(f"{what}: result differs from the dgefmm reference")
        return False

    def invariant(self, holds: bool, reason: str) -> None:
        if not holds:
            with self._lock:
                self.reasons.append(f"invariant: {reason}")
                self.broken += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.broken == 0

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------- #
# load
# ---------------------------------------------------------------------- #
def closed_loop(submit: Callable[[int], Any], collect: Callable[[Any], Any],
                yardstick: Callable[[Any], float], window: int,
                seconds: float, slice_s: float, start: int = 0
                ) -> Dict[str, Any]:
    """Closed loop with ``window`` requests in flight, in drained slices.

    ``submit(i)`` sends request ``i`` and returns a handle;
    ``collect(handle)`` waits for it and returns the verified item, or
    None for a miss.  After each slice of ``slice_s`` seconds, with
    nothing in flight, ``yardstick(item)`` times ``np.matmul`` on each
    item the slice completed, so the yardstick shares the run's host
    conditions without competing with the load.  Its seconds (``mm_s``)
    are not part of ``elapsed``.
    """
    done: List[Any] = []
    busy = mm = 0.0
    i = start
    while True:
        t0 = now()
        deadline = t0 + min(slice_s, max(0.0, seconds - busy))
        inflight: deque = deque()
        got: List[Any] = []
        while True:
            if len(inflight) < window and (now() < deadline or i == start):
                inflight.append(submit(i))
                i += 1
            elif inflight:
                item = collect(inflight.popleft())
                if item is not None:
                    got.append(item)
            else:
                break
        busy += now() - t0
        mm += sum(yardstick(item) for item in got)
        done.extend(got)
        if busy >= seconds:
            return {"elapsed": busy, "done": done, "mm_s": mm, "next": i}


def time_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                repeats: int = 3) -> float:
    """Best of ``repeats`` warm ``np.matmul`` calls on the operands."""
    best = float("inf")
    for _ in range(repeats):
        t0 = now()
        np.matmul(a, b, out=out)
        best = min(best, now() - t0)
    return best


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def pctl(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, min(len(s) - 1, math.ceil(q / 100.0 * len(s)) - 1))]


def median(values: List[float]) -> float:
    return pctl(values, 50.0)


def p99_supported(n: int) -> bool:
    """True when at least ten of ``n`` samples lie beyond the p99."""
    return n - math.ceil(0.99 * n) >= 10


# ---------------------------------------------------------------------- #
# host stamp and memory
# ---------------------------------------------------------------------- #
def _openblas_threads() -> Optional[int]:
    """BLAS thread count as the OpenBLAS bundled with numpy reports it."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_block() -> Dict[str, Any]:
    """CPU count and affinity, BLAS name/version/threads, numpy, python."""
    from repro.tune.store import host_fingerprint

    info = host_fingerprint()
    info["affinity"] = sorted(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (TypeError, KeyError):
        info["blas"] = info["blas_version"] = None
    info["blas_threads"] = _openblas_threads()
    info["blas_threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def own_peak_rss_mib() -> float:
    """Peak resident memory of this process (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mib(pid: int) -> float:
    """Peak resident memory (VmHWM) of another live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
