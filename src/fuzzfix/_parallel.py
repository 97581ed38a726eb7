"""Deterministic chunked scans over flat sample ranges.

Scans are split into chunks of a fixed step (``CHUNK`` unless the caller's
sample layout sets one, never the worker count) and may be evaluated by a
thread pool.  Results are folded in chunk order with order-independent
reductions (exact float minimum, first index in global sample order), so
every report is byte-identical for any number of workers.

The process keeps one pool per worker count, made on first use and reused
by every later scan.  A scan called from inside a chunk runs its chunks in
that worker thread, so no chunk submits to the pool and waits on it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericalError

CHUNK = 65536

MarginFn = Callable[[int, int], np.ndarray]

_WORKER = "fuzzfix-scan"
_POOLS: dict = {}  # worker count -> ThreadPoolExecutor
_POOLS_LOCK = threading.Lock()


@dataclass(frozen=True)
class ScanResult:
    """Fold of one margin scan.

    ``worst_margin`` is the exact minimum margin, ``worst_index`` the first
    global sample index attaining it, ``first_bad`` the first index whose
    margin falls below the tolerance (None when the scan passes) and
    ``bad_margin`` the margin there, so a witness needs no second evaluation.
    """

    n: int
    worst_margin: float
    worst_index: int
    first_bad: int | None
    bad_margin: float | None = None

    @property
    def passed(self) -> bool:
        return self.first_bad is None


def fold_margins(margins, tolerance: float, offset: int = 0) -> ScanResult:
    """Fold one block of margins whose first sample has global index
    ``offset``; a sample is bad iff its margin is below the tolerance.  A NaN
    margin raises, since it compares false both ways and would pass; +inf
    is a legal margin (a sample the check exempts)."""
    m = np.asarray(margins, dtype=float).ravel()
    i = int(np.argmin(m))  # the first NaN, if there is one
    if math.isnan(m[i]):
        raise NumericalError(f"margin is NaN at sample {offset + i}")
    below = m < tolerance
    if not below.any():
        return ScanResult(m.size, float(m[i]), offset + i, None)
    b = int(np.argmax(below))
    return ScanResult(m.size, float(m[i]), offset + i, offset + b, float(m[b]))


def _fold(a: ScanResult, b: ScanResult) -> ScanResult:
    # a precedes b in global sample order; ties keep the earlier index
    if b.n == 0:
        return a
    if a.n == 0:
        return b
    if b.worst_margin < a.worst_margin:
        worst, worst_index = b.worst_margin, b.worst_index
    else:
        worst, worst_index = a.worst_margin, a.worst_index
    first = a if a.first_bad is not None else b
    return ScanResult(a.n + b.n, worst, worst_index, first.first_bad, first.bad_margin)


def _spans(n: int, offset: int, step: int) -> list[tuple[int, int]]:
    return [(offset + s, offset + min(s + step, n)) for s in range(0, n, step)]


def _map(fn: Callable, items: list, jobs: int) -> list:
    """``[fn(i) for i in items]``, on the process's pool of ``jobs`` threads
    when that can help.  Every scan and Bellman sweep comes through here, so
    this is where a worker count below 1 is refused."""
    if jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(items) <= 1 or threading.current_thread().name.startswith(_WORKER):
        return [fn(i) for i in items]
    with _POOLS_LOCK:
        if jobs not in _POOLS:
            from concurrent.futures import ThreadPoolExecutor  # only --jobs > 1 pays its import
            _POOLS[jobs] = ThreadPoolExecutor(jobs, thread_name_prefix=_WORKER)
        pool = _POOLS[jobs]
    return list(pool.map(fn, items))


def scan_segments(
    segments: Sequence[tuple[int, MarginFn]],
    tolerance: float,
    jobs: int = 1,
    step: int = CHUNK,
) -> ScanResult:
    """Scan concatenated margin segments; a sample is bad iff margin < tolerance.

    Each segment is ``(n, margins_fn)`` where ``margins_fn(start, stop)``
    returns the margins for *segment-local* indices [start, stop).  Global
    indices run over segments in order.  Each segment is split into chunks
    of ``step`` samples, the last one ragged.
    """
    spans: list[tuple[int, int, MarginFn, int]] = []
    offset = 0
    for n, fn in segments:
        for lo, hi in _spans(n, offset, step):
            spans.append((lo, hi, fn, offset))
        offset += n

    def one(span: tuple[int, int, MarginFn, int]) -> ScanResult:
        lo, hi, fn, base = span
        return fold_margins(fn(lo - base, hi - base), tolerance, lo)

    out = ScanResult(0, math.inf, -1, None)
    for p in _map(one, spans, jobs):
        out = _fold(out, p)
    return out


def map_concat(n: int, fn: MarginFn, jobs: int = 1, step: int = CHUNK) -> np.ndarray:
    """Evaluate ``fn`` over chunks of ``step`` samples of range(n),
    concatenated in order.

    The result array is identical for any ``jobs``, so summaries computed
    from it (means, quantiles) are partition-independent by construction.
    """
    parts = _map(lambda s: np.asarray(fn(*s), dtype=float), _spans(n, 0, step), jobs)
    return np.concatenate(parts) if parts else np.empty(0)
