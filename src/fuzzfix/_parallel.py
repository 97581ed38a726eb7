"""Deterministic chunked scans over coordinate segments.

A segment is a check's sample coordinates, arrays that broadcast to one
sample shape with axis 0 the row axis, and the one margin formula over them.
It is scanned in blocks of whole rows: a block slices the coordinates that
span axis 0 and broadcasts the rest, so a coordinate of length 1 on axis 0
(a constant map's one point) is never sliced.  The block step is the largest
multiple of one row within ``CHUNK``, at least one row, whatever the worker
count.  Blocks may be evaluated by a thread pool.  A block has the segment's
shape and its samples are indexed in C order, whatever its memory layout (a
contraction block is an (x, y, t) view of t-major memory); the fold reads it
in memory order, axis 0 outermost, and looks up the C-order index inside the
one row it needs.  Results are folded in block order with order-independent
reductions (exact float minimum, first index in global sample order, over
several segments in order), so every report is byte-identical for any number
of workers, and the first bad index maps back to its coordinates for the
witness.

The process keeps one pool per worker count, made on first use and reused
by every later scan.  A scan called from inside a chunk runs its chunks in
that worker thread, so no chunk submits to the pool and waits on it.
"""

from __future__ import annotations

import functools
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
    ``offset``; indices count the block's samples in C order.  A sample is
    bad iff its margin is below the tolerance.  A NaN margin raises, since it
    compares false both ways and would pass; +inf is a legal margin (a
    sample the check exempts).

    The block may be laid out in memory in any order (a contraction block
    is an (x, y, t) view of t-major memory).  One argmin, or one threshold,
    runs over the block in its memory order with axis 0 outermost, which
    finds the first row holding the minimum, a NaN or a bad sample; the
    C-order index is then looked up inside that one row."""
    m = np.asarray(margins, dtype=float)
    if m.ndim < 2 or m.flags.c_contiguous:  # memory order is C order
        flat, row = m.reshape(-1), None
    else:  # a view when axis 0 is outermost in memory, else a copy in that order
        inner = sorted(range(1, m.ndim), key=lambda axis: -abs(m.strides[axis]))
        flat, row = m.transpose(0, *inner).reshape(-1), m[0].size

    def c_order(i: int, first: Callable) -> tuple[int, float]:
        """The C-order index and value of what ``first`` finds in the row
        that holds flat sample i (sample i itself when flat is C order)."""
        if row is None:
            return i, float(flat[i])
        values = m[i // row].ravel()
        j = int(first(values))
        return i - i % row + j, float(values[j])

    i, worst = c_order(int(np.argmin(flat)), np.argmin)  # the first NaN, if any
    if math.isnan(worst):
        raise NumericalError(f"margin is NaN at sample {offset + i}")
    if worst >= tolerance:  # a passing block forms no mask
        return ScanResult(m.size, worst, offset + i, None)
    b, bad = c_order(int(np.argmax(flat < tolerance)), lambda v: np.argmax(v < tolerance))
    return ScanResult(m.size, worst, offset + i, offset + b, bad)


def _fold(a: ScanResult, b: ScanResult) -> ScanResult:
    # a precedes b in global sample order; ties keep the earlier index
    worst = b if b.worst_margin < a.worst_margin else a
    first = a if a.first_bad is not None else b
    return ScanResult(a.n + b.n, worst.worst_margin, worst.worst_index, first.first_bad,
                      first.bad_margin)


def _spans(n: int, step: int) -> list[tuple[int, int]]:
    return [(s, min(s + step, n)) for s in range(0, n, step)]


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
    spans: list[tuple[MarginFn, int, int, int]] = []
    offset = 0
    for n, fn in segments:
        spans += [(fn, offset, lo, hi) for lo, hi in _spans(n, step)]
        offset += n

    def one(span: tuple[MarginFn, int, int, int]) -> ScanResult:
        fn, base, lo, hi = span
        return fold_margins(fn(lo, hi), tolerance, base + lo)

    parts = _map(one, spans, jobs)
    return functools.reduce(_fold, parts) if parts else ScanResult(0, math.inf, -1, None)


def map_concat(n: int, fn: MarginFn, jobs: int = 1, step: int = CHUNK) -> np.ndarray:
    """Evaluate ``fn`` over chunks of ``step`` samples of range(n) into one
    float array of length n, each chunk written to its own slice.

    ``fn(lo, hi)`` must return hi - lo values, in C order: a flat array, or
    an N-d block of any memory layout, which is written through a view of
    its slice in the block's shape.  A scalar or another count raises
    ValueError.  The slices are disjoint, so chunks may be written from
    any thread, and the result array is identical for any ``jobs``:
    summaries computed from it (means, quantiles) are partition-independent
    by construction.
    """
    out = np.empty(n)

    def put(span: tuple[int, int]) -> None:
        lo, hi = span
        block = fn(lo, hi)
        if np.shape(block) == (hi - lo,):
            out[lo:hi] = block
        elif np.ndim(block) > 1 and np.size(block) == hi - lo:
            out[lo:hi].reshape(np.shape(block))[...] = block
        else:
            raise ValueError(f"margin function returned shape {np.shape(block)} "
                             f"for samples [{lo}, {hi})")

    _map(put, _spans(n, step), jobs)
    return out


class Segment:
    """Sample coordinates, in C order, and the margin formula over them."""

    def __init__(self, coords: tuple[np.ndarray, ...], margin: Callable[..., np.ndarray]):
        self.coords, self.margin = coords, margin
        self.shape = np.broadcast(*coords).shape
        self.row, self.n = math.prod(self.shape[1:]), math.prod(self.shape)
        # the coordinates that span axis 0: every axis, more than one row
        self.cut = [c.ndim == len(self.shape) and c.shape[0] > 1 for c in coords]

    def margins(self, lo: int, hi: int) -> np.ndarray:
        """Margins of the segment-local samples [lo, hi), whole rows, as a
        block of the segment's shape in whatever memory layout the formula
        gave it."""
        r0, r1 = lo // self.row, hi // self.row
        coords = [c[r0:r1] if cut else c for c, cut in zip(self.coords, self.cut)]
        return np.broadcast_to(self.margin(*coords), (r1 - r0, *self.shape[1:]))

    def at(self, index: int) -> list:
        """The coordinates of segment-local sample ``index``."""
        i = np.unravel_index(index, self.shape)
        return [np.broadcast_to(c, self.shape)[i] for c in self.coords]


def block_step(*segments: Segment) -> int:
    """Whole rows of every segment, as many as fit in ``CHUNK`` (at least one)."""
    row = math.lcm(*(s.row for s in segments))
    return max(1, CHUNK // row) * row


def scan(segments: Sequence[Segment], tolerance: float,
         jobs: int = 1) -> tuple[ScanResult, list | None]:
    """Fold the segments' margins, with the coordinates of the first bad
    sample (None when the scan passes)."""
    fold = scan_segments([(s.n, s.margins) for s in segments], tolerance, jobs,
                         block_step(*segments))
    index = fold.first_bad
    if index is not None:
        for s in segments:
            if index < s.n:
                return fold, s.at(index)
            index -= s.n
    return fold, None
