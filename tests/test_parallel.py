"""The scan fold: streamed scans equal the fold of the materialised margins,
and coordinate segments scan in blocks of whole rows."""

from __future__ import annotations

import concurrent.futures
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fuzzfix import InputError, NumericalError, SamplingPlan, _parallel, verify_fm_axioms
from fuzzfix._parallel import (CHUNK, Segment, block_step, fold_margins, map_concat, scan,
                               scan_segments)

TOL = -1e-9
N = 3 * CHUNK + 17  # three full chunks and a ragged tail


def passing(lo: int, hi: int) -> np.ndarray:
    # minimum 0.0 attained in every chunk: ties keep the first index
    i = np.arange(lo, hi)
    return ((i * 7919) % 10007) * 1e-4 + 1e-3 * (i < 10007)


def failing(lo: int, hi: int) -> np.ndarray:
    # negative stretches start in the second chunk; the minimum sits later
    i = np.arange(lo, hi, dtype=float)
    return np.cos(i * 2e-5) + 0.2


def materialised_fold(n: int, fn, jobs: int) -> tuple:
    m = map_concat(n, fn, jobs)
    below = np.flatnonzero(m < TOL)
    first_bad = int(below[0]) if below.size else None
    worst_index = int(np.argmin(m))
    return (m.size, float(m[worst_index]), worst_index, first_bad,
            None if first_bad is None else float(m[first_bad]))


@pytest.mark.parametrize("fn", [passing, failing], ids=["passing", "failing"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_segments_equals_fold_of_map_concat(fn, jobs):
    got = scan_segments([(N, fn)], TOL, jobs=jobs)
    want = materialised_fold(N, fn, jobs)
    assert (got.n, got.worst_margin, got.worst_index, got.first_bad,
            got.bad_margin) == want
    assert got.passed == (fn is passing)
    if fn is passing:
        assert got.worst_index == 10007  # a later chunk's tie does not win


def test_failing_case_spans_chunks():
    got = scan_segments([(N, failing)], TOL)
    assert CHUNK <= got.first_bad < got.worst_index
    assert got.bad_margin < TOL


def test_segments_index_globally():
    got = scan_segments([(CHUNK + 5, passing), (N, failing)], TOL, jobs=2)
    tail = materialised_fold(N, failing, 1)
    assert got.n == CHUNK + 5 + N
    assert got.first_bad == CHUNK + 5 + tail[3]
    assert got.bad_margin == tail[4]


def test_fold_keeps_infinite_margins_legal():
    # +inf marks exempt samples (FM-2-reverse on the diagonal)
    got = fold_margins(np.array([np.inf, 0.5, np.inf]), TOL, offset=10)
    assert (got.n, got.worst_margin, got.worst_index, got.first_bad) == (3, 0.5, 11, None)
    assert fold_margins(np.full(4, np.inf), TOL).worst_margin == np.inf


@pytest.mark.parametrize("jobs", [1, 2])
def test_nan_margin_is_a_numerical_error(jobs):
    def nan_late(lo: int, hi: int) -> np.ndarray:
        i = np.arange(lo, hi)
        return np.where(i == CHUNK + 3, np.nan, 1.0)

    with pytest.raises(NumericalError, match=f"NaN at sample {CHUNK + 3}"):
        scan_segments([(N, nan_late)], TOL, jobs=jobs)


def test_a_block_whose_minimum_equals_the_tolerance_passes():
    got = fold_margins(np.array([1.0, TOL, 2.0, TOL]), TOL, offset=4)
    assert (got.n, got.worst_margin, got.worst_index, got.first_bad) == (4, TOL, 5, None)
    assert got.passed


@pytest.mark.parametrize("before", [-5.0, 0.25], ids=["failing", "passing"])
def test_a_nan_after_the_minimum_raises_and_names_its_index(before):
    with pytest.raises(NumericalError, match="NaN at sample 9$"):
        fold_margins(np.array([1.0, before, np.nan, -7.0]), TOL, offset=7)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("short", [1, CHUNK - 1], ids=["length-1", "one-short"])
def test_a_margin_function_of_the_wrong_length_raises(jobs, short):
    # a length-1 block would broadcast into its slice, so the shape is checked
    def wrong(lo: int, hi: int) -> np.ndarray:
        return passing(lo, hi)[:short] if lo == CHUNK else passing(lo, hi)

    with pytest.raises(ValueError, match=rf"shape \({short},\) for samples "
                                         rf"\[{CHUNK}, {2 * CHUNK}\)"):
        map_concat(N, wrong, jobs)


def test_map_concat_of_no_samples_is_an_empty_float_array():
    got = map_concat(0, passing, jobs=2)
    assert got.dtype == np.float64 and got.shape == (0,)


@pytest.mark.parametrize("jobs", [0, -3])
def test_worker_count_below_one_is_refused(jobs):
    # one chunk would take the serial path, so the count is checked first
    with pytest.raises(InputError, match=f"jobs must be >= 1, got {jobs}"):
        map_concat(5, passing, jobs=jobs)
    with pytest.raises(InputError, match=f"jobs must be >= 1, got {jobs}"):
        scan_segments([(5, passing)], TOL, jobs=jobs)


def test_cli_start_up_does_not_import_the_thread_pool():
    # only --jobs > 1 needs concurrent.futures, which also pulls in logging
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, fuzzfix.cli; "
            "print('concurrent.futures' in sys.modules, 'logging' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_scans_reuse_one_pool(monkeypatch, reference_fm):
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(_parallel, "_POOLS", {})
    plan = SamplingPlan(grid_n=52, n_random=100)
    try:
        # seven scans each, several chunks in FM-4
        two = [verify_fm_axioms(reference_fm, SamplingPlan(grid_n=52, n_random=100, jobs=2))
               for _ in range(2)]
        assert two == [verify_fm_axioms(reference_fm, plan)] * 2
        assert np.array_equal(map_concat(N, failing, jobs=2), map_concat(N, failing))
        assert len(made) == 1
    finally:
        for pool in made:
            pool.shutdown()


def test_concurrent_first_use_builds_one_pool(monkeypatch):
    # more callers than cores race to make the pool, with frequent switches
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(_parallel, "_POOLS", {})
    want = map_concat(N, failing)
    results = []
    callers = [threading.Thread(target=lambda: results.append(map_concat(N, failing, jobs=3)))
               for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown()
    assert not any(t.is_alive() for t in callers)
    assert len(results) == 6 and all(np.array_equal(r, want) for r in results)
    assert len(made) == 1


def test_a_scan_inside_a_chunk_stays_in_its_thread():
    seen = []

    def outer(lo: int, hi: int) -> np.ndarray:
        threads = []

        def inner(a: int, b: int) -> np.ndarray:
            threads.append(threading.current_thread().name)
            return passing(a, b)

        nested = scan_segments([(2 * CHUNK, inner)], TOL, jobs=2)
        seen.append((threading.current_thread().name, threads))
        return np.full(hi - lo, nested.worst_margin)

    got = scan_segments([(2 * CHUNK, outer)], TOL, jobs=2)
    assert got.worst_margin == scan_segments([(2 * CHUNK, passing)], TOL).worst_margin
    assert len(seen) == 2
    for name, threads in seen:
        # the outer chunks ran in the pool, their nested chunks in place
        assert name.startswith("fuzzfix-scan") and threads == [name, name]


def concat(segment: Segment) -> np.ndarray:
    """Every margin of a segment, in its blocks of whole rows."""
    return map_concat(segment.n, segment.margins, 1, block_step(segment))


def test_a_length_one_row_coordinate_is_broadcast_not_sliced(monkeypatch):
    monkeypatch.setattr(_parallel, "CHUNK", 8)  # a row is 4 samples: two-row blocks
    seen = []

    def margin(x, point, t):
        seen.append((x.shape, point.shape, t.shape))
        return x + point + t

    x, point, t = np.arange(5.0)[:, None], np.array([[0.5]]), np.arange(4.0)[None, :]
    segment = Segment((x, point, t), margin)
    assert (segment.shape, segment.row, segment.n) == ((5, 4), 4, 20)
    assert np.array_equal(concat(segment), (x + point + t).ravel())
    assert seen == [((2, 1), (1, 1), (1, 4))] * 2 + [((1, 1), (1, 1), (1, 4))]
    assert segment.at(13) == [3.0, 0.5, 1.0]


def test_a_witness_in_the_segment_after_an_empty_one():
    empty = Segment((np.zeros((0, 3)),), lambda a: a - 1.0)
    bad = Segment((np.arange(4.0)[:, None], np.arange(3.0)), lambda x, t: x - t)
    assert empty.n == 0
    fold, coords = scan([empty, bad], TOL)
    # x - t is first negative at (x, t) = (0, 1), the second sample
    assert (fold.n, fold.first_bad, fold.bad_margin, fold.worst_index) == (12, 1, -1.0, 2)
    assert coords == [0.0, 1.0]
    fold, coords = scan([Segment((np.ones((2, 3)),), lambda a: a), empty, bad], TOL)
    assert (fold.first_bad, coords) == (7, [0.0, 1.0])


def test_a_row_larger_than_a_chunk_is_a_one_row_block(monkeypatch):
    monkeypatch.setattr(_parallel, "CHUNK", 5)
    rows = []

    def margin(x, t):
        rows.append(x.shape[0])
        return x * t

    segment = Segment((np.arange(3.0)[:, None], np.arange(7.0)), margin)
    assert block_step(segment) == 7
    got = concat(segment)
    assert rows == [1, 1, 1]
    assert np.array_equal(got, np.outer(np.arange(3.0), np.arange(7.0)).ravel())


T4096 = np.linspace(0.0, 1.0, 4096)


def _segments() -> list:
    # rows of 4096 samples, 16 rows a block: several blocks in each segment;
    # the second turns negative in its row 16, its second block
    return [Segment((np.arange(20.0)[:, None], T4096), lambda x, t: x + t + 1.0),
            Segment((np.arange(40.0)[:, None], T4096),
                    lambda x, t: np.cos(x * 0.05 + t) + 0.2)]


def test_worker_counts_give_equal_folds_and_coordinates():
    one, two = scan(_segments(), TOL, 1), scan(_segments(), TOL, 2)
    assert one == two
    fold, coords = one
    m = np.concatenate([concat(s) for s in _segments()])
    assert fold.first_bad == int(np.flatnonzero(m < TOL)[0])
    assert fold.worst_index == int(np.argmin(m))
    assert coords == [16.0, T4096[(fold.first_bad - 20 * 4096) % 4096]]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_nan_margin_raises_where_the_materialised_fold_does(jobs):
    t = np.arange(4096.0)
    segment = Segment((np.arange(40.0)[:, None], t),
                      lambda x, t: np.where((x == 20.0) & (t == 3.0), np.nan, x + t))
    with pytest.raises(NumericalError) as want:
        fold_margins(map_concat(segment.n, segment.margins, jobs, block_step(segment)), TOL)
    with pytest.raises(NumericalError) as got:
        scan([segment], TOL, jobs)
    assert str(got.value) == str(want.value) == f"margin is NaN at sample {20 * 4096 + 3}"



# blocks of 3 x-rows, 6 y and 4 t, laid out in memory otherwise than in C order
ROWS, YS, TS = 3, 6, 4


def transposed(values: np.ndarray) -> np.ndarray:
    """An (x, y, t) view of t-major memory, as a contraction scan builds it."""
    return np.ascontiguousarray(values.swapaxes(1, 2)).swapaxes(1, 2)


def broadcast(values: np.ndarray) -> np.ndarray:
    """A stride-0 block: its first x-row, repeated."""
    return np.broadcast_to(values[:1], values.shape)


def _block(samples: dict) -> np.ndarray:
    values = np.ones((ROWS, YS, TS))
    for xyt, v in samples.items():
        values[xyt] = v
    return values


def _c_index(x: int, y: int, t: int) -> int:
    return (x * YS + y) * TS + t


def _fold(block: np.ndarray):
    """The fold of a block, asserted equal to the fold of its C-order copy."""
    assert not block.flags.c_contiguous
    got = fold_margins(block, TOL, offset=5)
    assert got == fold_margins(np.ascontiguousarray(block), TOL, offset=5)
    return got


@pytest.mark.parametrize("layout", [transposed, broadcast])
def test_ties_of_the_minimum_in_one_row_keep_the_first_in_c_order(layout):
    # (0, 4, 0) comes first in t-major memory and (0, 1, 2) in C order; the
    # minimum is a signed zero, so which tie wins shows in the bits
    got = _fold(layout(_block({(0, 4, 0): 0.0, (0, 1, 2): -0.0, (1, 0, 0): 0.0})))
    assert (got.worst_index, got.first_bad) == (5 + _c_index(0, 1, 2), None)
    assert math.copysign(1.0, got.worst_margin) == -1.0


@pytest.mark.parametrize("layout", [transposed, broadcast])
def test_the_first_bad_sample_is_first_in_c_order_not_in_memory(layout):
    # the first bad sample's t-slice comes later in memory than (0, 4, 0)'s
    got = _fold(layout(_block({(0, 4, 0): -3.0, (0, 1, 2): -2.0, (0, 5, 3): -5.0})))
    assert (got.first_bad, got.bad_margin) == (5 + _c_index(0, 1, 2), -2.0)
    assert (got.worst_index, got.worst_margin) == (5 + _c_index(0, 5, 3), -5.0)
    assert got.n == ROWS * YS * TS


@pytest.mark.parametrize("layout", [transposed, broadcast])
def test_a_nan_names_its_c_order_sample(layout):
    block = layout(_block({(0, 4, 0): np.nan, (0, 1, 2): np.nan}))
    assert not block.flags.c_contiguous
    for values in (block, np.ascontiguousarray(block)):
        with pytest.raises(NumericalError, match=f"NaN at sample {5 + _c_index(0, 1, 2)}$"):
            fold_margins(values, TOL, offset=5)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("layout", [transposed, broadcast])
def test_map_concat_writes_an_nd_block_in_c_order(jobs, layout):
    values = np.arange(2 * ROWS * YS * TS, dtype=float).reshape(2 * ROWS, YS, TS)
    step, row = ROWS * YS * TS, YS * TS

    def block(lo: int, hi: int) -> np.ndarray:
        return layout(values[lo // row:hi // row])

    got = map_concat(values.size, block, jobs, step)
    want = np.concatenate([np.ascontiguousarray(block(lo, lo + step)).ravel()
                           for lo in (0, step)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("block, n", [
    (transposed(np.ones((2, 3, 4))), 25), (np.ones((1, 24)), 25), (np.float64(0.5), 1),
], ids=["transposed", "2-d", "scalar"])
def test_a_block_of_the_wrong_size_raises_and_names_its_shape(block, n):
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(np.shape(block)))} "
                                         rf"for samples \[0, {n}\)"):
        map_concat(n, lambda lo, hi: block)
