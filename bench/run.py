"""fuzzfix benchmark: four CLI workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
this file sits in.  Generated configs and result files go to
``.bench_out/`` there.  Every measurement runs in fresh single-threaded child
processes (``worker.py``), one at a time, and each call is checked by the
oracles in ``oracles.py``.

With ``--trace 0`` the end-to-end metrics are measured: ``setup_s`` (median
over several fresh processes), ``run_s_p50`` (median call after warm-up,
over several processes) and ``peak_rss_mb`` (median ru_maxrss of the
measuring processes).  The table adds the workload-specific figures the
JSON line leaves out: ``run_s_p90`` where a run has at least 100 calls,
``samples_per_s``, ``cells_per_s`` and ``fail_ratio``.  With ``--trace 1``
a separate traced process reports the per-layer metrics (``tracer.py``) and
a second one repeats the exact counts and takes the tracemalloc peaks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the program
cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from workloads import VERIFY_GRID, WORKLOADS, make_workload  # noqa: E402

SETUP_PROCS = 7      # set-up-only processes per run, besides the measuring ones
MEASURE_PROCS = 3    # measuring processes per run; each gets seconds / 3
CHILD_TIMEOUT = 170  # seconds; no child may outlive the run's own limit
P90_MIN_CALLS = 100  # p90 needs at least ten calls above it


class BenchError(RuntimeError):
    """The program could not be run (not a failed output check)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(plan: dict) -> tuple[float, list[dict]]:
    """Run one worker; returns (seconds from spawn to ready, events)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=_child_env(), cwd=str(ROOT))
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    events: list[dict] = []
    ready = None
    try:
        proc.stdin.write(json.dumps(plan))
        proc.stdin.close()
        for line in proc.stdout:
            event = json.loads(line)
            if event["event"] == "ready":
                ready = time.perf_counter() - start
            events.append(event)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or events[-1]["event"] != "done":
        raise BenchError(f"worker for {plan['workload']} ({plan['mode']}) "
                         f"exited with code {code}")
    return ready, events


def _plan(name: str, seed: int, workdir: Path, mode: str, **extra) -> dict:
    return {"workload": name, "seed": seed, "src": str(SRC),
            "workdir": str(workdir), "mode": mode, **extra}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def measure(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end run: set-up processes, then measuring processes."""
    setups, rss, calls, env = [], [], [], {}
    for proc in range(SETUP_PROCS + MEASURE_PROCS):
        mode = "setup" if proc < SETUP_PROCS else "measure"
        ready, events = run_child(_plan(name, seed, workdir, mode,
                                        budget_s=seconds / MEASURE_PROCS))
        setups.append(ready)
        if mode == "measure":
            env = {k: v for k, v in events[0].items() if k != "event"}
            rss.append(events[-1]["peak_rss_mb"])
            calls += [dict(e, proc=proc) for e in events if e["event"] == "call"]

    timed = [c for c in calls if not c["warmup"]]
    times = [c["seconds"] for c in timed]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        "run_s_p50": _metric(statistics.median(times), "s", len(times)),
        "peak_rss_mb": _metric(statistics.median(rss), "MB", len(rss)),
    }
    extra = {}
    if len(times) >= P90_MIN_CALLS:
        extra["run_s_p90"] = _metric(statistics.quantiles(times, n=10)[8], "s", len(times))
    for key, metric, unit in (("samples", "samples_per_s", "samples/s"),
                              ("cells", "cells_per_s", "cells/s")):
        rates = [c[key] / c["seconds"] for c in timed if key in c]
        if rates and (key == "cells" or name in VERIFY_GRID):
            extra[metric] = _metric(statistics.median(rates), unit, len(rates))
    failed = sum(1 for c in calls if c["problems"])
    extra["fail_ratio"] = _metric(failed / len(calls), "ratio", len(calls))
    return {"metrics": metrics, "extra": extra, "calls": calls, "env": env,
            "problems": []}


def trace(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Traced run: per-layer metrics, with exact counts repeated by a second
    traced process that also takes the tracemalloc peaks."""
    from tracer import EXACT, LAYER_UNITS, PARALLEL, PEAKS
    after = [[True, 2]] if name in VERIFY_GRID else []
    _, first = run_child(_plan(name, seed, workdir, "trace", peak_memory=False,
                               budget_s=seconds / 3, cycle=[[False, 1], [True, 1]],
                               after=after, spans=str(OUT / f"{name}-spans.json")))
    _, second = run_child(_plan(name, seed, workdir, "trace", peak_memory=True,
                                budget_s=0, cycle=[[True, 1]], after=[]))
    units = [e for e in first if e["event"] == "unit"]
    traced = [u for u in units if u["traced"] and u["jobs"] == 1]
    plain = [u for u in units if not u["traced"]]
    jobs2 = [u for u in units if u["jobs"] == 2]
    memory = next(e for e in second if e["event"] == "unit")

    metrics = {}
    for key, unit in LAYER_UNITS.items():
        if key == "trace.overhead_s":
            value = (statistics.median(u["seconds"] for u in traced)
                     - statistics.median(u["seconds"] for u in plain))
        elif key in EXACT:
            value = traced[0]["metrics"][key]   # checked equal in every unit below
        elif key in PEAKS:
            value = memory["metrics"][key]
        elif key in PARALLEL and jobs2:
            value = jobs2[0]["metrics"][key]
        else:
            value = statistics.median(u["metrics"][key] for u in traced)
        n = 1 if key in PEAKS or (key in PARALLEL and jobs2) else len(traced)
        metrics[key] = _metric(value, unit, n)

    problems = []
    for u in traced + jobs2 + [memory]:
        diff = [k for k in EXACT if u["metrics"][k] != traced[0]["metrics"][k]]
        if diff:
            problems.append(f"exact counts differ between traced runs: {diff}")
            break
    calls = [e for e in first + second if e["event"] == "call"]
    env = {k: v for k, v in first[0].items() if k != "event"}
    return {"metrics": metrics, "extra": {}, "calls": calls, "env": env,
            "problems": problems, "ranking": traced[0]["ranking"]}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = make_workload(name, seed)
    workdir = OUT / f"{name}-seed{seed}"
    workload.write(workdir)
    result = (trace if traced else measure)(name, seed, seconds, workdir)
    result["env"].update(nproc=os.cpu_count(), cpu=_cpu_model())
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(traced))
    failures = [c for c in result["calls"] if c["problems"]]
    result["attempted"] = len(result["calls"])
    result["failed"] = len(failures)
    result["correct"] = not failures and not result["problems"]
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def print_table(result: dict) -> None:
    env = result["env"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  nproc {env['nproc']}  cpu {env['cpu']!r}  "
          f"python {env['python']}  numpy {env['numpy']}")
    for key, m in {**result["metrics"], **result["extra"]}.items():
        print(f"  {key:40s} {m['value']:>14.6g} {m['unit']:<10s} n={m['n']}")
    if result.get("ranking"):
        top = ", ".join(f"{n} {s:.3f}s" for n, s in result["ranking"][:5])
        print(f"  self-time ranking: {top}")
    failures = [c for c in result["calls"] if c["problems"]]
    for c in failures[:5]:
        print(f"  FAILED {c['label']}: {'; '.join(c['problems'])}")
    for p in result["problems"]:
        print(f"  FAILED {p}")
    print(f"  calls attempted {result['attempted']}, failed {result['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fuzzfix" / "__init__.py").is_file():
        print(f"error: no fuzzfix sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in results:
        print_table(r)

    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k):
                    {"value": m["value"], "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
