"""One fresh, single-threaded benchmark process.

Reads a JSON plan on stdin and writes JSON lines on stdout.  It imports
fuzzfix from the checkout's ``src/``, builds the components every CLI
invocation builds (load_config, then quadruple, contraction_spec or
dp_problem), and reports ``ready``; the parent times interpreter start to
that line as ``setup_s``.  Then, by ``mode``:

- ``setup``:   nothing more.
- ``measure``: the warm-up calls, then the unit's calls in passes while the
  next pass fits in ``budget_s``, each call timed around ``run_command``
  alone.
- ``trace``:   installs the tracer, runs the warm-up untraced, then repeats
  the ``cycle`` of [traced, jobs] units while the next pass fits in
  ``budget_s``, then the ``after`` units once.  ``peak_memory`` turns on the
  tracemalloc peaks, which slow what they trace.  The spans of the first
  traced unit are written to ``spans`` when the plan names a file.

Every call's exit code and report go through the oracles outside the timed
region, with tracing paused.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import Call, make_workload  # noqa: E402


def emit(**fields) -> None:
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def _import_fuzzfix(src: Path) -> None:
    sys.path.insert(0, str(src))
    import fuzzfix
    if not Path(fuzzfix.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"fuzzfix imported from {fuzzfix.__file__}, not {src}")


class Runner:
    """Runs calls of one workload and checks their outcomes."""

    def __init__(self, workdir: Path, tracer=None):
        from fuzzfix import cli, config, contraction
        self.cli, self.config, self.contraction = cli, config, contraction
        self.parser = cli.build_parser()
        self.workdir = workdir
        self.tracer = tracer
        self._specs: dict = {}

    def argv(self, call: Call, jobs: int = 1) -> list[str]:
        out = [str(self.workdir / a) if a.endswith(".ini") else a for a in call.argv]
        return out + (["--jobs", str(jobs)] if jobs != 1 else [])

    def _recompute(self, call: Call):
        """margins_at on the call's own config, for the verify oracle."""
        path = next(a for a in call.argv if a.endswith(".ini"))
        if path not in self._specs:
            cfg = self.config.load_config(self.workdir / path)
            self._specs[path] = (cfg.contraction_spec(), cfg.quadruple())
        spec, quad = self._specs[path]
        return lambda x, y, t: self.contraction.contraction_margin_at(spec, quad, x, y, t)

    def run(self, call: Call, jobs: int = 1) -> dict:
        args = self.parser.parse_args(self.argv(call, jobs))
        error = None
        start = time.perf_counter()
        try:
            code, text = self.cli.run_command(args)
        except Exception as exc:  # a failed call is a result, not a crash
            code, text, error = 2, None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        traced = self.tracer is not None and self.tracer.enabled
        if traced:
            self.tracer.enabled = False
        try:
            doc = None if text is None else json.loads(text)
            recompute = self._recompute(call) if call.expect["check"] == "verify" else None
            problems, work = oracles.check(call.expect, code, doc, recompute)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            problems, work = [f"malformed report: {type(exc).__name__}: {exc}"], {}
        finally:
            if traced:
                self.tracer.enabled = True
        if error:
            problems.insert(0, error)
        return {"label": call.label, "seconds": seconds,
                "code": code, "problems": problems, **work}

    def setup(self, names) -> None:
        """What every CLI invocation pays before its command runs."""
        for name in names:
            cfg = self.config.load_config(self.workdir / name)
            if cfg.has("maps"):
                cfg.quadruple()
            if cfg.has("contraction"):
                cfg.contraction_spec()
            if cfg.has("dp"):
                cfg.dp_problem()


def _passes(budget: float):
    """Yield pass numbers while the next pass, as long as the last one, still
    ends within ``budget`` seconds; always at least one pass."""
    start = time.perf_counter()
    last = 0.0
    n = 0
    while n == 0 or time.perf_counter() - start + last <= budget:
        begun = time.perf_counter()
        yield n
        last = time.perf_counter() - begun
        n += 1


def _measure(runner: Runner, workload, budget: float) -> None:
    for call in workload.warmup:
        emit(event="call", warmup=True, **runner.run(call))
    for _ in _passes(budget):
        for call in workload.unit:
            emit(event="call", warmup=False, **runner.run(call))


def _write_spans(path: Path, spans: list) -> None:
    """Spans of one unit as rows [id, parent, name, start, end, thread]."""
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    threads = {t: i for i, t in enumerate(dict.fromkeys(s.thread for s in spans))}
    t0 = min((s.start for s in spans), default=0.0)
    rows = [[s.id, s.parent, index[s.name], round(s.start - t0, 7),
             round(s.end - t0, 7), threads[s.thread]] for s in spans]
    path.write_text(json.dumps({"names": names, "columns": [
        "id", "parent", "name", "start_s", "end_s", "thread"], "spans": rows}))


def _trace_unit(runner: Runner, tracer, workload, traced: bool, jobs: int,
                spans_path: Path | None = None) -> None:
    tracer.enabled = traced
    calls = [runner.run(call, jobs) for call in workload.unit]
    tracer.enabled = False
    spans = tracer.take()
    if traced and spans_path is not None and not spans_path.exists():
        _write_spans(spans_path, spans)
    for c in calls:
        emit(event="call", warmup=False, **c)
    emit(event="unit", traced=traced, jobs=jobs,
         seconds=sum(c["seconds"] for c in calls),
         metrics=tracing.layer_metrics(spans) if traced else {},
         ranking=tracing.self_time_ranking(spans)[:6] if traced else [])


def _trace(runner: Runner, tracer, workload, plan: dict) -> None:
    for call in workload.warmup:
        emit(event="call", warmup=True, **runner.run(call))
    spans_path = Path(plan["spans"]) if plan.get("spans") else None
    if spans_path is not None and spans_path.exists():
        spans_path.unlink()
    for _ in _passes(plan["budget_s"]):
        for traced, jobs in plan["cycle"]:
            _trace_unit(runner, tracer, workload, traced, jobs, spans_path)
    for traced, jobs in plan["after"]:
        _trace_unit(runner, tracer, workload, traced, jobs)


def main() -> int:
    plan = json.load(sys.stdin)
    import numpy
    _import_fuzzfix(Path(plan["src"]))
    workload = make_workload(plan["workload"], plan["seed"])
    workdir = Path(plan["workdir"])
    tracer = None
    if plan["mode"] == "trace":
        tracer = tracing.Tracer(peak_memory=plan["peak_memory"])
        tracer.install()
    runner = Runner(workdir, tracer)
    runner.setup(workload.setup_configs)
    emit(event="ready", python=sys.version.split()[0], numpy=numpy.__version__)

    if plan["mode"] == "measure":
        _measure(runner, workload, plan["budget_s"])
    elif plan["mode"] == "trace":
        _trace(runner, tracer, workload, plan)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit(event="done", peak_rss_mb=rss_mb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
