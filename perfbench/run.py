"""cgkit benchmark: one seeded, closed-loop, single-client workload per call.

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; cgkit is imported from ./src.  Workloads:
corpus-sweep, point-queries, cli-oneshot (see workloads.py and
BENCHMARK.json for why each was chosen).

--trace 0 times operations until --seconds of operation time have passed,
stopping at a round boundary, and reports the end-to-end metrics.
--trace 1 wraps cgkit's public functions (spans.py), runs a fixed number of
rounds so the problem-size counters repeat exactly, and reports per-layer
metrics.  Every operation's output is checked outside the timed region; a
wrong output or an exception counts as a failed operation.

The last stdout line is the result object; the line before it carries the
environment, sample counts, the 90th percentile (when a run has at least 100
operations), the error rate and the first failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "loadavg": list(os.getloadavg()),
        "cpu_probe_ms": cpu_probe_ms(),
    }


def cpu_probe_ms(repeats: int = 5) -> list:
    """Times of a fixed pure-Python loop: how fast the machine ran just now.

    A shared host's speed drifts with its neighbours' load; this shows by how
    much, next to the metrics it affects.
    """
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        out.append(round((time.perf_counter() - start) * 1000, 2))
    return out


def import_probe():
    """(interpreter start, import) seconds of one fresh `import cgkit.cli`."""
    import workloads

    rc, _, report, spawn = workloads.run_child(["--import-only"], ROOT)
    if rc != 0 or report is None:
        raise RuntimeError("import probe failed")
    return report["start"] - spawn, report["imported"] - report["start"]


def run_round(wl, ops, acc, tracer=None):
    """Run one round's operations one at a time, timing each; checks untimed."""
    for spec in ops:
        acc.graphs.add(spec[0])
        if tracer:
            tracer.op, tracer.on = len(acc.latencies), True
        start = time.perf_counter()
        try:
            res, err = wl.do(spec), None
        except Exception as exc:  # a failed operation is counted, not fatal
            res, err = None, "".join(traceback.format_exception_only(exc)).strip()
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.on = False
        acc.latencies.append(elapsed)
        acc.busy += elapsed
        if err is None:
            try:
                err = wl.check(spec, res)
            except Exception as exc:
                err = "check raised " + "".join(traceback.format_exception_only(exc)).strip()
        if err:
            acc.failures.append(err)
    acc.rounds += 1


def new_loop():
    return SimpleNamespace(latencies=array("d"), failures=[], graphs=set(), busy=0.0, rounds=0,
                           peak_rss_kb=None)


def drive(wl, seconds, rounds):
    """The closed loop: whole rounds until --seconds of operation time (or a
    fixed number of rounds) have passed.

    The peak RSS is read once the workload's first RSS_ROUNDS rounds are done
    (or at the end of a shorter run), so it covers the same work however many
    rounds the run's --seconds allow.
    """
    who = resource.RUSAGE_CHILDREN if wl.rusage == "children" else resource.RUSAGE_SELF
    loop = new_loop()
    for ops in wl.rounds():
        run_round(wl, ops, loop)
        done = loop.rounds >= rounds if rounds is not None else loop.busy >= seconds
        if loop.rounds == wl.RSS_ROUNDS or (done and loop.peak_rss_kb is None):
            loop.peak_rss_kb = resource.getrusage(who).ru_maxrss
        if done:
            return loop


def drive_traced(plain, traced, rounds, tracer):
    """Fixed rounds, each run once untraced on ``plain`` and once traced on
    ``traced``, the two sides taking turns to go first.  The host's speed
    drift and the warmth of cgkit's per-graph caches then fall on both sides
    alike, and the ratio of their times is the tracing overhead.
    """
    base, loop = new_loop(), new_loop()
    for r, plain_ops, traced_ops in zip(range(rounds), plain.rounds(), traced.rounds()):
        sides = [(plain, plain_ops, base, None), (traced, traced_ops, loop, tracer)]
        for wl, ops, acc, tr in sides if r % 2 == 0 else sides[::-1]:
            if tr:
                tr.install()
            try:
                run_round(wl, ops, acc, tr)
            finally:
                if tr:
                    tr.uninstall()
    return base, loop


def run(name, seed, seconds, trace, *, rounds=None, expected=None):
    """Run one workload; return (result object, info object).

    A traced run sets up a second, traced copy of the inputs (its set-up is
    traced too) and runs fixed rounds on both copies in turn (drive_traced).
    """
    import workloads
    from spans import Tracer, layer_metrics, merge

    cls = workloads.WORKLOADS[name]
    expected = (expected or load_expected())[name]
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        probes = [import_probe() for _ in range(SETUP_REPEATS)]
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl = cls(seed, expected, SimpleNamespace(work=work, root=ROOT, traced=False))
            wl.warm_up()
            setups.append(time.perf_counter() - start)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = cls(seed, expected, SimpleNamespace(work=work, root=ROOT, traced=True))
                traced.warm_up()
            finally:
                tracer.on = False
                tracer.uninstall()
            baseline, loop = drive_traced(wl, traced, rounds or cls.TRACE_ROUNDS, tracer)
            wl = traced
        else:
            loop = drive(wl, seconds, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still uses it
            pass

    n = len(loop.latencies)
    ordered = sorted(loop.latencies)
    failures = loop.failures + (baseline.failures if trace else [])
    attempted = n + (len(baseline.latencies) if trace else 0)
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(bool(trace)),
        "rounds": loop.rounds, "samples": n, "busy_s": loop.busy,
        "op_p90_ms": statistics.quantiles(ordered, n=10)[-1] * 1000 if n >= 100 else None,
        "error_rate": len(failures) / attempted, "failures": failures[:5],
        "setup_import_s": [p[1] for p in probes], "setup_build_s": setups,
        "env": environment(),
    }
    if trace:
        reports = getattr(wl, "reports", [])
        summary = merge([tracer.summary()] + [rep["trace"] for rep in reports if rep["trace"]])
        if reports:  # cold CLI processes: per-invocation clock readings
            interp = [rep["start"] - rep["spawn"] for rep in reports]
            imports = [rep["imported"] - rep["start"] for rep in reports]
            runs = [rep["end"] - rep["run"] for rep in reports]
        else:
            interp, imports = [p[0] for p in probes], [p[1] for p in probes]
            runs = summary["cli_run_s"]
        metrics = layer_metrics(summary, interp, imports, runs, n, len(loop.graphs))
        metrics["trace_overhead_frac"] = (loop.busy / baseline.busy - 1, "ratio")
        info["absent"] = summary["absent"]
        info["untraced_busy_s"] = baseline.busy
    else:
        metrics = {
            "ops_per_s": (n / loop.busy, "1/s"),
            "op_p50_ms": (statistics.median(ordered) * 1000, "ms"),
            "peak_rss_mb": (loop.peak_rss_kb / 1024, "MB"),
            "setup_s": (statistics.median(p[1] for p in probes) + statistics.median(setups), "s"),
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cgkit", "__init__.py")):
        print(f"perfbench: no cgkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, info = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
