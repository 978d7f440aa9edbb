"""Self-test of the benchmark on a tiny slice of each workload.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that:
- every metric named in BENCHMARK.json is emitted, with its unit, by both
  the plain and the traced run of every workload;
- the command prints a well-formed result as its last line;
- a corrupted expected output is counted as a failed operation;
- the traced run's problem-size counters repeat exactly for one seed.
Exits 1 on the first broken check.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402

COUNTERS = ("bench.ops", "bench.graphs", "bench.wrapped_calls", "determinism.closure_calls",
            "determinism.distinct_dz", "separation.connectivity_calls", "models.triples",
            "gaussian.pcor_checks")


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expected = bench.load_expected()
    if not all(w["why"].strip() for w in spec["workloads"]):
        fail("a workload in BENCHMARK.json does not say why it was chosen")

    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, info = bench.run(wl, 3, 0.1, trace, rounds=1)
            if units(result) != want[trace]:
                fail(f"{wl} trace={trace}: metrics {sorted(units(result))} != {sorted(want[trace])}")
            if not result["correct"] or result["failed"]:
                fail(f"{wl} trace={trace}: {info['failures']}")
            print(f"selftest: {wl} trace={trace}: {info['samples']} ops, metrics and units ok")

    # corrupt one expected output per checked workload; the run must count it
    for wl, corrupt in (
        ("point-queries", lambda e: e.update({k: "".join(f"{int(c, 16) ^ 15:x}" for c in v) for k, v in e.items()})),
        ("corpus-sweep", lambda e: e.__setitem__(slice(None), ["0:0"] * len(e))),
        ("cli-oneshot", lambda e: e.update({k: [v[0], "0" * 16] for k, v in e.items()})),
    ):
        bad = copy.deepcopy(expected)
        corrupt(bad[wl])
        result, _ = bench.run(wl, 3, 0.1, 0, rounds=1, expected=bad)
        if result["correct"] or result["failed"] == 0:
            fail(f"{wl}: corrupted expected output was not counted as a failure")
        print(f"selftest: {wl}: corrupted expectation gives {result['failed']}/{result['attempted']} failed")

    for wl in ("point-queries", "corpus-sweep"):
        a, _ = bench.run(wl, 5, 0.1, 1, rounds=2)
        b, _ = bench.run(wl, 5, 0.1, 1, rounds=2)
        ca = {k: a["metrics"][k]["value"] for k in COUNTERS}
        cb = {k: b["metrics"][k]["value"] for k in COUNTERS}
        if ca != cb:
            fail(f"{wl}: counters differ between runs: {ca} vs {cb}")
        print(f"selftest: {wl}: counters repeat: {ca}")

    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "point-queries",
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    last = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"command result line malformed: {out.stdout[-300:]!r} {out.stderr[-300:]!r}")
    print("selftest: command prints a well-formed result line")
    print("selftest: ok")


if __name__ == "__main__":
    main()
