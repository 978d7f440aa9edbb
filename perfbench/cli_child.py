"""One cold cgkit command, timed from inside the process.

    python perfbench/cli_child.py <cgkit arguments>
    python perfbench/cli_child.py --import-only

cgkit must be importable (PYTHONPATH=src).  With PERFBENCH_TRACE=1 the
per-module spans are recorded as well.  The command's exit code is passed
on; the last standard error line is "perfbench-child <json>" with the clock
readings at start, after import, before and after the command, plus the trace
summary.  perf_counter is the system's monotonic clock, so the parent can
subtract its own reading taken before the spawn.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    import cgkit.cli

    t_import = time.perf_counter()
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    argv = sys.argv[1:]
    t_run = time.perf_counter()
    rc = 0 if argv == ["--import-only"] else cgkit.cli.run(argv)
    t_end = time.perf_counter()
    sys.stdout.flush()
    report = {"start": T_START, "imported": t_import, "run": t_run, "end": t_end,
              "trace": tracer.summary() if tracer else None}
    print("perfbench-child " + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
