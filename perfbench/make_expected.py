"""Regenerate perfbench/expected.json, the outputs every run is checked against.

    python3 perfbench/make_expected.py

Run from the repository root.  The outputs come from the cgkit in ./src, so
regenerate only when a change is meant to alter them (CLI output and
verdicts are meant to stay byte-identical).  Point-query verdicts are
recorded only where the AMP and LWF engines agree; a disagreement aborts.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as w  # noqa: E402
from cgkit import fileformat, separation  # noqa: E402


def corpus_digests():
    out = []
    for g in w.acceptance_corpus():
        ep = w.transforms.to_eamp(g)
        m_g = w.models.enumerate_model(g, w.EMPTY, w.AMP)
        m_amp = w.models.enumerate_model(ep.graph, ep.table, w.AMP)
        out.append(f"{w.digest(m_g.dumps(), 12)}:{len(m_amp)}")
    return out


def query_bits():
    out = {}
    for pool_seed, n in w.query_pool():
        g, table = fileformat.parse(w.query_graph_text(pool_seed, n))
        queries = w.query_list(g, pool_seed)
        nibbles = []
        for start in range(0, w.QUERIES_PER_GRAPH, 4):
            nib = 0
            for i, (x, y, z) in enumerate(queries[start:start + 4]):
                amp = separation.amp_separated(g, separation.SeparationQuery(x, y, z, w.AMP, table))
                lwf = separation.lwf_separated(g, separation.SeparationQuery(x, y, z, w.LWF, table))
                if amp != lwf:
                    raise SystemExit(f"engines disagree on pool graph {pool_seed}: {x} {y} {z}")
                nib |= int(amp) << i
            nibbles.append(f"{nib:x}")
        out[str(pool_seed)] = "".join(nibbles)
    return out


def cli_outputs(work):
    out = {}
    for k in range(w.CLI_POOL):
        for name, argv in w.cli_commands(k, w.cli_files(k, work)).items():
            rc, stdout, _, _ = w.run_child(argv, ROOT)
            out[f"{k} {name}"] = [rc, w.digest(stdout)]
    return out


def main():
    work = os.path.join(ROOT, ".perfbench_work", "expected")
    os.makedirs(work, exist_ok=True)
    try:
        expected = {
            "corpus-sweep": corpus_digests(),
            "point-queries": query_bits(),
            "cli-oneshot": cli_outputs(work),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(expected.items()))
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + body + "\n}\n")


if __name__ == "__main__":
    main()
