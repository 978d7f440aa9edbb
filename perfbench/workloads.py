"""The three benchmark workloads: inputs from a seed, timed operations, checks.

Each workload builds its inputs in its constructor (that is its set-up),
yields operations in rounds, runs one operation in ``do`` (the timed part)
and judges the result in ``check`` (untimed).  A round has a fixed mix of
operation kinds, and runs stop only at round boundaries, so every run sees
the same mix whatever its length.

cgkit is called through module attributes (``models.enumerate_model``)
rather than names imported here, so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np

from cgkit import determinism, fileformat, gaussian, graph, models, separation, transforms

AMP, LWF = "amp", "lwf"
EMPTY = determinism.DeterminationTable()
HERE = os.path.dirname(os.path.abspath(__file__))


def digest(data, n: int = 16) -> str:
    """Leading hex digits of the sha256 of text or bytes."""
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()[:n]


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# corpus-sweep: the acceptance gate's per-graph pipeline on its own corpus

DENSITIES = (0.2, 0.35, 0.5, 0.65, 0.8)  # the acceptance suite's densities
RANDOM_COUNT = 500


def exhaustive_3node():
    """All valid chain graphs over {A, B, C}, 50 in total."""
    names = ["A", "B", "C"]
    pairs = list(itertools.combinations(names, 2))
    out = []
    for combo in itertools.product(range(4), repeat=len(pairs)):
        directed = {(a, b) if c == 1 else (b, a) for (a, b), c in zip(pairs, combo) if c in (1, 2)}
        undirected = {p for p, c in zip(pairs, combo) if c == 3}
        g = graph.ChainGraph(names, directed, undirected)
        if not graph.validate(g):
            out.append(g)
    return out


def acceptance_corpus():
    """The acceptance corpus in suite order: 50 exhaustive, then 500 random graphs."""
    out = exhaustive_3node()
    for i in range(RANDOM_COUNT):
        out.append(models.random_cg(4 if i % 2 == 0 else 5, DENSITIES[i % len(DENSITIES)], i))
    return out


def canonical_triples(universe):
    """Every disjoint (x, y, z) with nonempty x, y, one per unordered x/y pair."""
    universe = sorted(universe)
    for assign in itertools.product(range(4), repeat=len(universe)):
        x = frozenset(u for u, a in zip(universe, assign) if a == 0)
        y = frozenset(u for u, a in zip(universe, assign) if a == 1)
        if x and y and min(x) < min(y):
            yield x, y, frozenset(u for u, a in zip(universe, assign) if a == 2)


def sweep_graph(g, subsets, markov_seeds):
    """One graph through the acceptance pipeline; returns what the gate judges."""
    ep = transforms.to_eamp(g)
    eps = frozenset(ep.graph.nodes) - frozenset(g.nodes)
    out = {"flags": graph.find_flags(ep.graph)}
    m_g = models.enumerate_model(g, EMPTY, AMP)
    m_amp = models.enumerate_model(ep.graph, ep.table, AMP)
    m_lwf = models.enumerate_model(ep.graph, ep.table, LWF)
    out["t1"] = models.project_model(m_amp, eps, ()) == m_g
    out["t2"] = m_amp == m_lwf
    out["t4"] = []
    for drop in subsets:
        marg = transforms.marginalize_eamp(ep, drop)
        lhs = models.project_model(m_amp, set(drop) | eps, ())
        rhs = models.project_model(models.enumerate_model(marg.graph, marg.table, AMP), eps, ())
        out["t4"].append(lhs == rhs)
    if len(g.nodes) <= 4:
        dag, sel = transforms.to_selection_dag(ep)
        fused = models.enumerate_model(dag, ep.table, LWF, frozenset(ep.graph.nodes), condition_on=sel)
        out["t3"] = [fused == m_lwf, models.project_model(fused, eps, ()) == m_g]
    out["violations"] = sum(
        len(gaussian.markov_check(g, gaussian.sample_system(g, s), m_g).violations)
        for s in markov_seeds
    )
    out.update(ep=ep, m_g=m_g, m_amp=m_amp)
    return out


class CorpusSweep:
    """Why: ~70% of the test suite's time; many small fresh graphs, so
    per-graph set-up, closure, small arrays and the only gaussian use matter.

    A round is 5 three-node graphs, two 4-node graphs at each of the suite's
    five densities and one 5-node graph at each.  Per-graph cost grows ~5x
    per node, so with this 1:2:1 mix the median is the middle of the 4-node
    class and the 90th percentile sits inside the 5-node class, not on a
    class boundary.  Each stratum is walked in corpus order, so runs on
    different seeds take the same graphs; the seed sets the order within a
    round, the marginalized subsets and the Markov seeds.
    """

    TRACE_ROUNDS = 4
    RSS_ROUNDS = 6  # a 30 s run on a 2-core Xeon VM does 8-10 rounds
    rusage = "self"

    def __init__(self, seed, expected, ctx):
        self.seed = seed
        self.expected = expected
        self.corpus = acceptance_corpus()
        self.rng = np.random.default_rng(seed)
        # random graph i has 4 nodes when i is even, density index i % 5
        self.four, self.five = (
            [[50 + i for i in range(RANDOM_COUNT) if i % 2 == parity and i % 5 == d]
             for d in range(len(DENSITIES))]
            for parity in (0, 1)
        )

    def warm_up(self):
        self.do(self.spec(0))

    def spec(self, idx):
        g = self.corpus[idx]
        rng = np.random.default_rng((self.seed, idx))
        names = sorted(g.nodes)
        # nonempty proper subsets of fixed sizes (1, 2, 3; 1, 2, 1 on three
        # nodes): the seed picks only which nodes, so it barely moves the cost
        subsets = []
        for j in range(3):
            k = 1 + j % (len(names) - 1)
            subsets.append([names[i] for i in rng.choice(len(names), size=k, replace=False)])
        base = int(rng.integers(0, 1 << 30))
        return (idx, g, subsets, (base, base + 1, base + 2))

    def rounds(self):
        for r in itertools.count():
            picks = [(5 * r + i) % 50 for i in range(5)]  # the exhaustive 3-node family
            picks += [s[(2 * r + i) % len(s)] for s in self.four for i in range(2)]
            picks += [s[r % len(s)] for s in self.five]
            self.rng.shuffle(picks)
            yield [self.spec(i) for i in picks]

    def do(self, spec):
        _, g, subsets, seeds = spec
        return sweep_graph(g, subsets, seeds)

    def check(self, spec, res):
        idx, g = spec[0], spec[1]
        bad = [k for k in ("t1", "t2") if not res[k]]
        bad += ["t4"] * (not all(res["t4"])) + ["t3"] * (not all(res.get("t3", [True])))
        bad += ["flags"] * bool(res["flags"]) + ["markov"] * bool(res["violations"])
        want = self.expected[idx]
        got = f"{digest(res['m_g'].dumps(), 12)}:{len(res['m_amp'])}"
        if got != want:
            bad.append(f"digest {got} != {want}")
        if len(g.nodes) == 3 and not bad:
            bad += oracle_mismatches(res["ep"], res["m_amp"])
        return "; ".join(bad) or None


def oracle_mismatches(ep, model):
    """Triples where the enumerated model disagrees with either brute-force oracle."""
    out = []
    for x, y, z in canonical_triples(ep.graph.nodes):
        want = model.has(tuple(x), tuple(y), tuple(z))
        for sem, oracle in ((AMP, separation.amp_separated_oracle), (LWF, separation.lwf_route_oracle)):
            if oracle(ep.graph, separation.SeparationQuery(x, y, z, sem, ep.table)) != want:
                out.append(f"{sem} oracle on {sorted(x)}|{sorted(y)}|{sorted(z)}")
    return out[:3]


# ---------------------------------------------------------------------------
# point-queries: single separation questions on large augmented graphs

# variable counts of the eight size strata; three pool graphs per stratum
QUERY_SIZES = (15, 18, 22, 25, 29, 32, 36, 40)
QUERY_DENSITY = 0.5  # gen's default
QUERIES_PER_GRAPH = 1024


def query_pool():
    """(pool seed, variables) of every point-query graph."""
    return [(7000 + 10 * s + j, n) for s, n in enumerate(QUERY_SIZES) for j in range(3)]


def query_graph_text(pool_seed, n):
    ep = transforms.to_eamp(models.random_cg(n, QUERY_DENSITY, pool_seed))
    return fileformat.serialize(ep.graph, ep.table)


def query_list(g, pool_seed):
    """Fixed questions for one pool graph: variables x and y, up to three nodes in z."""
    rng = np.random.default_rng(pool_seed)
    variables = sorted(g.variables)
    names = sorted(g.nodes)
    out = []
    for _ in range(QUERIES_PER_GRAPH):
        x, y = (variables[i] for i in rng.choice(len(variables), size=2, replace=False))
        rest = [v for v in names if v not in (x, y)]
        z = [rest[i] for i in rng.choice(len(rest), size=int(rng.integers(0, 4)), replace=False)]
        out.append(((x,), (y,), tuple(z)))
    return out


def answer(g, table, x, y, z, semantics):
    """One query answered as `separate --trace` does."""
    q = separation.SeparationQuery(x, y, z, semantics, table)
    sep = separation.separated(g, q)
    dz = separation.effective_conditioning(q)
    swallowed = separation.determined_query_nodes(q)
    witness = None
    if not sep:
        witness = (separation.amp_witness if semantics == AMP else separation.lwf_witness)(g, q)
    return sep, dz, swallowed, witness


class PointQueries:
    """Why: no numpy and no enumeration; stresses D(Z) closure, route-state and
    moral reach and the witness search, reusing each graph's tables many times.

    Every run uses all pool graphs, so runs on different seeds do similar
    work; the seed picks a start offset into each graph's question list and
    the semantics of every question.
    """

    TRACE_ROUNDS = 384
    RSS_ROUNDS = 200  # a 30 s run on a 2-core Xeon VM does about 2000 rounds
    rusage = "self"
    PER_GRAPH = 4  # questions per graph in a round

    def __init__(self, seed, expected, ctx):
        rng = np.random.default_rng(seed)
        self.graphs = []
        for pool_seed, n in query_pool():
            g, table = fileformat.parse(query_graph_text(pool_seed, n))
            if graph.validate(g):
                raise ValueError(f"pool graph {pool_seed} is not a valid chain graph")
            self.graphs.append({
                "key": pool_seed, "g": g, "table": table, "queries": query_list(g, pool_seed),
                "offset": int(rng.integers(0, QUERIES_PER_GRAPH)),
                "sem": [AMP if b else LWF for b in rng.integers(0, 2, QUERIES_PER_GRAPH)],
                "bits": expected[str(pool_seed)],
                "checker": LiteralChecker(g),
            })
        warm = fileformat.parse(query_graph_text(1, 6))
        self.warm = (warm, query_list(warm[0], 1)[:32])

    def warm_up(self):
        (g, table), queries = self.warm
        for i, (x, y, z) in enumerate(queries):
            answer(g, table, x, y, z, (AMP, LWF)[i % 2])

    def rounds(self):
        for r in itertools.count():
            yield [(gi["key"], gi, (gi["offset"] + r * self.PER_GRAPH + i) % QUERIES_PER_GRAPH)
                   for i in range(self.PER_GRAPH) for gi in self.graphs]

    def do(self, spec):
        gi, qi = spec[1], spec[2]
        x, y, z = gi["queries"][qi]
        return answer(gi["g"], gi["table"], x, y, z, gi["sem"][qi])

    def check(self, spec, res):
        gi, qi = spec[1], spec[2]
        sep, dz, swallowed, witness = res
        x, y, z = gi["queries"][qi]
        want = int(gi["bits"][qi // 4], 16) >> (qi % 4) & 1
        if sep != bool(want):
            return f"query {qi}: {'separated' if sep else 'connected'}, expected the opposite"
        if not set(z) <= dz or swallowed != (set(x) | set(y)) & dz:
            return f"query {qi}: D(Z) {sorted(dz)} inconsistent with z {z}"
        if not sep:
            problem = gi["checker"].check(gi["sem"][qi], witness, set(x) - dz, set(y) - dz, dz)
            if problem:
                return f"query {qi} ({gi['sem'][qi]}): {problem}"
        return None


class LiteralChecker:
    """Checks a witness against the graph itself, independently of the engines."""

    def __init__(self, g):
        self.g = g
        comp = {}
        for v in sorted(g.nodes):
            if v in comp:
                continue
            members, stack = {v}, [v]
            while stack:
                for w in g.und_neighbors[stack.pop()]:
                    if w not in members:
                        members.add(w)
                        stack.append(w)
            for w in members:
                comp[w] = frozenset(members)
        self.components = {
            c: frozenset(p for m in c for p in g.dir_parents[m]) - c for c in set(comp.values())
        }

    def check(self, semantics, witness, xs, ys, dz):
        if not witness:
            return "connected without a witness"
        if semantics == AMP:
            return self._amp_route(witness, xs, ys, dz)
        return self._moral_path(witness, xs, ys, dz)

    def _amp_route(self, route, xs, ys, dz):
        g = self.g
        nodes = [v for v, _ in route]
        if nodes[0] not in xs or nodes[-1] not in ys:
            return "route does not run from x to y outside D(Z)"
        for (v, link), (w, _) in zip(route, route[1:]):
            present = {"->": (v, w) in g.directed, "<-": (w, v) in g.directed,
                       "--": tuple(sorted((v, w))) in g.undirected}.get(link, False)
            if not present:
                return f"no edge {v} {link} {w}"
        for i in range(1, len(route) - 1):
            left, right = route[i - 1][1], route[i][1]
            triplex = (left == "->" and right in ("<-", "--")) or (left == "--" and right == "<-")
            if triplex != (nodes[i] in dz):
                return f"{'triplex' if triplex else 'non-triplex'} visit at {nodes[i]} is blocked"
        return None

    def _moral_path(self, path, xs, ys, dz):
        g = self.g
        if path[0] not in xs or path[-1] not in ys:
            return "path does not run from x to y outside D(Z)"
        area = anterior(g, xs | ys | dz)
        for v in path:
            if v in dz or v not in area:
                return f"{v} is determined or outside the anterior set"
        for v, w in zip(path, path[1:]):
            if g.adjacent(v, w):
                continue
            if not any(c <= area and v in pa and w in pa for c, pa in self.components.items()):
                return f"{v} -- {w} is neither an edge nor a marriage"
        return None


def anterior(g, xs):
    """xs plus every node with a route into xs that never leaves against an arrow."""
    seen, stack = set(xs), list(xs)
    while stack:
        v = stack.pop()
        for w in g.dir_parents[v] | g.und_neighbors[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# ---------------------------------------------------------------------------
# cli-oneshot: cold command-line invocations, one process each

CLI_POOL = 8


def cli_pool_graph(k):
    return models.random_cg(4 + k % 2, 0.5, 300 + k)


def cli_commands(k, files):
    """The eleven one-shot commands for pool item k, keyed by command name."""
    g = cli_pool_graph(k)
    names = sorted(g.nodes)
    x, z, y = names[0], names[1], names[-1]
    gf, ef, mf = files
    return {
        "validate": ["validate", gf],
        "separate": ["separate", gf, "--semantics", (AMP, LWF)[k % 2], "--x", x, "--y", y, "--z", z, "--trace"],
        "determine": ["determine", ef, "--z", f"{x},{z}"],
        "to-eamp": ["to-eamp", gf],
        "to-dag": ["to-dag", ef],
        "marginalize": ["marginalize", ef, "--drop", y],
        "model": ["model", gf, "--semantics", LWF],
        "project": ["project", mf, "--l", x, "--s", z],
        "gen": ["gen", "--nodes", "5", "--seed", str(k)],
        "gauss-check": ["gauss-check", gf, "--seeds", "2", "--seed", str(k)],
        "equiv": ["equiv", gf, "--theorem", "1"],
    }


def cli_files(k, work):
    """Write pool item k's graph, augmented graph and model dump; return their paths."""
    g = cli_pool_graph(k)
    ep = transforms.to_eamp(g)
    return (
        write(os.path.join(work, f"cli{k}.cg"), fileformat.serialize(g)),
        write(os.path.join(work, f"cli{k}_eamp.cg"), fileformat.serialize(ep.graph, ep.table)),
        write(os.path.join(work, f"cli{k}.model"), models.enumerate_model(g, None, AMP).dumps()),
    )


CHILD_TAG = "perfbench-child "  # prefix of cli_child.py's report line


def run_child(argv, root, traced=False):
    """Run one cold process; return (exit code, stdout, child report or None, spawn time).

    Every child goes through cli_child.py, which runs the command as
    `python -m cgkit.cli` would and reports its own clock readings.
    """
    cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), *argv]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PERFBENCH_TRACE=str(int(traced)))
    spawn = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=root, timeout=150)
    report = None
    lines = proc.stderr.decode(errors="replace").splitlines()
    if lines and lines[-1].startswith(CHILD_TAG):
        report = json.loads(lines[-1][len(CHILD_TAG):])
    return proc.returncode, proc.stdout, report, spawn


class CliOneshot:
    """Why: pipeline users pay interpreter start and imports on every call,
    which none of the in-process workloads measure.

    A round runs all eleven commands, in a seeded order, on one pool item.
    Rounds walk the pool in turn from a seeded start, so 4- and 5-node items
    alternate and runs on different seeds do similar work.
    """

    TRACE_ROUNDS = 2
    RSS_ROUNDS = 4  # a 30 s run on a 2-core Xeon VM does about 15 rounds
    rusage = "children"

    def __init__(self, seed, expected, ctx):
        self.root = ctx.root
        self.traced = ctx.traced
        self.expected = expected
        self.rng = np.random.default_rng(seed)
        self.files = {k: cli_files(k, ctx.work) for k in range(CLI_POOL)}
        self.reports = []

    def warm_up(self):
        run_child(["validate", self.files[0][0]], self.root)

    def rounds(self):
        start = int(self.rng.integers(0, CLI_POOL))
        for r in itertools.count():
            k = (start + r) % CLI_POOL
            cmds = list(cli_commands(k, self.files[k]).items())
            self.rng.shuffle(cmds)
            yield [(k, name, argv) for name, argv in cmds]

    def do(self, spec):
        rc, out, report, spawn = run_child(spec[2], self.root, traced=self.traced)
        if report is not None:
            report["spawn"] = spawn
            self.reports.append(report)
        return rc, out

    def check(self, spec, res):
        want = self.expected[f"{spec[0]} {spec[1]}"]
        got = [res[0], digest(res[1])]
        return None if got == want else f"{spec[1]} on item {spec[0]}: got {got}, expected {want}"


WORKLOADS = {
    "corpus-sweep": CorpusSweep,
    "point-queries": PointQueries,
    "cli-oneshot": CliOneshot,
}
