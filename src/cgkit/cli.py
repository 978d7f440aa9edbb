"""Command-line surface.

Exit codes: 0 for success / separated / pass, 1 for connected / violations /
counterexample, 2 for usage, parse, or input errors, 3 for guard refusals.
Diagnostics go to standard error, one "cgkit: <category>: ..." line each.
FILE arguments accept "-" for standard input.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fileformat
from .errors import GuardError, NumericError, ParseError, QueryError, StructureError
from .graph import AMP, SEMANTICS, VARIABLE, ChainGraph, _split_names, validate

# Each command imports the layers it runs when it runs, so a cold command
# compiles only those: validate needs no model code, and only gauss-check
# and equiv --theorem 4 load numpy.


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _names(arg: str | None):
    return _split_names(arg) if arg else ()


def _require_valid(g: ChainGraph):
    problems = validate(g)
    if problems:
        raise StructureError("; ".join(problems))


def _require_plain(g: ChainGraph, table, who: str):
    if table.rules:
        raise StructureError(f"{who} expects a file without determination rules")
    if any(k != VARIABLE for k in g.nodes.values()):
        raise StructureError(f"{who} expects variable nodes only")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _default_seed() -> int:
    env = os.environ.get("CGKIT_SEED")
    return int(env) if env else 0


def _witness(g: ChainGraph, q) -> str:
    """The open route (AMP) or moral path (LWF) of a connected query."""
    from .separation import amp_witness, lwf_witness

    if q.semantics == AMP:
        # amp_witness shape: [(node, "->"|"<-"|"--"), ..., (last, None)]
        return f"open route: {' '.join(part for step in amp_witness(g, q) for part in step if part)}"
    return f"open moral path: {' -- '.join(lwf_witness(g, q))}"


def _trace(g: ChainGraph, q, sep: bool):
    from .separation import determined_query_nodes, effective_conditioning

    dz = sorted(effective_conditioning(q))
    print(f"# D(Z) = {', '.join(dz) if dz else '(empty)'}")
    swallowed = sorted(determined_query_nodes(q))
    if swallowed:
        print(f"# query nodes determined by Z, blocked as endpoints: {', '.join(swallowed)}")
    print("# every route between x and y is blocked given D(Z)" if sep else f"# {_witness(g, q)}")


def _cmd_validate(args) -> int:
    g, _ = fileformat.parse(_read(args.file))
    problems = validate(g)
    for p in problems:
        print(p)
    if problems:
        return 1
    print("ok")
    return 0


def _cmd_separate(args) -> int:
    from .separation import SeparationQuery, separated

    g, table = fileformat.parse(_read(args.file))
    _require_valid(g)
    q = SeparationQuery(_names(args.x), _names(args.y), _names(args.z), args.semantics, table)
    sep = separated(g, q)
    if args.trace:
        _trace(g, q, sep)
    print("separated" if sep else "connected")
    return 0 if sep else 1


def _cmd_determine(args) -> int:
    from .determinism import determined_set

    g, table = fileformat.parse(_read(args.file))
    z = _names(args.z)
    missing = [v for v in z if v not in g.nodes]
    if missing:
        raise QueryError(f"unknown nodes: {', '.join(missing)}")
    for v in sorted(determined_set(table, z)):
        print(v)
    return 0


def _cmd_to_eamp(args) -> int:
    from .transforms import to_eamp

    g, table = fileformat.parse(_read(args.file))
    _require_plain(g, table, "to-eamp")
    ep = to_eamp(g)
    sys.stdout.write(fileformat.serialize(ep.graph, ep.table))
    return 0


def _eamp_input(args):
    from .transforms import eamp_from_graph

    g, table = fileformat.parse(_read(args.file))
    ep = eamp_from_graph(g)
    if table.rules and table != ep.table:
        raise StructureError("determination rules in file do not match the error-augmentation pattern")
    return ep


def _cmd_to_dag(args) -> int:
    from .transforms import to_selection_dag

    ep = _eamp_input(args)
    dag, _sel = to_selection_dag(ep)
    sys.stdout.write(fileformat.serialize(dag, ep.table))
    return 0


def _cmd_marginalize(args) -> int:
    from .transforms import marginalize_eamp

    ep = _eamp_input(args)
    out = marginalize_eamp(ep, _names(args.drop))
    sys.stdout.write(fileformat.serialize(out.graph, out.table))
    return 0


def _cmd_model(args) -> int:
    from .models import enumerate_model

    g, table = fileformat.parse(_read(args.file))
    _require_valid(g)
    universe = _names(args.universe) if args.universe else None
    m = enumerate_model(g, table, args.semantics, universe)
    sys.stdout.write(m.dumps())
    return 0


def _cmd_project(args) -> int:
    from .models import IndependenceModel, project_model

    m = IndependenceModel.loads(_read(args.file))
    out = project_model(m, _names(args.l), _names(args.s))
    sys.stdout.write(out.dumps())
    return 0


def _side_trace(side, x, y, z) -> str:
    """The verdict on (x, y, z) behind one side of an equivalence, with its witness."""
    from .separation import SeparationQuery, separated

    q = SeparationQuery(x, y, set(z) | side.condition_on, side.semantics, side.table)
    return "separated" if separated(side.graph, q) else f"connected, {_witness(side.graph, q)}"


def _cmd_equiv(args) -> int:
    from .models import model_diff
    from .theorems import theorem_sides

    g, table = fileformat.parse(_read(args.file))
    _require_plain(g, table, "equiv")
    _require_valid(g)
    for left, right in theorem_sides(g, args.theorem, args.seed):
        ml, mr = left.model(), right.model()
        if ml == mr:
            continue
        only_l, only_r = model_diff(ml, mr)
        x, y, z = (only_l or only_r)[0]
        where = left.label if only_l else right.label
        print(f"counterexample: theorem {args.theorem}")
        print(f"triple: {','.join(x)} | {','.join(y)} | {','.join(z) if z else '-'}")
        print(f"present only in: {where}")
        print(f"left  ({left.label}): {_side_trace(left, x, y, z)}")
        print(f"right ({right.label}): {_side_trace(right, x, y, z)}")
        print("# input graph")
        sys.stdout.write(fileformat.serialize(g))
        for side in (left, right):
            if side.graph is not g:
                print(f"# graph behind: {side.label}")
                sys.stdout.write(fileformat.serialize(side.graph, side.table))
        return 1
    print("pass")
    return 0


def _cmd_gauss_check(args) -> int:
    from .gaussian import markov_check, sample_system
    from .models import enumerate_model

    g, table = fileformat.parse(_read(args.file))
    _require_plain(g, table, "gauss-check")
    _require_valid(g)
    model = enumerate_model(g, None, AMP)
    failures = 0
    for k in range(args.seeds):
        seed = args.seed + k
        sys_k = sample_system(g, seed)
        report = markov_check(g, sys_k, model)
        print(f"# seed {seed}")
        sys.stdout.write(report.render())
        failures += len(report.violations)
    print(f"# total violations over {args.seeds} seeds: {failures}")
    return 1 if failures else 0


def _cmd_gen(args) -> int:
    from .models import random_cg

    g = random_cg(args.nodes, args.density, args.seed)
    sys.stdout.write(fileformat.serialize(g))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cgkit",
        description="Chain-graph separation, transforms, models, and Gaussian checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", _cmd_validate, "check chain-graph structural invariants")
    sp.add_argument("file")

    sp = add("separate", _cmd_separate, "decide x ⊥ y | z")
    sp.add_argument("file")
    sp.add_argument("--semantics", required=True, choices=SEMANTICS)
    sp.add_argument("--x", required=True, help="comma-separated node names")
    sp.add_argument("--y", required=True)
    sp.add_argument("--z", default="")
    sp.add_argument("--trace", action="store_true", help="print the witness route or blocking summary")

    sp = add("determine", _cmd_determine, "list D(Z) under the file's rules")
    sp.add_argument("file")
    sp.add_argument("--z", default="")

    sp = add("to-eamp", _cmd_to_eamp, "augment every variable with an error parent")
    sp.add_argument("file")

    sp = add("to-dag", _cmd_to_dag, "turn undirected error edges into selection colliders")
    sp.add_argument("file")

    sp = add("marginalize", _cmd_marginalize, "eliminate variables from an augmented graph")
    sp.add_argument("file")
    sp.add_argument("--drop", required=True, help="comma-separated variables to remove")

    sp = add("model", _cmd_model, "enumerate the full separation model")
    sp.add_argument("file")
    sp.add_argument("--semantics", required=True, choices=SEMANTICS)
    sp.add_argument("--universe", default="", help="restrict to these nodes (default: all)")

    sp = add("project", _cmd_project, "marginalize/condition a model dump")
    sp.add_argument("file", help="model dump file or -")
    sp.add_argument("--l", default="", help="nodes to marginalize out")
    sp.add_argument("--s", default="", help="nodes to condition on")

    sp = add("equiv", _cmd_equiv, "check a model equivalence on the file's graph")
    sp.add_argument("file")
    sp.add_argument("--theorem", required=True, choices=["1", "2", "3", "4", "c1", "c2"])
    sp.add_argument("--seed", type=int, default=_default_seed())

    sp = add("gauss-check", _cmd_gauss_check, "verify separations against sampled covariances")
    sp.add_argument("file")
    sp.add_argument("--seeds", type=_positive_int, default=1, help="number of consecutive seeds")
    sp.add_argument("--seed", type=int, default=_default_seed(), help="first seed")

    sp = add("gen", _cmd_gen, "sample a random valid chain graph")
    sp.add_argument("--nodes", type=int, required=True)
    sp.add_argument("--density", type=float, default=0.5)
    sp.add_argument("--seed", type=int, default=_default_seed())

    return p


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 2
    try:
        return args.fn(args)
    except ParseError as e:
        for ln, msg in e.problems:
            print(f"cgkit: parse: line {ln}: {msg}", file=sys.stderr)
        return 2
    except GuardError as e:
        print(f"cgkit: guard: {e}", file=sys.stderr)
        return 3
    except (QueryError, StructureError, NumericError, ValueError, OSError) as e:
        print(f"cgkit: error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
