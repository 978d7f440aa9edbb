"""Plain-text graph files.

Format: a "cgfile 1" header, then one directive per line.

    node <name> [variable|error|selection]
    edge <a> -> <b>
    edge <a> -- <b>
    det <target> <- <d1> <d2> ...

Comment lines start with "#"; blank lines are ignored.  Kind defaults to
variable and is omitted on output, so serialization is byte stable and
parse(serialize(g)) round-trips.
"""

from __future__ import annotations

from .determinism import DeterminationTable
from .errors import ParseError
from .graph import NODE_KINDS, VARIABLE, ChainGraph, name_problem

HEADER = "cgfile 1"

# tokens with directive meaning can never be node names
_RESERVED = {"->", "--", "<-"}


def _significant(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line.split()


def parse(text: str):
    """Parse a graph file into (ChainGraph, DeterminationTable).

    Collects every problem before raising, so a bad file yields one
    ParseError listing all offending lines.
    """
    problems = []
    lines = list(_significant(text))
    if lines and lines[0][1] == HEADER.split():
        body = lines[1:]
    elif lines and lines[0][1][0] == "cgfile":
        problems.append((lines[0][0], f"unsupported graph file version, expected {HEADER!r}"))
        body = lines[1:]
    else:
        problems.append((lines[0][0] if lines else 1, f"expected header {HEADER!r}"))
        body = lines

    nodes: dict = {}
    for ln, toks in body:
        if toks[0] != "node":
            continue
        if len(toks) not in (2, 3):
            problems.append((ln, "malformed node line, expected: node <name> [kind]"))
            continue
        name = toks[1]
        if name in _RESERVED:
            problems.append((ln, f"reserved token {name!r} cannot be a node name"))
            continue
        problem = name_problem(name)
        if problem:
            problems.append((ln, f"bad node name {name!r}: {problem}"))
            continue
        kind = toks[2] if len(toks) == 3 else VARIABLE
        if kind not in NODE_KINDS:
            problems.append((ln, f"unknown node kind {kind!r}"))
            continue
        if name in nodes:
            problems.append((ln, f"duplicate node {name}"))
            continue
        nodes[name] = kind

    def known(ln, name):
        if name in nodes:
            return True
        problems.append((ln, f"unknown endpoint {name}"))
        return False

    directed, undirected, rules = set(), set(), set()
    for ln, toks in body:
        head = toks[0]
        if head == "node":
            continue
        if head == "edge":
            if len(toks) != 4 or toks[2] not in ("->", "--"):
                problems.append((ln, "malformed edge line, expected: edge <a> -> <b> or edge <a> -- <b>"))
                continue
            a, op, b = toks[1], toks[2], toks[3]
            if not (known(ln, a) and known(ln, b)):
                continue
            if a == b:
                problems.append((ln, f"self-loop on {a}"))
                continue
            if op == "->":
                directed.add((a, b))
            else:
                undirected.add((a, b))
        elif head == "det":
            if len(toks) < 4 or toks[2] != "<-":
                problems.append((ln, "malformed det line, expected: det <target> <- <d1> ..."))
                continue
            target, dets = toks[1], toks[3:]
            if not all([known(ln, target)] + [known(ln, d) for d in dets]):
                continue
            if target in dets:
                problems.append((ln, f"target {target} appears among its determinants"))
                continue
            rules.add((frozenset(dets), target))
        else:
            problems.append((ln, f"unknown directive {head!r}"))

    if problems:
        raise ParseError(problems)
    return ChainGraph(nodes, directed, undirected), DeterminationTable(rules)


def serialize(g: ChainGraph, table: DeterminationTable | None = None) -> str:
    out = [HEADER]
    for v in sorted(g.nodes):
        k = g.nodes[v]
        out.append(f"node {v}" if k == VARIABLE else f"node {v} {k}")
    for a, b in sorted(g.directed):
        out.append(f"edge {a} -> {b}")
    for a, b in sorted(g.undirected):
        out.append(f"edge {a} -- {b}")
    if table:
        for dets, target in sorted(table.rules, key=lambda r: (r[1], tuple(sorted(r[0])))):
            out.append(f"det {target} <- {' '.join(sorted(dets))}")
    return "\n".join(out) + "\n"
