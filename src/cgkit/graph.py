"""Chain graph representation and structural queries.

A chain graph mixes directed and undirected edges and has no semidirected
cycle (a cycle that uses at least one directed edge, with every directed
edge on it pointing the same way around).  Graphs here are immutable
values: transforms build new graphs, queries are read-only, and instances
can be shared freely across threads.  The separation engines keep derived
tables in slots of the graph itself, so they are freed with it.

Construction accepts structurally broken input on purpose; ``validate``
reports the problems as data instead of raising.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping

from .errors import QueryError

VARIABLE = "variable"
ERROR = "error"
SELECTION = "selection"
NODE_KINDS = (VARIABLE, ERROR, SELECTION)

# the two semantics a chain graph's separations are read under (separation.py)
AMP = "amp"
LWF = "lwf"
SEMANTICS = (AMP, LWF)


def error_name(variable: str) -> str:
    """Name of the error node attached to a variable node."""
    return f"eps({variable})"


def selection_name(a: str, b: str) -> str:
    """Name of the selection node for an unordered pair of error nodes."""
    lo, hi = sorted((a, b))
    return f"sel({lo},{hi})"


def name_problem(name) -> str | None:
    """Why name cannot be a node name, or None if it can.

    A name must read back the same from a graph file, a model dump line
    (x | y | z, each a comma-separated list or "-") and a CLI name list, so
    it is a nonempty string without whitespace, does not start with "#"
    (a comment), is not "-" (the empty list), and keeps "," and "|" inside
    balanced parentheses, as in sel(eps(A),eps(B)).
    """
    if isinstance(name, str) and name.isalnum():
        return None  # letters and digits only: the grammar finds nothing
    return _grammar_problem(name)


def _grammar_problem(name) -> str | None:
    """name_problem without its fast path for letters and digits."""
    if not isinstance(name, str) or not name or any(c.isspace() for c in name):
        return "names are nonempty strings without whitespace"
    if name[0] == "#":
        return "a leading '#' starts a comment"
    if name == "-":
        return "'-' stands for the empty list"
    depth = 0
    for c in name:
        depth += (c == "(") - (c == ")")
        if depth < 0:
            break
        if c in ",|" and not depth:
            return f"{c!r} outside parentheses separates names"
    if depth:
        return "unbalanced parentheses"
    return None


def _split_names(field: str, known=()):
    """Split a comma-separated name list, respecting parentheses, and refuse
    a part outside known that is not a node name."""
    if field == "-":
        return ()
    parts, depth, start = [], 0, 0
    for i, c in enumerate(field):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(field[start:i])
            start = i + 1
    parts.append(field[start:])
    for part in parts:
        problem = part not in known and name_problem(part)
        if problem:
            raise ValueError(f"bad node name {part!r}: {problem}")
    return tuple(parts)


def _freeze_nodes(nodes) -> dict:
    if isinstance(nodes, Mapping):
        items = dict(nodes)
    else:
        items = {name: VARIABLE for name in nodes}
    for name, kind in items.items():
        problem = name_problem(name)
        if problem:
            raise ValueError(f"bad node name {name!r}: {problem}")
        if kind not in NODE_KINDS:
            raise ValueError(f"bad node kind for {name}: {kind!r}")
    return items


class ChainGraph:
    """Immutable mixed graph over named, kinded nodes.

    nodes maps name to kind (or pass an iterable of names, all "variable").
    directed holds (tail, head) pairs; undirected pairs are stored sorted.
    """

    __slots__ = (
        "nodes", "directed", "undirected",
        "dir_parents", "dir_children", "und_neighbors",
        "_key", "_hash",
        # derived tables the separation engines fill on first use: the
        # bitmask tables both engines search, and the path oracle's neighbours
        "_masks", "_all_neighbors",
        "__weakref__",
    )

    def __init__(self, nodes, directed: Iterable = (), undirected: Iterable = ()):
        self.nodes = _freeze_nodes(nodes)
        self.directed = frozenset((a, b) for a, b in directed)
        self.undirected = frozenset(tuple(sorted((a, b))) for a, b in undirected)

        parents: dict = {name: set() for name in self.nodes}
        children: dict = {name: set() for name in self.nodes}
        neighbors: dict = {name: set() for name in self.nodes}
        for a, b in self.directed:
            # adjacency covers declared, loop-free edges; validate flags the rest
            if a in self.nodes and b in self.nodes and a != b:
                children[a].add(b)
                parents[b].add(a)
        for a, b in self.undirected:
            if a in self.nodes and b in self.nodes and a != b:
                neighbors[a].add(b)
                neighbors[b].add(a)
        self.dir_parents = {k: frozenset(v) for k, v in parents.items()}
        self.dir_children = {k: frozenset(v) for k, v in children.items()}
        self.und_neighbors = {k: frozenset(v) for k, v in neighbors.items()}
        self._key = (frozenset(self.nodes.items()), self.directed, self.undirected)
        self._hash = hash(self._key)
        self._masks = self._all_neighbors = None

    def kind(self, name: str) -> str:
        return self.nodes[name]

    def nodes_of_kind(self, kind: str) -> tuple:
        return tuple(sorted(n for n, k in self.nodes.items() if k == kind))

    @property
    def variables(self) -> tuple:
        return self.nodes_of_kind(VARIABLE)

    @property
    def error_nodes(self) -> tuple:
        return self.nodes_of_kind(ERROR)

    @property
    def selection_nodes(self) -> tuple:
        return self.nodes_of_kind(SELECTION)

    def adjacent(self, a: str, b: str) -> bool:
        return (
            (a, b) in self.directed
            or (b, a) in self.directed
            or tuple(sorted((a, b))) in self.undirected
        )

    def __eq__(self, other):
        return isinstance(other, ChainGraph) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"ChainGraph({len(self.nodes)} nodes, "
            f"{len(self.directed)} directed, {len(self.undirected)} undirected)"
        )


def _require_nodes(g: ChainGraph, xs) -> frozenset:
    xs = frozenset(xs)
    unknown = xs - g.nodes.keys()
    if unknown:
        raise QueryError(f"unknown nodes: {', '.join(sorted(unknown))}")
    return xs


def parents(g: ChainGraph, x: Iterable[str]) -> frozenset:
    """Nodes outside x with a directed edge into some member of x."""
    xs = _require_nodes(g, x)
    out = set()
    for v in xs:
        out |= g.dir_parents[v]
    return frozenset(out - xs)


def strict_ascendants(g: ChainGraph, x: Iterable[str]) -> frozenset:
    """Nodes outside x that reach x along a strictly descending route.

    Every edge on such a route is directed and points toward x.
    """
    xs = _require_nodes(g, x)
    seen = set(xs)
    stack = list(xs)
    while stack:
        for p in g.dir_parents[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return frozenset(seen - xs)


def components(g: ChainGraph) -> list:
    """Partition of the nodes into undirected connectivity components."""
    seen = set()
    parts = []
    for start in sorted(g.nodes):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in g.und_neighbors[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        parts.append(frozenset(comp))
    return sorted(parts, key=min)


def component_topological_order(g: ChainGraph) -> list:
    """Components ordered so directed edges only run from earlier to later.

    Ties are broken by smallest member name, which keeps the order stable.
    The graph must be a valid chain graph for the order to exist.
    """
    parts = components(g)
    comp_of = {v: i for i, part in enumerate(parts) for v in part}
    incoming = {i: set() for i in range(len(parts))}
    for a, b in g.directed:
        ca, cb = comp_of.get(a), comp_of.get(b)
        if ca is not None and cb is not None and ca != cb:
            incoming[cb].add(ca)
    order = []
    placed = set()
    remaining = set(range(len(parts)))
    while remaining:
        ready = [i for i in remaining if incoming[i] <= placed]
        if not ready:
            raise QueryError("component quotient is cyclic; not a chain graph")
        nxt = min(ready, key=lambda i: min(parts[i]))
        order.append(parts[nxt])
        placed.add(nxt)
        remaining.remove(nxt)
    return order


def find_flags(g: ChainGraph) -> list:
    """All induced subgraphs a -> b - c (a and c non-adjacent), sorted."""
    out = []
    for a, b in g.directed:
        if a not in g.nodes or b not in g.nodes:
            continue
        for c in g.und_neighbors[b]:
            if c != a and not g.adjacent(a, c):
                out.append((a, b, c))
    return sorted(out)


def _quotient_sccs(parts, edges):
    # iterative Tarjan over the component quotient
    n = len(parts)
    adj = {i: sorted(edges.get(i, ())) for i in range(n)}
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in range(n):
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def validate(g: ChainGraph) -> list:
    """Structural violations as strings; empty means g is a valid chain graph.

    Checks edge endpoint closure, self-loops, simplicity (at most one edge
    per node pair), and absence of semidirected cycles.
    """
    violations = []
    known = g.nodes.keys()
    for a, b in sorted(g.directed):
        for end in (a, b):
            if end not in known:
                violations.append(f"edge endpoint {end} is not a declared node")
        if a == b:
            violations.append(f"self-loop at {a}")
    for a, b in sorted(g.undirected):
        for end in (a, b):
            if end not in known:
                violations.append(f"edge endpoint {end} is not a declared node")
        if a == b:
            violations.append(f"self-loop at {a}")

    pair_counts: dict = {}
    for a, b in g.directed:
        if a != b:
            pair_counts[tuple(sorted((a, b)))] = pair_counts.get(tuple(sorted((a, b))), 0) + 1
    for a, b in g.undirected:
        if a != b:
            pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
    for (a, b), count in sorted(pair_counts.items()):
        if count > 1:
            violations.append(f"multiple edges between {a} and {b}")

    parts = components(g)
    comp_of = {v: i for i, part in enumerate(parts) for v in part}
    quotient: dict = {}
    for a, b in sorted(g.directed):
        if a not in known or b not in known or a == b:
            continue
        ca, cb = comp_of[a], comp_of[b]
        if ca == cb:
            violations.append(
                f"semidirected cycle: directed edge {a} -> {b} closes an undirected path"
            )
        else:
            quotient.setdefault(ca, set()).add(cb)
    for scc in _quotient_sccs(parts, quotient):
        if len(scc) > 1:
            members = sorted(v for i in scc for v in parts[i])
            violations.append("semidirected cycle through: " + ", ".join(members))
    return violations
