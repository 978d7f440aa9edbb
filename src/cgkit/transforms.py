"""Error augmentation, selection-node conversion, and marginalization.

to_eamp rewrites a chain graph over variables into an equivalent form where
every variable gets an explicit error parent and all undirected structure
moves to the error layer.  to_selection_dag then trades each undirected
error edge for a common selection-node child, giving a DAG.  Error nodes
can be marginalized back out one variable at a time.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .determinism import DeterminationTable, eamp_rules
from .errors import StructureError
from .graph import ERROR, SELECTION, VARIABLE, ChainGraph, error_name, selection_name, validate


class EampGraph(NamedTuple):
    """An error-augmented chain graph with its determination table."""

    graph: ChainGraph
    table: DeterminationTable
    variable_set: frozenset


def to_eamp(g: ChainGraph) -> EampGraph:
    """Attach an error parent to every variable and lift undirected edges.

    The input must be a valid chain graph over variable nodes only.  The
    output has twice the nodes, eps(a) -> a for every a, the original
    directed edges, eps(a) - eps(b) for every a - b, and no flags.
    """
    problems = validate(g)
    if problems:
        raise StructureError("; ".join(problems))
    if any(k != VARIABLE for k in g.nodes.values()):
        raise StructureError("error augmentation expects variable nodes only")
    nodes = dict(g.nodes)
    directed = set(g.directed)
    for a in g.nodes:
        nodes[error_name(a)] = ERROR
        directed.add((error_name(a), a))
    undirected = {(error_name(a), error_name(b)) for a, b in g.undirected}
    out = ChainGraph(nodes, directed, undirected)
    return EampGraph(out, eamp_rules(out), frozenset(g.nodes))


def eamp_from_graph(g: ChainGraph) -> EampGraph:
    """Wrap an already augmented graph, e.g. one read back from a file."""
    problems = validate(g)
    if problems:
        raise StructureError("; ".join(problems))
    if g.selection_nodes:
        raise StructureError("selection nodes do not belong in an error-augmented graph")
    for a, b in g.undirected:
        if g.nodes[a] != ERROR or g.nodes[b] != ERROR:
            raise StructureError(f"undirected edge {a} - {b} off the error layer")
    for e in g.error_nodes:
        if g.dir_parents[e] or g.und_neighbors[e] & set(g.variables):
            raise StructureError(f"error node {e} has incoming edges")
    return EampGraph(g, eamp_rules(g), frozenset(g.variables))


def to_selection_dag(ep: EampGraph):
    """Replace each undirected error edge with a fresh common child.

    Returns the resulting DAG and the set of selection-node names.  The
    determination table is unchanged; conditioning on the selection nodes
    restores the dropped couplings.
    """
    g = ep.graph
    nodes = dict(g.nodes)
    directed = set(g.directed)
    selection = set()
    for a, b in g.undirected:
        s = selection_name(a, b)
        nodes[s] = SELECTION
        directed.add((a, s))
        directed.add((b, s))
        selection.add(s)
    return ChainGraph(nodes, directed, ()), frozenset(selection)


def marginalize_eamp(ep: EampGraph, drop: Iterable[str]) -> EampGraph:
    """Marginalize variable nodes out of an error-augmented graph.

    Eliminating b bridges every directed parent of b to every directed
    child; the result does not depend on elimination order.  Error nodes
    left without their variable stay in the graph and lose their rule.
    """
    order = list(drop)
    dropset = set(order)
    if len(order) != len(dropset):
        raise ValueError("duplicate nodes in marginalization list")
    bad = dropset - ep.variable_set
    if bad:
        raise ValueError(f"can only marginalize variable nodes, got: {', '.join(sorted(bad))}")

    nodes = dict(ep.graph.nodes)
    directed = set(ep.graph.directed)
    parents = {v: set(ps) for v, ps in ep.graph.dir_parents.items()}
    children = {v: set(cs) for v, cs in ep.graph.dir_children.items()}
    for b in order:
        for a in parents[b]:
            for c in children[b]:
                if (c, a) in directed or tuple(sorted((a, c))) in ep.graph.undirected:
                    raise StructureError(
                        f"eliminating {b} would put a second edge between {a} and {c}"
                    )
                if (a, c) not in directed:
                    directed.add((a, c))
                    parents[c].add(a)
                    children[a].add(c)
        for a in parents[b]:
            children[a].discard(b)
            directed.discard((a, b))
        for c in children[b]:
            parents[c].discard(b)
            directed.discard((b, c))
        del nodes[b], parents[b], children[b]

    out = ChainGraph(nodes, directed, ep.graph.undirected)
    return EampGraph(out, eamp_rules(out), ep.variable_set - dropset)
