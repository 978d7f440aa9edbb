"""The paper's equivalence theorems, each as pairs of model specifications.

A theorem asserts that two independence models are equal.  A Side names one
of them: a graph with its determination table, a semantics, the universe the
model ranges over, and the nodes every conditioning set includes.  Theorems
1, 4, c1 and c2 speak of models with the error layer marginalized, so their
sides range over the variables (minus theorem 4's marginal set), and
enumerate_model builds each from the augmented graph without its 4^n
conditioning sets.  Theorems 2 and 3 compare models over every node of the
augmented graph.
"""

from __future__ import annotations

from typing import NamedTuple

from .determinism import DeterminationTable
from .errors import GuardError
from .graph import AMP, LWF, ChainGraph
from .models import MAX_MODEL_NODES, IndependenceModel, enumerate_model
from .transforms import marginalize_eamp, to_eamp, to_selection_dag


class Side(NamedTuple):
    """The model of graph over universe, every conditioning set joined by condition_on."""

    label: str
    graph: ChainGraph
    table: DeterminationTable
    semantics: str
    universe: tuple
    condition_on: frozenset = frozenset()

    def model(self) -> IndependenceModel:
        return enumerate_model(self.graph, self.table, self.semantics, self.universe,
                               condition_on=self.condition_on)


def theorem_sides(g: ChainGraph, which: str, seed: int):
    """The (left, right) sides an equivalence claim asserts equal.

    Theorem 4 draws several random marginal sets; the rest yield one pair.
    """
    ep = to_eamp(g)
    gp = ep.graph
    names = tuple(sorted(g.nodes))
    full = tuple(sorted(gp.nodes))
    direct = Side("direct model", g, DeterminationTable(), AMP, names)
    if which == "1":
        return [(direct, Side("error-augmented model, error layer marginalized", gp, ep.table, AMP, names))]
    if which == "2":
        return [(
            Side("triplex semantics on the error-augmented graph", gp, ep.table, AMP, full),
            Side("section semantics on the error-augmented graph", gp, ep.table, LWF, full),
        )]
    if which == "3":
        dag, sel = to_selection_dag(ep)
        return [(
            Side("section semantics on the error-augmented graph", gp, ep.table, LWF, full),
            Side("section semantics on the selection graph given the selection nodes",
                 dag, ep.table, LWF, full, sel),
        )]
    if which == "4":
        import numpy as np

        rng = np.random.default_rng(seed)
        if len(names) < 2:
            return []
        # the bound the other theorems' models over the variables meet
        if len(names) > MAX_MODEL_NODES:
            raise GuardError(f"{len(names)} variables; guard allows {MAX_MODEL_NODES}")
        out = []
        for _ in range(3):
            k = int(rng.integers(1, len(names)))
            l = sorted(str(v) for v in rng.choice(names, size=k, replace=False))
            rest = tuple(v for v in names if v not in l)
            ml = marginalize_eamp(ep, l)
            out.append((
                Side(f"model marginalized over {{{','.join(l)}}} and the error layer",
                     gp, ep.table, AMP, rest),
                Side(f"model of the graph marginalized over {{{','.join(l)}}}",
                     ml.graph, ml.table, AMP, rest),
            ))
        return out
    if which == "c1":
        return [(direct, Side("section semantics on the error-augmented graph, error layer marginalized",
                              gp, ep.table, LWF, names))]
    if which == "c2":
        dag, sel = to_selection_dag(ep)
        return [(direct, Side("section semantics on the selection graph given selection nodes, "
                              "error layer marginalized", dag, ep.table, LWF, names, sel))]
    raise ValueError(f"unknown theorem {which!r}")
