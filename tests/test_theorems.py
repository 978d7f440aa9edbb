"""Each theorem side is one enumeration; the augmented model, projected, is the reference."""

from cgkit.models import enumerate_model, project_model
from cgkit.theorems import theorem_sides

from _corpus import exhaustive_3node, random_corpus

GRAPHS = exhaustive_3node() + [g for _, g in random_corpus(100)]
CLAIMS = [("1", 0), ("4", 0), ("4", 1), ("c1", 0), ("c2", 0)]


def test_each_side_dumps_what_enumerate_then_project_dumps():
    full = {}  # the model over every node a side does not condition on; theorem 4's draws share it

    def projected(side):
        key = (side.graph, side.table, side.semantics, side.condition_on)
        if key not in full:
            nodes = sorted(set(side.graph.nodes) - side.condition_on)
            full[key] = enumerate_model(*key[:3], nodes, condition_on=side.condition_on)
        return project_model(full[key], set(full[key].universe) - set(side.universe))

    for which, seed in CLAIMS:
        sides = 0
        for g in GRAPHS:
            for pair in theorem_sides(g, which, seed):
                for side in pair:
                    assert side.model().dumps() == projected(side).dumps(), (which, seed, side.label, g)
                    sides += 1
        assert sides >= 2 * len(GRAPHS), (which, seed)
