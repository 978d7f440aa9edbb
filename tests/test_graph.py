import pytest
from hypothesis import given, strategies as st

from cgkit.errors import QueryError
from cgkit.graph import (
    ERROR,
    SELECTION,
    VARIABLE,
    ChainGraph,
    component_topological_order,
    components,
    error_name,
    _grammar_problem,
    find_flags,
    name_problem,
    parents,
    selection_name,
    strict_ascendants,
    validate,
)
from cgkit.models import random_cg

from _corpus import demo_graph


def test_demo_is_valid():
    assert validate(demo_graph()) == []


def test_node_kinds_and_names():
    g = ChainGraph({"A": VARIABLE, "eps(A)": ERROR, "sel(a,b)": SELECTION}, [("eps(A)", "A")], [])
    assert g.kind("eps(A)") == ERROR
    assert set(g.variables) == {"A"}
    assert set(g.error_nodes) == {"eps(A)"}
    assert set(g.selection_nodes) == {"sel(a,b)"}
    assert error_name("A") == "eps(A)"
    assert selection_name("eps(B)", "eps(A)") == "sel(eps(A),eps(B))"  # sorted pair


def test_rejects_bad_node_names_and_kinds():
    with pytest.raises(ValueError):
        ChainGraph({"": VARIABLE}, [], [])
    with pytest.raises(ValueError):
        ChainGraph({"a b": VARIABLE}, [], [])
    with pytest.raises(ValueError):
        ChainGraph({"A": "banana"}, [], [])


@pytest.mark.parametrize("name", ["#x", "-", "a,b", "a|b", "f(a", "a)b(", "f(a))"])
def test_rejects_names_that_would_not_read_back(name):
    with pytest.raises(ValueError, match="bad node name"):
        ChainGraph([name, "B"], [(name, "B")], [])


def test_accepts_separators_inside_parentheses():
    names = ["sel(eps(A),eps(B))", "f(a|b)", "a-b", "x#1", "eps(eps(A))"]
    assert list(ChainGraph(names).nodes) == names


def test_iterable_nodes_default_to_variable():
    g = ChainGraph(["A", "B"], [("A", "B")], [])
    assert g.kind("A") == VARIABLE


def test_semidirected_cycle_via_undirected_path():
    g = ChainGraph(["A", "B", "C"], [("A", "B")], [("B", "C"), ("C", "A")])
    problems = validate(g)
    assert len(problems) == 1
    assert "semidirected cycle" in problems[0]


def test_directed_cycle_across_components():
    g = ChainGraph(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")], [])
    problems = validate(g)
    assert any("semidirected cycle through" in p for p in problems)


def test_multi_edge_and_self_loop_reported():
    g = ChainGraph(["A", "B"], [("A", "B")], [("A", "B")])
    assert any("one edge" in p or "multiple" in p for p in validate(g))
    g2 = ChainGraph(["A"], [("A", "A")], [])
    assert any("self" in p for p in validate(g2))


def test_undeclared_endpoint_reported():
    g = ChainGraph(["A"], [("A", "Q")], [])
    assert any("Q" in p for p in validate(g))


def test_parents_and_ascendants_demo():
    g = demo_graph()
    assert parents(g, {"D"}) == frozenset({"A", "B"})
    assert parents(g, {"C", "D"}) == frozenset({"A", "B"})
    assert strict_ascendants(g, {"D"}) == frozenset({"A", "B"})
    assert strict_ascendants(g, {"B"}) == frozenset({"A"})
    assert strict_ascendants(g, {"A"}) == frozenset()


def test_query_on_unknown_node_raises():
    with pytest.raises(QueryError):
        parents(demo_graph(), {"Q"})


def test_components_demo():
    g = demo_graph()
    assert components(g) == [
        frozenset({"A"}),
        frozenset({"B"}),
        frozenset({"C", "D", "E", "F"}),
    ]
    order = component_topological_order(g)
    assert order == [frozenset({"A"}), frozenset({"B"}), frozenset({"C", "D", "E", "F"})]


def test_topological_order_respects_arrows():
    g = ChainGraph(["A", "B", "C"], [("C", "A")], [])
    order = component_topological_order(g)
    assert order.index(frozenset({"C"})) < order.index(frozenset({"A"}))


def test_find_flags_demo():
    assert find_flags(demo_graph()) == [
        ("A", "C", "E"),
        ("A", "D", "F"),
        ("B", "D", "C"),
        ("B", "D", "F"),
    ]


def test_find_flags_requires_nonadjacent_tips():
    # a -> b - c with a adjacent to c is not a flag
    g = ChainGraph(["A", "B", "C"], [("A", "B"), ("A", "C")], [("B", "C")])
    assert find_flags(g) == []


def test_graph_equality_is_content_based():
    g1 = ChainGraph(["A", "B"], [("A", "B")], [])
    g2 = ChainGraph({"B": VARIABLE, "A": VARIABLE}, {("A", "B")}, set())
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != ChainGraph(["A", "B"], [], [("A", "B")])


@given(st.one_of(st.text(), st.text(st.characters(categories=("L", "N"))),
                 st.text("AZaz09(),|#- \t\u00e9\u0663\u00b2")))
def test_name_fast_path_agrees_with_the_grammar(name):
    # letters and digits skip the grammar, which must find nothing in them
    assert name_problem(name) == _grammar_problem(name)


def test_adjacent_spans_both_edge_kinds():
    g = demo_graph()
    assert g.adjacent("C", "D") and g.adjacent("A", "B")
    assert g.adjacent("B", "A")
    assert not g.adjacent("A", "F")


@given(st.integers(1, 8), st.floats(0, 1), st.integers(0, 10**6))
def test_random_cg_always_valid(n, density, seed):
    assert validate(random_cg(n, density, seed)) == []
