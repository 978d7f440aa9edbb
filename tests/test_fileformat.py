from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cgkit.determinism import DeterminationTable
from cgkit.errors import ParseError
from cgkit.fileformat import parse, serialize
from cgkit.graph import ChainGraph

DATA = Path(__file__).parent / "data"

GOLDENS = [
    "demo_g.cg",
    "demo_eamp.cg",
    "demo_seldag.cg",
    "demo_eamp_margABF.cg",
    "random_n4_d05_seed7.cg",
]


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_round_trip_bytes(name):
    text = (DATA / name).read_text()
    g, table = parse(text)
    assert serialize(g, table) == text


def test_round_trip_identity_on_values():
    g = ChainGraph(
        {"A": "variable", "eps(A)": "error"},
        [("eps(A)", "A")],
        [],
    )
    t = DeterminationTable([(("A",), "eps(A)")])
    g2, t2 = parse(serialize(g, t))
    assert g2 == g and t2 == t


def test_empty_body_is_empty_graph():
    g, table = parse("cgfile 1\n")
    assert not g.nodes and not table


def test_comments_and_blanks_ignored():
    g, _ = parse("# leading comment\n\ncgfile 1\n# mid\nnode A\n\n")
    assert set(g.nodes) == {"A"}


def test_kind_parsing_and_default():
    g, _ = parse("cgfile 1\nnode A\nnode e error\nnode s selection\n")
    assert g.kind("A") == "variable" and g.kind("e") == "error" and g.kind("s") == "selection"


def _problems(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    return exc.value.problems


def test_missing_header():
    assert _problems("node A\n")[0] == (1, "expected header 'cgfile 1'")


def test_wrong_version():
    probs = _problems("cgfile 9\nnode A\n")
    assert probs == [(1, "unsupported graph file version, expected 'cgfile 1'")]


def test_self_loop_diagnostic():
    probs = _problems("cgfile 1\nnode A\nedge A -> A\n")
    assert probs == [(3, "self-loop on A")]


def test_all_problems_reported_with_line_numbers():
    text = (
        "cgfile 1\n"
        "node A\n"
        "node A\n"  # 3: duplicate
        "node B banana\n"  # 4: bad kind
        "frob A B\n"  # 5: unknown directive
        "edge A => B\n"  # 6: malformed edge
        "edge A -> Q\n"  # 7: unknown endpoint
        "det A <-\n"  # 8: malformed det
        "det A <- A\n"  # 9: target among determinants
    )
    lines = [ln for ln, _ in _problems(text)]
    assert lines == [3, 4, 5, 6, 7, 8, 9]


def test_unknown_endpoint_in_det():
    probs = _problems("cgfile 1\nnode A\ndet A <- Q\n")
    assert probs == [(3, "unknown endpoint Q")]


def test_reserved_tokens_rejected_as_names():
    probs = _problems("cgfile 1\nnode ->\n")
    assert probs[0][0] == 2 and "reserved" in probs[0][1]


def test_bad_node_names_reported_at_their_line():
    probs = _problems("cgfile 1\nnode A\nnode #x\nnode -\nnode a,b\nnode a|b\nnode f(a\n")
    assert [ln for ln, _ in probs] == [3, 4, 5, 6, 7]
    assert all("bad node name" in msg for _, msg in probs)


def test_parse_error_message_lists_everything():
    with pytest.raises(ParseError) as exc:
        parse("cgfile 1\nnode A\nnode A\nfrob\n")
    msg = str(exc.value)
    assert "line 3" in msg and "line 4" in msg


def test_edges_may_precede_node_lines():
    g, _ = parse("cgfile 1\nedge A -> B\nnode A\nnode B\n")
    assert ("A", "B") in g.directed


def test_serialize_is_sorted_and_stable():
    g = ChainGraph(["B", "A", "C"], [("C", "A"), ("B", "A")], [("C", "B")])
    out = serialize(g)
    assert out.index("node A") < out.index("node B") < out.index("node C")
    assert out == serialize(g)


names = st.sampled_from(["A", "B", "C", "eps(A)", "sel(eps(A),eps(B))", "x_1"])


@given(
    st.dictionaries(names, st.sampled_from(["variable", "error", "selection"]), min_size=1),
    st.integers(0, 10**6),
)
def test_round_trip_random_graphs(nodes, seed):
    import random

    rnd = random.Random(seed)
    pool = sorted(nodes)
    directed, undirected = set(), set()
    for a in pool:
        for b in pool:
            if a >= b:
                continue
            c = rnd.randrange(4)
            if c == 1:
                directed.add((a, b))
            elif c == 2:
                directed.add((b, a))
            elif c == 3:
                undirected.add((a, b))
    g = ChainGraph(nodes, directed, undirected)
    rules = set()
    for t in pool:
        dets = frozenset(d for d in pool if d != t and rnd.random() < 0.3)
        if dets and rnd.random() < 0.5:
            rules.add((dets, t))
    table = DeterminationTable(rules)
    g2, t2 = parse(serialize(g, table))
    assert g2 == g and t2 == table
