import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import cgkit.separation
from cgkit.determinism import DeterminationTable, determined_set
from cgkit.errors import GuardError, QueryError
from cgkit.graph import ChainGraph, VARIABLE, validate
from cgkit.models import random_cg
from cgkit.separation import (
    AMP,
    LWF,
    SeparationQuery,
    amp_connectivity,
    amp_separated,
    amp_separated_oracle,
    amp_witness,
    determined_query_nodes,
    effective_conditioning,
    lwf_connectivity,
    lwf_route_oracle,
    lwf_separated,
    lwf_witness,
    separated,
)
from cgkit.transforms import to_eamp, to_selection_dag

from _corpus import canonical_triples, demo_graph


def q(x, y, z=(), semantics=AMP, table=None):
    return SeparationQuery(x, y, z, semantics, table or DeterminationTable())


# --- query validation ------------------------------------------------------


def test_query_sets_must_be_disjoint_and_nonempty():
    g = demo_graph()
    with pytest.raises(QueryError):
        amp_separated(g, q({"A"}, {"A"}))
    with pytest.raises(QueryError):
        amp_separated(g, q(set(), {"A"}))
    with pytest.raises(QueryError):
        amp_separated(g, q({"A"}, {"B"}, {"A"}))
    with pytest.raises(QueryError):
        amp_separated(g, q({"Q"}, {"B"}))


@pytest.mark.parametrize("fn", [amp_separated, amp_witness, amp_separated_oracle,
                                lwf_separated, lwf_witness, lwf_route_oracle])
def test_tables_naming_nodes_outside_the_graph(fn):
    g = ChainGraph(["A", "B", "C"], directed=[("A", "B")], undirected=[("B", "C")])
    sem = AMP if fn in (amp_separated, amp_witness, amp_separated_oracle) else LWF
    with pytest.raises(QueryError, match="outside the graph: Q"):
        fn(g, q({"B"}, {"C"}, {"A"}, sem, DeterminationTable([({"A"}, "Q")])))
    # a rule that can never fire changes nothing
    idle = DeterminationTable([({"Q"}, "B")])
    for x, y, z in canonical_triples(g.nodes):
        assert fn(g, q(x, y, z, sem, idle)) == fn(g, q(x, y, z, sem)), (x, y, z)


def test_semantics_validated():
    with pytest.raises(QueryError, match="unknown semantics"):
        SeparationQuery({"A"}, {"B"}, (), "magic", DeterminationTable())


# --- spec'd examples -------------------------------------------------------


def test_demo_amp_examples():
    g = demo_graph()
    assert amp_separated(g, q({"C"}, {"B"}, {"A"}))
    assert not amp_separated(g, q({"C"}, {"B"}))
    assert amp_separated_oracle(g, q({"C"}, {"B"}, {"A"}))
    assert not amp_separated_oracle(g, q({"C"}, {"B"}))


def test_disconnected_parts_always_separated():
    g = ChainGraph(["A", "B"], [], [])
    assert amp_separated(g, q({"A"}, {"B"}))
    assert lwf_separated(g, q({"A"}, {"B"}, (), LWF))


def test_demo_gprime_lwf_example():
    ep = to_eamp(demo_graph())
    assert lwf_separated(ep.graph, q({"C"}, {"B"}, {"A"}, LWF, ep.table))


def test_selection_collider_examples():
    ep = to_eamp(demo_graph())
    gpp, sel = to_selection_dag(ep)
    s = "sel(eps(C),eps(D))"
    assert s in sel
    assert lwf_separated(gpp, q({"eps(C)"}, {"eps(D)"}, (), LWF, ep.table))
    assert not lwf_separated(gpp, q({"eps(C)"}, {"eps(D)"}, {s}, LWF, ep.table))
    # same pattern on a graph small enough for the route oracle
    small = to_eamp(ChainGraph(["A", "B"], [], [("A", "B")]))
    sdag, ssel = to_selection_dag(small)
    (sn,) = ssel
    assert lwf_route_oracle(sdag, q({"eps(A)"}, {"eps(B)"}, (), LWF, small.table))
    assert not lwf_route_oracle(sdag, q({"eps(A)"}, {"eps(B)"}, {sn}, LWF, small.table))


def test_effective_conditioning_demo_gprime():
    ep = to_eamp(demo_graph())
    qq = q({"C"}, {"F"}, {"A", "B", "D"}, AMP, ep.table)
    assert effective_conditioning(qq) == {"A", "B", "D", "eps(A)", "eps(B)", "eps(D)"}
    # E is parentless, so {E} alone covers the rule for eps(E); C's rule needs A
    qq2 = q({"A"}, {"F"}, {"C", "E"}, AMP, ep.table)
    assert effective_conditioning(qq2) == {"C", "E", "eps(E)"}
    qq3 = q({"A"}, {"F"}, {"C"}, AMP, ep.table)
    assert effective_conditioning(qq3) == {"C"}
    # the closure is kept per query, but a reassigned z or table is closed afresh
    qq3.z = frozenset({"C", "E"})
    assert effective_conditioning(qq3) == {"C", "E", "eps(E)"}
    qq3.table = DeterminationTable()
    assert effective_conditioning(qq3) == {"C", "E"}


def test_determined_query_nodes_flagged_and_blocked():
    g = ChainGraph(["A", "B"], [], [("A", "B")])
    ep = to_eamp(g)
    qq = q({"eps(A)"}, {"eps(B)"}, {"A"}, AMP, ep.table)
    assert determined_query_nodes(qq) == {"eps(A)"}
    # a determined endpoint is swallowed by conditioning: all four agree
    assert amp_separated(ep.graph, qq)
    assert amp_separated_oracle(ep.graph, qq)
    lq = q({"eps(A)"}, {"eps(B)"}, {"A"}, LWF, ep.table)
    assert lwf_separated(ep.graph, lq)
    assert lwf_route_oracle(ep.graph, lq)


def test_dispatcher_uses_semantics():
    g = ChainGraph(["A", "B", "C"], [("A", "B")], [("B", "C")])  # flag at B
    table = DeterminationTable()
    assert separated(g, q({"A"}, {"C"}, {"B"}, AMP, table)) != separated(
        g, q({"A"}, {"C"}, {"B"}, LWF, table)
    )


# --- witnesses -------------------------------------------------------------


def test_amp_witness_route():
    g = demo_graph()
    route = amp_witness(g, q({"C"}, {"B"}))
    assert route[0][0] == "C" and route[-1] == ("B", None)
    assert route == [("C", "<-"), ("A", "->"), ("B", None)]
    assert amp_witness(g, q({"C"}, {"B"}, {"A"})) is None


def test_lwf_witness_path():
    ep = to_eamp(demo_graph())
    path = lwf_witness(ep.graph, q({"C"}, {"B"}, (), LWF, ep.table))
    assert path[0] == "C" and path[-1] == "B"
    assert lwf_witness(ep.graph, q({"C"}, {"B"}, {"A"}, LWF, ep.table)) is None


def test_witness_agrees_with_engine_on_demo():
    g = demo_graph()
    for x, y, z in canonical_triples(g.nodes):
        qq = q(x, y, z)
        assert (amp_witness(g, qq) is None) == amp_separated(g, qq)


def _assert_open_route(g, route, x, y, dz):
    """The literal AMP criterion, checked on the route itself."""
    nodes = [v for v, _ in route]
    assert nodes[0] in x - dz and nodes[-1] in y - dz and route[-1][1] is None
    for (v, link), (w, _) in zip(route, route[1:]):
        edge = {"->": (v, w) in g.directed, "<-": (w, v) in g.directed,
                "--": tuple(sorted((v, w))) in g.undirected}
        assert edge[link], (v, link, w)
    for (_, left), (b, right) in zip(route, route[1:-1]):
        triplex = (left == "->" and right in ("<-", "--")) or (left == "--" and right == "<-")
        assert triplex == (b in dz), (route, b)


@given(st.integers(2, 7), st.integers(0, 10**6))
@settings(max_examples=150)
def test_amp_witness_is_an_open_route_whatever_the_input_order(n, seed):
    g, table = _random_graph_and_table(n, seed)
    rnd = random.Random(seed ^ 0x5EED)
    shuffled = list(g.nodes)
    rnd.shuffle(shuffled)
    g2 = ChainGraph({v: g.kind(v) for v in shuffled},
                    sorted(g.directed, reverse=True), sorted(g.undirected, reverse=True))
    for _ in range(10):
        x, y, z = _random_triple(sorted(g.nodes), rnd)
        qq = q(x, y, z, AMP, table)
        route = amp_witness(g, qq)
        assert (route is None) == amp_separated(g, qq)
        assert amp_witness(g2, qq) == route
        if route is not None:
            _assert_open_route(g, route, x, y, determined_set(table, z))


# --- guards ----------------------------------------------------------------


def test_oracle_guards():
    big = random_cg(13, 0.3, 0)
    with pytest.raises(GuardError):
        amp_separated_oracle(big, q({"A"}, {"B"}))
    mid = random_cg(9, 0.3, 0)
    with pytest.raises(GuardError):
        lwf_route_oracle(mid, q({"A"}, {"B"}, (), LWF))


# --- property tests over random graphs and tables --------------------------


def _random_graph_and_table(n, seed, kinds=("variable",)):
    rnd = random.Random(seed)
    names = [chr(65 + i) for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    while True:
        directed, undirected = set(), set()
        for a, b in pairs:
            c = rnd.randrange(4)
            if c == 1:
                directed.add((a, b))
            elif c == 2:
                directed.add((b, a))
            elif c == 3:
                undirected.add((a, b))
        g = ChainGraph({v: VARIABLE for v in names}, directed, undirected)
        if not validate(g):
            break
    rules = set()
    for _ in range(rnd.randrange(4)):
        t = rnd.choice(names)
        dets = frozenset(v for v in names if v != t and rnd.random() < 0.4)
        if dets:
            rules.add((dets, t))
    return g, DeterminationTable(rules)


def _random_triple(names, rnd):
    while True:
        assign = [rnd.randrange(4) for _ in names]
        x = frozenset(v for v, a in zip(names, assign) if a == 0)
        y = frozenset(v for v, a in zip(names, assign) if a == 1)
        z = frozenset(v for v, a in zip(names, assign) if a == 2)
        if x and y:
            return x, y, z


@given(st.integers(2, 6), st.integers(0, 10**6))
@settings(max_examples=200)
def test_engines_match_oracles_with_random_tables(n, seed):
    g, table = _random_graph_and_table(n, seed)
    rnd = random.Random(seed ^ 0xABCDEF)
    names = sorted(g.nodes)
    for _ in range(10):
        x, y, z = _random_triple(names, rnd)
        qa = q(x, y, z, AMP, table)
        ql = q(x, y, z, LWF, table)
        assert amp_separated(g, qa) == amp_separated_oracle(g, qa)
        assert lwf_separated(g, ql) == lwf_route_oracle(g, ql)
        # a fresh query runs its own search for the witness
        assert (amp_witness(g, q(x, y, z, AMP, table)) is None) == amp_separated(g, qa)
        assert (lwf_witness(g, q(x, y, z, LWF, table)) is None) == lwf_separated(g, ql)


def _assert_rows_match_oracles(g, table, universe, cond=()):
    order = sorted(universe)
    n = len(order)
    for connectivity, oracle, sem in (
        (amp_connectivity, amp_separated_oracle, AMP),
        (lwf_connectivity, lwf_route_oracle, LWF),
    ):
        for zm in range(1 << n):
            z = {order[k] for k in range(n) if zm >> k & 1} | set(cond)
            rows = connectivity(g, determined_set(table, z), order)
            for i, j in itertools.combinations(range(n), 2):
                if (zm >> i | zm >> j) & 1:
                    continue
                want = not oracle(g, q({order[i]}, {order[j]}, z, sem, table))
                assert (rows[i] >> j & 1, rows[j] >> i & 1) == (want, want), (
                    sem, order[i], order[j], sorted(z))


@pytest.mark.parametrize("seed", range(8))
def test_connectivity_rows_match_oracles(seed):
    ep = to_eamp(random_cg(4, (0.3, 0.5, 0.65, 0.8)[seed % 4], 40 + seed))
    g = ep.graph
    _assert_rows_match_oracles(g, ep.table, g.nodes)
    # a proper sub-universe: one variable conditioned on, one error node left out
    first, last = g.variables[0], g.error_nodes[-1]
    rest = set(g.nodes) - {first, last}
    _assert_rows_match_oracles(g, ep.table, rest, (first,))
    # augmented graphs draw lines only between parentless error nodes, so
    # the triplex visits -b<- and ->b- need a graph that is not augmented
    g, table = _random_graph_and_table(5, seed)
    _assert_rows_match_oracles(g, table, g.nodes)


@given(st.integers(2, 7), st.integers(0, 10**6))
def test_symmetry(n, seed):
    g, table = _random_graph_and_table(n, seed)
    rnd = random.Random(seed ^ 0x5EED)
    names = sorted(g.nodes)
    for _ in range(8):
        x, y, z = _random_triple(names, rnd)
        for sem, fn in ((AMP, amp_separated), (LWF, lwf_separated)):
            assert fn(g, q(x, y, z, sem, table)) == fn(g, q(y, x, z, sem, table))


@given(st.integers(2, 7), st.integers(0, 10**6))
def test_dag_agreement_empty_table(n, seed):
    rnd = random.Random(seed)
    names = [chr(65 + i) for i in range(n)]
    directed = {(a, b) for a, b in itertools.combinations(names, 2) if rnd.random() < 0.4}
    g = ChainGraph({v: VARIABLE for v in names}, directed, [])
    for _ in range(8):
        x, y, z = _random_triple(names, rnd)
        assert amp_separated(g, q(x, y, z)) == lwf_separated(g, q(x, y, z, LWF))


@given(st.integers(2, 7), st.integers(0, 10**6))
def test_adjacent_nodes_never_separate(n, seed):
    g, table = _random_graph_and_table(n, seed)
    rnd = random.Random(seed ^ 0xFACE)
    names = sorted(g.nodes)
    edges = sorted(g.directed) + sorted(g.undirected)
    if not edges:
        return
    for _ in range(6):
        a, b = rnd.choice(edges)
        rest = [v for v in names if v not in (a, b)]
        z = frozenset(v for v in rest if rnd.random() < 0.4)
        if determined_set(table, z) & {a, b}:
            continue  # conditioning swallows an endpoint; adjacency no longer applies
        assert not amp_separated(g, q({a}, {b}, z, AMP, table))
        assert not lwf_separated(g, q({a}, {b}, z, LWF, table))


@given(st.integers(2, 7), st.integers(0, 10**6))
def test_conditioning_on_closure_is_equivalent(n, seed):
    g, table = _random_graph_and_table(n, seed)
    rnd = random.Random(seed ^ 0xC105)
    names = sorted(g.nodes)
    for _ in range(6):
        x, y, z = _random_triple(names, rnd)
        dz = determined_set(table, z)
        if dz & (x | y):
            continue
        for sem, fn in ((AMP, amp_separated), (LWF, lwf_separated)):
            assert fn(g, q(x, y, z, sem, table)) == fn(g, q(x, y, dz, sem, table))


@given(st.integers(2, 7), st.integers(0, 10**6))
def test_iteration_order_does_not_matter(n, seed):
    g, table = _random_graph_and_table(n, seed)
    rnd = random.Random(seed ^ 0x0DE2)
    names = sorted(g.nodes)
    x, y, z = _random_triple(names, rnd)
    base = [
        amp_separated(g, q(x, y, z, AMP, table)),
        lwf_separated(g, q(x, y, z, LWF, table)),
    ]
    shuffled = list(g.nodes)
    rnd.shuffle(shuffled)
    g2 = ChainGraph(
        {v: g.kind(v) for v in shuffled},
        sorted(g.directed, reverse=True),
        sorted(g.undirected, reverse=True),
    )
    assert base == [
        amp_separated(g2, q(x, y, z, AMP, table)),
        lwf_separated(g2, q(x, y, z, LWF, table)),
    ]


def test_per_graph_tables_die_with_their_graph():
    g = demo_graph()
    for fn in (amp_separated, amp_separated_oracle, lwf_separated):
        fn(g, q({"C"}, {"B"}, {"A"}, AMP if fn is not lwf_separated else LWF))
    assert g._masks is not None and g._all_neighbors is not None
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


# --- one search per query ----------------------------------------------------


_ENGINES = {AMP: (amp_separated, amp_witness), LWF: (lwf_separated, lwf_witness)}


def _count_searches(monkeypatch):
    """Record every search a query runs: each one takes the query's masks once."""
    calls = []
    query_masks = cgkit.separation._query_masks

    def counting(g, qq):
        calls.append(qq)
        return query_masks(g, qq)

    monkeypatch.setattr(cgkit.separation, "_query_masks", counting)
    return calls


@pytest.mark.parametrize("sem", [AMP, LWF])
def test_a_query_searches_again_only_when_asked_something_new(monkeypatch, sem):
    ep = to_eamp(demo_graph())
    g = ep.graph
    sep, wit = _ENGINES[sem]
    qq = q({"C"}, {"B"}, (), sem, ep.table)
    searches = _count_searches(monkeypatch)

    def ask(graph, want_searches):
        # verdict and witness twice, against a fresh query asked afterwards
        del searches[:]
        got = [sep(graph, qq), wit(graph, qq), sep(graph, qq), wit(graph, qq)]
        assert len(searches) == want_searches
        fresh = SeparationQuery(qq.x, qq.y, qq.z, sem, qq.table)
        want = wit(graph, fresh)
        assert got == [want is None, want] * 2
        return want

    assert ask(g, 1) is not None
    assert ask(g, 0) is not None
    qq.z = frozenset({"A"})
    assert ask(g, 1) is None
    qq.x = frozenset({"C", "E"})
    ask(g, 1)
    qq.y = frozenset({"B", "F"})
    ask(g, 1)
    qq.table = DeterminationTable()
    ask(g, 1)
    ask(ChainGraph(dict(g.nodes), g.directed, g.undirected), 1)
    ask(g, 1)


@pytest.mark.parametrize("sem", [AMP, LWF])
def test_a_witness_is_asked_on_the_other_semantics_query(monkeypatch, sem):
    # each semantics' search replaces the other's on the query
    ep = to_eamp(demo_graph())
    other = LWF if sem == AMP else AMP
    qq = q({"B", "C"}, {"E", "F"}, {"A", "D"}, other, ep.table)
    searches = _count_searches(monkeypatch)
    _ENGINES[other][0](ep.graph, qq)
    route = _ENGINES[sem][1](ep.graph, qq)
    assert len(searches) == 2
    assert route == _ENGINES[sem][1](ep.graph, q(qq.x, qq.y, qq.z, sem, ep.table))
    assert route != _ENGINES[other][1](ep.graph, qq)
    assert len(searches) == 4


@pytest.mark.parametrize("sem", [AMP, LWF])
def test_mutating_a_witness_leaves_the_query_alone(sem):
    g = demo_graph()
    sep, wit = _ENGINES[sem]
    qq = q({"B"}, {"E"}, {"D", "F"}, sem)
    route = wit(g, qq)
    want = list(route)
    route.append(route[0])
    route[0] = None
    assert wit(g, qq) == want and not sep(g, qq)


def test_a_query_does_not_keep_its_graph_alive():
    g = demo_graph()
    qa, ql = q({"C"}, {"B"}), q({"C"}, {"B"}, (), LWF)
    assert amp_witness(g, qa) and lwf_witness(g, ql)
    assert qa._route is not None and ql._route is not None
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
    assert qa._route is not None and ql._route is not None
