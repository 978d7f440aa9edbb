import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cgkit.determinism import DeterminationTable, determined_set
from cgkit.errors import GuardError
from cgkit.fileformat import parse, serialize
from cgkit.graph import ChainGraph, validate
from cgkit.models import (
    MAX_MODEL_NODES,
    IndependenceModel,
    _check_rows,
    enumerate_model,
    model_diff,
    project_model,
    random_cg,
    triple_count,
)
from cgkit.separation import (
    AMP,
    LWF,
    SeparationQuery,
    amp_connectivity,
    lwf_connectivity,
    separated,
)
from cgkit.pcg64 import PCG64
from cgkit.transforms import to_eamp

from _corpus import canonical_triples, demo_graph, exhaustive_3node, random_corpus


EMPTY = DeterminationTable()


def test_triple_count_small_values():
    # n=2: ({A},{B},emptyset) only; n=3: 3*(pair,empty) + 3*(pair,third) + 3*(single vs pair)
    assert triple_count(1) == 0
    assert triple_count(2) == 1
    assert triple_count(3) == 9
    assert triple_count(4) == 55


def test_edgeless_model_is_complete():
    g = ChainGraph(["A", "B", "C", "D"], [], [])
    m = enumerate_model(g, EMPTY, AMP)
    assert len(m) == triple_count(4)
    assert m.has({"A"}, {"B"}, ())


def test_demo_model_examples():
    m = enumerate_model(demo_graph(), EMPTY, AMP)
    assert m.has({"C"}, {"B"}, {"A"})
    assert not m.has({"C"}, {"B"}, ())
    assert m.has({"B"}, {"C"}, {"A"})  # symmetric closure


def test_model_agrees_with_engine_pointwise():
    g = demo_graph()
    m = enumerate_model(g, EMPTY, LWF)
    for x, y, z in itertools.islice(canonical_triples(g.nodes), 300):
        assert m.has(x, y, z) == separated(g, SeparationQuery(x, y, z, LWF, EMPTY))


def test_guard_refuses_large_universe():
    g = random_cg(MAX_MODEL_NODES + 1, 0.3, 0)
    with pytest.raises(GuardError) as exc:
        enumerate_model(g, EMPTY, AMP)
    assert str(triple_count(MAX_MODEL_NODES + 1)) in str(exc.value)


def test_universe_and_condition_on_validation():
    g = demo_graph()
    with pytest.raises(ValueError):
        enumerate_model(g, EMPTY, AMP, universe={"A", "Q"})
    with pytest.raises(ValueError):
        enumerate_model(g, EMPTY, AMP, universe={"A", "B"}, condition_on={"A"})
    with pytest.raises(ValueError):
        enumerate_model(g, EMPTY, AMP, universe={"A", "B"}, condition_on={"Q"})


def test_tables_naming_nodes_outside_the_graph():
    g = ChainGraph(["A", "B", "C"], directed=[("A", "B")], undirected=[("B", "C")])
    for sem in (AMP, LWF):
        with pytest.raises(ValueError, match="outside the graph: Q"):
            enumerate_model(g, DeterminationTable([({"A"}, "Q")]), sem)
        # a rule that can never fire changes nothing
        idle = DeterminationTable([({"Q"}, "B")])
        assert enumerate_model(g, idle, sem) == enumerate_model(g, EMPTY, sem)


def test_has_validates_inputs():
    m = enumerate_model(demo_graph(), EMPTY, AMP)
    with pytest.raises(ValueError):
        m.has({"A"}, {"A"}, ())
    with pytest.raises(ValueError):
        m.has({"A"}, {"Q"}, ())
    with pytest.raises(ValueError):
        m.has(set(), {"A"}, ())


def test_dumps_loads_round_trip():
    m = enumerate_model(demo_graph(), EMPTY, AMP)
    text = m.dumps()
    assert text.startswith("# universe A,B,C,D,E,F\n")
    m2 = IndependenceModel.loads(text)
    assert m2 == m and hash(m2) == hash(m)


def test_dump_format_lines():
    g = ChainGraph(["A", "B"], [], [])
    text = enumerate_model(g, EMPTY, AMP).dumps()
    assert text == "# universe A,B\nA | B | -\n"


def test_model_equality_is_semantic():
    g = ChainGraph(["A", "B", "C"], [], [])
    assert enumerate_model(g, EMPTY, AMP) == enumerate_model(g, EMPTY, LWF)
    assert enumerate_model(g, EMPTY, AMP) != enumerate_model(
        ChainGraph(["A", "B", "C"], [("A", "B")], []), EMPTY, AMP
    )


# --- projection ------------------------------------------------------------


def test_project_identity_and_errors():
    m = enumerate_model(demo_graph(), EMPTY, AMP)
    assert project_model(m, (), ()) == m
    with pytest.raises(ValueError):
        project_model(m, {"A"}, {"A"})
    with pytest.raises(ValueError):
        project_model(m, {"Q"}, ())


def test_project_marginal_only():
    g = demo_graph()
    m = enumerate_model(g, EMPTY, AMP)
    small = project_model(m, {"E", "F"}, ())
    assert small.universe == tuple("ABCD")
    direct = enumerate_model(g, EMPTY, AMP, universe=set("ABCD"))
    # marginal model keeps only triples whose statement ignores E and F
    for x, y, z in canonical_triples(tuple("ABCD")):
        assert small.has(x, y, z) == direct.has(x, y, z)


def test_project_conditional_meaning():
    # A -> B <- C: A and C marry when B is conditioned on
    g = ChainGraph(["A", "B", "C"], [("A", "B"), ("C", "B")], [])
    m = enumerate_model(g, EMPTY, AMP)
    assert m.has({"A"}, {"C"}, ())
    assert not m.has({"A"}, {"C"}, {"B"})
    sel = project_model(m, (), {"B"})
    assert sel.universe == ("A", "C")
    assert not sel.has({"A"}, {"C"}, ())


def test_projecting_out_error_nodes_recovers_base_model():
    g = demo_graph()
    ep = to_eamp(g)
    m_g = enumerate_model(g, EMPTY, AMP)
    m_gp = enumerate_model(ep.graph, ep.table, AMP)
    eps = {v for v in ep.graph.nodes if v not in g.nodes}
    assert project_model(m_gp, eps, ()) == m_g


@given(st.integers(0, 10**6))
@settings(max_examples=40)
def test_project_commutes(seed):
    import random as _r

    rnd = _r.Random(seed)
    g = random_cg(5, rnd.choice([0.2, 0.5, 0.8]), seed)
    m = enumerate_model(g, EMPTY, AMP if seed % 2 else LWF)
    names = sorted(g.nodes)
    l1 = {v for v in names if rnd.random() < 0.3}
    l2 = {v for v in names if rnd.random() < 0.3} - l1
    a = project_model(project_model(m, l1, ()), l2, ())
    b = project_model(m, l1 | l2, ())
    assert a == b


def test_fused_condition_on_equals_project_of_full():
    g = ChainGraph(["A", "B", "C", "D"], [("A", "B"), ("C", "B"), ("C", "D")], [])
    full = enumerate_model(g, EMPTY, LWF)
    fused = enumerate_model(g, EMPTY, LWF, universe={"A", "C", "D"}, condition_on={"B"})
    assert fused == project_model(full, (), {"B"})


# --- model_diff ------------------------------------------------------------


def test_model_diff():
    g = demo_graph()
    m = enumerate_model(g, EMPTY, AMP)
    only1, only2 = model_diff(m, m)
    assert not only1 and not only2
    lwf = enumerate_model(g, EMPTY, LWF)
    only_a, only_l = model_diff(m, lwf)
    assert only_a or only_l  # flags make the interpretations differ
    for x, y, z in only_a:
        assert m.has(x, y, z) and not lwf.has(x, y, z)
    # dump order, which picks the triple an equiv counterexample reports
    assert only_a == [t for t in m.triples() if not lwf.has(*t)]
    assert only_l == [t for t in lwf.triples() if not m.has(*t)]
    with pytest.raises(ValueError):
        model_diff(m, project_model(m, {"A"}, ()))


# --- random_cg -------------------------------------------------------------


def test_random_cg_degenerate_cases():
    g1 = random_cg(1, 0.7, 3)
    assert len(g1.nodes) == 1 and not g1.directed and not g1.undirected
    g0 = random_cg(5, 0.0, 3)
    assert not g0.directed and not g0.undirected


def test_random_cg_matches_golden():
    g = random_cg(4, 0.5, 7)
    with open("tests/data/random_n4_d05_seed7.cg") as fh:
        golden, _ = parse(fh.read())
    assert g == golden


def test_random_cg_deterministic_and_valid():
    for seed in range(30):
        a = random_cg(6, 0.5, seed)
        assert a == random_cg(6, 0.5, seed)
        assert not validate(a)


def test_random_cg_density_extremes_fill_blocks():
    g = random_cg(8, 1.0, 11)
    # density 1 connects every within-block pair and every forward cross-block pair
    assert len(g.directed) + len(g.undirected) == 8 * 7 // 2


def test_random_cg_reproduces_the_acceptance_corpus():
    # the graphs numpy's default_rng drew for the acceptance corpus
    h = hashlib.sha256()
    for _tag, g in random_corpus():
        h.update(serialize(g).encode())
    assert h.hexdigest() == "4e25e66cbd2af132f190539f53c26d601e1b3c8c0cbd377ee2e1c282961b2167"


def test_random_cg_refuses_bad_seeds():
    with pytest.raises(ValueError):
        random_cg(4, 0.5, -1)
    for seed in (1.5, "7", None):
        with pytest.raises(TypeError):
            random_cg(4, 0.5, seed)


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**130 + 12345])
def test_pcg64_matches_numpy_stream(seed):
    np = pytest.importorskip("numpy")
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    for size in (1, 2, 3, 5, 9, 17, 33, 1, 4, 100, 2, 7):
        # permutations draw 32 bits at a time, so random() in between
        # checks that the buffered upper half carries over
        assert ours.permutation(range(size)) == [int(v) for v in theirs.permutation(size)]
        assert ours.random() == theirs.random()
        assert ours.random() == theirs.random()


# --- bulk enumeration vs per-query engine (the core correctness property) --


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_bulk_matches_engine_with_tables(seed):
    import random as _r

    rnd = _r.Random(seed)
    g = random_cg(4, rnd.choice([0.3, 0.6]), seed)
    ep = to_eamp(g)
    sem = AMP if seed % 2 else LWF
    m = enumerate_model(ep.graph, ep.table, sem)
    names = tuple(sorted(ep.graph.nodes))
    triples = list(canonical_triples(names))
    rnd.shuffle(triples)
    for x, y, z in triples[:60]:
        want = separated(ep.graph, SeparationQuery(x, y, z, sem, ep.table))
        assert m.has(x, y, z) == want


@pytest.mark.parametrize("sem", [AMP, LWF])
def test_rows_follow_the_closure_of_each_conditioning_set(sem):
    # random rules chain, so D(z) can take several firings; condition_on
    # joins every z and can fire rules on its own
    rnd = random.Random(5)
    connectivity = amp_connectivity if sem == AMP else lwf_connectivity
    cases = []
    for seed in range(8):
        g = random_cg(7, 0.5, seed)
        names = sorted(g.nodes)
        table = DeterminationTable(
            (rnd.sample([v for v in names if v != t], rnd.randint(1, 2)), t)
            for t in rnd.sample(names, 5)
        )
        # the whole graph; a sub-universe with one node left out; and one
        # with two left out, which D(z) can still reach
        cases += [(g, table, names, set()), (g, table, names[:5], {names[5]}),
                  (g, table, names[2:6], {names[0]})]
        # an augmented graph over its variables: D(z) closes onto error nodes
        ep = to_eamp(random_cg(4, 0.5, seed))
        cases.append((ep.graph, ep.table, ep.graph.variables[1:], {ep.graph.variables[0]}))
    for g, table, order, cond in cases:
        m = enumerate_model(g, table, sem, order, condition_on=cond)
        order = sorted(order)
        for zm in range(1 << len(order)):
            z = {v for i, v in enumerate(order) if zm >> i & 1} | cond
            assert m.rows[zm] == tuple(connectivity(g, determined_set(table, z), order)), (order, zm)


def _literal_row_problem(table, zm, n):
    """Per-bit reference for the checks on one table at conditioning set zm."""
    for i in range(n):
        r = table[i]
        if r < 0 or r >= 1 << n or r >> i & 1:
            return f"model row {i} at conditioning set {zm} is not a mask of other nodes"
        for j in range(n):
            if r >> j & 1 and not table[j] >> i & 1:
                return f"model rows at conditioning set {zm} are not symmetric"
    for i in range(n):
        for j in range(n):
            if table[i] >> j & 1 and (zm >> i & 1 or zm >> j & 1):
                return f"model rows at conditioning set {zm} are not empty on it"
    return None


def _random_table(rnd, n, zm, density):
    """A valid table at conditioning set zm: symmetric pairs of free nodes."""
    row = [0] * n
    for i, j in itertools.combinations([k for k in range(n) if not zm >> k & 1], 2):
        if rnd.random() < density:
            row[i] |= 1 << j
            row[j] |= 1 << i
    return row


FLAWS = ("none", "asymmetric", "diagonal", "range", "negative", "not-empty-on-z")


@given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       st.sampled_from(FLAWS))
@settings(max_examples=300, deadline=None)
def test_packed_row_check_agrees_with_a_literal_checker(n, seed, density, flaw):
    rnd = random.Random(seed)
    zm = rnd.getrandbits(n) if rnd.random() < 0.5 else rnd.randrange(min(1 << n, 16))
    row = _random_table(rnd, n, zm, density)
    i = rnd.randrange(n)
    others = [j for j in range(n) if j != i]
    flawed = True
    if flaw == "asymmetric" and others:
        row[i] ^= 1 << rnd.choice(others)
    elif flaw == "diagonal":
        row[i] |= 1 << i
    elif flaw == "range":
        row[i] |= 1 << rnd.randrange(n, 40)
    elif flaw == "negative":
        row[i] = -1 - row[i]
    elif flaw == "not-empty-on-z" and zm and others:
        i = rnd.choice([k for k in range(n) if zm >> k & 1])
        j = rnd.choice([k for k in range(n) if k != i])
        row[i] |= 1 << j
        row[j] |= 1 << i
    else:
        flawed = False
    # distinct valid tables at the first 16 conditioning sets, so several
    # tables share the packed int, and one shared empty table after them
    empty = (0,) * n
    rows = [tuple(_random_table(rnd, n, z, density)) if z < 16 else empty for z in range(zm)]
    rows.append(tuple(row))
    problems = [_literal_row_problem(t, z, n) for z, t in enumerate(rows) if t is not empty]
    want = next(filter(None, problems), None)
    assert (want is not None) == flawed
    try:
        _check_rows(rows, n)
        got = None
    except ValueError as e:
        got = str(e)
    assert got == want


# --- the row-table representation -------------------------------------------


def _row_corpus():
    """Every valid 3-node graph and a seeded set of 4-node graphs."""
    rnd = random.Random(11)
    four = [random_cg(4, rnd.choice([0.3, 0.5, 0.8]), seed) for seed in range(12)]
    return exhaustive_3node() + four


@pytest.mark.parametrize("sem", [AMP, LWF])
def test_rows_answer_every_triple_like_the_engine(sem):
    for g in _row_corpus():
        m = enumerate_model(g, EMPTY, sem)
        for x, y, z in canonical_triples(g.nodes):
            assert m.has(x, y, z) == separated(g, SeparationQuery(x, y, z, sem, EMPTY)), (g, x, y, z)


@pytest.mark.parametrize("sem", [AMP, LWF])
def test_rows_count_round_trip_and_symmetry(sem):
    # the augmented graphs add determined nodes, whose rows are empty
    cases = [(g, EMPTY) for g in _row_corpus()]
    cases += [(ep.graph, ep.table) for ep in map(to_eamp, exhaustive_3node())]
    for g, table in cases:
        m = enumerate_model(g, table, sem)
        assert len(m) == sum(1 for _ in m.triples())
        m2 = IndependenceModel.loads(m.dumps())
        assert m2 == m and hash(m2) == hash(m)
        n = len(m.universe)
        for zm, row in enumerate(m.rows):
            for i in range(n):
                assert not row[i] & (zm | 1 << i)
                for j in range(n):
                    assert (row[i] >> j & 1) == (row[j] >> i & 1)


@pytest.mark.parametrize("sem", [AMP, LWF])
def test_count_matches_expansion_on_larger_models(sem):
    # 6-8 nodes: random graphs, and augmented 3- and 4-node graphs with their tables
    cases = [(random_cg(n, d, seed), EMPTY)
             for n, d, seed in ((6, 0.3, 1), (7, 0.5, 2), (8, 0.2, 3), (8, 0.6, 4))]
    cases += [(ep.graph, ep.table)
              for ep in (to_eamp(random_cg(n, 0.5, seed)) for n, seed in ((3, 5), (4, 6), (4, 9)))]
    assert {len(g.nodes) for g, _ in cases} == {6, 7, 8}
    assert any(table.rules for _, table in cases)
    for g, table in cases:
        m = enumerate_model(g, table, sem)
        assert len(m) == sum(1 for _ in m.triples())


@pytest.mark.parametrize("name, sem, digest", [
    ("demo_g.cg", AMP, "d8c722cd8e61437bdae8a9e26e71eb710c7552b448631a81a9b89991a685f00f"),
    ("demo_g.cg", LWF, "0b6e953fd796d0fbd2bd099c706ff42bf53a7f09af9d7717e9e65e2245b37c7c"),
    ("demo_eamp.cg", AMP, "97c7d2a81eead8e9e855e0620b0573a0dd656f7c9f877cae1fd483b9d45da351"),
    ("demo_eamp.cg", LWF, "97c7d2a81eead8e9e855e0620b0573a0dd656f7c9f877cae1fd483b9d45da351"),
])
def test_model_dump_bytes_are_pinned(name, sem, digest):
    # digests of `cgkit model` output recorded with the packed-triple enumerator
    with open(f"tests/data/{name}") as fh:
        g, table = parse(fh.read())
    text = enumerate_model(g, table, sem).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_loads_rejects_dump_not_closed():
    # decomposition: A,B | C needs the pairs A | C and B | C
    with pytest.raises(ValueError, match="not closed"):
        IndependenceModel.loads("# universe A,B,C\nA,B | C | -\n")
    # composition: A | C and B | C give A,B | C
    with pytest.raises(ValueError, match="not closed"):
        IndependenceModel.loads("# universe A,B,C\nA | C | -\nB | C | -\n")
    closed = IndependenceModel.loads("# universe A,B,C\nA | C | -\nA,B | C | -\nB | C | -\n")
    assert closed.has({"A", "B"}, {"C"}) and len(closed) == 3


@pytest.mark.parametrize("rows, problem", [
    ([(0b10, 0), (0, 0), (0, 0), (0, 0)], "not symmetric"),
    ([(0b01, 0), (0, 0), (0, 0), (0, 0)], "not a mask of other nodes"),
    ([(0b100, 0), (0, 0), (0, 0), (0, 0)], "not a mask of other nodes"),
    ([(0, 0), (0b10, 0b01), (0, 0), (0, 0)], "not empty on it"),
    # a table already accepted at an earlier conditioning set
    ([(0b10, 0b01), (0b10, 0b01), (0, 0), (0, 0)], "not empty on it"),
])
def test_model_rows_are_checked(rows, problem):
    with pytest.raises(ValueError, match=problem):
        IndependenceModel("AB", rows)


def test_valid_model_rows_are_accepted():
    assert len(IndependenceModel("AB", [(0, 0)] * 4)) == 1
    assert len(IndependenceModel("AB", [(0b10, 0b01), (0, 0), (0, 0), (0, 0)])) == 0
    m = enumerate_model(demo_graph(), EMPTY, AMP)
    assert IndependenceModel(m.universe, m.rows) == m


@pytest.mark.parametrize("dump, name", [
    ("# universe A,B,#C\nA | B | -\n", "#C"),
    ("# universe A,B,-\nA | B | -\n", "-"),
    ("# universe A, B\n", " B"),
    ("# universe A,,B\n", ""),
    ("# universe A,B),C\n", "B),C"),
    ("# universe A,B\nA | B | C)\n", "C)"),
    ("# universe A,B,C\nA | B | ,C\n", ""),
    ("# universe A,B,C\nA | B,#C | -\n", "#C"),
    # the singleton line reads as a comment; it was refused only as unclosed
    ("# universe #B,A,C\nA | C | -\n#B | C | -\nA,#B | C | -\n", "#B"),
])
def test_loads_refuses_bad_node_names(dump, name):
    with pytest.raises(ValueError, match=re.escape(f"bad node name {name!r}")):
        IndependenceModel.loads(dump)


def test_loads_keeps_names_with_separators_in_parentheses():
    m = IndependenceModel.loads("# universe A,sel(eps(A),eps(B))\nA | sel(eps(A),eps(B)) | -\n")
    assert m.universe == ("A", "sel(eps(A),eps(B))") and len(m) == 1


def test_loads_accepts_any_line_order_and_orientation():
    m = enumerate_model(demo_graph(), EMPTY, LWF)
    head, *body = m.dumps().splitlines()
    flipped = [" | ".join([y, x, z]) for x, y, z in (ln.split(" | ") for ln in body)]
    assert IndependenceModel.loads("\n".join([head] + flipped[::-1])) == m
