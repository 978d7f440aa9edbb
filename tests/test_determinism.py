import pytest
from hypothesis import given, strategies as st

from cgkit.determinism import DeterminationTable, determined_set, eamp_rules, mask_closure, rule_masks
from cgkit.errors import StructureError
from cgkit.transforms import to_eamp

from _corpus import demo_graph


def test_table_rejects_degenerate_rules():
    with pytest.raises(ValueError):
        DeterminationTable([((), "A")])
    with pytest.raises(ValueError):
        DeterminationTable([(("A", "B"), "A")])


def test_table_equality_and_truthiness():
    t1 = DeterminationTable([(("A",), "B"), (("A", "B"), "C")])
    t2 = DeterminationTable([(("B", "A"), "C"), (("A",), "B")])
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1
    assert not DeterminationTable()


def test_determined_set_cascades():
    t = DeterminationTable([(("A",), "B"), (("B",), "C")])
    assert determined_set(t, {"A"}) == {"A", "B", "C"}
    assert determined_set(t, {"B"}) == {"B", "C"}
    assert determined_set(t, {"C"}) == {"C"}


def test_determined_set_needs_every_determinant():
    t = DeterminationTable([(("A", "B"), "C")])
    assert determined_set(t, {"A"}) == {"A"}
    assert determined_set(t, {"A", "B"}) == {"A", "B", "C"}


def test_empty_table_is_identity():
    assert determined_set(DeterminationTable(), {"A", "B"}) == {"A", "B"}


def test_eamp_rules_demo():
    ep = to_eamp(demo_graph())
    rules = {t: frozenset(d) for d, t in ep.table.rules}
    assert rules == {
        "eps(A)": frozenset("A"),
        "eps(B)": frozenset("AB"),
        "eps(C)": frozenset("AC"),
        "eps(D)": frozenset("ABD"),
        "eps(E)": frozenset("E"),
        "eps(F)": frozenset("F"),
    }


def test_eamp_rules_require_error_parents():
    with pytest.raises(StructureError):
        eamp_rules(demo_graph())  # no error layer present


_tables = st.lists(
    st.tuples(st.sets(st.sampled_from("ABCDE"), min_size=1, max_size=3), st.sampled_from("ABCDE")),
    max_size=4,
).map(lambda rs: DeterminationTable([(d, t) for d, t in rs if t not in d]))


@given(_tables, st.sets(st.sampled_from("ABCDE")))
def test_closure_is_extensive_and_idempotent(table, z):
    dz = determined_set(table, z)
    assert z <= dz
    assert determined_set(table, dz) == dz


@given(_tables, st.sets(st.sampled_from("ABCDE")), st.sets(st.sampled_from("ABCDE")))
def test_closure_monotone_in_z(table, z1, extra):
    assert determined_set(table, z1) <= determined_set(table, z1 | extra)


@given(_tables, st.sets(st.sampled_from("ABCDE")), st.sets(st.sampled_from("ABCDE"), min_size=1))
def test_mask_closure_matches_determined_set(table, z, known):
    # names outside known take positions past them, so reaching one shows
    pos = {v: i for i, v in enumerate(sorted(known))}
    rules, outside = rule_masks(table, pos)
    at = {**pos, **outside}
    assert len(set(at.values())) == len(at)
    z &= known
    dm = mask_closure(rules, sum(1 << pos[v] for v in z))
    assert {v for v, p in at.items() if dm >> p & 1} == determined_set(table, z)
