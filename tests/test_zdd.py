"""Decision diagrams: union and join against sets of frozensets."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from srexpr.zdd import EMPTY, UNIT, ZDD  # noqa: E402

FAMILIES = st.sets(st.frozensets(st.integers(0, 5), max_size=4), max_size=6)


def build(table, family):
    """The node of `family`, made only through `node`, `union` and `join`."""
    root = EMPTY
    for s in family:
        member = UNIT
        for v in s:
            member = table.join(member, table.node(v, EMPTY, UNIT))
        root = table.union(root, member)
    return root


def sets_of(table, k):
    if k <= UNIT:
        return {frozenset()} if k == UNIT else set()
    with_var = {s | {table.var[k]} for s in sets_of(table, table.hi[k])}
    return sets_of(table, table.lo[k]) | with_var


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(FAMILIES, FAMILIES)
def test_operations_agree_with_sets(f, g):
    table = ZDD()
    a, b = build(table, f), build(table, g)
    assert sets_of(table, a) == f and sets_of(table, b) == g
    assert (a == b) == (f == g)
    joined = {s | t for s in f for t in g}
    assert table.union(a, b) == build(table, f | g)
    assert table.join(a, b) == table.join(b, a) == build(table, joined)


def test_terminals():
    table = ZDD()
    x = table.node(0, EMPTY, UNIT)
    assert table.node(0, x, EMPTY) == x  # zero suppression
    assert table.union(x, EMPTY) == x and table.join(x, EMPTY) == EMPTY
    assert table.join(x, UNIT) == x and table.join(x, x) == x
    assert table.union(UNIT, UNIT) == UNIT
