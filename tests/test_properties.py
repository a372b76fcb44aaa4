"""Property tests: the count fold and the JSON round trip on random inputs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from srexpr import from_json, literal_count, to_json  # noqa: E402
from srexpr.expr import compile_program  # noqa: E402
from srexpr.graph import OrderingError, Terminal, TerminalKind, classify  # noqa: E402
from srexpr.vda import SubExprKey, count_literals, expression  # noqa: E402

ROUNDINGS = st.sampled_from(["ceil", "floor"])


@st.composite
def subexpressions(draw, max_n):
    """(n, key) for a terminal pair that spans a subgraph of SR(n)."""
    n = draw(st.integers(1, max_n))

    def terminal():
        kinds = [TerminalKind.BASIC] + ([TerminalKind.UPPER, TerminalKind.LOWER] if n > 1 else [])
        kind = draw(st.sampled_from(kinds))
        bound = n if kind is TerminalKind.BASIC else n - 1
        return Terminal(kind, draw(st.integers(1, bound)))

    src, dst = sorted([terminal(), terminal()])
    try:
        classify(src, dst)
    except OrderingError:  # e.g. u3 and l3: no path either way
        hypothesis.reject()
    return n, SubExprKey(src, dst)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(subexpressions(120), ROUNDINGS)
def test_count_equals_literal_count_of_expression(case, rounding):
    n, key = case
    assert count_literals(n, key, rounding) == literal_count(expression(n, key, rounding))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(subexpressions(40), ROUNDINGS)
def test_json_round_trip_keeps_value_and_sharing(case, rounding):
    e = expression(*case, rounding)
    rebuilt = from_json(to_json(e))
    assert rebuilt == e
    assert len(compile_program(rebuilt).children) == len(compile_program(e).children)
