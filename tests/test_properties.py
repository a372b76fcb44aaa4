"""Property tests: the count fold, the JSON round trip, node equality, the
two table converters, the two oracles, the graph's table and the command
line on random inputs."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from srexpr import (  # noqa: E402
    CapacityError,
    DEFAULT_PRIME,
    EdgeLabel,
    Lit,
    MalformedExpressionError,
    ONE,
    One,
    Prod,
    Sum,
    build_sr,
    check_exact,
    check_fingerprint,
    from_json,
    literal_count,
    to_json,
)
from srexpr.cli import main  # noqa: E402
from srexpr.expr import Program, compile_program, to_expr  # noqa: E402
from srexpr.graph import (  # noqa: E402
    EmptySubgraphError,
    LabeledDigraph,
    OrderingError,
    Terminal,
    TerminalKind,
    _iter_path_labels,
    classify,
    induced_subgraph,
    path_count,
    path_length_range,
)
from srexpr.oracle import MAX_TRIALS, _MILLER_RABIN_LIMIT, _shape, graph_program  # noqa: E402
from srexpr.vda import MAX_SIZE, SubExprKey, count_literals, expression  # noqa: E402
from test_oracle import assert_same_report, reference_check_exact  # noqa: E402

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


@st.composite
def hand_built_cases(draw):
    """(expression, SR(n)) for n = 1..5: a small expression made with the node
    constructors rather than `make_sum` and `make_product`, so it may hold
    empty, single-child and same-type nested sums and products, unit factors
    and repeated children.  Its literals are labels of SR(n) and labels
    outside it: those of SR(n+1), and each label of SR(n) with 2**32 added
    to its index."""
    n = draw(st.integers(1, 5))
    g = build_sr(n)
    foreign = sorted(set(build_sr(n + 1).labels()).difference(g.labels()))
    foreign += [EdgeLabel(x.letter, x.index + 2**32) for x in g.labels()]
    leaves = st.just(ONE) | st.sampled_from(foreign).map(Lit)
    if g.labels():
        leaves = leaves | st.sampled_from(g.labels()).map(Lit)

    def nodes(children):
        return st.builds(
            lambda kind, items, repeats: kind(tuple(items + items[:repeats])),
            st.sampled_from([Sum, Prod]),
            st.lists(children, max_size=3),
            st.integers(0, 2),
        )

    return draw(st.recursive(leaves, nodes, max_leaves=8)), g


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(hand_built_cases())
def test_oracles_agree_on_hand_built_expressions(case):
    e, g = case
    try:
        report = check_exact(e, g, limit=10**4)
    except CapacityError:
        hypothesis.reject()
    assert_same_report(report, reference_check_exact(e, g, limit=10**4))
    assert check_fingerprint(e, g, trials=3).passed == report.passed


def nodes_of(e):
    """Every node of `e`, once per occurrence."""
    yield e
    for child in getattr(e, "children", ()):
        yield from nodes_of(child)


def same_fields(x, y):
    """Field-wise equality: the same type, then equal labels or children
    item by item."""
    if type(x) is not type(y):
        return False
    if isinstance(x, (Sum, Prod)):
        return len(x.children) == len(y.children) and all(map(same_fields, x.children, y.children))
    return not isinstance(x, Lit) or x.label == y.label


def fresh_copy(e):
    """A copy of `e` that shares no node object with it."""
    if isinstance(e, Lit):
        return Lit(EdgeLabel(*e.label))
    if isinstance(e, One):
        return One()
    return type(e)(tuple([fresh_copy(child) for child in e.children]))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(hand_built_cases(), hand_built_cases())
def test_equality_is_field_wise_and_hash_agrees(first, second):
    a, b = first[0], second[0]
    nodes = [*nodes_of(a), *nodes_of(b)]
    for x in nodes:
        for y in nodes:
            assert (x == y) == same_fields(x, y), (x, y)
            if x == y:
                assert hash(x) == hash(y), (x, y)
    copy = fresh_copy(a)
    assert not {id(node) for node in nodes_of(copy)} & {id(node) for node in nodes_of(a)}
    assert copy == a and hash(copy) == hash(a)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(hand_built_cases())
def test_table_converters_invert_each_other(case):
    # hand-built tables may hold empty, single-child and same-type nested
    # slots, which the generator never makes and `from_json` makes as written
    e = case[0]
    p = compile_program(e)
    assert same_fields(to_expr(p), e)
    assert compile_program(to_expr(p)) == p


def has_empty_sum(e):
    return any(isinstance(node, Sum) and not node.children for node in nodes_of(e))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(hand_built_cases())
def test_from_json_inverts_to_json(case):
    # `from_json` interns as `compile_program` does, without normalizing;
    # only an empty sum, which no payload may hold, is refused.
    e = case[0]
    if has_empty_sum(e):
        with pytest.raises(MalformedExpressionError):
            from_json(to_json(e))
    else:
        assert from_json(to_json(e)) == e


@st.composite
def st_dags(draw):
    """A small st-dag: up to 7 vertices, parallel edges allowed, distinct
    labels.  The vertices are drawn in a path order unrelated to their own
    order, and every vertex but the source gets an in-edge from an earlier
    one and every vertex but the sink an out-edge to a later one, so every
    vertex lies on a source-to-sink path."""
    pool = [Terminal(kind, i) for kind in TerminalKind for i in (1, 2, 3)]
    k = draw(st.integers(1, 7))
    vertices = draw(st.permutations(pool))[:k]
    pairs = [(draw(st.integers(0, j - 1)), j) for j in range(1, k)]
    pairs += [(i, draw(st.integers(i + 1, k - 1))) for i in range(k - 1)]
    if k > 1:
        tail = st.integers(0, k - 2)
        extra = tail.flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, k - 1)))
        pairs += draw(st.lists(extra, max_size=6))
    names = st.tuples(st.sampled_from("abcde"), st.integers(1, 30))
    labels = draw(st.lists(names, min_size=len(pairs), max_size=len(pairs), unique=True))
    edges = [(vertices[i], vertices[j], EdgeLabel(*label)) for (i, j), label in zip(pairs, labels)]
    return LabeledDigraph(vertices, edges, vertices[0], vertices[-1])


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st_dags(), st.randoms(use_true_random=False))
def test_graph_program_is_the_path_polynomial(g, rng):
    program = graph_program(g)
    point = {label: rng.randrange(1, DEFAULT_PRIME) for label in g.labels()}
    reference = 0
    for labels in _iter_path_labels(g):
        term = 1
        for label in labels:
            term = term * point[label] % DEFAULT_PRIME
        reference = (reference + term) % DEFAULT_PRIME
    assert program.run(point) == reference
    # the fold that counts an expansion counts the paths and their edges
    assert _shape(program) == (path_count(g), sum(map(len, _iter_path_labels(g))))
    # reversed, the labels are the decision diagram's variable order: each
    # edge before every edge that leaves its head
    order = list(reversed(program.labels))
    assert sorted(order) == sorted(g.labels())
    position = {label: i for i, label in enumerate(order)}
    for _, head, label in g.edges:
        assert all(position[label] < position[below] for _, below in g.out_edges(head))

    report = check_exact(program, g)
    assert report.passed
    assert_same_report(report, reference_check_exact(program, g))
    assert check_fingerprint(program, g, trials=3).passed

    # one addend of the root sum dropped: both oracles fail
    root = program.root
    if root >= 0 and not program.is_product[root]:
        children = list(program.children)
        children[root] = children[root][1:]
        dropped = Program(program.labels, program.is_product, tuple(children), root)
        report = check_exact(dropped, g)
        assert not report.passed
        assert_same_report(report, reference_check_exact(dropped, g))
        assert not check_fingerprint(dropped, g, trials=3).passed



# Sizes for the commands that build: the CLI predicts no table or graph size
# yet, so a huge n would run until memory ran out.
BUILT_SIZES = st.integers(-3, 24)
# Sizes where the CLI refuses before it builds, or only counts.
ANY_SIZES = BUILT_SIZES | st.integers(-(2**300), 2**300) | st.sampled_from([MAX_SIZE, MAX_SIZE + 1])


def paths_between(g, u, v):
    """Every u-to-v path of g as a list of edges, by a DFS over `g.edges`
    alone."""
    if u == v:
        return [[]]
    return [
        [edge] + rest for edge in g.edges if edge[0] == u for rest in paths_between(g, edge[1], v)
    ]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st_dags())
def test_graph_passes_agree_with_path_enumeration(g):
    lengths = [len(labels) for labels in _iter_path_labels(g)]
    assert path_count(g) == len(lengths)
    assert path_length_range(g) == (min(lengths), max(lengths))
    for u in g.vertices:
        for v in g.vertices:
            paths = paths_between(g, u, v)
            if not paths:
                with pytest.raises(EmptySubgraphError):
                    induced_subgraph(g, u, v)
                continue
            sub = induced_subgraph(g, u, v)
            assert (sub.source, sub.sink) == (u, v)
            assert set(sub.vertices) == {u} | {head for path in paths for _, head, _ in path}
            assert set(sub.edges) == {edge for path in paths for edge in path}


@st.composite
def terminal_pairs(draw, indices):
    """A `--sub` value: two terminals with indices from `indices`, or any
    text over terminal characters, spaces and newlines."""
    if draw(st.booleans()):
        return draw(st.text(alphabet="bulx0123456789-, \n", max_size=10))
    rows = st.sampled_from("bul")
    pair = f"{draw(rows)}{draw(indices)},{draw(rows)}{draw(indices)}"
    return pair + draw(st.sampled_from(["", "\n", " "]))


@st.composite
def cli_argvs(draw):
    """An argv for one of the five commands, with sizes that go huge only
    where the command refuses them before building or only counts."""
    command = draw(st.sampled_from(["gen", "verify", "table", "closed-form", "dot"]))
    output = draw(st.sampled_from([[], ["--output", "json"], ["--output", "text"]]))
    rounding = draw(st.sampled_from([[], [], ["--rounding", "floor"], ["--rounding", "round"]]))
    if command == "gen":
        count_only = draw(st.booleans())
        sizes = ANY_SIZES if count_only else BUILT_SIZES
        argv = ["gen", str(draw(sizes)), *output, *rounding]
        argv += ["--count-only"] if count_only else []
        argv += ["--juxtapose"] if draw(st.booleans()) else []
        if draw(st.booleans()):
            argv += ["--sub", draw(terminal_pairs(sizes))]
    elif command == "verify":
        argv = ["verify", *output, *rounding]
        if draw(st.booleans()):  # exact: past its --limit, any size is refused
            limit = draw(st.none() | st.integers(-3, 10**6) | st.integers(0, 2**300))
            refused = limit is None or limit <= 10**6
            argv += [str(draw(ANY_SIZES if refused else BUILT_SIZES))]
            argv += [] if limit is None else ["--limit", str(limit)]
        else:
            trials = draw(st.integers(-2, 10) | st.integers(MAX_TRIALS + 1, 2**80))
            prime = draw(
                st.sampled_from([DEFAULT_PRIME, 1180591620717411303449])
                | st.integers(-3, 200)
                | st.integers(_MILLER_RABIN_LIMIT, 2**200)
            )
            refused = trials > MAX_TRIALS or prime >= _MILLER_RABIN_LIMIT
            argv += [str(draw(ANY_SIZES if refused else BUILT_SIZES)), "--mode", "fingerprint"]
            argv += ["--trials", str(trials)]
            argv += [] if prime == DEFAULT_PRIME else ["--prime", str(prime)]
            argv += ["--seed", str(draw(st.integers(-(2**70), 2**70)))]
    elif command == "table":
        bounds = st.integers(-2, 12) | st.integers(-(2**300), 2**300)
        argv = ["table", "--from", str(draw(bounds)), "--to", str(draw(bounds)), *output]
    elif command == "closed-form":
        k = draw(st.integers(-3, 260) | st.integers(-(2**300), 2**300))
        argv = ["closed-form", "--k", str(k), *output]
    else:
        argv = ["dot", str(draw(BUILT_SIZES))]
        if draw(st.booleans()):
            argv += ["--sub", draw(terminal_pairs(st.integers(-3, 30)))]
    return argv


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(cli_argvs())
def test_the_cli_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue()[-2000:])
    assert "Traceback" not in err.getvalue(), argv
