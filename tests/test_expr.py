"""Expression AST: counting, expansion, evaluation, printing, serialization."""

import io
import json
import random
import time
import tracemalloc

import pytest

import srexpr.expr as expr_module
from srexpr import (
    CapacityError,
    DEFAULT_PRIME,
    DomainError,
    EMPTY_MONOMIAL,
    EdgeLabel,
    Family,
    Lit,
    MalformedExpressionError,
    Monomial,
    ONE,
    One,
    Prod,
    Sum,
    UnboundLabelError,
    build_sr,
    classify,
    evaluate,
    expand,
    expansion_size,
    from_json,
    generate,
    lit,
    literal_count,
    make_product,
    make_sum,
    to_json,
    to_text,
)
from srexpr.expr import (
    Program,
    ProgramBuilder,
    _write_json,
    _write_text,
    compile_program,
    iter_expansion,
    to_json_text,
)
from srexpr.graph import Terminal, basic, lower, path_count, upper
from srexpr.oracle import check_fingerprint
from srexpr.vda import SubExprKey, expression, program
from test_vda import terminal_pairs


def sr2_expr(p=1):
    """b_p + e_(2p-1) e_(2p) + d_(2p-1) d_(2p), written out by hand."""
    return make_sum(
        [
            lit(f"b{p}"),
            make_product([lit(f"e{2 * p - 1}"), lit(f"e{2 * p}")]),
            make_product([lit(f"d{2 * p - 1}"), lit(f"d{2 * p}")]),
        ]
    )


def sr3_expr():
    """The size-3 whole-graph expression, written out by hand."""
    return make_sum(
        [
            make_product([sr2_expr(1), sr2_expr(2)]),
            make_product([lit("e1"), lit("c1"), lit("e4")]),
            make_product([lit("d1"), lit("a1"), lit("d4")]),
        ]
    )


class TestNormalization:
    def test_product_drops_units(self):
        assert make_product([ONE, lit("b1"), ONE]) == lit("b1")
        assert make_product([ONE, ONE]) == ONE
        assert make_product([]) == ONE

    def test_single_child_collapses(self):
        assert make_sum([lit("a1")]) == lit("a1")
        assert make_product([lit("a1")]) == lit("a1")

    def test_nested_nodes_flatten(self):
        nested = make_sum([make_sum([lit("a1"), lit("a2")]), lit("b1")])
        assert nested == Sum((lit("a1"), lit("a2"), lit("b1")))
        nested = make_product([make_product([lit("a1"), lit("a2")]), lit("b1")])
        assert nested == Prod((lit("a1"), lit("a2"), lit("b1")))

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            make_sum([])

    def test_arity_invariant(self):
        def check(node):
            if isinstance(node, (Sum, Prod)):
                assert len(node.children) >= 2
                if isinstance(node, Prod):
                    assert not any(isinstance(c, (Prod,)) for c in node.children)
                    assert ONE not in node.children
                for child in node.children:
                    check(child)

        check(generate(9))


class TestLiteralCount:
    def test_unit(self):
        assert literal_count(ONE) == 0

    def test_sr2(self):
        assert literal_count(sr2_expr()) == 5

    def test_sr3(self):
        assert literal_count(sr3_expr()) == 16

    def test_unit_elimination_preserves_count(self):
        wrapped = make_product([ONE, sr2_expr(), ONE])
        assert literal_count(wrapped) == 5


class TestExpand:
    def test_sr2(self):
        monomials = {str(m) for m in expand(sr2_expr())}
        assert monomials == {"b1", "e1*e2", "d1*d2"}

    def test_unit(self):
        assert expand(ONE) == [EMPTY_MONOMIAL]

    def test_sr3_has_eleven_distinct_monomials(self):
        monomials = expand(sr3_expr())
        assert len(monomials) == 11
        assert len(set(monomials)) == 11
        texts = {str(m) for m in monomials}
        assert {"b1*b2", "c1*e1*e4", "a1*d1*d4"} <= texts

    def test_multiplicative_and_additive_sizes(self):
        x, y = sr2_expr(1), sr2_expr(2)
        prod = make_product([x, y])
        assert expansion_size(prod) == expansion_size(x) * expansion_size(y)
        assert len(expand(prod)) == 9
        total = make_sum([x, y])
        assert expansion_size(total) == expansion_size(x) + expansion_size(y)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            expand(generate(6), limit=100)

    @pytest.mark.parametrize("limit", [2.5, None, True], ids=["float", "none", "bool"])
    def test_limit_must_be_an_int(self, limit):
        with pytest.raises(DomainError, match="the limit must be an int"):
            expand(generate(4), limit=limit)

    def test_capacity_message_states_a_huge_count_by_its_digits(self):
        # 2**15000 monomials: str() refuses ints of more than 4,300 digits
        huge = make_product([make_sum([lit("b1"), lit("b2")])] * 15000)
        assert expansion_size(huge) == 2**15000
        message = "^a 4516-digit number of monomials exceeds the limit 10$"
        with pytest.raises(CapacityError, match=message):
            expand(huge, limit=10)

    @pytest.mark.parametrize(
        "count, text",
        [
            (10**30 - 1, f"{10**30 - 1} monomials exceed"),
            (10**30, "a 31-digit number of monomials exceeds"),
            (10**31 - 1, "a 31-digit number of monomials exceeds"),
            (10**31, "a 32-digit number of monomials exceeds"),
        ],
    )
    def test_capacity_message_digit_count_at_the_boundaries(self, count, text):
        assert str(CapacityError.exceeded(count, "monomials", 5)) == f"{text} the limit 5"

    def test_expansion_size_of_shared_and_degenerate_nodes(self):
        x = sr2_expr()
        assert expansion_size(make_product([x, make_sum([x, x]), x])) == 3 * 6 * 3
        assert expansion_size(ONE) == expansion_size(lit("b1")) == 1
        assert expansion_size(generate(10)) == path_count(build_sr(10))

    def test_monomial_labels_are_sorted(self):
        for monomial in expand(sr3_expr()):
            assert list(monomial.labels) == sorted(monomial.labels)


class TestEvaluate:
    def test_worked_example(self):
        assignment = {
            EdgeLabel("b", 1): 2,
            EdgeLabel("e", 1): 3,
            EdgeLabel("e", 2): 5,
            EdgeLabel("d", 1): 7,
            EdgeLabel("d", 2): 11,
        }
        # 2 + 15 + 77
        assert evaluate(sr2_expr(), assignment) == 94

    def test_unit_is_one(self):
        assert evaluate(ONE, {}) == 1
        assert evaluate(ONE, {}, prime=97) == 1

    def test_all_ones_counts_monomials(self):
        e = sr3_expr()
        ones = {label: 1 for m in expand(e) for label in m.labels}
        assert evaluate(e, ones) == 11

    def test_missing_label(self):
        with pytest.raises(UnboundLabelError):
            evaluate(sr2_expr(), {EdgeLabel("b", 1): 2})

    @pytest.mark.parametrize(
        "prime",
        [0, 1, -7, 2.5, True, None],
        ids=["zero", "one", "negative", "float", "bool", "none"],
    )
    def test_modulus_must_be_an_int_of_at_least_two(self, prime):
        e = generate(4)
        assignment = {label: 3 for label in build_sr(4).labels()}
        with pytest.raises(DomainError, match="the modulus must be an int >= 2"):
            evaluate(e, assignment, prime)
        assert evaluate(e, assignment, 2) in (0, 1)

    def test_nodes_built_without_smart_constructors(self):
        assignment = {EdgeLabel("b", 1): 5}
        assert evaluate(Sum((lit("b1"),)), assignment) == 5
        assert evaluate(Sum(()), assignment) == 0
        assert evaluate(Prod(()), assignment) == 1
        assert evaluate(Sum((ONE, lit("b1"))), assignment) == 6

    def test_hand_built_nodes_compile(self):
        b1 = EdgeLabel("b", 1)
        cases = [
            (Sum(()), ((),), 0),
            (Prod(()), ((),), 1),
            (Sum((ONE, lit("b1"))), ((-1, -2),), 6),
        ]
        for node, children, value in cases:
            program = compile_program(node)
            assert (program.children, program.root) == (children, 0)
            assert program.run({b1: 5}) == value

    def test_program_has_one_slot_per_distinct_label_and_node(self):
        program = compile_program(generate(64))
        assert sorted(program.labels) == list(build_sr(64).labels())
        inner = 2256 - len(program.labels)  # distinct nodes minus one Lit per label
        assert len(program.children) == len(program.is_product) == inner

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_expansion(self, n):
        # evaluation must agree with sum-of-products over the expansion
        e = generate(n)
        monomials = expand(e)
        labels = sorted({label for m in monomials for label in m.labels})
        rng = random.Random(1000 + n)
        for _ in range(3):
            assignment = {label: rng.randrange(1, DEFAULT_PRIME) for label in labels}
            direct = evaluate(e, assignment)
            via_monomials = 0
            for m in monomials:
                term = 1
                for label in m.labels:
                    term = term * assignment[label] % DEFAULT_PRIME
                via_monomials = (via_monomials + term) % DEFAULT_PRIME
            assert direct == via_monomials


class TestToText:
    def test_sr2(self):
        assert to_text(sr2_expr()) == "b1+e1*e2+d1*d2"

    def test_juxtaposed(self):
        assert to_text(sr2_expr(), product_separator="") == "b1+e1e2+d1d2"

    def test_sr3(self):
        assert (
            to_text(sr3_expr())
            == "(b1+e1*e2+d1*d2)*(b2+e3*e4+d3*d4)+e1*c1*e4+d1*a1*d4"
        )

    def test_unit(self):
        assert to_text(ONE) == "1"

    def test_distinct_normalized_asts_print_distinctly(self):
        seen: dict[str, object] = {}

        def walk(node):
            text = to_text(node)
            if text in seen:
                assert seen[text] == node
            else:
                seen[text] = node
            if isinstance(node, (Sum, Prod)):
                for child in node.children:
                    walk(child)

        for n in range(1, 9):
            walk(generate(n))
        assert len(seen) > 50


def reference_text(node, separator="*"):
    """The tree-recursive rendering that `to_text` must reproduce byte for byte."""
    if isinstance(node, Lit):
        return str(node.label)
    if isinstance(node, One):
        return "1"
    if isinstance(node, Sum):
        return "+".join(reference_text(child, separator) for child in node.children)
    return separator.join(
        f"({reference_text(child, separator)})" if isinstance(child, Sum)
        else reference_text(child, separator)
        for child in node.children
    )


# One terminal pair of size 4 or 5 per family, inside SR(12).
FAMILY_PAIRS = (
    "b2,b7", "b2,u6", "u2,b7", "b2,l6", "l2,b7", "u2,u7", "l2,l7", "l2,u7", "u2,l7",
)


def emitter_cases():
    """Generated expressions, one subexpression per family, and nodes built
    without the smart constructors."""
    cases = [(f"generate({n})", generate(n)) for n in (1, 2, 3, 20, 64)]
    for pair in FAMILY_PAIRS:
        src, dst = map(Terminal.parse, pair.split(","))
        cases.append((pair, expression(12, SubExprKey(src, dst))))
    shared = make_product([lit("e1"), lit("e2")])
    deep = Sum((lit("a1"), make_product([lit("b1"), make_sum([lit("c1"), shared])])))
    cases += [
        ("sum in sum", Sum((Sum((lit("a1"), lit("a2"))), lit("b1")))),
        ("prod with unit", Prod((ONE, lit("b1"), Sum((lit("c1"), ONE))))),
        ("prod in prod", Prod((Prod((lit("a1"), lit("a2"))), Sum((lit("b1"), shared))))),
        ("repeated child", Prod((shared, shared, Sum((shared, shared))))),
        ("shared at two depths", Prod((deep, Sum((lit("d1"), Prod((lit("d2"), deep))))))),
        ("empty nodes", Sum((Sum(()), Prod(()), Prod((Sum(()),))))),
        ("one node", Prod((lit("e2"), lit("d3")))),
        ("bare literal", lit("d7")),
        ("bare unit", ONE),
        ("bare empty sum", Sum(())),
    ]
    return cases


EMITTER_CASES = emitter_cases()
SMALL_EMITTER_CASES = [(name, e) for name, e in EMITTER_CASES if literal_count(e) < 1000]
_EXPECTED: dict[tuple, str] = {}


def expected(name, e, write, option):
    """What `write(compile_program(e), sink, option)` must write for an
    emitter case, made once: `reference_text(e, option)` for the text
    writer, and `json.dumps(to_json(e), indent=2)` with every line after the
    first indented by `option` more for the JSON writer."""
    key = (name, write, option)
    if key not in _EXPECTED:
        if write is _write_text:
            _EXPECTED[key] = reference_text(e, option)
        else:
            _EXPECTED[key] = json.dumps(to_json(e), indent=2).replace("\n", "\n" + option)
    return _EXPECTED[key]


# Each writer with the options it is held to: the text writer with both
# product separators, the JSON writer at indent 0 and at the CLI's indent.
WRITERS = [
    pytest.param(_write_text, "*", id="text"),
    pytest.param(_write_text, "", id="text-juxtaposed"),
    pytest.param(_write_json, "", id="json"),
    pytest.param(_write_json, "  ", id="json-indented"),
]


def test_emitter_cases_cover_every_family():
    families = {
        classify(*map(Terminal.parse, pair.split(","))).family for pair in FAMILY_PAIRS
    }
    assert families == set(Family)


class TestEmitters:
    """The node-table emitters against the tree-recursive definitions."""

    @pytest.mark.parametrize("separator", ["*", ""])
    @pytest.mark.parametrize("name, e", EMITTER_CASES, ids=[name for name, _ in EMITTER_CASES])
    def test_text_matches_recursive_reference(self, name, e, separator):
        assert to_text(e, separator) == reference_text(e, separator)

    @pytest.mark.parametrize("name, e", EMITTER_CASES, ids=[name for name, _ in EMITTER_CASES])
    def test_json_text_matches_json_dumps(self, name, e):
        assert to_json_text(e) == json.dumps(to_json(e), indent=2)

    @pytest.mark.parametrize(
        "bound", [0, 1, 150, 10**9], ids=["walk-all", "walk-all-1", "mixed", "cache-all"]
    )
    @pytest.mark.parametrize("write, option", WRITERS)
    @pytest.mark.parametrize("name, e", EMITTER_CASES, ids=[name for name, _ in EMITTER_CASES])
    def test_writers_at_any_cache_bound(self, name, e, write, option, bound, monkeypatch):
        # A bound of 0 or 1 walks every sum and product with items, a huge
        # one writes the root from the cache, and 150 caches some nodes, and
        # some occurrences of a JSON node as its indentation grows, and walks
        # the others.
        monkeypatch.setattr(expr_module, "_CACHE_CHARS", bound)
        chunks = []
        write(compile_program(e), chunks.append, option)
        assert "".join(chunks) == expected(name, e, write, option)

    @pytest.mark.parametrize(
        "write, option", [*WRITERS, pytest.param(_write_json, " " * 10, id="json-deep")]
    )
    @pytest.mark.parametrize(
        "name, e", SMALL_EMITTER_CASES, ids=[name for name, _ in SMALL_EMITTER_CASES]
    )
    def test_root_is_cached_up_to_its_length(self, name, e, write, option, monkeypatch):
        # The folded length (and a JSON node's newline count) of the root is
        # exact: at a bound of its written length the root is one write from
        # the cache, and one character less walks it, a chunk per item at a
        # buffer of 1, unless it is a leaf or an empty node, which is always
        # written whole.
        text = expected(name, e, write, option)
        program = compile_program(e)
        monkeypatch.setattr(io, "DEFAULT_BUFFER_SIZE", 1)
        monkeypatch.setattr(expr_module, "_CACHE_CHARS", len(text))
        chunks = []
        write(program, chunks.append, option)
        assert chunks == [text]
        if program.root >= 0 and program.children[program.root]:
            monkeypatch.setattr(expr_module, "_CACHE_CHARS", len(text) - 1)
            chunks = []
            write(program, chunks.append, option)
            assert "".join(chunks) == text and len(chunks) > 1

    @pytest.mark.parametrize("write, option", WRITERS)
    def test_writers_write_in_buffer_sized_chunks(self, write, option):
        # SR(64) renders 247 K characters of text and 17.5 MB of JSON; a
        # chunk holds less than a buffer's worth and then one item, a cached
        # node and the few characters around it, never a large subtree.
        built = program(64, SubExprKey(basic(1), basic(64)))
        chunks = []
        write(built, chunks.append, option)
        assert "".join(chunks) == expected("generate(64)", generate(64), write, option)
        assert len(chunks) > 1
        assert max(map(len, chunks)) < 2 * io.DEFAULT_BUFFER_SIZE

    @pytest.mark.parametrize(
        "write, option, n, size, share",
        [
            pytest.param(_write_text, "*", 512, 63_000_000, 4, id="text"),
            pytest.param(_write_json, "  ", 128, 125_000_000, 20, id="json-indented"),
        ],
    )
    def test_writers_write_without_holding_the_output(self, write, option, n, size, share):
        # SR(512) renders 63 MB of text and SR(128) 125 MB of JSON at the
        # CLI's indent; writing either to a sink that drops each chunk holds
        # the cached small nodes' texts and the tree's depth, not the output.
        built = program(n, SubExprKey(basic(1), basic(n)))
        written = 0

        def discard(chunk):
            nonlocal written
            written += len(chunk)

        tracemalloc.start()
        try:
            write(built, discard, option)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written > size
        assert peak < written / share

    @pytest.mark.parametrize("write, option", WRITERS)
    def test_leaf_root_beside_unreached_slots(self, write, option):
        # A hand-built table may hold slots that its root does not reach.
        program = Program((EdgeLabel("b", 1),), b"\x01", ((-2, -2),), -2)
        chunks = []
        write(program, chunks.append, option)
        assert chunks == [expected("b1", lit("b1"), write, option)]


class TestJson:
    def test_shapes(self):
        assert to_json(lit("b1")) == {"lit": "b1"}
        assert to_json(ONE) == {"one": True}
        assert to_json(sr2_expr()) == {
            "sum": [
                {"lit": "b1"},
                {"prod": [{"lit": "e1"}, {"lit": "e2"}]},
                {"prod": [{"lit": "d1"}, {"lit": "d2"}]},
            ]
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_round_trip(self, n):
        e = generate(n)
        assert from_json(json.loads(json.dumps(to_json(e)))) == e

    @pytest.mark.parametrize(
        "e",
        [generate(16), generate(64), expression(40, SubExprKey(upper(3), lower(37)))],
        ids=["sr16", "sr64", "u3-l37"],
    )
    def test_round_trip_keeps_sharing(self, e):
        rebuilt = from_json(to_json(e))
        assert len(compile_program(rebuilt).children) == len(compile_program(e).children)

    def test_malformed_rejected(self):
        malformed = (
            {},
            {"lit": "x9"},
            {"one": False},
            {"mul": []},
            {"lit": "b1", "one": True},
            {"lit": 5},
            {"sum": 3},
            {"sum": []},
            {"prod": "ab"},
            {"prod": [{"lit": "b1"}, {"lit": None}]},
            {"sum": [{"lit": "b1\n"}, {"lit": "e1"}]},
        )
        for obj in malformed:
            with pytest.raises(MalformedExpressionError):
                from_json(obj)


class TestMonomial:
    def test_of_sorts(self):
        m = Monomial.of([EdgeLabel("e", 2), EdgeLabel("a", 10), EdgeLabel("d", 1)])
        assert str(m) == "a10*d1*e2"

    def test_empty_prints_as_unit(self):
        assert str(EMPTY_MONOMIAL) == "1"

    def test_ordering(self):
        a = Monomial.of([EdgeLabel("a", 1)])
        b = Monomial.of([EdgeLabel("a", 1), EdgeLabel("b", 1)])
        assert a < b

    def test_of_returns_a_sorted_monomial(self):
        m = Monomial.of([EdgeLabel("e", 2), EdgeLabel("b", 3), EdgeLabel("b", 1)])
        assert type(m) is Monomial
        assert m.labels == (EdgeLabel("b", 1), EdgeLabel("b", 3), EdgeLabel("e", 2))
        assert m == Monomial.of(reversed(m.labels))

    def test_order_is_label_tuple_order(self):
        monomials = [
            Monomial.of([EdgeLabel("b", 1), EdgeLabel("c", 1)]),
            EMPTY_MONOMIAL,
            Monomial.of([EdgeLabel("a", 2)]),
            Monomial.of([EdgeLabel("b", 1)]),
            Monomial.of([EdgeLabel("a", 10)]),
        ]
        assert sorted(monomials) == sorted(monomials, key=lambda m: m.labels)
        assert [str(m) for m in sorted(monomials)] == ["1", "a2", "a10", "b1", "b1*c1"]

    def test_repr_names_the_field(self):
        assert repr(Monomial.of([EdgeLabel("a", 1)])) == (
            "Monomial(labels=(EdgeLabel(letter='a', index=1),))"
        )


class TestNodes:
    """Nodes compare and hash by type and fields, and cannot be changed."""

    def test_sum_and_product_of_the_same_children_differ(self):
        children = (lit("b1"), lit("c2"))
        assert Sum(children) != Prod(children)
        assert Prod(children) != Sum(children)
        assert Sum(children) == Sum(children) and Prod(children) == Prod(children)

    def test_equal_literals_hash_equal(self):
        first, second = Lit(EdgeLabel("e", 7)), lit("e7")
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second, lit("e8")}) == 2

    def test_equal_trees_built_apart_are_equal(self):
        assert from_json(to_json(sr3_expr())) == sr3_expr()
        assert hash(from_json(to_json(sr3_expr()))) == hash(sr3_expr())
        assert One() == ONE and hash(One()) == hash(ONE)

    def test_a_node_is_not_equal_to_its_fields(self):
        assert Lit(EdgeLabel("b", 1)) != (EdgeLabel("b", 1),)
        assert ONE != ()

    @pytest.mark.parametrize(
        "node,field",
        [(lit("b1"), "label"), (make_sum([lit("b1"), lit("c1")]), "children"), (ONE, "label")],
        ids=["lit", "sum", "one"],
    )
    def test_assigning_or_deleting_a_field_raises(self, node, field):
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.extra = 1

    def test_repr_names_the_fields(self):
        assert repr(Lit(EdgeLabel("b", 1))) == "Lit(label=EdgeLabel(letter='b', index=1))"
        assert repr(ONE) == "One()"
        assert repr(make_product([lit("a2"), ONE, lit("c1")])) == (
            "Prod(children=(Lit(label=EdgeLabel(letter='a', index=2)), "
            "Lit(label=EdgeLabel(letter='c', index=1))))"
        )


def distinct_nodes(e):
    """Every node object reachable from `e`, once each."""
    seen = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, "children", ()))
    return list(seen.values())


def seconds(f, *args):
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


class TestSlotTable:
    """Every pass but `compile_program` reads the hash-consed slot table."""

    def test_equal_nodes_built_apart_share_a_slot(self):
        a, b = lit("b1"), lit("c1")
        e = Sum((Prod((a, b)), Prod((a, b))))
        assert compile_program(e).children == ((-2, -3), (0, 0))
        first, second = to_json(e)["sum"]
        assert first is second

    @pytest.mark.parametrize("e", [generate(16), generate(64)], ids=["sr16", "sr64"])
    def test_json_round_trip_makes_one_node_object_per_slot(self, e):
        # `compile_program` merges equal nodes, so a slot count alone cannot
        # tell whether `from_json` shares them
        rebuilt = from_json(to_json(e))
        sums_and_products = [x for x in distinct_nodes(rebuilt) if isinstance(x, (Sum, Prod))]
        assert len(sums_and_products) == len(compile_program(e).children)

    def test_program_and_expression_passes_agree_on_every_pair_of_sr6(self):
        checked = 0
        for src, dst in terminal_pairs(build_sr(6)):
            key = SubExprKey(src, dst)
            p, e = program(6, key), expression(6, key)
            assert expand(p) == expand(e), key
            assert list(iter_expansion(p)) == list(iter_expansion(e)), key
            assert to_json(p) == to_json(e), key
            checked += 1
        assert checked > 100

    def test_hash_equality_and_json_of_sr512_cost_the_dag(self):
        # generate(512) has 11.5M literals written out, and 16,457 slots
        first, second = generate(512), generate(512)
        assert first is not second
        assert seconds(hash, first) < 2
        assert seconds(lambda: first == second) < 2
        assert seconds(to_json, first) < 2
        assert first == second and hash(first) == hash(second)

    def test_a_node_is_hashed_without_lowering_it(self, monkeypatch):
        # each hash is made once from the children's, not from a new table
        nodes = distinct_nodes(generate(128))
        assert len(nodes) == 4768
        calls = []
        real = compile_program
        monkeypatch.setattr("srexpr.expr.compile_program", lambda e: calls.append(e) or real(e))
        assert len(set(nodes)) == len(nodes)
        assert calls == []

    def test_an_expression_is_lowered_once(self, monkeypatch):
        # a library job counts an expression's literals, then checks it
        e = expression(40, SubExprKey(basic(1), basic(40)))
        builders = []

        class Spy(ProgramBuilder):
            __slots__ = ()

            def __init__(self):
                builders.append(self)
                super().__init__()

        monkeypatch.setattr("srexpr.expr.ProgramBuilder", Spy)
        assert literal_count(e) == literal_count(program(40, SubExprKey(basic(1), basic(40))))
        assert check_fingerprint(e, build_sr(40)).passed
        assert compile_program(e) is compile_program(e)
        assert len(builders) == 1

    def test_json_round_trip_of_sr512_costs_the_dag(self):
        # `to_json` shares one dict per slot, so `from_json` reads each once
        start = time.perf_counter()
        assert from_json(to_json(generate(512))) == generate(512)
        assert time.perf_counter() - start < 2
