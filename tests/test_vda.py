"""Generator tests: base relations, splits, golden expressions, soundness."""

import copy
import cProfile
import hashlib
import pickle
import pstats
import sys
import threading
from collections import Counter
from types import SimpleNamespace

import pytest

import srexpr.vda as vda
from srexpr import (
    BaseCaseExpectedError,
    DomainError,
    EdgeLabel,
    Family,
    InvalidSizeError,
    Lit,
    ONE,
    One,
    OrderingError,
    RangeError,
    SubExprKey,
    Terminal,
    TerminalKind,
    base_expression,
    basic,
    build_sr,
    choose_split,
    classify,
    closed_form,
    dipterous_count,
    enumerate_paths,
    expand,
    expression,
    generate,
    induced_subgraph,
    literal_count,
    lower,
    make_product,
    make_sum,
    reference_trap_base_variant,
    single_leaf_count,
    sr_count,
    to_text,
    upper,
)
from srexpr.cli import main
from srexpr.expr import (
    Program,
    ProgramBuilder,
    _write_text,
    compile_program,
    iter_expansion,
    to_json_text,
)
from srexpr.graph import _interned_terminal, _iter_path_labels
from srexpr.vda import check_size, count_literals, program

GOLDEN_SR3 = "(b1+e1*e2+d1*d2)*(b2+e3*e4+d3*d4)+e1*c1*e4+d1*a1*d4"

# sha256 of to_text / to_json_text of every terminal pair of SR(12), each
# followed by "\n", in build_sr(12).vertices order (source, then sink).
SR12_TEXT_SHA256 = "361635004980d0fcf61f544a343882f191bd2a2b93efb370d0512ddfb82fbf81"
SR12_JSON_SHA256 = "25494ba1ce3c193482db63e2256c49a27d86400e7d248b66519ce9a1e1465db6"

# sha256 of `generator_digest`'s bytes, recorded while the generator still
# decided every terminal pair anew: deciding once per shape must print the
# same text and JSON and build tables of the same sizes.
GENERATOR_SHA256 = "8c90b4d73d2239579459aa6d6d1dfe5f4a2a37672343598e38724d30884c662f"

LOWER_FAMILIES = [
    Family.SL_BASIC_LOWER,
    Family.SL_LOWER_BASIC,
    Family.TRAP_LOWER_LOWER,
    Family.PARA_LOWER_UPPER,
]
# The row swap upper<->lower maps e<->d and c<->a and fixes b.
ROW_SWAP = str.maketrans("edca", "deac")

# Every base relation with its terminal pair at position p and the p-range
# valid inside SR(8); the texts are the relations written out at p = 1.
BASE_RELATIONS = [
    ("sr-1", lambda p: (basic(p), basic(p)), range(1, 9), "1"),
    ("basic-upper-1", lambda p: (basic(p), upper(p)), range(1, 8), "e1"),
    ("basic-lower-1", lambda p: (basic(p), lower(p)), range(1, 8), "d1"),
    ("upper-basic-1", lambda p: (upper(p), basic(p + 1)), range(1, 8), "e2"),
    ("lower-basic-1", lambda p: (lower(p), basic(p + 1)), range(1, 8), "d2"),
    ("trap-upper-1", lambda p: (upper(p), upper(p + 1)), range(1, 7), "c1+e2*e3"),
    ("para-upper-lower-1", lambda p: (upper(p), lower(p + 1)), range(1, 7), "e2*d3"),
    ("para-lower-upper-1", lambda p: (lower(p), upper(p + 1)), range(1, 7), "d2*e3"),
    ("trap-lower-1", lambda p: (lower(p), lower(p + 1)), range(1, 7), "a1+d2*d3"),
    ("sr-2", lambda p: (basic(p), basic(p + 1)), range(1, 8), "b1+e1*e2+d1*d2"),
    (
        "basic-upper-2",
        lambda p: (basic(p), upper(p + 1)),
        range(1, 7),
        "(b1+d1*d2)*e3+e1*(c1+e2*e3)",
    ),
    (
        "basic-lower-2",
        lambda p: (basic(p), lower(p + 1)),
        range(1, 7),
        "(b1+e1*e2)*d3+d1*(a1+d2*d3)",
    ),
    (
        "upper-basic-2",
        lambda p: (upper(p), basic(p + 2)),
        range(1, 7),
        "(c1+e2*e3)*e4+e2*(b2+d3*d4)",
    ),
    (
        "lower-basic-2",
        lambda p: (lower(p), basic(p + 2)),
        range(1, 7),
        "(a1+d2*d3)*d4+d2*(b2+e3*e4)",
    ),
    (
        "trap-upper-2",
        lambda p: (upper(p), upper(p + 2)),
        range(1, 6),
        "e2*(b2+d3*d4)*e5+(c1+e2*e3)*(c2+e4*e5)",
    ),
    (
        "para-upper-lower-2",
        lambda p: (upper(p), lower(p + 2)),
        range(1, 6),
        "e2*(b2*d5+d3*(a2+d4*d5))+(c1+e2*e3)*e4*d5",
    ),
    (
        "para-lower-upper-2",
        lambda p: (lower(p), upper(p + 2)),
        range(1, 6),
        "d2*(b2*e5+e3*(c2+e4*e5))+(a1+d2*d3)*d4*e5",
    ),
    (
        "trap-lower-2",
        lambda p: (lower(p), lower(p + 2)),
        range(1, 6),
        "d2*(b2+e3*e4)*d5+(a1+d2*d3)*(a2+d4*d5)",
    ),
]


class TestChooseSplit:
    def test_whole_graph_examples(self):
        assert choose_split(classify(basic(1), basic(7)), 1, 7) == 4
        assert choose_split(classify(basic(1), basic(3)), 1, 3) == 2

    def test_rounding_sides(self):
        kind = classify(basic(1), basic(4))
        assert choose_split(kind, 1, 4, rounding="ceil") == 3
        assert choose_split(kind, 1, 4, rounding="floor") == 2

    def test_dipterous_midpoint(self):
        kind = classify(upper(5), upper(9))
        assert choose_split(kind, 5, 9) == 8

    def test_single_leaf_stays_at_ceiling(self):
        # flooring a non-basic-source single-leaf split would leave an empty
        # bridge-side piece at size 3
        kind = classify(upper(1), basic(4))
        assert choose_split(kind, 1, 4, rounding="floor") == 3

    def test_base_case_guard(self):
        with pytest.raises(BaseCaseExpectedError):
            choose_split(classify(basic(1), basic(2)), 1, 2)
        with pytest.raises(BaseCaseExpectedError):
            choose_split(classify(upper(1), upper(3)), 1, 3)

    def test_bad_rounding(self):
        with pytest.raises(ValueError):
            choose_split(classify(basic(1), basic(5)), 1, 5, rounding="nearest")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bad_rounding_refused_by_every_entry_point(self, n):
        key = SubExprKey(basic(1), basic(n))
        calls = [
            lambda: generate(n, rounding="bogus"),
            lambda: expression(n, key, rounding="bogus"),
            lambda: program(n, key, rounding="bogus"),
            lambda: count_literals(n, key, "bogus"),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="rounding must be 'ceil' or 'floor'"):
                call()


class TestBaseRelations:
    @pytest.mark.parametrize("row", BASE_RELATIONS, ids=[row[0] for row in BASE_RELATIONS])
    def test_formula_at_position_one(self, row):
        _, pair, _, text = row
        src, dst = pair(1)
        assert to_text(base_expression(SubExprKey(src, dst))) == text

    @pytest.mark.parametrize("name", [row[0] for row in BASE_RELATIONS])
    def test_expands_to_subgraph_paths_everywhere(self, name):
        # sweep every valid position inside SR(8)
        _, pair, positions, _ = next(row for row in BASE_RELATIONS if row[0] == name)
        g = build_sr(8)
        for p in positions:
            src, dst = pair(p)
            e = base_expression(SubExprKey(src, dst))
            sub = induced_subgraph(g, src, dst)
            assert Counter(expand(e)) == Counter(enumerate_paths(sub)), (name, p)

    def test_recursion_guard(self):
        with pytest.raises(BaseCaseExpectedError):
            base_expression(SubExprKey(basic(1), basic(3)))

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("family", LOWER_FAMILIES, ids=lambda f: f.value)
    def test_lower_orientation_is_row_swapped_upper(self, family, size):
        # every position of the family in SR(8) against its upper partner
        mirror = {TerminalKind.BASIC: basic, TerminalKind.UPPER: lower, TerminalKind.LOWER: upper}
        checked = 0
        for src, dst in terminal_pairs(build_sr(8)):
            kind = classify(src, dst)
            if (kind.family, kind.size) != (family, size):
                continue
            partner = SubExprKey(mirror[src.kind](src.index), mirror[dst.kind](dst.index))
            upper_text = to_text(base_expression(partner))
            assert to_text(base_expression(SubExprKey(src, dst))) == upper_text.translate(
                ROW_SWAP
            ), (src, dst)
            checked += 1
        assert checked >= 5

    def test_reference_variant_is_letter_swapped(self):
        key = SubExprKey(upper(1), upper(3))
        assert (
            to_text(reference_trap_base_variant(key))
            == "e2*(b2+d3*d4)*e5+(a1+d2*d3)*(a2+d4*d5)"
        )
        assert literal_count(reference_trap_base_variant(key)) == 11
        with pytest.raises(ValueError):
            reference_trap_base_variant(SubExprKey(upper(1), lower(3)))
        with pytest.raises(ValueError):
            reference_trap_base_variant(SubExprKey(upper(1), upper(2)))


def terminal_pairs(g):
    """Every (src, dst) of `g` that spans a subgraph, in vertex order."""
    for src in g.vertices:
        for dst in g.vertices:
            try:
                classify(src, dst)
            except OrderingError:
                continue
            yield src, dst


def generator_digest() -> str:
    """sha256 over the whole graph at n = 1..64 and 200 and every terminal
    pair of SR(12), in both roundings: each table's text, its JSON for
    n <= 24, then its slot count and `count_literals`."""
    digest = hashlib.sha256()
    for rounding in ("ceil", "floor"):
        cases = [(n, SubExprKey(basic(1), basic(n))) for n in [*range(1, 65), 200]]
        cases += [(12, SubExprKey(src, dst)) for src, dst in terminal_pairs(build_sr(12))]
        for n, key in cases:
            built = program(n, key, rounding)
            digest.update(to_text(built).encode() + b"\n")
            if n <= 24:
                digest.update(to_json_text(built).encode() + b"\n")
            digest.update(f"{len(built.children)} {count_literals(n, key, rounding)}\n".encode())
    return digest.hexdigest()


class TestGenerate:
    def test_golden_size_three(self):
        assert to_text(generate(3)) == GOLDEN_SR3

    def test_size_one_is_unit(self):
        assert literal_count(generate(1)) == 0
        assert to_text(generate(1)) == "1"

    def test_size_four_count(self):
        assert literal_count(generate(4)) == 41

    def test_reference_column(self):
        assert [literal_count(generate(n)) for n in range(4, 11)] == [
            41, 66, 119, 172, 247, 322, 439,
        ]

    def test_floor_rounding_same_counts(self):
        # either rounding side reproduces the reference column
        assert [literal_count(generate(n, rounding="floor")) for n in range(4, 11)] == [
            41, 66, 119, 172, 247, 322, 439,
        ]

    def test_floor_rounding_sound(self):
        for n in range(1, 9):
            e = generate(n, rounding="floor")
            assert Counter(expand(e)) == Counter(enumerate_paths(build_sr(n)))

    def test_whole_graph_key_equals_generate(self):
        assert expression(6, SubExprKey(basic(1), basic(6))) == generate(6)

    def test_every_sr12_subexpression_matches_recorded_digests(self):
        text, json_text = hashlib.sha256(), hashlib.sha256()
        for src, dst in terminal_pairs(build_sr(12)):
            e = expression(12, SubExprKey(src, dst))
            text.update(to_text(e).encode() + b"\n")
            json_text.update(to_json_text(e).encode() + b"\n")
        assert (text.hexdigest(), json_text.hexdigest()) == (SR12_TEXT_SHA256, SR12_JSON_SHA256)

    @pytest.mark.parametrize("n", [4.0, True, "4", None])
    def test_size_that_is_not_an_int_is_refused(self, n):
        with pytest.raises(InvalidSizeError, match="must be an int"):
            check_size(n)
        with pytest.raises(InvalidSizeError, match="must be an int"):
            generate(n)

    def test_out_of_range_key(self):
        with pytest.raises(RangeError):
            expression(7, SubExprKey(upper(5), upper(7)))  # u7 needs n >= 8
        with pytest.raises(RangeError):
            expression(4, SubExprKey(basic(5), basic(5)))


class TestSoundness:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_exact_equivalence(self, n):
        e = generate(n)
        monomials = Counter(expand(e, limit=2 * 10**6))
        paths = Counter(enumerate_paths(build_sr(n), limit=2 * 10**6))
        assert monomials == paths
        assert all(v == 1 for v in monomials.values())

    @pytest.mark.parametrize("n", [11, 12])
    def test_exact_equivalence_large(self, n):
        # streamed comparison; materializing lists would be wasteful here
        key = lambda label: (label.letter, label.index)
        left = Counter(m.labels for m in iter_expansion(generate(n)))
        right = Counter(
            tuple(sorted(labels, key=key)) for labels in _iter_path_labels(build_sr(n))
        )
        assert left == right
        assert all(v == 1 for v in left.values())

    def test_subexpression_soundness_all_pairs_sr6(self):
        # every valid terminal pair of SR(6), all sizes and families
        from srexpr import OrderingError

        g = build_sr(6)
        checked = 0
        for src in g.vertices:
            for dst in g.vertices:
                try:
                    classify(src, dst)
                except OrderingError:
                    continue
                e = expression(6, SubExprKey(src, dst))
                sub = induced_subgraph(g, src, dst)
                assert Counter(expand(e)) == Counter(enumerate_paths(sub)), (src, dst)
                checked += 1
        assert checked > 100


class TestDipterousCountEquality:
    def test_trapezoid_equals_parallelogram_above_size_two(self):
        for size in range(3, 9):
            ambient = size + 2
            counts = {
                literal_count(expression(ambient, SubExprKey(upper(1), upper(size + 1)))),
                literal_count(expression(ambient, SubExprKey(lower(1), lower(size + 1)))),
                literal_count(expression(ambient, SubExprKey(lower(1), upper(size + 1)))),
                literal_count(expression(ambient, SubExprKey(upper(1), lower(size + 1)))),
            }
            assert len(counts) == 1, (size, counts)

    def test_size_two_split(self):
        trapezoid = literal_count(expression(4, SubExprKey(upper(1), upper(3))))
        parallelogram = literal_count(expression(4, SubExprKey(upper(1), lower(3))))
        assert (trapezoid, parallelogram) == (11, 12)

    def test_size_one_split(self):
        trapezoid = literal_count(expression(3, SubExprKey(upper(1), upper(2))))
        parallelogram = literal_count(expression(3, SubExprKey(upper(1), lower(2))))
        assert (trapezoid, parallelogram) == (3, 2)


def distinct_nodes(e):
    """Every node reachable from `e`, once per object."""
    seen = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, "children", ()))
    return list(seen.values())


class TestHashConsing:
    @pytest.mark.parametrize("n, nodes", [(16, 432), (64, 2256), (256, 9840)])
    def test_distinct_node_count(self, n, nodes):
        assert len(distinct_nodes(generate(n))) == nodes

    def test_no_two_nodes_share_type_and_children(self):
        keys = set()
        for node in distinct_nodes(generate(256)):
            if isinstance(node, Lit):
                key = (Lit, node.label)
            elif isinstance(node, One):
                key = (One,)
            else:
                key = (type(node), tuple(map(id, node.children)))
            assert key not in keys, key
            keys.add(key)

    def test_concurrent_calls_match_sequential(self):
        keys = [
            SubExprKey(basic(1), basic(64)),
            SubExprKey(upper(3), lower(50)),
            SubExprKey(lower(2), lower(60)),
            SubExprKey(basic(5), upper(40)),
        ]
        expected = [to_text(expression(64, key)) for key in keys]
        results = {}

        def work(slot, key):
            results[slot] = to_text(expression(64, key))

        jobs = [(slot, key) for slot, key in enumerate(keys + keys)]
        threads = [threading.Thread(target=work, args=job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results[slot] for slot, _ in jobs] == expected + expected

    def test_generation_makes_no_enum_hash_calls(self):
        # Terminal kinds and families key the generator's lookups; hashing
        # them must not go through the Python-level Enum.__hash__.
        profile = cProfile.Profile()
        profile.runcall(generate, 64)
        calls = {
            func: stat[1]
            for func, stat in pstats.Stats(profile).stats.items()
            if func[2] == "__hash__" and func[0].endswith("enum.py")
        }
        assert calls == {}


class TestCountLiterals:
    """The count algebra against `literal_count` of the built expression."""

    @pytest.mark.parametrize("rounding", ["ceil", "floor"])
    def test_every_sr20_pair(self, rounding):
        for src, dst in terminal_pairs(build_sr(20)):
            key = SubExprKey(src, dst)
            expected = literal_count(expression(20, key, rounding))
            assert count_literals(20, key, rounding) == expected, key

    @pytest.mark.parametrize("rounding", ["ceil", "floor"])
    def test_whole_graph(self, rounding):
        for n in range(1, 65):
            key = SubExprKey(basic(1), basic(n))
            assert count_literals(n, key, rounding) == literal_count(generate(n, rounding)), n

    def test_large_size_matches_closed_form_and_recurrences(self):
        n = 2**70
        counts = (
            count_literals(n, SubExprKey(basic(1), basic(n))),
            count_literals(n + 1, SubExprKey(basic(1), upper(n))),
            count_literals(n + 2, SubExprKey(upper(1), upper(n + 1))),
        )
        assert counts == closed_form(n)
        assert counts == (sr_count(n), single_leaf_count(n), dipterous_count(n))

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "4096", "--count-only"),
            ("gen", "4096", "--count-only", "--sub", "u5,l900", "--output", "json"),
            ("table",),
            ("closed-form", "--k", "70"),
        ],
    )
    def test_cli_counts_build_nothing(self, capsys, monkeypatch, argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("a count built an expression")

        for name in ("expression", "generate", "program", "ProgramBuilder"):
            monkeypatch.setattr(f"srexpr.vda.{name}", forbidden)
        assert main(list(argv)) == 0, capsys.readouterr().err

    def test_terminal_cache_stays_bounded(self):
        # Counting SR(2**k) touches more terminals than the cache may hold.
        _interned_terminal.cache_clear()
        for k in range(2, 257, 2):
            count_literals(2**k, SubExprKey(basic(1), basic(2**k)))
        info = _interned_terminal.cache_info()
        assert info.misses > info.maxsize == 1 << 16
        assert info.currsize <= info.maxsize


class TestMidpointIsShortest:
    """The paper's question, for one-vertex splits: no basic split vertex
    gives fewer literals than the midpoint the generator takes."""

    MAX_SPAN = 128

    def test_every_shape_up_to_span_128(self):
        # The least count of a shape (source row, sink row, span) over every
        # sequence of splits: sizes 1 and 2 are their base expressions, and a
        # larger shape takes its best split at a basic vertex strictly inside
        # the span whose six pieces are all non-empty (smaller spans, so
        # already in `least`), plus the bridging literals c and a.
        n = self.MAX_SPAN + 2
        least: dict[tuple, int] = {}

        def piece(src, dst):
            return least.get((src.kind, dst.kind, dst.index - src.index))

        checked = 0
        for span in range(self.MAX_SPAN + 1):
            for src_kind in TerminalKind:
                for dst_kind in TerminalKind:
                    src, dst = Terminal(src_kind, 1), Terminal(dst_kind, 1 + span)
                    try:
                        size = classify(src, dst).size
                    except OrderingError:
                        continue
                    key = SubExprKey(src, dst)
                    if size <= 2:
                        least[src_kind, dst_kind, span] = literal_count(base_expression(key))
                        continue
                    counts = []
                    for i in range(src.index + 1, dst.index):
                        pieces = [
                            piece(src, basic(i)),
                            piece(basic(i), dst),
                            piece(src, upper(i - 1)),
                            piece(upper(i), dst),
                            piece(src, lower(i - 1)),
                            piece(lower(i), dst),
                        ]
                        if None not in pieces:
                            counts.append(sum(pieces) + 2)
                    least[src_kind, dst_kind, span] = min(counts)
                    assert count_literals(n, key) == min(counts), key
                    checked += 1
        assert checked == 1137


def program_profile(p):
    """The text (by its digest, as SR(982)'s runs to hundreds of MB), the
    literal count, the slot count and the sorted labels of a table."""
    text = hashlib.sha256()
    _write_text(p, lambda chunk: text.update(chunk.encode()))
    return text.hexdigest(), literal_count(p), len(p.children), sorted(p.labels)


# The algebra of normalized expression nodes: `make_sum` / `make_product`
# flatten every nested sum and product, drop units from products and collapse
# single children, independently of `ProgramBuilder`'s sums and products.
NORMALIZED_NODES = SimpleNamespace(
    lit=lambda letter, index: Lit(EdgeLabel(letter, index)),
    one=ONE,
    sum=make_sum,
    product=make_product,
)


def walked_program(n, key, rounding="ceil"):
    """The table of E(key) built by the per-pair walk that `program` used to
    make: every terminal pair classified and split at its own position,
    memoized by the pair, in `NORMALIZED_NODES`, and the expression lowered
    by `compile_program`."""
    memo = {}

    def walk(src, dst):
        if (src, dst) not in memo:
            kind = classify(src, dst)
            if kind.size <= 2:
                builder, letters = vda._BASE_BUILDERS[kind]
                memo[src, dst] = builder(NORMALIZED_NODES, src.index, *letters)
            else:
                i = choose_split(kind, src.index, dst.index, rounding)
                memo[src, dst] = vda._split(NORMALIZED_NODES, src, dst, i, walk)
        return memo[src, dst]

    return compile_program(walk(key.src, key.dst))


def assert_children_first_and_all_reached(p):
    """Every child slot is below its parent, and the root reaches every
    slot and every label."""
    reached = {p.root}
    for k in reversed(range(len(p.children))):
        assert all(slot < k for slot in p.children[k]), k
        if k in reached:
            reached.update(p.children[k])
    assert reached - {-1} == {*range(len(p.children)), *range(-1 - len(p.labels), -1)}


class TestProgram:
    """`program` builds, shape by shape, the table that the per-pair walk builds."""

    @pytest.mark.parametrize("rounding", ["ceil", "floor"])
    def test_whole_graph(self, rounding):
        for n in [*range(1, 81), 200, 982, 1024]:
            key = SubExprKey(basic(1), basic(n))
            built = program(n, key, rounding)
            assert isinstance(built, Program)
            assert_children_first_and_all_reached(built)
            assert program_profile(built) == program_profile(walked_program(n, key, rounding)), n

    @staticmethod
    def check_every_pair(n, rounding):
        for src, dst in terminal_pairs(build_sr(n)):
            key = SubExprKey(src, dst)
            built = program(n, key, rounding)
            assert_children_first_and_all_reached(built)
            assert program_profile(built) == program_profile(walked_program(n, key, rounding)), key

    @pytest.mark.parametrize("rounding", ["ceil", "floor"])
    def test_every_sr12_pair(self, rounding):
        self.check_every_pair(12, rounding)

    @pytest.mark.parametrize("rounding", ["ceil", "floor"])
    def test_every_sr16_pair(self, rounding):
        self.check_every_pair(16, rounding)

    @pytest.mark.parametrize("n, slots", [(982, 82507), (1024, 33305), (4096, 134585)])
    def test_slot_counts(self, n, slots):
        assert len(program(n, SubExprKey(basic(1), basic(n))).children) == slots

    def test_compile_program_returns_a_program_unchanged(self):
        built = program(16, SubExprKey(basic(1), basic(16)))
        assert compile_program(built) is built

    def test_product_flattened_into_a_product_is_never_made(self):
        # A size-1 parallelogram is a product, flattened into every parent.
        h = ProgramBuilder()
        inner = h.product_columns([[h.lit("e", 2)], [h.lit("d", 3)]])
        (root,) = h.product_columns([[h.lit("b", 1)], inner])
        assert h.children == []
        finished = h.finish(root)
        assert finished.children == ((-4, -2, -3),)
        assert [str(label) for label in finished.labels] == ["e2", "d3", "b1"]

    def test_finish_is_the_builders_lists(self):
        h = ProgramBuilder()
        h.lit("c", 1)
        (root,) = h.sum_columns(
            [[h.lit("b", 1)], h.product_columns([[h.lit("b", 2)], [h.lit("b", 3)]])]
        )
        finished = h.finish(root)
        assert [str(label) for label in finished.labels] == ["c1", "b1", "b2", "b3"]
        assert (finished.children, finished.root) == (((-4, -5), (-3, 0)), 1)
        assert (finished.labels, finished.children) == (tuple(h._labels), tuple(h.children))

    def test_columns_build_each_position_as_the_scalar_ops_do(self):
        columnar = ProgramBuilder()
        b, e, d = ([columnar.lit(letter, index) for index in (1, 2)] for letter in "bed")
        leaves = columnar.product_columns([e, d])
        inner = columnar.sum_columns([b, leaves])
        roots = columnar.sum_columns([columnar.product_columns([leaves, inner, b]), b])
        for index, root in zip((1, 2), roots):
            h = ProgramBuilder()
            b_k, e_k, d_k = (h.lit(letter, index) for letter in "bed")
            leaf_product = h.product([e_k, d_k])
            scalar = h.sum([h.product([leaf_product, h.sum([b_k, leaf_product]), b_k]), b_k])
            text = to_text(h.finish(scalar))
            assert text == f"e{index}*d{index}*(b{index}+e{index}*d{index})*b{index}+b{index}"
            assert to_text(columnar.finish(root)) == text

    def test_empty_operand_lists(self):
        # Column forms cannot say "no operands", so the scalar ops keep their
        # own results: an empty sum slot, and an empty product that waits.
        h = ProgramBuilder()
        empty_sum = h.sum([])
        assert (h.children[empty_sum], h.is_product[empty_sum]) == ((), 0)
        assert h.product([]) == ()
        assert h.children == [()]
        assert h.finish(h.product([])).children == ((), ())

    @pytest.mark.parametrize("rounding", ["ceil", "floor"])
    def test_tables_are_in_normal_form(self, rounding):
        # The builder interns what it is given, so the generator alone keeps
        # the normal form of `make_sum` / `make_product`: every node has two
        # or more children, no product holds the unit or a product, and no
        # sum holds a sum.
        cases = [(n, SubExprKey(basic(1), basic(n))) for n in [*range(1, 65), 200, 982, 1024]]
        cases += [(12, SubExprKey(src, dst)) for src, dst in terminal_pairs(build_sr(12))]
        for n, key in cases:
            built = program(n, key, rounding)
            is_product = built.is_product
            for k, slots in enumerate(built.children):
                assert len(slots) >= 2, (n, key, k)
                if is_product[k]:
                    assert all(s < -1 or (s >= 0 and not is_product[s]) for s in slots), (n, key, k)
                else:
                    assert all(s < 0 or is_product[s] for s in slots), (n, key, k)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "9"),
            ("verify", "40", "--mode", "fingerprint"),
            ("verify", "41", "--mode", "fingerprint", "--rounding", "floor", "--output", "json"),
            ("gen", "9"),
            ("gen", "9", "--juxtapose"),
            ("gen", "9", "--output", "json"),
            ("gen", "12", "--sub", "u2,l9"),
            ("gen", "12", "--sub", "l2,b9", "--output", "json", "--rounding", "floor"),
        ],
    )
    def test_cli_builds_and_walks_no_expression(self, capsys, monkeypatch, argv):
        original = compile_program

        def programs_only(e):
            assert isinstance(e, Program), "a CLI command lowered an expression"
            return original(e)

        def forbidden(*args, **kwargs):
            raise AssertionError("a CLI command built an expression")

        monkeypatch.setattr("srexpr.expr.compile_program", programs_only)
        monkeypatch.setattr("srexpr.oracle.compile_program", programs_only)
        for name in ("expr.to_expr", "vda.to_expr", "expr.Sum", "expr.Prod"):
            monkeypatch.setattr(f"srexpr.{name}", forbidden)
        assert main(list(argv)) == 0, capsys.readouterr().err


class TestPlan:
    """`program` and `count_literals` read one decision per shape."""

    def test_output_matches_the_recorded_digest(self):
        assert generator_digest() == GENERATOR_SHA256

    def test_count_walks_shapes_not_positions(self, monkeypatch):
        # SR(982) first: a plan keyed by position would hold 28,021 entries
        # there, and would not finish at 2**256.
        plans = []
        walk = vda._plan

        def spy(rounding, plan, src, dst):
            plans.append(plan)
            vda._plan = walk  # the recursion below runs unwrapped, as deep as unspied
            return walk(rounding, plan, src, dst)

        for n, shapes in [(982, 145), (10**7, 354), (2**256, 3057)]:
            monkeypatch.setattr(vda, "_plan", spy)
            count_literals(n, SubExprKey(basic(1), basic(n)))
            assert len(plans[-1]) == shapes, n

    @pytest.mark.parametrize("rounding", ["ceil", "floor"])
    def test_program_decides_each_shape_once(self, monkeypatch, rounding):
        calls = Counter()

        def counted(function):
            def wrapper(*args):
                calls[function.__name__] += 1
                return function(*args)

            return wrapper

        for function in (classify, choose_split):
            monkeypatch.setattr(vda, function.__name__, counted(function))
        program(982, SubExprKey(basic(1), basic(982)), rounding)
        decided = dict(calls)
        plan: dict = {}
        vda._plan(rounding, plan, basic(1), basic(982))
        splits = sum(1 for step, _ in plan.values() if isinstance(step, int))
        assert (len(plan), splits) == (145, 128)
        # `_validate` classifies the key once more, to refuse an empty span.
        assert decided == {"classify": 146, "choose_split": 128}


class TestCopies:
    """`pickle` and `copy` rebuild labels, terminals, expressions and tables."""

    @staticmethod
    def fields(value):
        if isinstance(value, Program):  # no __eq__: compare the table
            return value.labels, value.is_product, value.children, value.root
        return value

    @pytest.mark.parametrize(
        "value",
        [
            EdgeLabel("e", 12),
            Terminal(TerminalKind.LOWER, 3),
            generate(6),
            program(6, SubExprKey(upper(1), lower(5))),
        ],
        ids=["label", "terminal", "expression", "program"],
    )
    def test_round_trips_give_an_equal_object(self, value):
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [
            pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
        ]
        for clone in copies:
            assert type(clone) is type(value)
            assert self.fields(clone) == self.fields(value)


class TestEveryPickleProtocol:
    """Tables and nodes pickle at every protocol, 0 and 1 included, and a
    table compares equal to its copy."""

    @pytest.mark.parametrize(
        "value",
        [
            program(6, SubExprKey(upper(1), lower(5))),
            generate(6),
            Lit(EdgeLabel("c", 4)),
            One(),
            SubExprKey(basic(2), upper(5)),
        ],
        ids=["program", "expression", "literal", "unit", "key"],
    )
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip(self, value, protocol):
        clone = pickle.loads(pickle.dumps(value, protocol))
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)

    def test_programs_compare_by_their_table(self):
        key = SubExprKey(upper(1), lower(5))
        first, second = program(6, key), program(6, key)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != program(7, SubExprKey(upper(1), lower(6)))
        assert first != (first.labels, first.is_product, first.children, first.root)

    def test_key_is_its_two_terminals(self):
        key = SubExprKey(upper(1), lower(5))
        assert (key.src, key.dst) == (upper(1), lower(5))
        assert key == SubExprKey(upper(1), lower(5)) != SubExprKey(upper(1), lower(4))
        with pytest.raises(AttributeError):
            key.src = basic(1)
