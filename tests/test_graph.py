"""Structural tests for square rhomboids and path-induced subgraphs."""

import hashlib
import operator
import re

import pytest

from srexpr import (
    CapacityError,
    DomainError,
    EdgeLabel,
    EmptySubgraphError,
    Family,
    InvalidSizeError,
    Monomial,
    OrderingError,
    RangeError,
    SubgraphKind,
    Terminal,
    TerminalKind,
    basic,
    build_sr,
    classify,
    enumerate_paths,
    induced_subgraph,
    lower,
    path_count,
    path_length_range,
    to_dot,
    upper,
)
from srexpr.graph import LabeledDigraph, sr_path_count
from srexpr.oracle import graph_program

OPERATORS = (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge)


def edge_label_set(g):
    return {str(label) for label in g.labels()}


class TestBuildSr:
    def test_degenerate_single_vertex(self):
        g = build_sr(1)
        assert len(g.vertices) == 1
        assert len(g.edges) == 0
        assert g.source == g.sink == basic(1)

    def test_size_two_edges(self):
        g = build_sr(2)
        assert edge_label_set(g) == {"b1", "e1", "e2", "d1", "d2"}
        assert path_count(g) == 3

    def test_size_seven_counts(self):
        g = build_sr(7)
        assert len(g.vertices) == 19
        assert len(g.edges) == 40

    @pytest.mark.parametrize("n", range(2, 13))
    def test_vertex_and_edge_formulas(self, n):
        g = build_sr(n)
        assert len(g.vertices) == 3 * n - 2
        assert len(g.edges) == 7 * n - 9

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidSizeError):
            build_sr(0)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_st_dag_property(self, n):
        # one source, one sink, every edge on some source-to-sink path
        g = build_sr(n)
        heads = {head for _, head, _ in g.edges}
        no_in = [v for v in g.vertices if v not in heads]
        no_out = [v for v in g.vertices if not g.out_edges(v)]
        assert no_in == [g.source]
        assert no_out == [g.sink]
        forward = {g.source}
        for v in g.topological_order:
            if v in forward:
                forward.update(head for head, _ in g.out_edges(v))
        backward = {g.sink}
        for v in reversed(g.topological_order):
            if v in backward:
                backward.update(tail for tail, head, _ in g.edges if head == v)
        for tail, head, _ in g.edges:
            assert tail in forward and head in backward

    @pytest.mark.parametrize("n", range(2, 11))
    def test_path_length_bounds(self, n):
        # shortest path is all b-edges, longest alternates through a row
        assert path_length_range(build_sr(n)) == (n - 1, 2 * (n - 1))

    def test_deterministic_edge_order(self):
        g = build_sr(5)
        labels = g.labels()
        assert list(labels) == sorted(labels)


class TestLabeledDigraph:
    """Hand-built graphs: two basic vertices b1, b2 and an upper vertex u1."""

    B1_B2 = (basic(1), basic(2), EdgeLabel("b", 1))

    def graph(self, vertices, edges):
        return LabeledDigraph(vertices, edges, basic(1), basic(2))

    def test_st_dag_accepted(self):
        g = self.graph(
            [basic(1), basic(2), upper(1)],
            [
                self.B1_B2,
                (basic(1), upper(1), EdgeLabel("e", 1)),
                (upper(1), basic(2), EdgeLabel("e", 2)),
            ],
        )
        assert g.topological_order == (basic(1), upper(1), basic(2))
        assert path_count(g) == 2
        assert path_length_range(g) == (1, 2)

    def test_isolated_vertex_refused(self):
        with pytest.raises(ValueError, match="unique in-degree-0 vertex"):
            self.graph([basic(1), basic(2), upper(1)], [self.B1_B2])

    def test_dead_end_vertex_refused(self):
        with pytest.raises(ValueError, match="unique out-degree-0 vertex"):
            self.graph(
                [basic(1), basic(2), upper(1)],
                [self.B1_B2, (basic(1), upper(1), EdgeLabel("e", 1))],
            )

    def test_cycle_off_every_path_refused(self):
        # u1 and l1 each have an in-edge and an out-edge, so only the
        # acyclicity check can see that they lie on no b1-to-b2 path
        with pytest.raises(ValueError, match="cycle"):
            self.graph(
                [basic(1), basic(2), upper(1), lower(1)],
                [
                    self.B1_B2,
                    (upper(1), lower(1), EdgeLabel("e", 1)),
                    (lower(1), upper(1), EdgeLabel("d", 1)),
                ],
            )

    def test_source_that_is_not_a_vertex_refused(self):
        with pytest.raises(ValueError, match="source and sink must be vertices"):
            LabeledDigraph([basic(1), basic(2)], [self.B1_B2], upper(1), basic(2))

    def test_repeated_label_refused(self):
        with pytest.raises(ValueError, match="edge labels must be distinct"):
            self.graph(
                [basic(1), basic(2), upper(1)],
                [self.B1_B2, (basic(1), upper(1), EdgeLabel("b", 1))],
            )

    def test_endpoint_outside_the_vertex_set_refused(self):
        with pytest.raises(ValueError, match="edge e1 has an endpoint outside the vertex set"):
            self.graph([basic(1), basic(2)], [self.B1_B2, (basic(1), upper(1), EdgeLabel("e", 1))])

    # Graphs with two faults: the checks run in the order membership,
    # distinct labels, endpoints, cycle, source, sink, and the first fault
    # found is the one reported.
    U1_L1 = (upper(1), lower(1), EdgeLabel("e", 1))
    L1_U1 = (lower(1), upper(1), EdgeLabel("d", 1))

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            pytest.param(
                [basic(1), basic(2), upper(1), lower(1), lower(2)],
                [B1_B2, U1_L1, L1_U1, (lower(2), basic(2), EdgeLabel("a", 1))],
                "graph has a directed cycle",
                id="cycle-and-second-source",
            ),
            pytest.param(
                [basic(1), basic(2), upper(1)],
                [B1_B2, (basic(1), upper(1), EdgeLabel("e", 1)), (basic(1), lower(1), EdgeLabel("d", 1))],
                "edge d1 has an endpoint outside the vertex set",
                id="second-sink-and-foreign-endpoint",
            ),
            pytest.param(
                [basic(1), basic(2), upper(1), lower(1)],
                [B1_B2, U1_L1, L1_U1, (basic(1), upper(1), EdgeLabel("b", 1))],
                "edge labels must be distinct",
                id="repeated-label-and-cycle",
            ),
            pytest.param(
                [basic(1), upper(1)],
                [B1_B2, (basic(1), upper(1), EdgeLabel("b", 1))],
                "source and sink must be vertices",
                id="foreign-sink-and-repeated-label",
            ),
            pytest.param(
                [basic(1), basic(2), upper(1), lower(1)],
                [B1_B2, (upper(1), basic(2), EdgeLabel("e", 2)), (basic(1), lower(1), EdgeLabel("d", 1))],
                re.escape(f"expected a unique in-degree-0 vertex b1, got {[basic(1), upper(1)]}"),
                id="second-source-and-second-sink",
            ),
        ],
    )
    def test_the_first_of_two_faults_is_reported(self, vertices, edges, message):
        with pytest.raises(ValueError, match=message):
            self.graph(vertices, edges)


class TestInducedSubgraph:
    def test_single_leaf_of_size_three(self):
        # source b1, sink u3: three basics, three uppers, two lowers
        g = induced_subgraph(build_sr(7), basic(1), upper(3))
        assert len(g.vertices) == 8
        assert len(g.edges) == 14
        assert edge_label_set(g) == {
            "b1", "b2", "c1", "c2", "a1",
            "e1", "e2", "e3", "e4", "e5",
            "d1", "d2", "d3", "d4",
        }
        assert g.source == basic(1)
        assert g.sink == upper(3)

    def test_identity_endpoints(self):
        g = induced_subgraph(build_sr(6), basic(3), basic(3))
        assert len(g.vertices) == 1
        assert len(g.edges) == 0

    def test_trapezoidal_dipterous_of_size_two(self):
        # upper 5 to upper 7 needs at least SR(8) for the upper-7 vertex
        g = induced_subgraph(build_sr(8), upper(5), upper(7))
        assert {str(v) for v in g.vertices} == {"u5", "u6", "u7", "b6", "b7", "l6"}
        assert edge_label_set(g) == {
            "e10", "e11", "e12", "e13", "c5", "c6", "b6", "d11", "d12"
        }

    def test_parallelogram_dipterous_of_size_two(self):
        g = induced_subgraph(build_sr(8), lower(5), upper(7))
        assert {str(v) for v in g.vertices} == {"l5", "l6", "b6", "b7", "u6", "u7"}
        assert edge_label_set(g) == {
            "d10", "d11", "d12", "a5", "b6", "e11", "e12", "e13", "c6"
        }

    @pytest.mark.parametrize("n", range(1, 9))
    def test_whole_graph_is_fixed_point(self, n):
        g = build_sr(n)
        assert induced_subgraph(g, basic(1), basic(n)) == g

    def test_no_path_raises(self):
        with pytest.raises(EmptySubgraphError):
            induced_subgraph(build_sr(3), lower(1), upper(1))

    def test_foreign_terminal_raises(self):
        with pytest.raises(RangeError):
            induced_subgraph(build_sr(3), basic(1), upper(9))

    def test_every_valid_pair_yields_st_dag(self):
        # the constructor re-validates the defining property for every pair
        g = build_sr(5)
        checked = 0
        for src in g.vertices:
            for dst in g.vertices:
                try:
                    sub = induced_subgraph(g, src, dst)
                except EmptySubgraphError:
                    continue
                assert sub.source == src and sub.sink == dst
                assert path_count(sub) >= 1
                checked += 1
        assert checked > 50


class TestRecordedDigests:
    """The topological order, the slot table and the DOT text of every
    graph below, against a sha256 recorded before the graph kept only its
    out-edges.  The order also fixes the table's label order, which is the
    decision diagram's variable order."""

    @staticmethod
    def digest(graphs):
        h = hashlib.sha256()
        for g in graphs:
            if g is None:  # no path between the pair
                h.update(b"empty\n")
                continue
            p = graph_program(g)
            h.update(" ".join(map(str, g.topological_order)).encode() + b"\n")
            table = (list(map(str, p.labels)), p.is_product.hex(), p.children, p.root)
            h.update(repr(table).encode() + b"\n")
            h.update(to_dot(g).encode())
        return h.hexdigest()

    def test_square_rhomboids_of_sizes_one_to_64(self):
        assert self.digest(build_sr(n) for n in range(1, 65)) == (
            "5c8658c73118e403fb4f09d93ea65ddc1d22ef29fadd356ee15713f26c729e74"
        )

    def test_every_induced_subgraph_of_sr9(self):
        g = build_sr(9)

        def subgraphs():
            for src in g.vertices:
                for dst in g.vertices:
                    try:
                        yield induced_subgraph(g, src, dst)
                    except EmptySubgraphError:
                        yield None

        assert self.digest(subgraphs()) == (
            "6ad14ba76fd556e48f2d59b6f4a582ad361765b32be60502aef0bf0e89429786"
        )


class TestClassify:
    def test_whole_graph(self):
        kind = classify(basic(1), basic(9))
        assert kind.family is Family.SR
        assert kind.size == 9

    def test_trapezoid(self):
        kind = classify(upper(5), upper(7))
        assert kind.family is Family.TRAP_UPPER_UPPER
        assert kind.size == 2
        assert kind.is_dipterous and kind.is_trapezoidal

    def test_parallelogram(self):
        kind = classify(lower(5), upper(7))
        assert kind.family is Family.PARA_LOWER_UPPER
        assert kind.size == 2
        assert kind.is_parallelogram

    def test_kind_is_its_family_and_size(self):
        kind = classify(upper(2), lower(6))
        assert kind == SubgraphKind(Family.PARA_UPPER_LOWER, 4)
        assert hash(kind) == hash(SubgraphKind(Family.PARA_UPPER_LOWER, 4))
        assert kind != SubgraphKind(Family.PARA_LOWER_UPPER, 4)
        assert repr(kind) == (
            "SubgraphKind(family=<Family.PARA_UPPER_LOWER: 'para-upper-lower'>, size=4)"
        )
        with pytest.raises(AttributeError):
            kind.size = 5

    @pytest.mark.parametrize("family", list(Family))
    def test_each_family_has_exactly_one_shape(self, family):
        kind = SubgraphKind(family, 3)
        shapes = (kind.is_trapezoidal, kind.is_parallelogram, kind.is_single_leaf)
        assert sum(shapes) == (family is not Family.SR)
        assert kind.is_dipterous == (kind.is_trapezoidal or kind.is_parallelogram)

    def test_single_leaf_size_one_pairs(self):
        assert classify(basic(4), upper(4)).size == 1
        assert classify(basic(4), lower(4)).size == 1
        assert classify(upper(4), basic(5)).size == 1
        assert classify(lower(4), basic(5)).size == 1

    @pytest.mark.parametrize(
        "src,dst",
        [
            (basic(3), basic(1)),
            (upper(1), basic(1)),
            (upper(2), upper(2)),
            (lower(3), upper(3)),
        ],
    )
    def test_ordering_errors(self, src, dst):
        with pytest.raises(OrderingError):
            classify(src, dst)


class TestPaths:
    def test_small_counts(self):
        assert path_count(build_sr(1)) == 1
        assert path_count(build_sr(2)) == 3
        assert path_count(build_sr(3)) == 11

    def test_enumerate_sr2(self):
        assert [str(m) for m in enumerate_paths(build_sr(2))] == ["b1", "d1*d2", "e1*e2"]

    def test_enumerate_sr1(self):
        paths = enumerate_paths(build_sr(1))
        assert len(paths) == 1
        assert paths[0].labels == ()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_enumeration_matches_count(self, n):
        g = build_sr(n)
        paths = enumerate_paths(g)
        assert len(paths) == path_count(g)
        assert len(set(paths)) == len(paths)

    def test_subgraph_enumeration_matches_count(self):
        g = build_sr(6)
        for src, dst in [
            (basic(1), upper(4)),
            (upper(1), basic(6)),
            (lower(2), lower(5)),
            (upper(2), lower(5)),
        ]:
            sub = induced_subgraph(g, src, dst)
            assert len(enumerate_paths(sub)) == path_count(sub)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            enumerate_paths(build_sr(4), limit=10)

    @pytest.mark.parametrize("limit", [None, 2.5, True], ids=["none", "float", "bool"])
    def test_limit_must_be_an_int(self, limit):
        with pytest.raises(DomainError, match="the limit must be an int"):
            enumerate_paths(build_sr(4), limit=limit)

    def test_row_recurrence_counts_paths(self):
        assert [sr_path_count(n) for n in range(1, 65)] == [
            path_count(build_sr(n)) for n in range(1, 65)
        ]

    def test_row_recurrence_stops_past_the_bound(self):
        # the first count above the bound, however large n is
        assert sr_path_count(10**9, stop_above=100) == sr_path_count(5) == 153
        assert sr_path_count(5, stop_above=153) == 153
        assert sr_path_count(6, stop_above=153) == 571


class TestDot:
    def test_single_vertex(self):
        text = to_dot(build_sr(1))
        assert '"b1";' in text
        assert "->" not in text
        assert text.endswith("}\n")

    def test_sr2_counts(self):
        text = to_dot(build_sr(2))
        assert text.count('";') == 4
        assert text.count("->") == 5

    def test_induced_subgraph_counts(self):
        sub = induced_subgraph(build_sr(7), basic(1), upper(3))
        text = to_dot(sub)
        assert text.count('";') == 8
        assert text.count("->") == 14

    def test_deterministic(self):
        assert to_dot(build_sr(6)) == to_dot(build_sr(6))


class TestParsing:
    def test_terminal_round_trip(self):
        for text in ("b1", "u3", "l5"):
            assert str(Terminal.parse(text)) == text

    def test_terminal_rejects_garbage(self):
        for text in ("x1", "b0", "u", "3b", "b-1"):
            with pytest.raises(ValueError):
                Terminal.parse(text)

    def test_edge_label_round_trip(self):
        for text in ("a1", "e12"):
            assert str(EdgeLabel.parse(text)) == text

    def test_a_trailing_newline_is_refused(self):
        # A pattern ending in `$` also matches before a final newline.
        with pytest.raises(ValueError):
            EdgeLabel.parse("b1\n")
        with pytest.raises(ValueError):
            Terminal.parse("u3\n")

    def test_edge_label_rejects_a_letter_outside_the_graph(self):
        with pytest.raises(ValueError, match="edge letter must be one of"):
            EdgeLabel("x", 1)

    def test_edge_label_ordering(self):
        assert EdgeLabel("a", 9) < EdgeLabel("b", 1) < EdgeLabel("b", 2) < EdgeLabel("e", 1)

    def test_all_six_comparisons_follow_letter_then_index(self):
        # labels and monomials (tuples of labels) against their (letter, index) keys
        labels = [EdgeLabel(letter, i) for letter in "aceb" for i in (12, 1, 2)]
        monomials = [Monomial(()), *(Monomial((x,)) for x in labels[:4])]
        monomials += [Monomial((x, y)) for x in labels[:3] for y in labels[3:6]]

        def key(value):
            if isinstance(value, Monomial):
                return tuple(key(label) for label in value.labels)
            return (value.letter, value.index)

        for items in (labels, monomials):
            for x in items:
                for y in items:
                    for op in OPERATORS:
                        assert op(x, y) == op(key(x), key(y)), (x, y, op)


class TestIdentity:
    """Labels and terminals are equal exactly when their fields are, at any index."""

    PAST_32_BITS = 2**32 + 1

    def test_index_past_32_bits_is_its_own_label(self):
        big_a, big_b = EdgeLabel("a", self.PAST_32_BITS), EdgeLabel("b", self.PAST_32_BITS)
        assert big_a != EdgeLabel("a", 1) and EdgeLabel("a", 1) < big_a
        assert big_b != EdgeLabel("c", 1) and big_b < EdgeLabel("c", 1)
        assert len({big_a, big_b, EdgeLabel("a", 1), EdgeLabel("c", 1)}) == 4

    def test_digraph_accepts_labels_past_32_bits(self):
        labels = [
            EdgeLabel("c", 1),
            EdgeLabel("b", self.PAST_32_BITS),
            EdgeLabel("a", self.PAST_32_BITS),
            EdgeLabel("a", 1),
        ]
        edges = [(basic(1), basic(2), label) for label in labels]
        g = LabeledDigraph([basic(1), basic(2)], edges, basic(1), basic(2))
        assert [str(x) for x in g.labels()] == ["a1", "a4294967297", "b4294967297", "c1"]
        assert path_count(g) == 4

    @pytest.mark.parametrize("index", [2.0, True, "2", 0, -1])
    def test_index_that_is_not_a_positive_int_is_refused(self, index):
        # Terminals are constructed directly: the cache behind basic() would
        # hand back basic(2) for basic(2.0).
        with pytest.raises(ValueError, match="must be a positive int"):
            EdgeLabel("b", index)
        for kind in TerminalKind:
            with pytest.raises(ValueError, match="must be a positive int"):
                Terminal(kind, index)

    def test_terminals_differ_by_row_and_index(self):
        terminals = [Terminal(kind, i) for kind in TerminalKind for i in (1, 2, 2**32, 2**64)]
        assert len(set(terminals)) == len(terminals)
        row = {TerminalKind.BASIC: 0, TerminalKind.UPPER: 1, TerminalKind.LOWER: 2}
        assert sorted(terminals) == sorted(terminals, key=lambda t: (t.index, row[t.kind]))
