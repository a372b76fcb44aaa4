"""Oracle tests: DP evaluation, exact check, fingerprint check, determinism."""

import gc
import hashlib
import json
import math
from collections import Counter

import pytest

from srexpr import (
    CapacityError,
    DEFAULT_PRIME,
    DomainError,
    EdgeLabel,
    EmptySubgraphError,
    InvalidSizeError,
    Lit,
    Monomial,
    ONE,
    One,
    OrderingError,
    Prod,
    SplitMix64,
    SubExprKey,
    Sum,
    UnboundLabelError,
    VerificationReport,
    basic,
    build_sr,
    check_exact,
    check_fingerprint,
    classify,
    dp_eval,
    expansion_size,
    expression,
    from_json,
    generate,
    induced_subgraph,
    iter_expansion,
    lit,
    lower,
    make_product,
    make_sum,
    path_count,
    path_length_range,
    reference_trap_base_variant,
    to_json,
    upper,
)
from srexpr import expr, graph, oracle, vda
from srexpr.expr import Program, compile_program
from srexpr.graph import _iter_path_labels, _without_gc
from srexpr.oracle import MAX_TRIALS, check_fingerprint_parameters, graph_program, is_prime

# Standard first outputs of the split-mix construction.
SPLITMIX_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def broken_sr2_missing_b1():
    return make_sum(
        [
            make_product([lit("e1"), lit("e2")]),
            make_product([lit("d1"), lit("d2")]),
        ]
    )


def broken_sr2_swapped_label():
    # e2 replaced by d2 in the middle addend
    return make_sum(
        [
            lit("b1"),
            make_product([lit("e1"), lit("d2")]),
            make_product([lit("d1"), lit("d2")]),
        ]
    )


def reference_check_exact(e, g, limit=10**6):
    """The exact oracle on Counters of Monomial: slow, but built only from
    `iter_expansion` and path enumeration, so it checks the coded one."""
    n_paths = path_count(g)
    if n_paths > limit:
        raise CapacityError(f"{n_paths} paths exceed the limit {limit}")
    n_monomials = expansion_size(e)
    if n_monomials > limit:
        raise CapacityError(f"{n_monomials} monomials exceed the limit {limit}")
    key = lambda label: (label.letter, label.index)
    expanded = Counter(iter_expansion(e))
    paths = Counter(Monomial(tuple(sorted(labels, key=key))) for labels in _iter_path_labels(g))
    detail = {"expression_monomials": n_monomials, "graph_paths": n_paths}
    duplicates = sorted(m for m, count in expanded.items() if count > 1)
    if duplicates:
        witness = {"monomial": str(duplicates[0]), "side": "duplicate-in-expression"}
        return VerificationReport("exact", "fail", witness=witness, detail=detail)
    if expanded != paths:
        only_expr = sorted(m for m in expanded if expanded[m] > paths[m])
        only_graph = sorted(m for m in paths if paths[m] > expanded[m])
        if only_expr:
            witness = {"monomial": str(only_expr[0]), "side": "expression-only"}
        else:
            witness = {"monomial": str(only_graph[0]), "side": "graph-only"}
        return VerificationReport("exact", "fail", witness=witness, detail=detail)
    return VerificationReport("exact", "pass", detail=detail)


def relabel_first_literal(e, label):
    """`e` with its leftmost literal occurrence replaced by `label`, or None
    if `e` has no literal."""
    if isinstance(e, Lit):
        return lit(str(label))
    if isinstance(e, One):
        return None
    for i, child in enumerate(e.children):
        changed = relabel_first_literal(child, label)
        if changed is not None:
            children = list(e.children)
            children[i] = changed
            return make_sum(children) if isinstance(e, Sum) else make_product(children)
    return None


def wrong_variants(e, labels):
    """A dropped addend, a duplicated addend and two relabelled literals."""
    variants = []
    if isinstance(e, Sum):
        addends = list(e.children)
        variants.append(make_sum(addends[:1] + addends[2:]))
        variants.append(make_sum(addends + addends[-1:]))
    for label in labels[:1] + labels[-1:]:
        variants.append(relabel_first_literal(e, label))
    return [variant for variant in variants if variant is not None]


def assert_same_report(actual, expected):
    assert actual.to_json() == expected.to_json()
    assert actual.summary() == expected.summary()
    assert actual.detail == expected.detail


class TestSplitMix:
    def test_known_outputs(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == SPLITMIX_SEED0

    def test_same_seed_same_sequence(self):
        a, b = SplitMix64(42), SplitMix64(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_field_elements_are_nonzero(self):
        rng = SplitMix64(7)
        values = [rng.field_element(DEFAULT_PRIME) for _ in range(1000)]
        assert all(1 <= v < DEFAULT_PRIME for v in values)

    @pytest.mark.parametrize("prime", [DEFAULT_PRIME, 2**64 - 59], ids=["default", "below-2**64"])
    def test_a_prime_up_to_two_to_the_64_takes_one_word_a_draw(self, prime):
        rng, words = SplitMix64(7), SplitMix64(7)
        for _ in range(100):
            assert rng.field_element(prime) == 1 + words.next_u64() % (prime - 1)

    def test_draws_cover_a_prime_above_two_to_the_64(self):
        # The least prime above 2**70: a single 64-bit word would reach only
        # 1/64 of its nonzero residues.
        prime = 1180591620717411303449
        assert is_prime(prime) and not any(map(is_prime, range(2**70, prime)))
        rng = SplitMix64(7)
        values = [rng.field_element(prime) for _ in range(1000)]
        assert all(1 <= v < prime for v in values)
        assert sum(v > 2**64 for v in values) > 900
        report = check_fingerprint(generate(30), build_sr(30), trials=3, prime=prime)
        assert report.passed and report.prime == prime

    # 2**64 + 1 is the largest modulus of one word a draw; the least prime
    # above 2**70 takes two.
    @pytest.mark.parametrize(
        "prime",
        [DEFAULT_PRIME, 2**64 - 59, 2**64 + 1, 1180591620717411303449],
        ids=["default", "below-2**64", "2**64+1", "above-2**70"],
    )
    def test_a_column_of_draws_is_that_many_single_draws(self, prime):
        column, single = SplitMix64(11), SplitMix64(11)
        assert column.field_elements(prime, 50) == [single.field_element(prime) for _ in range(50)]
        assert column.next_u64() == single.next_u64()
        assert column.field_elements(prime, 0) == []
        assert column.next_u64() == single.next_u64()

    @pytest.mark.parametrize("modulus", [0, -5, 2.5, 1, True])
    def test_a_modulus_that_is_not_an_int_of_at_least_two_is_refused(self, modulus):
        rng = SplitMix64(7)
        with pytest.raises(DomainError, match="the modulus must be an int >= 2"):
            rng.field_element(modulus)
        with pytest.raises(DomainError, match="the modulus must be an int >= 2"):
            rng.field_elements(modulus, 3)
        assert rng.next_u64() == SplitMix64(7).next_u64()  # nothing was drawn


class TestDpEval:
    def test_all_ones_is_path_count(self):
        g = build_sr(3)
        assert dp_eval(g, {label: 1 for label in g.labels()}) == 11

    def test_worked_example(self):
        g = build_sr(2)
        assignment = {
            EdgeLabel("b", 1): 2,
            EdgeLabel("e", 1): 3,
            EdgeLabel("e", 2): 5,
            EdgeLabel("d", 1): 7,
            EdgeLabel("d", 2): 11,
        }
        assert dp_eval(g, assignment) == 94

    def test_single_vertex(self):
        assert dp_eval(build_sr(1), {}) == 1

    def test_missing_label(self):
        with pytest.raises(UnboundLabelError):
            dp_eval(build_sr(2), {EdgeLabel("b", 1): 1})

    @pytest.mark.parametrize("prime", [0, -7, 2.5, True], ids=["zero", "negative", "float", "bool"])
    def test_modulus_must_be_an_int_of_at_least_two(self, prime):
        g = build_sr(4)
        with pytest.raises(DomainError, match="the modulus must be an int >= 2"):
            dp_eval(g, {label: 3 for label in g.labels()}, prime)

    @pytest.mark.parametrize("n", [2, 5, 17, 33, 64, 128])
    def test_all_ones_matches_path_count(self, n):
        g = build_sr(n)
        ones = {label: 1 for label in g.labels()}
        assert dp_eval(g, ones) == path_count(g) % DEFAULT_PRIME


class TestCheckExact:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_generated_expressions_pass(self, n):
        report = check_exact(generate(n), build_sr(n))
        assert report.passed
        assert report.detail["expression_monomials"] == report.detail["graph_paths"]

    def test_unit_against_single_vertex(self):
        assert check_exact(ONE, build_sr(1)).passed

    def test_missing_monomial_is_witnessed(self):
        report = check_exact(broken_sr2_missing_b1(), build_sr(2))
        assert not report.passed
        assert report.witness == {"monomial": "b1", "side": "graph-only"}

    def test_duplicate_monomial_is_witnessed(self):
        duplicated = make_sum([lit("b1"), lit("b1"), lit("b1")])
        report = check_exact(duplicated, build_sr(2))
        assert not report.passed
        assert report.witness["side"] == "duplicate-in-expression"

    def test_foreign_monomial_is_witnessed(self):
        report = check_exact(broken_sr2_swapped_label(), build_sr(2))
        assert not report.passed
        assert report.witness["side"] in ("expression-only", "graph-only")

    def test_capacity(self):
        with pytest.raises(CapacityError):
            check_exact(generate(6), build_sr(6), limit=100)


class TestLabelPast32Bits:
    """SR(3) with a1 renamed a4294967297 (2**32 + 1), a label no edge has."""

    @staticmethod
    def renamed_sr3():
        payload = json.dumps(to_json(generate(3))).replace('"a1"', '"a4294967297"')
        return from_json(json.loads(payload))

    def test_exact_witnesses_the_renamed_path(self):
        report = check_exact(self.renamed_sr3(), build_sr(3))
        assert report.witness == {"monomial": "a4294967297*d1*d4", "side": "expression-only"}

    def test_fingerprint_fails_at_trial_zero(self):
        report = check_fingerprint(self.renamed_sr3(), build_sr(3))
        assert report.result == "fail" and report.witness["trial"] == 0


class TestExactAgainstReference:
    def test_every_sr8_pair_and_its_wrong_variants(self):
        g = build_sr(8)
        verdicts = Counter()
        for src in g.vertices:
            for dst in g.vertices:
                try:
                    kind = classify(src, dst)
                except OrderingError:
                    continue
                sub = induced_subgraph(g, src, dst)
                e = expression(8, SubExprKey(src, dst))
                cases = [e, *wrong_variants(e, sub.labels())]
                if kind.size == 2 and kind.is_trapezoidal:
                    cases.append(reference_trap_base_variant(SubExprKey(src, dst)))
                for case in cases:
                    report = check_exact(case, sub)
                    assert_same_report(report, reference_check_exact(case, sub))
                    verdicts[report.witness["side"] if report.witness else "pass"] += 1
        # every kind of verdict is compared, not just passes
        assert set(verdicts) == {
            "pass", "duplicate-in-expression", "expression-only", "graph-only"
        }


class TestExactCodes:
    @pytest.mark.parametrize("k", range(2, 18))
    def test_a_repeated_label_keeps_its_multiplicity(self, k):
        # k crosses the degrees where the code's field width grows
        power = make_product([lit("b1")] * k)
        witness = "*".join(["b1"] * k)
        report = check_exact(power, build_sr(2))
        assert report.witness == {"monomial": witness, "side": "expression-only"}
        report = check_exact(make_sum([power, lit("b1"), power]), build_sr(2))
        assert report.witness == {"monomial": witness, "side": "duplicate-in-expression"}

    def test_a_square_is_not_the_next_label(self):
        # with one-bit fields, b1*b1 would code as d1 and this would pass
        e = make_sum(
            [
                lit("b1"),
                make_product([lit("e1"), lit("e2")]),
                make_product([lit("b1"), lit("b1"), lit("d2")]),
            ]
        )
        report = check_exact(e, build_sr(2))
        assert report.witness == {"monomial": "b1*b1*d2", "side": "expression-only"}
        assert_same_report(report, reference_check_exact(e, build_sr(2)))

    def test_the_witness_may_be_a_prefix_of_another_surplus_monomial(self):
        a1, b2, c1 = lit("a1"), lit("b2"), lit("c1")
        e = make_sum([a1, make_product([a1, b2]), make_product([a1, b2, c1])])
        report = check_exact(e, build_sr(3))
        assert report.witness == {"monomial": "a1", "side": "expression-only"}
        assert_same_report(report, reference_check_exact(e, build_sr(3)))

    def test_unit_against_a_graph_with_paths(self):
        report = check_exact(ONE, build_sr(2))
        assert report.witness == {"monomial": "1", "side": "expression-only"}
        report = check_exact(make_sum([ONE, ONE]), build_sr(1))
        assert report.witness == {"monomial": "1", "side": "duplicate-in-expression"}

    def test_capacity_message_states_a_huge_count_by_its_digits(self):
        huge = make_product([make_sum([lit("b1"), lit("b2")])] * 15000)
        message = "^a 4516-digit number of monomials exceeds the limit 1000$"
        with pytest.raises(CapacityError, match=message):
            check_exact(huge, build_sr(3), limit=1000)


LABELS_UP = [lit(f"a{i}") for i in range(1, 4001)]


class TestExactDecision:
    """`check_exact` decides with one decision diagram and enumerates only to
    name a failure's witness."""

    @pytest.mark.parametrize(
        "e",
        [
            make_product(LABELS_UP),
            make_product(LABELS_UP[::-1]),
            make_sum(LABELS_UP),
            make_sum(LABELS_UP[::-1]),
            # a join that walks a chain of 4,000 nodes: no recursion may follow it
            Prod((make_product(LABELS_UP), lit("a4001"))),
        ],
        ids=["product-up", "product-down", "sum-up", "sum-down", "chain-times-literal"],
    )
    def test_deep_expressions_keep_their_verdicts(self, e):
        g = build_sr(2)
        assert_same_report(check_exact(e, g), reference_check_exact(e, g))

    @pytest.mark.parametrize(
        "addends, witness",
        [
            (["b1", "e1*e2", "d1*d2", "b1"], {"monomial": "b1", "side": "duplicate-in-expression"}),
            (["b1*b1", "e1*e2", "d1*d2"], {"monomial": "b1*b1", "side": "expression-only"}),
        ],
        ids=["duplicate", "square"],
    )
    def test_the_path_family_with_a_repeat_fails(self, addends, witness):
        # the diagram of each expression is the path family of SR(2): only the
        # count or the total size tells them apart
        e = make_sum([make_product(map(lit, addend.split("*"))) for addend in addends])
        report = check_exact(e, build_sr(2))
        assert report.witness == witness
        assert_same_report(report, reference_check_exact(e, build_sr(2)))

    def test_a_pass_enumerates_nothing(self, monkeypatch):
        def enumerate_(*args):
            raise AssertionError("a pass enumerated a side")

        monkeypatch.setattr("srexpr.oracle._expression_codes", enumerate_)
        report = check_exact(generate(11), build_sr(11))
        assert report.passed
        assert report.detail == {"expression_monomials": 413403, "graph_paths": 413403}

    def test_the_diagram_orders_square_rhomboid_edges_by_position(self):
        # On a square rhomboid the reversed labels of the graph's table are
        # its edges sorted by (topological position of the tail, of the
        # head, label), so the diagram's node counts there cannot drift.
        g9 = build_sr(9)
        graphs = [build_sr(n) for n in range(1, 31)]
        for src in g9.vertices:
            for dst in g9.vertices:
                try:
                    classify(src, dst)
                except OrderingError:
                    continue
                graphs.append(induced_subgraph(g9, src, dst))
        for g in graphs:
            position = {v: i for i, v in enumerate(g.topological_order)}
            edges = sorted(g.edges, key=lambda edge: (position[edge[0]], position[edge[1]], edge[2]))
            assert list(reversed(graph_program(g).labels)) == [label for _, _, label in edges], g


def sr6_sum_subexpressions():
    """(expression, subgraph) for every terminal pair of SR(6) whose
    expression is a sum."""
    g = build_sr(6)
    for src in g.vertices:
        for dst in g.vertices:
            try:
                classify(src, dst)
            except OrderingError:
                continue
            e = expression(6, SubExprKey(src, dst))
            if isinstance(e, Sum):
                yield e, induced_subgraph(g, src, dst)


class TestExactCountsFirst:
    """The diagram is built only when the expansion's (monomials, total
    degree) equals the graph's (paths, total length)."""

    def test_a_dropped_or_duplicated_addend_builds_no_diagram(self, monkeypatch):
        def diagrams(*args):
            raise AssertionError("a failure whose counts differ built a diagram")

        monkeypatch.setattr("srexpr.zdd.diagrams", diagrams)
        checked = 0
        for e, sub in sr6_sum_subexpressions():
            addends = list(e.children)
            for mutant in (make_sum(addends[1:]), make_sum(addends + addends[-1:])):
                report = check_exact(mutant, sub)
                assert not report.passed
                assert_same_report(report, reference_check_exact(mutant, sub))
                checked += 1
        assert checked > 0

    def test_a_relabelled_literal_reaches_the_diagram(self, monkeypatch):
        from srexpr.zdd import diagrams as build

        calls = []

        def diagrams(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr("srexpr.zdd.diagrams", diagrams)
        e, sub = next(sr6_sum_subexpressions())
        mutant = relabel_first_literal(e, sub.labels()[-1])
        assert mutant != e
        report = check_exact(mutant, sub)
        assert len(calls) == 1 and not report.passed
        assert_same_report(report, reference_check_exact(mutant, sub))


class TestEmptyNodes:
    """Hand-built empty sums and products get a verdict from both oracles."""

    def test_empty_sum_fails_with_a_graph_only_witness(self):
        g = build_sr(2)
        report = check_exact(Sum(()), g)
        assert report.witness == {"monomial": "b1", "side": "graph-only"}
        assert_same_report(report, reference_check_exact(Sum(()), g))
        assert not check_fingerprint(Sum(()), g).passed

    def test_empty_product_is_the_unit(self):
        g = build_sr(1)
        report = check_exact(Prod(()), g)
        assert report.passed
        assert_same_report(report, reference_check_exact(Prod(()), g))
        assert check_fingerprint(Prod(()), g).passed

    def test_a_label_outside_the_graph_in_a_vanishing_product_passes_both(self):
        e = Sum((ONE, Prod((lit("b1"), Sum(())))))  # 1 + b1 * 0
        g = build_sr(1)
        assert check_exact(e, g).passed
        assert check_fingerprint(e, g).passed


class TestCheckFingerprint:
    def test_passes_at_size_64(self):
        report = check_fingerprint(generate(64), build_sr(64), trials=10, seed=42)
        assert report.passed
        assert len(report.detail["transcript"]) == 10

    def test_deterministic_transcripts(self):
        a = check_fingerprint(generate(16), build_sr(16), trials=5, seed=9)
        b = check_fingerprint(generate(16), build_sr(16), trials=5, seed=9)
        assert a.to_json() == b.to_json()
        assert a.detail == b.detail

    def test_swapped_label_fails_with_transcript(self):
        report = check_fingerprint(broken_sr2_swapped_label(), build_sr(2), trials=10, seed=1)
        assert not report.passed
        assert report.witness is not None
        assert report.witness["expression_value"] != report.witness["graph_value"]
        # failure stops at the first unequal trial
        assert len(report.detail["transcript"]) == report.witness["trial"] + 1

    def test_unit_against_single_vertex(self):
        report = check_fingerprint(ONE, build_sr(1), trials=1, seed=0)
        assert report.passed
        row = report.detail["transcript"][0]
        assert row["expression_value"] == row["graph_value"] == 1

    def test_trial_count_validated(self):
        with pytest.raises(ValueError):
            check_fingerprint(ONE, build_sr(1), trials=0)

    @pytest.mark.parametrize("trials", [2.5, True, "3", None])
    def test_trial_count_must_be_an_int(self, trials):
        with pytest.raises(DomainError):
            check_fingerprint(generate(3), build_sr(3), trials=trials)

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**10])
    def test_trial_count_is_bounded(self, trials, monkeypatch):
        def work(*args):
            raise AssertionError("a refused trial count did work")

        monkeypatch.setattr("srexpr.oracle.compile_program", work)
        with pytest.raises(DomainError, match=f"trials must be <= {MAX_TRIALS}"):
            check_fingerprint(generate(3), build_sr(3), trials=trials)
        check_fingerprint_parameters(MAX_TRIALS, DEFAULT_PRIME, 4)  # the bound itself is taken

    @pytest.mark.parametrize("prime", [2.5, 17.0, True, "17", None])
    def test_modulus_must_be_an_int(self, prime, monkeypatch):
        with pytest.raises(DomainError):
            check_fingerprint(generate(3), build_sr(3), prime=prime)

        def work(n):
            raise AssertionError("a refused modulus reached the primality test")

        monkeypatch.setattr("srexpr.oracle.is_prime", work)
        with pytest.raises(DomainError):
            check_fingerprint_parameters(3, prime, 4)

    @pytest.mark.parametrize("limit", ["x", None, 2.5, True])
    def test_exact_limit_must_be_an_int(self, limit, monkeypatch):
        def work(*args):
            raise AssertionError("a refused call did work")

        monkeypatch.setattr("srexpr.oracle.graph_program", work)
        monkeypatch.setattr("srexpr.oracle.compile_program", work)
        with pytest.raises(DomainError):
            check_exact(generate(3), build_sr(3), limit=limit)

    @pytest.mark.parametrize("seed", [1.5, True, "7", None])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(DomainError):
            check_fingerprint(generate(3), build_sr(3), seed=seed)

    def test_wrong_types_are_refused_before_any_work(self, monkeypatch):
        def work(*args):
            raise AssertionError("a refused call did work")

        monkeypatch.setattr("srexpr.oracle.compile_program", work)
        monkeypatch.setattr("srexpr.oracle.path_length_range", work)
        with pytest.raises(DomainError):
            check_fingerprint(generate(3), build_sr(3), seed=1.5)
        with pytest.raises(DomainError):
            check_fingerprint_parameters(2.5, DEFAULT_PRIME, 4)

    @pytest.mark.parametrize("prime", [1, 4, (1 << 61) + 1, 13])
    def test_modulus_must_be_a_prime_above_the_degree(self, prime):
        # SR(8) has degree 14; 2**61 + 1 is divisible by 3
        with pytest.raises(DomainError):
            check_fingerprint(generate(8), build_sr(8), prime=prime)

    def test_smallest_admissible_prime(self):
        assert check_fingerprint(generate(8), build_sr(8), prime=17).passed

    @pytest.mark.parametrize(
        "src, dst, foreign",
        [(upper(1), upper(3), "a1"), (lower(1), lower(3), "c1")],
    )
    def test_foreign_label_fails_at_trial_zero(self, src, dst, foreign):
        # the letter-swapped trapezoid bases name edges outside their subgraph
        e = reference_trap_base_variant(SubExprKey(src, dst))
        g = induced_subgraph(build_sr(4), src, dst)
        report = check_fingerprint(e, g, trials=10, seed=7)
        assert report.result == "fail"
        assert report.detail["transcript"] == [report.witness]
        assert report.witness["trial"] == 0

    @pytest.mark.parametrize(
        "n, seed, trials, digest",
        [
            (16, 9, 5, "e58d3ecdfc1946b82064e7392048353cd1cddf9272fab43ec3ad45c7eb462ffa"),
            (100, 42, 10, "8723c3c805607e1c9db2ce8ca28030ba0ff65ba46965dc182699bfc100dbfe7a"),
        ],
    )
    def test_transcripts_match_recorded_digests(self, n, seed, trials, digest):
        # trials 1 and up work modulo the primes above `prime`; trial 0 is pinned below
        report = check_fingerprint(generate(n), build_sr(n), trials=trials, seed=seed)
        payload = json.dumps(report.detail, sort_keys=True).encode("utf-8")
        assert hashlib.sha256(payload).hexdigest() == digest

    @pytest.mark.parametrize(
        "n, seed, trials, digest",
        [
            (16, 9, 5, "7fb8872f9ce4c906802313c20785c34f49117697faa7dfbbbd985b7ae8c41c7f"),
            (100, 42, 10, "33f575ff39e1578dfb604abd5c34b2b27eda54cc9be5afb3f7df633916deac90"),
        ],
    )
    def test_trial_zero_matches_its_recorded_digest(self, n, seed, trials, digest):
        # trial 0 works modulo the given prime alone, so no pass layout may
        # change its row
        report = check_fingerprint(generate(n), build_sr(n), trials=trials, seed=seed)
        payload = json.dumps(report.detail["transcript"][0], sort_keys=True).encode("utf-8")
        assert hashlib.sha256(payload).hexdigest() == digest

    @pytest.mark.parametrize("n", range(2, 11))
    def test_agrees_with_exact(self, n):
        e, g = generate(n), build_sr(n)
        assert check_exact(e, g).passed
        assert check_fingerprint(e, g, trials=10, seed=42).passed

    def test_full_size_sweep(self):
        # soundness across every size up to 128, ten seeded trials each
        for n in range(1, 129):
            report = check_fingerprint(generate(n), build_sr(n), trials=10, seed=42)
            assert report.passed, n

    def test_degree_bound_for_error_estimate(self):
        # each trial's error bound deg * ceil(W/(p_i - 1))/W, p_i >= prime, uses deg = 2(n-1)
        for n in (2, 16, 128):
            assert path_length_range(build_sr(n))[1] == 2 * (n - 1)
        assert DEFAULT_PRIME > 2 * 127


class TestGraphTable:
    """Each oracle reads a graph's table, `graph_program(g)`, as it reads the graph."""

    @pytest.mark.parametrize("mutant", [False, True], ids=["sr6", "relabelled-sr6"])
    def test_each_oracle_reports_alike(self, mutant):
        g = build_sr(6)
        e = generate(6)
        if mutant:
            e = relabel_first_literal(e, g.labels()[-1])
        table = graph_program(g)
        assert check_exact(e, table) == check_exact(e, g)
        assert check_exact(e, g).passed is not mutant
        fingerprint = check_fingerprint(e, g, trials=12, seed=5)
        assert check_fingerprint(e, table, trials=12, seed=5) == fingerprint
        assert fingerprint.passed is not mutant

    def test_the_degree_bound_reads_the_tables_longest_path(self):
        # SR(6)'s longest path has 10 edges: 11 is the least admissible prime.
        g = build_sr(6)
        for graph in (g, graph_program(g)):
            with pytest.raises(DomainError, match="degree 10"):
                check_fingerprint(generate(6), graph, prime=7)
            assert check_fingerprint(generate(6), graph, prime=11).passed


def primes_from(p, count):
    """The first `count` primes from `p` on, by `is_prime`."""
    found = []
    while len(found) < count:
        if is_prime(p):
            found.append(p)
        p += 1
    return found


class TestFingerprintLanes:
    """Up to six trials share one pass, each trial modulo its own prime."""

    @pytest.mark.parametrize("n, seed, trials", [(16, 9, 5), (100, 42, 10), (12, 3, 25)])
    def test_each_row_is_its_trial_run_alone(self, n, seed, trials):
        e, g = generate(n), build_sr(n)
        report = check_fingerprint(e, g, trials=trials, seed=seed)
        rows = report.detail["transcript"]
        assert report.passed and report.prime == DEFAULT_PRIME and len(rows) == trials
        program, graph = compile_program(e), graph_program(g)
        labels = sorted(set(g.labels()).union(program.labels))
        master = SplitMix64(seed)
        for trial, (row, p) in enumerate(zip(rows, primes_from(DEFAULT_PRIME, trials))):
            assert row["trial"] == trial
            assert row["trial_seed"] == master.next_u64()
            rng = SplitMix64(row["trial_seed"])
            a = {label: rng.field_element(p) for label in labels}
            payload = ",".join(f"{label}={a[label]}" for label in labels).encode("utf-8")
            assert row["assignment_digest"] == hashlib.sha256(payload).hexdigest()[:16]
            assert row["expression_value"] == program.run(a, p)
            assert row["graph_value"] == graph.run(a, p)

    @staticmethod
    def record_moduli(monkeypatch):
        moduli = []
        run = Program.run

        def recording_run(self, assignment, prime=DEFAULT_PRIME):
            moduli.append(prime)
            return run(self, assignment, prime)

        monkeypatch.setattr(Program, "run", recording_run)
        return moduli

    def test_a_pass_holds_at_most_six_primes(self, monkeypatch):
        e, g = generate(12), build_sr(12)
        moduli = self.record_moduli(monkeypatch)
        assert check_fingerprint(e, g, trials=25, seed=3).passed
        p = primes_from(DEFAULT_PRIME, 25)
        passes = [math.prod(p[k : k + 5]) for k in range(0, 25, 5)]  # the fewest passes: five of 5
        assert moduli == [m for m in passes for _ in range(2)]  # the expression's, then the graph's

    def test_a_failure_at_trial_zero_ends_the_check(self, monkeypatch):
        e = reference_trap_base_variant(SubExprKey(upper(1), upper(3)))
        g = induced_subgraph(build_sr(4), upper(1), upper(3))
        moduli = self.record_moduli(monkeypatch)
        report = check_fingerprint(e, g, trials=25, seed=7, prime=17)
        assert report.witness["trial"] == 0
        assert report.detail["transcript"] == [report.witness]
        assert moduli == [math.prod(primes_from(17, 5))] * 2  # no later pass is run

    def test_a_trial_prime_past_the_exact_range_is_refused(self):
        # the largest prime is_prime certifies: the next lies past its bound
        p = 3_317_044_064_679_887_385_961_981 - 1
        while not is_prime(p):
            p -= 1
        e, g = generate(3), build_sr(3)
        assert check_fingerprint(e, g, trials=1, prime=p).passed
        with pytest.raises(DomainError, match="cannot certify"):
            check_fingerprint(e, g, trials=2, prime=p)


class TestCollectorPause:
    """The passes that make no reference cycle run with the cyclic collector
    off, and leave it as they found it."""

    def test_the_collector_is_off_inside_and_restored_after(self):
        seen = []
        probe = _without_gc(lambda: seen.append(gc.isenabled()))
        assert probe.__name__ == "<lambda>"
        was = gc.isenabled()
        try:
            gc.enable()
            probe()
            assert gc.isenabled()
            gc.disable()
            probe()
            assert not gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]

    @staticmethod
    def calls():
        key = SubExprKey(basic(1), basic(6))
        e, g = generate(6), build_sr(6)
        return [
            (vda.program, (6, key), None),
            (vda.program, (0, key), InvalidSizeError),
            (vda.expression, (6, key), None),
            (expr.compile_program, (make_sum([e, lit("b1")]),), None),
            (expr._fold, (compile_program(e), expr._COUNT), None),
            (graph.build_sr, (6,), None),
            (graph.build_sr, (0,), InvalidSizeError),
            (graph.induced_subgraph, (g, upper(1), upper(4)), None),
            (graph.induced_subgraph, (g, upper(2), upper(1)), EmptySubgraphError),
            (oracle.check_fingerprint, (e, g), None),
            (oracle.check_fingerprint, (e, g, 10, 42, 4), DomainError),
            (oracle.check_exact, (e, g), None),
            (oracle.check_exact, (e, g, 1), CapacityError),
        ]

    def test_no_paused_pass_leaves_cyclic_garbage(self):
        # nor do the writers and the expansion stream, whose recursive
        # closures would hold their output until a collection
        def exhausted_expansion(e):
            return list(expr.iter_expansion(e))

        e = generate(6)
        calls = [(fn, args) for fn, args, error in self.calls() if error is None]
        calls += [(expr.to_text, (e,)), (expr.to_json_text, (e,)), (exhausted_expansion, (e,))]
        for fn, args in calls:
            gc.collect()
            fn(*args)
            assert gc.collect() == 0, fn.__name__

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_every_paused_pass_leaves_the_collector_as_it_found_it(self, enabled):
        was = gc.isenabled()
        try:
            for fn, args, error in self.calls():
                (gc.enable if enabled else gc.disable)()
                if error is None:
                    fn(*args)
                else:
                    with pytest.raises(error):
                        fn(*args)
                assert gc.isenabled() is enabled, fn.__name__
                assert fn.__wrapped__.__name__ == fn.__name__  # paused by `_without_gc`
        finally:
            (gc.enable if was else gc.disable)()


class TestIsPrime:
    def test_matches_trial_division(self):
        def by_division(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if by_division(n)]

    def test_large_primes_and_strong_pseudoprimes(self):
        assert is_prime(DEFAULT_PRIME)
        assert is_prime(1_000_000_007)
        assert not is_prime(998_244_353 * 1_000_000_007)
        # strong pseudoprime to bases 2, 3, 5 and 7
        assert not is_prime(3_215_031_751)
        # strong pseudoprime to every prime base up to 37; base 41 exposes it
        assert not is_prime(318_665_857_834_031_151_167_461)

    def test_beyond_the_exact_range_is_rejected(self):
        with pytest.raises(DomainError):
            is_prime(3_317_044_064_679_887_385_961_981)


class TestReportJson:
    def test_fingerprint_fields(self):
        report = check_fingerprint(generate(4), build_sr(4), trials=3, seed=5)
        obj = report.to_json()
        assert set(obj) == {"mode", "result", "trials", "seed", "prime"}
        assert obj["mode"] == "fingerprint"
        assert obj["result"] == "pass"
        assert obj["trials"] == 3 and obj["seed"] == 5 and obj["prime"] == DEFAULT_PRIME
        json.dumps(obj)

    def test_exact_failure_carries_witness(self):
        obj = check_exact(broken_sr2_missing_b1(), build_sr(2)).to_json()
        assert set(obj) == {"mode", "result", "trials", "seed", "prime", "witness"}
        assert obj["trials"] is None and obj["seed"] is None and obj["prime"] is None
        json.dumps(obj)


class TestReport:
    """`VerificationReport` compares by its fields and owns its detail."""

    def test_defaults(self):
        report = VerificationReport("exact", "pass")
        assert (report.trials, report.seed, report.prime, report.witness) == (None,) * 4
        assert report.detail == {}

    def test_each_report_gets_a_fresh_detail(self):
        first, second = VerificationReport("exact", "pass"), VerificationReport("exact", "pass")
        first.detail["graph_paths"] = 3
        assert second.detail == {}

    def test_equality_is_by_fields(self):
        g = build_sr(4)
        assert check_exact(generate(4), g) == check_exact(generate(4), g)
        reports = [check_fingerprint(generate(4), g, seed=seed) for seed in (3, 3, 4)]
        assert reports[0] == reports[1] != reports[2]
        assert VerificationReport("exact", "pass") != VerificationReport("exact", "fail")
        assert VerificationReport("exact", "pass", detail={"graph_paths": 1}) != (
            VerificationReport("exact", "pass", detail={"graph_paths": 2})
        )
        assert VerificationReport("exact", "pass") != ("exact", "pass")

    def test_repr_lists_every_field(self):
        assert repr(VerificationReport("fingerprint", "pass", trials=2, seed=7)) == (
            "VerificationReport(mode='fingerprint', result='pass', trials=2, seed=7, "
            "prime=None, witness=None, detail={})"
        )
