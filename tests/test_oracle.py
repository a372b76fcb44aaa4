"""Oracle tests: DP evaluation, exact check, fingerprint check, determinism."""

import hashlib
import json
import math

import pytest

from srexpr import (
    CapacityError,
    DEFAULT_PRIME,
    DomainError,
    EdgeLabel,
    ONE,
    SplitMix64,
    SubExprKey,
    UnboundLabelError,
    build_sr,
    check_exact,
    check_fingerprint,
    dp_eval,
    generate,
    induced_subgraph,
    lit,
    lower,
    make_product,
    make_sum,
    path_count,
    path_length_range,
    reference_trap_base_variant,
    upper,
)
from srexpr.oracle import is_prime

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
        assert report.detail["transcript"] == [
            {key: value for key, value in report.witness.items() if key != "label"}
        ]
        assert report.witness["trial"] == 0
        assert report.witness["label"] == foreign

    @pytest.mark.parametrize(
        "n, seed, trials, digest",
        [
            (16, 9, 5, "b690983c7ec547dc463ee1cbfa855acc71d28f75c19b0cd00ffa6aed7b117094"),
            (100, 42, 10, "d5fe1233ec7554faa0694c6e3dfabaffd1378ceae9504fafe01254820e4edb54"),
        ],
    )
    def test_transcripts_match_recorded_digests(self, n, seed, trials, digest):
        # recorded with the recursive evaluator that compiled evaluation replaced
        report = check_fingerprint(generate(n), build_sr(n), trials=trials, seed=seed)
        payload = json.dumps(report.detail, sort_keys=True).encode("utf-8")
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
        # the per-trial error bound deg/prime uses deg = 2(n-1)
        for n in (2, 16, 128):
            assert path_length_range(build_sr(n))[1] == 2 * (n - 1)
        assert DEFAULT_PRIME > 2 * 127


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
