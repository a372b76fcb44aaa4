"""Recurrences, closed forms, reference table, and the discrepancy report."""

import json
from fractions import Fraction

import pytest

import srexpr
from srexpr import (
    ComplexityRow,
    DomainError,
    IntegrityError,
    InvalidSizeError,
    LEADING_TERM_COEFFICIENTS,
    REFERENCE_COMPARISON_TABLE,
    SubExprKey,
    asymptotic_check,
    base_expression,
    closed_form,
    derived_dipterous_count,
    dipterous_count,
    discrepancy_report,
    expression,
    generate,
    generated_counts,
    literal_count,
    lower,
    recurrence_table,
    single_leaf_count,
    sr_count,
    upper,
)
from srexpr.complexity import (
    REFERENCE_DIPTEROUS_BASES,
    REFERENCE_DIPTEROUS_PARALLELOGRAM_BASES,
    REFERENCE_DIPTEROUS_TRAPEZOID_BASES,
)
from srexpr import complexity, vda
from srexpr.graph import MAX_SIZE, build_sr, sr_path_count


class TestRecurrence:
    def test_size_three_decomposition(self):
        # 5 + 5 + 2*1 + 2*1 + 2
        assert sr_count(3) == 16

    def test_reference_column(self):
        for n, row in REFERENCE_COMPARISON_TABLE.items():
            assert sr_count(n) == row[3]

    def test_small_bases(self):
        assert sr_count(1) == 0 and sr_count(2) == 5
        assert [single_leaf_count(n) for n in range(1, 7)] == [1, 8, 22, 47, 79, 132]
        assert [dipterous_count(n) for n in (3, 4, 5)] == [28, 60, 92]

    def test_derived_size_six_base(self):
        derived = derived_dipterous_count(6)
        assert dipterous_count(6) == derived
        assert derived != REFERENCE_DIPTEROUS_BASES[6]
        assert derived > dipterous_count(5)  # restores monotonicity
        # independent recomputation from a freshly generated expression
        assert derived == literal_count(expression(8, SubExprKey(upper(1), upper(7))))
        assert derived == literal_count(expression(8, SubExprKey(lower(1), upper(7))))

    @pytest.mark.parametrize("n", range(2, 65))
    def test_matches_generation(self, n):
        assert sr_count(n) == literal_count(generate(n))

    def test_single_leaf_and_dipterous_match_generation(self):
        for n in range(3, 33):
            whole, single, dipterous = generated_counts(n)
            assert whole == sr_count(n)
            assert single == single_leaf_count(n)
            assert dipterous == dipterous_count(n)

    def test_rows(self):
        rows = recurrence_table(8)
        assert [row.n for row in rows] == list(range(1, 9))
        first, second = rows[0], rows[1]
        assert (first.sr, first.single_leaf) == (0, 1)
        assert (first.dipterous_parallelogram, first.dipterous_trapezoidal) == (2, 3)
        assert first.dipterous is None
        assert (second.dipterous_parallelogram, second.dipterous_trapezoidal) == (12, 11)
        assert rows[2].dipterous == 28
        assert rows[7].sr == 247

    def test_row_defaults_and_fields(self):
        row = ComplexityRow(5, 66, 79, 92)
        assert row.dipterous_parallelogram is None and row.dipterous_trapezoidal is None
        assert row == recurrence_table(5)[4]
        assert row._fields == (
            "n", "sr", "single_leaf", "dipterous", "dipterous_parallelogram", "dipterous_trapezoidal"
        )
        assert repr(row) == (
            "ComplexityRow(n=5, sr=66, single_leaf=79, dipterous=92, "
            "dipterous_parallelogram=None, dipterous_trapezoidal=None)"
        )
        with pytest.raises(AttributeError):
            row.sr = 0

    def test_strictly_increasing(self):
        values = [row.sr for row in recurrence_table(32)[1:]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bad_sizes(self):
        with pytest.raises(InvalidSizeError):
            recurrence_table(1)
        with pytest.raises(InvalidSizeError):
            dipterous_count(2)
        with pytest.raises(InvalidSizeError):
            sr_count(0)

    @pytest.mark.parametrize(
        "count",
        [
            sr_count,
            single_leaf_count,
            dipterous_count,
            closed_form,
            generated_counts,
            derived_dipterous_count,
            build_sr,
            sr_path_count,
            recurrence_table,
        ],
    )
    @pytest.mark.parametrize("n", [4.0, True], ids=["float", "bool"])
    def test_size_that_is_not_an_int_is_refused(self, count, n):
        # sr_count(1) is cached first, so a bool must not be answered from it.
        sr_count(1)
        with pytest.raises(InvalidSizeError, match="must be an int"):
            count(n)


class TestOnePlan:
    """`generated_counts` reads its three counts off one plan of the
    generator's, which decides each shape once."""

    @pytest.mark.parametrize("n, shapes", [(2**9, 120), (2**256, 3825)], ids=["2**9", "2**256"])
    def test_three_counts_share_one_plan(self, monkeypatch, n, shapes):
        # Three separate plans would decide 263 and 8,414 shapes.
        plans = []

        def spy(rounding, plan, src, dst):
            plans.append(plan)
            return vda._plan(rounding, plan, src, dst)

        monkeypatch.setattr(complexity, "_plan", spy)
        assert generated_counts(n) == closed_form(n)
        assert len(plans) == 3 and all(plan is plans[0] for plan in plans)
        assert len(plans[0]) == shapes

    @pytest.mark.parametrize("n", [MAX_SIZE, MAX_SIZE - 1], ids=["MAX_SIZE", "MAX_SIZE-1"])
    def test_counts_at_the_largest_sizes(self, n):
        # The single-leaf and dipterous subgraphs of size n lie in SR(n + 1)
        # and SR(n + 2), past MAX_SIZE here; their shapes do not.
        expected = (sr_count(n), single_leaf_count(n), dipterous_count(n))
        assert generated_counts(n) == expected
        assert derived_dipterous_count(n) == expected[2]


class TestClosedForm:
    def test_smallest_power(self):
        assert closed_form(4) == (41, 47, 60)

    def test_power_eight(self):
        assert closed_form(8) == (247, 265, 304)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_matches_recurrence(self, k):
        n = 1 << k
        assert closed_form(n) == (sr_count(n), single_leaf_count(n), dipterous_count(n))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 12, 100])
    def test_domain_errors(self, n):
        with pytest.raises(DomainError):
            closed_form(n)

    def test_a_wrong_coefficient_is_not_an_integer(self, monkeypatch):
        # A middle coefficient of 2/27 in place of 1/27 adds 1/3 at n = 4.
        monkeypatch.setitem(srexpr.complexity._COEFFICIENTS, "sr", (2, 27))
        with pytest.raises(IntegrityError, match="^closed form at n=4 is not an integer: 41 "):
            closed_form(4)


class TestAsymptotics:
    def test_ratios_approach_leading_coefficient(self):
        target = LEADING_TERM_COEFFICIENTS["1-VDA"]
        ratios = asymptotic_check([16, 32, 64])
        for ratio in ratios:
            assert abs(ratio - target) / target < Fraction(5, 100)
        distances = [abs(ratio - target) for ratio in ratios]
        assert distances[0] > distances[1] > distances[2]

    def test_single_sample(self):
        assert asymptotic_check([4]) == [Fraction(41, 36)]

    def test_exact_values(self):
        assert asymptotic_check([16]) == [Fraction(sr_count(16), 6**4)]

    def test_rejects_non_powers(self):
        with pytest.raises(DomainError):
            asymptotic_check([24])


class TestReferenceData:
    def test_comparison_rows(self):
        assert REFERENCE_COMPARISON_TABLE[7] == (252, 236, 228, 172)
        assert REFERENCE_COMPARISON_TABLE[4] == (47, 43, 43, 41)
        assert set(REFERENCE_COMPARISON_TABLE) == set(range(4, 11))

    def test_leading_coefficients(self):
        assert LEADING_TERM_COEFFICIENTS["FDA"] == Fraction(79, 45)
        assert LEADING_TERM_COEFFICIENTS["CDA"] == Fraction(227, 135)
        assert LEADING_TERM_COEFFICIENTS["IFDA"] == Fraction(212, 135)
        assert LEADING_TERM_COEFFICIENTS["1-VDA"] == Fraction(154, 135)

    def test_leading_coefficients_are_one_value_in_the_package_and_complexity(self):
        # Both resolve the name on first access; the values are checked above.
        assert srexpr.complexity.LEADING_TERM_COEFFICIENTS is LEADING_TERM_COEFFICIENTS
        assert srexpr.LEADING_TERM_COEFFICIENTS is LEADING_TERM_COEFFICIENTS
        for module in (srexpr, srexpr.complexity):
            with pytest.raises(AttributeError, match="has no attribute 'LEADING_TERMS'"):
                module.LEADING_TERMS

    def test_size_two_bases_match_base_expressions(self):
        trap = literal_count(base_expression(SubExprKey(upper(1), upper(3))))
        para = literal_count(base_expression(SubExprKey(upper(1), lower(3))))
        assert trap == REFERENCE_DIPTEROUS_TRAPEZOID_BASES[2] == 11
        assert para == REFERENCE_DIPTEROUS_PARALLELOGRAM_BASES[2] == 12
        trap_low = literal_count(base_expression(SubExprKey(lower(1), lower(3))))
        para_low = literal_count(base_expression(SubExprKey(lower(1), upper(3))))
        assert trap_low == 11 and para_low == 12


class TestDiscrepancyReport:
    def test_flags_size_six_base(self):
        report = discrepancy_report()
        entry = next(d for d in report["discrepancies"] if d["id"] == "dipterous-base-size-6")
        assert entry["reference_value"] == 50
        assert entry["derived_value"] == derived_dipterous_count(6)
        assert entry["agrees"] is False

    def test_flags_trapezoid_bases(self):
        report = discrepancy_report()
        for name in ("upper-trapezoid-size-2-base", "lower-trapezoid-size-2-base"):
            entry = next(d for d in report["discrepancies"] if d["id"] == name)
            assert entry["reference_passes_oracle"] is False
            assert entry["validated_passes_oracle"] is True
            assert entry["reference_literals"] == entry["validated_literals"] == 11
            assert entry["witness"] is not None

    def test_serializes(self):
        report = discrepancy_report()
        assert report["schema_version"] == 1
        json.dumps(report)
