"""Literal-count recurrences, closed forms, and reference comparison data.

Three mutually recursive count families, one per subgraph shape: the whole
square rhomboid, the single-leaf variants (all four orientations share one
count), and the dipterous variants (trapezoidal and parallelogram counts
coincide for sizes above 2 and split into separate bases below).  The
recursive steps mirror the generator's midpoint splits, so the recurrence
values must equal the "generated" counts, which the generator's own plan
(`vda._plan`) gives without building an expression; the three counts of
one size share one plan, keyed by shape, so each shape is decided once.

One published base value, the size-6 dipterous count, is inconsistent with
the rest of the system (it is smaller than the size-5 value).  The recurrence
here substitutes the generator's value, and `discrepancy_report` records
both side by side, along with the letter-swapped size-2 trapezoid base forms
that fail the path-set oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, NamedTuple

from .errors import DomainError, IntegrityError, InvalidSizeError
from .expr import literal_count, to_text
from .graph import basic, build_sr, check_size, induced_subgraph, lower, upper
from .oracle import check_exact
from .vda import SubExprKey, _plan, base_expression, reference_trap_base_variant

# Published base values for the recurrence system.
REFERENCE_SR_BASES = {1: 0, 2: 5}
REFERENCE_SINGLE_LEAF_BASES = {1: 1, 2: 8, 3: 22, 4: 47, 5: 79, 6: 132}
REFERENCE_DIPTEROUS_PARALLELOGRAM_BASES = {1: 2, 2: 12}
REFERENCE_DIPTEROUS_TRAPEZOID_BASES = {1: 3, 2: 11}
# The size-6 entry breaks monotonicity (size 5 is 92) and is replaced by the
# generation-derived value everywhere except the discrepancy report.
REFERENCE_DIPTEROUS_BASES = {3: 28, 4: 60, 5: 92, 6: 50}

# Published comparison table, sizes 4..10: columns FDA, CDA, IFDA, 1-VDA.
REFERENCE_COMPARISON_TABLE: dict[int, tuple[int, int, int, int]] = {
    4: (47, 43, 43, 41),
    5: (110, 102, 100, 66),
    6: (173, 161, 157, 119),
    7: (252, 236, 228, 172),
    8: (331, 311, 299, 247),
    9: (520, 488, 470, 322),
    10: (709, 665, 641, 439),
}

# Leading n**log2(6) coefficients of the published closed forms.
LEADING_TERM_COEFFICIENTS = {
    "FDA": Fraction(79, 45),
    "CDA": Fraction(227, 135),
    "IFDA": Fraction(212, 135),
    "1-VDA": Fraction(154, 135),
}

_CLOSED_FORM_MIDDLE = {
    "sr": Fraction(1, 27),
    "single_leaf": Fraction(19, 27),
    "dipterous": Fraction(58, 27),
}


class ComplexityRow(NamedTuple):
    """Literal counts at one size.  The combined dipterous count exists only
    for sizes above 2; below that the trapezoid and parallelogram counts
    differ and are reported separately."""

    n: int
    sr: int
    single_leaf: int
    dipterous: int | None
    dipterous_parallelogram: int | None = None
    dipterous_trapezoidal: int | None = None


def derived_dipterous_count(size: int) -> int:
    """Dipterous literal count taken from the generator's plan (the
    trapezoid from u1 to u(size+1); equal to the parallelogram count for
    sizes above 2)."""
    check_size(size)
    return _plan("ceil", {}, upper(1), upper(size + 1))


# typed=True: a bool or float size must miss the cache and reach check_size.
@lru_cache(maxsize=None, typed=True)
def sr_count(n: int) -> int:
    """Recurrence value for the whole-graph expression at size n."""
    check_size(n)
    if n <= 2:
        return REFERENCE_SR_BASES[n]
    up, down = (n + 1) // 2, n // 2
    return (
        sr_count(up)
        + sr_count(down + 1)
        + 2 * single_leaf_count(up - 1)
        + 2 * single_leaf_count(down)
        + 2
    )


@lru_cache(maxsize=None, typed=True)
def single_leaf_count(n: int) -> int:
    """Recurrence value for a single-leaf expression at size n."""
    check_size(n)
    if n <= 6:
        return REFERENCE_SINGLE_LEAF_BASES[n]
    up, down = (n + 1) // 2, n // 2
    return (
        sr_count(down + 1)
        + single_leaf_count(up)
        + 2 * single_leaf_count(down)
        + 2 * dipterous_count(up - 1)
        + 2
    )


@lru_cache(maxsize=None, typed=True)
def dipterous_count(n: int) -> int:
    """Recurrence value for a dipterous expression at size n (n >= 3;
    trapezoid and parallelogram counts differ below that)."""
    check_size(n)
    if n < 3:
        raise InvalidSizeError(f"the combined dipterous count needs size >= 3, got {n}")
    if n == 6:
        return derived_dipterous_count(6)
    if n <= 5:
        return REFERENCE_DIPTEROUS_BASES[n]
    up, down = (n + 1) // 2, n // 2
    return (
        single_leaf_count(up)
        + single_leaf_count(down + 1)
        + 2 * dipterous_count(up - 1)
        + 2 * dipterous_count(down)
        + 2
    )


def recurrence_table(n_max: int) -> list[ComplexityRow]:
    """Rows of all three count families for sizes 1..n_max."""
    check_size(n_max)
    if n_max < 2:
        raise InvalidSizeError(f"n_max must be >= 2, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        if n <= 2:
            rows.append(
                ComplexityRow(
                    n,
                    sr_count(n),
                    single_leaf_count(n),
                    None,
                    dipterous_parallelogram=REFERENCE_DIPTEROUS_PARALLELOGRAM_BASES[n],
                    dipterous_trapezoidal=REFERENCE_DIPTEROUS_TRAPEZOID_BASES[n],
                )
            )
        else:
            rows.append(ComplexityRow(n, sr_count(n), single_leaf_count(n), dipterous_count(n)))
    return rows


def _power_of_two_exponent(n: int, minimum: int) -> int:
    if type(n) is not int or n >= minimum:  # an int below the minimum is a DomainError
        check_size(n)
    k = n.bit_length() - 1
    if n < minimum or (1 << k) != n:
        raise DomainError(f"expected a power of two >= {minimum}, got {n}")
    return k


def closed_form(n: int) -> tuple[int, int, int]:
    """Exact closed-form counts (sr, single_leaf, dipterous) at n = 2**k.

    Evaluated with rational arithmetic via n**log2(6) = 6**k and
    n**log2(3) = 3**k; a non-integer result means a transcription bug and
    raises IntegrityError.  A size `check_size` refuses raises
    InvalidSizeError; any other n that is not 2**k >= 4 raises DomainError.
    """
    k = _power_of_two_exponent(n, 4)
    leading = LEADING_TERM_COEFFICIENTS["1-VDA"] * 6**k
    results = []
    for middle in _CLOSED_FORM_MIDDLE.values():
        value = leading + middle * 3**k - Fraction(2, 5)
        if value.denominator != 1:
            raise IntegrityError(f"closed form at n={n} is not an integer: {value}")
        results.append(int(value))
    return tuple(results)


def asymptotic_check(samples: Iterable[int]) -> list[Fraction]:
    """Exact ratios sr_count(n) / n**log2(6) for power-of-two samples.

    The ratios approach 154/135 from above for n >= 8; callers check the
    convergence, this just computes the exact values.
    """
    ratios = []
    for n in samples:
        k = _power_of_two_exponent(n, 4)
        ratios.append(Fraction(sr_count(n), 6**k))
    return ratios


def generated_counts(n: int) -> tuple[int, int, int]:
    """Literal counts of the generator's expressions at size n: whole graph,
    single-leaf, dipterous (trapezoidal orientation for n <= 2), read off
    one plan of the generator's, which decides each shape of the three
    once."""
    check_size(n)
    count = partial(_plan, "ceil", {})  # one plan, keyed by shape, for all three
    return count(basic(1), basic(n)), count(basic(1), upper(n)), count(upper(1), upper(n + 1))


def discrepancy_report() -> dict:
    """Cross-check the published reference data against this implementation.

    Flags the size-6 dipterous base value (reference vs generation-derived)
    and runs the path-set oracle over both forms of the size-2 trapezoid
    bases, demonstrating that the letter-swapped reference variants are
    inconsistent while the validated forms pass.
    """
    derived = derived_dipterous_count(6)
    items = [
        {
            "id": "dipterous-base-size-6",
            "kind": "reference-value-vs-derived",
            "reference_value": REFERENCE_DIPTEROUS_BASES[6],
            "derived_value": derived,
            "agrees": derived == REFERENCE_DIPTEROUS_BASES[6],
            "note": (
                "reference value is below the size-5 count "
                f"({REFERENCE_DIPTEROUS_BASES[5]}); the recurrence table uses the derived value"
            ),
        }
    ]
    ambient = build_sr(5)
    for name, src, dst in (
        ("upper-trapezoid", upper(1), upper(3)),
        ("lower-trapezoid", lower(1), lower(3)),
    ):
        key = SubExprKey(src, dst)
        subgraph = induced_subgraph(ambient, src, dst)
        reference_form = reference_trap_base_variant(key)
        validated_form = base_expression(key)
        reference_check = check_exact(reference_form, subgraph)
        validated_check = check_exact(validated_form, subgraph)
        items.append(
            {
                "id": f"{name}-size-2-base",
                "kind": "reference-form-vs-oracle",
                "reference_form": to_text(reference_form),
                "validated_form": to_text(validated_form),
                "reference_passes_oracle": reference_check.passed,
                "validated_passes_oracle": validated_check.passed,
                "reference_literals": literal_count(reference_form),
                "validated_literals": literal_count(validated_form),
                "witness": reference_check.witness,
            }
        )
    return {"schema_version": 1, "discrepancies": items}
