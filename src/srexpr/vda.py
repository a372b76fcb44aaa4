"""One-vertex decomposition: factored expressions for square rhomboids.

Every subgraph between two terminals is either a base case (sizes 1 and 2,
written out literally below) or is split at a basic vertex i strictly between
the endpoints.  A path from src to dst passes through vertex i, through the
bridging upper edge c_(i-1), or through the bridging lower edge a_(i-1), so

    E(src, dst) = E(src, i) E(i, dst)
                + E(src, upper(i-1)) c_(i-1) E(upper(i), dst)
                + E(src, lower(i-1)) a_(i-1) E(lower(i), dst)

with the split vertex chosen at the midpoint: i = ceil((p+q)/2) for families
with a basic endpoint, i = ceil((p+q+1)/2) for the dipterous families (floor
is available as a config knob; the literal counts match either way).

Swapping the upper and lower rows (e<->d, c<->a, b fixed) maps a square
rhomboid onto itself, and every lower-orientation family onto its upper
partner.  So each base shape is written once, for the upper orientation, as a
builder taking that orientation's literal makers (e, d, c, a); the lower
orientation is the same builder called with (d, e, a, c).

The two size-2 trapezoidal base expressions circulate in a letter-swapped
form, each with the second addend of the other orientation, which names edges
that do not exist in the subgraph; the forms below are the ones validated
against the path-sum oracle.  The swapped variants are kept
(`reference_trap_base_variant`) so the discrepancy report can demonstrate the
inconsistency.

Generation is a pure function of (n, src, dst, rounding).  Each call to
`expression` owns its memo (keyed by the two terminals' sort ordinals) and
its hash-consing table, and drops both when it returns, so concurrent calls
are independent; only the per-label Lit cache of `make_lit` is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BaseCaseExpectedError, InvalidSizeError, RangeError
from .expr import ConsTable, Expr, Lit, ONE, make_lit
from .graph import (
    Family,
    SubgraphKind,
    Terminal,
    TerminalKind,
    basic,
    classify,
    lower,
    upper,
)


@dataclass(frozen=True)
class SubExprKey:
    """Terminal pair identifying one subexpression; the memoization key."""

    src: Terminal
    dst: Terminal


def _e(i: int) -> Lit:
    return make_lit("e", i)


def _d(i: int) -> Lit:
    return make_lit("d", i)


def _a(i: int) -> Lit:
    return make_lit("a", i)


def _b(i: int) -> Lit:
    return make_lit("b", i)


def _c(i: int) -> Lit:
    return make_lit("c", i)


# Literal makers of the two orientations, in builder argument order (e, d, c, a).
_UPPER = (_e, _d, _c, _a)
_LOWER = (_d, _e, _a, _c)


def _sr_size2(h: ConsTable, p: int, e, d, c, a) -> Expr:
    # b_p + e_(2p-1) e_(2p) + d_(2p-1) d_(2p)
    return h.sum(
        [
            _b(p),
            h.product([e(2 * p - 1), e(2 * p)]),
            h.product([d(2 * p - 1), d(2 * p)]),
        ]
    )


def _trap_size1(h: ConsTable, p: int, e, d, c, a) -> Expr:
    # c_p + e_(2p) e_(2p+1)
    return h.sum([c(p), h.product([e(2 * p), e(2 * p + 1)])])


def _sl_basic_size2(h: ConsTable, p: int, e, d, c, a) -> Expr:
    # (b_p + d_(2p-1) d_(2p)) e_(2p+1) + e_(2p-1) (c_p + e_(2p) e_(2p+1))
    left = h.sum([_b(p), h.product([d(2 * p - 1), d(2 * p)])])
    return h.sum(
        [
            h.product([left, e(2 * p + 1)]),
            h.product([e(2 * p - 1), _trap_size1(h, p, e, d, c, a)]),
        ]
    )


def _sl_to_basic_size2(h: ConsTable, p: int, e, d, c, a) -> Expr:
    # (c_p + e_(2p) e_(2p+1)) e_(2p+2) + e_(2p) (b_(p+1) + d_(2p+1) d_(2p+2))
    right = h.sum([_b(p + 1), h.product([d(2 * p + 1), d(2 * p + 2)])])
    return h.sum(
        [
            h.product([_trap_size1(h, p, e, d, c, a), e(2 * p + 2)]),
            h.product([e(2 * p), right]),
        ]
    )


def _trap_size2(h: ConsTable, p: int, e, d, c, a) -> Expr:
    # e_(2p) (b_(p+1) + d_(2p+1) d_(2p+2)) e_(2p+3)
    #   + (c_p + e_(2p) e_(2p+1)) (c_(p+1) + e_(2p+2) e_(2p+3))
    middle = h.sum([_b(p + 1), h.product([d(2 * p + 1), d(2 * p + 2)])])
    return h.sum(
        [
            h.product([e(2 * p), middle, e(2 * p + 3)]),
            h.product([_trap_size1(h, p, e, d, c, a), _trap_size1(h, p + 1, e, d, c, a)]),
        ]
    )


def _para_size2(h: ConsTable, p: int, e, d, c, a) -> Expr:
    # e_(2p) (b_(p+1) d_(2p+3) + d_(2p+1) (a_(p+1) + d_(2p+2) d_(2p+3)))
    #   + (c_p + e_(2p) e_(2p+1)) e_(2p+2) d_(2p+3)
    inner = h.sum(
        [
            h.product([_b(p + 1), d(2 * p + 3)]),
            h.product([d(2 * p + 1), _trap_size1(h, p + 1, d, e, a, c)]),
        ]
    )
    return h.sum(
        [
            h.product([e(2 * p), inner]),
            h.product([_trap_size1(h, p, e, d, c, a), e(2 * p + 2), d(2 * p + 3)]),
        ]
    )


def _sl_basic_size1(h: ConsTable, p: int, e, d, c, a) -> Expr:
    return e(2 * p - 1)


def _sl_to_basic_size1(h: ConsTable, p: int, e, d, c, a) -> Expr:
    return e(2 * p)


def _para_size1(h: ConsTable, p: int, e, d, c, a) -> Expr:
    return h.product([e(2 * p), d(2 * p + 1)])


_BASE_BUILDERS = {
    (Family.SR, 1): (lambda h, p, e, d, c, a: ONE, _UPPER),
    (Family.SR, 2): (_sr_size2, _UPPER),
    (Family.SL_BASIC_UPPER, 1): (_sl_basic_size1, _UPPER),
    (Family.SL_BASIC_LOWER, 1): (_sl_basic_size1, _LOWER),
    (Family.SL_UPPER_BASIC, 1): (_sl_to_basic_size1, _UPPER),
    (Family.SL_LOWER_BASIC, 1): (_sl_to_basic_size1, _LOWER),
    (Family.TRAP_UPPER_UPPER, 1): (_trap_size1, _UPPER),
    (Family.TRAP_LOWER_LOWER, 1): (_trap_size1, _LOWER),
    (Family.PARA_UPPER_LOWER, 1): (_para_size1, _UPPER),
    (Family.PARA_LOWER_UPPER, 1): (_para_size1, _LOWER),
    (Family.SL_BASIC_UPPER, 2): (_sl_basic_size2, _UPPER),
    (Family.SL_BASIC_LOWER, 2): (_sl_basic_size2, _LOWER),
    (Family.SL_UPPER_BASIC, 2): (_sl_to_basic_size2, _UPPER),
    (Family.SL_LOWER_BASIC, 2): (_sl_to_basic_size2, _LOWER),
    (Family.TRAP_UPPER_UPPER, 2): (_trap_size2, _UPPER),
    (Family.TRAP_LOWER_LOWER, 2): (_trap_size2, _LOWER),
    (Family.PARA_UPPER_LOWER, 2): (_para_size2, _UPPER),
    (Family.PARA_LOWER_UPPER, 2): (_para_size2, _LOWER),
}


def _base(h: ConsTable, src: Terminal, dst: Terminal, kind: SubgraphKind) -> Expr:
    entry = _BASE_BUILDERS.get((kind.family, kind.size))
    if entry is None:
        raise BaseCaseExpectedError(f"{src}->{dst} (size {kind.size}) is not a base case")
    builder, letters = entry
    return builder(h, src.index, *letters)


def base_expression(key: SubExprKey) -> Expr:
    """The literal base expression for a size-1 or size-2 subgraph."""
    return _base(ConsTable(), key.src, key.dst, classify(key.src, key.dst))


def reference_trap_base_variant(key: SubExprKey) -> Expr:
    """Letter-swapped variant of a size-2 trapezoidal base expression.

    The validated trapezoid's first addend plus the second addend of the
    opposite orientation, i.e. of its image under upper<->lower (e<->d,
    c<->a).  It has the same literal count (11) as the validated form but
    names edges outside the subgraph, so it fails the path-set check; it
    exists solely to feed the discrepancy report.
    """
    kind = classify(key.src, key.dst)
    if kind.size != 2 or not kind.is_trapezoidal:
        raise ValueError(f"{key.src}->{key.dst} is not a size-2 trapezoid")
    e, d, c, a = _BASE_BUILDERS[(kind.family, 2)][1]
    h = ConsTable()
    first, _ = _trap_size2(h, key.src.index, e, d, c, a).children
    _, second = _trap_size2(h, key.src.index, d, e, a, c).children
    return h.sum([first, second])


def choose_split(kind: SubgraphKind, p: int, q: int, rounding: str = "ceil") -> int:
    """Index of the basic decomposition vertex for a size >= 3 subgraph.

    Dipterous subgraphs split at the midpoint of (p+q+1); everything else at
    the midpoint of (p+q).  The `rounding` option picks a side for even spans
    on the whole-graph and dipterous rules, where either midpoint is valid;
    single-leaf splits are always the ceiling, because flooring them would
    produce an empty bridge-side piece at size 3 with a non-basic source.
    Raises BaseCaseExpectedError when the subgraph is small enough to be a
    base case.
    """
    if rounding not in ("ceil", "floor"):
        raise ValueError(f"rounding must be 'ceil' or 'floor', got {rounding!r}")
    if kind.size < 3:
        raise BaseCaseExpectedError(
            f"size-{kind.size} {kind.family.value} subgraph has no decomposition vertex"
        )
    total = p + q + 1 if kind.is_dipterous else p + q
    if rounding == "ceil" or kind.is_single_leaf:
        i = (total + 1) // 2
    else:
        i = total // 2
    assert p < i < q, f"split {i} escaped the open interval ({p}, {q})"
    return i


def _validate_key(n: int, key: SubExprKey) -> None:
    for terminal in (key.src, key.dst):
        bound = n if terminal.kind is TerminalKind.BASIC else n - 1
        if not 1 <= terminal.index <= bound:
            raise RangeError(f"{terminal} is outside a size-{n} square rhomboid")
    classify(key.src, key.dst)  # raises OrderingError for an empty span


def _build(
    src: Terminal,
    dst: Terminal,
    rounding: str,
    memo: dict[tuple[int, int], Expr] | None,
    h: ConsTable,
) -> Expr:
    """E(src, dst), by base case or midpoint split.

    A module-level function rather than a closure inside `expression`: a
    closure that calls itself is a reference cycle, which would keep the memo
    and the cons table alive until the next full garbage collection.
    """
    if memo is not None:
        memo_key = (src.sort_ordinal, dst.sort_ordinal)
        hit = memo.get(memo_key)
        if hit is not None:
            return hit
    kind = classify(src, dst)
    if kind.size <= 2:
        result = _base(h, src, dst, kind)
    else:
        i = choose_split(kind, src.index, dst.index, rounding)
        result = h.sum(
            [
                h.product(
                    [
                        _build(src, basic(i), rounding, memo, h),
                        _build(basic(i), dst, rounding, memo, h),
                    ]
                ),
                h.product(
                    [
                        _build(src, upper(i - 1), rounding, memo, h),
                        _c(i - 1),
                        _build(upper(i), dst, rounding, memo, h),
                    ]
                ),
                h.product(
                    [
                        _build(src, lower(i - 1), rounding, memo, h),
                        _a(i - 1),
                        _build(lower(i), dst, rounding, memo, h),
                    ]
                ),
            ]
        )
    if memo is not None:
        memo[memo_key] = result
    return result


def expression(n: int, key: SubExprKey, rounding: str = "ceil", memoize: bool = True) -> Expr:
    """Factored expression for the subgraph of SR(n) between key.src and key.dst."""
    if n < 1:
        raise InvalidSizeError(f"square rhomboid size must be >= 1, got {n}")
    _validate_key(n, key)
    memo: dict[tuple[int, int], Expr] | None = {} if memoize else None
    return _build(key.src, key.dst, rounding, memo, ConsTable())


def generate(n: int, rounding: str = "ceil", memoize: bool = True) -> Expr:
    """Factored expression of the whole square rhomboid of size n.

    The result is algebraically equivalent to the sum over all source-to-sink
    paths of the product of edge labels along the path; the `oracle` module
    checks that equivalence independently.
    """
    if n < 1:
        raise InvalidSizeError(f"square rhomboid size must be >= 1, got {n}")
    return expression(n, SubExprKey(basic(1), basic(n)), rounding=rounding, memoize=memoize)
