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
is available through `rounding`; the literal counts match either way).

Swapping the upper and lower rows (e<->d, c<->a, b fixed) maps a square
rhomboid onto itself, and every lower-orientation family onto its upper
partner.  So each base shape is written once, for the upper orientation, as a
builder taking that orientation's letters (e, d, c, a); the lower orientation
is the same builder called with (d, e, a, c).

The two size-2 trapezoidal base expressions circulate in a letter-swapped
form, each with the second addend of the other orientation, which names edges
that do not exist in the subgraph; the forms below are the ones validated
against the path-sum oracle.  The swapped variants are kept
(`reference_trap_base_variant`) so the discrepancy report can demonstrate the
inconsistency.

How a subgraph is built depends only on its shape: its two terminals' rows
and their index distance.  Shifting both endpoints by t shifts the split
vertex by t, and a base shape uses its position only to pick labels.  So
`_plan` decides every shape of a call once, as a base builder with its
letters or as the split vertex's offset from the source, and counts its
literals on the way; a count of SR(n) takes O(log n) shapes and builds no
expression.  The base builders and the split formula reach literals, the
unit, sums and products only through an algebra `h` with the operations
`lit(letter, index)`, `one`, `sum(values)` and `product(values)` (the fold
of Meijer, Fokkinga and Paterson, "Functional programming with bananas,
lenses, envelopes and barbed wire", 1991), so they run both in the count
algebra `expr._COUNT` and in `_Columns`, which builds a `ProgramBuilder`'s
table.  Every pass over a slot table, `expr._fold`, takes an algebra of the
same four operations, and `literal_count` folds in that same `_COUNT`.
`count_literals` returns the root shape's count.  `program` reads only the
plan and builds the slot table one shape at a time, without expression
nodes: going down by span it gathers each shape's source positions, and
going up it runs each shape's step once, at source index 1, in `_Columns`,
the algebra whose values are columns of slots over all of the shape's
positions: it places labels and pieces, and its sums and products are the
builder's column forms, so the builder alone interns and normalizes.
`expression`/`generate` turn that table into an Expr.  Each
call owns its plan, rows and table, so concurrent calls are independent.
A plan is keyed by shape alone, so the counts of several
subgraphs, of any sizes, can share one (`complexity.generated_counts`).
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import NamedTuple

from .errors import BaseCaseExpectedError, DomainError, RangeError
from .expr import _COUNT, _NODES, Expr, Program, ProgramBuilder, Sum, to_expr
from .graph import (  # MAX_SIZE and check_size are re-exported: the CLI reads them here
    MAX_SIZE,
    Family,
    SubgraphKind,
    Terminal,
    TerminalKind,
    _without_gc,
    basic,
    check_size,
    classify,
    lower,
    upper,
)


class SubExprKey(NamedTuple):
    """Terminal pair identifying one subexpression."""

    src: Terminal
    dst: Terminal


# Letters of the two orientations, in builder argument order (e, d, c, a).
_UPPER = ("e", "d", "c", "a")
_LOWER = ("d", "e", "a", "c")


def _sr_size2(h, p: int, e, d, c, a):
    # b_p + e_(2p-1) e_(2p) + d_(2p-1) d_(2p)
    return h.sum(
        [
            h.lit("b", p),
            h.product([h.lit(e, 2 * p - 1), h.lit(e, 2 * p)]),
            h.product([h.lit(d, 2 * p - 1), h.lit(d, 2 * p)]),
        ]
    )


def _trap_size1(h, p: int, e, d, c, a):
    # c_p + e_(2p) e_(2p+1)
    return h.sum([h.lit(c, p), h.product([h.lit(e, 2 * p), h.lit(e, 2 * p + 1)])])


def _sl_basic_size2(h, p: int, e, d, c, a):
    # (b_p + d_(2p-1) d_(2p)) e_(2p+1) + e_(2p-1) (c_p + e_(2p) e_(2p+1))
    left = h.sum([h.lit("b", p), h.product([h.lit(d, 2 * p - 1), h.lit(d, 2 * p)])])
    return h.sum(
        [
            h.product([left, h.lit(e, 2 * p + 1)]),
            h.product([h.lit(e, 2 * p - 1), _trap_size1(h, p, e, d, c, a)]),
        ]
    )


def _sl_to_basic_size2(h, p: int, e, d, c, a):
    # (c_p + e_(2p) e_(2p+1)) e_(2p+2) + e_(2p) (b_(p+1) + d_(2p+1) d_(2p+2))
    right = h.sum([h.lit("b", p + 1), h.product([h.lit(d, 2 * p + 1), h.lit(d, 2 * p + 2)])])
    return h.sum(
        [
            h.product([_trap_size1(h, p, e, d, c, a), h.lit(e, 2 * p + 2)]),
            h.product([h.lit(e, 2 * p), right]),
        ]
    )


def _trap_size2(h, p: int, e, d, c, a):
    return h.sum(_trap_size2_addends(h, p, e, d, c, a))


def _trap_size2_addends(h, p: int, e, d, c, a) -> list:
    # e_(2p) (b_(p+1) + d_(2p+1) d_(2p+2)) e_(2p+3)
    #   + (c_p + e_(2p) e_(2p+1)) (c_(p+1) + e_(2p+2) e_(2p+3))
    middle = h.sum([h.lit("b", p + 1), h.product([h.lit(d, 2 * p + 1), h.lit(d, 2 * p + 2)])])
    return [
        h.product([h.lit(e, 2 * p), middle, h.lit(e, 2 * p + 3)]),
        h.product([_trap_size1(h, p, e, d, c, a), _trap_size1(h, p + 1, e, d, c, a)]),
    ]


def _para_size2(h, p: int, e, d, c, a):
    # e_(2p) (b_(p+1) d_(2p+3) + d_(2p+1) (a_(p+1) + d_(2p+2) d_(2p+3)))
    #   + (c_p + e_(2p) e_(2p+1)) e_(2p+2) d_(2p+3)
    inner = h.sum(
        [
            h.product([h.lit("b", p + 1), h.lit(d, 2 * p + 3)]),
            h.product([h.lit(d, 2 * p + 1), _trap_size1(h, p + 1, d, e, a, c)]),
        ]
    )
    return h.sum(
        [
            h.product([h.lit(e, 2 * p), inner]),
            h.product([_trap_size1(h, p, e, d, c, a), h.lit(e, 2 * p + 2), h.lit(d, 2 * p + 3)]),
        ]
    )


def _sl_basic_size1(h, p: int, e, d, c, a):
    return h.lit(e, 2 * p - 1)


def _sl_to_basic_size1(h, p: int, e, d, c, a):
    return h.lit(e, 2 * p)


def _para_size1(h, p: int, e, d, c, a):
    return h.product([h.lit(e, 2 * p), h.lit(d, 2 * p + 1)])


_BASE_BUILDERS = {
    (Family.SR, 1): (lambda h, p, e, d, c, a: h.one, _UPPER),
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


def base_expression(key: SubExprKey) -> Expr:
    """The literal base expression for a size-1 or size-2 subgraph: its
    builder run in the algebra of expression nodes."""
    kind = classify(key.src, key.dst)
    if kind not in _BASE_BUILDERS:
        raise BaseCaseExpectedError(f"{key.src}->{key.dst} (size {kind.size}) is not a base case")
    builder, letters = _BASE_BUILDERS[kind]
    return builder(_NODES, key.src.index, *letters)


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
    first, _ = _trap_size2_addends(_NODES, key.src.index, e, d, c, a)
    _, second = _trap_size2_addends(_NODES, key.src.index, d, e, a, c)
    return Sum((first, second))


def choose_split(kind: SubgraphKind, p: int, q: int, rounding: str = "ceil") -> int:
    """Index of the basic decomposition vertex for a size >= 3 subgraph.

    Dipterous subgraphs split at the midpoint of (p+q+1); everything else at
    the midpoint of (p+q).  The `rounding` option picks a side for even spans
    on the whole-graph and dipterous rules, where either midpoint is valid;
    single-leaf splits are always the ceiling, because flooring them would
    produce an empty bridge-side piece at size 3 with a non-basic source.
    Raises DomainError for any other `rounding`, and BaseCaseExpectedError
    when the subgraph is small enough to be a base case.
    """
    _check_rounding(rounding)
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


def _check_rounding(rounding: str) -> None:
    if rounding not in ("ceil", "floor"):
        raise DomainError(f"rounding must be 'ceil' or 'floor', got {rounding!r}")


def _validate(n: int, key: SubExprKey, rounding: str) -> None:
    check_size(n)
    _check_rounding(rounding)
    for terminal in (key.src, key.dst):
        bound = n if terminal.kind is TerminalKind.BASIC else n - 1
        if not 1 <= terminal.index <= bound:
            raise RangeError(f"{terminal} is outside a size-{n} square rhomboid")
    classify(key.src, key.dst)  # raises OrderingError for an empty span


def _split(h, src: Terminal, dst: Terminal, i: int, piece):
    """E(src, dst) split at basic vertex i, in the algebra `h`, where
    `piece(s, t)` gives E(s, t) for each of the six pieces in turn.

    `_plan` passes itself as `piece`, bound to its state by `partial`, and
    `_build` passes the methods `_Columns.gather` and `_Columns.piece`.
    They are not closures: a closure that calls itself is a reference cycle,
    which would keep its state alive until the next full garbage collection.
    """
    at_i = basic(i)
    through_i = h.product([piece(src, at_i), piece(at_i, dst)])
    over_c = h.product([piece(src, upper(i - 1)), h.lit("c", i - 1), piece(upper(i), dst)])
    over_a = h.product([piece(src, lower(i - 1)), h.lit("a", i - 1), piece(lower(i), dst)])
    return h.sum([through_i, over_c, over_a])


def _plan(rounding: str, plan: dict, src: Terminal, dst: Terminal) -> int:
    """The literal count of E(src, dst), deciding its shape and every shape
    below it into `plan` once: the shape (src row, dst row, span) maps to
    (step, count), where the step is a base builder and its letters, or the
    split vertex's offset from the source."""
    shape = (src.kind, dst.kind, dst.index - src.index)
    entry = plan.get(shape)
    if entry is None:
        kind = classify(src, dst)
        if kind.size <= 2:
            builder, letters = step = _BASE_BUILDERS[kind]
            count = builder(_COUNT, src.index, *letters)
        else:
            i = choose_split(kind, src.index, dst.index, rounding)
            step = i - src.index
            count = _split(_COUNT, src, dst, i, partial(_plan, rounding, plan))
        entry = plan[shape] = (step, count)
    return entry[1]


def _run(h, shape: tuple, step, piece):
    """The step of `shape` at source index 1, in the algebra `h`."""
    if step.__class__ is int:
        src, dst = Terminal(shape[0], 1), Terminal(shape[1], 1 + shape[2])
        return _split(h, src, dst, 1 + step, piece)
    builder, letters = step
    return builder(h, 1, *letters)


class _Columns:
    """The algebra in which `_build` runs a shape's step once for all of its
    source positions `at`, as if at source index 1.  A value is a column: a
    node's value in the builder `h` at each position in turn, and its `sum`
    and `product` are `h`'s column forms, which intern and normalize.  What
    belongs to the generator is kept here: the positions (`gather`), the
    labels (`lit`: a label's index at source p is its index at 1 moved p - 1
    columns, where column p of SR holds b_p, c_p and a_p but e and d labels
    2p-1 and 2p; the column of indices goes to the builder's `lit_column`),
    the unit column, and the pieces (`piece`: read off the row
    of the piece's shape, built before it, and the row is dropped after its
    last reader)."""

    __slots__ = ("h", "sum", "product", "at", "positions", "readers", "rows")

    def __init__(self, h: ProgramBuilder, positions: dict) -> None:
        self.h, self.positions, self.readers, self.rows = h, positions, {}, {}
        self.sum, self.product = h.sum_columns, h.product_columns

    def gather(self, src: Terminal, dst: Terminal) -> int:
        """`piece` for the step run in `_COUNT`: add the positions `at`,
        moved to this piece's source, to its shape's, and count the piece
        as one more reader of that shape's row."""
        shape = (src.kind, dst.kind, dst.index - src.index)
        self.positions.setdefault(shape, set()).update(map((src.index - 1).__add__, self.at))
        self.readers[shape] = self.readers.get(shape, 0) + 1
        return 0

    def lit(self, letter: str, index: int) -> list[int]:
        stride = 2 if letter in "de" else 1
        indices = [*map((index - stride).__add__, map(stride.__mul__, self.at))]
        return self.h.lit_column(letter, indices)

    @property
    def one(self) -> list[int]:
        return [self.h.one] * len(self.at)

    def piece(self, src: Terminal, dst: Terminal) -> list:
        shape = (src.kind, dst.kind, dst.index - src.index)
        row = self.rows[shape]
        self.readers[shape] -= 1
        if not self.readers[shape]:
            del self.rows[shape]
        return list(map(row.__getitem__, map((src.index - 1).__add__, self.at)))


def _build(plan: dict, h: ProgramBuilder, src: Terminal, dst: Terminal):
    """The value in `h` of E(src, dst), built one shape at a time as `plan`
    decides.  Going down by span, each shape's source positions are gathered
    from its parents' (a piece has a smaller span than its parent); going
    up, each shape's step runs once in `_Columns` over all its positions,
    and its row maps each position to the value there.  So the work per
    terminal pair is a few list items and one interning per node."""
    top = (src.kind, dst.kind, dst.index - src.index)
    order = sorted(plan, key=itemgetter(2), reverse=True)
    columns = _Columns(h, {top: {src.index}})
    for shape in order:
        columns.at = columns.positions[shape] = sorted(columns.positions[shape])
        _run(_COUNT, shape, plan[shape][0], columns.gather)
    for shape in reversed(order):
        columns.at = at = columns.positions.pop(shape)
        columns.rows[shape] = dict(zip(at, _run(columns, shape, plan[shape][0], columns.piece)))
    return columns.rows[top][src.index]


@_without_gc
def program(n: int, key: SubExprKey, rounding: str = "ceil") -> Program:
    """The slot table of `expression(n, key, rounding)`, built straight into
    a `ProgramBuilder` without making an expression node."""
    _validate(n, key, rounding)
    plan: dict = {}
    _plan(rounding, plan, key.src, key.dst)
    h = ProgramBuilder()
    return h.finish(_build(plan, h, key.src, key.dst))


@_without_gc
def expression(n: int, key: SubExprKey, rounding: str = "ceil") -> Expr:
    """Factored expression for the subgraph of SR(n) between key.src and key.dst."""
    return to_expr(program(n, key, rounding))


def count_literals(n: int, key: SubExprKey, rounding: str = "ceil") -> int:
    """`literal_count(expression(n, key, rounding))`, without building it."""
    _validate(n, key, rounding)
    return _plan(rounding, {}, key.src, key.dst)


def generate(n: int, rounding: str = "ceil") -> Expr:
    """Factored expression of the whole square rhomboid of size n.

    The result is algebraically equivalent to the sum over all source-to-sink
    paths of the product of edge labels along the path; the `oracle` module
    checks that equivalence independently.
    """
    check_size(n)
    return expression(n, SubExprKey(basic(1), basic(n)), rounding=rounding)
