"""Expression ASTs over edge-label literals.

Expressions are sums and products of literals, plus the formal unit One used
for the empty subgraph.  Nodes are immutable; the smart constructors
`make_sum` / `make_product` normalize on the way in:

  * nested sums/products of the same type are flattened,
  * One is dropped from products (an empty product collapses to One),
  * single-child nodes collapse to the child.

After normalization every Sum/Prod has at least two children and printed text
is in one-to-one correspondence with the AST.

Construction within one generation is hash-consed (Filliatre & Conchon,
"Type-safe modular hash-consing", 2006): `make_lit` hands out one Lit per
edge label, and a `ConsTable` returns the node it already built whenever a
sum or product of the same type over the same (flattened) children is asked
for again, so structurally equal subterms are one object.  Literal counting
is still by tree occurrence, so counts are unaffected by that sharing.

Evaluation compiles an expression once into a `Program` (its distinct nodes
in post-order, children addressed by slot index) and runs a flat loop per
assignment.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Iterator, Mapping

from .errors import CapacityError, MalformedExpressionError, UnboundLabelError
from .graph import EdgeLabel, make_label

_SORT_ORDINAL = operator.attrgetter("sort_ordinal")

#: Default field modulus for evaluation: the Mersenne prime 2**61 - 1.
DEFAULT_PRIME = (1 << 61) - 1


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Lit(Expr):
    label: EdgeLabel


@dataclass(frozen=True, slots=True)
class One(Expr):
    """The formal unit: the expression of a single-vertex subgraph."""


@dataclass(frozen=True, slots=True)
class Sum(Expr):
    children: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Prod(Expr):
    children: tuple[Expr, ...]


ONE = One()


def _addends(children: Iterable[Expr]) -> list[Expr]:
    flat: list[Expr] = []
    for child in children:
        if isinstance(child, Sum):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        raise ValueError("a sum needs at least one addend")
    return flat


def _factors(children: Iterable[Expr]) -> list[Expr]:
    flat: list[Expr] = []
    for child in children:
        if isinstance(child, Prod):
            flat.extend(child.children)
        elif not isinstance(child, One):
            flat.append(child)
    return flat


def make_sum(children: Iterable[Expr]) -> Expr:
    """Normalized n-ary sum: flattens nested sums, collapses a single child."""
    flat = _addends(children)
    return flat[0] if len(flat) == 1 else Sum(tuple(flat))


def make_product(children: Iterable[Expr]) -> Expr:
    """Normalized n-ary product: flattens nested products and drops units."""
    flat = _factors(children)
    if not flat:
        return ONE
    return flat[0] if len(flat) == 1 else Prod(tuple(flat))


class ConsTable:
    """Hash-consing versions of `make_sum` and `make_product`.

    After the same normalization, a sum or product whose type and children
    (compared by identity) match a node already built through this table is
    that node.  Keys hold child ids; they stay valid because the table keeps
    every node it built, and so every child, alive.  A table belongs to one
    construction and is dropped with it.
    """

    __slots__ = ("_nodes",)

    def __init__(self) -> None:
        self._nodes: dict[tuple, Expr] = {}

    def sum(self, children: Iterable[Expr]) -> Expr:
        flat = _addends(children)
        return flat[0] if len(flat) == 1 else self._intern(Sum, flat)

    def product(self, children: Iterable[Expr]) -> Expr:
        flat = _factors(children)
        if not flat:
            return ONE
        return flat[0] if len(flat) == 1 else self._intern(Prod, flat)

    def _intern(self, cls: type, flat: list[Expr]) -> Expr:
        key = (cls, *map(id, flat))
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = cls(tuple(flat))
        return node


@lru_cache(maxsize=None)
def make_lit(letter: str, index: int) -> Lit:
    """Interned literal: one Lit object per edge label, as `make_label` does
    for the labels themselves."""
    return Lit(make_label(letter, index))


def lit(text: str) -> Lit:
    """Literal from short text, e.g. lit("b1")."""
    label = EdgeLabel.parse(text)
    return make_lit(label.letter, label.index)


@dataclass(frozen=True, order=True)
class Monomial:
    """A canonically sorted sequence of edge labels; one per graph path.

    The label tuple must already be sorted by (letter, index); use `of` to
    sort arbitrary input.  Paths never repeat an edge, so monomials of graph
    expressions are squarefree, but the type itself allows repeats.
    """

    labels: tuple[EdgeLabel, ...]

    @classmethod
    def of(cls, labels: Iterable[EdgeLabel]) -> "Monomial":
        return cls(tuple(sorted(labels, key=_SORT_ORDINAL)))

    def __str__(self) -> str:
        return "*".join(str(label) for label in self.labels) if self.labels else "1"


EMPTY_MONOMIAL = Monomial(())


def literal_count(e: Expr) -> int:
    """Total number of literal occurrences, counted over the expression tree.

    Shared subterms are counted once per occurrence (the count is what you
    would get by writing the expression out in full).
    """
    memo: dict[int, int] = {}

    def count(node: Expr) -> int:
        key = id(node)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, Lit):
            result = 1
        elif isinstance(node, One):
            result = 0
        else:
            result = sum(count(child) for child in node.children)
        memo[key] = result
        return result

    return count(e)


def expansion_size(e: Expr) -> int:
    """Number of monomials (with multiplicity) in the full expansion."""
    memo: dict[int, int] = {}

    def size(node: Expr) -> int:
        key = id(node)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, (Lit, One)):
            result = 1
        elif isinstance(node, Sum):
            result = sum(size(child) for child in node.children)
        else:
            result = 1
            for child in node.children:
                result *= size(child)
        memo[key] = result
        return result

    return size(e)


def iter_expansion(e: Expr) -> Iterator[Monomial]:
    """Stream the distributive expansion of `e`, one monomial at a time.

    Sums stream their addends; products materialize each factor's expansion
    (memoized across shared subterms) and stream the merged combinations, so
    peak memory is bounded by the factor expansions, not the output.
    """
    memo: dict[int, list[Monomial]] = {}

    def listed(node: Expr) -> list[Monomial]:
        key = id(node)
        cached = memo.get(key)
        if cached is None:
            cached = list(stream(node))
            memo[key] = cached
        return cached

    def stream(node: Expr) -> Iterator[Monomial]:
        if isinstance(node, Lit):
            yield Monomial((node.label,))
        elif isinstance(node, One):
            yield EMPTY_MONOMIAL
        elif isinstance(node, Sum):
            for child in node.children:
                yield from stream(child)
        else:
            factor_lists = [listed(child) for child in node.children]
            for combo in itertools.product(*factor_lists):
                merged: list[EdgeLabel] = []
                for part in combo:
                    merged.extend(part.labels)
                merged.sort(key=_SORT_ORDINAL)
                yield Monomial(tuple(merged))

    return stream(e)


def expand(e: Expr, limit: int = 10**6) -> list[Monomial]:
    """Full distributive expansion as a list of monomials.

    Raises CapacityError if the expansion would exceed `limit` monomials
    (checked before any monomial is built).
    """
    size = expansion_size(e)
    if size > limit:
        raise CapacityError(f"expansion of {size} monomials exceeds the limit {limit}")
    return list(iter_expansion(e))


class Program:
    """An expression compiled for evaluation at many points.

    A run fills one list of values.  Slot k >= 0 holds the k-th distinct sum
    or product node in post-order, so every child's slot is filled before its
    parent's: the product (if is_product[k]) or the sum of the values in the
    slots children[k].  Leaves are addressed from the end of the list: slot
    -1 holds the unit and slot -(j + 2) the value of labels[j], so one pass
    over the expression fixes every slot.  The expression's value is in slot
    `root`.

    A plain class, not a dataclass: building a dataclass costs about a
    millisecond at import, which every command-line run would pay.
    """

    __slots__ = ("labels", "is_product", "children", "root")

    def __init__(
        self,
        labels: tuple[EdgeLabel, ...],
        is_product: bytes,
        children: tuple[tuple[int, ...], ...],
        root: int,
    ) -> None:
        self.labels = labels
        self.is_product = is_product
        self.children = children
        self.root = root

    def run(self, assignment: Mapping[EdgeLabel, int], prime: int = DEFAULT_PRIME) -> int:
        """Value of the expression modulo `prime`; see `evaluate`."""
        values = [0] * len(self.children)
        try:
            values += [assignment[label] % prime for label in reversed(self.labels)]
        except KeyError as exc:
            raise UnboundLabelError(str(exc.args[0])) from None
        values.append(1 % prime)
        value_at = values.__getitem__
        slot = 0
        for is_product, slots in zip(self.is_product, self.children):
            operands = map(value_at, slots)
            values[slot] = (prod(operands) if is_product else sum(operands)) % prime
            slot += 1
        return values[self.root]


def compile_program(e: Expr) -> Program:
    """Lower `e` to a Program: one slot per distinct label and per distinct
    (by identity) sum or product node."""
    label_slots: dict[EdgeLabel, int] = {}
    slot_of: dict[int, int] = {}
    is_product = bytearray()
    children: list[tuple[int, ...]] = []

    def visit(node: Expr) -> int:
        slot = slot_of.get(id(node))
        if slot is None:
            if isinstance(node, Lit):
                slot = label_slots.setdefault(node.label, -2 - len(label_slots))
            elif isinstance(node, One):
                slot = -1
            else:
                slots = tuple([visit(child) for child in node.children])
                slot = len(children)
                children.append(slots)
                is_product.append(not isinstance(node, Sum))
            slot_of[id(node)] = slot
        return slot

    root = visit(e)
    return Program(tuple(label_slots), bytes(is_product), tuple(children), root)


def evaluate(e: Expr, assignment: Mapping[EdgeLabel, int], prime: int = DEFAULT_PRIME) -> int:
    """Value of the expression over the integers modulo `prime`.

    Every label occurring in `e` must be present in `assignment`; a missing
    label raises UnboundLabelError.  To evaluate one expression at many
    points, compile it once with `compile_program` and call `Program.run`.
    """
    return compile_program(e).run(assignment, prime)


def to_text(e: Expr, product_separator: str = "*") -> str:
    """Infix rendering: `+` between addends, factors joined by the separator,
    parentheses exactly around sum factors.  Pass "" to juxtapose factors.
    """

    def render(node: Expr) -> str:
        if isinstance(node, Lit):
            return str(node.label)
        if isinstance(node, One):
            return "1"
        if isinstance(node, Sum):
            return "+".join(render(child) for child in node.children)
        parts = []
        for child in node.children:
            text = render(child)
            parts.append(f"({text})" if isinstance(child, Sum) else text)
        return product_separator.join(parts)

    return render(e)


def to_json(e: Expr) -> dict:
    """AST as JSON-serializable nesting: {"lit": "b1"} | {"one": true} |
    {"sum": [...]} | {"prod": [...]}."""
    if isinstance(e, Lit):
        return {"lit": str(e.label)}
    if isinstance(e, One):
        return {"one": True}
    if isinstance(e, Sum):
        return {"sum": [to_json(child) for child in e.children]}
    return {"prod": [to_json(child) for child in e.children]}


def from_json(obj: dict) -> Expr:
    """Inverse of `to_json`; the result is renormalized on the way in.

    A payload that is not of that shape raises MalformedExpressionError.
    """
    if not isinstance(obj, dict) or len(obj) != 1:
        raise MalformedExpressionError(f"malformed expression node: {obj!r}")
    (kind, value), = obj.items()
    if kind == "lit":
        if not isinstance(value, str):
            raise MalformedExpressionError(f"a literal must be a label string, got {value!r}")
        try:
            return lit(value)
        except ValueError as exc:
            raise MalformedExpressionError(str(exc)) from None
    if kind == "one":
        if value is not True:
            raise MalformedExpressionError('the unit node must be {"one": true}')
        return ONE
    if kind in ("sum", "prod"):
        if not isinstance(value, list) or (kind == "sum" and not value):
            raise MalformedExpressionError(f"malformed {kind} node: {value!r}")
        children = [from_json(child) for child in value]
        return make_sum(children) if kind == "sum" else make_product(children)
    raise MalformedExpressionError(f"unknown expression node: {obj!r}")
