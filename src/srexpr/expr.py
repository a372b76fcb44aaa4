"""Expression ASTs over edge-label literals.

Sums and products of literals, plus the unit One of the empty subgraph.
Nodes are immutable; `make_sum` / `make_product` flatten nested nodes of the
same type, drop One from products and collapse single children, so every
Sum/Prod has two or more children and printed text is one-to-one with ASTs.

Construction is hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): one Lit per label (`make_lit`), one node per (type,
flattened children) in a `ConsTable`.  Literals are counted per occurrence.

`compile_program` lowers an expression to a `Program`, a table of its
distinct nodes.  Evaluation is a flat loop over it; `to_text` and
`to_json_text` render each distinct node once over it.
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
    """The unit: the expression of a one-vertex subgraph."""


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
    return flat or [ONE]  # an empty product is the unit


def make_sum(children: Iterable[Expr]) -> Expr:
    """Normalized n-ary sum: flattens nested sums, collapses a single child."""
    flat = _addends(children)
    return flat[0] if len(flat) == 1 else Sum(tuple(flat))


def make_product(children: Iterable[Expr]) -> Expr:
    """Normalized n-ary product: flattens nested products and drops units."""
    flat = _factors(children)
    return flat[0] if len(flat) == 1 else Prod(tuple(flat))


@lru_cache(maxsize=None)
def make_lit(letter: str, index: int) -> Lit:
    """Interned literal: one Lit per edge label."""
    return Lit(make_label(letter, index))


class ConsTable:
    """Hash-consing `make_sum` and `make_product`, and the generator's build
    algebra: a sum or product of a type and (identical) children already built
    here is that node.  The table keeps its nodes alive, so key ids stay valid."""

    __slots__ = ("_nodes",)
    lit = staticmethod(make_lit)
    one = ONE

    def __init__(self) -> None:
        self._nodes: dict[tuple, Expr] = {}

    def sum(self, children: Iterable[Expr]) -> Expr:
        flat = _addends(children)
        return flat[0] if len(flat) == 1 else self._intern(Sum, flat)

    def product(self, children: Iterable[Expr]) -> Expr:
        flat = _factors(children)
        return flat[0] if len(flat) == 1 else self._intern(Prod, flat)

    def _intern(self, cls: type, flat: list[Expr]) -> Expr:
        key = (cls, *map(id, flat))
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = cls(tuple(flat))
        return node


def lit(text: str) -> Lit:
    """Literal from short text, e.g. lit("b1")."""
    label = EdgeLabel.parse(text)
    return make_lit(label.letter, label.index)


@dataclass(frozen=True, order=True)
class Monomial:
    """A sequence of edge labels sorted by (letter, index); one per graph
    path.  `of` sorts arbitrary input.  Graph monomials are squarefree (paths
    never repeat an edge), but the type allows repeats.
    """

    labels: tuple[EdgeLabel, ...]

    @classmethod
    def of(cls, labels: Iterable[EdgeLabel]) -> "Monomial":
        return cls(tuple(sorted(labels, key=_SORT_ORDINAL)))

    def __str__(self) -> str:
        return "*".join(str(label) for label in self.labels) if self.labels else "1"


EMPTY_MONOMIAL = Monomial(())


def literal_count(e: Expr) -> int:
    """Literal occurrences in `e` written out in full (a shared subterm
    counts once per occurrence)."""
    program = compile_program(e)
    children = program.children
    return _fold(
        program,
        lambda label: 0 if label is None else 1,
        lambda k, values: sum([values[slot] for slot in children[k]]),
    )


def expansion_size(e: Expr) -> int:
    """Number of monomials (with multiplicity) in the full expansion."""
    program = compile_program(e)
    is_product, children = program.is_product, program.children

    def node(k, values):
        sizes = [values[slot] for slot in children[k]]
        return prod(sizes) if is_product[k] else sum(sizes)

    return _fold(program, lambda label: 1, node)


def iter_expansion(e: Expr) -> Iterator[Monomial]:
    """Stream the distributive expansion of `e`, one monomial at a time; a
    factor's expansion is listed once per shared subterm, so memory is bounded
    by the factor expansions, not by the output."""
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
    """Full distributive expansion as a list of monomials; CapacityError,
    before building any, past `limit` monomials."""
    size = expansion_size(e)
    if size > limit:
        raise CapacityError.exceeded(size, "monomials", limit)
    return list(iter_expansion(e))


class Program:
    """An expression as a table of slots, one per distinct node.

    Slot k >= 0 is the k-th distinct sum or product in post-order (a product
    if is_product[k]) over the slots children[k], so children come before
    parents.  Leaves count from the end: slot -1 is the unit and -(j + 2)
    labels[j].  The expression is slot `root`.  Not a dataclass: that costs
    every CLI run 1 ms at import."""

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
    """Lower `e` to a Program: a slot per distinct label and per distinct (by
    identity) sum or product."""
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
    """Value of `e` modulo `prime`; a label missing from `assignment` raises
    UnboundLabelError.  For many points, use `compile_program(e).run`."""
    return compile_program(e).run(assignment, prime)


def _fold(program: Program, leaf, node):
    """The root's value: `leaf(label)` (None for the unit) at the leaves,
    `node(k, values)` at slot k in post-order, dropping values after their
    last use."""
    children = program.children
    last_use = {slot: k for k, slots in enumerate(children) for slot in slots}
    values = [None] * len(children) + [leaf(x) for x in (*reversed(program.labels), None)]
    for k, slots in enumerate(children):
        values[k] = node(k, values)
        for slot in slots:
            if slot >= 0 and last_use[slot] == k:
                values[slot] = None
    return values[program.root]


def to_text(e: Expr, product_separator: str = "*") -> str:
    """Infix rendering: `+` between addends, factors joined by the separator,
    parentheses exactly around sum factors.  Pass "" to juxtapose factors."""
    program = compile_program(e)
    is_product, children = program.is_product, program.children

    def node(k, values):
        texts = [values[slot] for slot in children[k]]
        if not is_product[k]:
            return "+".join(texts)
        for i, slot in enumerate(children[k]):
            if slot >= 0 and not is_product[slot]:
                texts[i] = f"({texts[i]})"
        return product_separator.join(texts)

    return _fold(program, lambda label: "1" if label is None else str(label), node)


def to_json_text(e: Expr) -> str:
    """`json.dumps(to_json(e), indent=2)`.  A node below the root keeps its
    text indented as a list item, so a shared node is re-indented once."""
    program = compile_program(e)
    is_product, children, root = program.is_product, program.children, program.root

    def block(text, nested):
        return text.replace("\n", "\n    ") if nested else text

    def leaf(label):
        body = '"one": true' if label is None else f'"lit": "{label}"'
        return block(f"{{\n  {body}\n}}", root >= 0)

    def node(k, values):
        pieces = ['{\n  "prod": [' if is_product[k] else '{\n  "sum": [']
        for slot in children[k]:
            pieces += ("\n    ", values[slot], ",")
        if children[k]:
            pieces[-1] = "\n  "  # no comma after the last item
        pieces.append("]\n}")
        return block("".join(pieces), k != root)

    return _fold(program, leaf, node)


def to_json(e: Expr) -> dict:
    """AST as JSON-serializable nesting: {"lit": "b1"} | {"one": true} |
    {"sum": [...]} | {"prod": [...]}."""
    if isinstance(e, Lit):
        return {"lit": str(e.label)}
    if isinstance(e, One):
        return {"one": True}
    return {"sum" if isinstance(e, Sum) else "prod": [to_json(child) for child in e.children]}


def from_json(obj: dict) -> Expr:
    """Inverse of `to_json`, renormalized and hash-consed (a repeated subterm is
    one node); a payload not of that shape raises MalformedExpressionError."""
    return _from_json(obj, ConsTable())


def _from_json(obj, h: ConsTable) -> Expr:
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
        children = [_from_json(child, h) for child in value]
        return h.sum(children) if kind == "sum" else h.product(children)
    raise MalformedExpressionError(f"unknown expression node: {obj!r}")
