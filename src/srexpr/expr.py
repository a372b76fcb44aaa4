"""Expression ASTs over edge-label literals, and their slot tables.

Sums and products of literals, plus the unit One of the empty subgraph.
Nodes are immutable; `make_sum` / `make_product` flatten nested nodes of the
same type, drop One from products and collapse single children, so every
Sum/Prod has two or more children and printed text is one-to-one with ASTs.
Nodes are `__slots__` classes and `Monomial` is a NamedTuple, not
dataclasses: importing `dataclasses` (which loads `inspect` and `ast`) and
building the classes cost every CLI run about 20 ms of start-up (Python
3.11, 2-vCPU VM).

A `Program` is an expression as a table of its distinct nodes, one integer
slot each.  `ProgramBuilder` is the one interner of such tables, after
Filliatre & Conchon ("Type-safe modular hash-consing", 2006), and the only
code that writes one: `lit` makes one slot per label, kept by letter and
then index, and `_intern` one per (type, children's slots), taken as they
are: `make_sum` / `make_product` are the one normalizer.  Its
`lit_column`, `sum_columns` and `product_columns` build a node at each
position of a column of operands, interning in one loop, and the last two
hold the one rule the builder adds: a product of leaves only waits until a
sum or `finish` interns it or a product splices it in, so the products
that the generator flattens into others are never made.  The generator
(`vda._Columns`) builds through these column forms, and `lit`, `sum` and
`product` are the same at one position.
`compile_program` lowers any Expr to a table, kept on the node so that it
is lowered once, and is the only code that walks Expr nodes; it and
`from_json` hand each node's children's slots to `_intern`, so equal
expressions lower to equal tables, `from_json` inverts `to_json`, and `==`
of nodes compares those tables at the cost of the DAG.  A node's `hash` is
kept on it, made once from its children's.  Literals are counted per
occurrence.

Every other pass over a table is a `_fold` in an algebra with the
generator's four operations (`vda`): `lit(letter, index)`, the unit `one`,
and `sum` and `product` of a list of values.  `_fold` alone reads
`is_product` to pick one of the last two, and each distinct node is built
or counted once: `to_expr` (one node per slot, one Lit per label),
`to_json`, the counts and the exact oracle's diagram and monomial codes, of
an expression or of a graph's path polynomial (`oracle.graph_program`).
`literal_count` folds in `_COUNT`, the algebra in which `vda` plans, so a
count read off a plan and one folded off a table are one count.  An
algebra whose unit is a mutable value is made per call.  Four passes are
not folds.  `Program.run`, both sides of the fingerprint, stays a flat
loop over modular ints for speed; `iter_expansion` streams monomials,
which a fold of whole values cannot; and the two text writers,
`_write_text` (`to_text`, `gen` text and the `expression` field of `gen
--output json`) and `_write_json` (`to_json_text` and the `ast` field),
write while walking the tree written out, in buffer-sized chunks.
`_write_text` renders once and keeps only nodes of at most
`_TEXT_CACHE_CHARS` (4,096) characters, so a run's memory is those small
texts plus the tree's depth, not the output: rendered by a fold, the large
texts and their copies made the peak RSS grow with the text and depend on
how the heap happened to be laid out.  Every pass takes an Expr or a
Program alike.  A hand-built empty Sum or Prod, which `make_sum` /
`make_product` never make, folds as zero or as the unit; its text is "".
"""

from __future__ import annotations

import io
import itertools
from functools import partial, reduce
from math import prod
from operator import add
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import CapacityError, DomainError, MalformedExpressionError, UnboundLabelError
from .graph import _LETTERS, EdgeLabel, _check_limit, _without_gc

#: Default field modulus for evaluation: the Mersenne prime 2**61 - 1.
DEFAULT_PRIME = (1 << 61) - 1


class Expr:
    """Base class for expression nodes.

    A node's fields are its subclass's `__slots__`.  Nodes are equal when
    they have the same type and equal fields, so `Sum((a, b)) != Prod((a,
    b))`, and assigning a field raises AttributeError.  Equal nodes lower to
    equal hash-consed tables, so `==` compares those tables: its cost is
    that of the DAG, not of the tree written out.  `hash` is made once per
    node, from its type and its fields (a Lit's label, the children's own
    hashes), and kept in the base class's slot `_hash`: equal trees hash
    alike, and a node shared by many parents is hashed once.  The table that
    `compile_program` lowers a node to is kept in the slot `_program`, so a
    node is lowered once however many passes read it.
    """

    __slots__ = ("_hash", "_program")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or compile_program(self) == compile_program(other)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            fields = tuple([getattr(self, name) for name in self.__slots__])
            value = hash((self.__class__, fields))
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable node")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable node")

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class Lit(Expr):
    __slots__ = ("label",)

    def __init__(self, label: EdgeLabel) -> None:
        object.__setattr__(self, "label", label)


class One(Expr):
    """The unit: the expression of a one-vertex subgraph."""

    __slots__ = ()


class Sum(Expr):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Expr, ...]) -> None:
        object.__setattr__(self, "children", children)


class Prod(Expr):
    __slots__ = ("children",)

    def __init__(self, children: tuple[Expr, ...]) -> None:
        object.__setattr__(self, "children", children)


ONE = One()


def _normalized(node_type: type, children: Iterable[Expr]) -> Expr:
    flat: list[Expr] = []
    for child in children:
        if isinstance(child, node_type):
            flat.extend(child.children)
        elif node_type is Sum or not isinstance(child, One):  # the unit drops out of products
            flat.append(child)
    if len(flat) < 2:
        if flat or node_type is Prod:
            return flat[0] if flat else ONE  # an empty product is the unit
        raise ValueError("a sum needs at least one addend")
    return node_type(tuple(flat))


def make_sum(children: Iterable[Expr]) -> Expr:
    """Normalized n-ary sum: flattens nested sums, collapses a single child."""
    return _normalized(Sum, children)


def make_product(children: Iterable[Expr]) -> Expr:
    """Normalized n-ary product: flattens nested products and drops units."""
    return _normalized(Prod, children)


def lit(text: str) -> Lit:
    """Literal from short text, e.g. lit("b1")."""
    return Lit(EdgeLabel.parse(text))


class Monomial(NamedTuple):
    """A sequence of edge labels sorted by (letter, index); one per graph
    path.  `of` sorts arbitrary input.  Monomials are ordered as their label
    tuples are, item by item.  Graph monomials are squarefree (paths never
    repeat an edge), but the type allows repeats.
    """

    labels: tuple[EdgeLabel, ...]

    @classmethod
    def of(cls, labels: Iterable[EdgeLabel]) -> "Monomial":
        return cls(tuple(sorted(labels)))

    def __str__(self) -> str:
        return "*".join(str(label) for label in self.labels) if self.labels else "1"


EMPTY_MONOMIAL = Monomial(())


# The count algebra: a literal counts 1, the unit 0, sums and products add.
_COUNT = SimpleNamespace(lit=lambda letter, index: 1, one=0, sum=sum, product=sum)


def literal_count(e: Expr | Program) -> int:
    """Literal occurrences in `e` written out in full (a shared subterm
    counts once per occurrence)."""
    return _fold(compile_program(e), _COUNT)


def expansion_size(e: Expr | Program) -> int:
    """Number of monomials (with multiplicity) in the full expansion."""
    return _shape(compile_program(e))[0]


def _shape_product(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    m, d = 1, 0
    for m2, d2 in pairs:
        m, d = m * m2, d * m2 + d2 * m
    return m, d


# (monomials, total degree) of an expansion, with multiplicity.
_SHAPE = SimpleNamespace(
    lit=lambda letter, index: (1, 1), one=(1, 0), product=_shape_product,
    sum=lambda pairs: (sum([m for m, _ in pairs]), sum([d for _, d in pairs])),
)


def _shape(program: Program) -> tuple[int, int]:
    """(monomials, total degree) of the expansion of `program`, with
    multiplicity, by one fold; on `oracle.graph_program(g)`, (paths, total
    length)."""
    return _fold(program, _SHAPE)


def iter_expansion(e: Expr | Program) -> Iterator[Monomial]:
    """Stream the distributive expansion of `e`, one monomial at a time, over
    its slot table; a product factor's expansion is listed once per slot, so
    memory is bounded by the factor expansions, not by the output."""
    program = compile_program(e)
    labels, is_product, children = program.labels, program.is_product, program.children
    memo: dict[int, list[Monomial]] = {}

    def listed(slot: int) -> list[Monomial]:
        cached = memo.get(slot)
        if cached is None:
            cached = memo[slot] = list(stream(slot))
        return cached

    def stream(slot: int) -> Iterator[Monomial]:
        if slot < 0:
            yield EMPTY_MONOMIAL if slot == -1 else Monomial((labels[-2 - slot],))
        elif not is_product[slot]:
            for child in children[slot]:
                yield from stream(child)
        else:
            factor_lists = [listed(child) for child in children[slot]]
            for combo in itertools.product(*factor_lists):
                merged: list[EdgeLabel] = []
                for part in combo:
                    merged.extend(part.labels)
                merged.sort()
                yield Monomial(tuple(merged))

    try:
        yield from stream(program.root)
    finally:
        # `listed` and `stream` call each other through their closures, a
        # reference cycle that would hold `memo` until the collector ran.
        del listed, stream


def expand(e: Expr | Program, limit: int = 10**6) -> list[Monomial]:
    """Full distributive expansion as a list of monomials; CapacityError,
    before building any, past `limit` monomials, and DomainError, before
    any work, when `limit` is not an int or is a bool."""
    _check_limit(limit)
    program = compile_program(e)
    size = expansion_size(program)
    if size > limit:
        raise CapacityError.exceeded(size, "monomials", limit)
    return list(iter_expansion(program))


def _check_modulus(prime: int) -> None:
    """Raise DomainError unless `prime` is an int (not a bool) of at least
    2: the one rule for a modulus of `Program.run` and `oracle.SplitMix64`."""
    if type(prime) is not int or prime < 2:
        raise DomainError(f"the modulus must be an int >= 2, got {prime!r}")


class Program:
    """An expression as a table of slots, one per distinct node.

    Slot k >= 0 is a distinct sum or product (a product if is_product[k])
    over the slots children[k].  Slots are in children-first order: every
    child slot is below its parent, which is all a pass over the table needs
    (the order is not necessarily a DFS post-order).  Leaves count from the
    end: slot -1 is the unit and -(j + 2) labels[j].  The expression is slot
    `root`.  Programs are equal when their tables are, and `pickle` and
    `copy` rebuild them through the constructor."""

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

    def _astuple(self) -> tuple:
        return self.labels, self.is_product, self.children, self.root

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()

    def run(self, assignment: Mapping[EdgeLabel, int], prime: int = DEFAULT_PRIME) -> int:
        """Value of the expression modulo `prime`; see `evaluate`."""
        _check_modulus(prime)
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


class ProgramBuilder:
    """The build algebra whose values are Program slots, and the one owner
    of a table being built: `lit` and `one` are leaf slots, and sums and
    products are hash-consed, so a node of a type and children already
    built is that slot.  Its sums and products come in two forms with one
    rule: `sum_columns` and `product_columns` take columns, one list of
    values per operand with one value per position, and build the node at
    every position in one pass (the generator, `vda._Columns`, builds a
    shape at all its positions at once); `sum` and `product` are the same
    at one position.  Operands are taken as given, `make_sum` /
    `make_product` being the one normalizer, except that a product of
    leaves only (the generator flattens its size-1 parallelograms into
    bridge products) stays the tuple of its factors' slots until a sum or
    `finish` interns it or a product splices it in.  Other products are
    interned at once, in post-order.  `_intern_all` interns a column of
    keys and `_intern` one key, which `compile_program` and `from_json`
    call directly.  Label slots are kept in one dict per letter, by index:
    `lit_column` maps a column of one letter's indices through it in one
    call, and only a label not seen before takes the loop in `_new_lit`,
    which numbers labels in the order they are first met; the scalar `lit`
    reads the same dict.  `finish` returns the builder's lists."""

    __slots__ = ("_label_slots", "_labels", "_interned", "is_product", "children")
    one = -1

    def __init__(self) -> None:
        # The label slots of each letter, by index.
        self._label_slots: dict[str, dict[int, int]] = {letter: {} for letter in _LETTERS}
        self._labels: list[EdgeLabel] = []
        # The slots of sums and of products, by their children.
        self._interned: tuple[dict[tuple[int, ...], int], ...] = ({}, {})
        self.is_product = bytearray()
        self.children: list[tuple[int, ...]] = []

    def lit(self, letter: str, index: int) -> int:
        slot = self._label_slots[letter].get(index)
        return self._new_lit(letter, index) if slot is None else slot

    def lit_column(self, letter: str, indices: list[int]) -> list[int]:
        """The slot of the label (letter, index) for each of `indices` in
        turn: one lookup in the letter's slots maps the column, and only the
        labels not seen before take a loop."""
        column = list(map(self._label_slots[letter].get, indices))
        if None in column:
            for k, slot in enumerate(column):
                if slot is None:
                    column[k] = self._new_lit(letter, indices[k])
        return column

    def _new_lit(self, letter: str, index: int) -> int:
        """The slot of (letter, index), a new one if the label is new:
        label slots count down from -2 in the order labels are first met."""
        slots = self._label_slots[letter]
        slot = slots.get(index)
        if slot is None:
            label = EdgeLabel(letter, index)
            slot = slots[index] = -2 - len(self._labels)
            self._labels.append(label)
        return slot

    def sum(self, addends: Iterable[int | tuple]) -> int:
        columns = [[slot] for slot in addends]
        return self.sum_columns(columns)[0] if columns else self._intern(0, ())

    def product(self, factors: Iterable[int | tuple]) -> int | tuple:
        columns = [[slot] for slot in factors]
        return self.product_columns(columns)[0] if columns else ()

    def sum_columns(self, columns: list[list]) -> list[int]:
        """The slot of the sum over `columns`' values at each position."""
        columns = [self._intern_all(1, c) if c[0].__class__ is tuple else c for c in columns]
        return self._intern_all(0, zip(*columns))

    def product_columns(self, columns: list[list]) -> list:
        """The slot of the product over `columns`' values at each position,
        or, for a product of leaves, the tuple of its factors' slots.  A
        value is a leaf, a product of leaves or a slot alike at every
        position, so the rule is decided on the first."""
        parts, spliced, leaves = [], False, True
        for column in columns:
            if column[0].__class__ is tuple:  # a product of leaves, spliced in
                spliced = True
                parts.append(column)
            else:
                leaves = leaves and column[0] < 0
                parts.append(zip(column))
        keys = reduce(partial(map, add), parts) if spliced else zip(*columns)
        return list(keys) if leaves else self._intern_all(1, keys)  # a product of leaves waits

    def _intern_all(self, product: int, keys: Iterable[tuple[int, ...]]) -> list[int]:
        """`_intern(product, key)` of each key in turn, in one loop."""
        intern = self._interned[product].setdefault
        children, is_product = self.children, self.is_product
        slots, new = [], len(children)
        for key in keys:
            slot = intern(key, new)
            if slot == new:
                children.append(key)
                is_product.append(product)
                new += 1
            slots.append(slot)
        return slots

    def _intern(self, product: int, key: tuple[int, ...]) -> int:
        """The slot of the sum (product 0) or product (1) over the slots
        `key`, taken as they are: the one already built, or a new one."""
        interned = self._interned[product]
        slot = interned.get(key)
        if slot is None:
            slot = interned[key] = len(self.children)
            self.children.append(key)
            self.is_product.append(product)
        return slot

    def finish(self, root: int | tuple) -> Program:
        """The Program of `root`, interned first if it is a product's factors:
        the builder's lists as they stand.  Slots and labels that the root
        does not reach would be kept; no caller leaves any."""
        if root.__class__ is tuple:
            root = self._intern(1, root)
        return Program(tuple(self._labels), bytes(self.is_product), tuple(self.children), root)


# The algebra of expression nodes, built as given: unlike `make_sum` / `make_product`, it
# flattens nothing.
_NODES = SimpleNamespace(
    lit=lambda letter, index: Lit(EdgeLabel(letter, index)), one=ONE,
    sum=lambda nodes: Sum(tuple(nodes)), product=lambda nodes: Prod(tuple(nodes)),
)


def to_expr(program: Program) -> Expr:
    """The expression of `program`, one node per slot (hash-consed as the
    table is), and one Lit per label slot: a `_fold` of node constructors."""
    return _fold(program, _NODES)


@_without_gc
def compile_program(e: Expr | Program) -> Program:
    """Lower `e` to a Program, hash-consed: a slot per distinct label and per
    distinct (type, children's slots) sum or product, in post-order, with
    nothing normalized.  So equal expressions lower to equal tables however
    they share nodes.  This is the one walk over Expr nodes, once per node
    object, and it interns through a fresh `ProgramBuilder` (`lit` and
    `_intern`); every other pass reads the table.  A Program is returned as
    it is, and the table is kept on `e`, so a second call returns it."""
    if isinstance(e, Program):
        return e
    try:
        return e._program
    except AttributeError:
        pass
    h = ProgramBuilder()
    slot_of: dict[int, int] = {}

    def visit(node: Expr) -> int:
        slot = slot_of.get(id(node))
        if slot is None:
            if isinstance(node, Lit):
                slot = h.lit(*node.label)
            elif isinstance(node, One):
                slot = -1
            else:
                slots = tuple([visit(child) for child in node.children])
                slot = h._intern(not isinstance(node, Sum), slots)
            slot_of[id(node)] = slot
        return slot

    try:
        program = h.finish(visit(e))
    finally:
        # `visit` calls itself through its closure, a reference cycle that
        # would hold `h` and `slot_of` until the collector ran.
        del visit
    object.__setattr__(e, "_program", program)
    return program


def evaluate(
    e: Expr | Program, assignment: Mapping[EdgeLabel, int], prime: int = DEFAULT_PRIME
) -> int:
    """Value of `e` modulo `prime`; a label missing from `assignment` raises
    UnboundLabelError, and a `prime` that is not an int of at least 2 (a
    bool included) DomainError.  For many points, use
    `compile_program(e).run`."""
    return compile_program(e).run(assignment, prime)


@_without_gc
def _fold(program: Program, h):
    """The root's value in the algebra `h`: `h.lit(letter, index)` at a
    label's slot and `h.one` at the unit's, then, at each slot k in slot
    order, `h.product` if `is_product[k]` and `h.sum` if not, of a fresh
    list of the values of `children[k]` in order.  This is the one pass
    that reads `is_product` for a fold.  A value is dropped after its last
    use."""
    children = program.children
    last_use = {slot: k for k, slots in enumerate(children) for slot in slots}
    values = [None] * len(children) + [h.lit(*x) for x in reversed(program.labels)] + [h.one]
    value_at = values.__getitem__
    steps = (h.sum, h.product)
    for k, (slots, product) in enumerate(zip(children, program.is_product)):
        values[k] = steps[product](list(map(value_at, slots)))
        for slot in slots:
            if slot >= 0 and last_use[slot] == k:
                values[slot] = None
    return values[program.root]


#: `_write_text` renders once and keeps the text of every node of at most
#: this many characters, and streams larger nodes' text.
_TEXT_CACHE_CHARS = 4096


def _write_text(program: Program, write, separator: str = "*") -> None:
    """Write `to_text(program, separator)` through `write`, in chunks of about
    `io.DEFAULT_BUFFER_SIZE` characters.  One pass in slot order folds each
    slot's text length and renders, from its children's texts, each node of
    at most `_TEXT_CACHE_CHARS` characters; a larger node is written by
    walking its children.  So memory is the small nodes' texts and the depth
    of the tree, not the text."""
    labels, is_product, children = program.labels, program.is_product, program.children
    texts = [""] * len(children) + [str(label) for label in reversed(labels)] + ["1"]
    lengths = [0] * len(children) + [len(text) for text in texts[len(children) :]]
    # A slot's length as a product's factor: a sum's is 2 more, for the
    # parentheses around it.
    factor_lengths = lengths[:]
    for k, slots in enumerate(children):
        if not slots:  # a hand-built empty sum or product: ""
            continue
        if is_product[k]:
            length = sum(map(factor_lengths.__getitem__, slots)) + len(separator) * (len(slots) - 1)
            lengths[k] = factor_lengths[k] = length
            if length <= _TEXT_CACHE_CHARS:
                texts[k] = separator.join(
                    [f"({texts[s]})" if s >= 0 and not is_product[s] else texts[s] for s in slots]
                )
        else:
            lengths[k] = length = sum(map(lengths.__getitem__, slots)) + len(slots) - 1
            factor_lengths[k] = length + 2
            if length <= _TEXT_CACHE_CHARS:
                texts[k] = "+".join(map(texts.__getitem__, slots))
    chunk = io.StringIO()
    put = chunk.write

    def walk(slot: int) -> None:
        if lengths[slot] <= _TEXT_CACHE_CHARS:
            put(texts[slot])
            return
        product = is_product[slot]
        joiner, lead = separator if product else "+", ""
        for child in children[slot]:
            put(lead)
            lead = joiner
            if product and child >= 0 and not is_product[child]:
                put("(")
                walk(child)
                put(")")
            else:
                walk(child)
            if chunk.tell() >= io.DEFAULT_BUFFER_SIZE:
                write(chunk.getvalue())
                chunk.seek(0)
                chunk.truncate()

    try:
        walk(program.root)
    finally:
        del walk  # it calls itself through its closure, a reference cycle
    write(chunk.getvalue())


def to_text(e: Expr | Program, product_separator: str = "*") -> str:
    """Infix rendering: `+` between addends, factors joined by the separator,
    parentheses exactly around sum factors.  Pass "" to juxtapose factors."""
    chunks: list[str] = []
    _write_text(compile_program(e), chunks.append, product_separator)
    return "".join(chunks)


def _write_json(program: Program, write, pad: str = "") -> None:
    """Write `json.dumps(to_json(program), indent=2)` through `write`, every
    line after the first indented by `pad` more, in chunks of about
    `io.DEFAULT_BUFFER_SIZE` characters.  A walk of the tree written out: no
    subtree is held as one string, so memory is the depth of the tree and a
    chunk, not the text."""
    labels, is_product, children = program.labels, program.is_product, program.children
    chunk = io.StringIO()
    put = chunk.write

    def walk(slot: int, pad: str, lead: str) -> None:
        # `lead` is the text, not yet written, that goes just before this node.
        if slot < 0:
            body = '"one": true' if slot == -1 else f'"lit": "{labels[-2 - slot]}"'
            put(f"{lead}{{\n{pad}  {body}\n{pad}}}")
            return
        lead += f'{{\n{pad}  "prod": [' if is_product[slot] else f'{{\n{pad}  "sum": ['
        inner = pad + "    "
        separator = "\n" + inner
        for child in children[slot]:
            walk(child, inner, lead + separator)
            lead, separator = "", ",\n" + inner
        # A lead still unwritten means the node had no items: "[]".
        put(f"{lead}]\n{pad}}}" if lead else f"\n{pad}  ]\n{pad}}}")
        if chunk.tell() >= io.DEFAULT_BUFFER_SIZE:
            write(chunk.getvalue())
            chunk.seek(0)
            chunk.truncate()

    try:
        walk(program.root, pad, "")
    finally:
        del walk  # it calls itself through its closure, a reference cycle
    write(chunk.getvalue())


def to_json_text(e: Expr | Program) -> str:
    """`json.dumps(to_json(e), indent=2)`."""
    chunks: list[str] = []
    _write_json(compile_program(e), chunks.append)
    return "".join(chunks)


def to_json(e: Expr | Program) -> dict:
    """AST as JSON-serializable nesting: {"lit": "b1"} | {"one": true} |
    {"sum": [...]} | {"prod": [...]}.  A fold over the slot table, so each
    distinct node is one dict, shared by every list that holds it."""
    h = SimpleNamespace(  # per call, as its unit is a dict
        lit=lambda letter, index: {"lit": f"{letter}{index}"}, one={"one": True},
        sum=lambda items: {"sum": items}, product=lambda items: {"prod": items},
    )
    return _fold(compile_program(e), h)


def from_json(obj: dict) -> Expr:
    """Inverse of `to_json`: hash-consed as `compile_program` is (a repeated
    subterm is one node) and not normalized, so `from_json(to_json(e)) == e`.
    A payload not of that shape, an empty sum included, raises
    MalformedExpressionError."""
    h = ProgramBuilder()
    return to_expr(h.finish(_from_json(obj, h, {})))


def _from_json(obj, h: ProgramBuilder, memo: dict[int, int]) -> int:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise MalformedExpressionError(f"malformed expression node: {obj!r}")
    (kind, value), = obj.items()
    if kind == "lit":
        if not isinstance(value, str):
            raise MalformedExpressionError(f"a literal must be a label string, got {value!r}")
        try:
            label = EdgeLabel.parse(value)
        except ValueError as exc:
            raise MalformedExpressionError(str(exc)) from None
        return h.lit(label.letter, label.index)
    if kind == "one":
        if value is not True:
            raise MalformedExpressionError('the unit node must be {"one": true}')
        return h.one
    if kind in ("sum", "prod"):
        if not isinstance(value, list) or (kind == "sum" and not value):
            raise MalformedExpressionError(f"malformed {kind} node: {value!r}")
        children = []
        for child in value:  # by id(), so a dict shared in the payload is read once
            slot = memo.get(id(child))
            if slot is None:
                slot = memo[id(child)] = _from_json(child, h, memo)
            children.append(slot)
        return h._intern(int(kind == "prod"), tuple(children))
    raise MalformedExpressionError(f"unknown expression node: {obj!r}")
