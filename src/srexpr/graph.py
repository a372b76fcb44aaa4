"""Square-rhomboid two-terminal DAGs and their subgraphs.

A square rhomboid of size n is the st-dag with n basic vertices on the middle
row, n-1 upper and n-1 lower vertices, and five edge families:

    b_p : basic p  -> basic p+1        (p = 1..n-1)
    e_(2p-1) : basic p -> upper p      e_(2p) : upper p -> basic p+1
    d_(2p-1) : basic p -> lower p      d_(2p) : lower p -> basic p+1
    c_p : upper p  -> upper p+1        (p = 1..n-2)
    a_p : lower p  -> lower p+1        (p = 1..n-2)

Subgraphs are always taken between two terminals and are path-induced: they
contain exactly the vertices and edges lying on some directed path between the
endpoints.  Edge labels keep their global indices inside subgraphs, so
subexpressions compose without relabeling.

A graph keeps one adjacency, each vertex's out-edges, beside its sorted
edge list and its topological order, and every pass reads edges through
it.  Path counts and path lengths push forward over the order, a
path-induced subgraph sweeps the stretch of the order between its ends,
path enumeration walks out-edges depth first, and `oracle.graph_program`
reads the order backward.

Graphs are immutable after construction and all operations here are pure
functions; everything is safe to share across threads.  `_without_gc`
pauses the cyclic garbage collector in the passes that cannot make a
reference cycle (here `build_sr` and `induced_subgraph`, and the table
builds and checks of `expr`, `vda` and `oracle`).  The collector's switch is
process-wide: calls in other threads can change only when it runs, never
what is computed.
"""

from __future__ import annotations

import enum
import gc
import heapq
import re
from functools import lru_cache, wraps
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    CapacityError,
    DomainError,
    EmptySubgraphError,
    InvalidSizeError,
    OrderingError,
    RangeError,
)


def _without_gc(fn):
    """`fn` run with the cyclic garbage collector paused: it is turned off
    for the call and back on afterwards, also when the call raises, unless
    the caller had turned it off already.  For the passes that make many
    containers and no reference cycle, where the collector's scans of the
    young objects are pure cost.  A cycle made meanwhile is collected once
    the collector is back on."""

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


# The largest size accepted.  The recursions take one or two stack frames per bit
# of the size: at closed-form's n = 2**256 they use half the default limit.
MAX_SIZE = (1 << 257) - 1

_LETTERS = ("a", "b", "c", "d", "e")
# Matched whole by `fullmatch`: a `$` would also match before a final newline.
_LABEL_RE = re.compile(r"([abcde])([1-9][0-9]*)")
_TERMINAL_RE = re.compile(r"([bul])([1-9][0-9]*)")


class EdgeLabel(tuple):
    """A named edge: one of the letters a..e plus a positive index.

    The tuple `(letter, index)`, so labels are totally ordered by letter,
    then index, and compare and hash as that tuple does; that ordering is
    the canonical sort key for monomials and for all deterministic output.
    """

    __slots__ = ()
    letter = property(itemgetter(0))
    index = property(itemgetter(1))

    def __new__(cls, letter: str, index: int) -> "EdgeLabel":
        if letter not in _LETTERS:
            raise ValueError(f"edge letter must be one of {_LETTERS}, got {letter!r}")
        if type(index) is not int or index < 1:
            raise ValueError(f"edge index must be a positive int, got {index!r}")
        return tuple.__new__(cls, (letter, index))

    def __getnewargs__(self) -> tuple[str, int]:
        return self.letter, self.index

    def __repr__(self) -> str:
        return f"EdgeLabel(letter={self.letter!r}, index={self.index!r})"

    def __str__(self) -> str:
        return f"{self.letter}{self.index}"

    @classmethod
    def parse(cls, text: str) -> "EdgeLabel":
        m = _LABEL_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"cannot parse edge label {text!r}")
        return cls(m.group(1), int(m.group(2)))


class TerminalKind(enum.Enum):
    """Row of a vertex: basic (middle), upper, or lower."""

    BASIC = "b"
    UPPER = "u"
    LOWER = "l"

    # Members are singletons, so identity hashing agrees with equality; it runs
    # in C, where Enum.__hash__ is a Python call that generation would make
    # ~10^5 times.  No code iterates over a set of members.
    __hash__ = object.__hash__


_KIND_RANK = {TerminalKind.BASIC: 0, TerminalKind.UPPER: 1, TerminalKind.LOWER: 2}

# The rows as module constants: reading a member off its class
# (`TerminalKind.BASIC`) is a Python-level lookup of about 0.1 us on Python
# 3.11, and the generator names a row for every terminal it makes.
_BASIC, _UPPER, _LOWER = TerminalKind.BASIC, TerminalKind.UPPER, TerminalKind.LOWER


class Terminal(tuple):
    """A vertex, identified by its row and its index within the row.

    The tuple `(index, row rank, row)`, with ranks basic 0, upper 1 and
    lower 2, so terminals are ordered by (index, row) and iteration follows
    the drawing left to right.
    """

    __slots__ = ()
    index = property(itemgetter(0))
    kind = property(itemgetter(2))

    def __new__(cls, kind: TerminalKind, index: int) -> "Terminal":
        if type(index) is not int or index < 1:
            raise ValueError(f"terminal index must be a positive int, got {index!r}")
        return tuple.__new__(cls, (index, _KIND_RANK[kind], kind))

    def __getnewargs__(self) -> tuple[TerminalKind, int]:
        return self.kind, self.index

    def __repr__(self) -> str:
        return f"Terminal(kind={self.kind!r}, index={self.index!r})"

    def __str__(self) -> str:
        return f"{self.kind.value}{self.index}"

    @classmethod
    def parse(cls, text: str) -> "Terminal":
        """Parse the short form used on the command line: b1, u3, l5."""
        m = _TERMINAL_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"cannot parse terminal {text!r} (expected e.g. b1, u3, l5)")
        return _interned_terminal(TerminalKind(m.group(1)), int(m.group(2)))


# Bounded, so a process that counts many sizes does not keep every terminal
# it touched: counting SR(2**k) for k = 2..256 touches about 165,000.
@lru_cache(maxsize=1 << 16)
def _interned_terminal(kind: TerminalKind, index: int) -> Terminal:
    return Terminal(kind, index)


def basic(index: int) -> Terminal:
    return _interned_terminal(_BASIC, index)


def upper(index: int) -> Terminal:
    return _interned_terminal(_UPPER, index)


def lower(index: int) -> Terminal:
    return _interned_terminal(_LOWER, index)


class Family(enum.Enum):
    """The nine subgraph families, classified by the (source, sink) rows.

    Upper/upper and lower/lower pairs are trapezoidal; mixed upper/lower pairs
    are parallelograms.  A single-leaf family has exactly one non-basic
    endpoint.
    """

    SR = "sr"
    SL_BASIC_UPPER = "sl-basic-upper"
    SL_UPPER_BASIC = "sl-upper-basic"
    SL_BASIC_LOWER = "sl-basic-lower"
    SL_LOWER_BASIC = "sl-lower-basic"
    TRAP_UPPER_UPPER = "trap-upper-upper"
    TRAP_LOWER_LOWER = "trap-lower-lower"
    PARA_LOWER_UPPER = "para-lower-upper"
    PARA_UPPER_LOWER = "para-upper-lower"

    __hash__ = object.__hash__  # as for TerminalKind


_FAMILY_OF = {
    (TerminalKind.BASIC, TerminalKind.BASIC): Family.SR,
    (TerminalKind.BASIC, TerminalKind.UPPER): Family.SL_BASIC_UPPER,
    (TerminalKind.UPPER, TerminalKind.BASIC): Family.SL_UPPER_BASIC,
    (TerminalKind.BASIC, TerminalKind.LOWER): Family.SL_BASIC_LOWER,
    (TerminalKind.LOWER, TerminalKind.BASIC): Family.SL_LOWER_BASIC,
    (TerminalKind.UPPER, TerminalKind.UPPER): Family.TRAP_UPPER_UPPER,
    (TerminalKind.LOWER, TerminalKind.LOWER): Family.TRAP_LOWER_LOWER,
    (TerminalKind.LOWER, TerminalKind.UPPER): Family.PARA_LOWER_UPPER,
    (TerminalKind.UPPER, TerminalKind.LOWER): Family.PARA_UPPER_LOWER,
}

_DIPTEROUS = {
    Family.TRAP_UPPER_UPPER,
    Family.TRAP_LOWER_LOWER,
    Family.PARA_LOWER_UPPER,
    Family.PARA_UPPER_LOWER,
}


class SubgraphKind(NamedTuple):
    """Family plus size (the number of basic vertices the subgraph spans)."""

    family: Family
    size: int

    @property
    def is_dipterous(self) -> bool:
        return self.family in _DIPTEROUS

    @property
    def is_trapezoidal(self) -> bool:
        return self.family in (Family.TRAP_UPPER_UPPER, Family.TRAP_LOWER_LOWER)

    @property
    def is_parallelogram(self) -> bool:
        return self.family in (Family.PARA_LOWER_UPPER, Family.PARA_UPPER_LOWER)

    @property
    def is_single_leaf(self) -> bool:
        return self.family not in _DIPTEROUS and self.family is not Family.SR


def classify(src: Terminal, dst: Terminal) -> SubgraphKind:
    """Classify the subgraph spanned by a terminal pair.

    The size counts basic vertices: q-p+1 when the source is basic, q-p when
    it is upper or lower (the source row shifts which basics are included).
    Raises OrderingError when the sink does not follow the source.
    """
    family = _FAMILY_OF[(src.kind, dst.kind)]
    size = dst.index - src.index + (1 if src.kind is _BASIC else 0)
    if size < 1:
        raise OrderingError(f"sink {dst} does not follow source {src}")
    return SubgraphKind(family, size)


class LabeledDigraph:
    """An edge-labeled st-dag: one source, one sink, everything on a path.

    The constructor validates the st-dag invariants (acyclic; the source is
    the unique in-degree-0 vertex and the sink the unique out-degree-0 vertex,
    so every vertex lies on a source-to-sink path; labels are distinct).
    Vertices and edges are stored sorted, so all iteration is deterministic.
    The one adjacency kept is each vertex's out-edges (`out_edges`); a pass
    that would read in-edges runs over `topological_order` instead, each
    vertex pushing its value along its out-edges.
    """

    def __init__(
        self,
        vertices: Iterable[Terminal],
        edges: Iterable[tuple[Terminal, Terminal, EdgeLabel]],
        source: Terminal,
        sink: Terminal,
    ) -> None:
        self.vertices = tuple(sorted(set(vertices)))
        self.edges = tuple(sorted(edges, key=itemgetter(2)))
        self.source, self.sink = source, sink

        out: dict[Terminal, list[tuple[Terminal, EdgeLabel]]] = {v: [] for v in self.vertices}
        if source not in out or sink not in out:
            raise ValueError("source and sink must be vertices of the graph")

        if len({label for _, _, label in self.edges}) != len(self.edges):
            raise ValueError("edge labels must be distinct")

        indegree = dict.fromkeys(self.vertices, 0)
        for tail, head, label in self.edges:
            if tail not in out or head not in out:
                raise ValueError(f"edge {label} has an endpoint outside the vertex set")
            out[tail].append((head, label))
            indegree[head] += 1
        self._out = {v: tuple(pairs) for v, pairs in out.items()}

        # Kahn's algorithm, always taking the least ready vertex, so the
        # order is a function of the graph alone.  The sources are listed
        # sorted, which is already a heap.
        sources = [v for v in self.vertices if not indegree[v]]
        ready, order = sources[:], []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for head, _ in self._out[v]:
                indegree[head] -= 1
                if not indegree[head]:
                    heapq.heappush(ready, head)
        if len(order) != len(self.vertices):
            raise ValueError("graph has a directed cycle")
        self._topo = tuple(order)

        sinks = [v for v in self.vertices if not self._out[v]]
        if sources != [source]:
            raise ValueError(f"expected a unique in-degree-0 vertex {source}, got {sources}")
        if sinks != [sink]:
            raise ValueError(f"expected a unique out-degree-0 vertex {sink}, got {sinks}")
        # So every vertex lies on a source-to-sink path: in a DAG, a walk back
        # along in-edges ends at a vertex without one, the source, and a walk
        # forward ends at the sink.

    @property
    def topological_order(self) -> tuple[Terminal, ...]:
        return self._topo

    def out_edges(self, v: Terminal) -> tuple[tuple[Terminal, EdgeLabel], ...]:
        return self._out[v]

    def labels(self) -> tuple[EdgeLabel, ...]:
        return tuple(label for _, _, label in self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledDigraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.source == other.source
            and self.sink == other.sink
        )

    def __repr__(self) -> str:
        return (
            f"LabeledDigraph({len(self.vertices)} vertices, {len(self.edges)} edges, "
            f"{self.source}->{self.sink})"
        )


def check_size(n: int) -> None:
    """Raise InvalidSizeError unless n is an int (not a bool) and
    1 <= n <= MAX_SIZE: the one size rule of every module."""
    if type(n) is not int:
        raise InvalidSizeError(f"square rhomboid size must be an int, got {n!r}")
    if n < 1:
        raise InvalidSizeError(f"square rhomboid size must be >= 1, got {n}")
    if n > MAX_SIZE:
        bits = MAX_SIZE.bit_length()
        raise InvalidSizeError(f"size must be < 2**{bits}, got a {n.bit_length()}-bit size")


def _check_limit(limit: int) -> None:
    """Raise DomainError unless `limit` is an int (not a bool): the one rule
    for the monomial or path limit of `expand`, `enumerate_paths` and
    `oracle.check_exact`."""
    if type(limit) is not int:
        raise DomainError(f"the limit must be an int, got {limit!r}")


@_without_gc
def build_sr(n: int) -> LabeledDigraph:
    """Build the square rhomboid of size n (n basic vertices, 3n-2 total).

    For n >= 2 the graph has 7n-9 edges; n = 1 is the degenerate single
    vertex.  Raises InvalidSizeError for a size `check_size` refuses.
    """
    check_size(n)
    vertices = [basic(p) for p in range(1, n + 1)]
    vertices += [upper(p) for p in range(1, n)]
    vertices += [lower(p) for p in range(1, n)]
    edges: list[tuple[Terminal, Terminal, EdgeLabel]] = []
    for p in range(1, n):
        edges.append((basic(p), basic(p + 1), EdgeLabel("b", p)))
        edges.append((basic(p), upper(p), EdgeLabel("e", 2 * p - 1)))
        edges.append((upper(p), basic(p + 1), EdgeLabel("e", 2 * p)))
        edges.append((basic(p), lower(p), EdgeLabel("d", 2 * p - 1)))
        edges.append((lower(p), basic(p + 1), EdgeLabel("d", 2 * p)))
    for p in range(1, n - 1):
        edges.append((upper(p), upper(p + 1), EdgeLabel("c", p)))
        edges.append((lower(p), lower(p + 1), EdgeLabel("a", p)))
    return LabeledDigraph(vertices, edges, basic(1), basic(n))


@_without_gc
def induced_subgraph(g: LabeledDigraph, src: Terminal, dst: Terminal) -> LabeledDigraph:
    """The subgraph of everything lying on a directed src-to-dst path.

    In a DAG an edge (u, v) is on such a path exactly when u is reachable
    from src and v reaches dst.  Such vertices lie between src and dst in
    topological order, and two sweeps of that stretch of the order, both
    along out-edges, find them: a forward one marks what src reaches, and a
    backward one keeps a marked vertex when an out-edge leads to dst or to
    a vertex already kept.  The edges are those of g between kept vertices.
    Raises RangeError if an endpoint is not a vertex of g and
    EmptySubgraphError if no path exists.
    """
    out, order = g._out, g.topological_order
    if src not in out or dst not in out:
        raise RangeError(f"{src} or {dst} is not a vertex of {g!r}")
    between = order[order.index(src) : order.index(dst)]  # empty when dst comes first
    reached = {src}
    for v in between:
        if v in reached:
            for head, _ in out[v]:
                reached.add(head)
    if dst not in reached:
        raise EmptySubgraphError(f"no directed path from {src} to {dst}")
    kept = {dst}
    for v in reversed(between):
        if v in reached:
            for head, _ in out[v]:
                if head in kept:
                    kept.add(v)
                    break
    edges = [edge for edge in g.edges if edge[0] in kept and edge[1] in kept]
    return LabeledDigraph(kept, edges, src, dst)


def path_count(g: LabeledDigraph) -> int:
    """Number of distinct source-to-sink paths, by DP over topological order:
    each vertex pushes its count along its out-edges, so a vertex's count is
    complete when the order reaches it."""
    out = g._out
    count = dict.fromkeys(g.topological_order, 0)
    count[g.source] = 1
    for v in g.topological_order:
        paths = count[v]
        for head, _ in out[v]:
            count[head] += paths
    return count[g.sink]


def sr_path_count(n: int, stop_above: int | None = None) -> int:
    """`path_count(build_sr(n))` from the row recurrence, without the graph.

    b and u are the path counts from basic 1 to basic p and to upper p (lower
    p has as many): u' = b + u and b' = b + 2u'.  With `stop_above`, the
    first count past it is returned as soon as it appears; the count grows
    with n, so the result exceeds `stop_above` exactly when the true count
    does, and a huge n costs no more than the steps to get there.  Raises
    InvalidSizeError for a size `check_size` refuses.
    """
    check_size(n)
    b, u = 1, 0
    for _ in range(n - 1):
        if stop_above is not None and b > stop_above:
            break
        u = b + u
        b = b + 2 * u
    return b


def path_length_range(g: LabeledDigraph) -> tuple[int, int]:
    """(shortest, longest) source-to-sink path length in edges, by DP over
    topological order: each vertex pushes its lengths plus one along its
    out-edges."""
    out, order = g._out, g.topological_order
    shortest = dict.fromkeys(order, len(order))  # longer than any path
    longest = dict.fromkeys(order, 0)
    shortest[g.source] = 0
    for v in order:
        low, high = shortest[v] + 1, longest[v] + 1
        for head, _ in out[v]:
            if low < shortest[head]:
                shortest[head] = low
            if high > longest[head]:
                longest[head] = high
    return shortest[g.sink], longest[g.sink]


def _iter_path_labels(g: LabeledDigraph) -> Iterator[tuple[EdgeLabel, ...]]:
    """Yield the label sequence of every source-to-sink path (DFS order)."""
    sink = g.sink
    if g.source == sink:
        yield ()
        return
    out = g._out
    # Explicit DFS stack of (vertex, next out-edge index); `labels` holds the
    # labels of the edges taken to reach the current frame.
    stack: list[tuple[Terminal, int]] = [(g.source, 0)]
    labels: list[EdgeLabel] = []
    while stack:
        v, idx = stack[-1]
        edges = out[v]
        if idx == len(edges):
            stack.pop()
            if stack:
                labels.pop()
            continue
        stack[-1] = (v, idx + 1)
        head, label = edges[idx]
        if head == sink:
            labels.append(label)
            yield tuple(labels)
            labels.pop()
        else:
            labels.append(label)
            stack.append((head, 0))


def enumerate_paths(g: LabeledDigraph, limit: int = 10**6) -> list:
    """One Monomial per source-to-sink path, as a sorted list.

    Distinct paths always yield distinct monomials here, because an edge set
    that forms a path determines the path.  Raises CapacityError when the
    path count exceeds `limit`; fingerprint verification should be used
    instead at that scale.  Raises DomainError when `limit` is not an int
    or is a bool.
    """
    from .expr import Monomial  # deferred: expr imports labels from this module

    _check_limit(limit)
    n_paths = path_count(g)
    if n_paths > limit:
        raise CapacityError.exceeded(n_paths, "paths", limit)
    paths = sorted([tuple(sorted(labels)) for labels in _iter_path_labels(g)])
    return [Monomial(labels) for labels in paths]


def to_dot(g: LabeledDigraph) -> str:
    """Render the graph as DOT text (deterministic: edges sorted by label)."""
    lines = ["digraph sr {", "  rankdir=LR;"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for tail, head, label in g.edges:
        lines.append(f'  "{tail}" -> "{head}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
