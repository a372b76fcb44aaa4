"""Zero-suppressed decision diagrams: families of sets as one shared table.

A ZDD (Minato, DAC 1993; Knuth, TAOCP 4A, section 7.1.4) stores a family of
finite sets of integer variables.  Node 0 is the empty family and node 1 the
family {{}} that holds only the empty set.  Any other node k is a triple
(var, lo, hi): the sets of lo, none of which holds var, together with var
added to each set of hi.  Variables increase from a node to its children, a
node never has hi = 0 (zero suppression), and `node` makes one node per
triple (the unique table), so a family is exactly one node: two families
are equal when their nodes are.  That equality is all the table decides.

`union` and `join` ({s | t : s in f, t in g}) are memoized, and run on an
explicit stack rather than by recursion, so a diagram as deep as it has
variables costs no Python frames.

`diagrams` folds two slot tables into one diagram table, as families of
label sets: an expression's, and its graph's path polynomial
(`oracle.graph_program`), in one algebra of the generator's four
operations (`expr._fold`), in the variable order the graph's table
lists.  It is the exact oracle's decision procedure, and only
`oracle.check_exact` imports this module, when it runs.
"""

from __future__ import annotations

from functools import partial
from math import inf
from types import SimpleNamespace

from .expr import Program, _fold

EMPTY, UNIT = 0, 1

# Tasks on the stack of `ZDD._apply`, besides (op, f, g) for op = _UNION or
# _JOIN: (_MAKE, var, hi, memo, key) makes node (var, <popped lo>, hi), or
# pops hi as well when hi is _POP, and records it under `key` in `memo`;
# (_UNION_TOP,) unites the two results on top of the result stack.
_UNION, _JOIN, _MAKE, _UNION_TOP = 0, 1, 2, 3
_POP = -1


class ZDD:
    """One unique table of diagram nodes, with the memos of its operations.

    `var`, `lo` and `hi`, indexed by node, are all that a node holds: the
    two terminals have variable `inf`, so every variable precedes them."""

    __slots__ = ("var", "lo", "hi", "_unique", "_memos")

    def __init__(self) -> None:
        self.var: list[float] = [inf, inf]
        self.lo = [EMPTY, UNIT]
        self.hi = [EMPTY, UNIT]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._memos: tuple[dict[tuple[int, int], int], ...] = ({}, {})  # union, join

    def node(self, var: int, lo: int, hi: int) -> int:
        """The node of (var, lo, hi), where var precedes every variable of lo
        and hi; lo itself if hi is empty."""
        if hi == EMPTY:
            return lo
        key = (var, lo, hi)
        k = self._unique.get(key)
        if k is None:
            k = self._unique[key] = len(self.var)
            self.var.append(var)
            self.lo.append(lo)
            self.hi.append(hi)
        return k

    def union(self, f: int, g: int) -> int:
        return self._apply(_UNION, f, g)

    def join(self, f: int, g: int) -> int:
        """{s | t : s in f, t in g}: the product of two families of label
        sets, in which x * x is x."""
        return self._apply(_JOIN, f, g)

    def _apply(self, op: int, f: int, g: int) -> int:
        var, lo, hi, memos, node = self.var, self.lo, self.hi, self._memos, self.node
        tasks: list[tuple] = [(op, f, g)]
        results: list[int] = []
        while tasks:
            task = tasks.pop()
            op = task[0]
            if op == _MAKE:
                _, v, h, memo, key = task
                if h == _POP:
                    h = results.pop()
                k = memo[key] = node(v, results.pop(), h)
                results.append(k)
                continue
            if op == _UNION_TOP:
                g = results.pop()
                tasks.append((_UNION, results.pop(), g))
                continue
            _, f, g = task
            if f > g:  # both operations commute
                f, g = g, f
            if op == _UNION:
                if f == EMPTY or f == g:
                    results.append(g)
                    continue
            elif f <= UNIT:  # join: the empty family annihilates, {{}} is the unit
                results.append(EMPTY if f == EMPTY else g)
                continue
            memo = memos[op]
            key = (f, g)
            k = memo.get(key)
            if k is not None:
                results.append(k)
                continue
            vf, vg = var[f], var[g]
            if vf > vg:
                f, g, vf, vg = g, f, vg, vf
            if op == _UNION:
                if vf < vg:  # g holds no set with vf
                    tasks += [(_MAKE, vf, hi[f], memo, key), (_UNION, lo[f], g)]
                else:
                    tasks += [
                        (_MAKE, vf, _POP, memo, key),
                        (_UNION, hi[f], hi[g]),
                        (_UNION, lo[f], lo[g]),
                    ]
            elif vf < vg:  # join: vf is in a set exactly when it comes from f
                tasks += [(_MAKE, vf, _POP, memo, key), (_JOIN, hi[f], g), (_JOIN, lo[f], g)]
            else:  # the sets with vf: hi-hi, hi-lo and lo-hi pairs
                tasks += [
                    (_MAKE, vf, _POP, memo, key),
                    (_UNION_TOP,),
                    (_JOIN, lo[f], hi[g]),
                    (_UNION_TOP,),
                    (_JOIN, hi[f], lo[g]),
                    (_JOIN, hi[f], hi[g]),
                    (_JOIN, lo[f], lo[g]),
                ]
        return results.pop()


def diagrams(program: Program, graph: Program) -> tuple[int, int]:
    """(expression root, graph root): the family of the label sets of the
    monomials of `program`'s expansion, and that of `graph`, the table
    `oracle.graph_program(g)`, whose monomials are the edge sets of `g`'s
    source-to-sink paths, as nodes of one table.

    The variable order is `graph`'s labels reversed, which lists every edge
    before each edge that leaves its head (on a square rhomboid, the order
    of (topological position of the tail, of the head, label)); labels
    outside the graph follow, in label order.  Both are a `_fold` in one
    algebra: a literal is a singleton, the unit {{}}, a sum a union and a
    product a join.  On the graph's table each union and join makes one
    node, as an edge's variable precedes every variable below its head.
    """
    var = {label: i for i, label in enumerate(reversed(graph.labels))}
    for label in sorted(set(program.labels).difference(var)):
        var[label] = len(var)
    table = ZDD()

    def combine(apply, acc, families):
        # From the latest top variable up: a family whose variables all
        # precede the accumulated ones then costs one walk over itself.
        families.sort(key=table.var.__getitem__, reverse=True)
        for family in families:
            acc = apply(acc, family)
        return acc

    h = SimpleNamespace(  # a label is its (letter, index), so `var` takes either
        lit=lambda letter, index: table.node(var[letter, index], EMPTY, UNIT), one=UNIT,
        sum=partial(combine, table.union, EMPTY), product=partial(combine, table.join, UNIT),
    )
    return _fold(program, h), _fold(graph, h)
