"""Seeded wrong expressions with a known verdict: every mutant must `fail`.

Built only with the public `srexpr.expr` API, so a change to the program's
internal representation cannot silently turn a mutant back into a correct
expression.  `pick` is a seed-derived integer that selects which addend or
which literal occurrence is changed.
"""

from __future__ import annotations

from srexpr.expr import Expr, Lit, Prod, Sum, make_product, make_sum

KINDS = ("drop-addend", "dup-addend", "relabel")


def drop_addend(e: Expr, pick: int) -> Expr:
    """Remove one addend of the root sum: the paths through it go missing."""
    children = list(_root_addends(e))
    del children[pick % len(children)]
    return make_sum(children)


def duplicate_addend(e: Expr, pick: int) -> Expr:
    """Repeat one addend of the root sum: its paths are counted twice."""
    children = list(_root_addends(e))
    return make_sum(children + [children[pick % len(children)]])


def relabel(e: Expr, labels, pick: int) -> Expr:
    """Replace one literal occurrence by a different edge label of the graph.

    Every occurrence in a generated expression lies on at least one path, so
    the paths through it lose their label and gain another: the multiset of
    monomials always changes.  Only the ancestors of the chosen occurrence
    are rebuilt; everything else stays shared with `e`.
    """
    counts: dict[int, int] = {}
    target = pick % _count(e, counts)
    original = _nth_literal(e, target, counts).label
    others = [label for label in labels if label != original]
    replacement = Lit(others[(pick // len(labels)) % len(others)])
    return _replace(e, target, replacement, counts)


def mutate(e: Expr, kind: str, labels, pick: int) -> Expr:
    if kind == "drop-addend":
        return drop_addend(e, pick)
    if kind == "dup-addend":
        return duplicate_addend(e, pick)
    if kind == "relabel":
        return relabel(e, labels, pick)
    raise ValueError(f"unknown mutation {kind!r}")


def _root_addends(e: Expr) -> tuple[Expr, ...]:
    if not isinstance(e, Sum):
        raise ValueError("the expression's root is not a sum")
    return e.children


def _count(node: Expr, counts: dict[int, int]) -> int:
    """Tree literal occurrences under `node`, memoised on node identity."""
    stack = [node]
    while stack:
        top = stack[-1]
        if id(top) in counts:
            stack.pop()
            continue
        if isinstance(top, Lit):
            counts[id(top)] = 1
        elif not isinstance(top, (Sum, Prod)):
            counts[id(top)] = 0
        else:
            pending = [c for c in top.children if id(c) not in counts]
            if pending:
                stack.extend(pending)
                continue
            counts[id(top)] = sum(counts[id(c)] for c in top.children)
        stack.pop()
    return counts[id(node)]


def _nth_literal(node: Expr, n: int, counts: dict[int, int]) -> Lit:
    while not isinstance(node, Lit):
        for child in node.children:
            if n < counts[id(child)]:
                node = child
                break
            n -= counts[id(child)]
    return node


def _replace(node: Expr, n: int, replacement: Lit, counts: dict[int, int]) -> Expr:
    if isinstance(node, Lit):
        return replacement
    children = list(node.children)
    for idx, child in enumerate(children):
        if n < counts[id(child)]:
            children[idx] = _replace(child, n, replacement, counts)
            break
        n -= counts[id(child)]
    return make_sum(children) if isinstance(node, Sum) else make_product(children)
