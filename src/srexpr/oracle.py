"""Ground-truth verification of generated expressions.

Two independent oracles:

  * `check_exact` compares the expansion's monomial multiset with the
    graph's path set without enumerating either.  One fold counts each
    side's (monomials, total degree), on the graph (paths, total length);
    when the pairs agree, both sides become one zero-suppressed decision
    diagram (`zdd`), and the check passes when their roots are one node.
    Only a failure enumerates, as int codes, to name its witness: the
    expression first, and the graph only when the expression holds no
    duplicate.  Both sides stay bounded by `limit`, which those counts
    check before any work.
  * `check_fingerprint` compares random evaluations of the expression against
    those of the graph's path polynomial, without ever expanding either.
    Scales to any n.  Each trial works modulo its own prime: the first is
    the given `prime`, which must be a prime above deg <= 2(n-1)
    (`is_prime`), and each later one the next prime above the last.  A
    trial draws its values from the p_i - 1 nonzero residues as 1 + w mod
    (p_i - 1), w uniform below W = 2**(64 * words) for the fewest 64-bit
    words that cover p_i - 1, so no residue is drawn with probability above
    ceil(W/(p_i - 1))/W.  By Schwartz-Zippel it passes a wrong expression E
    with probability at most deg(E - G) * ceil(W/(p_i - 1))/W, G being the
    path polynomial and deg(E - G) at most the larger of the two degrees
    (1.125 deg(E - G)/(p_i - 1) at the default prime, 2**61 - 1), and the
    check does with at most the product of these bounds.  That needs E - G
    nonzero modulo p_i: a difference whose coefficients are all multiples
    of p_i passes the trial.  The trials run in the fewest evaluation
    passes of at most `_LANES` (6) trials, of near-equal width, each pass
    modulo the product of its trials' primes (Chinese remainder theorem).

The graph's path polynomial is a Program too, `graph_program(g)`, so each
oracle reads the graph by a pass it makes over the expression.

Both oracles range over the union of the graph's and the expression's labels,
so an edge outside the graph is one more variable and not a separate failure.
Random assignments come from a seeded split-mix generator (same seed, same
sequence, on every platform) and exclude 0 so absent literals cannot hide
inside products.
"""

from __future__ import annotations

from collections import Counter
from itertools import count, islice
from math import prod
from operator import mul
from types import SimpleNamespace
from typing import Iterator, Mapping

from .errors import CapacityError, DomainError
from .expr import (
    DEFAULT_PRIME,
    EdgeLabel,
    Expr,
    Monomial,
    Program,
    _COUNT,
    _check_modulus,
    _fold,
    _shape,
    compile_program,
    evaluate,
)
from .graph import LabeledDigraph, _check_limit, _without_gc, path_length_range

_MASK64 = (1 << 64) - 1

# The most trials that share one evaluation pass.  A pass over both tables of
# SR(251) (14,602 slots in the expression's), per trial, best of 7 on a
# 2-vCPU VM (Python 3.11):
#
#   lanes         1     2     3     4     5     6     7     8    10    12
#   ms a trial  8.0   4.6   3.7   3.2   3.1   3.0   3.1   3.2   3.4   3.7
#
# and at SR(982) 45 ms at one lane, 18.5 at 5, 18.0 at 6 and 20.4 at 10:
# past 6 the wider numbers cost more than the shared loop saves.
# `check_fingerprint` splits its trials into the fewest passes of at most
# this many, of near-equal width (10 trials as 5 + 5, 25 as five of 5).
_LANES = 6

# The most trials a fingerprint check runs: each keeps a row of its transcript.
MAX_TRIALS = 10_000

# Miller-Rabin with the first thirteen prime bases is exact below this bound
# (the least composite that passes all thirteen); the first twelve are exact
# only below 318665857834031151167461.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Exact for every n below 3.3 * 10**24; larger n raise DomainError rather
    than get a probabilistic answer.
    """
    if n >= _MILLER_RABIN_LIMIT:
        raise DomainError(
            f"cannot certify {n} as prime: the test is exact only below {_MILLER_RABIN_LIMIT}"
        )
    if n < 2:
        return False
    for base in _MILLER_RABIN_BASES:
        if n % base == 0:
            return n == base
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class SplitMix64:
    """Deterministic 64-bit mixing generator (split-mix construction).

    The contract is reproducibility: the same seed yields the same sequence
    everywhere, so verification transcripts can be replayed exactly.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def field_element(self, prime: int) -> int:
        """A nonzero element of Z_prime: 1 + w mod (prime - 1), where w is
        made of the fewest 64-bit words whose range W = 2**(64 * words)
        covers prime - 1, one word up to prime 2**64 + 1.  So no residue is
        drawn with probability above ceil(W / (prime - 1)) / W.  A modulus
        that `Program.run` refuses raises DomainError."""
        _check_modulus(prime)
        w, span = self.next_u64(), 1 << 64
        while span < prime - 1:
            w, span = w << 64 | self.next_u64(), span << 64
        return 1 + w % (prime - 1)

    def field_elements(self, prime: int, count: int) -> list[int]:
        """`count` calls of `field_element(prime)`, in one loop: the same
        values, and the generator left in the same state.  The modulus is
        checked once; a prime past 2**64 + 1 takes `field_element` a draw."""
        _check_modulus(prime)
        if prime - 1 > 1 << 64:
            return [self.field_element(prime) for _ in range(count)]
        state, modulus, values = self._state, prime - 1, []
        for _ in range(count):  # `next_u64`, inlined
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            values.append(1 + (z ^ (z >> 31)) % modulus)
        self._state = state
        return values


def graph_program(g: LabeledDigraph | Program) -> Program:
    """The path polynomial of `g` (a Program is returned as it is), by one
    backward pass over topological order: the sink is the unit, an edge into
    it is its literal, and any other vertex v is the sum, over its out-edges
    (v, w, l), of the product (l, w's slot), or that term alone when it is
    the only one.  Every slot is distinct, so none is interned.

    The table's labels are in the order the pass meets them, so reversed
    they list every edge before each edge that leaves its head: the
    variable order `zdd.diagrams` reads."""
    if isinstance(g, Program):
        return g
    labels: list[EdgeLabel] = []
    is_product = bytearray()
    children: list[tuple[int, ...]] = []
    slot = {g.sink: -1}
    for v in reversed(g.topological_order[:-1]):  # the sink comes last
        terms = []
        for head, label in g.out_edges(v):
            labels.append(label)
            leaf = -1 - len(labels)
            if head == g.sink:
                terms.append(leaf)
            else:
                terms.append(len(children))
                children.append((leaf, slot[head]))
                is_product.append(1)
        if len(terms) > 1:
            children.append(tuple(terms))
            is_product.append(0)
        slot[v] = terms[0] if len(terms) == 1 else len(children) - 1
    return Program(tuple(labels), bytes(is_product), tuple(children), slot[g.source])


def dp_eval(
    g: LabeledDigraph | Program, assignment: Mapping[EdgeLabel, int], prime: int = DEFAULT_PRIME
) -> int:
    """Value of the path polynomial of `g` modulo `prime`, without expanding
    it: one run of `graph_program(g)`, which takes a graph or its table.
    A modulus that `evaluate` refuses raises DomainError."""
    return graph_program(g).run(assignment, prime)


class VerificationReport:
    """Outcome of one oracle run; a failure always carries a witness.

    Its fields are its attributes, in the order `__init__` sets them:
    reports are equal when all their fields are, and the repr lists them."""

    def __init__(
        self,
        mode: str,  # "exact" | "fingerprint"
        result: str,  # "pass" | "fail"
        trials: int | None = None,
        seed: int | None = None,
        prime: int | None = None,
        witness: dict | None = None,
        detail: dict | None = None,
    ) -> None:
        self.mode = mode
        self.result = result
        self.trials = trials
        self.seed = seed
        self.prime = prime
        self.witness = witness
        self.detail = {} if detail is None else detail

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"VerificationReport({fields})"

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_json(self) -> dict:
        obj = {
            "mode": self.mode,
            "result": self.result,
            "trials": self.trials,
            "seed": self.seed,
            "prime": self.prime,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj

    def summary(self) -> str:
        if self.mode == "exact":
            text = (
                f"exact {self.result}: {self.detail.get('expression_monomials')} expression "
                f"monomials vs {self.detail.get('graph_paths')} graph paths"
            )
        else:
            text = f"fingerprint {self.result}: {self.trials} trials, seed {self.seed}"
        if self.witness is not None:
            text += f"; witness: {self.witness}"
        return text


# The degree algebra: a literal has degree 1 and the unit 0, a product adds
# its factors' degrees and a sum takes the largest (0 for an empty sum).
_DEGREE = SimpleNamespace(lit=_COUNT.lit, one=0, sum=lambda ds: max(ds, default=0), product=sum)


def _degree(program: Program) -> int:
    """The largest total degree of a monomial of the expansion (0 for the
    unit), by a fold in `_DEGREE`.  On a graph's table this is the longest
    path's length."""
    return _fold(program, _DEGREE)


def _code_product(lists: list[list[int]]) -> list[int]:
    acc = [0]  # the code of the unit
    for part in lists:
        acc = [x + y for x in acc for y in part]
    return acc


def _expression_codes(program: Program, code: Mapping[EdgeLabel, int]) -> list[int]:
    """The code of every monomial of the expansion, with multiplicity."""
    h = SimpleNamespace(  # per call: its unit is a list; `code` takes a label as (letter, index)
        lit=lambda letter, index: [code[letter, index]], one=[0],
        sum=lambda lists: [x for part in lists for x in part], product=_code_product,
    )
    return _fold(program, h)


@_without_gc
def check_exact(
    e: Expr | Program, g: LabeledDigraph | Program, limit: int = 10**6
) -> VerificationReport:
    """Pass iff the expansion of `e` equals the path-monomial multiset of `g`
    and contains no duplicate monomials.

    Decided without enumerating either side.  `_shape` folds the
    expression's table to (monomials, total degree) and `graph_program(g)`,
    which never looks at `e`, to (paths, total length).  Only when the
    pairs are equal does `zdd.diagrams` put the expansion and the paths in
    one zero-suppressed decision diagram, as families of label sets (the
    variable order is the graph table's labels reversed, every edge before
    the edges that leave its head; labels outside the graph follow, in
    label order), and the check passes when the two roots are one node.
    That rule is sound: a union merges duplicates and a join collapses
    x * x to x, so the expression's family is the set of its monomials'
    label sets.  When that is the family of the graph's n distinct paths
    and the expansion has n monomials, each has a label set of its own, so
    none is a duplicate; when the total degree is also the total length,
    none repeats a label.

    Only a failure enumerates, to name its witness, by one pass over each
    table: the expression's, and the graph's only when the expansion holds
    no duplicate, which needs no graph side.  A monomial is one int: over
    the sorted union of both sides' labels, label i adds 1 to the i-th
    field of `width` bits, where `width` is the bit length of the largest
    degree in the expansion (at least 1, for the graph's squarefree
    paths).  No field can carry
    into the next, so equal codes mean equal multisets of labels, repeated
    labels included; a bitmask would merge b1 with b1*b1.  The witness is
    the least monomial, in Monomial order, among the duplicates or else the
    one-sided surplus, and only it is decoded back into a Monomial.

    Raises CapacityError when either side would exceed `limit` monomials,
    a pass as well as a failure, the graph's paths before `e` is lowered,
    and DomainError, before any work, when `limit` is not an int or is a
    bool.
    """
    _check_limit(limit)
    from .zdd import diagrams  # only an exact check needs it; every run would compile it

    graph = graph_program(g)
    n_paths, total_length = _shape(graph)
    if n_paths > limit:
        raise CapacityError.exceeded(n_paths, "paths", limit, "use the fingerprint check")
    program = compile_program(e)
    n_monomials, total_degree = _shape(program)
    if n_monomials > limit:
        raise CapacityError.exceeded(n_monomials, "monomials", limit)
    detail = {"expression_monomials": n_monomials, "graph_paths": n_paths}
    if (n_monomials, total_degree) == (n_paths, total_length):
        expression_root, graph_root = diagrams(program, graph)
        if expression_root == graph_root:
            return VerificationReport("exact", "pass", detail=detail)

    width = max(_degree(program), 1).bit_length()
    labels = sorted(set(graph.labels).union(program.labels))
    code = {label: 1 << (width * i) for i, label in enumerate(labels)}
    expanded = _expression_codes(program, code)
    distinct = set(expanded)
    if len(distinct) < len(expanded):
        side = "duplicate-in-expression"
        surplus = [m for m, count in Counter(expanded).items() if count > 1]
    else:
        paths = set(_expression_codes(graph, code))  # distinct paths have distinct edge sets
        if distinct == paths:  # not reached while the diagram is right: enumeration has the last word
            return VerificationReport("exact", "pass", detail=detail)
        # Neither side repeats a code, so a side's surplus is a set difference.
        side, surplus = "expression-only", distinct - paths
        if not surplus:
            side, surplus = "graph-only", paths - distinct
    witness = {"monomial": str(_least(list(surplus), labels, width)), "side": side}
    return VerificationReport("exact", "fail", witness=witness, detail=detail)


def _least(codes: list[int], labels: list[EdgeLabel], width: int) -> Monomial:
    """The least of the monomials coded by `codes`, in Monomial order (label
    sequences compared item by item), without decoding the others: take the
    lowest label any code holds, keep the codes that hold it and remove one
    copy from each, until a code is left empty."""
    factors: list[EdgeLabel] = []
    while 0 not in codes:
        lowest_bit = min(c & -c for c in codes)
        i = (lowest_bit.bit_length() - 1) // width
        unit = 1 << (width * i)
        through_i = (unit << width) - 1  # fields 0..i; no code holds a label below i
        codes = [c - unit for c in codes if c & through_i]
        factors.append(labels[i])
    return Monomial(tuple(factors))


def _assignment_digest(names: list[str], values: list[int]) -> str:
    """Digest of an assignment: `names[i]` is "<label>=" of the i-th label in
    sorted order and `values[i]` its value."""
    import hashlib  # only a fingerprint check needs it; every run would pay the import

    payload = ",".join(map(str.__add__, names, map(str, values)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def check_fingerprint_parameters(trials: int, prime: int, degree: int) -> None:
    """Raise DomainError unless `trials` is an int from 1 to `MAX_TRIALS` and
    `prime` an int, neither a bool, and `prime` a prime greater than
    `degree`, the path polynomial's degree (2(n-1) in SR(n)), below which
    the false-pass bound is meaningless.  `prime` is the least trial
    modulus: every later trial works modulo a larger prime, so each exceeds
    `degree` as well."""
    if type(trials) is not int:
        raise DomainError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise DomainError(f"trials must be <= {MAX_TRIALS}, got {trials}")
    if type(prime) is not int:
        raise DomainError(f"the modulus must be an int, got {prime!r}")
    if not is_prime(prime):
        raise DomainError(f"the modulus {prime} is not prime")
    if prime <= degree:
        raise DomainError(f"the prime {prime} must exceed the path-polynomial degree {degree}")


def _primes_from(p: int) -> Iterator[int]:
    """`p`, then each next prime above it, found as it is asked for."""
    while True:
        yield p
        p += 1
        while not is_prime(p):
            p += 1


@_without_gc
def check_fingerprint(
    e: Expr | Program,
    g: LabeledDigraph | Program,
    trials: int = 10,
    seed: int = 42,
    prime: int = DEFAULT_PRIME,
) -> VerificationReport:
    """Randomized identity test of `e` against the path-sum polynomial of `g`.

    Trial i works modulo its own prime p_i: p_0 is `prime` and p_(i+1) the
    least prime above p_i.  It draws a fresh nonzero assignment modulo p_i
    for every label of `g` or `e` (in sorted order, from a per-trial
    generator seeded off the master seed) and compares the values of the
    two tables, `compile_program(e)` and `graph_program(g)`, modulo p_i.
    The trials are split into the fewest batches of at most `_LANES`, of
    near-equal width (10 trials as 5 + 5, 25 as five of 5), and a batch
    shares one pass over each table: the Chinese remainder theorem combines
    each label's values into one modulo the product M of the batch's
    primes, both tables run once modulo M, and trial i's value is the
    result modulo p_i.  Primes and draws are made a batch at a time, so a
    check that fails early pays for no later batch.
    The transcript of every trial is kept in the report detail, so identical
    (seed, trials, prime) yield identical reports.  When E - G, the
    difference of the two polynomials, is nonzero modulo every p_i, a pass
    is false with probability at most the product of deg(E - G) *
    ceil(W/(p_i - 1))/W (Schwartz-Zippel, over the p_i - 1 nonzero
    residues, none drawn with probability above ceil(W/(p_i - 1))/W, where
    W = 2**(64 * words) is the range of the words `field_element` draws),
    and deg(E - G) is at most the larger of the two degrees; a difference
    whose coefficients are all multiples of p_i passes trial i.  An edge
    outside `g` is one more variable: like any other difference between
    the polynomials it fails the test, unless every monomial that holds it
    vanishes.

    `g` may be a graph or its table, `graph_program(g)`.  Raises
    DomainError as `check_fingerprint_parameters` does, with the longest
    path length of `g` as the degree (read off a table by `_degree`), for a
    seed not an int, and when a trial's prime would lie past `is_prime`'s
    exact range.
    """
    if type(seed) is not int:
        raise DomainError(f"the seed must be an int, got {seed!r}")
    longest = _degree(g) if isinstance(g, Program) else path_length_range(g)[1]
    check_fingerprint_parameters(trials, prime, longest)
    program = compile_program(e)
    graph = graph_program(g)
    labels = sorted(set(graph.labels).union(program.labels))
    names = [f"{letter}{index}=" for letter, index in labels]
    master = SplitMix64(seed)
    transcript: list[dict] = []
    witness = None
    moduli = _primes_from(prime)
    width = -(-trials // -(-trials // _LANES))  # the fewest passes, of near-equal width
    for start in range(0, trials, width):
        primes = list(islice(moduli, min(width, trials - start)))
        seeds = [master.next_u64() for _ in primes]
        draws = [SplitMix64(s).field_elements(p_i, len(labels)) for s, p_i in zip(seeds, primes)]
        modulus = prod(primes)
        # c_i is 1 modulo p_i and 0 modulo every other prime of the batch.
        crt = [modulus // p_i * pow(modulus // p_i, -1, p_i) for p_i in primes]
        combined = [sum(map(mul, column, crt)) % modulus for column in zip(*draws)]
        assignment = dict(zip(labels, combined))
        expr_value = evaluate(program, assignment, modulus)
        graph_value = dp_eval(graph, assignment, modulus)
        for trial, trial_seed, p_i, values in zip(count(start), seeds, primes, draws):
            row = {
                "trial": trial,
                "trial_seed": trial_seed,
                "assignment_digest": _assignment_digest(names, values),
                "expression_value": expr_value % p_i,
                "graph_value": graph_value % p_i,
            }
            transcript.append(row)
            if row["expression_value"] != row["graph_value"]:
                witness = row
                break
        if witness is not None:
            break
    result = "pass" if witness is None else "fail"
    return VerificationReport(
        "fingerprint",
        result,
        trials=trials,
        seed=seed,
        prime=prime,
        witness=witness,
        detail={"transcript": transcript},
    )
