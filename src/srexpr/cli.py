"""Command-line front end.

Subcommands: gen (factored expression / literal count), verify (oracle run),
table (comparison against the published reference columns), closed-form
(closed form vs recurrence vs generation), dot (graph export).

Exit codes: 0 success or verification pass, 1 verification or consistency
failure, 2 usage or input error (any SrexprError, such as --trials 0 or
above 10000, or a --prime, the least trial modulus, that is not a prime
above 2(n-1)), 3 an unexpected internal error, with its traceback on
stderr, 141 the reader closed the output pipe early (the status a shell
reports for a filter that SIGPIPE ended).  All output is deterministic for
fixed flags; JSON payloads carry "schema_version": 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import complexity
from . import vda
from .errors import CapacityError, SrexprError
from .expr import DEFAULT_PRIME, _write_json, _write_text
from .graph import Terminal, basic, build_sr, induced_subgraph, sr_path_count, to_dot
from .oracle import MAX_TRIALS, check_exact, check_fingerprint, check_fingerprint_parameters

SCHEMA_VERSION = 1


def _parse_terminal(text: str) -> Terminal:
    try:
        return Terminal.parse(text)
    except ValueError as exc:
        raise SrexprError(str(exc)) from None


def _parse_terminal_pair(text: str) -> tuple[Terminal, Terminal]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SrexprError(f"expected SRC,DST (e.g. b1,u3), got {text!r}")
    return _parse_terminal(parts[0]), _parse_terminal(parts[1])


def _json_text(payload: dict) -> str:
    import json  # only --output json needs it; every other run would pay the import

    return json.dumps(payload, indent=2)


def _emit_json(payload: dict) -> None:
    print(_json_text(payload))


def cmd_gen(args: argparse.Namespace) -> int:
    n = args.n
    if args.sub is not None:
        src, dst = _parse_terminal_pair(args.sub)
    else:
        vda.check_size(n)
        src, dst = basic(1), basic(n)
    key = vda.SubExprKey(src, dst)
    count = vda.count_literals(n, key, rounding=args.rounding)
    if not args.count_only:
        program = vda.program(n, key, rounding=args.rounding)
    separator = "" if args.juxtapose else "*"
    if args.output == "json":
        payload: dict = {"schema_version": SCHEMA_VERSION, "n": n, "literals": count}
        if args.sub is not None:
            payload["source"] = str(src)
            payload["sink"] = str(dst)
        if args.count_only:
            _emit_json(payload)
        else:
            # The expression and the AST go in last, each streamed into the
            # payload's text rather than held whole: the layout is
            # json.dumps(indent=2).  The expression is written as it is, with
            # no escaping: its characters are label letters a-e, digits and
            # "+*()", which a JSON string holds unescaped.
            write = sys.stdout.write
            write(_json_text(payload)[: -len("\n}")])
            write(',\n  "expression": "')
            _write_text(program, write, separator)
            write('",\n  "ast": ')
            _write_json(program, write, "  ")
            write("\n}\n")
    elif args.count_only:
        print(count)
    else:
        _write_text(program, sys.stdout.write, separator)
        print(f"\nliterals: {count}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.mode == "fingerprint":
        # The longest path of SR(n) has 2(n-1) edges; reject bad flags before
        # paying for the graph and the expression.
        check_fingerprint_parameters(args.trials, args.prime, 2 * (args.n - 1))
    elif sr_path_count(args.n, stop_above=args.limit) > args.limit:
        # The recurrence stops at the first count past the limit, so even a
        # huge n is refused before the graph and the expression are built.
        raise CapacityError(
            f"SR({args.n}) has more paths than the limit {args.limit}; use the fingerprint check"
        )
    vda.check_size(args.n)
    program = vda.program(args.n, vda.SubExprKey(basic(1), basic(args.n)), args.rounding)
    graph = build_sr(args.n)
    if args.mode == "exact":
        report = check_exact(program, graph, limit=args.limit)
    else:
        report = check_fingerprint(
            program, graph, trials=args.trials, seed=args.seed, prime=args.prime
        )
    if args.output == "json":
        _emit_json({"schema_version": SCHEMA_VERSION, **report.to_json()})
    else:
        print(report.summary())
    return 0 if report.passed else 1


def cmd_table(args: argparse.Namespace) -> int:
    first, last = args.start, args.end
    known = sorted(complexity.REFERENCE_COMPARISON_TABLE)
    if not (known[0] <= first <= last <= known[-1]):
        raise SrexprError(
            f"table rows must satisfy {known[0]} <= from <= to <= {known[-1]}"
        )
    rows = []
    agree = True
    for n in range(first, last + 1):
        fda, cda, ifda, reference_vda = complexity.REFERENCE_COMPARISON_TABLE[n]
        from_recurrence = complexity.sr_count(n)
        from_generation = vda.count_literals(n, vda.SubExprKey(basic(1), basic(n)))
        agree = agree and from_recurrence == from_generation == reference_vda
        rows.append(
            {
                "n": n,
                "FDA": fda,
                "CDA": cda,
                "IFDA": ifda,
                "1-VDA-recurrence": from_recurrence,
                "1-VDA-generated": from_generation,
            }
        )
    if args.output == "json":
        _emit_json({"schema_version": SCHEMA_VERSION, "rows": rows, "agree": agree})
    else:
        header = ("n", "FDA", "CDA", "IFDA", "1-VDA-recurrence", "1-VDA-generated")
        widths = [max(len(h), 5) for h in header]
        print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(row[h]).rjust(w) for h, w in zip(header, widths)))
    return 0 if agree else 1


def cmd_closed_form(args: argparse.Namespace) -> int:
    if not 2 <= args.k < vda.MAX_SIZE.bit_length():
        raise SrexprError(f"--k must be >= 2 and < {vda.MAX_SIZE.bit_length()}, got {args.k}")
    n = 1 << args.k
    from_formula = complexity.closed_form(n)
    from_recurrence = (
        complexity.sr_count(n),
        complexity.single_leaf_count(n),
        complexity.dipterous_count(n),
    )
    from_generation = complexity.generated_counts(n)
    match = from_formula == from_recurrence == from_generation
    names = ("sr", "single_leaf", "dipterous")
    if args.output == "json":
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "n": n,
                "closed_form": dict(zip(names, from_formula)),
                "recurrence": dict(zip(names, from_recurrence)),
                "generated": dict(zip(names, from_generation)),
                "match": match,
            }
        )
    else:
        print(f"n = {n}")
        print(f"{'family':>12}  {'closed-form':>12}  {'recurrence':>12}  {'generated':>12}")
        for idx, name in enumerate(names):
            print(
                f"{name:>12}  {from_formula[idx]:>12}  {from_recurrence[idx]:>12}  "
                f"{from_generation[idx]:>12}"
            )
        print("match" if match else "MISMATCH")
    return 0 if match else 1


def cmd_dot(args: argparse.Namespace) -> int:
    if args.sub is None:
        graph = build_sr(args.n)
    else:
        src, dst = _parse_terminal_pair(args.sub)
        # The pair rule of `gen --sub`, checked before the graph is built.
        vda._validate(args.n, vda.SubExprKey(src, dst), "ceil")
        graph = induced_subgraph(build_sr(args.n), src, dst)
    sys.stdout.write(to_dot(graph))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srexpr",
        description=(
            "Factored algebraic expressions of square-rhomboid st-dags via "
            "one-vertex decomposition, with independent verification oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("text", "json"), default="text")

    p_gen = sub.add_parser("gen", help="generate the factored expression of SR(n)")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--count-only", action="store_true", help="print only the literal count")
    p_gen.add_argument(
        "--sub",
        metavar="SRC,DST",
        help="subexpression between two terminals, e.g. b1,u3 (basic/upper/lower + index)",
    )
    p_gen.add_argument("--rounding", choices=("ceil", "floor"), default="ceil")
    p_gen.add_argument("--juxtapose", action="store_true", help="print products without '*'")
    add_output(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="check the generated expression against the graph")
    p_verify.add_argument("n", type=int)
    p_verify.add_argument("--mode", choices=("exact", "fingerprint"), default="exact")
    p_verify.add_argument("--trials", type=int, default=10, help=f"from 1 to {MAX_TRIALS}")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument(
        "--prime",
        type=int,
        default=DEFAULT_PRIME,
        help="the least trial modulus: trial 0 works modulo it, each later trial "
        "modulo the next prime",
    )
    p_verify.add_argument("--limit", type=int, default=10**6)
    p_verify.add_argument("--rounding", choices=("ceil", "floor"), default="ceil")
    add_output(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="reference comparison table plus computed columns")
    p_table.add_argument("--from", dest="start", type=int, default=4)
    p_table.add_argument("--to", dest="end", type=int, default=10)
    add_output(p_table)
    p_table.set_defaults(func=cmd_table)

    p_closed = sub.add_parser(
        "closed-form", help="closed form vs recurrence vs generation at n = 2**k"
    )
    p_closed.add_argument("--k", type=int, required=True)
    add_output(p_closed)
    p_closed.set_defaults(func=cmd_closed_form)

    p_dot = sub.add_parser("dot", help="DOT export of SR(n) or a subgraph")
    p_dot.add_argument("n", type=int)
    p_dot.add_argument("--sub", metavar="SRC,DST")
    p_dot.set_defaults(func=cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so an error on the last buffered write is caught here
        return status
    except BrokenPipeError:
        # The reader closed the pipe (`srexpr gen 64 | head`): the exit status
        # a shell reports for a filter that SIGPIPE ended, and stdout pointed
        # at the null device so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SrexprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only a crash needs it; every run would pay the import

        traceback.print_exc()
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
