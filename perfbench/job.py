"""One benchmark job, run in its own process.

    python3 perfbench/job.py '<task JSON>'          library job, untraced
    python3 perfbench/job.py --trace '<job JSON>'   CLI or library job, traced

An untraced library job runs one oracle check through the public srexpr API
and prints a one-line JSON verdict.  A wrong expression must give
`"result": "fail"`; an exception escapes and the job exits non-zero.

A traced job times `import srexpr`, installs the span wrappers, runs the job
in this process (a CLI job through `srexpr.cli.main`, with a timing sink in
place of stdout) and prints one JSON record: exit code, error type, spans,
counts and the digest of what the job printed.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from check import OutputScanner
from spans import Tracer, TimingSink


def run_library(task: dict) -> dict:
    """Run one oracle check described by `task`; return its verdict."""
    from srexpr.expr import literal_count
    from srexpr.graph import Terminal, basic, build_sr, induced_subgraph
    from srexpr.oracle import check_exact, check_fingerprint
    from srexpr.vda import SubExprKey, expression, reference_trap_base_variant

    import mutants

    n = task["n"]
    src = Terminal.parse(task.get("src", "b1"))
    dst = Terminal.parse(task["dst"]) if "dst" in task else basic(n)
    key = SubExprKey(src, dst)
    graph = build_sr(n)
    if (src, dst) != (graph.source, graph.sink):
        graph = induced_subgraph(graph, src, dst)
    if task["form"] == "letter-swap":
        e = reference_trap_base_variant(key)
    else:
        e = expression(n, key)
    if task.get("mutation"):
        e = mutants.mutate(e, task["mutation"], graph.labels(), task["pick"])
    verdict: dict = {"literals": literal_count(e)}
    if task["oracle"] == "exact":
        report = check_exact(e, graph)
        verdict["monomials"] = report.detail["expression_monomials"]
    else:
        report = check_fingerprint(e, graph, trials=task["trials"], seed=task["seed"])
        if report.witness is not None:
            verdict["trial"] = report.witness["trial"]
    verdict["result"] = report.result
    return verdict


def run_traced(job: dict) -> dict:
    started = perf_counter()
    tracer = Tracer()
    tracer.record("setup.import", __import__, "srexpr.cli")
    import srexpr.cli

    tracer.install()
    scanner = OutputScanner()
    exit_code, error = None, None
    sys.stdout = TimingSink(tracer, scanner)
    try:
        if job["kind"] == "cli":
            exit_code = srexpr.cli.main(job["argv"])
        else:
            print(json.dumps(run_library(job["task"])))
            exit_code = 0
    except SystemExit as exc:  # argparse rejects a bad command line this way
        exit_code = exc.code
    except Exception as exc:  # a crash is a job result, reported by type
        error = type(exc).__name__
    finally:
        sys.stdout = sys.__stdout__
    finished = perf_counter()
    tracer.measure_roots()
    return {
        "exit": exit_code,
        "error": error,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "out": scanner.summary(),
        "job_s": finished - started,
        "post_s": perf_counter() - finished,
    }


def main(argv: list[str]) -> int:
    if argv[0] == "--trace":
        print(json.dumps(run_traced(json.loads(argv[1]))))
    else:
        print(json.dumps(run_library(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
