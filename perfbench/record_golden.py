"""Record `golden.json`: the expected output of every job a plan can draw.

    python3 perfbench/record_golden.py

Run it only at a commit whose outputs are trusted; the file it writes was
recorded at the seed commit of this benchmark.  It runs each CLI job of the
catalogue once and keeps digests, literal counts and short texts.  Before
writing it cross-checks what it recorded: the counts against the paper's
1-VDA column (`REFERENCE_COMPARISON_TABLE`, n = 4..10), the recurrence and
the closed forms at n = 2**k; each JSON expression against the text output;
every family subexpression against the exact oracle at every position a plan
can draw.  It writes nothing if any check fails.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from check import OutputScanner  # noqa: E402
from run import ByteSink, child_env, run_process  # noqa: E402


class RecordError(Exception):
    pass


def cli(*argv) -> tuple[dict, OutputScanner]:
    scanner = OutputScanner()
    result = run_process([sys.executable, "-m", "srexpr.cli", *map(str, argv)], scanner, child_env())
    if result["exit"] not in (0, 1) or result["error"]:
        raise RecordError(f"srexpr {' '.join(map(str, argv))} failed: {result}")
    return result, scanner


def cli_text(*argv) -> str:
    collected = ByteSink()
    result = run_process([sys.executable, "-m", "srexpr.cli", *map(str, argv)], collected, child_env())
    if result["exit"] != 0:
        raise RecordError(f"srexpr {' '.join(map(str, argv))} exited {result['exit']}")
    return collected.data.decode("utf-8")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise RecordError(message)


def record() -> dict:
    from srexpr import complexity
    from srexpr.expr import literal_count
    from srexpr.graph import Terminal, build_sr, induced_subgraph, path_count
    from srexpr.oracle import check_exact
    from srexpr.vda import SubExprKey, expression

    wanted = workloads.catalogue()
    golden: dict = {"text": {}, "json": {}, "count": {}, "sub": {}, "closed_form": {}}

    for n in wanted["count"]:
        count = int(cli_text("gen", n, "--count-only"))
        expect(count == complexity.sr_count(n), f"gen {n} --count-only disagrees with sr_count")
        golden["count"][str(n)] = count
    for n in range(4, 11):
        expect(
            golden["count"][str(n)] == complexity.REFERENCE_COMPARISON_TABLE[n][3],
            f"literal count at n={n} differs from the paper's 1-VDA column",
        )
    for n in wanted["count"]:
        if n >= 4 and n & (n - 1) == 0:
            expect(golden["count"][str(n)] == complexity.closed_form(n)[0], f"closed form at n={n}")

    for n in wanted["text"]:
        _, scanner = cli("gen", n)
        out = scanner.summary()
        literals = int(out["tail"].rstrip("\n").rsplit("literals: ", 1)[1])
        expect(literals == complexity.sr_count(n), f"gen {n} literal line disagrees with sr_count")
        golden["text"][str(n)] = {"sha256": out["sha256"], "literals": literals}

    for n in wanted["json"]:
        _, scanner = cli("gen", n, "--output", "json")
        out = scanner.summary()
        expression_text = cli_text("gen", n).split("\n", 1)[0]
        expect(
            out["expression_sha256"] == hashlib.sha256(expression_text.encode()).hexdigest(),
            f"gen {n} --output json expression differs from the text output",
        )
        expect(out["literals"] == complexity.sr_count(n), f"gen {n} --output json literals")
        golden["json"][str(n)] = {"expression_sha256": out["expression_sha256"], "literals": out["literals"]}

    for n, pair in wanted["sub"]:
        _, scanner = cli("gen", n, "--sub", pair)
        out = scanner.summary()
        literals = int(out["tail"].rstrip("\n").rsplit("literals: ", 1)[1])
        golden["sub"][f"{n} {pair}"] = {"sha256": out["sha256"], "literals": literals}

    for k in wanted["closed_form"]:
        result, scanner = cli("closed-form", "--k", k)
        expect(result["exit"] == 0 and "match" in scanner.summary()["head"], f"closed-form --k {k}")
        golden["closed_form"][str(k)] = scanner.summary()["sha256"]

    result, scanner = cli("table")
    expect(result["exit"] == 0, "table: recurrence, generation and reference disagree")
    golden["table"] = scanner.summary()["sha256"]

    golden["verify_exact"] = {}
    for n in wanted["verify_exact"]:
        text = cli_text("verify", n)
        expect(text.startswith("exact pass: "), f"verify {n}: {text!r}")
        golden["verify_exact"][str(n)] = text

    golden["family"] = {}
    for family, size in wanted["family"]:
        seen = set()
        for n in workloads.EXACT_AMBIENT:
            graph = build_sr(n)
            for pair in workloads.family_pairs(family, size, n):
                src, dst = (Terminal.parse(t) for t in pair)
                e = expression(n, SubExprKey(src, dst))
                sub = induced_subgraph(graph, src, dst)
                expect(check_exact(e, sub).passed, f"{family} {src}->{dst} fails the exact oracle")
                seen.add((literal_count(e), path_count(sub)))
        expect(len(seen) == 1, f"{family}/{size}: counts depend on the position: {seen}")
        literals, paths = seen.pop()
        golden["family"][f"{family}/{size}"] = {"literals": literals, "paths": paths}

    golden["recorded_with"] = {"python": platform.python_version()}
    return golden


def main() -> int:
    try:
        golden = record()
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
