"""Tests of the benchmark itself (standard library only).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from check import OutputScanner, check_job  # noqa: E402
from spans import Tracer, covered_time, layer_totals, self_times  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())


def scanned(text: str, chunk: int = 7) -> dict:
    scanner = OutputScanner()
    data = text.encode()
    for i in range(0, len(data), chunk):
        scanner.feed(data[i : i + chunk])
    return scanner.summary()


def result_of(text: str, exit_code: int = 0) -> dict:
    return {"exit": exit_code, "error": None, "timed_out": False, "out": scanned(text)}


class PlanTest(unittest.TestCase):
    def test_plan_is_a_pure_function_of_the_seed(self):
        for name in workloads.NAMES:
            random.seed(1)
            first = workloads.plan(name, 12345, GOLDEN)
            random.seed(2)
            again = workloads.plan(name, 12345, GOLDEN)
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, workloads.plan(name, 12346, GOLDEN), name)

    def test_every_job_has_expectations(self):
        for name in workloads.NAMES:
            for seed in range(20):
                for job in workloads.plan(name, seed, GOLDEN):
                    self.assertIn("exit", job["expect"], job["id"])
                    self.assertGreater(len(job["expect"]), 1, job["id"])

    def test_golden_covers_the_catalogue(self):
        wanted = workloads.catalogue()
        for key in ("text", "json", "count", "closed_form", "verify_exact"):
            self.assertEqual(sorted(map(int, GOLDEN[key])), wanted[key], key)
        self.assertEqual(sorted(GOLDEN["sub"]), sorted(f"{n} {p}" for n, p in wanted["sub"]))


class SpanArithmeticTest(unittest.TestCase):
    # id, parent, name, start, end, busy
    SPANS = [
        [0, None, "cli.main", 0.0, 10.0, 10.0],
        [1, 0, "vda.generate", 1.0, 4.0, 3.0],
        [2, 0, "oracle.check_exact", 5.0, 9.0, 4.0],
        [3, 2, "expr.iter_expansion", 5.0, 8.0, 1.0],  # a generator: busy < end - start
        [4, 3, "expr.evaluate", 5.5, 5.75, 0.25],
        [5, None, "setup.import", -1.0, -0.5, 0.5],
    ]

    def test_self_time_is_busy_minus_children(self):
        own = self_times(self.SPANS)
        self.assertEqual(own, {0: 3.0, 1: 3.0, 2: 3.0, 3: 0.75, 4: 0.25, 5: 0.5})
        self.assertAlmostEqual(sum(own.values()), covered_time(self.SPANS))

    def test_layer_totals_sum_calls_busy_and_self_time(self):
        totals = layer_totals(self.SPANS + [[6, None, "cli.main", 11.0, 12.0, 1.0]])
        self.assertEqual(totals["cli.main"], {"calls": 2, "s": 11.0, "self_s": 4.0})
        self.assertEqual(totals["expr.iter_expansion"], {"calls": 1, "s": 1.0, "self_s": 0.75})

    def test_recursion_through_a_wrapper_records_the_outermost_call(self):
        tracer = Tracer()

        def depth(n):
            return 0 if n == 0 else 1 + traced(n - 1)

        traced = tracer.wrap("expr.to_json", depth)
        self.assertEqual(traced(5), 5)
        self.assertEqual([span[2] for span in tracer.spans], ["expr.to_json"])


class CheckerTest(unittest.TestCase):
    TEXT = "b1*b2+e1*e2*b2\nliterals: 5\n"

    def test_accepts_the_recorded_output(self):
        expect = {"exit": 0, "sha256": hashlib.sha256(self.TEXT.encode()).hexdigest(), "literals": 5}
        self.assertIsNone(check_job(expect, result_of(self.TEXT)))

    def test_rejects_a_corrupted_text_digest(self):
        expect = {"exit": 0, "sha256": hashlib.sha256(self.TEXT.encode()).hexdigest()}
        corrupted = self.TEXT.replace("e2", "e3")
        self.assertIn("digest", check_job(expect, result_of(corrupted)))

    def test_rejects_a_wrong_literal_count(self):
        self.assertIn("literal count", check_job({"exit": 0, "literals": 6}, result_of(self.TEXT)))
        self.assertIn("literal count", check_job({"exit": 0, "literals": 8}, result_of("7\n")))

    def test_rejects_a_pass_on_a_mutant(self):
        verdict = json.dumps({"literals": 40, "result": "pass"}) + "\n"
        self.assertIn("verdict", check_job({"exit": 0, "verdict": "fail"}, result_of(verdict)))
        failed = json.dumps({"literals": 40, "result": "fail"}) + "\n"
        self.assertIsNone(check_job({"exit": 0, "verdict": "fail"}, result_of(failed)))

    def test_rejects_crashes_timeouts_and_exit_codes(self):
        crashed = {"exit": 1, "error": "UnboundLabelError", "timed_out": False, "out": scanned("")}
        self.assertEqual(check_job({"exit": 0}, crashed), "crashed with UnboundLabelError")
        self.assertEqual(check_job({"exit": 0}, {**crashed, "error": None, "timed_out": True}), "timed out")
        self.assertIn("exit code", check_job({"exit": 0}, result_of("", exit_code=2)))

    def test_json_fields_survive_any_chunking(self):
        expression = "b1*(b2+c1)" * 50
        payload = json.dumps(
            {"schema_version": 1, "n": 3, "literals": 1234567, "expression": expression, "ast": {}},
            indent=2,
        )
        want = hashlib.sha256(expression.encode()).hexdigest()
        for chunk in (1, 2, 3, 5, 64, 1 << 16):
            out = scanned(payload, chunk)
            self.assertEqual(out["literals"], 1234567, chunk)
            self.assertEqual(out["expression_sha256"], want, chunk)


class MutantTest(unittest.TestCase):
    def test_every_mutant_fails_the_exact_oracle(self):
        import mutants
        from srexpr import build_sr, check_exact, generate

        graph = build_sr(6)
        for kind in workloads.MUTATIONS:
            for pick in range(0, 1000, 97):
                e = mutants.mutate(generate(6), kind, graph.labels(), pick)
                self.assertFalse(check_exact(e, graph).passed, (kind, pick))


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_the_runner(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))


class TracedJobTest(unittest.TestCase):
    def test_traced_cli_job_records_layers_and_output(self):
        job = {"kind": "cli", "argv": ["gen", "6"]}
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py"), "--trace", json.dumps(job)],
            capture_output=True, text=True, env=run.child_env(), timeout=60, check=True,
        )
        record = json.loads(proc.stdout.splitlines()[-1])
        names = {span[2] for span in record["spans"]}
        self.assertTrue({"setup.import", "cli.main", "vda.generate", "expr.to_text", "cli.write"} <= names)
        from srexpr import generate, to_text

        text = f"{to_text(generate(6))}\nliterals: 119\n"
        self.assertEqual(record["exit"], 0)
        self.assertEqual(record["out"]["sha256"], hashlib.sha256(text.encode()).hexdigest())
        self.assertEqual(record["counts"]["cli.stdout_bytes"], len(text))
        self.assertEqual(record["counts"]["expr.text_bytes"], len(text) - len("\nliterals: 119\n"))


if __name__ == "__main__":
    unittest.main()
