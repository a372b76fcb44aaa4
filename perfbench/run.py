"""srexpr benchmark runner.

    python3 perfbench/run.py --workload fingerprint --seed 1 --seconds 35 --trace 0

Runs the workload's job list (a pure function of the seed, see
`workloads.py`) in a closed loop with one job in flight, each job a fresh
child process, in whole passes while the next pass is likely to end within
`--seconds`.  Every job's output is checked.  A bare interpreter start is
timed before every job (the host's current speed, which scales the time
metrics) and the no-work CLI call `gen 1 --count-only` before every second
job (the set-up time).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` the run alternates an untraced pass and
a traced pass (each job then runs in-process under `job.py --trace`, with
span wrappers around the srexpr layers) and reports the per-layer metrics,
the share of job time no span covers, and the tracing overhead.  The lines
before the JSON are a readable report.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import selectors
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from check import OutputScanner, check_job  # noqa: E402
from spans import BUSY, NAME, covered_time, layer_totals  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 60.0
# No job starts later than this many seconds into a run, and none runs past
# it, whatever --seconds says: a run must end well within 180 s.
RUN_LIMIT_S = 150.0
SETUP_ARGV = ["gen", "1", "--count-only"]
SETUP_EXPECT = {"exit": 0, "text": "0\n"}
SETUP_EVERY = 2  # one set-up sample before every second job
# The host's speed drifts by tens of per cent over minutes, and a bare
# interpreter start (no srexpr import) slows with it.  Time metrics are
# scaled by HOST_REF_S / (median bare start of the run): seconds on a host
# whose bare start takes HOST_REF_S.  The raw figures are in the report.
HOST_ARGV = [sys.executable, "-c", "pass"]
HOST_REF_S = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit; each is read from the spans or counts of the traced jobs
PER_LAYER = (
    ("setup.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.write.s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("graph.build_sr.s", "s"),
    ("graph.enumerate.s", "s"),
    ("graph.paths_enumerated", "count"),
    ("vda.generate.s", "s"),
    ("vda.expression.s", "s"),
    ("expr.literal_count.s", "s"),
    ("expr.dag_nodes", "count"),
    ("expr.sharing_ratio", "ratio"),
    ("expr.evaluate.s", "s"),
    ("expr.evaluate.calls", "count"),
    ("expr.iter_expansion.s", "s"),
    ("expr.monomials", "count"),
    ("expr.to_text.s", "s"),
    ("expr.text_bytes", "bytes"),
    ("expr.to_json.s", "s"),
    ("oracle.check_exact.self_s", "s"),
    ("oracle.check_fingerprint.self_s", "s"),
    ("oracle.dp_eval.s", "s"),
    ("oracle.trials_to_detect", "trials"),
    ("complexity.generated_counts.s", "s"),
    ("complexity.sr_count.s", "s"),
    ("complexity.closed_form.s", "s"),
    ("trace.uncovered_share", "ratio"),
    ("trace.overhead", "ratio"),
)

_ERROR_RE = re.compile(r"^(?:[\w.]+\.)?(\w+(?:Error|Exception))\b")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv: list[str], sink, env: dict, timeout: float = JOB_TIMEOUT_S) -> dict:
    """Run one child to completion, streaming its stdout into `sink.feed`.

    Returns wall time from spawn to exit, the exit code, the child's own
    peak RSS (from `wait4`, so it is per job) and, for a child that died
    with a traceback, the exception type.
    """
    started = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err_tail = b""
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                remaining = started + timeout - perf_counter()
                if remaining <= 0:
                    proc.kill()
                    timed_out = True
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        sink.feed(data)
                    else:
                        err_tail = (err_tail + data)[-4096:]
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    error = None
    err_text = err_tail.decode("utf-8", "replace")
    if proc.returncode != 0 and "Traceback" in err_text:
        last = err_text.strip().splitlines()[-1]
        m = _ERROR_RE.match(last)
        error = m.group(1) if m else last[:80]
    return {
        "wall_s": wall,
        "exit": None if timed_out else proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "error": error,
        "timed_out": timed_out,
    }


class ByteSink:
    """Keeps a small output whole (a traced job's record, a bare start's nothing)."""

    def __init__(self) -> None:
        self.data = bytearray()

    def feed(self, chunk: bytes) -> None:
        self.data += chunk


def job_argv(job: dict, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH / "job.py"), "--trace", json.dumps(job)]
    if job["kind"] == "cli":
        return [sys.executable, "-m", "srexpr.cli", *job["argv"]]
    return [sys.executable, str(BENCH / "job.py"), json.dumps(job["task"])]


class Run:
    """State of one benchmark run: results, failures and samples."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = child_env()
        golden = json.loads((BENCH / "golden.json").read_text())
        self.jobs = workloads.plan(workload, seed, golden)
        self.started = perf_counter()
        self.attempted = 0
        self.failures: list[tuple[dict, str]] = []
        self.setup_samples: list[float] = []
        self.host_samples: list[float] = []
        self.job_stats: dict[str, list[tuple[float, float]]] = {}

    def another_pass(self, passes: int) -> bool:
        """Whether one more pass is likely to end within --seconds."""
        elapsed = perf_counter() - self.started
        return elapsed + elapsed / passes <= min(self.seconds, RUN_LIMIT_S)

    def job_timeout(self) -> float:
        """The hard timeout of a job starting now (0 once the run limit is past)."""
        return max(0.0, min(JOB_TIMEOUT_S, self.started + RUN_LIMIT_S - perf_counter()))

    def host_probe(self) -> None:
        """Time a bare interpreter start: the host's current speed."""
        self.host_samples.append(run_process(HOST_ARGV, ByteSink(), self.env, self.job_timeout())["wall_s"])

    def setup_probe(self) -> None:
        """Time the no-work CLI call."""
        scanner = OutputScanner()
        argv = [sys.executable, "-m", "srexpr.cli", *SETUP_ARGV]
        result = run_process(argv, scanner, self.env, self.job_timeout())
        problem = check_job(SETUP_EXPECT, {**result, "out": scanner.summary()})
        if problem is not None:
            raise BenchmarkError(f"the no-work call `srexpr {' '.join(SETUP_ARGV)}` {problem}")
        self.setup_samples.append(result["wall_s"])

    def run_job(self, job: dict, traced: bool = False) -> dict:
        """Run and check one job; return its process result (plus the trace)."""
        if traced:
            collected = ByteSink()
            result = run_process(job_argv(job, True), collected, self.env, self.job_timeout())
            record = {}
            if result["exit"] == 0:
                record = json.loads(bytes(collected.data).decode("utf-8").splitlines()[-1])
                result.update(exit=record["exit"], error=record["error"], out=record["out"])
            else:
                result["error"] = result["error"] or "traced job crashed"
            result["trace"] = record
        else:
            scanner = OutputScanner()
            result = run_process(job_argv(job, False), scanner, self.env, self.job_timeout())
            result["out"] = scanner.summary()
        self.attempted += 1
        problem = check_job(job["expect"], result)
        if problem is not None:
            self.failures.append((job, problem))
        return result

    def untraced_pass(self, probes: bool) -> tuple[float, list[dict]]:
        """One pass over the job list; returns its wall time without probes.

        A pass cut short by the run limit returns the jobs it ran.
        """
        results = []
        job_phase = 0.0
        for index, job in enumerate(self.jobs):
            if self.job_timeout() <= 0:
                break
            if probes:
                self.host_probe()
                if index % SETUP_EVERY == 0:
                    self.setup_probe()
            t0 = perf_counter()
            results.append(self.run_job(job))
            job_phase += perf_counter() - t0
        return job_phase, results

    @property
    def correct(self) -> bool:
        """No job failed, except in a documented known-defect way."""
        return all(
            job.get("known_defect") and problem == f"crashed with {job['known_defect']}"
            for job, problem in self.failures
        )


def measure_end_to_end(run: Run) -> tuple[dict, dict]:
    run.setup_probe()  # warm-up: byte-compiles srexpr on a fresh checkout
    run.setup_samples.clear()
    run.started = perf_counter()
    phase_s, jobs_done, walls, rss = 0.0, 0, [], []
    passes = 0
    while True:
        phase, results = run.untraced_pass(probes=True)
        phase_s += phase
        jobs_done += len(results)
        walls += [r["wall_s"] for r in results]
        rss += [r["rss_mb"] for r in results]
        for job, r in zip(run.jobs, results):
            run.job_stats.setdefault(job["id"], []).append((r["wall_s"], r["rss_mb"]))
        passes += 1
        if not run.another_pass(passes):
            break
    raw = {
        "setup_s": statistics.median(run.setup_samples),
        "jobs_per_s": jobs_done / phase_s,
        "job_s.p50": statistics.median(walls),
        "peak_rss_mb": max(rss),
    }
    scale = HOST_REF_S / statistics.median(run.host_samples)
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "jobs_per_s": raw["jobs_per_s"] / scale,
        "job_s.p50": raw["job_s.p50"] * scale,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    samples = {
        "setup_s": len(run.setup_samples),
        "jobs_per_s": jobs_done,
        "job_s.p50": len(walls),
        "peak_rss_mb": len(rss),
    }
    return metrics, {"samples": samples, "raw": raw, "scale": scale}


def measure_per_layer(run: Run) -> tuple[dict, dict]:
    run.setup_probe()
    run.started = perf_counter()
    totals: dict[str, float] = {}
    untraced_s = traced_s = covered_s = 0.0
    imports: list[float] = []
    passes = 0

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    while True:
        _, plain = run.untraced_pass(probes=False)
        for job, untraced in zip(run.jobs, plain):
            if run.job_timeout() <= 0:
                break
            result = run.run_job(job, traced=True)
            trace = result["trace"]
            if not trace:
                continue
            untraced_s += untraced["wall_s"]
            traced_s += result["wall_s"] - trace["post_s"]
            covered_s += covered_time(trace["spans"])
            for name, entry in layer_totals(trace["spans"]).items():
                for field, value in entry.items():
                    add(f"{name}.{field}", value)
            for name, value in trace["counts"].items():
                add(name, value)
            imports += [s[BUSY] for s in trace["spans"] if s[NAME] == "setup.import"]
        passes += 1
        if not run.another_pass(passes):
            break

    def per_pass(key: str) -> float:
        return totals.get(key, 0.0) / passes

    metrics = {}
    for name, _ in PER_LAYER:
        if name == "setup.import_s":
            value = statistics.median(imports) if imports else 0.0
        elif name == "expr.sharing_ratio":
            nodes = totals.get("expr.dag_nodes", 0.0)
            value = totals.get("expr.tree_literals", 0.0) / nodes if nodes else 0.0
        elif name == "oracle.trials_to_detect":
            found = totals.get("oracle.detections", 0.0)
            value = totals.get("oracle.trials_to_detect", 0.0) / found if found else 0.0
        elif name == "trace.uncovered_share":
            value = 1.0 - covered_s / traced_s if traced_s else 0.0
        elif name == "trace.overhead":
            value = traced_s / untraced_s if untraced_s else 0.0
        else:
            value = per_pass(name)
        metrics[name] = value
    layers = sorted(k[: -len(".calls")] for k in totals if k.endswith(".calls"))
    table = {layer: {f: per_pass(f"{layer}.{f}") for f in ("calls", "s", "self_s")} for layer in layers}
    return metrics, {"passes": passes, "layers": table}


def report(run: Run, lines: list[str]) -> None:
    print(f"workload {run.workload}, seed {run.seed}, {len(run.jobs)} jobs per pass")
    print(
        f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"{platform.system()} {platform.machine()}"
    )
    for line in lines:
        print(line)
    failed = len(run.failures)
    print(f"  error_rate {failed / run.attempted:.4f} ({failed} of {run.attempted} jobs failed)")
    grouped = Counter((job["id"], problem, bool(job.get("known_defect"))) for job, problem in run.failures)
    for (job_id, problem, known), times in grouped.items():
        print(f"    FAILED x{times} {job_id}: {problem}{' [known defect]' if known else ''}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "srexpr" / "__init__.py").is_file():
        print(f"error: no srexpr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = Run(args.workload, args.seed, args.seconds)
        if args.trace:
            metrics, extra = measure_per_layer(run)
            units = dict(PER_LAYER)
            lines = [f"per-layer metrics (per pass, {extra['passes']} traced passes):"]
            lines += [f"  {name} {value:.6g} {units[name]}" for name, value in metrics.items()]
            lines.append("  layer                           calls        s   self_s")
            for layer, entry in extra["layers"].items():
                lines.append(
                    f"  {layer:30s} {entry['calls']:6.0f} {entry['s']:8.4f} {entry['self_s']:8.4f}"
                )
        else:
            metrics, extra = measure_end_to_end(run)
            units = dict(END_TO_END)
            lines = ["end-to-end metrics:"]
            lines += [
                f"  {name} {value:.6g} {units[name]} "
                f"(n={extra['samples'][name]}, raw {extra['raw'][name]:.6g})"
                for name, value in metrics.items()
            ]
            lines.append(
                f"  host bare start {statistics.median(run.host_samples):.6g} s "
                f"(n={len(run.host_samples)}), time scale {extra['scale']:.4f}"
            )
            lines.append("  jobs: median wall s, peak RSS MB, runs")
            for job_id, stats in run.job_stats.items():
                wall = statistics.median(w for w, _ in stats)
                lines.append(f"    {wall:7.3f} {max(r for _, r in stats):7.1f} {len(stats):3d}  {job_id}")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(run, lines)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
