"""Command-line interface: outputs, exit codes, determinism."""

import ast
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from srexpr import from_json, generate, literal_count, lit, make_product, make_sum, to_json, to_text
from srexpr.cli import main
from srexpr.expr import compile_program
from srexpr.graph import Terminal
from srexpr.vda import MAX_SIZE, SubExprKey, expression

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"

GOLDEN_SR3 = "(b1+e1*e2+d1*d2)*(b2+e3*e4+d3*d4)+e1*c1*e4+d1*a1*d4"

# `closed-form --k K` for K = 4..9, 70 and 256, then `table`, each as text
# and as JSON, written one after another.
CLOSED_FORM_AND_TABLE_SHA256 = (
    "6a2127d6bffceab7b17393212f111bbc4ca6080594dcfafec62c90737c8704c6"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class Sha256Writer:
    """A stand-in for stdout that keeps only the sha256 of what is written."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)

    def flush(self):
        pass


class TestGen:
    def test_golden_expression(self, capsys):
        code, out, _ = run(capsys, "gen", "3")
        assert code == 0
        assert out.splitlines() == [GOLDEN_SR3, "literals: 16"]

    def test_count_only_degenerate(self, capsys):
        code, out, _ = run(capsys, "gen", "1", "--count-only")
        assert (code, out.strip()) == (0, "0")

    def test_count_only_size_ten(self, capsys):
        code, out, _ = run(capsys, "gen", "10", "--count-only")
        assert (code, out.strip()) == (0, "439")

    def test_json_ast_round_trips(self, capsys):
        code, out, _ = run(capsys, "gen", "3", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["literals"] == 16
        assert payload["expression"] == GOLDEN_SR3
        assert from_json(payload["ast"]) == generate(3)

    def test_juxtaposed(self, capsys):
        code, out, _ = run(capsys, "gen", "2", "--juxtapose")
        assert out.splitlines()[0] == "b1+e1e2+d1d2"

    def test_subexpression(self, capsys):
        code, out, _ = run(capsys, "gen", "8", "--sub", "u5,u7")
        assert code == 0
        assert out.splitlines()[1] == "literals: 11"

    def test_bad_subexpression_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "7", "--sub", "u5,u7")
        assert code == 2
        assert "error" in err

    def test_unparsable_terminals_exit_2(self, capsys):
        assert run(capsys, "gen", "5", "--sub", "x1,y2")[0] == 2
        assert run(capsys, "gen", "5", "--sub", "b1")[0] == 2
        assert run(capsys, "gen", "5", "--sub", "b1,b3\n")[0] == 2

    def test_deterministic(self, capsys):
        first = run(capsys, "gen", "12", "--output", "json")
        second = run(capsys, "gen", "12", "--output", "json")
        assert first == second

    @pytest.mark.parametrize(
        "n, flags",
        [
            (1, ()),
            (3, ()),
            (20, ("--juxtapose",)),
            (64, ()),
            (30, ("--sub", "b3,u20")),
            (3, ("--sub", "b1,u1")),  # the root is the literal e1
            (4, ("--sub", "u1,l2")),  # the root is the product e2*d3
            (200, ("--juxtapose",)),
            (200, ("--sub", "u45,l155")),  # size 110
        ],
    )
    def test_json_equals_dumped_payload(self, monkeypatch, n, flags):
        # The payload as a dict tree, dumped as json.dumps(indent=2) dumps it:
        # the layout the streamed output must keep byte for byte.  Both sides
        # are hashed as they are written, for SR(200)'s payload is 444 MB.
        if flags[:1] == ("--sub",):
            src, dst = map(Terminal.parse, flags[1].split(","))
            e = expression(n, SubExprKey(src, dst))
            extra = {"source": str(src), "sink": str(dst)}
        else:
            e, extra = generate(n), {}
        payload = {"schema_version": 1, "n": n, "literals": literal_count(e), **extra}
        payload["expression"] = to_text(e, "" if "--juxtapose" in flags else "*")
        payload["ast"] = to_json(e)
        want = hashlib.sha256()
        for piece in json.JSONEncoder(indent=2).iterencode(payload):
            want.update(piece.encode())
        want.update(b"\n")
        out = Sha256Writer()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["gen", str(n), *flags, "--output", "json"]) == 0
        assert out.sha.hexdigest() == want.hexdigest()

    def test_json_is_written_without_to_json_text(self, capsys, monkeypatch):
        # The CLI writes the AST as the renderer's root pieces, never as the
        # library's whole joined text.
        e = generate(12)
        payload = {"schema_version": 1, "n": 12, "literals": literal_count(e)}
        payload["expression"] = to_text(e)
        payload["ast"] = to_json(e)

        def refuse(e):
            raise AssertionError("the CLI built the whole AST text")

        monkeypatch.setattr("srexpr.expr.to_json_text", refuse)
        monkeypatch.setattr("srexpr.cli.to_json_text", refuse, raising=False)
        code, out, _ = run(capsys, "gen", "12", "--output", "json")
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_expression_is_written_without_to_text(self, capsys, monkeypatch, output):
        # The CLI streams the expression through the writer, never as the
        # library's whole joined text.
        want = run(capsys, "gen", "12", "--output", output)

        def refuse(e, product_separator="*"):
            raise AssertionError("the CLI built the whole expression text")

        monkeypatch.setattr("srexpr.expr.to_text", refuse)
        monkeypatch.setattr("srexpr.cli.to_text", refuse, raising=False)
        assert want[0] == 0
        assert run(capsys, "gen", "12", "--output", output) == want

    def test_text_matches_golden_digest(self, capsys):
        want = json.loads(GOLDEN.read_text())["text"]["200"]["sha256"]
        code, out, _ = run(capsys, "gen", "200")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


class TestVerify:
    def test_exact_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "8", "--mode", "exact")
        assert code == 0
        assert "pass" in out

    def test_exact_degenerate(self, capsys):
        assert run(capsys, "verify", "1", "--mode", "exact")[0] == 0

    def test_fingerprint_pass_and_deterministic(self, capsys):
        args = ("verify", "64", "--mode", "fingerprint", "--trials", "10", "--seed", "42")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first[0] == 0
        assert first == second

    def test_fingerprint_json_fields(self, capsys):
        code, out, _ = run(
            capsys, "verify", "16", "--mode", "fingerprint", "--output", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["schema_version"] == 1
        assert payload["result"] == "pass"
        assert payload["trials"] == 10 and payload["seed"] == 42

    def test_capacity_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "8", "--mode", "exact", "--limit", "100")
        assert code == 2
        assert "limit" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--trials", "0"), "trials must be >= 1"),
            (("--prime", "1"), "not prime"),
            (("--prime", "4"), "not prime"),
            (("--prime", "13"), "degree 14"),  # prime, but not above 2(n-1) = 14
            (("--prime", "3317044064679887385961981"), "exact only below"),
            (("--trials", "10000000000"), "trials must be <= 10000"),
        ],
    )
    def test_bad_fingerprint_parameters_exit_2(self, capsys, flags, message):
        code, out, err = run(capsys, "verify", "8", "--mode", "fingerprint", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    def test_bad_flags_rejected_before_generation(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("generation ran before the flags were checked")

        monkeypatch.setattr("srexpr.vda.generate", forbidden)
        monkeypatch.setattr("srexpr.vda.program", forbidden)
        monkeypatch.setattr("srexpr.cli.build_sr", forbidden)
        for flags in (("--prime", "4"), ("--trials", "0"), ("--prime", "4093")):
            code, out, err = run(capsys, "verify", "2048", "--mode", "fingerprint", *flags)
            assert (code, out) == (2, "")
            assert err.startswith("error: ")

    def test_exact_size_eleven_fits_the_default_limit(self, capsys):
        code, out, _ = run(capsys, "verify", "11")
        assert (code, out) == (0, "exact pass: 413403 expression monomials vs 413403 graph paths\n")

    def test_exact_capacity_refused_before_generation(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the graph or the expression was built")

        monkeypatch.setattr("srexpr.vda.generate", forbidden)
        monkeypatch.setattr("srexpr.vda.program", forbidden)
        monkeypatch.setattr("srexpr.cli.build_sr", forbidden)
        for argv in (("verify", "20000"), ("verify", "12", "--limit", "1000000")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: SR(") and "limit" in err

    def test_failure_exits_1(self, capsys, monkeypatch):
        broken = make_sum(
            [make_product([lit("e1"), lit("e2")]), make_product([lit("d1"), lit("d2")])]
        )
        monkeypatch.setattr("srexpr.vda.program", lambda *args: compile_program(broken))
        code, out, _ = run(capsys, "verify", "2", "--mode", "exact")
        assert code == 1
        assert "b1" in out  # the witness monomial


class TestTable:
    def test_reference_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "4", "--to", "10", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        rows = {row["n"]: row for row in payload["rows"]}
        assert rows[7]["FDA"] == 252
        assert rows[7]["CDA"] == 236
        assert rows[7]["IFDA"] == 228
        assert rows[7]["1-VDA-recurrence"] == rows[7]["1-VDA-generated"] == 172
        assert [rows[n]["1-VDA-generated"] for n in range(4, 11)] == [
            41, 66, 119, 172, 247, 322, 439,
        ]

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--from", "4", "--to", "4", "--output", "json")
        assert code == 0
        assert [row["n"] for row in json.loads(out)["rows"]] == [4]

    def test_text_layout_deterministic(self, capsys):
        first = run(capsys, "table")
        second = run(capsys, "table")
        assert first == second
        assert "1-VDA-recurrence" in first[1]

    def test_bad_range_exits_2(self, capsys):
        assert run(capsys, "table", "--from", "5", "--to", "4")[0] == 2
        assert run(capsys, "table", "--from", "4", "--to", "11")[0] == 2
        assert run(capsys, "table", "--from", "3", "--to", "10")[0] == 2


class TestClosedForm:
    def test_k2(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--k", "2", "--output", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["match"] is True
        assert payload["closed_form"] == {"sr": 41, "single_leaf": 47, "dipterous": 60}
        assert payload["recurrence"] == payload["generated"] == payload["closed_form"]

    def test_k3_text(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--k", "3")
        assert code == 0
        assert "247" in out and out.strip().endswith("match")

    def test_k5_three_way_agreement(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--k", "5", "--output", "json")
        payload = json.loads(out)
        assert code == 0 and payload["match"] is True

    def test_small_k_exits_2(self, capsys):
        assert run(capsys, "closed-form", "--k", "1")[0] == 2

    def test_output_matches_the_recorded_digest(self, capsys):
        # Recorded when each of the three generated counts made its own plan.
        sha = hashlib.sha256()
        for k in (4, 5, 6, 7, 8, 9, 70, 256):
            for output in ("text", "json"):
                code, out, _ = run(capsys, "closed-form", "--k", str(k), "--output", output)
                assert code == 0
                sha.update(out.encode())
        for output in ("text", "json"):
            code, out, _ = run(capsys, "table", "--output", output)
            assert code == 0
            sha.update(out.encode())
        assert sha.hexdigest() == CLOSED_FORM_AND_TABLE_SHA256


class TestSizeBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ("closed-form", "--k", str(MAX_SIZE.bit_length())),
            ("closed-form", "--k", "100000"),
            ("gen", str(2**2000), "--count-only"),
            ("gen", str(MAX_SIZE + 1), "--count-only"),
        ],
        ids=["k-past-bound", "k-100000", "gen-2**2000", "gen-past-bound"],
    )
    def test_past_the_bound_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(MAX_SIZE.bit_length()) in err

    def test_largest_k_succeeds_from_a_cold_start(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        k = str(MAX_SIZE.bit_length() - 1)
        done = subprocess.run(
            [sys.executable, "-m", "srexpr.cli", "closed-form", "--k", k],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().endswith("match")

    def test_exact_verify_past_the_bound_states_the_size_rule(self, capsys):
        code, out, err = run(capsys, "verify", str(MAX_SIZE + 1))
        assert (code, out) == (2, "")
        assert err == run(capsys, "gen", str(MAX_SIZE + 1))[2]

    def test_largest_size_counts(self, capsys):
        code, out, _ = run(capsys, "gen", str(MAX_SIZE), "--count-only")
        assert code == 0 and int(out) > 0


class TestHashSeed:
    """Output does not depend on string hashes or on object addresses: the
    labels hash through their letters and the terminals through their row."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "30", "--output", "json"),
            ("gen", "25", "--sub", "u3,l17"),
            ("verify", "8", "--output", "json"),
            ("verify", "200", "--mode", "fingerprint", "--output", "json"),
            ("dot", "6", "--sub", "b2,u5"),
        ],
        ids=["gen-json", "gen-sub", "verify-exact", "verify-fingerprint", "dot-sub"],
    )
    def test_output_is_the_same_under_two_hash_seeds(self, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
            done = subprocess.run(
                [sys.executable, "-m", "srexpr.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] != ""


class TestImports:
    """A command loads only the modules it runs.  Each runs in a fresh
    interpreter, because pytest itself imports all of these."""

    HEAVY = ("dataclasses", "inspect", "json", "hashlib", "fractions", "decimal")

    @staticmethod
    def loaded(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        script = (
            "import sys\n"
            "from srexpr.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return set(done.stderr.split())

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "30"),
            ("gen", "5", "--count-only"),
            ("verify", "6"),
            ("closed-form", "--k", "5"),
            ("table",),
        ],
        ids=["gen", "gen-count-only", "verify-exact", "closed-form", "table"],
    )
    def test_text_commands_load_none_of_them(self, argv):
        modules = self.loaded(*argv)
        assert "srexpr.oracle" in modules and modules.isdisjoint(self.HEAVY)

    def test_fingerprint_loads_only_hashlib(self):
        modules = self.loaded("verify", "6", "--mode", "fingerprint")
        assert "hashlib" in modules
        assert modules.isdisjoint(set(self.HEAVY) - {"hashlib"})

    def test_json_output_loads_json(self):
        assert "json" in self.loaded("gen", "5", "--output", "json")

    def test_only_an_exact_check_loads_the_decision_diagrams(self):
        script = (
            "import sys\n"
            "from srexpr.cli import main\n"
            "codes = [main(['gen', '1', '--count-only']), main(['verify', '3', '--mode', 'fingerprint'])]\n"
            "print('srexpr.zdd' in sys.modules, file=sys.stderr)\n"
            "codes.append(main(['verify', '3']))\n"
            "print('srexpr.zdd' in sys.modules, file=sys.stderr)\n"
            "sys.exit(max(codes))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parents[1], timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.split() == ["False", "True"]


class TestBenchmarkNames:
    """Every srexpr name that `perfbench/` traces or imports still exists, so
    that no traced job crashes on a name that was renamed or removed."""

    PERFBENCH = GOLDEN.parent

    def test_every_traced_target_resolves(self):
        spec = importlib.util.spec_from_file_location("spans", self.PERFBENCH / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for module_name, attr, *_ in spans.TARGETS:
            assert callable(getattr(importlib.import_module(module_name), attr)), attr

    def test_every_imported_name_resolves(self):
        names = set()  # (module, name), with name None for `import srexpr.x`
        for path in sorted(self.PERFBENCH.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("srexpr"):
                    names.update((node.module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Import):
                    names.update((a.name, None) for a in node.names if a.name.startswith("srexpr"))
        assert ("srexpr.vda", "expression") in names
        for module_name, attr in sorted(names, key=str):
            module = importlib.import_module(module_name)
            if attr is not None and not hasattr(module, attr):
                importlib.import_module(f"{module_name}.{attr}")  # a submodule


class TestDot:
    def test_whole_graph(self, capsys):
        code, out, _ = run(capsys, "dot", "2")
        assert code == 0
        assert out.count('";') == 4 and out.count("->") == 5

    def test_single_leaf_subgraph(self, capsys):
        code, out, _ = run(capsys, "dot", "7", "--sub", "b1,u3")
        assert code == 0
        assert out.count('";') == 8 and out.count("->") == 14

    def test_dipterous_subgraph(self, capsys):
        code, out, _ = run(capsys, "dot", "8", "--sub", "u5,u7")
        assert code == 0
        assert out.count('";') == 6 and out.count("->") == 9

    def test_bad_terminal_exits_2(self, capsys):
        assert run(capsys, "dot", "7", "--sub", "u9,u2")[0] == 2

    def test_size_past_the_bound_exits_2_as_gen_does(self, capsys):
        code, out, err = run(capsys, "dot", str(MAX_SIZE + 1))
        assert (code, out) == (2, "")
        assert err == run(capsys, "gen", str(MAX_SIZE + 1))[2]

    def test_sub_accepts_the_pairs_gen_accepts(self, capsys):
        # Every pair of SR(6) terminals, out-of-range indices included.
        terminals = [f"{row}{index}" for row in "bul" for index in range(1, 8)]
        for src in terminals:
            for dst in terminals:
                sub = f"{src},{dst}"
                dot_code, _, dot_err = run(capsys, "dot", "6", "--sub", sub)
                gen_code, _, gen_err = run(capsys, "gen", "6", "--sub", sub, "--count-only")
                assert (dot_code, dot_err) == (gen_code, gen_err), sub


class TestCrash:
    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr("srexpr.cli.cmd_gen", crash)
        code, out, err = run(capsys, "gen", "3")
        assert code == 3
        assert out == ""
        assert "Traceback" in err and "RuntimeError: boom" in err


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "64"),
            ("gen", "24", "--output", "json"),
            ("gen", "200", "--juxtapose", "--output", "json"),
            ("gen", "200", "--sub", "u45,l155", "--output", "json"),
        ],
        ids=["text", "json", "json-juxtaposed-200", "json-sub-110"],
    )
    def test_closed_output_pipe_exits_141_quietly(self, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.Popen(
            [sys.executable, "-m", "srexpr.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()  # the output is far larger than a pipe holds
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["mystery"])
        assert excinfo.value.code == 2

    def test_missing_argument(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen"])
        assert excinfo.value.code == 2
