"""Streaming capture of a job's standard output and the checks run on it.

A job can print tens of megabytes (`gen 96 --output json` prints 58 MB), and
the benchmark process must stay small: a child's `ru_maxrss` starts from its
parent's resident size, so a bloated runner would inflate every later job's
peak RSS.  `OutputScanner` therefore sees the output chunk by chunk and keeps
only digests, counts, a bounded head and tail, and the two JSON fields the
checks need.

`check_job` compares a finished job against the expectations the planner
attached to it and returns None when the job passed, or a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
import re

HEAD_BYTES = 4096
TAIL_BYTES = 256
# Longest run of bytes a field token plus its integer value can span; kept as
# carry-over between chunks so a token split across two reads is still found.
_CARRY_BYTES = 64

_LITERALS_RE = re.compile(rb'"literals"\s*:\s*(\d+)')
_EXPRESSION_RE = re.compile(rb'"expression"\s*:\s*"')


class OutputScanner:
    """Digest of one output stream, fed in arbitrary chunks.

    Records the sha256 and size of the whole stream, its first HEAD_BYTES and
    last TAIL_BYTES, the first `"literals": <int>` field, and the sha256 of
    the first `"expression": "..."` string value.  The expression text is
    plain ASCII (labels, digits, `+`, `*`, parentheses), so the hash of the
    JSON string body equals the hash of the text `gen N` prints, and a JSON
    payload is checked on its content, not on the layout of its `ast`.
    """

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.nbytes = 0
        self.head = b""
        self.tail = b""
        self.literals: int | None = None
        self._expr_sha: "hashlib._Hash | None" = None
        self.expression_sha256: str | None = None
        self._carry = b""

    def feed(self, chunk: bytes) -> None:
        if not chunk:
            return
        self._sha.update(chunk)
        self.nbytes += len(chunk)
        if len(self.head) < HEAD_BYTES:
            self.head += chunk[: HEAD_BYTES - len(self.head)]
        self.tail = (self.tail + chunk)[-TAIL_BYTES:]
        self._scan_fields(chunk)

    def _scan_fields(self, chunk: bytes) -> None:
        if self._expr_sha is not None:
            end = chunk.find(b'"')
            if end < 0:
                self._expr_sha.update(chunk)
                return
            self._expr_sha.update(chunk[:end])
            self.expression_sha256 = self._expr_sha.hexdigest()
            self._expr_sha = None
            chunk = chunk[end + 1 :]
            self._carry = b""
        if self.literals is not None and self.expression_sha256 is not None:
            return
        window = self._carry + chunk
        if self.literals is None:
            m = _LITERALS_RE.search(window)
            # A match that runs to the end of the window may have more digits
            # in the next chunk; leave it in the carry and retry then.
            if m is not None and m.end() < len(window):
                self.literals = int(m.group(1))
        if self.expression_sha256 is None:
            m = _EXPRESSION_RE.search(window)
            if m is not None:
                self._carry = b""
                self._expr_sha = hashlib.sha256()
                self._scan_fields(window[m.end() :])
                return
        self._carry = window[-_CARRY_BYTES:]

    def summary(self) -> dict:
        """JSON-serialisable digest; `check_job` reads only this."""
        return {
            "sha256": self._sha.hexdigest(),
            "bytes": self.nbytes,
            "head": self.head.decode("utf-8", "replace"),
            "tail": self.tail.decode("utf-8", "replace"),
            "literals": self.literals,
            "expression_sha256": self.expression_sha256,
        }


def _last_line(text: str) -> str:
    lines = text.rstrip("\n").split("\n")
    return lines[-1] if lines else ""


def check_job(expect: dict, result: dict) -> str | None:
    """None when `result` meets every expectation in `expect`, else why not.

    `result` holds `exit` (the job's exit code, or None after a timeout),
    `error` (the exception type a crashed job reported, if any) and `out`
    (an `OutputScanner.summary()`).  Recognised expectations:

      exit               exit code
      text               the whole output, exactly
      sha256             sha256 of the whole output
      literals           literal count: the `literals: N` last line of a text
                         job, the `"literals"` field of a JSON job, or the
                         `literals` of a library job's verdict
      expression_sha256  sha256 of the JSON `"expression"` string
      contains           a substring the output must hold
      verdict            `result` of a library job's JSON verdict line
      monomials          `monomials` of a library job's verdict
    """
    if result.get("timed_out"):
        return "timed out"
    if result.get("error"):
        return f"crashed with {result['error']}"
    out = result["out"]
    if "exit" in expect and result["exit"] != expect["exit"]:
        return f"exit code {result['exit']}, expected {expect['exit']}"
    if "text" in expect and (out["bytes"] > HEAD_BYTES or out["head"] != expect["text"]):
        return f"output {out['head'][:80]!r} differs from {expect['text'][:80]!r}"
    if "sha256" in expect and out["sha256"] != expect["sha256"]:
        return f"output digest {out['sha256'][:16]} differs from {expect['sha256'][:16]}"
    if "expression_sha256" in expect and out["expression_sha256"] != expect["expression_sha256"]:
        return "JSON expression text differs from the recorded one"
    if "contains" in expect and expect["contains"] not in out["head"]:
        return f"output lacks {expect['contains']!r}"
    verdict = None
    if "verdict" in expect or "monomials" in expect:
        try:
            verdict = json.loads(_last_line(out["head"]))
        except ValueError:
            return "no JSON verdict line"
        if "verdict" in expect and verdict.get("result") != expect["verdict"]:
            return f"verdict {verdict.get('result')!r}, expected {expect['verdict']!r}"
        if "monomials" in expect and verdict.get("monomials") != expect["monomials"]:
            return f"{verdict.get('monomials')} monomials, expected {expect['monomials']}"
    if "literals" in expect:
        literals = _literals_seen(out, verdict)
        if literals != expect["literals"]:
            return f"literal count {literals}, expected {expect['literals']}"
    return None


def _literals_seen(out: dict, verdict: dict | None) -> int | None:
    if verdict is not None:
        return verdict.get("literals")
    if out["literals"] is not None:
        return out["literals"]
    last = _last_line(out["tail"])
    if last.startswith("literals: "):
        last = last[len("literals: ") :]
    try:
        return int(last)
    except ValueError:
        return None
