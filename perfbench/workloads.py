"""The three workloads: each job list is a pure function of (workload, seed).

The program sees only the generated argv (or, for library jobs, the task
handed to `job.py`).  Every job carries the expectations its output is
checked against; they come from `golden.json`, recorded at the seed commit
by `record_golden.py`, or are implied by the job itself (a fingerprint pass
line, a mutant's `fail`).

Job cost must not depend much on the seed, or the run-to-run spread across
seeds would swamp real changes.  The generator's cost follows the size of
its DAG, which jumps between neighbouring sizes (SR(1000) has twice the
nodes of SR(1024)), so each size slot draws from a band of sizes whose DAG
node count lies within a few per cent of the band's median; the text and
JSON slots draw from bands of near-equal literal count.  The seed then picks
the size within the band, the trial seeds, the mutated position, the
terminal pairs and the job order.
"""

from __future__ import annotations

import random

NAMES = ("fingerprint", "exact", "gen-emit")

MUTATIONS = ("drop-addend", "dup-addend", "relabel")

# Family name -> (source row, sink row, sink offset): a family pair of size s
# at position p runs from <src>p to <dst>(p + s + offset).
FAMILIES = {
    "sr": ("b", "b", -1),
    "sl-basic-upper": ("b", "u", -1),
    "sl-upper-basic": ("u", "b", 0),
    "sl-basic-lower": ("b", "l", -1),
    "sl-lower-basic": ("l", "b", 0),
    "trap-upper-upper": ("u", "u", 0),
    "trap-lower-lower": ("l", "l", 0),
    "para-lower-upper": ("l", "u", 0),
    "para-upper-lower": ("u", "l", 0),
}

# Size bands, each within 3-5 % of the DAG node count in its name; a slot
# draws uniformly from its band.
NODES_6K = (43, 46, 47, 56, 57, 63)
NODES_34K = (182, 183, 187, 197, 216, 217, 221, 222, 227, 228, 233, 239, 242, 244, 245, 250, 251)
NODES_74K = (484, 488, 489, 495, 498, 500, 501, 503, 507, 516)
NODES_146K = (680, 696, 697, 700, 701, 702, 707, 708, 712, 713)
NODES_157K = (963, 964, 965, 968, 969, 985, 991, 995, 996, 1000, 1001, 1007, 1011, 1013, 1014, 1015)

# Each workload's jobs are about one third cheap, one third of one typical
# cost and one third heavy, so the median job time is the middle of a
# cluster of like jobs, not a single job's sample.
#
# fingerprint: (size band, trials) per `verify --mode fingerprint` slot.
# SR(982) has the largest DAG of the sizes near 1000 (181k nodes), so that
# fixed-size job sets the workload's peak RSS whatever the seed draws.
FP_VERIFY_SLOTS = (
    (NODES_6K, 10),
    (NODES_34K, 6),
    (NODES_34K, 6),
    (NODES_34K, 6),
    (NODES_34K, 6),
    (NODES_74K, 5),
    (NODES_146K, 3),
    ((982,), 3),
    ((1024,), 3),
)
# fingerprint: size band for the mutant library jobs.
FP_MUTANT_SIZES = NODES_34K
FP_MUTANT_TRIALS = 10

# exact: `verify N` sizes; 9 and 10 carry most of the time.
EXACT_VERIFY_SIZES = (10, 9, 9)
EXACT_SMALL_SIZES = tuple(range(2, 9))
EXACT_SMALL_JOBS = 3
# exact: subexpression jobs, one per family, at this size in SR(AMBIENT).
EXACT_FAMILY_SIZE = 6
EXACT_MUTANT_SIZE = 7
EXACT_AMBIENT = range(10, 15)

# gen-emit: text and JSON bands of near-equal literal count (1.04M at
# 198-202, 0.22M at 107-113); the cheap slots may be wide.
# `gen 64 --output json` (112 MB) sets the workload's peak RSS.
TEXT_1M = (198, 199, 200, 201, 202)
TEXT_220K = tuple(range(107, 114))
GEN_TEXT_SLOTS = (TEXT_1M, TEXT_220K, TEXT_220K, TEXT_220K, tuple(range(40, 61)))
GEN_JSON_SLOTS = ((64,), tuple(range(16, 25)))
GEN_COUNT_SLOTS = ((4096,), NODES_157K, tuple(range(2, 65)))
CLOSED_FORM_SLOTS = ((9,), (4, 5, 6))


def _sub_band(n: int, size: int, positions: tuple[int, ...]) -> tuple:
    """`gen n --sub SRC,DST` for every family at `size`, at a few positions."""
    return tuple(
        (n, f"{src},{dst}")
        for family in FAMILIES
        for src, dst in family_pairs(family, size, n)
        if int(src[1:]) in positions
    )


def plan(workload: str, seed: int, golden: dict) -> list[dict]:
    """The job list of `workload` for `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "fingerprint":
        jobs = _plan_fingerprint(rng)
    elif workload == "exact":
        jobs = _plan_exact(rng, golden)
    elif workload == "gen-emit":
        jobs = _plan_gen_emit(rng, golden)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")
    rng.shuffle(jobs)
    return jobs


def _cli(argv: list, expect: dict) -> dict:
    return {"id": " ".join(map(str, argv)), "kind": "cli", "argv": [str(a) for a in argv], "expect": expect}


def _lib(task: dict, expect: dict, **extra) -> dict:
    desc = [task["oracle"], task["form"], f"n={task['n']}"]
    if "src" in task:
        desc.append(f"{task['src']},{task['dst']}")
    if task.get("mutation"):
        desc.append(task["mutation"])
    return {"id": "lib " + " ".join(desc), "kind": "lib", "task": task, "expect": expect, **extra}


def _seed32(rng: random.Random) -> int:
    return rng.randrange(1 << 32)


def family_pairs(family: str, size: int, n: int) -> list[tuple[str, str]]:
    """Every (source, sink) of `family` and `size` that fits in SR(n)."""
    src_row, dst_row, offset = FAMILIES[family]
    pairs = []
    for p in range(1, n + 1):
        q = p + size + offset
        if all(index <= (n if row == "b" else n - 1) for row, index in ((src_row, p), (dst_row, q))):
            pairs.append((f"{src_row}{p}", f"{dst_row}{q}"))
    return pairs


# A size-110 subexpression prints about as much as `gen 110`.
SUB_SLOTS = (_sub_band(200, 110, (3, 40, 77)),) * 2


def _letter_swap_task(rng: random.Random, oracle: str, row: str, n: int) -> dict:
    p = rng.randrange(1, n - 2)
    task = {"oracle": oracle, "form": "letter-swap", "n": n, "src": f"{row}{p}", "dst": f"{row}{p + 2}"}
    if oracle == "fingerprint":
        task.update(trials=FP_MUTANT_TRIALS, seed=_seed32(rng))
    return task


def _plan_fingerprint(rng: random.Random) -> list[dict]:
    jobs = []
    for band, trials in FP_VERIFY_SLOTS:
        n, s = rng.choice(band), _seed32(rng)
        argv = ["verify", n, "--mode", "fingerprint", "--trials", trials, "--seed", s]
        jobs.append(_cli(argv, {"exit": 0, "text": f"fingerprint pass: {trials} trials, seed {s}\n"}))
    for mutation in MUTATIONS:
        task = {
            "oracle": "fingerprint",
            "form": "generated",
            "n": rng.choice(FP_MUTANT_SIZES),
            "mutation": mutation,
            "pick": _seed32(rng),
            "trials": FP_MUTANT_TRIALS,
            "seed": _seed32(rng),
        }
        jobs.append(_lib(task, {"exit": 0, "verdict": "fail"}))
    # The letter-swapped trapezoid bases name edges outside their subgraph.
    # At the seed commit check_fingerprint raises UnboundLabelError on them
    # instead of reporting `fail`; they stay in the list so that the defect
    # shows as failed jobs until it is fixed.
    for row in ("u", "l"):
        task = _letter_swap_task(rng, "fingerprint", row, rng.randrange(5, 1025))
        jobs.append(_lib(task, {"exit": 0, "verdict": "fail"}, known_defect="UnboundLabelError"))
    return jobs


def _plan_exact(rng: random.Random, golden: dict) -> list[dict]:
    sizes = list(EXACT_VERIFY_SIZES) + [rng.choice(EXACT_SMALL_SIZES) for _ in range(EXACT_SMALL_JOBS)]
    jobs = [_cli(["verify", n], {"exit": 0, "text": golden["verify_exact"][str(n)]}) for n in sizes]
    for family in FAMILIES:
        n = rng.choice(EXACT_AMBIENT)
        src, dst = rng.choice(family_pairs(family, EXACT_FAMILY_SIZE, n))
        want = golden["family"][f"{family}/{EXACT_FAMILY_SIZE}"]
        task = {"oracle": "exact", "form": "generated", "n": n, "src": src, "dst": dst}
        expect = {"exit": 0, "verdict": "pass", "literals": want["literals"], "monomials": want["paths"]}
        jobs.append(_lib(task, expect))
    for mutation in MUTATIONS:
        n = rng.choice(EXACT_AMBIENT)
        src, dst = rng.choice(family_pairs(rng.choice(list(FAMILIES)), EXACT_MUTANT_SIZE, n))
        task = {
            "oracle": "exact",
            "form": "generated",
            "n": n,
            "src": src,
            "dst": dst,
            "mutation": mutation,
            "pick": _seed32(rng),
        }
        jobs.append(_lib(task, {"exit": 0, "verdict": "fail"}))
    for row in ("u", "l"):
        task = _letter_swap_task(rng, "exact", row, rng.choice(EXACT_AMBIENT))
        jobs.append(_lib(task, {"exit": 0, "verdict": "fail"}))
    return jobs


def _plan_gen_emit(rng: random.Random, golden: dict) -> list[dict]:
    jobs = []
    for band in GEN_TEXT_SLOTS:
        n = rng.choice(band)
        want = golden["text"][str(n)]
        jobs.append(_cli(["gen", n], {"exit": 0, "sha256": want["sha256"], "literals": want["literals"]}))
    for band in GEN_JSON_SLOTS:
        n = rng.choice(band)
        want = golden["json"][str(n)]
        expect = {"exit": 0, "literals": want["literals"], "expression_sha256": want["expression_sha256"]}
        jobs.append(_cli(["gen", n, "--output", "json"], expect))
    for band in GEN_COUNT_SLOTS:
        n = rng.choice(band)
        jobs.append(_cli(["gen", n, "--count-only"], {"exit": 0, "text": f"{golden['count'][str(n)]}\n"}))
    for band in SUB_SLOTS:
        n, pair = rng.choice(band)
        want = golden["sub"][f"{n} {pair}"]
        expect = {"exit": 0, "sha256": want["sha256"], "literals": want["literals"]}
        jobs.append(_cli(["gen", n, "--sub", pair], expect))
    for band in CLOSED_FORM_SLOTS:
        k = rng.choice(band)
        expect = {"exit": 0, "sha256": golden["closed_form"][str(k)], "contains": "match"}
        jobs.append(_cli(["closed-form", "--k", k], expect))
    jobs.append(_cli(["table"], {"exit": 0, "sha256": golden["table"]}))
    return jobs


def catalogue() -> dict:
    """Every parameter a plan can draw; `record_golden.py` records them all."""
    return {
        "text": sorted({n for band in GEN_TEXT_SLOTS for n in band}),
        "json": sorted({n for band in GEN_JSON_SLOTS for n in band}),
        "count": sorted({n for band in GEN_COUNT_SLOTS for n in band} | set(range(4, 11))),
        "sub": sorted({entry for band in SUB_SLOTS for entry in band}),
        "closed_form": sorted({k for band in CLOSED_FORM_SLOTS for k in band}),
        "verify_exact": sorted(set(EXACT_VERIFY_SIZES) | set(EXACT_SMALL_SIZES)),
        "family": [(family, EXACT_FAMILY_SIZE) for family in FAMILIES],
    }
