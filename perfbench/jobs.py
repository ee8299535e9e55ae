"""Seeded job lists for the three workloads, each job with its output check.

A job is one germkit CLI command.  Its check takes the command's stdout
and says whether it is right, comparing with `reference` (plain-integer
closed forms) or, for the commands in tests/golden, with the golden file
byte for byte.  Inputs are drawn only from what the docs accept: prime
powers q, prime q for `oracle` and `germ solve`, odd prime q for
`gl2 table --modp`, and no oracle job above the default cap.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
STEINBERG = ROOT / "tests" / "data" / "steinberg2.json"

# The oracle refuses enumerations above this many streamed elements unless
# GERMKIT_ORACLE_CAP says otherwise; the benchmark runs with it unset.
DEFAULT_CAP = 10**7

# The golden commands, by file, and the workload that runs each.
GOLDEN_JOBS = {
    "partitions_n6_d.txt": ("closed-form", ["partitions", "--n", "6", "--show", "d"]),
    "dimpoly_steinberg.txt": ("closed-form", ["germ", "dimpoly", "--in", str(STEINBERG),
                                              "--family", "K", "--q", "3", "--d", "1"]),
    "gl2_table_q3_d1_modp.txt": ("closed-form", ["gl2", "table", "--q", "3", "--d", "1", "--modp"]),
    "qcount_21_q2.txt": ("closed-form", ["qcount", "--partition", "2,1", "--q", "2"]),
    "cosets_n2_q3_j1.json": ("closed-form", ["cosets", "--n", "2", "--q", "3", "--j", "1", "--json"]),
    "ximatrix_n2_q2.json": ("oracle-cold", ["oracle", "--n", "2", "--q", "2", "--check", "ximatrix", "--json"]),
    "ximatrix_n3_q2.json": ("oracle-cold", ["oracle", "--n", "3", "--q", "2", "--check", "ximatrix", "--json"]),
}

# oracle-cold: the fixed grid of (check, n, q); (3,5) ximatrix streams 5^9
# matrices and runs for minutes, so it is left out.
ORACLE_GRID = (
    ("ximatrix", 2, 3), ("ximatrix", 3, 2), ("ximatrix", 3, 3), ("ximatrix", 4, 2),
    ("cosets", 4, 2), ("cosets", 4, 3), ("cosets", 3, 5), ("jordan", 3, 3),
)

# solve-warm: the five (n, q) the workload covers.  No weights are given
# for them, so each gets SOLVE_PER_NQ round trips.  The 75 jobs sort into
# five classes of 15 by (n, q): the median is the middle job of the third
# class, a small case, and the tail percentile (p86.67, 10 jobs beyond it)
# is the fifth-fastest of the fifteen (3,3) jobs.  The set of jobs is
# fixed, so neither percentile depends on the host's speed.
SOLVE_NQ = ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3))
SOLVE_PER_NQ = 15


@dataclass
class Job:
    kind: str
    argv: list[str]
    check: Callable[[str], bool]
    nq: tuple[int, int] | None = None  # (n, q) of a job that builds the oracle matrix


def write_input(work: Path, name: str, obj) -> str:
    """Write a job's JSON input file into the run's work directory."""
    path = work / name
    path.write_text(json.dumps(obj))
    return str(path)


def golden_job(name: str) -> Job:
    text = (GOLDEN / name).read_text()
    return Job("golden:" + name, GOLDEN_JOBS[name][1], lambda out: out == text)


def _json_equals(expected) -> Callable[[str], bool]:
    return lambda out: json.loads(out) == expected


def _random_map(rng: random.Random, n: int, density: float, full: bool = False) -> dict:
    """A nonzero coefficient map with values in [-9, 9] \\ {0}."""
    parts = ref.partitions(n)
    support = [lam for lam in parts if full or rng.random() < density] or [rng.choice(parts)]
    return {lam: rng.choice((-1, 1)) * rng.randint(1, 9) for lam in support}


def _assert_cap(check: str, n: int, q: int) -> None:
    """Refuse a job whose enumeration would exceed the default cap.

    `cosets` streams at most the full flags of F_q^n; `ximatrix`, `jordan`
    and `germ solve` stream all q^(n^2) matrices.
    """
    streamed = ref.coset_count((1,) * n, q) if check == "cosets" else q ** (n * n)
    if streamed > DEFAULT_CAP:
        raise ValueError(f"oracle job {check} at n={n}, q={q} streams {streamed} > {DEFAULT_CAP} elements")


# ---------------------------------------------------------------------------
# closed-form


def _partitions_job(rng, work, tag, n):
    expected = [{"partition": list(lam), "d": ref.d_of(lam), "dual": list(ref.dual(lam))}
                for lam in ref.partitions(n)]
    argv = ["partitions", "--n", str(n), "--show", "d", "--show", "dual", "--json"]
    return Job("partitions", argv, _json_equals(expected))


def _qcount_job(rng, work, tag, n):
    lam = rng.choice(ref.partitions(n))
    q = rng.choice(ref.PRIME_POWERS)
    value = ref.coset_count(lam, q)

    def check(out):
        rec = json.loads(out)
        poly_at_q = sum(c * q**k for k, c in enumerate(rec["poly"]))
        return rec["partition"] == list(lam) and rec["value"] == value == poly_at_q

    argv = ["qcount", "--partition", ",".join(map(str, lam)), "--q", str(q), "--json"]
    return Job("qcount", argv, check)


def _cosets_job(rng, work, tag, nj):
    (n, j), q = nj, rng.choice(ref.PRIME_POWERS[:7])
    argv = ["cosets", "--n", str(n), "--q", str(q), "--j", str(j), "--json"]
    return Job("cosets", argv, _json_equals(ref.cosets_records(n, q, j)))


def _dimpoly_job(rng, work, tag, n_family):
    n, family = n_family
    cmap = _random_map(rng, n, 0.5)
    q, d = rng.choice(ref.PRIME_POWERS[:7]), rng.randint(1, 3)
    expected = ref.dimpoly_record(cmap, n, family, q, d)
    path = write_input(work, tag + ".json", ref.map_json(n, cmap))

    def check(out):
        rec = json.loads(out)
        rec.pop("pretty")
        return rec == expected

    argv = ["germ", "dimpoly", "--in", path, "--family", family, "--q", str(q), "--d", str(d), "--json"]
    return Job("dimpoly", argv, check)


def _induce_job(rng, work, tag, count):
    argv = ["germ", "induce"]
    maps = []
    for i in range(count):
        n = rng.randint(1, 5)
        maps.append(_random_map(rng, n, 0.5, full=rng.random() < 0.3))
        argv += ["--in", write_input(work, f"{tag}_{i}.json", ref.map_json(n, maps[-1]))]
    total = sum(sum(next(iter(m))) for m in maps)
    return Job("induce", argv, _json_equals(ref.map_json(total, ref.induce(maps))))


def _jl_job(rng, work, tag, nd):
    n, d = nd
    cmap = _random_map(rng, n, 0.5)
    sign = (-1) ** (d * n - n)
    expected = {tuple(d * p for p in lam): sign * v for lam, v in cmap.items()}
    argv = ["germ", "jl", "--in", write_input(work, tag + ".json", ref.map_json(n, cmap)), "--d", str(d)]
    return Job("jl", argv, _json_equals(ref.map_json(d * n, expected)))


def _lj_job(rng, work, tag, nd):
    n, d = nd
    cmap = _random_map(rng, d * n, 0.3)  # entries off the image d*lam are dropped
    sign = (-1) ** (d * n - n)
    expected = {lam: sign * cmap.get(tuple(d * p for p in lam), 0) for lam in ref.partitions(n)}
    argv = ["germ", "lj", "--in", write_input(work, tag + ".json", ref.map_json(d * n, cmap)), "--d", str(d)]
    return Job("lj", argv, _json_equals(ref.map_json(n, expected)))


def _whittaker_job(rng, work, tag, n):
    cmap = _random_map(rng, n, 0.3)
    low = ref.minimal(cmap)
    for lam in low:  # an actual representation has positive minimal values
        cmap[lam] = abs(cmap[lam])
    expected = {"n": n, "dims": [{"partition": list(lam), "value": cmap[lam]}
                                 for lam in sorted(low, reverse=True)]}
    argv = ["germ", "whittaker", "--in", write_input(work, tag + ".json", ref.map_json(n, cmap)), "--json"]
    return Job("whittaker", argv, _json_equals(expected))


def _gl2_job(rng, work, tag, qj):
    q, j = qj
    argv = ["gl2", "table", "--q", str(q), "--j", str(j), "--modp", "--json"]
    return Job("gl2", argv, _json_equals(ref.gl2_table(q, 1, j, True)))


# kind -> (jobs per pass, job maker, grid of the parameters that set the job's size).
# The workload's job list gives no weights, so each of its eight kinds of
# command gets four jobs per pass; `germ jl` and `germ lj` share theirs.
CLOSED_KINDS = {
    "partitions": (4, _partitions_job, range(4, 21)),
    "qcount": (4, _qcount_job, range(1, 15)),
    "cosets": (4, _cosets_job, [(n, j) for n in range(2, 11) for j in range(4)]),
    "dimpoly": (4, _dimpoly_job, [(n, f) for n in range(2, 15) for f in ref.FAMILIES]),
    "induce": (4, _induce_job, range(2, 7)),
    "jl": (2, _jl_job, [(n, d) for n in range(1, 9) for d in range(1, 4)]),
    "lj": (2, _lj_job, [(n, d) for n in range(1, 7) for d in range(1, 4)]),
    "whittaker": (4, _whittaker_job, range(2, 11)),
    "gl2": (4, _gl2_job, [(q, j) for q in ref.PRIMES[1:8] for j in range(4)]),
}


def _deal(seed: int, kind: str, grid, index: int, count: int) -> list:
    """The grid entries for the `count` jobs of `kind` in pass `index`.

    The seed fixes one permutation of the grid and the passes deal it out
    in turn, so every run covers the grid evenly: job sizes, and with them
    the metrics, do not depend on the luck of the draw.  Two seeds differ
    in order and in everything drawn within an entry.
    """
    perm = list(grid)
    random.Random(f"closed-form:{kind}:{seed}").shuffle(perm)
    return [perm[(index * count + i) % len(perm)] for i in range(count)]


def closed_form_pass(seed: int, index: int, work: Path) -> list[Job]:
    """One pass: the CLOSED_KINDS jobs, dealt, plus the closed-form golden jobs, shuffled."""
    rng = random.Random(f"closed-form:{seed}:{index}")
    jobs = [golden_job(name) for name, (workload, _) in GOLDEN_JOBS.items() if workload == "closed-form"]
    for kind, (count, maker, grid) in CLOSED_KINDS.items():
        for i, param in enumerate(_deal(seed, kind, grid, index, count)):
            jobs.append(maker(rng, work, f"p{index}_{kind}{i}", param))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# oracle-cold


def _oracle_check(check: str, n: int, q: int) -> Callable[[str], bool]:
    parts = ref.partitions(n)

    def ok_item(item) -> bool:
        if check == "ximatrix":
            row, col = tuple(item["row"]), tuple(item["col"])
            if row == col:
                return item["observed"] == 1
            return ref.dominated(col, row) or item["observed"] == 0
        if check == "cosets":
            count = ref.coset_count(tuple(item["partition"]), q)
            return item["expected"] == item["observed"] == item["order_quotient"] == count
        if "census" in item:
            return item["observed"] == q ** (n * n - n)
        return item["observed"] == item["partition"]

    def verify(out: str) -> bool:
        rep = json.loads(out)
        size = {"ximatrix": len(parts) ** 2, "cosets": len(parts), "jordan": len(parts) + 1}[check]
        return (rep["pass"] is True and (rep["check"], rep["n"], rep["q"]) == (check, n, q)
                and len(rep["items"]) == size and all(ok_item(i) for i in rep["items"]))

    return verify


def oracle_cold_jobs(seed: int) -> list[Job]:
    """The fixed grid plus the two golden oracle commands, in a seeded order."""
    jobs = [golden_job(name) for name, (workload, _) in GOLDEN_JOBS.items() if workload == "oracle-cold"]
    for job in jobs:
        job.nq = (int(job.argv[2]), int(job.argv[4]))
    for check, n, q in ORACLE_GRID:
        _assert_cap(check, n, q)
        argv = ["oracle", "--n", str(n), "--q", str(q), "--check", check, "--json"]
        jobs.append(Job(f"oracle:{check}:n{n}q{q}", argv, _oracle_check(check, n, q), (n, q)))
    random.Random(f"oracle-cold:{seed}").shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# solve-warm


def golden_matrices() -> dict[tuple[int, int], dict]:
    """M[row][col] from the golden ximatrix reports, keyed by (n, q)."""
    out = {}
    for name in ("ximatrix_n2_q2.json", "ximatrix_n3_q2.json"):
        rep = json.loads((GOLDEN / name).read_text())
        M: dict = {}
        for item in rep["items"]:
            M.setdefault(tuple(item["row"]), {})[tuple(item["col"])] = item["observed"]
        out[(rep["n"], rep["q"])] = M
    return out


def solve_warm_jobs(seed: int, work: Path, M_ref: dict) -> list[Job]:
    """SOLVE_PER_NQ round trips per (n, q) in SOLVE_NQ, shuffled: solve m = M c and expect c back."""
    rng = random.Random(f"solve-warm:{seed}")
    slots = [nq for nq in SOLVE_NQ for _ in range(SOLVE_PER_NQ)]
    rng.shuffle(slots)
    jobs = []
    for i, (n, q) in enumerate(slots):
        _assert_cap("solve", n, q)
        c = _random_map(rng, n, 0.7)
        M = M_ref[(n, q)]
        m = {lam: sum(c.get(mu, 0) * M[lam][mu] for mu in M[lam]) for lam in ref.partitions(n)}
        path = write_input(work, f"solve{i}.json", ref.map_json(n, m))
        argv = ["germ", "solve", "--in", path, "--q", str(q)]
        jobs.append(Job(f"solve:n{n}q{q}", argv, _json_equals(ref.map_json(n, c)), (n, q)))
    return jobs
