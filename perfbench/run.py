"""germkit benchmark: end-to-end CLI metrics, or per-layer metrics with --trace 1.

Usage (from the repository root):

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

Workloads: closed-form, oracle-cold, solve-warm, or `all` (each in turn, in
its own process).  One closed-loop client issues each job after the
previous one finished; nothing runs in parallel.  closed-form runs whole
passes of its job list for --seconds; oracle-cold and solve-warm run
one fixed job list each.  Times are scaled to a reference host speed
(see hostspeed.py).  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; the lines before it record the
environment and every metric with its unit and sample count.  See
README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import hostspeed
import jobs as J
import layers

ROOT = J.ROOT
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORKLOADS = ("closed-form", "oracle-cold", "solve-warm")
CHILD_TIMEOUT_S = 150
SETUP_EVERY = 4  # closed-form passes per repeated set-up
UNITS = dict(layers.LAYER_UNITS, **{"jobs.nq_repeat_ratio": "1", "trace.untraced_jobs_per_s": "1/s",
                                    "trace.traced_jobs_per_s": "1/s"})


@dataclass
class Sample:
    """Latencies and outcomes of the jobs run so far.

    `wall` holds the latencies as measured, and `kernel` the host-speed
    kernel times of each measured interval in run order (see hostspeed.py).
    `scale` turns them into `latencies` and `setups` at the reference
    host speed.
    """

    wall: list[float] = field(default_factory=list)
    spans: list[int] = field(default_factory=list)  # each job's interval in `kernel`
    kinds: list[str] = field(default_factory=list)
    kernel: list[list[float]] = field(default_factory=list)
    setup_wall: list[tuple[float, int]] = field(default_factory=list)  # (time, interval)
    latencies: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_failure: str = ""
    nq_jobs: int = 0
    nq_repeats: int = 0

    @property
    def jobs_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.latencies)

    @property
    def wall_jobs_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.wall)

    def interval(self, kernel_times: list[float]) -> int:
        self.kernel.append(kernel_times)
        return len(self.kernel) - 1

    def record(self, job: J.Job, dt: float, span: int, error: str) -> None:
        self.attempted += 1
        self.wall.append(dt)
        self.spans.append(span)
        self.kinds.append(job.kind)
        if error:
            self.failed += 1
            self.first_failure = self.first_failure or f"{job.kind} {job.argv}: {error}"

    def note_nq(self, job: J.Job, built: set) -> None:
        """Count oracle-backed jobs whose (n, q) the process had already built."""
        if job.nq is not None:
            self.nq_jobs += 1
            self.nq_repeats += job.nq in built
            built.add(job.nq)

    def scale(self) -> None:
        by_interval = hostspeed.factors(self.kernel)
        self.factors = [by_interval[i] for i in self.spans]
        self.latencies = [dt * f for dt, f in zip(self.wall, self.factors)]
        self.setups = [dt * by_interval[i] for dt, i in self.setup_wall]


def measure(units, run_job, sample: Sample, scale: bool, in_process: bool) -> Sample:
    """Run each unit: a set-up or None, then a list of jobs.

    A set-up returns (time, kernel times).  run_job(sample, job) returns
    (latency, error, kernel times); a job that ran in this process returns
    None for the kernel times.  With `scale`, the jobs of an `in_process`
    unit form one interval, timed under hostspeed.measured, and a child
    process's job is an interval of its own; the latencies are scaled at
    the end.  Without it they stay as measured.
    """

    def run_jobs(jobs):
        return [(job, *run_job(sample, job)) for job in jobs]

    for setup, jobs in units:
        if setup:
            dt, kernel_times = setup()
            sample.setup_wall.append((dt, sample.interval(kernel_times)))
        if scale and in_process:
            results, _, kernel_times = hostspeed.measured(run_jobs, jobs)
        else:
            results, kernel_times = run_jobs(jobs), []
        shared = None
        for job, dt, error, own in results:
            if own is None and shared is None:
                shared = sample.interval(kernel_times)
            sample.record(job, dt, shared if own is None else sample.interval(own), error)
    if scale:
        sample.scale()
    else:
        sample.latencies = list(sample.wall)
    return sample


def _verdict(job: J.Job, code, out: str) -> str:
    """'' when the job exited 0 and its output passed its check, else why not."""
    if code != 0:
        return f"exit code {code}"
    try:
        return "" if job.check(out) else "wrong output"
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"


def run_in_process(job: J.Job, out_bytes: list):
    """Call germkit.cli.main on the job's argv with stdout captured."""
    cli = sys.modules["germkit.cli"]
    out, err = io.StringIO(), io.StringIO()
    t0 = hostspeed.now()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(job.argv)
    except Exception as exc:  # a traceback is a failed job, not a failed run
        code = f"exception {exc!r}"
    dt = hostspeed.now() - t0
    out_bytes.append(len(out.getvalue().encode()))
    return dt, _verdict(job, code, out.getvalue()), None


def first_import():
    """Import germkit (the CLI imports every module); returns germkit.oracle."""
    import germkit.cli  # noqa: F401

    return sys.modules["germkit.oracle"]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))


# A repeated set-up, in a new process so that it leaves the session's state
# and memory alone: import germkit and build the oracle matrix of each
# (n, q) given.  The child prints the time this took, process start-up
# excluded, and the host-speed kernel times taken meanwhile.
SETUP_CHILD = """
import json, sys, hostspeed
def setup():
    import germkit.cli
    for nq in {nqs!r}:
        sys.modules["germkit.oracle"].multiplicity_matrix(*nq)
print(json.dumps(hostspeed.measured(setup)[1:]))
"""


def setup_child(nqs=()) -> tuple[float, list[float]]:
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD.format(nqs=tuple(nqs))], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return tuple(json.loads(proc.stdout))


def closed_form_units(seed: int, work: Path, seconds: float, setup):
    """Passes, a set-up before every SETUP_EVERY-th, until the next pass would end after `seconds`."""
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        yield setup if index % SETUP_EVERY == 0 else None, J.closed_form_pass(seed, index, work)
        index += 1
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            return


@dataclass
class Session:
    """What a workload's first set-up leaves for its jobs."""

    units: Callable  # seconds -> iterable of (set-up or None, jobs)
    first_setup: tuple[float, list[float]] | None  # (time, kernel times)
    correct: bool = True
    built: set = field(default_factory=set)  # (n, q) whose oracle matrix this process built


def set_up(workload: str, seed: int, work: Path, tracer) -> Session:
    """The workload's first set-up, and the units that repeat it during the run.

    Set-ups are repeated during the run, not in a burst at its start, so
    that their median does not hinge on one moment of the host's load.
    A traced run repeats none.
    """
    if workload == "closed-form":
        setup = None if tracer else setup_child
        return Session(lambda seconds: closed_form_units(seed, work, seconds, setup),
                       hostspeed.measured(first_import)[1:])
    if workload == "oracle-cold":
        first_import()  # only so that the environment record can read the oracle's cap
        jobs = J.oracle_cold_jobs(seed)
        setup = None if tracer else (lambda: hostspeed.measured(J.oracle_cold_jobs, seed)[1:])
        return Session(lambda seconds: [(setup, [job]) for job in jobs], None)

    def first():
        oracle = first_import()
        if tracer:  # the warm-up's streaming belongs to the per-layer counts
            tracer.install()
        try:
            return {nq: oracle.multiplicity_matrix(*nq) for nq in J.SOLVE_NQ}
        finally:
            if tracer:
                tracer.uninstall()

    matrices, dt, kernel_times = hostspeed.measured(first)
    M_ref = {nq: {tuple(lam): {tuple(mu): v for mu, v in row.items()} for lam, row in M.items()}
             for nq, M in matrices.items()}
    golden_ok = all(M_ref[nq] == M for nq, M in J.golden_matrices().items())
    jobs = J.solve_warm_jobs(seed, work, M_ref)
    # Two more set-ups, a third and two thirds of the way in.
    repeat_at = () if tracer else (len(jobs) // 3, 2 * len(jobs) // 3)
    setup = functools.partial(setup_child, J.SOLVE_NQ)

    def units(seconds):
        return [(setup if i in repeat_at else None, [job]) for i, job in enumerate(jobs)]

    return Session(units, (dt, kernel_times), golden_ok, set(J.SOLVE_NQ))


def job_runner(workload: str, session: Session, traced: bool, work: Path, raw: dict, out_bytes: list):
    """The function that runs one job of the workload and returns (latency, error, kernel times)."""
    if workload != "oracle-cold":
        def run(sample, job):
            sample.note_nq(job, session.built)
            return run_in_process(job, out_bytes)
        return run

    def run_cold(sample, job):
        sample.note_nq(job, set())  # every child starts with nothing built
        return run_child(job, traced, work, raw, out_bytes)
    return run_cold


def run_child(job: J.Job, traced: bool, work: Path, raw: dict, out_bytes: list):
    """Run the job in a new process through launch.py; the latency leaves out its probes."""
    speed, stats = work / "child-speed.json", work / "child-stats.json"
    cmd = [sys.executable, str(BENCH / "launch.py"), str(speed), str(stats) if traced else "-", *job.argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, f"timed out after {CHILD_TIMEOUT_S} s", None
    dt = time.perf_counter() - t0
    out_bytes.append(len(proc.stdout))
    if traced and stats.exists():
        layers.merge(raw, json.loads(stats.read_text()))
        stats.unlink()
    if not speed.exists():  # the child died before its last probe
        return dt, f"exit code {proc.returncode}, no host-speed record", None
    probes = json.loads(speed.read_text())
    speed.unlink()
    return dt - probes["overhead_s"], _verdict(job, proc.returncode, proc.stdout.decode()), probes["kernel"]


# ---------------------------------------------------------------------------
# reporting


def quantile(sorted_values: list[float], q: float) -> float:
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """p95 from 200 samples on; below that the highest percentile with 10 samples
    beyond it; below 21 samples no percentile has that, and the maximum is used."""
    if n >= 200:
        return 0.95
    if n > 20:
        return 1 - 10 / n
    return 1.0


def environment(workload: str, seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "germkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        line = head.read_text().strip()
        target = ROOT / ".git" / line[5:] if line.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else line
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "commit": commit, "src_sha256": digest.hexdigest(),
        "oracle_cap": sys.modules["germkit.oracle"].DEFAULT_CAP, "GERMKIT_ORACLE_CAP": "unset",
    }


def end_to_end(workload: str, sample: Sample, rss_mb: float) -> tuple[dict, list[str]]:
    lat = sorted(sample.latencies)
    n = len(lat)
    tail = tail_quantile(n)
    beyond = n - 1 - int(tail * (n - 1))
    cut = quantile(lat, tail)
    metrics = {
        "setup_s": (statistics.median(sample.setups), "s", f"median of {len(sample.setups)} set-ups"),
        "jobs_per_s": (sample.jobs_per_s, "1/s", f"{sample.attempted - sample.failed} jobs"),
        "job_p50_ms": (1000 * statistics.median(lat), "ms", f"p50 of n={n}"),
        "job_p95_ms": (1000 * cut, "ms", f"p{100 * tail:.4g} of n={n}, {beyond} beyond"),
        "peak_rss_mb": (rss_mb, "MB", "children's maximum" if workload == "oracle-cold" else "this process"),
    }
    lines = [f"{workload} {name} {value!r} {unit} ({note})" for name, (value, unit, note) in metrics.items()]
    lines.append(f"{workload} fail_ratio {sample.failed / sample.attempted!r} 1 "
                 f"({sample.failed} of {sample.attempted} jobs)")
    wall, factors = sorted(sample.wall), sample.factors
    lines.append(f"{workload} times above are scaled to the reference host speed; host factor median "
                 f"{statistics.median(factors):.3f} (range {min(factors):.3f}-{max(factors):.3f}, "
                 f"{len(factors)} jobs); unscaled job p50 {1000 * statistics.median(wall):.4g} ms, "
                 f"p{100 * tail:.4g} {1000 * quantile(wall, tail):.4g} ms, jobs_per_s "
                 f"{(sample.attempted - sample.failed) / sum(wall):.4g}")
    by_kind: dict = {}
    for kind, t in zip(sample.kinds, sample.latencies):
        by_kind.setdefault(kind, []).append(t)
    lines.append(f"{workload} median job ms by kind: " + ", ".join(
        f"{kind} {1000 * statistics.median(ts):.4g} (n={len(ts)})" for kind, ts in sorted(by_kind.items())))
    tail_kinds = Counter(kind for kind, t in zip(sample.kinds, sample.latencies) if t >= cut)
    lines.append(f"{workload} jobs at or beyond p{100 * tail:.4g} by kind: "
                 + ", ".join(f"{kind} {count}" for kind, count in tail_kinds.most_common()))
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}, lines


def per_layer(workload: str, raw: dict, plain: Sample, traced: Sample) -> tuple[dict, list[str]]:
    values = layers.layer_metrics(raw)
    values["jobs.nq_repeat_ratio"] = traced.nq_repeats / traced.nq_jobs if traced.nq_jobs else 0.0
    values["trace.untraced_jobs_per_s"] = plain.wall_jobs_per_s
    values["trace.traced_jobs_per_s"] = traced.wall_jobs_per_s
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    lines = [f"{workload} {name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"{workload} tracing overhead {100 * (plain.wall_jobs_per_s / traced.wall_jobs_per_s - 1):.1f}% "
                 f"(unscaled jobs_per_s {plain.wall_jobs_per_s:.4g} untraced vs {traced.wall_jobs_per_s:.4g} "
                 f"traced, {traced.attempted} jobs each)")
    main_s = raw.get("cli.main.s", 0)
    if main_s and workload != "solve-warm":  # solve-warm also traces its warm-up, outside cli.main
        shares = sorted(((raw.get(group + ".s", 0) / main_s, group) for group in layers.GROUPS), reverse=True)
        lines.append(f"{workload} inclusive share of time in cli.main: "
                     + ", ".join(f"{group} {100 * share:.1f}%" for share, group in shares if group != "cli.main"))
    return metrics, lines


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    tracer = layers.Tracer() if trace else None
    session = set_up(workload, seed, work, tracer)
    in_process = workload != "oracle-cold"  # oracle-cold runs each job in a child process
    raw: dict = {}
    out_bytes: list = []

    def runner(traced):  # cli.output_bytes counts the traced runs only
        return job_runner(workload, session, traced, work, raw, out_bytes if traced else [])

    if not trace:
        sample = Sample()
        if session.first_setup:
            dt, kernel_times = session.first_setup
            sample.setup_wall.append((dt, sample.interval(kernel_times)))
        measure(session.units(seconds), runner(False), sample, scale=True, in_process=in_process)
        who = resource.RUSAGE_CHILDREN if workload == "oracle-cold" else resource.RUSAGE_SELF
        metrics, lines = end_to_end(workload, sample, resource.getrusage(who).ru_maxrss / 1024)
    else:
        # Each job runs traced and then untraced, back to back, so that the
        # overhead is measured on the same jobs at nearly the same moment and
        # the traced run sees no cache filled by the untraced one.
        plain = Sample()
        run_plain, run_traced = runner(False), runner(True)

        def paired(sample, job):
            if in_process:  # oracle-cold children trace themselves
                tracer.install()
            try:
                result = run_traced(sample, job)
            finally:
                if in_process:
                    tracer.uninstall()
            dt, error, _ = run_plain(plain, job)
            plain.record(job, dt, -1, error)
            return result

        sample = measure(session.units(seconds), paired, Sample(), scale=False, in_process=in_process)
        if in_process:
            tracer.finish()
            layers.merge(raw, tracer.raw)
        raw["cli.output_bytes"] = sum(out_bytes)
        metrics, lines = per_layer(workload, raw, plain, sample)
        sample.attempted += plain.attempted
        sample.failed += plain.failed
        sample.first_failure = sample.first_failure or plain.first_failure
    if sample.first_failure:
        lines.append(f"{workload} first failure: {sample.first_failure}")
    if not session.correct:
        lines.append(f"{workload} oracle matrices differ from tests/golden")
    return {
        "lines": [f"env {json.dumps(environment(workload, seed))}"] + lines,
        "result": {"correct": session.correct and sample.failed == 0, "attempted": sample.attempted,
                   "failed": sample.failed, "metrics": metrics},
    }


def run_all(args) -> int:
    """Each workload in its own process; prints every line and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "germkit" / "cli.py", J.GOLDEN, J.STEINBERG) if not p.exists()]
    if missing:
        print(f"perfbench: not a germkit checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("GERMKIT_ORACLE_CAP", None)
    sys.path.insert(0, str(SRC))
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
