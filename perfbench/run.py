"""Benchmark of the cfspectra CLI: seeded job mixes replayed in-process.

    python3 perfbench/run.py --workload expand_deep --seed 1 --seconds 27 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Each job goes through `cfspectra.cli.main(argv)` with `--output` set to a
scratch file, one job in flight (a closed loop with one client). A pass runs
the workload's 100 generated jobs with a fresh cache directory; a run makes
round(--seconds / PASS_SECONDS) passes and keeps each job's fastest time.
Every report is checked by the oracle.

With `--trace 0` the last line carries the end-to-end metrics. With
`--trace 1` one untraced pass is followed by one pass with every public layer
function wrapped from outside, and the last line carries per-layer metrics.
Everything the run writes goes under `.perfbench_work/` and is removed at the
end, except the span dump of the last traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
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
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from time import perf_counter

import oracle  # perfbench/ is on sys.path: this file runs as a script
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"
SETUP_PROBES = 7
# Nominal seconds of one pass on a 2-core machine. A run makes
# round(--seconds / PASS_SECONDS) passes over the same jobs and keeps each
# job's fastest time: a neighbour slowing the machine for a few seconds
# then rarely hits all repetitions of a job.
PASS_SECONDS = 5.4


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, stale reference, ...)."""


def import_cli():
    if not (SRC / "cfspectra" / "cli.py").is_file():
        raise BenchError(f"no cfspectra sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from cfspectra import cli

    if Path(cli.__file__).resolve().parent != (SRC / "cfspectra").resolve():
        raise BenchError(f"imported cfspectra from {cli.__file__}, not from {SRC}")
    return cli


def setup_probe(workload: str, seed: int) -> None:
    """Child process: everything before the first job can be sent."""
    import_cli()
    workloads.WORKLOADS[workload](seed)
    WORK.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(dir=WORK, prefix="probe-")
    print("ready", flush=True)
    shutil.rmtree(cache)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from spawning a fresh interpreter to 'ready'."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"setup probe failed: {err.strip()[-400:]}")
        times.append(elapsed)
    return statistics.median(times)


# ------------------------------------------------------------------ passes

@dataclass
class Outcome:
    code: int | None  # None when the job raised
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    exact: str | None = None  # digest of the certified content
    enclosures: list = field(default_factory=list)


@dataclass
class PassResult:
    latencies: list[float]
    outcomes: list[Outcome]
    cache_bytes: int

    @property
    def jobs_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def judge(job, code, out: Path, check: oracle.Oracle) -> Outcome:
    outcome = Outcome(code)
    if code != job.expect_exit:
        outcome.problems.append(f"exit {code}, expected {job.expect_exit}")
    elif code == 0:
        result = json.loads(out.read_text())["result"]
        content, outcome.enclosures = oracle.certified(job, result)
        outcome.exact = oracle.digest(content)
        key = (tuple(job.argv), outcome.exact, json.dumps(outcome.enclosures))
        if key not in check.passed:  # later passes repeat the same answers
            outcome.problems += check.check(job, result)
            if not outcome.problems:
                check.passed.add(key)
    return outcome


def run_pass(cli, jobs, pass_dir: Path, check: oracle.Oracle, fresh_cache_per_job: bool) -> PassResult:
    pass_dir.mkdir()
    out = pass_dir / "report.json"
    latencies, outcomes = [], []
    for i, job in enumerate(jobs):
        cache = pass_dir / (f"cache-{i}" if fresh_cache_per_job else "cache")
        cache.mkdir(exist_ok=True)
        os.environ["CFSPECTRA_CACHE_DIR"] = str(cache)
        out.unlink(missing_ok=True)
        err = io.StringIO()
        argv = [*job.argv, "--output", str(out)]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            start = perf_counter()
            try:
                code, error = cli.main(argv), None
            except Exception as e:  # a crash is a failed job, and the run goes on
                code, error = None, type(e).__name__
            latencies.append(perf_counter() - start)
        if error is None:
            outcome = judge(job, code, out, check)
            if outcome.problems and err.getvalue():
                outcome.problems.append("stderr: " + err.getvalue().strip()[-200:])
        else:
            outcome = Outcome(None, error)
        outcomes.append(outcome)
    cache_bytes = _dir_bytes(pass_dir) - (out.stat().st_size if out.exists() else 0)
    shutil.rmtree(pass_dir)
    return PassResult(latencies, outcomes, cache_bytes)


# --------------------------------------------------------------- reference

def jobs_digest(jobs) -> str:
    return oracle.digest([job.argv for job in jobs])


def load_reference(workload: str, seed: int, jobs):
    path = REFERENCE / f"{workload}-{seed}.json"
    if not path.exists():
        return None
    ref = json.loads(path.read_text())
    if ref["jobs_digest"] != jobs_digest(jobs):
        raise BenchError(f"{path.name} was recorded for other jobs than this generator makes")
    return ref["jobs"]


def compare_reference(outcomes, ref) -> None:
    for outcome, want in zip(outcomes, ref):
        if want is None or outcome.code is None:
            continue  # the job raised when the reference was recorded, or now
        if outcome.code != want["exit"]:
            outcome.problems.append(f"exit {outcome.code}, reference {want['exit']}")
        elif outcome.exact is not None:
            outcome.problems += oracle.compare(outcome.exact, outcome.enclosures, want)


# ----------------------------------------------------------------- metrics

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer, passes) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, from the traced pass."""
    m = tracer.layer_metrics()
    get = lambda key: m.get(key, 0)  # noqa: E731
    hits, misses = get("cli.cache.hit"), get("cli.cache.miss")
    log_calls = get("enclose.log_ratio_enclosure.calls")
    expand_busy = get("cf.expand.busy_s")
    untraced, traced = passes[0].jobs_per_s, passes[1].jobs_per_s
    derived = {
        "cli.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cli.cache.bytes": passes[1].cache_bytes,
        "cf.expand.quotients_per_s": get("cf.expand.quotients") / expand_busy if expand_busy else 0.0,
        "harness.l1.escalations":
            get("harness.eval_linear_forms.calls") - get("harness.l1_smallness_report.calls"),
        "orbit.candidates": get("orbit.complete_unimodular.calls"),
        "orbit.records_per_log": get("orbit.records") / log_calls if log_calls else 0.0,
        "trace.jobs_per_s_untraced": untraced,
        "trace.jobs_per_s_traced": traced,
        "trace.overhead_ratio": untraced / traced,
        "trace.wall_s": sum(passes[1].latencies),
    }
    return {name: derived.get(name, get(name)) for name in metric_units("per_layer")}


# -------------------------------------------------------------------- main

def run(args) -> dict:
    cli = import_cli()
    setup_s = measure_setup(args.workload, args.seed)
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    ref = load_reference(args.workload, args.seed, jobs)
    check = oracle.Oracle()
    check.prepare(jobs)
    fresh_per_job = args.workload == "expand_deep"
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-{args.seed}-"))
    passes = []
    tracer = None
    n_passes = 2 if args.trace else max(1, round(args.seconds / PASS_SECONDS))
    try:
        for i in range(n_passes):
            if args.trace and i == 1:
                from tracing import Tracer

                tracer = Tracer()
                tracer.install()
            gc.collect()
            try:
                passes.append(run_pass(cli, jobs, run_dir / f"pass-{i}", check, fresh_per_job))
            finally:
                if tracer is not None:
                    tracer.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for p in passes:
        if ref is not None:
            compare_reference(p.outcomes, ref)

    outcomes = [(job, o) for p in passes for job, o in zip(jobs, p.outcomes)]
    failed = [(job, o) for job, o in outcomes if o.code is None or o.problems]
    wrong = [(job, o) for job, o in failed if o.problems]
    # each job's best time over the untraced passes
    timed = passes[:1] if args.trace else passes
    latencies = [min(ts) for ts in zip(*(p.latencies for p in timed))]
    e2e = {
        "setup_s": setup_s,
        "jobs_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} pass(es) of {len(jobs)} jobs, closed loop, 1 client")
    print(f"environment: python {platform.python_version()}, mpmath {_mpmath_info()}, "
          f"nproc {os.cpu_count()}, reference {'yes' if ref is not None else 'none for this seed'}")
    e2e_units = metric_units("end_to_end")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:.6g} {e2e_units[name]}")
    print(f"  {'failed_ratio':<16} {len(failed) / len(outcomes):.6g} ratio "
          f"({len(failed)} of {len(outcomes)})")
    print(f"  {'latency_samples':<16} {len(latencies)} count (best of {len(timed)} per job)")
    print("  pass jobs_per_s: " + " ".join(f"{p.jobs_per_s:.4g}" for p in passes))
    seen = set()
    for job, o in failed:
        key = (tuple(job.argv), o.error, tuple(o.problems))
        if key not in seen:
            seen.add(key)
            what = f"raised {o.error}" if o.error else "; ".join(o.problems)
            print(f"  failed job ({job.kind}): {' '.join(job.argv)} -> {what}")

    if args.trace:
        metrics, units = layer_metrics(tracer, passes), metric_units("per_layer")
        tracer.dump(str(WORK / f"spans-{args.workload}.json"))
    else:
        metrics, units = e2e, e2e_units
    return {
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _mpmath_info() -> str:
    import mpmath
    import mpmath.libmp

    return f"{mpmath.__version__} (backend {mpmath.libmp.BACKEND})"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=27)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        result = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
