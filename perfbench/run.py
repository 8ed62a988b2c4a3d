#!/usr/bin/env python3
"""speedsched benchmark: closed-loop batch jobs through the user's CLI.

One caller runs ``speedsched`` batch jobs back to back by calling
``speedsched.cli.main`` in-process with the job's arguments: passes over a
fixed corpus of jobs per workload, each pass in a fresh child interpreter.
Every job's output is checked.  Run from the repository root:

    python3 perfbench/run.py --workload sweep-exact --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --all        # every workload, untraced and traced

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
separate traced run (see ``perfbench/README.md``).  Every invocation appends
its full record, with every per-job sample, to ``perfbench/runs/records.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"
DIGESTS_FILE = BENCH_DIR / "digests.json"
EXACT_CONFIG = BENCH_DIR / "sweep_exact.json"
GREEDY_CONFIG = BENCH_DIR / "sweep_greedy.json"
REFERENCE_DIR = BENCH_DIR / "reference"

# Every workload runs a fixed corpus of short jobs (about a second each), in an
# order the workload seed shuffles.  Per-instance cost is heavy-tailed (a
# 20-trial verify job takes 0.05-3 s depending on its seed), so random
# 40-second samples of jobs differ by about 12% in cost; with a fixed corpus
# every run does the same work.  Short jobs let the reference points, taken
# between jobs, follow the machine's speed (see REF_SAMPLES).
SETUP_SPAWNS = 7
VERIFY_TRIALS = 20
# Timed inside the child, so the interpreter's own start-up is left out.
SETUP_CODE = (
    "import time; t = time.perf_counter(); import {package}.cli as cli; cli.build_parser(); "
    "print(repr(time.perf_counter() - t))"
)
EXACT_RATIO_SLACK = 1e-9
PASS_TIMEOUT_S = 150
# The shared machine runs the same job up to 45% faster or slower from one
# minute to the next.  So the end-to-end rate is calibrated against a frozen
# copy of the program (reference/speedsched_ref: speedsched as it was when the
# benchmark was defined), timed on a small fixed task of the workload's own
# kind before the first job and after every job (REF_SAMPLES runs of the task
# each time); a pass's time counts in units of the mean reference time taken
# during it.  Set-up time is calibrated the same way, against fresh
# interpreters importing the copy.
REF_SAMPLES = 3
SETUP_NOMINAL_S = 0.075


@dataclasses.dataclass(frozen=True)
class SweepShape:
    """What every CSV of a sweep workload must contain, and its instance shape."""

    n: int
    m: int
    points: int
    instances_per_point: int
    algorithms: tuple[str, ...]
    oracle: str

    @property
    def instances(self) -> int:
        return self.points * self.instances_per_point


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, Path], list[str]]
    shape: SweepShape | None  # None for verify
    corpus: int  # job k of the corpus runs at program seed k * seed_step
    seed_step: int
    reference: Callable  # runs the reference task, given speedsched_ref.harness
    ref_nominal_s: float  # reference-point time of the machine the rate is calibrated to


DEFAULT_ALGORITHMS = ("one-consistent", "ipr(alpha=0.5,rho=4)", "lpt")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-exact",
            lambda seed, _out: ["experiment", "--config", str(EXACT_CONFIG), "--seed", str(seed)],
            SweepShape(12, 4, 11, 10, DEFAULT_ALGORITHMS, "exact"),
            10,  # instance seeds 0-99: the instances of plain `speedsched experiment`
            10,
            lambda h: h.run_experiment(
                h.ExperimentConfig(sweep_values=(10.0,), instances_per_point=4, seed=7)
            ),
            0.03,
        ),
        Workload(
            "sweep-greedy",
            lambda seed, _out: ["experiment", "--config", str(GREEDY_CONFIG), "--seed", str(seed)],
            SweepShape(1000, 50, 11, 3, DEFAULT_ALGORITHMS, "lower_bound"),
            12,
            3,
            lambda h: h.run_experiment(h.ExperimentConfig(
                n=1000, m=50, scheduler="lpt", oracle="lower_bound", sweep_values=(10.0,),
                instances_per_point=1, seed=7,
            )),
            0.025,
        ),
        Workload(
            "verify",
            lambda seed, out: [
                "verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed), "--out", str(out)
            ],
            None,
            12,
            1,
            lambda h: h.verify_properties(seed=1000, trials=2),
            0.025,
        ),
    )
}


def job_seed(workload: Workload, seed: int, k: int) -> int:
    """Program seed of the k-th job of a pass at workload seed ``seed``."""
    order = list(range(workload.corpus))
    random.Random(seed).shuffle(order)
    return order[k] * workload.seed_step


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_sweep(shape: SweepShape, csv_text: str, digest: str | None) -> str | None:
    """Return None when the CSV is right, else what is wrong with it."""
    if digest is not None and hashlib.sha256(csv_text.encode()).hexdigest() != digest:
        return "CSV differs from the recorded digest"
    lines = csv_text.splitlines()
    if not lines or lines[0] != (
        "sweep_param,sweep_value,algorithm,mean_ratio,std_ratio,n_instances,oracle_kind"
    ):
        return "missing or wrong CSV header"
    rows = list(csv.reader(lines[1:]))
    want = shape.points * len(shape.algorithms)
    if len(rows) != want:
        return f"{len(rows)} rows, expected {want}"
    for i, row in enumerate(rows):
        if len(row) != 7:
            return f"row {i} has {len(row)} fields"
        param, value, algo, mean, std, count, oracle = row
        expect_algo = shape.algorithms[i % len(shape.algorithms)]
        expect_value = float(i // len(shape.algorithms) * 2)  # 11 points over [0, mean speed 20]
        if param != "err_sigma" or float(value) != expect_value or algo != expect_algo:
            return f"row {i} is ({param}, {value}, {algo}), expected (err_sigma, {expect_value}, {expect_algo})"
        if int(count) != shape.instances_per_point or oracle != shape.oracle:
            return f"row {i} has n_instances={count} oracle={oracle}"
        mean_f, std_f = float(mean), float(std)
        if not (math.isfinite(mean_f) and mean_f >= 1.0 - EXACT_RATIO_SLACK):
            return f"row {i} mean_ratio {mean} is below 1"
        if not (math.isfinite(std_f) and std_f >= 0.0):
            return f"row {i} std_ratio {std} is not a finite non-negative number"
    return None


def check_verify(report_path: Path) -> tuple[str | None, int]:
    """Return (problem or None, property checks recorded)."""
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"no readable verify report: {exc}", 0
    props = report.get("properties") or []
    trials = sum(int(p["trials"]) for p in props)
    failing = [p["name"] for p in props if p["passed"] != p["trials"]]
    if failing or not report.get("all_passed") or trials < 1:
        return f"properties failing: {failing or 'none recorded'}", trials
    return None, trials


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def run_job(cli_main: Callable, workload: Workload, seed: int, out_path: Path,
            digests: dict[str, str]) -> dict:
    """Run one batch job in-process and check its output.

    Returns the job's sample: seed, wall time, work done, and the check result.
    """
    argv = workload.argv(seed, out_path)
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
    except Exception as exc:  # a raising job is a failed job; the loop goes on
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    text = buf.getvalue()
    sample = {"seed": seed, "wall_s": wall, "exit": code, "work": 0,
              "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}
    if error is None:
        if workload.shape is not None:
            error = check_sweep(workload.shape, text, digests.get(str(seed)))
            work = workload.shape.instances
        else:
            error, work = check_verify(out_path)
        if code != 0:
            error = f"exit code {code}" + (f"; {error}" if error else "")
        if error is None:
            sample["work"] = work
    if workload.shape is None:
        with contextlib.suppress(FileNotFoundError):
            out_path.unlink()
    sample["error"] = error
    return sample


def corpus_pass(cli_main: Callable, workload: Workload, seed: int, digests: dict[str, str],
                out_path: Path) -> dict:
    """Run every job of the workload's corpus once, in the seed's order, with
    a reference point before the first job and after every job."""
    jobs, refs = [], reference_point(workload)
    for k in range(workload.corpus):
        jobs.append(run_job(cli_main, workload, job_seed(workload, seed, k), out_path, digests))
        refs += reference_point(workload)
    return {"jobs": jobs, "reference_s": refs}


def corpus_loop(workload: Workload, seed: int, seconds: float,
                env: dict) -> tuple[list[dict], float]:
    """Run corpus passes back to back for about ``seconds``, each in a fresh
    interpreter, so that no state of the program carries over from one pass
    to the next.  Returns the passes and the largest peak RSS of a pass in MB."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--corpus-pass",
           "--workload", workload.name, "--seed", str(seed)]
    passes, rss_mb = [], 0.0
    start = time.perf_counter()
    while True:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"corpus pass exited {proc.returncode}")
        out = json.loads(proc.stdout.splitlines()[-1])
        rss_mb = max(rss_mb, out.pop("peak_rss_mb"))
        passes.append(out)
        if time_is_up(start, len(passes), seconds):
            return passes, rss_mb


def reference_point(workload: Workload) -> list[float]:
    """Times of REF_SAMPLES runs of the workload's reference task, with the
    garbage collector off: its passes cost in proportion to the whole heap,
    the program's included, and the reference should time the machine alone."""
    from speedsched_ref import harness

    times = []
    gc.disable()
    try:
        for _ in range(REF_SAMPLES):
            start = time.perf_counter()
            workload.reference(harness)
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def rates(workload: Workload, passes: list[dict]) -> tuple[float, float]:
    """Work per second of one pass, uncalibrated and calibrated, each the
    median over the passes.

    The calibrated rate counts a pass's time in units of the mean reference
    time taken during it, converted back to seconds with ``ref_nominal_s``.
    The mean, not the median: the machine switches between speeds, and a pass's
    wall time averages over them as the mean does, where the median jumps to
    whichever speed held more than half the time.  A job that failed in any
    pass adds its time but no work."""
    work = sum(samples[0]["work"] for samples in zip(*(p["jobs"] for p in passes))
               if all(s["error"] is None for s in samples))
    walls = [sum(j["wall_s"] for j in p["jobs"]) for p in passes]
    units = [w / statistics.fmean(p["reference_s"]) for w, p in zip(walls, passes)]
    calibrated = work / (statistics.median(units) * workload.ref_nominal_s)
    return work / statistics.median(walls), calibrated


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_is_up(start: float, done: int, seconds: float) -> bool:
    """True once another pass of the mean length so far would end more than
    half a pass past ``seconds``, so that a run lasts ``seconds`` on average."""
    elapsed = time.perf_counter() - start
    return elapsed * (1.0 + 0.5 / done) >= seconds


def measure_setup(env: dict) -> dict[str, list[float]]:
    """Times for fresh interpreters to import speedsched and build the CLI
    parser, alternating with the same for the frozen copy ``speedsched_ref``;
    the first pair of spawns warms the bytecode and file caches and is dropped."""
    times: dict[str, list[float]] = {"speedsched": [], "speedsched_ref": []}
    for _ in range(SETUP_SPAWNS + 1):
        for package, samples in times.items():
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE.format(package=package)],
                                  env=env, check=True, cwd=ROOT, capture_output=True, text=True)
            samples.append(float(proc.stdout))
    return {package: samples[1:] for package, samples in times.items()}


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def append_record(record: dict) -> None:
    RUNS_DIR.mkdir(exist_ok=True)
    with open(RUNS_DIR / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(cli_main: Callable, workload: Workload, seed: int, seconds: float,
                 env: dict, digests: dict[str, str], out_path: Path) -> tuple[dict, dict]:
    setup = measure_setup(env)
    passes, rss_mb = corpus_loop(workload, seed, seconds, env)
    jobs = [j for p in passes for j in p["jobs"]]
    raw_rate, rate = rates(workload, passes)
    metrics = {
        "calibrated_trials_per_s": metric(rate, "1/s"),
        "setup_s": metric(statistics.median(setup["speedsched"])
                          / statistics.median(setup["speedsched_ref"]) * SETUP_NOMINAL_S, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return metrics, {"jobs": jobs, "setup_s_samples": setup, "trials_per_s": raw_rate,
                     "reference_s_samples": [p["reference_s"] for p in passes]}


def traced_run(cli_main: Callable, workload: Workload, seed: int, seconds: float,
               digests: dict[str, str], out_path: Path) -> tuple[dict, dict]:
    """Run passes over the workload's corpus untraced and then traced, in
    pairs, for about ``seconds``.  Counts must repeat exactly in every traced
    pass."""
    from tracing import COUNT_METRICS, Tracer, per_layer_metrics

    seeds = [job_seed(workload, seed, k) for k in range(workload.corpus)]
    passes = []
    start = time.perf_counter()
    while True:
        plain = [run_job(cli_main, workload, s, out_path, digests) for s in seeds]
        tracer = Tracer()
        tracer.install()
        try:
            root = tracer.root("cli.main", cli_main)
            traced = [run_job(root, workload, s, out_path, digests) for s in seeds]
        finally:
            tracer.uninstall()
        layers = per_layer_metrics(tracer)
        for p, t in zip(plain, traced):
            if t["stdout_sha256"] != p["stdout_sha256"]:
                t["error"] = t["error"] or "traced output differs from the untraced output"
        passes.append({"untraced": plain, "traced": traced, "layers": layers,
                       "spans": len(tracer.spans)})
        if time_is_up(start, len(passes), seconds):
            break
    first = passes[0]["layers"]
    for p in passes[1:]:
        for name in COUNT_METRICS:
            if p["layers"][name] != first[name]:
                p["traced"][0]["error"] = f"count {name} differs between traced passes"
    tracer.write_spans(RUNS_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    metrics = {}
    for name, unit in per_layer_units().items():
        if name == "trace.overhead_share":
            value = (statistics.median(sum(j["wall_s"] for j in p["traced"]) for p in passes)
                     / statistics.median(sum(j["wall_s"] for j in p["untraced"]) for p in passes)
                     - 1.0)
        else:
            value = statistics.median(p["layers"][name] for p in passes)
        metrics[name] = metric(value, unit)
    jobs = [j for p in passes for j in p["untraced"] + p["traced"]]
    return metrics, {"jobs": jobs, "passes": passes}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "speedsched" / "cli.py").is_file():
        print(f"error: no speedsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(REFERENCE_DIR)]
    from speedsched.cli import main as cli_main

    workload = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(REFERENCE_DIR)]
                                        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    digests = json.loads(DIGESTS_FILE.read_text(encoding="utf-8")).get(workload.name, {})
    RUNS_DIR.mkdir(exist_ok=True)
    out_path = RUNS_DIR / f"verify-report-{os.getpid()}.json"
    if args.corpus_pass:
        print(json.dumps({**corpus_pass(cli_main, workload, args.seed, digests, out_path),
                          "peak_rss_mb": peak_rss_mb()}))
        return 0
    if args.trace:
        metrics, detail = traced_run(cli_main, workload, args.seed, args.seconds, digests, out_path)
    else:
        metrics, detail = untraced_run(cli_main, workload, args.seed, args.seconds, env, digests, out_path)
    jobs = detail["jobs"]
    failed = sum(1 for j in jobs if j["error"] is not None)
    for j in jobs:
        if j["error"] is not None:
            print(f"job seed={j['seed']} failed: {j['error']}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    append_record({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv_job0": workload.argv(job_seed(workload, args.seed, 0), out_path),
        "size": (dataclasses.asdict(workload.shape) if workload.shape is not None
                 else {"trials": VERIFY_TRIALS}),
        "corpus_seeds": sorted(job_seed(workload, 0, k) for k in range(workload.corpus)),
        "env": environment(),
        "failed_share": failed / len(jobs),
        "result": result,
        **detail,
    })
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    if "trials_per_s" in detail:
        print(f"{workload.name} trials_per_s (uncalibrated) = {detail['trials_per_s']:.6g} 1/s")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Run every workload untraced and traced in child processes; print every
    metric by name with its unit, and each workload's failed share."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}, no result")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for metric_name, m in result["metrics"].items():
                print(f"{name:13s} {metric_name:44s} {m['value']:14.6g} {m['unit']}")
            print(f"{name:13s} {'failed_share':44s} {result['failed'] / result['attempted']:14.6g} "
                  f"share ({result['failed']}/{result['attempted']} jobs, trace={trace})")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--corpus-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
