"""cvcluster benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced iterations and reports per-layer metrics
instead (see README.md). Either way the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and a result
file with a provenance block is written to ``perfbench/results/``.

Load model: one client in a closed loop inside this process; the next
operation starts when the previous one returns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Fresh interpreters launched to time ``import cvcluster.cli``, spread
#: evenly over the timed loop so their median spans the whole run; one
#: more is launched first and discarded (it may compile bytecode).
SETUP_LAUNCHES = 9
#: One process, no extra threads: keep numpy's BLAS pool single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Problems kept in the result file for diagnosis.
KEEP_PROBLEMS = 20

UNITS = {
    "wall_s": "s", "wall_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns (value, percentile, samples beyond). With too few samples for
    the rule, the maximum is returned with the samples actually beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


class Tally:
    """Attempted and failed operations, plus the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:KEEP_PROBLEMS - len(self.problems)])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def run_iteration(op_list, workdir: Path, golden: dict, tally: Tally, tracer=None) -> float:
    """Run every operation once in a fresh directory; returns seconds in ``main``.

    Outputs are checked after the last operation, with tracing off, so
    checking costs neither the timing nor the spans.
    """
    import ops

    workdir.mkdir(parents=True)
    try:
        if tracer is not None:
            tracer.install()
        try:
            outcomes = [ops.execute(op.argv, workdir) for op in op_list]
        finally:
            if tracer is not None:
                tracer.uninstall()
        for op, (code, _, stdout, stderr) in zip(op_list, outcomes):
            tally.record(ops.check(op, code, stdout, stderr, workdir, golden))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return sum(outcome[1] for outcome in outcomes)


def launch_setup(env: dict) -> float:
    """Wall time of a fresh interpreter that only imports ``cvcluster.cli``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cvcluster.cli"], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, samples: dict) -> dict:
    import numpy

    sources = hashlib.sha256()
    for path in sorted((SRC / "cvcluster").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("figures", "certify", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    if not (SRC / "cvcluster" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'cvcluster'} not found; run from a full checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import cvcluster

    if Path(cvcluster.__file__).resolve().parent != (SRC / "cvcluster").resolve():
        raise SystemExit(f"error: imported cvcluster from {cvcluster.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _import_program()
    import ops
    import tracing

    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup_times: list[float] = []
    if not args.trace:
        launch_setup(env)

    golden = ops.load_golden()
    op_list = ops.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    tally = Tally()
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    plain: list[float] = []
    traced: list[float] = []
    try:
        run_iteration(op_list, work / "warmup", golden, tally)
        start = time.perf_counter()
        k = 0
        while (elapsed := time.perf_counter() - start) < args.seconds or (tracer and not traced):
            if tracer is None and len(setup_times) < min(
                    SETUP_LAUNCHES, 1 + elapsed * SETUP_LAUNCHES / args.seconds):
                setup_times.append(launch_setup(env))
            use_tracer = tracer is not None and k % 2 == 1
            if use_tracer:
                tracer.begin_iteration(k)
            seconds = run_iteration(op_list, work / f"it{k}", golden, tally,
                                    tracer if use_tracer else None)
            if use_tracer:
                tracer.end_iteration()
            (traced if use_tracer else plain).append(seconds)
            k += 1
        while tracer is None and len(setup_times) < SETUP_LAUNCHES:
            setup_times.append(launch_setup(env))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "figures":
            # The other golden variants, once per run, after the peak RSS
            # reading so they do not inflate it.
            for variant, variant_argv in ops.FIGURE_VARIANTS.items():
                if variant != "grid201-csv":
                    op = ops.Op(tuple(variant_argv), "figures", 0, {"variant": variant})
                    run_iteration([op], work / variant, golden, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report: dict = {"iteration_s": plain, "problems": tally.problems}
    samples = {"iterations": len(plain), "ops_per_iteration": len(op_list),
               "ops_attempted": tally.attempted}
    if tracer is None:
        value, pct, beyond = tail(plain)
        metrics = {
            "wall_s": statistics.median(plain),
            "wall_tail_s": value,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - tally.failed_frac,
        }
        units = UNITS
        samples.update(setup_launches=len(setup_times), tail_percentile=pct,
                       tail_samples_beyond=beyond)
        report["setup_launch_s"] = setup_times
    else:
        metrics, stable = tracer.metrics()
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_frac"] = overhead / statistics.median(plain)
        units = {key: tracing.unit(key) for key in metrics}
        samples.update(traced_iterations=len(traced))
        report.update(traced_iteration_s=traced, counts_stable=stable)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(RESULTS_DIR / f"{stem}.spans.npz")
    report.update(provenance=provenance(args, samples), metrics=metrics,
                  attempted=tally.attempted, failed=tally.failed)
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced"
          + (f" + {len(traced)} traced" if traced else "")
          + f" iterations of {len(op_list)} ops, {tally.failed}/{tally.attempted} ops failed")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    if tracer is None:
        print(f"  wall_tail_s is p{samples['tail_percentile']:.1f} of {len(plain)} "
              f"iterations ({samples['tail_samples_beyond']} beyond it)")
    for key, value in metrics.items():
        print(f"  {key:36s} {value:>14.6g} {units[key]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
