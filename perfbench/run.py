"""qmht benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mixed-power --seed 1 --seconds 20 --trace 0

Workloads are ``mixed-power``, ``scenario-cli`` and ``dense-detectors`` (see
perfbench/README.md). One process runs the jobs in a closed loop with one
client. BLAS runs one thread (``OPENBLAS_NUM_THREADS=1``), which the run
prints with the other machine facts.

``--trace 0`` runs the job set once untraced and reports the end-to-end
metrics. Its times are given at the reference host speed: a fixed kernel is
timed after every job and the measured times are scaled by its reference
time over its mean (see perfbench/calibrate.py); the times as measured are
printed above the result.

``--trace 1`` builds the job set for half the seconds, runs it once untraced
and once with the layer tracer installed, writes the spans to
``.perfbench/`` and reports the per-layer metrics and the tracing overhead,
both as measured.

Either way every output is checked after the timed phase, and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("mixed-power", "scenario-cli", "dense-detectors")
SETUP_PROBES = 5
# Calibration samples taken before and after each set-up probe, and to warm
# the kernel up before the jobs.
SETUP_CALIBRATION = 5
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10
# One BLAS thread for the run and its set-up probes. The jobs' matrices are
# small, so a second thread mostly waits on the other CPU; on a shared host
# that wait stalls whole runs at random and measures the scheduler instead of
# the program. It is set before numpy is first imported.
BLAS_THREADS = "1"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("ok_frac", "1"),
    ("err_dev_max", "1"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    "kernel.eigvalsh.calls", "kernel.eigvalsh.s", "kernel.eigvalsh.m3",
    "kernel.solve_triangular.calls", "kernel.solve_triangular.s",
    "kernel.cholesky.calls", "kernel.cholesky.s",
    "kernel.einsum.calls", "kernel.einsum.s",
    "kernel.eigh.calls", "kernel.eigh.s", "kernel.eigh.m3",
    "tensorlab.run_power_experiment.calls", "tensorlab.run_power_experiment.self_s",
    "linalg.iter_power_eigenpairs.items", "linalg.iter_power_eigenpairs.s",
    "linalg.spectral_decompose.calls", "linalg.spectral_decompose.s",
    "chernoff.multiple_qcb.calls", "chernoff.multiple_qcb.s",
    "chernoff.binary_qcb.calls", "chernoff.binary_qcb.s",
    "detectors.gs_detector.self_s", "detectors.epsilon_detector.self_s",
    "detectors.pgm.self_s", "detectors.holevo_helstrom.self_s",
    "detectors.bayes_commuting.self_s",
    "detectors.gs_error_bound.s", "detectors.evaluate_errors.s",
    "detectors.classical_ml.s", "detectors.Detector.s",
    "cli.main.s", "cli.load_scenario.s", "cli.render.s",
)


def layer_unit(metric: str) -> str:
    return "s" if metric.endswith((".s", "_s")) else "count"


@dataclass
class Outcome:
    seconds: float
    output: object
    error: str | None


def run_jobs(jobs, tracer=None, calibration=None) -> tuple[float, list[Outcome]]:
    """Run every job once, in order; a failing job never stops the run.

    Returns the summed job times and the outcomes. With a calibration its
    kernel is timed after every job, outside the job times.
    """
    outcomes = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        begin = time.perf_counter()
        try:
            output, error = job.run(), None
        except Exception as exc:  # noqa: BLE001 - any raise is a failed job
            output, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(time.perf_counter() - begin, output, error))
        if calibration is not None:
            calibration.sample()
    return sum(outcome.seconds for outcome in outcomes), outcomes


def check_jobs(jobs, outcomes):
    """Failed jobs with reasons, wrong outputs on rows the program did not
    flag as ill-conditioned, and reference deviations."""
    failures, problems, deviations = [], [], []
    for job, outcome in zip(jobs, outcomes):
        if outcome.error is not None:
            failures.append(f"{job.name}: {outcome.error}")
            continue
        try:
            verdict = job.check(outcome.output)
        except Exception as exc:  # noqa: BLE001 - an unreadable output is a wrong one
            failures.append(f"{job.name}: check raised {type(exc).__name__}: {exc}")
            problems.append(failures[-1])
            continue
        deviations.extend(verdict.deviations)
        if not verdict.ok:
            failures.append((verdict.problems + verdict.flagged)[0])
            problems.extend(verdict.problems)
    return failures, problems, deviations


def tail(times: list[float]) -> tuple[float, float]:
    """Highest per-job percentile with at least TAIL_BEYOND jobs beyond it,
    as (value, percentile); the maximum when that would fall below the median."""
    ordered = sorted(times)
    if len(ordered) < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure_setup(workload: str, seed: int, seconds: float, workdir: str):
    """Wall times of SETUP_PROBES fresh interpreters that import qmht, build
    the workload's inputs and warm up, each with the calibration factor
    measured around it."""
    from perfbench import calibrate

    times, factors = [], []
    for k in range(SETUP_PROBES):
        calibration = calibrate.Calibration()
        for _ in range(SETUP_CALIBRATION):
            calibration.sample()
        probe_dir = os.path.join(workdir, f"probe-{k}")
        os.makedirs(probe_dir)
        command = [
            sys.executable, os.path.join(HERE, "setup_probe.py"),
            workload, str(seed), str(seconds), probe_dir,
        ]
        begin = time.perf_counter()
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        times.append(time.perf_counter() - begin)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        for _ in range(SETUP_CALIBRATION):
            calibration.sample()
        factors.append(calibration.factor())
    return times, factors


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "blas_threads": "unknown",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    facts["blas_threads"] = _openblas_threads()
    return facts


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if readable."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line})
    for lib in libs:
        func = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if func is not None:
            func.restype = ctypes.c_int
            func.argtypes = []
            return int(func())
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "qmht", "__init__.py")):
        print(f"perfbench: no qmht package under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    traced = bool(args.trace)
    job_seconds = args.seconds / 2 if traced else args.seconds
    sys.path[:0] = [SRC, ROOT]
    setup_times, setup_factors = measure_setup(args.workload, args.seed, job_seconds, workdir)

    from perfbench import calibrate, reference, tracing, workloads

    facts = machine_facts()

    def fresh_workload(name: str):
        # New input objects for every pass, so no pass inherits cached spectra.
        os.makedirs(os.path.join(workdir, name))
        return workloads.build(args.workload, args.seed, job_seconds, os.path.join(workdir, name))

    workload = fresh_workload("untraced")
    workload.warm_up()
    calibration = calibrate.Calibration()
    for _ in range(SETUP_CALIBRATION):
        calibration.sample()
    calibration.samples.clear()
    wall, outcomes = run_jobs(workload.jobs, calibration=calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = None
    if traced:
        workload = fresh_workload("traced")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, outcomes = run_jobs(workload.jobs, tracer)
        finally:
            tracer.uninstall()

    check_start = time.perf_counter()
    failures, problems, deviations = check_jobs(workload.jobs, outcomes)
    check_s = time.perf_counter() - check_start
    attempted = len(outcomes)
    times = [outcome.seconds for outcome in outcomes]
    tail_s, tail_pct = tail(times)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} jobs={attempted} check={check_s:.1f}s")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for failure in failures:
        print(f"failed {failure}")
    if traced:
        metrics = {name: {"value": tracer.metric(name), "unit": layer_unit(name)}
                   for name in PER_LAYER}
        metrics["trace.overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
        metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
        trace_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"
        )
        tracer.write(trace_path)
        print(f"trace {len(tracer.spans)} spans -> {trace_path}; "
              f"untraced wall {wall:.4f} s, traced wall {traced_wall:.4f} s")
    else:
        factor = calibration.factor()
        values = {
            "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_factors)),
            "wall_s": wall * factor,
            "job_p50_s": statistics.median(times) * factor,
            "job_tail_s": tail_s * factor,
            "ok_frac": (attempted - len(failures)) / attempted,
            "err_dev_max": max([reference.ERR_DEV_FLOOR] + deviations),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"Times at the reference host speed; as measured, and the factor of "
              f"the calibration kernel over {len(calibration.samples)} samples:")
        print(f"setup_s      {values['setup_s']:.4f} s  median of {SETUP_PROBES} fresh "
              f"interpreters: {', '.join(f'{t:.3f}' for t in setup_times)} s, "
              f"factors {', '.join(f'{f:.3f}' for f in setup_factors)}")
        print(f"wall_s       {values['wall_s']:.4f} s  measured {wall:.4f} s for "
              f"{attempted} jobs, factor {factor:.4f}")
        print(f"job_p50_s    {values['job_p50_s']:.4f} s  measured {statistics.median(times):.4f} s")
        print(f"job_tail_s   {values['job_tail_s']:.4f} s  measured {tail_s:.4f} s, "
              f"p{tail_pct:.1f} of {attempted} jobs")
        print(f"failed_frac  {len(failures) / attempted:.4f}  ({len(failures)} of {attempted})")
        print(f"ok_frac      {values['ok_frac']:.4f}")
        print(f"err_dev_max  {values['err_dev_max']:.4g}  over {len(deviations)} referenced rows")
        print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
