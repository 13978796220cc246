"""Self-tests of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout:

    python3 -m unittest perfbench/selftest.py

They check the references on the known-defect ensemble (against a
high-precision mpmath recomputation), the tracer's
arithmetic and its tolerance of missing targets, that per-layer counts repeat
exactly across two traced runs, and that the benchmark refuses to run without
the package.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

from perfbench import calibrate, reference, run, tracing, workloads  # noqa: E402

# Greedy Gram-Schmidt error of the defect ensemble at n = 6, from a 60-digit
# mpmath computation, printed to 12 significant digits.
DEFECT_MPMATH = 0.269741190996


def greedy_gs_error_mp(states, n: int, dps: int = 30):
    """Greedy Gram-Schmidt PVM error on the n-fold powers in mpmath.

    Product eigenpairs are merged by descending value (ties by state index),
    each vector is orthogonalized twice against the directions picked so far
    and kept when its residual is above 10^(-dps/2); unpicked directions go to
    hypothesis 0.
    """
    import mpmath as mp

    mp.mp.dps = dps
    families = []
    for rho in states:
        mat = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in rho.mat])
        values, vectors = mp.eighe(mat)
        base = [(values[k], [vectors[j, k] for j in range(mat.rows)]) for k in range(mat.rows)]
        pairs = []
        for tup in itertools.product(range(mat.rows), repeat=n):
            vec = [mp.mpc(1)]
            for k in tup:
                vec = [a * b for a in vec for b in base[k][1]]
            pairs.append((mp.fprod(base[k][0] for k in tup), vec))
        families.append(pairs)
    dim = len(families[0][0][1])
    order = sorted(
        ((value, i, vec) for i, pairs in enumerate(families) for value, vec in pairs),
        key=lambda item: (-item[0], item[1]),
    )
    basis, labels = [], []
    for _, i, vec in order:
        if len(basis) == dim:
            break
        w = list(vec)
        for _ in range(2):
            for q in basis:
                c = mp.fsum(mp.conj(a) * b for a, b in zip(q, w))
                w = [b - c * a for a, b in zip(q, w)]
        norm = mp.sqrt(mp.fsum(abs(b) ** 2 for b in w))
        if norm > mp.mpf(10) ** (-dps // 2):
            basis.append([b / norm for b in w])
            labels.append(i)

    def qform(i, q):
        return mp.fsum(
            value * abs(mp.fsum(mp.conj(e) * b for e, b in zip(vec, q))) ** 2
            for value, vec in families[i]
        )

    r = len(states)
    successes = [mp.mpf(0)] * r
    for q, i in zip(basis, labels):
        if i:
            successes[i] += qform(i, q)
    successes[0] = 1 - mp.fsum(qform(0, q) for q, i in zip(basis, labels) if i)
    return float(1 - mp.fsum(successes) / r)


def _run_benchmark(workload: str, seed: int, seconds: int, trace: int, cwd: str = ROOT):
    command = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


class DefectEnsembleTest(unittest.TestCase):
    """The ROADMAP defect: default_rng(5), second draw (r = 3), n = 6."""

    def test_dense_reference_matches_high_precision_value(self):
        mats = [rho.mat for rho in workloads.defect_ensemble()]
        dense = reference.dense_power_error(mats, workloads.DEFECT_N, "gs")
        self.assertAlmostEqual(dense, DEFECT_MPMATH, delta=1e-12)

    def test_high_precision_value_recomputes(self):
        value = greedy_gs_error_mp(workloads.defect_ensemble(), workloads.DEFECT_N)
        self.assertAlmostEqual(value, DEFECT_MPMATH, delta=1e-12)

    def test_implicit_deviation_registers(self):
        job = workloads.power_row_job(
            "defect", workloads.defect_ensemble(), workloads.DEFECT_N, "gs"
        )
        verdict = job.check(job.run())
        self.assertGreater(max(verdict.deviations), 3e-4)
        self.assertGreater(max(verdict.deviations), reference.ERR_DEV_FLOOR)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        fake = types.ModuleType("perfbench_fake_layer")

        def child():
            time.sleep(0.02)

        def parent():
            fake.child()
            time.sleep(0.01)

        fake.child, fake.parent = child, parent
        sys.modules[fake.__name__] = fake
        tracer = tracing.Tracer()
        tracer.install((
            (fake.__name__, "child", "child", "call"),
            (fake.__name__, "parent", "parent", "call"),
        ))
        try:
            fake.parent()
        finally:
            tracer.uninstall()
            del sys.modules[fake.__name__]
        self.assertIs(fake.parent, parent)
        self.assertEqual(tracer.metric("parent.calls"), 1)
        self.assertEqual(tracer.metric("child.calls"), 1)
        self.assertGreaterEqual(tracer.metric("parent.s"), 0.03)
        self.assertLess(tracer.metric("parent.self_s"), tracer.metric("child.s"))
        parent_span = [s for s in tracer.spans if s[3] == "parent"][0]
        child_span = [s for s in tracer.spans if s[3] == "child"][0]
        self.assertEqual(child_span[1], parent_span[0])

    def test_missing_target_counts_zero_and_warns(self):
        import qmht.tensorlab

        targets = tracing.TARGETS + (
            ("qmht.tensorlab", "no_such_function", "kernel.gone", "call"),
            ("qmht.no_such_module", "anything", "kernel.gone_too", "call"),
        )
        tracer = tracing.Tracer()
        stderr = io.StringIO()
        original = qmht.tensorlab.run_power_experiment
        with contextlib.redirect_stderr(stderr):
            tracer.install(targets)
        try:
            job = workloads.power_row_job(
                "small", workloads.defect_ensemble(), 3, "gs"
            )
            job.run()
        finally:
            tracer.uninstall()
        self.assertIs(qmht.tensorlab.run_power_experiment, original)
        self.assertIn("qmht.tensorlab.no_such_function", stderr.getvalue())
        self.assertEqual(tracer.metric("kernel.gone.calls"), 0)
        self.assertEqual(tracer.metric("kernel.gone_too.s"), 0.0)
        self.assertEqual(tracer.metric("tensorlab.run_power_experiment.calls"), 1)

    def test_every_per_layer_metric_is_named_by_a_target(self):
        names = {name for _, _, name, _ in tracing.TARGETS}
        for metric in run.PER_LAYER:
            self.assertIn(metric.rpartition(".")[0], names, metric)


class TracedCountsRepeatTest(unittest.TestCase):
    def test_counts_identical_across_two_traced_runs(self):
        for workload in run.WORKLOADS:
            counts = []
            for _ in range(2):
                done = _run_benchmark(workload, seed=3, seconds=4, trace=1)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], done.stdout)
                metrics = result["metrics"]
                self.assertEqual(set(run.PER_LAYER) - set(metrics), set())
                counts.append({
                    name: value["value"] for name, value in metrics.items()
                    if name.endswith((".calls", ".items", ".m3"))
                })
            self.assertEqual(counts[0], counts[1], workload)


class RefusesWithoutPackageTest(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        scratch = os.path.join(ROOT, ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            done = _run_benchmark("mixed-power", seed=1, seconds=1, trace=0, cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class TailTest(unittest.TestCase):
    def test_tail_leaves_ten_jobs_beyond(self):
        times = list(np.arange(1.0, 41.0))
        value, pct = run.tail(times)
        self.assertEqual(value, 30.0)
        self.assertEqual(sum(t > value for t in times), 10)
        self.assertEqual(pct, 75.0)

    def test_tail_is_the_maximum_for_few_jobs(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))


class CalibrationTest(unittest.TestCase):
    def test_one_sample_per_job_outside_the_job_times(self):
        def sleeper(seconds):
            return workloads.Job("sleep", lambda: time.sleep(seconds), None)

        calibration = calibrate.Calibration()
        begin = time.perf_counter()
        wall, outcomes = run.run_jobs([sleeper(0.01), sleeper(0.02)], calibration=calibration)
        elapsed = time.perf_counter() - begin
        self.assertEqual(len(calibration.samples), 2)
        self.assertAlmostEqual(wall, sum(outcome.seconds for outcome in outcomes))
        self.assertLessEqual(wall + sum(calibration.samples), elapsed)

    def test_factor_is_reference_over_mean(self):
        calibration = calibrate.Calibration()
        calibration.samples = [0.01, 0.03]
        self.assertAlmostEqual(calibration.factor(), calibrate.REFERENCE_S / 0.02)

    def test_kernel_does_not_import_qmht(self):
        code = "import sys; import perfbench.calibrate; print('qmht' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(done.stdout.strip(), "False", done.stderr)


if __name__ == "__main__":
    unittest.main()
