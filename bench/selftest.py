"""Self-tests of the benchmark: metric names, the accuracy gate and set-up
failures. Runs in about half a minute:

    python3 bench/selftest.py
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from robustlqg.lqg import CovarianceProfile  # noqa: E402

import workloads as wl  # noqa: E402

RUN = ROOT / "bench" / "run.py"
SCRATCH = ROOT / "bench" / "out" / "selftest"


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def smoke_op(workload):
    spec = wl.SMOKE_SPECS[workload]
    ops = wl.build_ops(spec, [0], SCRATCH)
    refs = wl.load_refs(spec, ops)
    return ops, refs, spec


class SmokeRuns(unittest.TestCase):
    def test_emitted_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["paper", "hard", "stationary", "gaps"])
        expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for workload in ("paper", "hard", "stationary", "gaps"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                                     "--trace", str(trace), "--smoke")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected[trace])
                    for name, value in result["metrics"].items():
                        self.assertIsInstance(value["value"], (int, float), name)

    def test_fails_without_the_library(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "paper", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class Gate(unittest.TestCase):
    def test_accepts_a_converged_solve(self):
        ops, refs, _ = smoke_op("paper")
        self.assertEqual(ops[0].check(ops[0].run(), refs[0]).failures, [])

    def test_rejects_shifted_objective(self):
        ops, refs, spec = smoke_op("paper")
        result = ops[0].run()
        ref = refs[0]
        below = ops[0].check(result, ref).subopt_over_tol * spec.gap_tol  # ref - objective
        # the reference moves so the objective falls below, then above, its window
        for shift in (spec.gap_tol / wl.GATE_DELTA + 2.0 * ref["tol"], -below - 2.0 * ref["tol"]):
            with self.subTest(shift=shift):
                moved = dict(ref, objective=ref["objective"] + shift)
                failures = ops[0].check(result, moved).failures
                self.assertTrue(any("objective" in f for f in failures), failures)

    def test_rejects_out_of_ball_block(self):
        ops, refs, _ = smoke_op("hard")
        final, trace = ops[0].run()
        blocks = final.blocks()
        blocks[1] = 1.5 * blocks[1]
        moved = CovarianceProfile.from_blocks(blocks, final.T)
        failures = ops[0].check((moved, trace), refs[0]).failures
        self.assertIn("final block 1 outside its ball", failures)

    def test_rejects_stationary_block_outside_ball(self):
        ops, refs, _ = smoke_op("stationary")
        Sw, Sv, trace = ops[0].run()
        failures = ops[0].check((Sw, 2.0 * Sv, trace), refs[0]).failures
        self.assertTrue(any("outside its ball" in f for f in failures), failures)

    def test_rejects_gap_contract_violations(self):
        ops, refs, _ = smoke_op("gaps")
        results = [op.run() for op in ops]
        outcomes = [op.check(r, ref) for op, r, ref in zip(ops, results, refs)]
        wl.check_series(ops, outcomes)
        self.assertEqual([o.failures for o in outcomes], [[]] * len(ops))

        summary, solves = results[1]
        row = summary["rows"][0]
        negative = dict(summary, rows=[[row[0], row[1], "-1e-3", row[3]]])
        failures = ops[1].check((negative, solves), refs[1]).failures
        self.assertTrue(any("worst_case_gap" in f for f in failures), failures)

        costly = dict(summary, rows=[[row[0], row[1], row[2], repr(refs[1]["nominal_opt"])]])
        failures = ops[1].check((costly, solves), refs[1]).failures
        self.assertTrue(any("nominal_gap" in f for f in failures), failures)

        flat = [dataclasses.replace(o, failures=[]) for o in outcomes]
        flat[1].gaps_row = (flat[0].gaps_row[0], flat[1].gaps_row[1])
        wl.check_series(ops, flat)
        self.assertTrue(any("not above" in f for f in flat[1].failures), flat[1].failures)


class References(unittest.TestCase):
    def test_fingerprint_mismatch_fails_loudly(self):
        spec = wl.SMOKE_SPECS["hard"]
        ops = wl.build_ops(spec, [0], SCRATCH)
        ops[0].fingerprint = "0" * 24
        with self.assertRaisesRegex(wl.RefError, "fingerprint mismatch"):
            wl.load_refs(spec, ops)

    def test_fingerprint_covers_instance_data(self):
        params = {"seed": 0}
        a = np.eye(2)
        self.assertNotEqual(wl.fingerprint(params, [a]), wl.fingerprint(params, [2.0 * a]))
        self.assertEqual(wl.fingerprint(params, [a]), wl.fingerprint(params, [a + 1e-13]))


if __name__ == "__main__":
    unittest.main()
