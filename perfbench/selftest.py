"""Self-test of the benchmark itself, not of the library.

Run from the root of a checkout (takes about three minutes)::

    python3 perfbench/selftest.py

Checks that every generator is a pure function of ``(seed, k)``, that the
harness counts an exception escaping ``cli.main`` and a false certificate
as failed ops without stopping, and that a minimal-length run of every
workload (one pass over its models plus one replay) prints every metric
``BENCHMARK.json`` names, traced and untraced.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def _as_json(op: workloads.Op) -> str:
    return json.dumps([op.command, op.model, op.extra_args, op.meta], sort_keys=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, gen in workloads.GENERATORS.items():
            for k in range(12):
                with self.subTest(workload=name, k=k):
                    self.assertEqual(_as_json(gen(7, k)), _as_json(gen(7, k)))

    def test_other_seed_other_inputs(self):
        for name, gen in workloads.GENERATORS.items():
            for k in range(12):
                if gen(7, k).meta.get("class") in workloads.FIXED_CLASSES:
                    continue
                with self.subTest(workload=name, k=k):
                    self.assertNotEqual(_as_json(gen(7, k)), _as_json(gen(8, k)))


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(dir=ROOT)
        self.work = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def run_op(self, op: workloads.Op) -> list[str]:
        runner = run.Runner(op.command, 0, self.work, run.import_chemostat())
        runner.ops[0] = op
        with open(runner.model_path(0), "w", encoding="utf-8") as fh:
            json.dump(op.model, fh)
        rc, _, output = runner.call(0, self.work / "out")
        problems, _ = runner.verify(0, rc, self.work / "out", output)
        return problems

    def test_escaping_exception_is_a_failed_op(self):
        # A rival tying the winner's break-even point makes certify raise.
        with open(ROOT / "models" / "two_species.json", encoding="utf-8") as fh:
            model = json.load(fh)
        op = workloads.Op("analyze", model, ["--set", "species.1.monod.Di=0.5"])
        problems = self.run_op(op)
        self.assertTrue(problems)
        self.assertIn("cli.main raised", problems[0])

    def test_false_certificate_is_a_failed_op(self):
        # Winner Monod(1, 0.1, 0.6) breaks even at 0.15; the rival grows on
        # (0.1, 0.102), below it, so its equilibrium attracts.
        model = {"D": 1.0, "S0": 1.0, "species": [
            {"label": "winner",
             "monod": {"a": 1, "b": 0.1, "Di": 0.6, "yield": {"poly": [1, 4]}}},
            {"label": "rival", "growth": "-(S-0.1)*(S-0.102)", "uptake": "S"}]}
        meta = {"lambda1": 0.15, "winner_constant_yield": False,
                "rivals": [{"kind": "window", "l": 0.1, "u": 0.102}]}
        self.assertTrue(workloads.check_verdict(workloads.VERDICT_GAS, meta))
        self.assertFalse(workloads.check_verdict("locally-stable-uncertified", meta))
        # The library certifies this model as GAS; the harness must flag it.
        problems = self.run_op(workloads.Op("analyze", model, meta=meta))
        self.assertTrue(problems)
        self.assertIn("GAS although window rival", problems[0])


class MinimalRunTest(unittest.TestCase):
    def test_every_metric_is_printed(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        wanted = {0: {m["name"] for m in bench["end_to_end"]},
                  1: {m["name"] for m in bench["per_layer"]}}
        for w in bench["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = subprocess.run(
                        bench["command"] + ["--workload", w["name"], "--seed", "1",
                                            "--seconds", "0.01", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertIn("fail_frac", proc.stdout)
                    last = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(set(last["metrics"]), wanted[trace])
                    for name, m in last["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        self.assertTrue(m["unit"], name)


if __name__ == "__main__":
    unittest.main()
