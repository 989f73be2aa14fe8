"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload on a two-input pool, traced and untraced, and checks
that the result line carries exactly the metrics BENCHMARK.json names, with
their units; that a corrupted reference value is reported as a failed op;
and that without the program's sources the benchmark fails without a
result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--pool", "2", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class HarnessTest(unittest.TestCase):
    def test_tiny_runs_emit_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for wl in SPEC["workloads"]:
                with self.subTest(workload=wl["name"], trace=trace):
                    result = result_of(tiny_run(wl["name"], trace))
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)

    def test_corrupted_reference_fails_the_op(self):
        doc = json.loads((BENCH / "reference.json").read_text())
        outputs = doc["outputs"]
        outputs["select_m1"]["ar2-00"]["orders"][1]["criterion"] += 1e-3
        outputs["ideal_sweep"]["arma11-m01"]["q"][0] *= 1.0 + 1e-4
        OUT.mkdir(exist_ok=True)
        bad = OUT / "reference-corrupted.json"
        bad.write_text(json.dumps(doc))
        try:
            for workload in ("select_m1", "ideal_sweep"):
                with self.subTest(workload=workload):
                    result = result_of(tiny_run(workload, 0, "--reference", str(bad)))
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertLess(result["metrics"]["success_rate"]["value"], 1.0)
        finally:
            bad.unlink()

    def test_fails_without_the_program(self):
        bare = OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = tiny_run("select_m1", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
