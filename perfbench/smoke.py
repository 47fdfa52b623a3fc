"""Smoke tests of the benchmark itself.

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

Runs every workload at its minimal size, traced and untraced, and checks
that each metric of BENCHMARK.json is reported with its unit; then feeds
the checkers known-bad outputs and checks that each counts as a failure.
Takes under two minutes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("_calls", "experiment.rate_points", "chsh.objective_points")


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


class MinimalRuns(unittest.TestCase):
    """Each workload at minimal size reports every metric with its unit."""

    def check_result(self, proc, result, spec_metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in spec_metrics}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
        for line in proc.stdout.splitlines()[:-1]:
            name, _, rest = line.partition(" = ")
            if name in units:
                self.assertTrue(rest.endswith(" " + units[name]), line)

    def test_untraced_end_to_end_metrics(self):
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                proc, result = bench(workload, 3, 0)
                self.check_result(proc, result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_traced_per_layer_metrics_and_counts_repeat(self):
        counts = {}
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                proc, result = bench(workload, 3, 1)
                self.check_result(proc, result, SPEC["per_layer"])
                counts[workload] = {k: v["value"] for k, v in result["metrics"].items()
                                    if k.endswith(COUNTS)}
        bell = counts["bell-calibration"]
        self.assertEqual(bell["chsh.maximize_calls"], 0)
        self.assertEqual(bell["chsh.objective_points"], 0)
        self.assertGreater(bell["quantum.joint_probability_calls"], 0)
        self.assertGreater(counts["polar-scan"]["chsh.maximize_calls"], 0)
        self.assertGreater(counts["cli-artifacts"]["chsh.s_polar_calls"], 0)
        _, again = bench("bell-calibration", 4, 1)
        self.assertEqual({k: v["value"] for k, v in again["metrics"].items()
                          if k.endswith(COUNTS)}, bell)

    def test_missing_sources_fail(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "perfbench"
            copy.mkdir()
            for path in HERE.glob("*.py"):
                (copy / path.name).write_bytes(path.read_bytes())
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "polar-scan",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


class FakeWorkload:
    """Stands in for a workload: each call of op returns the next of the
    given outputs."""

    name = "fake"
    fingerprint_ops = 1

    def __init__(self, outputs, check):
        self.outputs = iter(outputs)
        self._check = check

    def op(self, i):
        return next(self.outputs)

    def check(self, i, output):
        return self._check(output), checks.sha256(repr(output))


class KnownBadOutputs(unittest.TestCase):
    """Known-bad outputs each count as a failure."""

    def test_s_shifted_by_ten_sigma(self):
        gamma, sigma = math.pi / 3, 0.01
        beta1 = math.atan(math.cos(gamma))
        good = (gamma, checks.polar_closed_form(gamma), sigma, beta1, math.pi - beta1)
        bad = (gamma, good[1] + 10 * sigma, sigma, beta1, math.pi - beta1)
        self.assertEqual(checks.check_polar_point(*good), [])
        fake = FakeWorkload([good, bad, good],
                            lambda point: checks.check_polar_point(*point))
        tally = run.Tally()
        run.run_ops(fake, tally, count=3)
        self.assertEqual((tally.attempted, tally.failed), (3, 1))

        values = [checks.TSIRELSON + 0.004 * (-1) ** k for k in range(300)]
        sigmas = [0.004] * 300
        self.assertEqual(checks.check_bell_calibration(values, sigmas)[0], [])
        shifted = [v + 10 * 0.004 for v in values]
        self.assertNotEqual(checks.check_bell_calibration(shifted, sigmas)[0], [])

    def test_changed_csv_byte(self):
        def digit_up(text, line):
            lines = text.split("\n")
            last = lines[line][-1]
            lines[line] = lines[line][:-1] + str((int(last) + 1) % 10)
            return "\n".join(lines)

        corruptions = {
            "interferogram count": ("simulate/interferogram.csv",
                                    lambda t: digit_up(t, 1)),
            "surface value": ("surface/surface.csv", lambda t: digit_up(t, 5)),
            "scan header": ("azimuthal/scan_azimuthal.csv",
                            lambda t: "G" + t[1:]),
            # values unchanged: only the byte comparison sees it
            "sidecar seed": ("simulate/interferogram.meta",
                             lambda t: t.replace("seed = ", "seed = 1")),
        }
        with tempfile.TemporaryDirectory() as tmp:
            cli = workloads.CliArtifacts(5, Path(tmp))
            output = cli.op(0)
            problems, _ = cli.check(0, output)
            self.assertEqual(problems, [])

            for label, (name, corrupt) in corruptions.items():
                with self.subTest(label):
                    class Corrupting(workloads.CliArtifacts):
                        def op(self, i):
                            out, _ = super().op(i)
                            path = out / name
                            path.write_text(corrupt(path.read_text()))
                            return out, self.read_back(out)

                    tally = run.Tally()
                    run.run_ops(Corrupting(5, Path(tmp)), tally, count=1)
                    self.assertEqual(tally.failed, 1)

    def test_mismatched_fingerprint(self):
        self.assertEqual(checks.check_repeat("a", "a"), [])
        self.assertNotEqual(checks.check_repeat("a", "b"), [])
        fake = FakeWorkload([1.0, 2.0], lambda output: [])
        tally = run.Tally()
        run.run_ops(fake, tally, count=1)
        self.assertEqual(tally.failed, 0)
        self.assertNotEqual(run.repeat_first(fake, tally), [])


if __name__ == "__main__":
    unittest.main()
