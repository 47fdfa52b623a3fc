"""The benchmark's workloads, each a closed loop with one caller.

A workload is built from the benchmark seed alone; the program sees only
the master seeds, angles and gamma lists generated from it.  ``op(i)`` is
one timed operation, ``check(i, output)`` returns (problems, digest) for
it, and ``finish()`` runs the whole-run checks.  ``fingerprint_ops`` is the
number of leading operations whose digests form the run's fingerprint; a
run always completes at least that many, so the fingerprint and the
whole-run checks never depend on how fast the machine is.  ``traced_ops``
is the fixed number of operations of a traced phase, which keeps the
traced counts identical from run to run.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import spinpath as sp
from spinpath import analysis, cli, experiment

import checks
from checks import column, sha256

CLI_SHIM = Path(__file__).with_name("cli_shim.py")
CALL_TIMEOUT_S = 120
TWO_PI = 2.0 * math.pi


class BellCalibration:
    """estimate_bell_s(ExperimentConfig(seed=s), 0.0) over consecutive
    master seeds: the Monte Carlo calibration loop, Poisson mode, default
    32-point chi grid.  No maximizer, no I/O."""

    name = "bell-calibration"
    # 300 estimates give the bias check a standard error 20 times smaller
    # than its limit.
    fingerprint_ops = 300
    traced_ops = 100
    aliases = {
        "bell_estimates_per_s": ("ops_per_s", 1.0, "1/s"),
        "bell_estimate_ms_p50": ("op_ms_p50", 1.0, "ms"),
        "bell_estimate_ms_tail": ("op_ms_tail", 1.0, "ms"),
    }
    tracer = None

    def __init__(self, seed: int, workdir: Path):
        self.base = random.Random(seed).randrange(2 ** 31)
        self.estimates: dict = {}

    def warmup(self):
        self.op(0)

    def op(self, i):
        return sp.estimate_bell_s(sp.ExperimentConfig(seed=self.base + i), 0.0)

    def check(self, i, est):
        self.estimates[i] = (est.s, est.sigma_s)
        digest = sha256(repr((est.s, est.sigma_s, est.fitted_phase,
                              est.phase_sigma)))
        return checks.check_bell_estimate(est.s, est.sigma_s), digest

    def finish(self):
        values, sigmas = zip(*self.estimates.values())
        return checks.check_bell_calibration(values, sigmas)


class PolarScan:
    """run_polar_scan over default_gamma_grid() (11 phases), Poisson mode,
    one scan per generated master seed.  The only workload that runs
    chsh.maximize_2d and the analyzer-angle fits."""

    name = "polar-scan"
    fingerprint_ops = 4
    traced_ops = 4
    aliases = {
        "polar_scan_s_p50": ("op_ms_p50", 1e-3, "s"),
        "polar_scan_s_tail": ("op_ms_tail", 1e-3, "s"),
    }
    tracer = None

    def __init__(self, seed: int, workdir: Path):
        self.base = random.Random(seed).randrange(2 ** 31)
        self.gammas = analysis.default_gamma_grid()
        self.residuals: dict = {}

    def warmup(self):
        self.op(0)

    def op(self, i):
        return sp.run_polar_scan(sp.ExperimentConfig(seed=self.base + i),
                                 self.gammas)

    def check(self, i, results):
        problems = []
        if len(results) != len(self.gammas):
            problems.append(f"{len(results)} points for {len(self.gammas)} phases")
        for r in results:
            problems += checks.check_polar_point(r.gamma, r.s, r.sigma_s,
                                                 r.beta1, r.beta1_p)
        self.residuals[i] = [(r.s - checks.polar_closed_form(r.gamma), r.sigma_s)
                             for r in results]
        digest = sha256(repr([(r.gamma, r.s, r.sigma_s, r.beta1, r.beta1_p)
                              for r in results]))
        return problems, digest

    def finish(self):
        exact = sp.run_polar_scan(sp.ExperimentConfig(seed=self.base),
                                  self.gammas, exact=True)
        problems, error = checks.check_polar_exact([(r.gamma, r.s) for r in exact])
        residual = np.array([d for rows in self.residuals.values() for d in rows])
        pulls = residual[:, 0] / residual[:, 1]
        return problems, {
            "analysis.bias": float(residual[:, 0].mean()),
            "analysis.pull_width": float(pulls.std(ddof=1)),
            "analysis.exact_error": error,
        }


class CliArtifacts:
    """A fixed script of `spinpath` subprocess calls, each followed by
    reading its artifacts back: analytic, surface, simulate --exact,
    beam-block --exact, scan-azimuthal --exact and a rerun of the scan from
    its manifest.  One operation is one pass of the script."""

    name = "cli-artifacts"
    fingerprint_ops = 1
    traced_ops = 2
    aliases = {"cli_script_s": ("op_ms_p50", 1e-3, "s")}
    tracer = None

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.master_seed = rng.randrange(2 ** 31)
        self.surface_gamma = rng.uniform(0.0, TWO_PI)
        self.delta = rng.uniform(0.0, math.pi)
        self.simulate_gamma = rng.uniform(0.0, TWO_PI)
        self.blocked_path = rng.choice(("I", "II"))
        self.block_gamma = rng.uniform(0.0, TWO_PI)
        self.scan_gammas = sorted(rng.uniform(0.0, TWO_PI) for _ in range(11))
        self.reference = None

    def script(self, out: Path) -> list:
        seed = ["--seed", str(self.master_seed)]
        return [
            ("analytic", ["analytic", "--gamma-points", "25", *seed]),
            ("surface", ["surface", "--gamma", repr(self.surface_gamma), *seed]),
            ("simulate", ["simulate", "--exact", "--delta", repr(self.delta),
                          "--gamma", repr(self.simulate_gamma), *seed]),
            ("beam-block", ["beam-block", "--exact", "--blocked-path",
                            self.blocked_path, "--gamma", repr(self.block_gamma),
                            *seed]),
            ("azimuthal", ["scan-azimuthal", "--exact", "--gamma-list",
                           ",".join(repr(g) for g in self.scan_gammas), *seed]),
            ("rerun", ["scan-azimuthal", "--config",
                       str(out / "azimuthal" / "manifest.txt")]),
        ]

    def warmup(self):
        cli.main(["analytic", "--gamma-points", "25",
                  "--out", str(self.workdir / "warmup")])

    def op(self, i):
        out = self.workdir / f"pass-{i}"
        for key, argv in self.script(out):
            self._call(argv + ["--out", str(out / key)])
        return out, self.read_back(out)

    def _call(self, argv):
        env = dict(os.environ)
        if self.tracer is None:
            command = [sys.executable, "-m", "spinpath.cli", *argv]
        else:
            spans = self.workdir / "spans.jsonl"
            env.update(PERFBENCH_SPANS=str(spans),
                       PERFBENCH_LAUNCH=repr(time.monotonic()))
            command = [sys.executable, str(CLI_SHIM), *argv]
        proc = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CALL_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"spinpath {argv[0]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        if self.tracer is not None:
            self.tracer.merge(spans)
            spans.unlink()

    def finish(self):
        """Every pass is checked on its own; nothing is left for the end."""
        return [], {}

    @staticmethod
    def read_back(out: Path) -> dict:
        """Read every artifact back, through the package readers where the
        package has one."""
        data = {
            "analytic": checks.csv_cells(
                (out / "analytic" / "analytic.csv").read_text(encoding="utf-8")),
            "surface": checks.csv_cells(
                (out / "surface" / "surface.csv").read_text(encoding="utf-8")),
            "simulate": sp.read_interferogram(out / "simulate" / "interferogram.csv"),
            "beam-block": sp.read_beam_block(out / "beam-block" / "beam_block.csv"),
            "azimuthal": sp.read_scan_results(out / "azimuthal" / "scan_azimuthal.csv"),
            "rerun": sp.read_scan_results(out / "rerun" / "scan_azimuthal.csv"),
        }
        for key in ("analytic", "surface", "simulate", "beam-block", "azimuthal",
                    "rerun"):
            data[key + "/manifest"] = experiment.parse_kv(
                (out / key / "manifest.txt").read_text(encoding="utf-8"))
        return data

    def check(self, i, output):
        out, data = output
        files = self._digest(out)
        problems = (self._check_values(data) + self._check_round_trips(out, data)
                    + self._check_bytes(out, files))
        shutil.rmtree(out)
        return problems, sha256(json.dumps(files, sort_keys=True))

    @staticmethod
    def _digest(out: Path) -> dict:
        """sha256 of every file under ``out``, by relative path."""
        files = sorted(p for p in out.rglob("*") if p.is_file())
        return {p.relative_to(out).as_posix(): sha256(p.read_bytes()) for p in files}

    def _check_bytes(self, out: Path, files: dict) -> list:
        """The subprocess artifacts equal, byte for byte, those of the same
        script run in this process, and the rerun from the manifest
        reproduces the scan CSV."""
        if self.reference is None:
            ref = self.workdir / "reference"
            for key, argv in self.script(ref):
                if cli.main(argv + ["--out", str(ref / key)]) != 0:
                    raise RuntimeError(f"in-process spinpath {argv[0]} failed")
            self.reference = self._digest(ref)
        problems = []
        for name in sorted(set(files) | set(self.reference)):
            if files.get(name) != self.reference.get(name):
                problems.append(f"{name} differs from the in-process run")
        first = (out / "azimuthal" / "scan_azimuthal.csv").read_bytes()
        if (out / "rerun" / "scan_azimuthal.csv").read_bytes() != first:
            problems.append("rerun from manifest.txt gave different scan CSV bytes")
        return problems

    def _check_values(self, data) -> list:
        """Exact-mode values against the closed forms."""
        close = checks.check_close
        problems = []
        kinds = {"analytic": "analytic", "surface": "surface",
                 "simulate": "simulate-interferogram", "beam-block": "beam-block",
                 "azimuthal": "azimuthal-scan", "rerun": "azimuthal-scan"}
        for key, kind in kinds.items():
            if data[key + "/manifest"].get("kind") != kind:
                problems.append(f"{key}: manifest kind is not {kind!r}")

        _, rows, _ = data["analytic"]
        gammas = np.linspace(0.0, TWO_PI, 25, endpoint=False)
        problems += close("analytic gamma", column(rows, 0), gammas)
        problems += close("analytic s_no_adjust", column(rows, 1),
                          [checks.no_adjust_closed_form(g) for g in gammas])
        problems += close("analytic s_polar_max", column(rows, 2),
                          [checks.polar_closed_form(g) for g in gammas])
        problems += close("analytic s_tsirelson", column(rows, 3),
                          [checks.TSIRELSON] * gammas.size)

        _, rows, _ = data["surface"]
        grid = np.arange(-math.pi, math.pi, math.pi / 90.0)
        b1, b1p = np.repeat(grid, grid.size), np.tile(grid, grid.size)
        # polar closed form at alpha1' = pi/2
        s_want = np.abs(-math.cos(self.surface_gamma) * (np.sin(b1) + np.sin(b1p))
                        - np.cos(b1) + np.cos(b1p))
        problems += close("surface beta1", column(rows, 0), b1)
        problems += close("surface beta1p", column(rows, 1), b1p)
        problems += close("surface s", column(rows, 2), s_want)

        # ideal counts 2 * max_rate * measure_time * p with the default
        # 25 counts/s and 1600 s per point
        peak = 2.0 * 25.0 * 1600.0
        gram, _ = data["simulate"]
        chi = np.linspace(0.0, 4.0 * math.pi, 32, endpoint=False)
        problems += close("interferogram chi", gram.chi_values, chi)
        problems += close("interferogram counts", gram.counts, peak * 0.25 * (
            1.0 + math.sin(self.delta) * np.cos(chi + self.simulate_gamma)))

        scan, _ = data["beam-block"]
        deltas = np.linspace(0.0, TWO_PI, 17)
        branch = np.cos if self.blocked_path == "II" else np.sin
        problems += close("beam-block delta", scan.delta_values, deltas)
        problems += close("beam-block counts", scan.counts,
                          peak * 0.5 * branch(deltas / 2.0) ** 2)

        results = data["azimuthal"]
        if len(results) != 2 * len(self.scan_gammas):
            return problems + [f"azimuthal scan has {len(results)} rows"]
        for gamma, adjusted, raw in zip(self.scan_gammas, results[0::2],
                                        results[1::2]):
            problems += close("azimuthal gamma", [adjusted.gamma, raw.gamma],
                              [gamma, gamma])
            problems += close("azimuthal S", [adjusted.s, raw.s],
                              [checks.TSIRELSON, checks.no_adjust_closed_form(gamma)])
            if not checks.wrapped_difference(adjusted.alpha2p, gamma) <= \
                    checks.CLI_VALUE_LIMIT:
                problems.append(f"azimuthal alpha2p {adjusted.alpha2p!r} "
                                f"for gamma {gamma!r}")
        return problems

    @staticmethod
    def _check_round_trips(out: Path, data) -> list:
        """Every CSV cell renders its value exactly, and the package
        readers return exactly the values in the cells."""
        problems = list(data["analytic"][2]) + list(data["surface"][2])

        def cells(path):
            _, rows, found = checks.csv_cells(path.read_text(encoding="utf-8"))
            problems.extend(f"{path.name}: {p}" for p in found)
            return rows

        for key, name, attr_x in (("simulate", "interferogram.csv", "chi_values"),
                                  ("beam-block", "beam_block.csv", "delta_values")):
            obj, _ = data[key]
            rows = cells(out / key / name)
            problems += checks.check_equal(f"{name} x", getattr(obj, attr_x).tolist(),
                                           column(rows, 0))
            problems += checks.check_equal(f"{name} counts", obj.counts.tolist(),
                                           column(rows, 1))

        for key in ("azimuthal", "rerun"):
            rows = cells(out / key / "scan_azimuthal.csv")
            read = [[r.gamma, "" if r.beta1 is None else r.beta1,
                     "" if r.beta1_p is None else r.beta1_p,
                     "" if r.alpha2p is None else r.alpha2p, r.s, r.sigma_s,
                     r.method] for r in data[key]]
            problems += checks.check_equal(f"{key} scan CSV", read, rows)
        return problems


WORKLOADS = {w.name: w for w in (BellCalibration, PolarScan, CliArtifacts)}
