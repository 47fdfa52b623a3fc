"""Output checks of the benchmark.

Each check returns a list of problems (empty when the output is correct);
an operation with a problem counts as failed.  The references are closed
forms written out here, independent of the package under test.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)

# Whole-run thresholds of the 1000-seed calibration test of the estimator.
BELL_BIAS_LIMIT = 0.01
BELL_PULL_LIMIT = 0.2
# Per-point limits of the Monte Carlo polar-scan test.
POLAR_SIGMAS = 4.0
POLAR_ANGLE_LIMIT = 0.1
EXACT_LIMIT = 1e-12
# Exact-mode CLI values against the closed forms.
CLI_VALUE_LIMIT = 1e-9


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def polar_closed_form(gamma: float) -> float:
    """Polar-adjusted maximum 2*sqrt(1 + cos^2 gamma)."""
    return 2.0 * math.sqrt(1.0 + math.cos(gamma) ** 2)


def no_adjust_closed_form(gamma: float) -> float:
    return math.sqrt(2.0) * abs(1.0 + math.cos(gamma))


def polar_angle_deviation(beta1: float, beta1_p: float, gamma: float) -> float:
    """Distance of (beta1, beta1') from the stationary angles
    (arctan cos gamma, pi - arctan cos gamma), modulo the joint pi shift."""
    target1 = math.atan(math.cos(gamma))
    target2 = math.pi - target1
    best = math.inf
    for k in (0, 1):
        d1 = (beta1 + k * math.pi - target1 + math.pi) % (2 * math.pi) - math.pi
        d2 = (beta1_p + k * math.pi - target2 + math.pi) % (2 * math.pi) - math.pi
        best = min(best, max(abs(d1), abs(d2)))
    return best


def wrapped_difference(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


def check_bell_estimate(s: float, sigma_s: float) -> list:
    if math.isfinite(s) and math.isfinite(sigma_s):
        return []
    return [f"non-finite estimate S={s!r} sigma={sigma_s!r}"]


def check_bell_calibration(values, sigmas) -> tuple:
    """Whole-run check at gamma = 0: unbiased S and calibrated sigma.

    Returns (problems, diagnostics) with the raw bias mean(S) - 2*sqrt(2)
    and the pull width std(S) / mean(sigma)."""
    values = np.asarray(values, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if values.size < 2:
        return ["fewer than 2 estimates for the calibration check"], {}
    bias = float(values.mean() - TSIRELSON)
    pull = float(values.std(ddof=1) / sigmas.mean())
    problems = []
    if not abs(bias) < BELL_BIAS_LIMIT:
        problems.append(f"bias {bias!r} not within {BELL_BIAS_LIMIT}")
    if not abs(pull - 1.0) < BELL_PULL_LIMIT:
        problems.append(f"pull width {pull!r} not within 1 +- {BELL_PULL_LIMIT}")
    return problems, {"analysis.bias": bias, "analysis.pull_width": pull}


def check_polar_point(gamma, s, sigma_s, beta1, beta1_p) -> list:
    problems = []
    want = polar_closed_form(gamma)
    if not abs(s - want) <= POLAR_SIGMAS * sigma_s:
        problems.append(f"gamma={gamma!r}: S={s!r} is not within "
                        f"{POLAR_SIGMAS} sigma ({sigma_s!r}) of {want!r}")
    deviation = polar_angle_deviation(beta1, beta1_p, gamma)
    if not deviation < POLAR_ANGLE_LIMIT:
        problems.append(f"gamma={gamma!r}: angle deviation {deviation!r} "
                        f">= {POLAR_ANGLE_LIMIT}")
    return problems


def check_polar_exact(points) -> tuple:
    """points: (gamma, s) of an exact-mode scan.  Returns (problems,
    max |S - closed form|)."""
    error = max(abs(s - polar_closed_form(g)) for g, s in points)
    if error <= EXACT_LIMIT:
        return [], error
    return [f"exact-mode scan is {error!r} from the closed form"], error


def check_repeat(first: str, again: str) -> list:
    if first == again:
        return []
    return [f"same input gave different outputs: {first} != {again}"]


def check_close(label, got, want, limit=CLI_VALUE_LIMIT) -> list:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    error = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not error <= limit * max(1.0, float(np.max(np.abs(want)))):
        return [f"{label}: off by {error!r}"]
    return []


def check_equal(label, got, want) -> list:
    """Bit-exact equality of two value sequences."""
    got, want = list(got), list(want)
    if got == want:
        return []
    return [f"{label}: read back {len(got)} values differing from the "
            f"{len(want)} written"]


def csv_cells(text: str) -> tuple:
    """Parse a CSV written by the package into (header, rows, problems).

    A numeric cell must be the exact shortest rendering of the number it
    parses to, so reading it back loses no bit."""
    lines = text.split("\n")
    problems = []
    if lines and lines[-1] == "":
        lines.pop()
    else:
        problems.append("missing final newline")
    if not lines:
        return "", [], problems + ["empty file"]
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        row = []
        for cell in line.split(","):
            value = _parse_cell(cell)
            if not isinstance(value, str) and repr(value) != cell:
                problems.append(f"line {n}: {cell!r} does not round-trip")
            row.append(value)
        rows.append(row)
    return lines[0], rows, problems


def _parse_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def column(rows, index) -> list:
    return [row[index] for row in rows]
