"""Monte Carlo model of the counting experiment.

Count rates derive from the joint projection probabilities of the entangled
state; finite fringe contrast is modeled as a convex blend of the ideal
rate toward its scan average (the mean over the scanned phase for
interferograms, over the analyzer angle for beam-block runs), so visibility
V = 1 reproduces the exact quantum prediction and V = 0 a flat line.  The
peak normalization is chosen so that the ideal gamma = 0 fringe maximum at
analyzer angle delta = pi/2 detects max_rate counts per second.

Counting statistics are Poissonian, one draw per scan point.  Every run
draws from its own PCG64 stream seeded by SeedSequence([seed, kind, *index])
so that scans of distinct settings are reproducible independent of
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import TWO_PI, wrap_two_pi

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Stream kind tags; each simulated run type owns one so that runs sharing a
# master seed never reuse a Poisson stream.
STREAM_INTERFEROGRAM = 1
STREAM_BEAM_BLOCK = 2
STREAM_REFERENCE = 3


class EstimationError(ValueError):
    """Raised when counts cannot support an expectation-value estimate."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Counting-experiment parameters.

    max_rate: peak detection rate in counts/second.
    measure_time: seconds spent on each scan point.
    visibility: fringe contrast in [0, 1].
    theta: spin-flip imperfection angle (0 = perfect flip).
    dyn_offset: constant dynamical phase folded into the path phase.
    seed: master seed for all Poisson streams.
    """

    max_rate: float = 25.0
    measure_time: float = 1600.0
    visibility: float = 1.0
    theta: float = 0.0
    dyn_offset: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("max_rate", "measure_time", "visibility", "theta",
                     "dyn_offset"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.max_rate <= 0.0:
            raise ValueError(f"max_rate must be positive, got {self.max_rate!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        if self.measure_time <= 0.0:
            raise ValueError(
                f"measure_time must be positive, got {self.measure_time!r}"
            )
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(
                f"visibility must lie in [0, 1], got {self.visibility!r}"
            )


@dataclass(frozen=True)
class Interferogram:
    """Counts versus path phase chi for one (delta, gamma) setting."""

    chi_values: np.ndarray
    counts: np.ndarray
    delta: float
    gamma: float
    flipper_on: bool = True

    def __post_init__(self):
        chi = np.asarray(self.chi_values, dtype=float)
        counts = np.asarray(self.counts)
        if chi.shape != counts.shape:
            raise ValueError("chi_values and counts must have equal length")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "chi_values", chi)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class BeamBlockScan:
    """Counts versus spin-analysis angle delta with one beam stopped."""

    delta_values: np.ndarray
    counts: np.ndarray
    blocked_path: str
    gamma: float

    def __post_init__(self):
        deltas = np.asarray(self.delta_values, dtype=float)
        counts = np.asarray(self.counts)
        if deltas.shape != counts.shape:
            raise ValueError("delta_values and counts must have equal length")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if self.blocked_path not in ("I", "II"):
            raise ValueError(
                f"blocked_path must be 'I' or 'II', got {self.blocked_path!r}"
            )
        object.__setattr__(self, "delta_values", deltas)
        object.__setattr__(self, "counts", counts)


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent PCG64 generator for stream (seed, *key).

    The seed must be a nonnegative integer; distinct seeds give distinct
    streams.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    entropy = [seed]
    entropy.extend(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _stream_key(stream) -> tuple:
    if isinstance(stream, (tuple, list)):
        return tuple(int(s) for s in stream)
    return (int(stream),)


def default_chi_grid(points: int = 32, periods: int = 2) -> np.ndarray:
    """Phase-shifter scan positions: two fringe periods, 32 points."""
    return np.linspace(0.0, periods * TWO_PI, points, endpoint=False)


def rate_grid(config: ExperimentConfig, delta, phase,
              path_polar: float = math.pi / 2.0, flipper_on: bool = True,
              scan: str = "phase") -> np.ndarray:
    """Expected O-beam rates over a grid of analyzer angles and branch phases.

    The ideal probability is the joint projection |<path, spin delta|psi>|^2
    of psi = (|I,up> + e^{i phase} |II,s>) / sqrt2, where s is the beam-II
    spin left by the flipper, sin(theta/2) |up> + cos(theta/2) |down> (theta
    reduced mod 2*pi as in bell_state), or |up> with the flipper off.  The
    path direction has polar angle path_polar and zero azimuth: pi/2 is +x,
    0 is beam I and pi is beam II.  delta and phase broadcast together.

    Finite contrast blends each point toward the scan average of the ideal
    curve; the curve is a single harmonic in the scanned variable (scan =
    "phase" or "delta"), so that average is (p(x) + p(x + pi)) / 2 exactly.
    """
    if scan not in ("phase", "delta"):
        raise ValueError(f"scan must be 'phase' or 'delta', got {scan!r}")
    if flipper_on:
        half_theta = wrap_two_pi(config.theta) / 2.0
        up, down = math.sin(half_theta), math.cos(half_theta)
    else:
        up, down = 1.0, 0.0
    # path-ket components times the 1/sqrt2 of the state
    path_i = math.cos(path_polar / 2.0) * _SQRT_HALF
    path_ii = math.sin(path_polar / 2.0) * _SQRT_HALF
    delta = np.asarray(delta, dtype=float)
    phase = np.asarray(phase, dtype=float)

    def prob(d, ph):
        cos_d, sin_d = np.cos(d / 2.0), np.sin(d / 2.0)
        amp_i = path_i * cos_d
        amp_ii = path_ii * (up * cos_d + down * sin_d)
        real = amp_i + amp_ii * np.cos(ph)
        imag = amp_ii * np.sin(ph)
        return real * real + imag * imag

    p = prob(delta, phase)
    if scan == "phase":
        mean = 0.5 * (p + prob(delta, phase + math.pi))
    else:
        mean = 0.5 * (p + prob(delta + math.pi, phase))
    return 2.0 * config.max_rate * (mean + config.visibility * (p - mean))


def _block_polar(blocked_path: str) -> float:
    """Path polar angle measured with the other beam stopped."""
    if blocked_path not in ("I", "II"):
        raise ValueError(f"blocked_path must be 'I' or 'II', got {blocked_path!r}")
    return 0.0 if blocked_path == "II" else math.pi


def finite_values(field: str, values) -> np.ndarray:
    """values as a float array, or a ValueError naming the field when one of
    them is NaN or inf."""
    array = np.asarray(values, dtype=float)
    bad = ~np.isfinite(array)
    if bad.any():
        raise ValueError(f"{field} must be finite, got {float(array[bad][0])!r}")
    return array


def _chi_values(chi_grid) -> np.ndarray:
    chi = (default_chi_grid() if chi_grid is None
           else finite_values("chi_grid", chi_grid))
    if chi.size == 0:
        raise ValueError("chi_grid must not be empty")
    return chi


def _draw_counts(config: ExperimentConfig, rates: np.ndarray, kind: int,
                 stream, exact: bool) -> np.ndarray:
    """Expected counts (exact mode, no stream built) or one Poisson draw per
    point from the stream (seed, kind, *stream)."""
    expected = rates * config.measure_time
    if exact:
        return expected
    return stream_rng(config.seed, kind, *_stream_key(stream)).poisson(expected)


def simulate_interferogram(config: ExperimentConfig, delta: float, gamma: float,
                           chi_grid=None, stream=0,
                           exact: bool = False) -> Interferogram:
    """Simulate one phase-shifter scan.

    counts[i] ~ Poisson(rate * measure_time) with the rate from rate_grid;
    with exact=True the expected counts are returned unsampled (floats),
    which is the infinite-statistics mode used by the analysis pipeline
    checks.
    """
    chi = _chi_values(chi_grid)
    rates = rate_grid(config, delta, chi + config.dyn_offset + gamma)
    counts = _draw_counts(config, rates, STREAM_INTERFEROGRAM, stream, exact)
    return Interferogram(chi, counts, delta=float(delta), gamma=float(gamma),
                         flipper_on=True)


def simulate_beam_block(config: ExperimentConfig, delta_grid, gamma: float,
                        blocked_path: str, stream=0,
                        exact: bool = False) -> BeamBlockScan:
    """Simulate a spin-analysis scan with one beam stopped."""
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise ValueError("delta_grid must not be empty")
    rates = rate_grid(config, deltas, 0.0, _block_polar(blocked_path),
                      scan="delta")
    counts = _draw_counts(config, rates, STREAM_BEAM_BLOCK, stream, exact)
    return BeamBlockScan(deltas, counts, blocked_path=blocked_path,
                         gamma=float(gamma))


def reference_run(config: ExperimentConfig, delta: float, chi_grid=None,
                  stream=0, exact: bool = False) -> Interferogram:
    """Simulate a flipper-off reference scan used to calibrate the fringe
    phase zero and contrast."""
    chi = _chi_values(chi_grid)
    rates = rate_grid(config, delta, chi + config.dyn_offset, flipper_on=False)
    counts = _draw_counts(config, rates, STREAM_REFERENCE, stream, exact)
    return Interferogram(chi, counts, delta=float(delta), gamma=0.0,
                         flipper_on=False)


def counts_to_expectation(values) -> tuple:
    """E = (N++ - N+- - N-+ + N--) / N_total and its Poisson error.

    values are four counts (N++, N+-, N-+, N--), integer draws or exact-mode
    floats.  The error propagates independent variances max(N, 1) (the floor
    the fringe fits use for their weights) linearly through the ratio.
    Raises EstimationError for a negative count or a nonpositive total.
    """
    counts = np.asarray(values, dtype=float)
    if np.any(counts < 0.0):
        raise EstimationError("counts must be nonnegative")
    if counts.shape != (4,):
        raise ValueError("values must contain exactly 4 entries")
    total = float(counts.sum())
    if total <= 0.0:
        raise EstimationError("total counts must be positive for estimation")
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    e = float(signs @ counts) / total
    jac = (signs - e) / total
    var = float(jac @ np.diag(np.maximum(counts, 1.0)) @ jac)
    return e, math.sqrt(var)


def s_from_expectations(e1: float, e2: float, e3: float, e4: float,
                        sigmas) -> tuple:
    """S = |e1 - e2 + e3 + e4| with errors added in quadrature."""
    sig = np.asarray(sigmas, dtype=float)
    if sig.shape != (4,):
        raise ValueError("sigmas must contain exactly 4 entries")
    s = abs(e1 - e2 + e3 + e4)
    return float(s), float(math.sqrt(float(np.sum(sig ** 2))))


# ---------------------------------------------------------------------------
# serialization: CSV scan files with key = value sidecar metadata
# ---------------------------------------------------------------------------

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def format_kv(mapping: dict) -> str:
    """Render a flat mapping as 'key = value' lines (UTF-8, LF)."""
    return "".join(f"{k} = {_format_value(v)}\n" for k, v in mapping.items())


def _parse_value(text: str):
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_kv(text: str) -> dict:
    """Inverse of format_kv; unknown value shapes stay strings and a
    repeated key is a ValueError naming it."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if not _:
            raise ValueError(f"malformed key = value line: {line!r}")
        key = key.strip()
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = _parse_value(value)
    return out


def config_echo(config: ExperimentConfig) -> dict:
    return {
        "max_rate": config.max_rate,
        "measure_time": config.measure_time,
        "visibility": config.visibility,
        "theta": config.theta,
        "dyn_offset": config.dyn_offset,
        "seed": config.seed,
    }


def _format_count(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header: str, rows) -> None:
    """Write a header line and one line per row of text cells (UTF-8, LF)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_scan_csv(path, header: str, x_values, counts) -> None:
    write_csv(path, header, ((repr(float(x)), _format_count(c))
                             for x, c in zip(x_values, counts)))


def _read_scan_csv(path, header: str) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: expected header {header!r}")
    xs, counts, integral = [], [], True
    for line in lines[1:]:
        x_text, _, c_text = line.partition(",")
        xs.append(float(x_text))
        counts.append(c_text)
        if "." in c_text or "e" in c_text or "E" in c_text:
            integral = False
    if integral:
        count_array = np.array([int(c) for c in counts], dtype=np.int64)
    else:
        count_array = np.array([float(c) for c in counts], dtype=np.float64)
    return np.array(xs, dtype=float), count_array


def _meta_path(csv_path):
    from pathlib import Path

    return Path(csv_path).with_suffix(".meta")


def write_interferogram(gram: Interferogram, csv_path,
                        config: ExperimentConfig | None = None) -> None:
    """Write 'chi_rad,counts' rows plus the sidecar metadata record.

    Values round-trip bit exactly: floats are rendered with repr (shortest
    round-trip form) and integers verbatim.
    """
    _write_scan_csv(csv_path, "chi_rad,counts", gram.chi_values, gram.counts)
    meta = {
        "kind": "interferogram",
        "delta": gram.delta,
        "gamma": gram.gamma,
        "flipper_on": gram.flipper_on,
    }
    if config is not None:
        meta.update(config_echo(config))
    _meta_path(csv_path).write_text(format_kv(meta), encoding="utf-8")


def read_interferogram(csv_path) -> tuple:
    """Read back an interferogram CSV and its sidecar; returns (gram, meta)."""
    chi, counts = _read_scan_csv(csv_path, "chi_rad,counts")
    meta = parse_kv(_meta_path(csv_path).read_text(encoding="utf-8"))
    gram = Interferogram(chi, counts, delta=float(meta["delta"]),
                         gamma=float(meta["gamma"]),
                         flipper_on=bool(meta["flipper_on"]))
    return gram, meta


def write_beam_block(scan: BeamBlockScan, csv_path,
                     config: ExperimentConfig | None = None) -> None:
    """Write 'delta_rad,counts' rows plus the sidecar metadata record."""
    _write_scan_csv(csv_path, "delta_rad,counts", scan.delta_values, scan.counts)
    meta = {
        "kind": "beam-block",
        "blocked_path": scan.blocked_path,
        "gamma": scan.gamma,
    }
    if config is not None:
        meta.update(config_echo(config))
    _meta_path(csv_path).write_text(format_kv(meta), encoding="utf-8")


def read_beam_block(csv_path) -> tuple:
    """Read back a beam-block CSV and its sidecar; returns (scan, meta)."""
    deltas, counts = _read_scan_csv(csv_path, "delta_rad,counts")
    meta = parse_kv(_meta_path(csv_path).read_text(encoding="utf-8"))
    scan = BeamBlockScan(deltas, counts, blocked_path=str(meta["blocked_path"]),
                         gamma=float(meta["gamma"]))
    return scan, meta
