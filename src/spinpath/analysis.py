"""Least-squares analysis of simulated counting data.

The pipeline mirrors the measurement procedure: fringe scans are fitted
with a single sinusoid, a flipper-off reference run pins the phase zero of
each fit, beam-block counts supply the +-z path terms, and the four
resulting expectation values combine into S.  Every fitted expectation
(the +-x path terms, and the polar scan's analyzer-curve terms) reads a
pair of fits at an angle b and at b + pi, which leaves one harmonic,
E(b) = ((b+ - b-) cos b + (c+ - c-) sin b) / (a+ + a-).  The polar scan
takes the exact maximum of its S surface from two such harmonics; the
azimuthal scan reads the compensating azimuth off the fitted fringe phase.

Reported S values use the raw fitted contrast, so a finite fringe
visibility propagates into S (a contrast below 1/sqrt(2) suppresses any
inequality violation).  Pass normalize_contrast=True to divide the fringe
contrast by the flipper-off reference contrast instead; beam-block runs have
no fringes, so only the interference-based terms are restored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .experiment import (
    EstimationError,
    ExperimentConfig,
    Interferogram,
    counts_to_expectation,
    reference_run,
    s_from_expectations,
    simulate_beam_block,
    simulate_interferogram,
)
from .quantum import TWO_PI, wrap_two_pi


class FitError(ValueError):
    """Raised when a sinusoid fit cannot be performed."""


class NormalizationError(ValueError):
    """Raised when a reference fit cannot normalize a measurement fit."""


@dataclass(frozen=True)
class SinusoidFit:
    """Weighted least-squares fit of counts to mean + amplitude*cos(x + phase).

    covariance is the 3x3 parameter covariance in the linear basis
    (a, b, c) of the model a + b*cos(x) + c*sin(x), with b = A*cos(phase)
    and c = -A*sin(phase).  visibility is amplitude/mean; over_unity flags
    a contrast ratio that was clipped to 1 during reference normalization.
    """

    mean: float
    amplitude: float
    phase: float
    visibility: float
    covariance: np.ndarray
    residual_chi2: float
    over_unity: bool = False

    def __post_init__(self):
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be nonnegative")
        if self.visibility < 0.0:
            raise ValueError("visibility must be nonnegative")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (3, 3):
            raise ValueError("covariance must be 3x3")
        object.__setattr__(self, "phase", wrap_two_pi(self.phase))
        object.__setattr__(self, "covariance", cov)

    def abc(self) -> tuple:
        """Linear-basis parameters (a, b, c) of the fitted model."""
        return (
            self.mean,
            self.amplitude * math.cos(self.phase),
            -self.amplitude * math.sin(self.phase),
        )

    def model(self, x):
        """Fitted model evaluated at x (scalar or array)."""
        return self.mean + self.amplitude * np.cos(np.asarray(x, dtype=float) + self.phase)

    def phase_variance(self) -> float:
        """Delta-method variance of the fitted phase."""
        _, b, c = self.abc()
        amp_sq = b * b + c * c
        if amp_sq == 0.0:
            return math.inf
        cov = self.covariance
        num = c * c * cov[1, 1] + b * b * cov[2, 2] - 2.0 * b * c * cov[1, 2]
        return num / (amp_sq * amp_sq)


def _gram_schmidt(columns: np.ndarray) -> tuple:
    """Thin QR factorization of the k columns stored as the rows of
    ``columns`` (k x n), by Gram-Schmidt with one full reorthogonalization
    pass, which keeps Q orthonormal to rounding for the condition numbers
    met here (about 142 for a Poisson-weighted half-period design).

    Returns (q, r): the orthonormal columns as a list of rows and the k x k
    upper-triangular factor.  Raises FitError when a column depends on the
    previous ones to within rounding, the rank criterion of a least-squares
    solver (max(n, k) * eps of the largest column norm).
    """
    k, n = columns.shape
    norms = [math.sqrt(float(v @ v)) for v in columns]
    tol = max(n, k) * np.finfo(float).eps * max(norms)
    q = []
    r = np.zeros((k, k))
    for j, v in enumerate(columns):
        for _ in range(2):
            for i, q_i in enumerate(q):
                h = float(q_i @ v)
                v = v - h * q_i
                r[i, j] += h
        norm = math.sqrt(float(v @ v))
        if not norm > tol:
            raise FitError("rank-deficient design (abscissae do not span a fringe)")
        r[j, j] = norm
        q.append(v / norm)
    return q, r


def _upper_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of a 3x3 upper-triangular matrix by back substitution."""
    (a, b, c), (_, d, e), (_, _, f) = r.tolist()
    return np.array([
        [1.0 / a, -b / (a * d), (b * e - c * d) / (a * d * f)],
        [0.0, 1.0 / d, -e / (d * f)],
        [0.0, 0.0, 1.0 / f],
    ])


def fit_sinusoid_xy(x, y, variances) -> SinusoidFit:
    """Weighted least squares of y = a + b*cos(x) + c*sin(x).

    variances are per-point; the fit minimizes sum((y - model)^2 / var).
    The weighted design is factored as QR (two-pass Gram-Schmidt), so the
    coefficients are R^-1 Q^T (y / sigma) and their covariance R^-1 R^-T;
    unlike the normal equations this keeps the rounding error proportional
    to the design's condition number, not its square.  Raises FitError when
    the design is rank deficient (fewer than three independent abscissae).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    var = np.asarray(variances, dtype=float)
    if x.shape != y.shape or x.shape != var.shape:
        raise FitError("x, y and variances must have equal length")
    if x.size < 3:
        raise FitError("need at least 3 points to fit a sinusoid")
    if np.any(var <= 0.0):
        raise FitError("variances must be positive")

    design = np.array([np.ones_like(x), np.cos(x), np.sin(x)])
    weight = 1.0 / np.sqrt(var)
    q, r = _gram_schmidt(design * weight)
    r_inv = _upper_inverse(r)
    wy = y * weight
    coef = r_inv @ np.array([float(q_i @ wy) for q_i in q])
    covariance = r_inv @ r_inv.T
    residual = y - coef @ design
    chi2 = float(np.sum(residual * residual / var))

    a, b, c = coef.tolist()
    amplitude = math.hypot(b, c)
    phase = math.atan2(-c, b)
    if amplitude == 0.0:
        visibility = 0.0
    elif a <= 0.0:
        raise FitError("fitted mean must be positive for count data")
    else:
        visibility = amplitude / a
    return SinusoidFit(mean=a, amplitude=amplitude, phase=phase,
                       visibility=visibility, covariance=covariance,
                       residual_chi2=chi2)


def fit_sinusoid(gram: Interferogram) -> SinusoidFit:
    """Poisson-weighted sinusoid fit of one scan (weights 1/max(count, 1)).

    Expects at least 5 points spanning a full fringe period; noiseless
    model data is recovered exactly.
    """
    counts = np.asarray(gram.counts, dtype=float)
    if counts.size < 5:
        raise FitError("need at least 5 scan points to fit an interferogram")
    return fit_sinusoid_xy(gram.chi_values, counts, np.maximum(counts, 1.0))


def _transform_fit(fit: SinusoidFit, scale: float, phase_shift: float,
                   over_unity: bool) -> SinusoidFit:
    """Scale the fitted amplitude and shift the phase, propagating the
    parameter covariance through the corresponding linear map."""
    cos_r, sin_r = math.cos(phase_shift), math.sin(phase_shift)
    t = np.array([
        [1.0, 0.0, 0.0],
        [0.0, scale * cos_r, -scale * sin_r],
        [0.0, scale * sin_r, scale * cos_r],
    ])
    covariance = t @ fit.covariance @ t.T
    amplitude = fit.amplitude * scale
    visibility = fit.visibility * scale if fit.mean > 0 else 0.0
    return SinusoidFit(mean=fit.mean, amplitude=amplitude,
                       phase=fit.phase - phase_shift, visibility=visibility,
                       covariance=covariance, residual_chi2=fit.residual_chi2,
                       over_unity=over_unity)


def calibrate_phase(fit: SinusoidFit, ref: SinusoidFit) -> SinusoidFit:
    """Shift the fitted phase by the reference phase, leaving contrast raw.

    This pins the fringe coordinate zero (removing the constant dynamical
    offset); the reference phase uncertainty is not folded into the
    covariance because projections are taken at the fringe extrema, where a
    small phase error enters only at second order.
    """
    return _transform_fit(fit, 1.0, ref.phase, fit.over_unity)


def normalize_by_reference(fit: SinusoidFit, ref: SinusoidFit) -> SinusoidFit:
    """Divide the fitted contrast by the reference contrast and subtract the
    reference phase.

    A contrast ratio above one is clipped to one and flagged via
    over_unity.  Raises NormalizationError when the reference carries no
    contrast.
    """
    if ref.visibility <= 0.0:
        raise NormalizationError("reference visibility is zero; cannot normalize")
    ratio = fit.visibility / ref.visibility
    over = ratio > 1.0
    target_visibility = min(ratio, 1.0)
    if fit.amplitude > 0.0:
        scale = target_visibility * fit.mean / fit.amplitude
    else:
        scale = 0.0
    return _transform_fit(fit, scale, ref.phase, over)


@dataclass(frozen=True)
class ScanResult:
    """S estimate at one geometric phase, with the adjusted angles used."""

    gamma: float
    s: float
    sigma_s: float
    beta1: float | None = None
    beta1_p: float | None = None
    alpha2p: float | None = None
    method: str = "counts"
    angle_sigma: float | None = None

    def __post_init__(self):
        if self.s < 0.0:
            raise ValueError("s must be nonnegative")


def _pair_harmonic(plus: SinusoidFit, minus: SinusoidFit) -> tuple:
    """(p, q, total) of a curve pair read at b and b + pi: the readings
    v = (plus(b), plus(b + pi), minus(b), minus(b + pi)) give
    E(b) = (v1 - v2 - v3 + v4) / sum(v) = p cos(b) + q sin(b).  Raises
    EstimationError unless total = a+ + a- is positive."""
    (a_p, b_p, c_p), (a_m, b_m, c_m) = plus.abc(), minus.abc()
    total = a_p + a_m
    if total <= 0.0:
        raise EstimationError("total counts must be positive for estimation")
    return (b_p - b_m) / total, (c_p - c_m) / total, total


def _pair_expectation(plus: SinusoidFit, minus: SinusoidFit, b: float) -> tuple:
    """(E, sigma) of a curve pair read at b and b + pi.

    The fits are independent; each fit's covariance propagates through its
    gradient (-E, +-cos b, +-sin b) / total, applied as the weights
    (1 - E, -1 - E) / (2 total) (plus) or (-1 - E, 1 - E) / (2 total) (minus)
    of its two readings.  A reading pinned by near-zero counts varies far
    less than the fit parameters, and in their basis would lose digits.
    """
    p, q, total = _pair_harmonic(plus, minus)
    cos_b, sin_b = math.cos(b), math.sin(b)
    e = p * cos_b + q * sin_b
    reads = np.array([[1.0, cos_b, sin_b], [1.0, -cos_b, -sin_b]])
    var = 0.0
    for w, fit in (((1.0 - e, -1.0 - e), plus), ((-1.0 - e, 1.0 - e), minus)):
        w = np.array(w)
        var += float(w @ (reads @ fit.covariance @ reads.T) @ w)
    return e, math.sqrt(var) / (2.0 * total)


class _BellMeasurement:
    """One full set of counting runs at a list of spin-analysis angles:
    beam-block runs for the +-z path terms and calibrated fringe fits (with
    their references) for the +-x path terms.  For an S estimate the angles
    are (beta1, beta1 + pi, beta1', beta1' + pi)."""

    def __init__(self, config: ExperimentConfig, gamma: float, deltas,
                 chi_grid=None, exact: bool = False,
                 normalize_contrast: bool = False, base_stream: int = 0):
        self.gamma = float(gamma)
        self.block_plus = simulate_beam_block(
            config, deltas, gamma, "II", stream=(base_stream, 0), exact=exact)
        self.block_minus = simulate_beam_block(
            config, deltas, gamma, "I", stream=(base_stream, 1), exact=exact)

        self.fits = []
        self.references = []
        for i, delta in enumerate(deltas):
            gram = simulate_interferogram(
                config, delta, gamma, chi_grid,
                stream=(base_stream, 2, i), exact=exact)
            ref = reference_run(
                config, delta, chi_grid,
                stream=(base_stream, 3, i), exact=exact)
            fit = fit_sinusoid(gram)
            ref_fit = fit_sinusoid(ref)
            if normalize_contrast:
                fit = normalize_by_reference(fit, ref_fit)
            else:
                fit = calibrate_phase(fit, ref_fit)
            self.fits.append(fit)
            self.references.append(ref_fit)

    @property
    def fitted_phase(self) -> float:
        """Calibrated fringe phase at the first spin angle; equals the
        geometric phase (mod 2*pi) for an ideal run."""
        return self.fits[0].phase

    @property
    def phase_sigma(self) -> float:
        var = self.fits[0].phase_variance() + self.references[0].phase_variance()
        return math.sqrt(var)

    def expectation_z(self, which: int) -> tuple:
        """Path +-z expectation for spin angle index 0 (beta1) or 1 (beta1')."""
        lo = 2 * which
        values = [
            self.block_plus.counts[lo], self.block_plus.counts[lo + 1],
            self.block_minus.counts[lo], self.block_minus.counts[lo + 1],
        ]
        return counts_to_expectation(values)

    def expectation_x(self, which: int, alpha2p: float) -> tuple:
        """Path +-x expectation at azimuth alpha2p for spin angle index
        0 or 1; the fringe fits are read out at the phase-shifter positions
        chi = -alpha2p (path +) and pi - alpha2p (path -)."""
        return _pair_expectation(self.fits[2 * which], self.fits[2 * which + 1],
                                 -alpha2p)

    def s_at(self, alpha2p: float) -> tuple:
        """S and its error with the second path direction at azimuth
        alpha2p."""
        e1, s1 = self.expectation_z(0)
        e2, s2 = self.expectation_z(1)
        e3, s3 = self.expectation_x(0, alpha2p)
        e4, s4 = self.expectation_x(1, alpha2p)
        return s_from_expectations(e1, e2, e3, e4, (s1, s2, s3, s4))


def _bell_deltas(beta1: float, beta1_p: float) -> np.ndarray:
    """Spin-analysis angles of one S estimate."""
    return np.array([beta1, beta1 + math.pi, beta1_p, beta1_p + math.pi])


@dataclass(frozen=True)
class BellEstimate:
    """Full-pipeline S estimate at one angle configuration."""

    s: float
    sigma_s: float
    gamma: float
    alpha2p: float
    fitted_phase: float
    phase_sigma: float


def estimate_bell_s(config: ExperimentConfig, gamma: float,
                    beta1: float = math.pi / 4.0,
                    beta1_p: float = 3.0 * math.pi / 4.0,
                    alpha2_p: float = 0.0, chi_grid=None, exact: bool = False,
                    normalize_contrast: bool = False,
                    base_stream: int = 0) -> BellEstimate:
    """Simulate the counting runs for one S value and analyze them.

    Beam-block runs at the four spin angles (beta1, beta1 + pi, beta1',
    beta1' + pi) supply the +-z path quadruples; fringe scans plus
    flipper-off references at the same angles supply the +-x projections,
    evaluated at the positions corresponding to the path azimuth alpha2_p.
    """
    measurement = _BellMeasurement(config, gamma, _bell_deltas(beta1, beta1_p),
                                   chi_grid, exact, normalize_contrast,
                                   base_stream)
    s, sigma = measurement.s_at(alpha2_p)
    return BellEstimate(s=s, sigma_s=sigma, gamma=float(gamma),
                        alpha2p=float(alpha2_p),
                        fitted_phase=measurement.fitted_phase,
                        phase_sigma=measurement.phase_sigma)


def default_polar_delta_grid() -> np.ndarray:
    """Spin-analysis angles 0 .. pi in steps of pi/8."""
    return np.linspace(0.0, math.pi, 9)


def default_gamma_grid() -> np.ndarray:
    """Geometric phases: steps of pi/6 up to pi, then steps of pi/4."""
    first = np.arange(0.0, math.pi + 1e-12, math.pi / 6.0)
    second = np.arange(math.pi + math.pi / 4.0, TWO_PI + 1e-12,
                       math.pi / 4.0)
    return np.concatenate([first, second])


def _harmonic_max(p: float, q: float) -> tuple:
    """(b, value) maximizing p*cos(b) + q*sin(b) over b in [0, pi]: the
    peak hypot(p, q) at atan2(q, p) when it lies inside (q > 0), otherwise
    the larger endpoint."""
    if q > 0.0:
        return math.atan2(q, p), math.hypot(p, q)
    return (0.0, p) if p >= 0.0 else (math.pi, -p)


def _polar_curves(measurement: _BellMeasurement, deltas: np.ndarray) -> tuple:
    """Sinusoid fits (z_plus, z_minus, x_plus, x_minus) of the four
    analyzer-angle curves: the two beam-block curves and the fringe
    projections at chi = 0 and pi, whose values are a +- b of each fringe
    fit and whose variances are cov00 + cov11 +- 2 cov01."""
    curves = []
    for scan in (measurement.block_plus, measurement.block_minus):
        counts = np.asarray(scan.counts, float)
        curves.append(fit_sinusoid_xy(deltas, counts, np.maximum(counts, 1.0)))
    abc = np.array([fit.abc() for fit in measurement.fits])
    cov = np.array([fit.covariance for fit in measurement.fits])
    var = cov[:, 0, 0] + cov[:, 1, 1]
    for sign in (1.0, -1.0):
        curves.append(fit_sinusoid_xy(
            deltas, abc[:, 0] + sign * abc[:, 1],
            np.maximum(var + sign * 2.0 * cov[:, 0, 1], 1e-12)))
    return tuple(curves)


def _polar_maximum(z_plus, z_minus, x_plus, x_minus) -> tuple:
    """Exact maximum (beta1, beta1', S) of the fitted S surface on [0, pi]^2.

    Each curve pair gives one harmonic E(b) (see _pair_harmonic).  The
    surface is |U(b1) + V(b1')| with U = E_x + E_z and V = E_x - E_z,
    and its maximum is the larger of max U + max V and -(min U + min V).
    """
    pz, qz, _ = _pair_harmonic(z_plus, z_minus)
    px, qx, _ = _pair_harmonic(x_plus, x_minus)
    b1_hi, u_hi = _harmonic_max(px + pz, qx + qz)
    b1p_hi, v_hi = _harmonic_max(px - pz, qx - qz)
    b1_lo, u_lo = _harmonic_max(-px - pz, -qx - qz)
    b1p_lo, v_lo = _harmonic_max(pz - px, qz - qx)
    if u_hi + v_hi >= u_lo + v_lo:
        return b1_hi, b1p_hi, u_hi + v_hi
    return b1_lo, b1p_lo, u_lo + v_lo


def run_polar_scan(config: ExperimentConfig, gamma_list, delta_grid=None,
                   chi_grid=None, exact: bool = False,
                   normalize_contrast: bool = False) -> list:
    """Polar-adjustment scan: for each gamma, rebuild the S(beta1, beta1')
    surface from counting data and take its exact maximum.

    For every analyzer angle in delta_grid (which must cover [0, pi] at
    steps no coarser than pi/8) the scan simulates the two beam-block runs
    once per gamma and one fringe scan plus reference per angle.  The four
    resulting curves (two beam-block curves, and the fringe-extremum
    projections versus analyzer angle) are themselves sinusoids and are
    fitted as such; the fitted curves evaluated at any (beta1, beta1')
    produce the S surface, a sum of two harmonics whose maximum and
    maximizing angles follow in closed form and are returned per gamma.
    """
    gamma_values = np.atleast_1d(np.asarray(gamma_list, dtype=float))
    if gamma_values.size == 0:
        raise ValueError("gamma_list must not be empty")
    deltas = (default_polar_delta_grid() if delta_grid is None
              else np.asarray(delta_grid, dtype=float))
    if deltas.size < 2:
        raise ValueError("delta_grid must contain at least 2 angles")
    if deltas.min() > 1e-9 or deltas.max() < math.pi - 1e-9:
        raise ValueError("delta_grid must cover [0, pi]")
    if np.diff(np.sort(deltas)).max() > math.pi / 8.0 + 1e-9:
        raise ValueError("delta_grid step must be at most pi/8")

    results = []
    for ig, gamma in enumerate(gamma_values):
        measurement = _BellMeasurement(config, gamma, deltas, chi_grid, exact,
                                       normalize_contrast, base_stream=ig)
        z_plus, z_minus, x_plus, x_minus = _polar_curves(measurement, deltas)
        beta1, beta1_p, s_max = _polar_maximum(z_plus, z_minus, x_plus, x_minus)
        sigma_s = math.sqrt(sum(
            _pair_expectation(plus, minus, b)[1] ** 2
            for plus, minus in ((z_plus, z_minus), (x_plus, x_minus))
            for b in (beta1, beta1_p)))
        results.append(ScanResult(gamma=float(gamma), s=s_max, sigma_s=sigma_s,
                                  beta1=beta1, beta1_p=beta1_p,
                                  method="polar-adjusted"))
    return results


def run_azimuthal_scan(config: ExperimentConfig, gamma_list, chi_grid=None,
                       exact: bool = False,
                       normalize_contrast: bool = False) -> list:
    """Azimuthal-adjustment scan at fixed polar Bell angles.

    For each gamma the compensating azimuth is located via the calibrated
    fringe phase; S is then evaluated both at that azimuth (adjusted) and
    at zero azimuth (unadjusted), yielding two results per gamma.
    """
    gamma_values = np.atleast_1d(np.asarray(gamma_list, dtype=float))
    if gamma_values.size == 0:
        raise ValueError("gamma_list must not be empty")

    results = []
    for ig, gamma in enumerate(gamma_values):
        measurement = _BellMeasurement(
            config, gamma, _bell_deltas(math.pi / 4.0, 3.0 * math.pi / 4.0),
            chi_grid, exact, normalize_contrast, base_stream=ig)
        alpha2p = measurement.fitted_phase
        s_adj, sigma_adj = measurement.s_at(alpha2p)
        s_raw, sigma_raw = measurement.s_at(0.0)
        results.append(ScanResult(gamma=float(gamma), s=s_adj,
                                  sigma_s=sigma_adj, alpha2p=alpha2p,
                                  method="azimuthal-adjusted",
                                  angle_sigma=measurement.phase_sigma))
        results.append(ScanResult(gamma=float(gamma), s=s_raw,
                                  sigma_s=sigma_raw, alpha2p=0.0,
                                  method="azimuthal-unadjusted"))
    return results


SCAN_CSV_HEADER = "gamma_rad,beta1_rad,beta1p_rad,alpha2p_rad,s,sigma_s,method"


def write_scan_results(results, path) -> None:
    """Write scan results as plot-ready CSV; unused angle columns stay
    empty."""
    def cell(value):
        return "" if value is None else repr(float(value))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SCAN_CSV_HEADER + "\n")
        for r in results:
            fh.write(",".join([
                repr(float(r.gamma)), cell(r.beta1), cell(r.beta1_p),
                cell(r.alpha2p), repr(float(r.s)), repr(float(r.sigma_s)),
                r.method,
            ]) + "\n")


def read_scan_results(path) -> list:
    """Read back a scan-result CSV written by write_scan_results."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0] != SCAN_CSV_HEADER:
        raise ValueError(f"{path}: expected header {SCAN_CSV_HEADER!r}")
    out = []
    for line in lines[1:]:
        gamma, beta1, beta1_p, alpha2p, s, sigma_s, method = line.split(",")
        out.append(ScanResult(
            gamma=float(gamma), s=float(s), sigma_s=float(sigma_s),
            beta1=float(beta1) if beta1 else None,
            beta1_p=float(beta1_p) if beta1_p else None,
            alpha2p=float(alpha2p) if alpha2p else None,
            method=method,
        ))
    return out
