"""Least-squares analysis of simulated counting data.

The pipeline mirrors the measurement procedure: fringe scans are fitted
with a single sinusoid, a flipper-off reference run pins the phase zero of
each fit, beam-block counts supply the +-z path terms, and the four
resulting expectation values combine into S.  fit_sinusoid_xy fits a whole
stack of runs in one vectorized QR, so a Bell estimate or an azimuthal scan
fits all its fringe and reference runs in one call, and a polar scan takes
two calls (the runs, then the analyzer-angle curves of every gamma).

Every fitted expectation (the +-x path terms, and the polar scan's
analyzer-curve terms) reads a pair of fits at an angle b and at b + pi,
which leaves one harmonic,
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
    finite_values,
    reference_run,
    s_from_expectations,
    simulate_beam_block,
    simulate_interferogram,
    write_csv,
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


def _check_rows(bad: np.ndarray, message: str, single: bool) -> None:
    """Raise FitError(message), naming the first row flagged in bad unless
    the fit was called on a single run."""
    if bad.any():
        raise FitError(message if single else f"row {int(np.argmax(bad))}: {message}")


def _gram_schmidt(columns: np.ndarray, single: bool) -> tuple:
    """Thin QR factorizations of a stack of designs: ``columns`` (K x k x n)
    holds each design's k columns as rows.  Gram-Schmidt with one full
    reorthogonalization pass keeps Q orthonormal to rounding for the
    condition numbers met here (about 142 for a Poisson-weighted
    half-period design).

    Returns (q, r): the orthonormal columns (K x k x n) and the
    upper-triangular factors (K x k x k).  Raises FitError when a column of
    some design depends on its previous ones to within rounding, the rank
    criterion of a least-squares solver (max(n, k) * eps of that design's
    largest column norm).
    """
    runs, k, n = columns.shape
    norms = np.sqrt(np.sum(columns * columns, axis=-1))
    tol = max(n, k) * np.finfo(float).eps * norms.max(axis=-1)
    q = np.empty_like(columns)
    r = np.zeros((runs, k, k))
    for j in range(k):
        v = columns[:, j]
        for _ in range(2):
            for i in range(j):
                h = np.sum(q[:, i] * v, axis=-1)
                v = v - h[:, None] * q[:, i]
                r[:, i, j] += h
        norm = np.sqrt(np.sum(v * v, axis=-1))
        _check_rows(~(norm > tol),
                    "rank-deficient design (abscissae do not span a fringe)",
                    single)
        r[:, j, j] = norm
        q[:, j] = v / norm[:, None]
    return q, r


def _upper_inverse(r: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 3x3 upper-triangular matrices by back
    substitution."""
    a, b, c = r[:, 0, 0], r[:, 0, 1], r[:, 0, 2]
    d, e, f = r[:, 1, 1], r[:, 1, 2], r[:, 2, 2]
    inv = np.zeros_like(r)
    inv[:, 0, 0] = 1.0 / a
    inv[:, 0, 1] = -b / (a * d)
    inv[:, 0, 2] = (b * e - c * d) / (a * d * f)
    inv[:, 1, 1] = 1.0 / d
    inv[:, 1, 2] = -e / (d * f)
    inv[:, 2, 2] = 1.0 / f
    return inv


def fit_sinusoid_xy(x, y, variances) -> SinusoidFit | list:
    """Weighted least squares of y = a + b*cos(x) + c*sin(x), one run or a
    stack of runs at once.

    y and variances have shape (n,) for one run, which returns one
    SinusoidFit, or (K, n) for K runs, which returns a list of K fits in
    row order; x has shape (n,), shared by every run, or the shape of y.
    Each run is fitted on its own: the fit minimizes
    sum((y - model)^2 / var) over that run's points.  The weighted design
    is factored as QR (two-pass Gram-Schmidt, vectorized over the runs), so
    the coefficients are R^-1 Q^T (y / sigma) and their covariance
    R^-1 R^-T; unlike the normal equations this keeps the rounding error
    proportional to the design's condition number, not its square.

    Checked per run: at least 3 points, positive variances, a design of
    full rank (fewer than three independent abscissae fail the rank
    criterion of _gram_schmidt) and a positive fitted mean unless the
    fitted amplitude is zero (an all-zero run fits to visibility 0).  Any
    failure raises FitError; for a stack its message starts with the index
    of the first failing row.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    var = np.asarray(variances, dtype=float)
    if (y.ndim not in (1, 2) or var.shape != y.shape
            or x.shape not in (y.shape, y.shape[-1:])):
        raise FitError("y and variances must share one shape, (n,) or (K, n), "
                       "and x must have shape (n,) or that shape")
    single = y.ndim == 1
    y, var = np.atleast_2d(y), np.atleast_2d(var)
    if y.shape[1] < 3:
        raise FitError("need at least 3 points to fit a sinusoid")
    _check_rows(np.any(var <= 0.0, axis=1), "variances must be positive",
                single)

    design = np.stack([np.ones_like(x), np.cos(x), np.sin(x)], axis=-2)
    weight = 1.0 / np.sqrt(var)
    q, r = _gram_schmidt(design * weight[:, None, :], single)
    r_inv = _upper_inverse(r)
    projections = np.sum(q * (y * weight)[:, None, :], axis=-1)
    coef = (r_inv @ projections[:, :, None])[:, :, 0]
    covariance = r_inv @ r_inv.transpose(0, 2, 1)
    residual = y - (coef[:, None, :] @ design)[:, 0, :]
    chi2 = np.sum(residual * residual / var, axis=-1)
    flat = (coef[:, 1] == 0.0) & (coef[:, 2] == 0.0)
    _check_rows(~flat & (coef[:, 0] <= 0.0),
                "fitted mean must be positive for count data", single)

    fits = []
    for (a, b, c), cov, row_chi2 in zip(coef.tolist(), covariance,
                                        chi2.tolist()):
        amplitude = math.hypot(b, c)
        fits.append(SinusoidFit(
            mean=a, amplitude=amplitude, phase=math.atan2(-c, b),
            visibility=amplitude / a if amplitude != 0.0 else 0.0,
            covariance=cov, residual_chi2=row_chi2))
    return fits[0] if single else fits


def _fit_counts(chi, counts):
    """Poisson-weighted sinusoid fits (weights 1/max(count, 1)) of one scan,
    counts of shape (n,), or of a stack of scans sharing chi, (K, n)."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim == 0 or counts.shape[-1] < 5:
        raise FitError("need at least 5 scan points to fit an interferogram")
    return fit_sinusoid_xy(chi, counts, np.maximum(counts, 1.0))


def fit_sinusoid(gram: Interferogram) -> SinusoidFit:
    """Poisson-weighted sinusoid fit of one scan (weights 1/max(count, 1)).

    Expects at least 5 points spanning a full fringe period; noiseless
    model data is recovered exactly.
    """
    return _fit_counts(gram.chi_values, gram.counts)


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
    """Full sets of counting runs, one per geometric phase in gammas, at a
    list of spin-analysis angles: beam-block runs for the +-z path terms and
    calibrated fringe fits (with their references) for the +-x path terms.
    For an S estimate the angles are (beta1, beta1 + pi, beta1', beta1' + pi).

    The runs at position ig of gammas draw from the streams keyed
    (base_stream + ig, kind, ...).  Every fringe and reference run of the
    whole list is fitted in one stacked fit_sinusoid_xy call; fits and
    references hold the calibrated fringe fits and the reference fits in
    (gamma, delta) order.
    """

    def __init__(self, config: ExperimentConfig, gammas, deltas,
                 chi_grid=None, exact: bool = False,
                 normalize_contrast: bool = False, base_stream: int = 0):
        self.n_delta = len(deltas)
        self.block_plus, self.block_minus, runs = [], [], []
        for ig, gamma in enumerate(gammas):
            stream = base_stream + ig
            self.block_plus.append(simulate_beam_block(
                config, deltas, gamma, "II", stream=(stream, 0), exact=exact))
            self.block_minus.append(simulate_beam_block(
                config, deltas, gamma, "I", stream=(stream, 1), exact=exact))
            for i, delta in enumerate(deltas):
                runs.append(simulate_interferogram(
                    config, delta, gamma, chi_grid, stream=(stream, 2, i),
                    exact=exact))
                runs.append(reference_run(
                    config, delta, chi_grid, stream=(stream, 3, i),
                    exact=exact))

        fits = _fit_counts(runs[0].chi_values, [run.counts for run in runs])
        self.references = fits[1::2]
        self.fits = []
        for fit, ref, run in zip(fits[0::2], self.references, runs[1::2]):
            if not normalize_contrast:
                self.fits.append(calibrate_phase(fit, ref))
                continue
            try:
                self.fits.append(normalize_by_reference(fit, ref))
            except NormalizationError as exc:
                raise NormalizationError(
                    f"normalize_contrast: flipper-off reference at delta = "
                    f"{run.delta!r}: {exc}") from exc

    def fitted_phase(self, ig: int) -> float:
        """Calibrated fringe phase at the first spin angle of gamma index
        ig; equals the geometric phase (mod 2*pi) for an ideal run."""
        return self.fits[ig * self.n_delta].phase

    def phase_sigma(self, ig: int) -> float:
        k = ig * self.n_delta
        var = self.fits[k].phase_variance() + self.references[k].phase_variance()
        return math.sqrt(var)

    def expectation_z(self, ig: int, which: int) -> tuple:
        """Path +-z expectation at gamma index ig for spin angle index 0
        (beta1) or 1 (beta1')."""
        lo = 2 * which
        plus, minus = self.block_plus[ig].counts, self.block_minus[ig].counts
        return counts_to_expectation(
            [plus[lo], plus[lo + 1], minus[lo], minus[lo + 1]])

    def expectation_x(self, ig: int, which: int, alpha2p: float) -> tuple:
        """Path +-x expectation at gamma index ig and azimuth alpha2p for
        spin angle index 0 or 1; the fringe fits are read out at the
        phase-shifter positions chi = -alpha2p (path +) and pi - alpha2p
        (path -)."""
        k = ig * self.n_delta + 2 * which
        return _pair_expectation(self.fits[k], self.fits[k + 1], -alpha2p)

    def s_at(self, ig: int, alpha2p: float) -> tuple:
        """S and its error at gamma index ig with the second path direction
        at azimuth alpha2p."""
        e1, s1 = self.expectation_z(ig, 0)
        e2, s2 = self.expectation_z(ig, 1)
        e3, s3 = self.expectation_x(ig, 0, alpha2p)
        e4, s4 = self.expectation_x(ig, 1, alpha2p)
        return s_from_expectations(e1, e2, e3, e4, (s1, s2, s3, s4))


def _bell_deltas(beta1: float, beta1_p: float) -> np.ndarray:
    """Spin-analysis angles of one S estimate."""
    return np.array([beta1, beta1 + math.pi, beta1_p, beta1_p + math.pi])


def _gamma_values(gamma_list) -> np.ndarray:
    """The geometric phases of a scan, finite and at least one."""
    gamma_values = np.atleast_1d(finite_values("gamma_list", gamma_list))
    if gamma_values.size == 0:
        raise ValueError("gamma_list must not be empty")
    return gamma_values


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
    A NaN or infinite angle raises ValueError naming it.
    """
    for field, value in (("gamma", gamma), ("beta1", beta1),
                         ("beta1_p", beta1_p), ("alpha2_p", alpha2_p)):
        finite_values(field, value)
    measurement = _BellMeasurement(config, [gamma], _bell_deltas(beta1, beta1_p),
                                   chi_grid, exact, normalize_contrast,
                                   base_stream)
    s, sigma = measurement.s_at(0, alpha2_p)
    return BellEstimate(s=s, sigma_s=sigma, gamma=float(gamma),
                        alpha2p=float(alpha2_p),
                        fitted_phase=measurement.fitted_phase(0),
                        phase_sigma=measurement.phase_sigma(0))


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


def _polar_curves(measurement: _BellMeasurement, deltas: np.ndarray) -> list:
    """Sinusoid fits (z_plus, z_minus, x_plus, x_minus) of the four
    analyzer-angle curves, one tuple per gamma of the measurement, all
    fitted in one stacked call: the two beam-block curves and the fringe
    projections at chi = 0 and pi, whose values are a +- b of each fringe
    fit and whose variances are cov00 + cov11 +- 2 cov01."""
    n_delta = len(deltas)
    abc = np.array([fit.abc() for fit in measurement.fits])
    cov = np.array([fit.covariance for fit in measurement.fits])
    var = cov[:, 0, 0] + cov[:, 1, 1]
    ys, variances = [], []
    for ig, (plus, minus) in enumerate(zip(measurement.block_plus,
                                           measurement.block_minus)):
        for scan in (plus, minus):
            counts = np.asarray(scan.counts, float)
            ys.append(counts)
            variances.append(np.maximum(counts, 1.0))
        rows = slice(ig * n_delta, (ig + 1) * n_delta)
        for sign in (1.0, -1.0):
            ys.append(abc[rows, 0] + sign * abc[rows, 1])
            variances.append(np.maximum(
                var[rows] + sign * 2.0 * cov[rows, 0, 1], 1e-12))
    curves = fit_sinusoid_xy(deltas, np.array(ys), np.array(variances))
    return [tuple(curves[i:i + 4]) for i in range(0, len(curves), 4)]


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
    s_hi, s_lo = u_hi + v_hi, u_lo + v_lo
    # Where cos(gamma) = 0 the branches tie up to rounding; a gap at that
    # scale keeps the hi branch, so ulp-level changes in the fits cannot
    # swap the reported angles between members of the maximizing pair.
    if s_lo - s_hi <= 1e-12 * abs(s_hi):
        return b1_hi, b1p_hi, s_hi
    return b1_lo, b1p_lo, s_lo


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
    The whole scan takes two stacked fits: one of every fringe and
    reference run, one of every analyzer-angle curve.
    """
    gamma_values = _gamma_values(gamma_list)
    deltas = (default_polar_delta_grid() if delta_grid is None
              else finite_values("delta_grid", delta_grid))
    if deltas.size < 2:
        raise ValueError("delta_grid must contain at least 2 angles")
    if deltas.min() > 1e-9 or deltas.max() < math.pi - 1e-9:
        raise ValueError("delta_grid must cover [0, pi]")
    if np.diff(np.sort(deltas)).max() > math.pi / 8.0 + 1e-9:
        raise ValueError("delta_grid step must be at most pi/8")

    measurement = _BellMeasurement(config, gamma_values, deltas, chi_grid,
                                   exact, normalize_contrast)
    results = []
    for gamma, curves in zip(gamma_values, _polar_curves(measurement, deltas)):
        z_plus, z_minus, x_plus, x_minus = curves
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
    at zero azimuth (unadjusted), yielding two results per gamma.  Every
    fringe and reference run of the scan is fitted in one stacked call.
    """
    gamma_values = _gamma_values(gamma_list)
    measurement = _BellMeasurement(
        config, gamma_values, _bell_deltas(math.pi / 4.0, 3.0 * math.pi / 4.0),
        chi_grid, exact, normalize_contrast)
    results = []
    for ig, gamma in enumerate(gamma_values):
        alpha2p = measurement.fitted_phase(ig)
        s_adj, sigma_adj = measurement.s_at(ig, alpha2p)
        s_raw, sigma_raw = measurement.s_at(ig, 0.0)
        results.append(ScanResult(gamma=float(gamma), s=s_adj,
                                  sigma_s=sigma_adj, alpha2p=alpha2p,
                                  method="azimuthal-adjusted",
                                  angle_sigma=measurement.phase_sigma(ig)))
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

    write_csv(path, SCAN_CSV_HEADER, (
        (repr(float(r.gamma)), cell(r.beta1), cell(r.beta1_p), cell(r.alpha2p),
         repr(float(r.s)), repr(float(r.sigma_s)), r.method)
        for r in results))


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
