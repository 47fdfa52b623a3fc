import math
from fractions import Fraction

import numpy as np
import pytest

import spinpath.analysis as analysis
from conftest import maximize_2d, polar_angle_deviation
from spinpath.analysis import (
    FitError,
    NormalizationError,
    ScanResult,
    SinusoidFit,
    calibrate_phase,
    default_gamma_grid,
    default_polar_delta_grid,
    estimate_bell_s,
    fit_sinusoid,
    fit_sinusoid_xy,
    normalize_by_reference,
    read_scan_results,
    run_azimuthal_scan,
    run_polar_scan,
    write_scan_results,
)
from spinpath.chsh import s_polar_max
from spinpath.experiment import (
    EstimationError,
    ExperimentConfig,
    Interferogram,
    simulate_beam_block,
    simulate_interferogram,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


def make_gram(chi, counts):
    return Interferogram(chi, counts, delta=0.0, gamma=0.0)


def flat_fit(mean, visibility, phase):
    amplitude = visibility * mean
    return SinusoidFit(mean=mean, amplitude=amplitude, phase=phase,
                       visibility=visibility, covariance=np.eye(3),
                       residual_chi2=0.0)


def visibility_sigma(fit):
    a, b, c = fit.abc()
    amp = math.hypot(b, c)
    grad = np.array([-amp / a ** 2, b / (amp * a), c / (amp * a)])
    return math.sqrt(grad @ fit.covariance @ grad)


# ---------------------------------------------------------------------------
# sinusoid fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_spec_example():
    chi = np.linspace(0, 4 * math.pi, 32, endpoint=False)
    fit = fit_sinusoid(make_gram(chi, 100.0 * (1.0 + 0.5 * np.cos(chi - 0.3))))
    assert fit.mean == pytest.approx(100.0, rel=1e-9)
    assert fit.visibility == pytest.approx(0.5, rel=1e-9)
    # phase convention: model = mean + A*cos(chi + phase), phase in [0, 2*pi)
    assert fit.phase == pytest.approx(2 * math.pi - 0.3, abs=1e-9)
    fit = fit_sinusoid(make_gram(chi, 100.0 * (1.0 + 0.5 * np.cos(chi + 0.3))))
    assert fit.phase == pytest.approx(0.3, abs=1e-9)


def test_fit_recovers_random_parameters():
    rng = np.random.default_rng(0)
    chi = np.linspace(0, 4 * math.pi, 32, endpoint=False)
    for _ in range(100):
        mean = rng.uniform(50, 2000)
        visibility = rng.uniform(0.05, 1.0)
        phase = rng.uniform(0, 2 * math.pi)
        counts = mean * (1.0 + visibility * np.cos(chi + phase))
        fit = fit_sinusoid(make_gram(chi, counts))
        assert fit.mean == pytest.approx(mean, rel=1e-9)
        assert fit.amplitude == pytest.approx(mean * visibility, rel=1e-9)
        assert fit.visibility == pytest.approx(visibility, rel=1e-9)
        delta_phase = (fit.phase - phase + math.pi) % (2 * math.pi) - math.pi
        assert abs(delta_phase) < 1e-9


def test_fit_flat_data():
    chi = np.linspace(0, 4 * math.pi, 32, endpoint=False)
    fit = fit_sinusoid(make_gram(chi, np.full(32, 250.0)))
    assert fit.amplitude == pytest.approx(0.0, abs=1e-9)
    assert fit.visibility == pytest.approx(0.0, abs=1e-9)


def test_fit_rejects_degenerate_designs():
    with pytest.raises(FitError):
        fit_sinusoid(make_gram(np.full(8, 1.3), np.full(8, 100.0)))
    with pytest.raises(FitError):
        fit_sinusoid(make_gram(np.array([0.0, 1.0, 2.0, 3.0]),
                               np.array([1.0, 2.0, 1.0, 2.0])))
    with pytest.raises(FitError):
        fit_sinusoid_xy(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]),
                        np.array([1.0, -1.0, 1.0]))


@pytest.mark.parametrize("blocked_path", ["I", "II"])
def test_fit_matches_lstsq_on_beam_block_design(blocked_path):
    # the exact half-period beam-block curve has zero counts at one end, so
    # the Poisson-weighted design has condition number ~142
    deltas = default_polar_delta_grid()
    counts = simulate_beam_block(ExperimentConfig(), deltas, 0.0, blocked_path,
                                 exact=True).counts
    var = np.maximum(counts, 1.0)
    fit = fit_sinusoid_xy(deltas, counts, var)

    weighted = (np.column_stack([np.ones_like(deltas), np.cos(deltas),
                                 np.sin(deltas)]) / np.sqrt(var)[:, None])
    assert np.linalg.cond(weighted) > 100.0
    coef = np.linalg.lstsq(weighted, counts / np.sqrt(var), rcond=None)[0]
    _, singular, vt = np.linalg.svd(weighted, full_matrices=False)
    covariance = (vt.T / singular ** 2) @ vt
    scale = np.max(np.abs(coef))
    assert np.max(np.abs(np.array(fit.abc()) - coef)) <= 1e-13 * scale
    assert np.max(np.abs(fit.covariance - covariance)) <= \
        1e-13 * np.max(np.abs(covariance))


def test_fit_poisson_visibility_coverage():
    # 1e4 mean counts, V = 0.5: fitted contrast within 3 sigma in >= 99% of
    # seeded trials
    config_template = dict(max_rate=25.0, measure_time=800.0, visibility=0.5)
    hits = 0
    trials = 200
    for seed in range(trials):
        config = ExperimentConfig(seed=seed, **config_template)
        gram = simulate_interferogram(config, math.pi / 2, 0.0)
        fit = fit_sinusoid(gram)
        if abs(fit.visibility - 0.5) <= 3 * visibility_sigma(fit):
            hits += 1
    assert hits / trials >= 0.99


def test_fitted_visibility_matches_config():
    config = ExperimentConfig(max_rate=25.0, measure_time=1600.0,
                              visibility=0.5, seed=2)
    fit = fit_sinusoid(simulate_interferogram(config, math.pi / 2, 0.0))
    assert abs(fit.visibility - 0.5) <= 3 * visibility_sigma(fit)


# ---------------------------------------------------------------------------
# reference normalization
# ---------------------------------------------------------------------------

def test_normalize_contrast_ratio():
    fit = normalize_by_reference(flat_fit(100.0, 0.4, 1.0),
                                 flat_fit(100.0, 0.5, 0.3))
    assert fit.visibility == pytest.approx(0.8, rel=1e-12)
    assert fit.phase == pytest.approx(0.7, abs=1e-12)
    assert fit.over_unity is False


def test_normalize_clips_over_unity():
    fit = normalize_by_reference(flat_fit(100.0, 0.55, 0.0),
                                 flat_fit(100.0, 0.5, 0.0))
    assert fit.visibility == pytest.approx(1.0, abs=1e-12)
    assert fit.over_unity is True


def test_normalize_requires_reference_contrast():
    with pytest.raises(NormalizationError):
        normalize_by_reference(flat_fit(100.0, 0.4, 0.0),
                               flat_fit(100.0, 0.0, 0.0))


def test_normalize_wraps_phase():
    fit = normalize_by_reference(flat_fit(100.0, 0.4, 0.2),
                                 flat_fit(100.0, 0.5, 0.5))
    assert fit.phase == pytest.approx(2 * math.pi - 0.3, abs=1e-12)


def test_calibrate_phase_keeps_contrast():
    fit = calibrate_phase(flat_fit(100.0, 0.4, 1.0), flat_fit(100.0, 0.5, 0.3))
    assert fit.visibility == pytest.approx(0.4, rel=1e-12)
    assert fit.phase == pytest.approx(0.7, abs=1e-12)


def test_reference_phase_recovery_from_noiseless_run():
    from spinpath.experiment import reference_run

    config = ExperimentConfig(dyn_offset=0.3)
    ref = reference_run(config, math.pi / 2, exact=True)
    fit = fit_sinusoid(ref)
    assert fit.phase == pytest.approx(0.3, abs=1e-9)


# ---------------------------------------------------------------------------
# fringe projections
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mean,amp,phase,expected", [
    (100.0, 50.0, 0.0, (150.0, 50.0)),
    (100.0, 0.0, 1.234, (100.0, 100.0)),
    (80.0, 40.0, math.pi / 2, (80.0, 80.0)),
])
def test_projections_examples(mean, amp, phase, expected):
    fit = SinusoidFit(mean=mean, amplitude=amp, phase=phase,
                      visibility=amp / mean, covariance=np.eye(3),
                      residual_chi2=0.0)
    # the +-x path projections read the fit at fringe coordinates 0 and pi
    i0, ipi = fit.model(0.0), fit.model(math.pi)
    assert i0 == pytest.approx(expected[0], abs=1e-9)
    assert ipi == pytest.approx(expected[1], abs=1e-9)


# ---------------------------------------------------------------------------
# full pipeline, infinite statistics
# ---------------------------------------------------------------------------

def test_polar_scan_matches_analytic_curve():
    config = ExperimentConfig()
    gammas = [0.0, math.pi / 4, math.pi / 2, 2.0]
    results = run_polar_scan(config, gammas, exact=True)
    for r in results:
        assert r.s == pytest.approx(s_polar_max(r.gamma), abs=1e-6)
        assert polar_angle_deviation(r.beta1, r.beta1_p, r.gamma) < 1e-5
        assert r.method == "polar-adjusted"


def test_exact_polar_scan_on_default_grid_matches_closed_form():
    results = run_polar_scan(ExperimentConfig(), default_gamma_grid(), exact=True)
    for r in results:
        assert abs(r.s - 2.0 * math.sqrt(1.0 + math.cos(r.gamma) ** 2)) <= 1e-12


def test_polar_scan_gamma_quarter_value():
    config = ExperimentConfig()
    result = run_polar_scan(config, [math.pi / 4], exact=True)[0]
    assert result.s == pytest.approx(2.449489742783178, abs=1e-6)


def test_azimuthal_scan_matches_analytic_curves():
    config = ExperimentConfig()
    gammas = [0.0, math.pi / 6, math.pi, 4.0]
    results = run_azimuthal_scan(config, gammas, exact=True)
    adjusted = [r for r in results if r.method == "azimuthal-adjusted"]
    unadjusted = [r for r in results if r.method == "azimuthal-unadjusted"]
    for r, gamma in zip(adjusted, gammas):
        assert r.s == pytest.approx(TSIRELSON, abs=1e-6)
        delta = (r.alpha2p - gamma + math.pi) % (2 * math.pi) - math.pi
        assert abs(delta) < 1e-6
    for r, gamma in zip(unadjusted, gammas):
        want = math.sqrt(2.0) * abs(1.0 + math.cos(gamma))
        assert r.s == pytest.approx(want, abs=1e-6)
        assert r.alpha2p == 0.0


def test_pipeline_removes_dynamical_offset():
    config = ExperimentConfig(dyn_offset=0.4)
    result = run_azimuthal_scan(config, [math.pi / 6], exact=True)[0]
    assert result.s == pytest.approx(TSIRELSON, abs=1e-6)
    assert result.alpha2p == pytest.approx(math.pi / 6, abs=1e-6)


def test_flip_imperfection_degrades_s():
    values = []
    for theta in (0.0, 0.2, 0.4):
        config = ExperimentConfig(theta=theta)
        values.append(estimate_bell_s(config, 0.0, exact=True).s)
    assert values[0] == pytest.approx(TSIRELSON, abs=1e-9)
    assert values[0] > values[1] > values[2]


# ---------------------------------------------------------------------------
# exact maximum of the polar S surface
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,q", [
    (0.3, 0.8), (-0.6, 0.2),      # q > 0: interior peak
    (0.5, -0.4), (0.7, 0.0),      # q <= 0, p >= 0: endpoint 0
    (-0.5, -0.3), (-0.9, 0.0),    # q <= 0, p < 0: endpoint pi
])
def test_harmonic_max_on_zero_to_pi(p, q):
    grid = np.linspace(0.0, math.pi, 200001)
    values = p * np.cos(grid) + q * np.sin(grid)
    b, value = analysis._harmonic_max(p, q)
    assert 0.0 <= b <= math.pi
    assert value == pytest.approx(p * math.cos(b) + q * math.sin(b), abs=1e-15)
    assert value == pytest.approx(values.max(), abs=1e-9)
    assert value >= values.max() - 1e-15
    assert b == pytest.approx(grid[np.argmax(values)], abs=1e-5)


def _polar_fits(seed, index, gamma):
    """The four fitted analyzer-angle curves run_polar_scan builds at
    position index of its gamma list."""
    deltas = default_polar_delta_grid()
    measurement = analysis._BellMeasurement(
        ExperimentConfig(seed=seed), gamma, deltas, base_stream=index)
    return analysis._polar_curves(measurement, deltas)


def _model_pair(plus, minus):
    """E(b) of a curve pair read off the fitted models at an angle b and at
    its antipode."""
    def expectation(b):
        v_pp, v_pm = plus.model(b), plus.model(b + math.pi)
        v_mp, v_mm = minus.model(b), minus.model(b + math.pi)
        return (v_pp - v_pm - v_mp + v_mm) / (v_pp + v_pm + v_mp + v_mm)
    return expectation


def _fitted_expectations(z_plus, z_minus, x_plus, x_minus):
    """E_z and E_x read off the fitted models, each curve pair at an angle
    and at its antipode."""
    return _model_pair(z_plus, z_minus), _model_pair(x_plus, x_minus)


def _fitted_surface(*curves):
    """The polar S surface |E_z(b1) - E_z(b1') + E_x(b1) + E_x(b1')|."""
    e_z, e_x = _fitted_expectations(*curves)

    def surface(b1, b1p):
        return np.abs(e_z(b1) - e_z(b1p) + e_x(b1) + e_x(b1p))
    return surface


def _grid_search(surface):
    """The coarse-grid plus bisection search the polar scan once ran."""
    return maximize_2d(surface, 0.0, math.pi, 0.0, math.pi, math.pi / 90.0,
                       1e-7)


def test_polar_maximum_against_grid_search_and_brute_force():
    # 50 seeds x the default 11-phase grid, Poisson mode
    brute = np.linspace(0.0, math.pi, 721)
    trapped = 0
    for seed in range(50):
        for index, gamma in enumerate(default_gamma_grid()):
            curves = _polar_fits(seed, index, gamma)
            surface = _fitted_surface(*curves)
            beta1, beta1_p, s = analysis._polar_maximum(*curves)
            assert s == pytest.approx(float(surface(beta1, beta1_p)), abs=1e-14)
            # the pi/720 grid: the largest |U(b1) + V(b1')| over the
            # 721 x 721 product grid is max(max U + max V, -(min U + min V))
            e_z, e_x = _fitted_expectations(*curves)
            u, v = e_x(brute) + e_z(brute), e_x(brute) - e_z(brute)
            assert s >= max(u.max() + v.max(), -(u.min() + v.min())) - 1e-9
            g1, g2, s_grid = _grid_search(surface)
            assert s >= s_grid - 1e-14
            distance = max(abs(beta1 - g1), abs(beta1_p - g2))
            if distance < 1e-3:
                assert distance <= 1e-7
            else:
                trapped += 1
    # the grid search stops in the wrong basin at some points near
    # cos(gamma) = 0, which the closed form does not
    assert trapped > 0


def test_polar_scan_escapes_grid_search_trap():
    # seed 0 at gamma = pi/2 (index 3 of the default grid): the grid search
    # stopped at 2.0000051 on a fitted surface whose maximum is 2.0000347
    gammas = default_gamma_grid()
    result = run_polar_scan(ExperimentConfig(seed=0), gammas)[3]
    curves = _polar_fits(0, 3, gammas[3])
    surface = _fitted_surface(*curves)
    _, _, s_grid = _grid_search(surface)
    assert s_grid == pytest.approx(2.0000051, abs=1e-7)
    brute = np.linspace(0.0, math.pi, 721)
    assert result.s >= surface(brute[:, None], brute[None, :]).max() - 1e-9
    assert result.s == pytest.approx(2.0000347, abs=1e-7)
    assert (result.beta1, result.beta1_p, result.s) == \
        analysis._polar_maximum(*curves)


def test_polar_projection_curves_match_fit_models():
    # x curves are fitted to the fringe models at chi = 0 and pi, weighted by
    # the model variances there
    deltas = default_polar_delta_grid()
    measurement = analysis._BellMeasurement(ExperimentConfig(seed=3), 0.7,
                                            deltas)
    _, _, x_plus, x_minus = analysis._polar_curves(measurement, deltas)
    for chi, curve in ((0.0, x_plus), (math.pi, x_minus)):
        values = [float(fit.model(chi)) for fit in measurement.fits]
        g = np.array([1.0, math.cos(chi), math.sin(chi)])
        variances = [g @ fit.covariance @ g for fit in measurement.fits]
        want = fit_sinusoid_xy(deltas, np.array(values), np.array(variances))
        abc = np.array(want.abc())
        assert np.max(np.abs(np.array(curve.abc()) - abc)) <= \
            1e-13 * np.max(np.abs(abc))
        assert np.max(np.abs(curve.covariance - want.covariance)) <= \
            1e-13 * np.max(np.abs(want.covariance))


# ---------------------------------------------------------------------------
# expectation of a curve pair read at an angle and at its antipode
# ---------------------------------------------------------------------------

def _slot_expectation(plus, minus, b):
    """E and sigma from the four model values (plus(b), plus(b + pi),
    minus(b), minus(b + pi)) and their 4 x 4 covariance, in which readings
    of the same fit share its parameter covariance."""
    slots = [(plus, b), (plus, b + math.pi), (minus, b), (minus, b + math.pi)]
    values = np.array([float(fit.model(x)) for fit, x in slots])
    grads = [np.array([1.0, math.cos(x), math.sin(x)]) for _, x in slots]
    cov = np.zeros((4, 4))
    for i, (fit_i, _) in enumerate(slots):
        for j, (fit_j, _) in enumerate(slots):
            if fit_i is fit_j:
                cov[i, j] = grads[i] @ fit_i.covariance @ grads[j]
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    total = values.sum()
    e = signs @ values / total
    jac = (signs - e) / total
    return e, math.sqrt(jac @ cov @ jac)


def _check_pair(plus, minus):
    oracle = _model_pair(plus, minus)
    for b in np.linspace(-math.pi, math.pi, 13):
        e, sigma = analysis._pair_expectation(plus, minus, b)
        want_e, want_sigma = _slot_expectation(plus, minus, b)
        assert e == pytest.approx(float(oracle(b)), rel=1e-13, abs=1e-15)
        assert e == pytest.approx(want_e, rel=1e-13, abs=1e-15)
        assert sigma == pytest.approx(want_sigma, rel=1e-13, abs=0.0)
        assert sigma > 0.0


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("normalize", [False, True])
def test_pair_expectation_on_bell_fit_pairs(seed, exact, normalize):
    measurement = analysis._BellMeasurement(
        ExperimentConfig(seed=seed), 0.3,
        analysis._bell_deltas(math.pi / 4.0, 3.0 * math.pi / 4.0),
        exact=exact, normalize_contrast=normalize)
    fits = measurement.fits
    _check_pair(fits[0], fits[1])
    _check_pair(fits[2], fits[3])


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
def test_pair_expectation_on_polar_curve_pairs(seed):
    z_plus, z_minus, x_plus, x_minus = _polar_fits(seed, 2, math.pi / 3.0)
    _check_pair(z_plus, z_minus)
    _check_pair(x_plus, x_minus)


def _exact_pair_variance(plus, minus, b):
    """sigma**2 of the pair expectation in rational arithmetic, from the
    fitted parameters and covariances taken as exact."""
    cos_b, sin_b = Fraction(math.cos(b)), Fraction(math.sin(b))
    (a_p, b_p, c_p), (a_m, b_m, c_m) = ([Fraction(v) for v in fit.abc()]
                                        for fit in (plus, minus))
    total = a_p + a_m
    e = ((b_p - b_m) * cos_b + (c_p - c_m) * sin_b) / total
    var = Fraction(0)
    for sign, fit in ((1, plus), (-1, minus)):
        g = [-e / total, sign * cos_b / total, sign * sin_b / total]
        cov = [[Fraction(v) for v in row] for row in fit.covariance.tolist()]
        var += sum(g[i] * cov[i][j] * g[j] for i in range(3) for j in range(3))
    return var


@pytest.mark.parametrize("seed", [2, 9])
def test_pair_sigma_keeps_precision_where_a_reading_is_pinned(seed):
    # the beam-block curves pass near zero counts at 0 or pi, so their
    # readings there vary thousands of times less than the fitted
    # parameters; the polar maximum often lands on these endpoints
    z_plus, z_minus, _, _ = _polar_fits(seed, 2, math.pi / 3.0)
    for b in (0.0, math.pi):
        _, sigma = analysis._pair_expectation(z_plus, z_minus, b)
        want = math.sqrt(_exact_pair_variance(z_plus, z_minus, b))
        assert sigma == pytest.approx(want, rel=1e-14, abs=0.0)


def test_pair_expectation_requires_positive_total():
    for plus, minus in ((flat_fit(0.0, 0.0, 0.0), flat_fit(0.0, 0.0, 0.0)),
                        (flat_fit(-2.0, 0.0, 0.0), flat_fit(1.0, 0.5, 0.3))):
        with pytest.raises(EstimationError):
            analysis._pair_expectation(plus, minus, 0.4)


# ---------------------------------------------------------------------------
# full pipeline, Monte Carlo
# ---------------------------------------------------------------------------

def test_estimator_unbiased_and_sigma_calibrated():
    target = TSIRELSON
    values, sigmas = [], []
    for seed in range(1000):
        config = ExperimentConfig(seed=seed)
        est = estimate_bell_s(config, 0.0)
        values.append(est.s)
        sigmas.append(est.sigma_s)
    values = np.asarray(values)
    sigmas = np.asarray(sigmas)
    assert abs(values.mean() - target) < 0.01
    assert abs(values.std(ddof=1) / sigmas.mean() - 1.0) < 0.2


def test_polar_scan_monte_carlo():
    config = ExperimentConfig(seed=5)
    result = run_polar_scan(config, [0.0])[0]
    assert abs(result.s - TSIRELSON) <= 4 * result.sigma_s
    assert polar_angle_deviation(result.beta1, result.beta1_p, 0.0) < 0.1


def test_azimuthal_scan_monte_carlo():
    config = ExperimentConfig(seed=21)
    adjusted, unadjusted = run_azimuthal_scan(config, [math.pi / 6])
    assert abs(adjusted.s - TSIRELSON) <= 4 * adjusted.sigma_s
    delta = (adjusted.alpha2p - math.pi / 6 + math.pi) % (2 * math.pi) - math.pi
    assert abs(delta) <= 3 * adjusted.angle_sigma
    want = math.sqrt(2.0) * (1.0 + math.cos(math.pi / 6))
    assert abs(unadjusted.s - want) <= 4 * unadjusted.sigma_s


def test_contrast_threshold():
    # exact counts: S scales as V * 2*sqrt(2), crossing S = 2 at V = 1/sqrt(2)
    for visibility in (0.3, 0.5, 1.0 / math.sqrt(2.0), 0.8, 1.0):
        config = ExperimentConfig(visibility=visibility)
        est = estimate_bell_s(config, 0.0, exact=True)
        assert est.s == pytest.approx(visibility * TSIRELSON, rel=0.02)
    crossing = estimate_bell_s(
        ExperimentConfig(visibility=1.0 / math.sqrt(2.0)), 0.0, exact=True)
    assert crossing.s == pytest.approx(2.0, rel=0.02)
    # Monte Carlo: V = 0.8 violates by >= 3 sigma, V = 0.5 stays below 2
    est = estimate_bell_s(ExperimentConfig(visibility=0.8, seed=11), 0.0)
    assert (est.s - 2.0) / est.sigma_s >= 3.0
    est = estimate_bell_s(ExperimentConfig(visibility=0.5, seed=11), 0.0)
    assert est.s < 2.0


def test_normalized_contrast_restores_fringe_terms():
    config = ExperimentConfig(visibility=0.5)
    raw = estimate_bell_s(config, 0.0, exact=True)
    normalized = estimate_bell_s(config, 0.0, exact=True,
                                 normalize_contrast=True)
    assert raw.s == pytest.approx(0.5 * TSIRELSON, abs=1e-9)
    # the two fringe-based terms recover full weight, the beam-block terms
    # keep the raw contrast: S = sqrt(2) * (1 + V)
    assert normalized.s == pytest.approx(math.sqrt(2.0) * 1.5, abs=1e-9)


# ---------------------------------------------------------------------------
# scan serialization and validation
# ---------------------------------------------------------------------------

def test_scan_results_roundtrip(tmp_path):
    results = [
        ScanResult(gamma=0.0, s=2.8, sigma_s=0.01, beta1=0.785, beta1_p=2.356,
                   method="polar-adjusted"),
        ScanResult(gamma=0.5, s=2.82, sigma_s=0.02, alpha2p=0.5,
                   method="azimuthal-adjusted"),
    ]
    path = tmp_path / "scan.csv"
    write_scan_results(results, path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == \
        "gamma_rad,beta1_rad,beta1p_rad,alpha2p_rad,s,sigma_s,method"
    assert ",," in text  # unused angle columns stay empty
    back = read_scan_results(path)
    assert len(back) == 2
    assert back[0].beta1 == pytest.approx(0.785)
    assert back[0].alpha2p is None
    assert back[1].alpha2p == pytest.approx(0.5)
    assert back[1].beta1 is None
    assert back[1].method == "azimuthal-adjusted"


def test_scan_validation_errors():
    config = ExperimentConfig()
    with pytest.raises(ValueError):
        run_polar_scan(config, [])
    with pytest.raises(ValueError):
        run_azimuthal_scan(config, [])
    with pytest.raises(ValueError):
        run_polar_scan(config, [0.0], delta_grid=np.array([0.0, math.pi]))
    with pytest.raises(ValueError):
        run_polar_scan(config, [0.0],
                       delta_grid=np.linspace(0.0, math.pi / 2, 9))


def test_scan_result_validation():
    with pytest.raises(ValueError):
        ScanResult(gamma=0.0, s=-1.0, sigma_s=0.0)
