import math

import numpy as np
import pytest

import spinpath.experiment as experiment
from spinpath.analysis import estimate_bell_s, run_azimuthal_scan, run_polar_scan
from spinpath.experiment import (
    BeamBlockScan,
    EstimationError,
    ExperimentConfig,
    counts_to_expectation,
    default_chi_grid,
    format_kv,
    parse_kv,
    rate_grid,
    read_beam_block,
    read_interferogram,
    reference_run,
    s_from_expectations,
    simulate_beam_block,
    simulate_interferogram,
    stream_rng,
    write_beam_block,
    write_interferogram,
)
from spinpath.quantum import (
    JointSetting,
    PureState,
    bell_state,
    joint_probability,
    path_direction,
    spin_direction,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs,field", [
    ({"max_rate": 0.0}, "max_rate"),
    ({"measure_time": -1.0}, "measure_time"),
    ({"visibility": 1.2}, "visibility"),
    ({"visibility": -0.1}, "visibility"),
    ({"seed": -1}, "seed"),
])
def test_config_validation_names_field(kwargs, field):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["max_rate", "measure_time", "visibility",
                                   "theta", "dyn_offset"])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


# ---------------------------------------------------------------------------
# Poisson streams
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 63, 2 ** 64 - 1])
def test_stream_rng_keeps_streams_of_64_bit_seeds(seed):
    # the stream of (seed, *key) is the PCG64 stream of SeedSequence([seed,
    # *key]) for every seed in [0, 2**64)
    want = np.random.default_rng(np.random.SeedSequence([seed, 2, 7, 1]))
    got = stream_rng(seed, 2, 7, 1)
    assert np.array_equal(got.integers(0, 2 ** 62, 8), want.integers(0, 2 ** 62, 8))


def test_exact_mode_builds_no_stream(monkeypatch):
    config = ExperimentConfig(seed=4)
    want = simulate_interferogram(config, 0.3, 0.2, stream=(2, 5), exact=True)
    # Poisson counts are the draws of the run's own stream (seed, kind, *key)
    drawn = stream_rng(4, experiment.STREAM_INTERFEROGRAM, 2, 5).poisson(
        want.counts)
    assert np.array_equal(
        simulate_interferogram(config, 0.3, 0.2, stream=(2, 5)).counts, drawn)

    def forbidden(*args, **kwargs):
        raise AssertionError("stream_rng called")

    monkeypatch.setattr(experiment, "stream_rng", forbidden)
    gram = simulate_interferogram(config, 0.3, 0.2, stream=(2, 5), exact=True)
    assert np.array_equal(gram.counts, want.counts)
    simulate_beam_block(config, [0.0, 1.0, 2.0], 0.2, "I", exact=True)
    reference_run(config, 0.3, exact=True)
    estimate_bell_s(config, 0.2, exact=True)
    run_polar_scan(config, [0.0, 1.0], exact=True)
    run_azimuthal_scan(config, [0.0, 1.0], exact=True)
    with pytest.raises(AssertionError, match="stream_rng"):
        simulate_interferogram(config, 0.3, 0.2)


def test_stream_rng_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        stream_rng(-1, 1)
    with pytest.raises(ValueError, match="seed"):
        simulate_interferogram(ExperimentConfig(seed=-1), 0.0, 0.0)
    # seeds that a 64-bit mask would fold together keep distinct streams
    draws = [stream_rng(seed, 1).integers(0, 2 ** 62, 4)
             for seed in (0, 2 ** 64, 2 ** 64 - 1, 2 ** 65 - 1)]
    assert len({tuple(d) for d in draws}) == 4


# ---------------------------------------------------------------------------
# detection rate model
# ---------------------------------------------------------------------------

def test_ideal_fringe_at_half_pi_analyzer():
    config = ExperimentConfig(max_rate=25.0, measure_time=1.0, visibility=1.0)
    chi = np.linspace(0, 4 * math.pi, 17)
    want = 25.0 * (1.0 + np.cos(chi)) / 2.0
    assert rate_grid(config, math.pi / 2, chi) == pytest.approx(want, abs=1e-9)
    rates = rate_grid(config, math.pi / 2,
                      np.linspace(0, 2 * math.pi, 100, endpoint=False))
    assert np.argmax(rates) == 0


def test_zero_visibility_is_flat():
    config = ExperimentConfig(visibility=0.0)
    rates = rate_grid(config, math.pi / 2, np.linspace(0, 2 * math.pi, 9))
    assert rates.max() - rates.min() < 1e-12


def test_gamma_shifts_the_fringe():
    config = ExperimentConfig()
    gamma = 0.77
    chi = np.linspace(0, 2 * math.pi, 11)
    shifted = simulate_interferogram(config, math.pi / 2, gamma, chi,
                                     exact=True)
    reference = simulate_interferogram(config, math.pi / 2, 0.0, chi + gamma,
                                       exact=True)
    assert shifted.counts == pytest.approx(reference.counts, abs=1e-9)


def test_detection_rate_blend_example():
    # R=25/s, V=0.5, t=40 s at the gamma=0 fringe peak: 25*40*0.75 counts
    config = ExperimentConfig(max_rate=25.0, measure_time=40.0, visibility=0.5)
    counts = float(rate_grid(config, math.pi / 2, 0.0)) * config.measure_time
    assert counts == pytest.approx(750.0, abs=1e-9)


def _oracle_rate(config, state, setting, partner_state, partner_setting):
    """Blended rate from the scalar projector route: p at a point and at
    its pi-shifted partner, via joint_probability."""
    p = joint_probability(state, setting)
    mean = 0.5 * (p + joint_probability(partner_state, partner_setting))
    return 2.0 * config.max_rate * (mean + config.visibility * (p - mean))


def _flipper_off_state(phase):
    amp = complex(math.cos(phase), math.sin(phase)) / math.sqrt(2.0)
    return PureState((1.0 / math.sqrt(2.0), 0.0, amp, 0.0))


def test_rate_kernel_matches_projector_oracle():
    # every simulate_* run evaluates one rate grid; with exact=True its
    # counts are rate * measure_time and must agree with the scalar oracle
    rng = np.random.default_rng(2024)
    plus_x = path_direction(math.pi / 2)
    chi = np.linspace(-3.0, 9.0, 13)
    for _ in range(40):
        config = ExperimentConfig(
            max_rate=rng.uniform(1.0, 50.0), measure_time=1.0,
            visibility=rng.uniform(0.0, 1.0), theta=rng.uniform(-7.0, 7.0),
            dyn_offset=rng.uniform(-7.0, 7.0))
        delta, gamma = rng.uniform(-7.0, 7.0, 2)
        tol = 1e-13 * 2.0 * config.max_rate
        spin = JointSetting(plus_x, spin_direction(delta))

        gram = simulate_interferogram(config, delta, gamma, chi, exact=True)
        want = [_oracle_rate(
            config,
            bell_state(gamma, config.theta, c, config.dyn_offset), spin,
            bell_state(gamma, config.theta, c + math.pi, config.dyn_offset), spin)
            for c in chi]
        assert gram.counts == pytest.approx(want, rel=1e-13, abs=tol)

        ref = reference_run(config, delta, chi, exact=True)
        want = [_oracle_rate(
            config, _flipper_off_state(c + config.dyn_offset), spin,
            _flipper_off_state(c + math.pi + config.dyn_offset), spin)
            for c in chi]
        assert ref.counts == pytest.approx(want, rel=1e-13, abs=tol)

        deltas = rng.uniform(-7.0, 7.0, 9)
        state = bell_state(0.0, config.theta, 0.0)
        for blocked, polar in (("II", 0.0), ("I", math.pi)):
            scan = simulate_beam_block(config, deltas, gamma, blocked, exact=True)
            want = [_oracle_rate(
                config,
                state, JointSetting(path_direction(polar), spin_direction(d)),
                state, JointSetting(path_direction(polar),
                                    spin_direction(d + math.pi)))
                for d in deltas]
            assert scan.counts == pytest.approx(want, rel=1e-13, abs=tol)


@pytest.mark.parametrize("visibility", [1.0, 0.5])
def test_sign_combination_sum_rule(visibility):
    config = ExperimentConfig(max_rate=25.0, measure_time=2.0,
                              visibility=visibility)
    delta = 0.9
    phase = np.linspace(0, 2 * math.pi, 7) + 0.4
    total = (rate_grid(config, delta, phase)
             + rate_grid(config, delta, phase + math.pi)
             + rate_grid(config, delta + math.pi, phase)
             + rate_grid(config, delta + math.pi, phase + math.pi))
    assert total == pytest.approx(np.full(7, 2.0 * config.max_rate), rel=1e-9)


# ---------------------------------------------------------------------------
# interferogram simulation
# ---------------------------------------------------------------------------

def test_simulated_counts_deterministic():
    config = ExperimentConfig(seed=42)
    first = simulate_interferogram(config, math.pi / 2, 0.3)
    second = simulate_interferogram(config, math.pi / 2, 0.3)
    assert np.array_equal(first.counts, second.counts)
    other_stream = simulate_interferogram(config, math.pi / 2, 0.3, stream=1)
    assert not np.array_equal(first.counts, other_stream.counts)
    other_seed = simulate_interferogram(
        ExperimentConfig(seed=43), math.pi / 2, 0.3)
    assert not np.array_equal(first.counts, other_seed.counts)


def test_vanishing_time_gives_zero_counts():
    config = ExperimentConfig(measure_time=1e-9, seed=0)
    gram = simulate_interferogram(config, math.pi / 2, 0.0)
    assert np.all(gram.counts == 0)


def test_exact_mode_returns_expected_counts():
    config = ExperimentConfig(max_rate=25.0, measure_time=40.0, visibility=0.5)
    gram = simulate_interferogram(config, math.pi / 2, 0.0,
                                  chi_grid=np.array([0.0]), exact=True)
    assert gram.counts[0] == pytest.approx(750.0, abs=1e-9)


def test_poisson_counts_match_rates_on_average():
    config = ExperimentConfig(max_rate=25.0, measure_time=400.0, seed=9)
    chi = default_chi_grid()
    gram = simulate_interferogram(config, math.pi / 2, 0.0, chi_grid=chi)
    expected = rate_grid(config, math.pi / 2, chi) * config.measure_time
    # total counts within 5 sigma of the summed expectation
    assert abs(gram.counts.sum() - expected.sum()) < 5 * math.sqrt(expected.sum())


def test_empty_chi_grid_rejected():
    with pytest.raises(ValueError):
        simulate_interferogram(ExperimentConfig(), 0.0, 0.0, chi_grid=np.array([]))


# ---------------------------------------------------------------------------
# beam-block runs
# ---------------------------------------------------------------------------

def test_beam_block_single_path_projection():
    config = ExperimentConfig(max_rate=25.0, measure_time=4.0)
    deltas = np.linspace(0, 2 * math.pi, 9)
    block_ii = simulate_beam_block(config, deltas, 0.0, "II", exact=True)
    want = config.max_rate * config.measure_time * (1.0 + np.cos(deltas)) / 2.0
    assert np.allclose(block_ii.counts, want, atol=1e-9)
    block_i = simulate_beam_block(config, deltas, 0.0, "I", exact=True)
    want = config.max_rate * config.measure_time * (1.0 - np.cos(deltas)) / 2.0
    assert np.allclose(block_i.counts, want, atol=1e-9)


def test_beam_block_extremes():
    config = ExperimentConfig(max_rate=25.0, measure_time=4.0)
    scan = simulate_beam_block(config, np.array([0.0]), 0.0, "II", exact=True)
    assert scan.counts[0] == pytest.approx(100.0, abs=1e-9)  # maximal
    scan = simulate_beam_block(config, np.array([0.0]), 0.0, "I", exact=True)
    assert scan.counts[0] == pytest.approx(0.0, abs=1e-9)


def test_beam_block_gamma_independent_bitwise():
    config = ExperimentConfig(seed=1, theta=0.3, visibility=0.7)
    deltas = np.linspace(0, math.pi, 9)
    for blocked in ("I", "II"):
        curves = [simulate_beam_block(config, deltas, g, blocked, exact=True).counts
                  for g in (0.0, 1.7, math.pi, 5.1)]
        for other in curves[1:]:
            assert np.array_equal(curves[0], other)
        # Poisson draws with the same stream are identical too
        drawn = [simulate_beam_block(config, deltas, g, blocked).counts
                 for g in (0.0, 2.9)]
        assert np.array_equal(drawn[0], drawn[1])


def test_beam_block_flip_imperfection():
    theta = 0.3
    config = ExperimentConfig(max_rate=25.0, measure_time=4.0, theta=theta)
    scan = simulate_beam_block(config, np.array([0.0]), 0.0, "I", exact=True)
    want = 100.0 * math.sin(theta / 2.0) ** 2
    assert scan.counts[0] == pytest.approx(want, abs=1e-9)


def test_beam_block_rejects_unknown_path():
    with pytest.raises(ValueError):
        simulate_beam_block(ExperimentConfig(), np.array([0.0]), 0.0, "III")


# ---------------------------------------------------------------------------
# reference runs
# ---------------------------------------------------------------------------

def test_reference_fringe_shape():
    config = ExperimentConfig(max_rate=25.0, measure_time=1.0, visibility=0.6)
    chi = np.linspace(0, 4 * math.pi, 33)
    gram = reference_run(config, math.pi / 2, chi_grid=chi, exact=True)
    want = 25.0 * 0.5 * (1.0 + 0.6 * np.cos(chi))
    assert np.allclose(gram.counts, want, atol=1e-9)
    assert gram.flipper_on is False


def test_reference_peak_at_zero_phase():
    config = ExperimentConfig(visibility=1.0)
    chi = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    gram = reference_run(config, math.pi / 2, chi_grid=chi, exact=True)
    assert np.argmax(gram.counts) == 0


def test_reference_carries_dynamical_offset():
    config = ExperimentConfig(dyn_offset=0.3)
    chi = np.linspace(0, 2 * math.pi, 256, endpoint=False)
    gram = reference_run(config, math.pi / 2, chi_grid=chi, exact=True)
    # fringe 1 + V cos(chi + 0.3) peaks where chi + 0.3 = 2*pi
    peak = chi[np.argmax(gram.counts)]
    assert peak == pytest.approx(2 * math.pi - 0.3, abs=2 * math.pi / 256)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("quad,expected", [
    ((50, 50, 50, 50), 0.0),
    ((853, 146, 146, 853), 1414.0 / 1998.0),
    ((100, 0, 0, 100), 1.0),
])
def test_counts_to_expectation_examples(quad, expected):
    e, sigma = counts_to_expectation(quad)
    assert e == pytest.approx(expected, abs=1e-12)
    assert sigma >= 0.0
    # exact-mode float counts take the same estimator, bit for bit
    assert counts_to_expectation(np.array(quad, dtype=float)) == (e, sigma)
    assert counts_to_expectation(np.array(quad, dtype=np.int64)) == (e, sigma)
    with pytest.raises(ValueError, match="nonnegative"):
        counts_to_expectation((-1,) + quad[1:])


def test_counts_to_expectation_rejects_empty():
    with pytest.raises(EstimationError):
        counts_to_expectation((0, 0, 0, 0))


def test_count_quadruple_rejects_negative():
    for quad in ((-1, 0, 0, 0), (5.0, 5.0, -0.5, 5.0)):
        with pytest.raises(EstimationError):
            counts_to_expectation(quad)


def test_poisson_sigma_hand_value():
    # e = 0 at (n, n, n, n): sigma = sqrt(4 * n) / (4 n) = 1 / (2 sqrt(n))
    _, sigma = counts_to_expectation((100, 100, 100, 100))
    assert sigma == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize("es,expected", [
    ((0.707, -0.707, 0.707, 0.707), 2.828),
    ((0.0, 0.0, 0.0, 0.0), 0.0),
    ((1.0, 1.0, 1.0, 1.0), 2.0),
])
def test_s_from_expectations_examples(es, expected):
    s, _ = s_from_expectations(*es, sigmas=(0.0, 0.0, 0.0, 0.0))
    assert s == pytest.approx(expected, abs=1e-9)


def test_s_from_expectations_error_quadrature():
    _, sigma = s_from_expectations(0.5, 0.5, 0.5, 0.5, sigmas=(3e-3,) * 4)
    assert sigma == pytest.approx(6e-3, rel=1e-9)


def test_monte_carlo_estimator_coverage():
    # Poisson quadruples at the Bell-angle probabilities, ~4e4 counts total
    state = bell_state(0.0)
    pd, sd = path_direction(math.pi / 2), spin_direction(math.pi / 4)
    probs = np.array([
        joint_probability(state, JointSetting(pd, sd, ps, ss))
        for ps, ss in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ])
    exact = probs @ np.array([1.0, -1.0, -1.0, 1.0])
    rng = np.random.default_rng(123)
    hits = 0
    trials = 1000
    for _ in range(trials):
        counts = rng.poisson(probs * 4e4)
        if counts.sum() == 0:
            continue
        e, sigma = counts_to_expectation(counts)
        if abs(e - exact) <= 3 * sigma:
            hits += 1
    assert hits / trials >= 0.99


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_interferogram_roundtrip_poisson(tmp_path):
    config = ExperimentConfig(seed=7)
    gram = simulate_interferogram(config, 0.9, 1.1)
    path = tmp_path / "gram.csv"
    write_interferogram(gram, path, config)
    back, meta = read_interferogram(path)
    assert np.array_equal(back.chi_values, gram.chi_values)
    assert np.array_equal(back.counts, gram.counts)
    assert back.delta == gram.delta
    assert back.gamma == gram.gamma
    assert back.flipper_on is True
    assert meta["seed"] == 7
    assert meta["max_rate"] == config.max_rate


def test_interferogram_roundtrip_exact_floats(tmp_path):
    config = ExperimentConfig()
    gram = simulate_interferogram(config, 0.9, 1.1, exact=True)
    path = tmp_path / "gram.csv"
    write_interferogram(gram, path, config)
    back, _ = read_interferogram(path)
    assert back.counts.dtype == np.float64
    assert np.array_equal(back.counts, gram.counts)
    assert np.array_equal(back.chi_values, gram.chi_values)


def test_beam_block_roundtrip(tmp_path):
    config = ExperimentConfig(seed=3)
    scan = simulate_beam_block(config, np.linspace(0, math.pi, 9), 0.5, "I")
    path = tmp_path / "block.csv"
    write_beam_block(scan, path, config)
    back, meta = read_beam_block(path)
    assert np.array_equal(back.counts, scan.counts)
    assert np.array_equal(back.delta_values, scan.delta_values)
    assert back.blocked_path == "I"
    assert back.gamma == 0.5
    assert meta["kind"] == "beam-block"


def test_kv_roundtrip():
    data = {"kind": "interferogram", "flipper_on": True, "seed": 12,
            "gamma": 0.30000000000000004, "label": "run-a"}
    text = format_kv(data)
    assert text.endswith("\n") and "\r" not in text
    parsed = parse_kv(text)
    assert parsed == data


def test_interferogram_validation():
    with pytest.raises(ValueError):
        BeamBlockScan(np.array([0.0, 1.0]), np.array([1]), "I", 0.0)
    with pytest.raises(ValueError):
        BeamBlockScan(np.array([0.0]), np.array([-1]), "I", 0.0)
