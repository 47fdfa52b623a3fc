"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with -s to see them)."""

import math
import time

import numpy as np
import pytest

from conftest import grid_maximize_s, polar_angle_deviation
from spinpath.analysis import estimate_bell_s, fit_sinusoid
from spinpath.chsh import (
    BellAngleSet,
    TSIRELSON,
    s_azimuthal,
    s_general,
    s_polar,
    s_polar_max,
    standard_angles,
)
from spinpath.experiment import ExperimentConfig, Interferogram, simulate_beam_block
from spinpath.flippers import entangled_state_via_flippers, resonance_parameters
from spinpath.quantum import bell_state, path_direction, spin_direction


def report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} PASS: {label} ({elapsed:.2f}s)")


def test_criterion_1_no_adjustment_curve():
    started = time.perf_counter()
    for gamma in np.linspace(0, 2 * math.pi, 101):
        want = math.sqrt(2.0) * abs(1.0 + math.cos(gamma))
        assert s_general(standard_angles(), gamma) == pytest.approx(want, abs=1e-9)
    assert s_general(standard_angles(), 0.0) == pytest.approx(TSIRELSON, abs=1e-9)
    assert s_general(standard_angles(), math.pi) == pytest.approx(0.0, abs=1e-9)
    assert s_general(standard_angles(), math.pi / 2) == pytest.approx(
        math.sqrt(2.0), abs=1e-9)
    report(1, "unadjusted S follows sqrt(2)|1 + cos gamma|", started, 1.0)


def test_criterion_2_polar_adjustment():
    started = time.perf_counter()
    for gamma in np.linspace(0, 2 * math.pi, 25, endpoint=False):
        beta1, beta1_p, s = grid_maximize_s(gamma)
        assert s == pytest.approx(s_polar_max(gamma), abs=1e-6)
        assert polar_angle_deviation(beta1, beta1_p, gamma) < 1e-5
    _, _, s_zero = grid_maximize_s(0.0)
    assert s_zero == pytest.approx(TSIRELSON, abs=1e-6)
    _, _, s_quarter = grid_maximize_s(math.pi / 2)
    assert s_quarter == pytest.approx(2.0, abs=1e-6)
    report(2, "polar-adjusted maximum is 2*sqrt(1 + cos^2 gamma)", started, 30.0)


def test_criterion_3_azimuthal_adjustment():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for gamma in rng.uniform(0, 2 * math.pi, 100):
        assert s_azimuthal(gamma, 0.0, 0.0, gamma) == pytest.approx(
            TSIRELSON, abs=1e-9)
    report(3, "azimuth alpha2' = gamma restores 2*sqrt(2)", started, 1.0)


def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(5000):
        alpha1_p, beta1, beta1_p, gamma = rng.uniform(0, 2 * np.pi, 4)
        angles = BellAngleSet(path_direction(0.0), path_direction(alpha1_p),
                              spin_direction(beta1), spin_direction(beta1_p))
        assert abs(s_general(angles, gamma)
                   - s_polar(alpha1_p, beta1, beta1_p, gamma)) < 1e-9
    for _ in range(5000):
        alpha2_p, gamma = rng.uniform(0, 2 * np.pi, 2)
        assert abs(s_general(standard_angles(alpha2_p), gamma)
                   - s_azimuthal(alpha2_p, 0.0, 0.0, gamma)) < 1e-9
    report(4, "projector route equals printed closed forms", started, 10.0)


def test_criterion_5_monte_carlo_bell_test():
    started = time.perf_counter()
    # max_rate * measure_time = 4e4 puts >= 1e4 expected counts on every
    # fringe scan point
    hits = 0
    seeds = 300
    for seed in range(seeds):
        config = ExperimentConfig(max_rate=25.0, measure_time=1600.0,
                                  visibility=1.0, seed=seed)
        est = estimate_bell_s(config, 0.0)
        assert est.sigma_s < 0.05
        if abs(est.s - TSIRELSON) <= 3 * est.sigma_s:
            hits += 1
    assert hits / seeds >= 0.99
    report(5, f"pipeline S at gamma=0 covers 2*sqrt(2) ({hits}/{seeds})",
           started, 120.0)


def test_criterion_6_contrast_threshold():
    started = time.perf_counter()
    for visibility in (0.5, 0.8, 1.0):
        config = ExperimentConfig(visibility=visibility)
        est = estimate_bell_s(config, 0.0, exact=True)
        assert abs(est.s / (visibility * TSIRELSON) - 1.0) < 0.02
    threshold = estimate_bell_s(
        ExperimentConfig(visibility=1.0 / math.sqrt(2.0)), 0.0, exact=True)
    assert abs(threshold.s / 2.0 - 1.0) < 0.02
    low = estimate_bell_s(ExperimentConfig(visibility=0.5, seed=1), 0.0)
    assert low.s < 2.0
    high = estimate_bell_s(ExperimentConfig(visibility=0.8, seed=1), 0.0)
    assert (high.s - 2.0) / high.sigma_s >= 3.0
    report(6, "S scales as V * 2*sqrt(2); threshold at 70.7% contrast",
           started, 60.0)


def test_criterion_7_resonance_formulas():
    started = time.perf_counter()
    b0, _ = resonance_parameters(2 * math.pi * 58e3, 76e-6)
    assert b0 == pytest.approx(2e-3, rel=0.05)
    b0, _ = resonance_parameters(2 * math.pi * 29e3, 76e-6)
    assert b0 == pytest.approx(1e-3, rel=0.05)
    report(7, "guide fields ~2 mT at 58 kHz and ~1 mT at 29 kHz", started, 1.0)


def test_criterion_8_geometric_phase_mechanism():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    for _ in range(100):
        phi_i = rng.uniform(0, 2 * math.pi)
        built = entangled_state_via_flippers(phi_i)
        want = bell_state(phi_i)
        for a, b in zip(built.amplitudes, want.amplitudes):
            assert abs(a - b) < 1e-12
    report(8, "two-flipper route reproduces the entangled state", started, 1.0)


def test_criterion_9_fit_pipeline():
    started = time.perf_counter()
    chi = np.linspace(0, 4 * math.pi, 32, endpoint=False)
    rng = np.random.default_rng(5)
    for _ in range(100):
        mean = rng.uniform(100, 1000)
        visibility = rng.uniform(0.1, 1.0)
        phase = rng.uniform(0, 2 * math.pi)
        gram = Interferogram(chi, mean * (1 + visibility * np.cos(chi + phase)),
                             delta=0.0, gamma=0.0)
        fit = fit_sinusoid(gram)
        assert abs(fit.mean / mean - 1.0) < 1e-9
        assert abs(fit.visibility / visibility - 1.0) < 1e-9
    config = ExperimentConfig(theta=0.2, visibility=0.8)
    deltas = np.linspace(0, math.pi, 9)
    for blocked in ("I", "II"):
        curves = [
            simulate_beam_block(config, deltas, gamma, blocked, exact=True).counts
            for gamma in (0.0, 0.9, math.pi, 4.4)
        ]
        for other in curves[1:]:
            assert np.array_equal(curves[0], other)
    report(9, "exact fit recovery; beam-block curves gamma-independent",
           started, 30.0)
