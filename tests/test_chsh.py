import math

import numpy as np
import pytest

from conftest import grid_maximize_s, polar_angle_deviation
from spinpath.chsh import (
    BellAngleSet,
    TSIRELSON,
    azimuthal_optimal_angle,
    polar_optimal_angles,
    s_azimuthal,
    s_general,
    s_polar,
    s_polar_max,
    standard_angles,
)
from spinpath.quantum import path_direction, spin_direction


def random_angle_set(rng):
    return BellAngleSet(
        alpha=path_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
        alpha_p=path_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
        beta=spin_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
        beta_p=spin_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)),
    )


# ---------------------------------------------------------------------------
# S from projector expectations
# ---------------------------------------------------------------------------

def test_s_general_standard_angles():
    assert s_general(standard_angles(), 0.0) == pytest.approx(TSIRELSON, abs=1e-9)
    assert s_general(standard_angles(), math.pi) == pytest.approx(0.0, abs=1e-9)


def test_s_general_telescopes_for_repeated_directions():
    rng = np.random.default_rng(0)
    for _ in range(20):
        alpha = path_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        beta = spin_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        angles = BellAngleSet(alpha, alpha, beta, beta)
        value = s_general(angles, rng.uniform(0, 2 * np.pi))
        assert value <= 2.0 + 1e-12


def test_no_adjustment_curve():
    for gamma in np.linspace(0, 2 * math.pi, 41):
        want = math.sqrt(2.0) * abs(1.0 + math.cos(gamma))
        assert s_general(standard_angles(), gamma) == pytest.approx(want, abs=1e-9)


def test_tsirelson_bound_random_sets():
    rng = np.random.default_rng(1)
    for _ in range(10000):
        angles = random_angle_set(rng)
        assert s_general(angles, rng.uniform(0, 2 * np.pi)) <= TSIRELSON + 1e-9


# ---------------------------------------------------------------------------
# polar adjustment closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha1_p,beta1,beta1_p,gamma,expected", [
    (math.pi / 2, math.pi / 4, 3 * math.pi / 4, 0.0, TSIRELSON),
    (math.pi / 2, 0.0, math.pi, math.pi / 2, 2.0),
    (math.pi / 2, math.pi / 4, 3 * math.pi / 4, math.pi / 2, math.sqrt(2.0)),
])
def test_s_polar_examples(alpha1_p, beta1, beta1_p, gamma, expected):
    assert s_polar(alpha1_p, beta1, beta1_p, gamma) == pytest.approx(expected, abs=1e-12)


def test_s_polar_broadcasts():
    grid = np.linspace(-math.pi, math.pi, 13)
    surface = s_polar(1.1, grid[:, None], grid[None, :], 0.7)
    assert surface.shape == (13, 13)
    for i, b1 in enumerate(grid):
        for j, b1p in enumerate(grid):
            assert surface[i, j] == s_polar(1.1, b1, b1p, 0.7)
    assert type(s_polar(1.1, 0.2, 0.3, 0.7)) is float


def test_s_polar_matches_s_general():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        alpha1_p, beta1, beta1_p, gamma = rng.uniform(0, 2 * np.pi, 4)
        angles = BellAngleSet(path_direction(0.0), path_direction(alpha1_p),
                              spin_direction(beta1), spin_direction(beta1_p))
        assert s_general(angles, gamma) == pytest.approx(
            s_polar(alpha1_p, beta1, beta1_p, gamma), abs=1e-9)


@pytest.mark.parametrize("gamma,expected_beta1", [
    (0.0, math.pi / 4),
    (math.pi / 2, 0.0),
    (math.pi / 3, 0.4636476090008061),
])
def test_polar_optimal_angles_examples(gamma, expected_beta1):
    beta1, beta1_p, alpha1_p = polar_optimal_angles(gamma)
    assert beta1 == pytest.approx(expected_beta1, abs=1e-9)
    assert beta1_p == pytest.approx(math.pi - expected_beta1, abs=1e-9)
    assert alpha1_p == pytest.approx(math.pi / 2, abs=1e-12)


def test_polar_optimal_angles_are_stationary():
    # central differences of s_polar in all three angles, step 1e-5
    step = 1e-5
    for gamma in np.linspace(0, 2 * math.pi, 25, endpoint=False):
        beta1, beta1_p, alpha1_p = polar_optimal_angles(gamma)
        args = [alpha1_p, beta1, beta1_p]
        for index in range(3):
            hi = list(args)
            lo = list(args)
            hi[index] += step
            lo[index] -= step
            grad = (s_polar(*hi, gamma) - s_polar(*lo, gamma)) / (2 * step)
            assert abs(grad) < 1e-6


@pytest.mark.parametrize("gamma,expected", [
    (0.0, TSIRELSON),
    (math.pi / 2, 2.0),
    (math.pi / 4, 2.449489742783178),
])
def test_s_polar_max_examples(gamma, expected):
    assert s_polar_max(gamma) == pytest.approx(expected, abs=1e-12)


def test_s_polar_max_against_brute_force_grid():
    # independent oracle: dense scan of the closed-form surface
    betas = np.linspace(-math.pi, math.pi, 2001)
    b1 = betas[:, None]
    b1p = betas[None, :]
    for gamma in (0.0, 0.6, math.pi / 2, 2.5, math.pi):
        surface = np.abs(np.cos(b1) - np.cos(b1p)
                         + math.cos(gamma) * (np.sin(b1) + np.sin(b1p)))
        assert surface.max() == pytest.approx(s_polar_max(gamma), abs=1e-5)


def test_s_polar_max_reached_at_optimal_angles():
    for gamma in np.linspace(0, 2 * math.pi, 25):
        beta1, beta1_p, alpha1_p = polar_optimal_angles(gamma)
        assert s_polar(alpha1_p, beta1, beta1_p, gamma) == pytest.approx(
            s_polar_max(gamma), abs=1e-12)


def test_s_polar_max_period_pi():
    rng = np.random.default_rng(3)
    for gamma in rng.uniform(0, 2 * np.pi, 50):
        assert s_polar_max(gamma) == pytest.approx(
            s_polar_max(gamma + math.pi), abs=1e-9)


# ---------------------------------------------------------------------------
# azimuthal adjustment closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha2_p,beta2,beta2_p,gamma,expected", [
    (1.1, 0.0, 0.0, 1.1, TSIRELSON),
    (0.0, 0.0, 0.0, math.pi, 0.0),
    (math.pi / 2, 0.0, 0.0, 0.0, math.sqrt(2.0)),
])
def test_s_azimuthal_examples(alpha2_p, beta2, beta2_p, gamma, expected):
    assert s_azimuthal(alpha2_p, beta2, beta2_p, gamma) == pytest.approx(
        expected, abs=1e-12)


def test_s_azimuthal_compensation_identity():
    rng = np.random.default_rng(4)
    for gamma in rng.uniform(0, 2 * np.pi, 100):
        assert s_azimuthal(gamma, 0.0, 0.0, gamma) == pytest.approx(
            TSIRELSON, abs=1e-9)


def test_s_azimuthal_matches_s_general():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        alpha2_p, gamma = rng.uniform(0, 2 * np.pi, 2)
        assert s_general(standard_angles(alpha2_p), gamma) == pytest.approx(
            s_azimuthal(alpha2_p, 0.0, 0.0, gamma), abs=1e-9)


@pytest.mark.parametrize("gamma,expected", [
    (0.0, 0.0),
    (math.pi / 6, math.pi / 6),
    (4 * math.pi / 3, math.pi / 3),
])
def test_azimuthal_optimal_angle_examples(gamma, expected):
    value = azimuthal_optimal_angle(gamma)
    assert 0.0 <= value < math.pi
    assert value == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# numerical surface maximization (brute-force oracle for the closed form)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma,s_expected", [
    (0.0, TSIRELSON),
    (math.pi / 2, 2.0),
    (math.pi, TSIRELSON),
])
def test_grid_maximize_examples(gamma, s_expected):
    beta1, beta1_p, s = grid_maximize_s(gamma)
    assert s == pytest.approx(s_expected, abs=1e-6)
    assert polar_angle_deviation(beta1, beta1_p, gamma) < 1e-5


def test_grid_maximize_never_below_closed_form():
    for gamma in np.linspace(0, 2 * math.pi, 13):
        _, _, s = grid_maximize_s(gamma)
        assert s >= s_polar_max(gamma) - 1e-6


def test_grid_maximize_deterministic():
    first = grid_maximize_s(1.2345)
    second = grid_maximize_s(1.2345)
    assert first == second


# ---------------------------------------------------------------------------
# record types
# ---------------------------------------------------------------------------

def test_bell_angle_set_validation():
    with pytest.raises(ValueError):
        BellAngleSet(spin_direction(0.0), path_direction(1.0),
                     spin_direction(0.5), spin_direction(1.5))
    with pytest.raises(ValueError):
        BellAngleSet(path_direction(0.0), path_direction(1.0),
                     path_direction(0.5), spin_direction(1.5))
