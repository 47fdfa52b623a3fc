import cmath
import math

import numpy as np
import pytest

from spinpath.quantum import (
    JointSetting,
    MeasurementDirection,
    PureState,
    bell_state,
    direction_ket,
    expectation,
    joint_probability,
    path_direction,
    spin_direction,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def subspace_projector(direction, sign=+1):
    """2x2 projector |sign d><sign d| on the tagged subspace."""
    ket = direction_ket(direction, sign)
    return np.outer(ket, ket.conj())


def all_sign_settings(path_dir, spin_dir):
    return [
        JointSetting(path_dir, spin_dir, ps, ss)
        for ps in (+1, -1)
        for ss in (+1, -1)
    ]


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma,theta,chi,expected", [
    (0.0, 0.0, 0.0, (SQRT_HALF, 0.0, 0.0, SQRT_HALF)),
    (math.pi, 0.0, 0.0, (SQRT_HALF, 0.0, 0.0, -SQRT_HALF)),
    (0.0, math.pi, 0.0, (SQRT_HALF, 0.0, SQRT_HALF, 0.0)),
])
def test_bell_state_examples(gamma, theta, chi, expected):
    state = bell_state(gamma, theta, chi)
    for amp, want in zip(state.amplitudes, expected):
        assert amp == pytest.approx(want, abs=1e-12)


def test_bell_state_gamma_phase():
    for gamma in (0.3, 2.0, 5.5):
        state = bell_state(gamma)
        assert state.amplitudes[0] == pytest.approx(SQRT_HALF, abs=1e-12)
        assert state.amplitudes[1] == 0.0
        assert state.amplitudes[2] == 0.0
        assert state.amplitudes[3] == pytest.approx(
            cmath.exp(1j * gamma) * SQRT_HALF, abs=1e-12)


def test_bell_state_normalized_for_random_inputs():
    rng = np.random.default_rng(1)
    for _ in range(200):
        gamma, theta, chi = rng.uniform(-10, 10, 3)
        state = bell_state(gamma, theta, chi)
        assert sum(abs(a) ** 2 for a in state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState((1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        PureState((1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# measurement directions and projectors
# ---------------------------------------------------------------------------

def test_direction_validation():
    with pytest.raises(ValueError):
        MeasurementDirection(0.0, 0.0, "energy")
    with pytest.raises(ValueError):
        JointSetting(spin_direction(0.0), spin_direction(0.0))
    with pytest.raises(ValueError):
        JointSetting(path_direction(0.0), spin_direction(0.0), path_sign=2)


def test_antipode_involution():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = path_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        dd = d.antipode().antipode()
        assert dd.polar == pytest.approx(d.polar, abs=1e-12)
        assert dd.azimuthal == d.azimuthal


def test_projector_beam_block_directions():
    p_plus_z = subspace_projector(path_direction(0.0))
    assert np.allclose(p_plus_z, np.diag([1.0, 0.0]), atol=1e-12)
    p_minus_z = subspace_projector(path_direction(math.pi))
    assert np.allclose(p_minus_z, np.diag([0.0, 1.0]), atol=1e-12)


def test_projector_plus_x():
    p = subspace_projector(path_direction(math.pi / 2.0))
    assert np.allclose(p, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_projector_algebra_random_directions():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = spin_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        for sign in (+1, -1):
            p = subspace_projector(d, sign)
            assert np.allclose(p @ p, p, atol=1e-12)
            assert np.allclose(p, p.conj().T, atol=1e-12)
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
        total = subspace_projector(d, +1) + subspace_projector(d, -1)
        assert np.allclose(total, np.eye(2), atol=1e-12)


def test_minus_projector_is_antipode_plus():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = path_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        assert np.allclose(subspace_projector(d, -1),
                           subspace_projector(d.antipode(), +1), atol=1e-12)


# ---------------------------------------------------------------------------
# joint probabilities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma,path_polar,spin_polar,expected", [
    (0.0, 0.0, 0.0, 0.5),
    (1.234, 0.0, math.pi, 0.0),
    (math.pi, math.pi / 2.0, math.pi / 2.0, 0.0),
])
def test_joint_probability_examples(gamma, path_polar, spin_polar, expected):
    setting = JointSetting(path_direction(path_polar), spin_direction(spin_polar))
    assert joint_probability(bell_state(gamma), setting) == pytest.approx(
        expected, abs=1e-12)


def test_joint_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(100):
        gamma, theta, chi = rng.uniform(0, 2 * np.pi, 3)
        state = bell_state(gamma, theta, chi)
        pd = path_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        sd = spin_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        total = sum(joint_probability(state, s) for s in all_sign_settings(pd, sd))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_minus_sign_equals_antipode_plus():
    rng = np.random.default_rng(6)
    for _ in range(50):
        state = bell_state(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
        pd = path_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        sd = spin_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        p_minus_path = joint_probability(state, JointSetting(pd, sd, -1, +1))
        p_antipode = joint_probability(state, JointSetting(pd.antipode(), sd, +1, +1))
        assert p_minus_path == pytest.approx(p_antipode, abs=1e-12)
        p_minus_spin = joint_probability(state, JointSetting(pd, sd, +1, -1))
        p_antipode = joint_probability(state, JointSetting(pd, sd.antipode(), +1, +1))
        assert p_minus_spin == pytest.approx(p_antipode, abs=1e-12)


def test_joint_probability_matches_matrix_route():
    rng = np.random.default_rng(7)
    for _ in range(50):
        state = bell_state(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                           rng.uniform(0, 2 * np.pi))
        pd = path_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        sd = spin_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        ps, ss = rng.choice([-1, 1]), rng.choice([-1, 1])
        operator = np.kron(subspace_projector(pd, ps), subspace_projector(sd, ss))
        direct = np.vdot(state.vector, operator @ state.vector).real
        fast = joint_probability(state, JointSetting(pd, sd, int(ps), int(ss)))
        assert fast == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------

def test_expectation_parallel_directions():
    assert expectation(bell_state(0.0), path_direction(0.0),
                       spin_direction(0.0)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_bell_angle():
    value = expectation(bell_state(0.0), path_direction(math.pi / 2.0),
                        spin_direction(math.pi / 4.0))
    assert value == pytest.approx(SQRT_HALF, abs=1e-12)


def test_expectation_equatorial_phase_dependence():
    rng = np.random.default_rng(8)
    for _ in range(50):
        gamma, alpha2 = rng.uniform(0, 2 * np.pi, 2)
        value = expectation(bell_state(gamma),
                            path_direction(math.pi / 2.0, alpha2),
                            spin_direction(math.pi / 2.0))
        assert value == pytest.approx(math.cos(gamma - alpha2), abs=1e-12)


def test_expectation_bounded():
    rng = np.random.default_rng(9)
    for _ in range(200):
        state = bell_state(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                           rng.uniform(0, 2 * np.pi))
        pd = path_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        sd = spin_direction(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        assert abs(expectation(state, pd, sd)) <= 1.0 + 1e-12


def test_expectation_closed_form_at_zero_spin_azimuth():
    rng = np.random.default_rng(10)
    for _ in range(300):
        alpha1, alpha2, beta1, gamma = rng.uniform(0, 2 * np.pi, 4)
        value = expectation(bell_state(gamma), path_direction(alpha1, alpha2),
                            spin_direction(beta1))
        closed = (math.cos(alpha1) * math.cos(beta1)
                  + math.cos(alpha2 - gamma) * math.sin(alpha1) * math.sin(beta1))
        assert abs(value) == pytest.approx(abs(closed), abs=1e-12)


def test_expectation_periodic_in_gamma():
    rng = np.random.default_rng(11)
    pd = path_direction(1.1, 0.4)
    sd = spin_direction(2.2, 0.0)
    for _ in range(30):
        gamma = rng.uniform(0, 2 * np.pi)
        base = expectation(bell_state(gamma), pd, sd)
        shifted = expectation(bell_state(gamma + 2 * math.pi), pd, sd)
        assert shifted == pytest.approx(base, abs=1e-12)
