import cmath
import math

import numpy as np
import pytest

from spinpath.flippers import (
    CODATA2018,
    PhysicalConstants,
    entangled_state_via_flippers,
    flipper_unitary,
    geometric_phase,
    resonance_parameters,
)
from spinpath.quantum import bell_state

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)


# ---------------------------------------------------------------------------
# flipper unitaries
# ---------------------------------------------------------------------------

def test_unitary_phase_convention():
    out = flipper_unitary(0.0) @ UP
    assert np.allclose(out, -1j * DOWN, atol=1e-12)


def test_unitarity():
    rng = np.random.default_rng(0)
    for phi in rng.uniform(-10, 10, 50):
        u = flipper_unitary(phi)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_flip_maps_up_to_down():
    rng = np.random.default_rng(1)
    for phi in rng.uniform(0, 2 * np.pi, 20):
        out = flipper_unitary(phi) @ UP
        assert abs(out[0]) < 1e-12
        assert abs(abs(out[1]) - 1.0) < 1e-12


def test_relative_phase_between_settings():
    ref = flipper_unitary(0.0) @ UP
    for phi in (math.pi / 3.0, 1.0, 4.5):
        out = flipper_unitary(phi) @ UP
        ratio = out[1] / ref[1]
        assert ratio == pytest.approx(cmath.exp(1j * phi), abs=1e-12)


def test_composite_identity():
    u = flipper_unitary(0.0)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_composite_imprints_phase_on_down():
    for phi_i in (0.4, 2.0, 5.9):
        composite = flipper_unitary(phi_i) @ flipper_unitary(0.0).conj().T
        out = composite @ DOWN
        assert out[1] == pytest.approx(cmath.exp(1j * phi_i), abs=1e-12)
        assert abs(out[0]) < 1e-12


# ---------------------------------------------------------------------------
# geometric phase
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("phi_i,phi_ii,expected", [
    (math.pi / 6.0, 0.0, math.pi / 6.0),
    (0.0, 0.0, 0.0),
    (math.pi / 2.0, math.pi / 4.0, math.pi / 4.0),
])
def test_geometric_phase_examples(phi_i, phi_ii, expected):
    assert geometric_phase(phi_i, phi_ii) == pytest.approx(expected, abs=1e-12)


def test_geometric_phase_vanishes_for_equal_settings():
    for phi in (-3.0, 0.0, 1.234, 6.0):
        assert geometric_phase(phi, phi) == 0.0


# ---------------------------------------------------------------------------
# consistency with the entangled state
# ---------------------------------------------------------------------------

def test_flipper_route_matches_bell_state():
    rng = np.random.default_rng(4)
    for _ in range(100):
        phi_i = rng.uniform(0, 2 * np.pi)
        phi_ii = rng.uniform(0, 2 * np.pi)
        built = entangled_state_via_flippers(phi_i, phi_ii)
        want = bell_state(phi_i - phi_ii)
        # the |I,up> amplitudes are both real positive, so global-phase
        # equality reduces to elementwise equality
        for a, b in zip(built.amplitudes, want.amplitudes):
            assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# resonance conditions
# ---------------------------------------------------------------------------

def test_resonance_guide_fields():
    b0_58, _ = resonance_parameters(2 * math.pi * 58e3, 76e-6)
    assert b0_58 == pytest.approx(1.988706e-3, rel=1e-5)
    assert b0_58 == pytest.approx(2e-3, rel=0.05)
    b0_29, _ = resonance_parameters(2 * math.pi * 29e3, 76e-6)
    assert b0_29 == pytest.approx(1e-3, rel=0.05)
    assert b0_29 == pytest.approx(b0_58 / 2.0, rel=1e-12)


def test_resonance_amplitude_inverse_in_tau():
    omega = 2 * math.pi * 58e3
    _, b_rf = resonance_parameters(omega, 1e-4)
    _, b_rf_slow = resonance_parameters(omega, 1e-3)
    assert b_rf == pytest.approx(10.0 * b_rf_slow, rel=1e-12)


def test_resonance_formula_against_constants():
    omega, tau = 3.1e5, 7.6e-5
    b0, b_rf = resonance_parameters(omega, tau)
    assert b0 == pytest.approx(
        CODATA2018.hbar * omega / (2 * CODATA2018.mu_neutron_abs), rel=1e-12)
    assert b_rf == pytest.approx(
        math.pi * CODATA2018.hbar / (2 * tau * CODATA2018.mu_neutron_abs),
        rel=1e-12)


def test_resonance_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        resonance_parameters(0.0, 1e-4)
    with pytest.raises(ValueError):
        resonance_parameters(1e5, -1.0)


def test_constants_override():
    doubled = PhysicalConstants(hbar=2 * CODATA2018.hbar,
                                mu_neutron_abs=CODATA2018.mu_neutron_abs)
    b0_ref, _ = resonance_parameters(1e5, 1e-4)
    b0_double, _ = resonance_parameters(1e5, 1e-4, doubled)
    assert b0_double == pytest.approx(2 * b0_ref, rel=1e-12)
