"""Geometric phase from two rf spin flippers, and their resonance settings.

Each flipper performs a pi rotation of the neutron spin about an axis lying
in the x-y plane; the axis azimuth equals the phase phi of the flipper's
oscillating field.  Two successive flips about azimuths phi_I and phi_II
return the spin to its starting point on the Bloch sphere while the traced
loop encloses the solid angle Omega = 2(phi_I - phi_II).  The phase picked
up by the flipped branch depends only on phi_I - phi_II, not on the field
dynamics, and is what the rest of the package calls gamma.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .quantum import PureState

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 values; override only for sensitivity studies."""

    hbar: float = 1.054571817e-34          # J s
    mu_neutron_abs: float = 9.6623651e-27  # J/T, |mu| of the neutron


CODATA2018 = PhysicalConstants()


def flipper_unitary(phi: float) -> np.ndarray:
    """Spin rotation by pi about the axis (cos phi, sin phi, 0).

    U = exp(-i pi/2 n.sigma) = -i (cos phi sigma_x + sin phi sigma_y), so
    U(0)|up> = -i |down> (rotation-operator convention).  Only phase
    differences between phi settings are observable.
    """
    return -1j * np.array(
        [[0.0, cmath.exp(-1j * phi)],
         [cmath.exp(1j * phi), 0.0]]
    )


def geometric_phase(phi_i: float, phi_ii: float = 0.0) -> float:
    """Operative geometric phase gamma = phi_I - phi_II.

    This is the phase that multiplies the flipped branch of the entangled
    state (see entangled_state_via_flippers); with phi_II = 0 it reduces to
    gamma = phi_I.
    """
    return float(phi_i) - float(phi_ii)


def entangled_state_via_flippers(phi_i: float, phi_ii: float = 0.0) -> PureState:
    """Entangled state built through the two-flipper mechanism.

    The flip inside the interferometer composed with the inverse of the
    reference flip, U(phi_I) U(phi_II)^dagger, is diagonal and multiplies
    |down> by exactly the geometric phase factor.  Applying the composite to
    the flipped beam-II spinor reproduces bell_state(phi_I - phi_II) with no
    spurious global phase: the phi_I = phi_II case is the phase reference.
    """
    composite = flipper_unitary(phi_i) @ flipper_unitary(phi_ii).conj().T
    spin_ii = composite @ np.array([0.0, 1.0], dtype=complex)
    amps = (
        _SQRT_HALF,
        0.0,
        spin_ii[0] * _SQRT_HALF,
        spin_ii[1] * _SQRT_HALF,
    )
    return PureState(amps)


def resonance_parameters(omega: float, tau: float,
                         constants: PhysicalConstants = CODATA2018) -> tuple:
    """Static and oscillating field strengths for a resonant pi flip.

    B0 = hbar*omega / (2|mu|) satisfies the frequency resonance condition
    for angular frequency omega; B_rf = pi*hbar / (2*tau*|mu|) is the
    oscillating amplitude that completes the flip during the exposure
    time tau.  Returns (B0, B_rf) in tesla.
    """
    if omega <= 0.0:
        raise ValueError(f"frequency omega must be positive, got {omega!r}")
    if tau <= 0.0:
        raise ValueError(f"exposure_time tau must be positive, got {tau!r}")
    b0 = constants.hbar * omega / (2.0 * constants.mu_neutron_abs)
    b_rf = math.pi * constants.hbar / (2.0 * tau * constants.mu_neutron_abs)
    return b0, b_rf
