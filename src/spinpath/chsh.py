"""CHSH correlation functions and optimal Bell angles under a geometric phase.

Two independent routes to the S value live here on purpose.  s_general
assembles S from projector expectation values of the entangled state and is
the single source of truth; s_polar and s_azimuthal are the closed-form
expressions for the two angle-adjustment schemes and act as analytic cross
checks.  The closed forms are written with every azimuthal angle of the
unadjusted scheme at zero, which is the only regime where the two routes
coincide term by term (S itself is invariant under a global sign flip of
all four expectation values, so only |S| is ever compared).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import (
    MeasurementDirection,
    bell_state,
    expectation,
    path_direction,
    spin_direction,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class BellAngleSet:
    """The four measurement directions entering one S evaluation.

    alpha, alpha_p act on the path subspace; beta, beta_p on spin.
    """

    alpha: MeasurementDirection
    alpha_p: MeasurementDirection
    beta: MeasurementDirection
    beta_p: MeasurementDirection

    def __post_init__(self):
        for name in ("alpha", "alpha_p"):
            if getattr(self, name).subspace != "path":
                raise ValueError(f"{name} must be a path-subspace direction")
        for name in ("beta", "beta_p"):
            if getattr(self, name).subspace != "spin":
                raise ValueError(f"{name} must be a spin-subspace direction")


def standard_angles(alpha2_p: float = 0.0) -> BellAngleSet:
    """The canonical Bell angles alpha1=0, alpha1'=pi/2, beta1=pi/4,
    beta1'=3*pi/4, with an optional azimuth on the second path direction."""
    return BellAngleSet(
        alpha=path_direction(0.0),
        alpha_p=path_direction(math.pi / 2.0, alpha2_p),
        beta=spin_direction(math.pi / 4.0),
        beta_p=spin_direction(3.0 * math.pi / 4.0),
    )


def s_general(angles: BellAngleSet, gamma: float) -> float:
    """|E(a,b) - E(a,b') + E(a',b) + E(a',b')| from projector expectations
    of the ideal entangled state at geometric phase gamma."""
    state = bell_state(gamma)
    e1 = expectation(state, angles.alpha, angles.beta)
    e2 = expectation(state, angles.alpha, angles.beta_p)
    e3 = expectation(state, angles.alpha_p, angles.beta)
    e4 = expectation(state, angles.alpha_p, angles.beta_p)
    return abs(e1 - e2 + e3 + e4)


def _s_polar_inner(alpha1_p, beta1, beta1_p, gamma):
    """Signed bracket of the polar-adjustment closed form; elementwise."""
    return (
        -np.sin(alpha1_p) * np.cos(gamma) * (np.sin(beta1) + np.sin(beta1_p))
        - np.cos(alpha1_p) * (np.cos(beta1) + np.cos(beta1_p))
        - np.cos(beta1)
        + np.cos(beta1_p)
    )


def s_polar(alpha1_p, beta1, beta1_p, gamma):
    """Closed-form S with all azimuthal angles fixed at zero (alpha1 = 0),
    as a function of the three free polar angles.  The angles broadcast:
    scalar inputs give a float, array inputs an array."""
    s = np.abs(_s_polar_inner(alpha1_p, beta1, beta1_p, gamma))
    return float(s) if np.ndim(s) == 0 else s


def polar_optimal_angles(gamma: float) -> tuple:
    """Stationary polar angles (beta1, beta1', alpha1') maximizing s_polar.

    beta1 = arctan(cos gamma) on the principal branch, beta1' = pi - beta1,
    alpha1' = pi/2.  For gamma with cos gamma < 0 this places beta1 in
    (-pi/4, 0); the maximizing set is unique only up to a simultaneous pi
    shift of (beta1, beta1').
    """
    beta1 = math.atan(math.cos(gamma))
    return beta1, math.pi - beta1, math.pi / 2.0


def s_polar_max(gamma: float) -> float:
    """Maximum of s_polar over the polar angles: 2*sqrt(1 + cos^2 gamma).

    At the stationary angles the bracket collapses to
    2 cos(beta1) + 2 cos(gamma) sin(beta1), a single harmonic in beta1 with
    amplitude 2*sqrt(1 + cos^2 gamma); it oscillates between 2 and
    2*sqrt(2) with period pi in gamma.
    """
    c = math.cos(gamma)
    return 2.0 * math.sqrt(1.0 + c * c)


def s_azimuthal(alpha2_p: float, beta2: float, beta2_p: float, gamma: float) -> float:
    """Closed-form S with polar angles pinned at the canonical Bell values
    (alpha1 = 0, alpha1' = pi/2, beta1 = pi/4, beta1' = 3*pi/4), as a
    function of the free azimuthal angles."""
    half_sqrt2 = math.sqrt(2.0) / 2.0
    return abs(
        -math.sqrt(2.0)
        - half_sqrt2 * (math.cos(alpha2_p - beta2 - gamma)
                        + math.cos(alpha2_p - beta2_p - gamma))
    )


def azimuthal_optimal_angle(gamma: float) -> float:
    """Azimuth alpha2' = gamma reduced mod pi to [0, pi), for beta2 = beta2'
    = 0; restores S = 2*sqrt(2) at any geometric phase."""
    return float(gamma) % math.pi
