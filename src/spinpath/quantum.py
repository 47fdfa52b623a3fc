"""Exact quantum mechanics of a spin-path entangled neutron state.

The single-neutron Hilbert space is the tensor product of a two-dimensional
path space (interferometer beams |I>, |II>) and the spin-1/2 space (|up>,
|down> along the static guide field).  Amplitude vectors are ordered

    index 0: |I, up>      index 1: |I, down>
    index 2: |II, up>     index 3: |II, down>

i.e. the path factor comes first.  All angles are radians.  Every function
here is pure and operates on immutable values, so concurrent use is safe.

Measurement directions are Bloch-sphere axes (polar, azimuthal) on one of
the two subspaces.  The +1 outcome of a direction d projects onto

    |+d> = cos(polar/2) |e0> + e^{i azimuthal} sin(polar/2) |e1>

and the -1 outcome onto its orthogonal complement
|-d> = -sin(polar/2) |e0> + e^{i azimuthal} cos(polar/2) |e1>, which equals
|+d'> for the antipodal direction d' = (polar + pi, azimuthal).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

PATH = "path"
SPIN = "spin"

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def wrap_two_pi(angle: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    return float(angle) % TWO_PI


@dataclass(frozen=True)
class MeasurementDirection:
    """A projective measurement direction on one two-dimensional subspace.

    polar and azimuthal are stored reduced to [0, 2*pi); subspace tags
    whether the direction acts on the path or the spin factor.
    """

    polar: float
    azimuthal: float = 0.0
    subspace: str = PATH

    def __post_init__(self):
        if self.subspace not in (PATH, SPIN):
            raise ValueError(
                f"subspace must be {PATH!r} or {SPIN!r}, got {self.subspace!r}"
            )
        object.__setattr__(self, "polar", wrap_two_pi(self.polar))
        object.__setattr__(self, "azimuthal", wrap_two_pi(self.azimuthal))

    def antipode(self) -> "MeasurementDirection":
        """The opposite outcome axis: polar -> polar + pi, azimuthal kept."""
        return MeasurementDirection(self.polar + math.pi, self.azimuthal, self.subspace)


def path_direction(polar: float, azimuthal: float = 0.0) -> MeasurementDirection:
    return MeasurementDirection(polar, azimuthal, PATH)


def spin_direction(polar: float, azimuthal: float = 0.0) -> MeasurementDirection:
    return MeasurementDirection(polar, azimuthal, SPIN)


@dataclass(frozen=True)
class JointSetting:
    """One joint (path, spin) projective measurement with outcome signs."""

    path_dir: MeasurementDirection
    spin_dir: MeasurementDirection
    path_sign: int = +1
    spin_sign: int = +1

    def __post_init__(self):
        if self.path_dir.subspace != PATH:
            raise ValueError("path_dir must be tagged subspace='path'")
        if self.spin_dir.subspace != SPIN:
            raise ValueError("spin_dir must be tagged subspace='spin'")
        if self.path_sign not in (+1, -1) or self.spin_sign not in (+1, -1):
            raise ValueError("signs must be +1 or -1")


@dataclass(frozen=True)
class PureState:
    """Normalized pure state over the (path tensor spin) basis.

    amplitudes are ordered (|I,up>, |I,down>, |II,up>, |II,down>).
    """

    amplitudes: tuple

    def __post_init__(self):
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError("amplitudes must have exactly 4 entries")
        norm_sq = sum(abs(a) ** 2 for a in amps)
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state norm^2 = {norm_sq!r}, must be 1 within 1e-12")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)


def bell_state(gamma: float, theta: float = 0.0, path_phase: float = 0.0,
               dyn_offset: float = 0.0) -> PureState:
    """Spin-path entangled state carrying a geometric phase.

    With a perfect spin flip (theta = 0) the state is

        (|I,up> + e^{i(chi+gamma)} |II,down>) / sqrt(2),

    where chi = path_phase + dyn_offset is the total phase on beam II.  An
    imperfect flip leaves a spin-up remnant sin(theta/2) in beam II:

        (1/sqrt2) (|I,up> + e^{i(chi+gamma)} (sin(theta/2) |II,up>
                                              + cos(theta/2) |II,down>)).

    Input angles are reduced mod 2*pi before the amplitudes are formed.
    """
    gamma = wrap_two_pi(gamma)
    theta = wrap_two_pi(theta)
    path_phase = wrap_two_pi(path_phase)
    dyn_offset = wrap_two_pi(dyn_offset)
    branch = cmath.exp(1j * (path_phase + dyn_offset + gamma)) * _SQRT_HALF
    amps = (
        _SQRT_HALF,
        0.0,
        branch * math.sin(theta / 2.0),
        branch * math.cos(theta / 2.0),
    )
    return PureState(amps)


def direction_ket(direction: MeasurementDirection, sign: int = +1) -> np.ndarray:
    """The 2-component outcome ket |+d> (sign=+1) or |-d> (sign=-1)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    half = direction.polar / 2.0
    phase = cmath.exp(1j * direction.azimuthal)
    if sign == +1:
        return np.array([math.cos(half), phase * math.sin(half)])
    return np.array([-math.sin(half), phase * math.cos(half)])


def joint_probability(state: PureState, setting: JointSetting) -> float:
    """<psi| P_path x P_spin |psi> for one joint setting.

    Rank-one projectors allow the probability to be taken as the squared
    joint projection amplitude |<d_path, d_spin | psi>|^2.  The result is
    clamped to [0, 1] against last-bit rounding.
    """
    path_ket = direction_ket(setting.path_dir, setting.path_sign)
    spin_ket = direction_ket(setting.spin_dir, setting.spin_sign)
    joint = (path_ket[:, None] * spin_ket[None, :]).ravel()
    amp = np.vdot(joint, state.vector)
    p = (amp.conjugate() * amp).real
    return min(max(float(p), 0.0), 1.0)


def expectation(state: PureState, path_dir: MeasurementDirection,
                spin_dir: MeasurementDirection) -> float:
    """Joint expectation value E = p(+,+) - p(+,-) - p(-,+) + p(-,-)."""
    p_pp = joint_probability(state, JointSetting(path_dir, spin_dir, +1, +1))
    p_pm = joint_probability(state, JointSetting(path_dir, spin_dir, +1, -1))
    p_mp = joint_probability(state, JointSetting(path_dir, spin_dir, -1, +1))
    p_mm = joint_probability(state, JointSetting(path_dir, spin_dir, -1, -1))
    return p_pp - p_pm - p_mp + p_mm
