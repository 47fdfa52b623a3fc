"""Simulator and analysis toolkit for a spin-path entangled single-neutron
CHSH experiment under a tunable geometric phase.

The package computes exact quantum predictions for the entangled state and
its joint projective measurements, simulates the noisy counting experiment
(interferograms, beam-block runs, reference runs, Poisson statistics), and
runs the estimation and optimization pipeline showing how adjusting the
Bell angles balances the geometric phase.
"""

from .quantum import (
    JointSetting,
    MeasurementDirection,
    PureState,
    bell_state,
    expectation,
    joint_probability,
    path_direction,
    spin_direction,
)
from .flippers import (
    CODATA2018,
    PhysicalConstants,
    entangled_state_via_flippers,
    flipper_unitary,
    geometric_phase,
    resonance_parameters,
)
from .chsh import (
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
from .experiment import (
    BeamBlockScan,
    ExperimentConfig,
    Interferogram,
    counts_to_expectation,
    read_beam_block,
    read_interferogram,
    reference_run,
    s_from_expectations,
    simulate_beam_block,
    simulate_interferogram,
    write_beam_block,
    write_interferogram,
)
from .analysis import (
    BellEstimate,
    FitError,
    NormalizationError,
    ScanResult,
    SinusoidFit,
    estimate_bell_s,
    fit_sinusoid,
    normalize_by_reference,
    read_scan_results,
    run_azimuthal_scan,
    run_polar_scan,
    write_scan_results,
)

__version__ = "0.1.0"

__all__ = [
    "BeamBlockScan",
    "BellAngleSet",
    "BellEstimate",
    "CODATA2018",
    "ExperimentConfig",
    "FitError",
    "Interferogram",
    "JointSetting",
    "MeasurementDirection",
    "NormalizationError",
    "PhysicalConstants",
    "PureState",
    "ScanResult",
    "SinusoidFit",
    "TSIRELSON",
    "azimuthal_optimal_angle",
    "bell_state",
    "counts_to_expectation",
    "entangled_state_via_flippers",
    "estimate_bell_s",
    "expectation",
    "fit_sinusoid",
    "flipper_unitary",
    "geometric_phase",
    "joint_probability",
    "normalize_by_reference",
    "path_direction",
    "polar_optimal_angles",
    "read_beam_block",
    "read_interferogram",
    "read_scan_results",
    "reference_run",
    "resonance_parameters",
    "run_azimuthal_scan",
    "run_polar_scan",
    "s_azimuthal",
    "s_from_expectations",
    "s_general",
    "s_polar",
    "s_polar_max",
    "simulate_beam_block",
    "simulate_interferogram",
    "spin_direction",
    "standard_angles",
    "write_beam_block",
    "write_interferogram",
    "write_scan_results",
]
