"""Command-line front end: deterministic scenario runs emitting plot-ready
CSV files plus a manifest that suffices to re-run them.

Every run writes a ``manifest.txt`` (key = value lines, UTF-8, LF) echoing
the fully resolved scenario including the seed; feeding that file back via
``--config`` reproduces the run byte for byte.  Angles are accepted as
radians (bare number or ``rad`` suffix) or degrees (``deg`` suffix) and
stored internally as radians.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    default_gamma_grid,
    run_azimuthal_scan,
    run_polar_scan,
    write_scan_results,
)
from .chsh import (
    SValueRecord,
    TSIRELSON,
    grid_maximize_s,
    s_general,
    s_polar,
    s_polar_max,
    standard_angles,
)
from .experiment import (
    ExperimentConfig,
    config_echo,
    default_chi_grid,
    format_kv,
    parse_kv,
    reference_run,
    simulate_beam_block,
    simulate_interferogram,
    write_beam_block,
    write_interferogram,
)
from .quantum import TWO_PI

KINDS = (
    "analytic",
    "surface",
    "simulate-interferogram",
    "beam-block",
    "polar-scan",
    "azimuthal-scan",
)


def parse_angle(text) -> float:
    """Parse an angle: bare number or 'rad' suffix = radians, 'deg' suffix
    = degrees."""
    if isinstance(text, (int, float)):
        return float(text)
    t = str(text).strip()
    if t.endswith("deg"):
        return float(t[:-3]) * math.pi / 180.0
    if t.endswith("rad"):
        return float(t[:-3])
    return float(t)


def parse_angle_list(text) -> list:
    """Parse a comma-separated list of angles."""
    if isinstance(text, (list, tuple, np.ndarray)):
        return [parse_angle(t) for t in text]
    items = [t for t in str(text).split(",") if t.strip()]
    return [parse_angle(t) for t in items]


@dataclass(frozen=True)
class Scenario:
    """A fully resolved run request: what to compute and with which
    parameters."""

    kind: str
    config: ExperimentConfig
    parameters: dict

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


def _require(parameters: dict, field: str):
    if field not in parameters or parameters[field] is None:
        raise ValueError(f"missing required field {field!r} for this scenario")
    return parameters[field]


def _resolve_gamma_list(parameters: dict) -> list:
    if parameters.get("gamma_list") is not None:
        gammas = parse_angle_list(parameters["gamma_list"])
    elif parameters.get("gamma_points") is not None:
        n = int(parameters["gamma_points"])
        if n <= 0:
            raise ValueError("gamma_points must be positive")
        gammas = list(np.linspace(0.0, TWO_PI, n, endpoint=False))
    else:
        gammas = list(default_gamma_grid())
    if not gammas:
        raise ValueError("gamma_list must not be empty")
    return gammas


def _get(parameters: dict, field: str, default):
    """The field's value, or the default when the field is absent; a given
    zero or empty value is kept for validation, never replaced."""
    value = parameters.get(field)
    return default if value is None else value


def _count(parameters: dict, field: str, default: int, minimum: int = 1) -> int:
    value = int(_get(parameters, field, default))
    if value < minimum:
        raise ValueError(f"{field} must be at least {minimum}, got {value}")
    return value


def _chi_size(parameters: dict) -> tuple:
    """(chi_points, chi_periods) of the phase-shifter grid."""
    return _count(parameters, "chi_points", 32), _count(parameters, "chi_periods", 2)


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _run_analytic(scenario: Scenario, out: Path) -> dict:
    gammas = _resolve_gamma_list(scenario.parameters)
    rows = []
    for gamma in gammas:
        record = SValueRecord(gamma=float(gamma),
                              s=s_general(standard_angles(), gamma),
                              angles=standard_angles(), method="analytic")
        rows.append([
            repr(record.gamma),
            repr(record.s),
            repr(s_polar_max(gamma)),
            repr(TSIRELSON),
        ])
    _write_csv(out / "analytic.csv",
               "gamma_rad,s_no_adjust,s_polar_max,s_tsirelson", rows)
    return {"gamma_list": ",".join(repr(float(g)) for g in gammas)}


def _run_surface(scenario: Scenario, out: Path) -> dict:
    gamma = parse_angle(_require(scenario.parameters, "gamma"))
    step = parse_angle(_get(scenario.parameters, "step", math.pi / 90.0))
    if step <= 0:
        raise ValueError("step must be positive")
    grid = np.arange(-math.pi, math.pi, step)
    surface = s_polar(math.pi / 2.0, grid[:, None], grid[None, :], gamma)
    labels = [repr(b) for b in grid.tolist()]
    rows = [[labels[i], labels[j], repr(s)]
            for i, row in enumerate(surface.tolist())
            for j, s in enumerate(row)]
    _write_csv(out / "surface.csv", "beta1_rad,beta1p_rad,s", rows)
    beta1, beta1_p, s_max = grid_maximize_s(gamma)
    record = SValueRecord(gamma=gamma, s=s_max, method="grid")
    return {
        "gamma": gamma, "step": step,
        "beta1_max": beta1, "beta1p_max": beta1_p, "s_max": record.s,
    }


def _run_simulate(scenario: Scenario, out: Path) -> dict:
    p = scenario.parameters
    delta = parse_angle(_require(p, "delta"))
    flipper_on = p.get("flipper_on")
    flipper_on = True if flipper_on is None else bool(flipper_on)
    points, periods = _chi_size(p)
    chi = default_chi_grid(points, periods)
    exact = bool(p.get("exact") or False)
    if flipper_on:
        gamma = parse_angle(_require(p, "gamma"))
        gram = simulate_interferogram(scenario.config, delta, gamma,
                                      chi_grid=chi, exact=exact)
    else:
        gamma = parse_angle(p.get("gamma") or 0.0)
        gram = reference_run(scenario.config, delta, chi_grid=chi, exact=exact)
    write_interferogram(gram, out / "interferogram.csv", scenario.config)
    return {
        "delta": delta, "gamma": gamma, "flipper_on": flipper_on,
        "chi_points": points, "chi_periods": periods, "exact": exact,
    }


def _run_beam_block(scenario: Scenario, out: Path) -> dict:
    p = scenario.parameters
    blocked = str(_require(p, "blocked_path"))
    gamma = parse_angle(p.get("gamma") or 0.0)
    points = _count(p, "delta_points", 17, minimum=2)
    exact = bool(p.get("exact") or False)
    deltas = np.linspace(0.0, TWO_PI, points)
    scan = simulate_beam_block(scenario.config, deltas, gamma, blocked,
                               exact=exact)
    write_beam_block(scan, out / "beam_block.csv", scenario.config)
    return {
        "blocked_path": blocked, "gamma": gamma, "delta_points": points,
        "exact": exact,
    }


def _run_polar_scan(scenario: Scenario, out: Path) -> dict:
    p = scenario.parameters
    gammas = _resolve_gamma_list(p)
    delta_step = parse_angle(_get(p, "delta_step", math.pi / 8.0))
    if delta_step <= 0 or delta_step > math.pi / 8.0 + 1e-12:
        raise ValueError("delta_step must be positive and at most pi/8")
    n = int(round(math.pi / delta_step)) + 1
    deltas = np.linspace(0.0, math.pi, n)
    points, periods = _chi_size(p)
    chi = default_chi_grid(points, periods)
    exact = bool(p.get("exact") or False)
    normalize = bool(p.get("normalize_contrast") or False)
    results = run_polar_scan(scenario.config, gammas, delta_grid=deltas,
                             chi_grid=chi, exact=exact,
                             normalize_contrast=normalize)
    write_scan_results(results, out / "scan_polar.csv")
    return {
        "gamma_list": ",".join(repr(float(g)) for g in gammas),
        "delta_step": delta_step,
        "chi_points": points, "chi_periods": periods,
        "exact": exact, "normalize_contrast": normalize,
    }


def _run_azimuthal_scan(scenario: Scenario, out: Path) -> dict:
    p = scenario.parameters
    gammas = _resolve_gamma_list(p)
    points, periods = _chi_size(p)
    chi = default_chi_grid(points, periods)
    exact = bool(p.get("exact") or False)
    normalize = bool(p.get("normalize_contrast") or False)
    results = run_azimuthal_scan(scenario.config, gammas, chi_grid=chi,
                                 exact=exact, normalize_contrast=normalize)
    write_scan_results(results, out / "scan_azimuthal.csv")
    return {
        "gamma_list": ",".join(repr(float(g)) for g in gammas),
        "chi_points": points, "chi_periods": periods,
        "exact": exact, "normalize_contrast": normalize,
    }


_RUNNERS = {
    "analytic": _run_analytic,
    "surface": _run_surface,
    "simulate-interferogram": _run_simulate,
    "beam-block": _run_beam_block,
    "polar-scan": _run_polar_scan,
    "azimuthal-scan": _run_azimuthal_scan,
}


def run(scenario: Scenario, output_dir) -> int:
    """Execute a scenario, writing its CSV artifacts and manifest.

    Returns 0 on success, 2 on an invalid scenario (with a diagnostic
    naming the offending field), 1 on I/O failure.
    """
    try:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        resolved = _RUNNERS[scenario.kind](scenario, out)
        manifest = {"kind": scenario.kind}
        manifest.update(config_echo(scenario.config))
        manifest.update(resolved)
        (out / "manifest.txt").write_text(format_kv(manifest), encoding="utf-8")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpath",
        description="Simulate and analyze a spin-path entangled CHSH "
                    "experiment with a tunable geometric phase.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="master seed for all randomness (default 0)")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--config", default=None,
                        help="key = value config file; CLI flags override it")

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--max-rate", dest="max_rate", type=float, default=None,
                     help="peak detection rate, counts/s")
    sim.add_argument("--measure-time", dest="measure_time", type=float,
                     default=None, help="seconds per scan point")
    sim.add_argument("--visibility", type=float, default=None,
                     help="fringe contrast in [0, 1]")
    sim.add_argument("--theta", default=None,
                     help="spin-flip imperfection angle")
    sim.add_argument("--dyn-offset", dest="dyn_offset", default=None,
                     help="constant dynamical phase offset")

    p = sub.add_parser("analytic", parents=[common],
                       help="exact S curves versus the geometric phase")
    p.add_argument("--gamma-points", dest="gamma_points", type=int,
                   default=None, help="number of phases over [0, 2pi)")
    p.add_argument("--gamma-list", dest="gamma_list", default=None,
                   help="comma-separated phases (rad/deg suffixes allowed)")

    p = sub.add_parser("surface", parents=[common],
                       help="S(beta1, beta1') surface at one geometric phase")
    p.add_argument("--gamma", default=None, help="geometric phase")
    p.add_argument("--step", default=None, help="grid step (default pi/90)")

    p = sub.add_parser("simulate", parents=[common, sim],
                       help="simulate one phase-shifter scan")
    p.add_argument("--delta", default=None, help="spin-analysis angle")
    p.add_argument("--gamma", default=None, help="geometric phase")
    p.add_argument("--chi-points", dest="chi_points", type=int, default=None)
    p.add_argument("--chi-periods", dest="chi_periods", type=int, default=None)
    p.add_argument("--flipper-off", dest="flipper_on", action="store_false",
                   default=None, help="simulate the flipper-off reference run")
    p.add_argument("--exact", action="store_true", default=None,
                   help="emit expected counts instead of Poisson draws")

    p = sub.add_parser("beam-block", parents=[common, sim],
                       help="simulate a spin scan with one beam stopped")
    p.add_argument("--blocked-path", dest="blocked_path", choices=("I", "II"),
                   default=None)
    p.add_argument("--gamma", default=None, help="geometric phase")
    p.add_argument("--delta-points", dest="delta_points", type=int,
                   default=None)
    p.add_argument("--exact", action="store_true", default=None)

    p = sub.add_parser("scan-polar", parents=[common, sim],
                       help="polar Bell-angle adjustment scan over gamma")
    p.add_argument("--gamma-list", dest="gamma_list", default=None)
    p.add_argument("--delta-step", dest="delta_step", default=None,
                   help="analyzer-angle step (default pi/8)")
    p.add_argument("--chi-points", dest="chi_points", type=int, default=None)
    p.add_argument("--chi-periods", dest="chi_periods", type=int, default=None)
    p.add_argument("--exact", action="store_true", default=None)
    p.add_argument("--normalize-contrast", dest="normalize_contrast",
                   action="store_true", default=None)

    p = sub.add_parser("scan-azimuthal", parents=[common, sim],
                       help="azimuthal Bell-angle adjustment scan over gamma")
    p.add_argument("--gamma-list", dest="gamma_list", default=None)
    p.add_argument("--chi-points", dest="chi_points", type=int, default=None)
    p.add_argument("--chi-periods", dest="chi_periods", type=int, default=None)
    p.add_argument("--exact", action="store_true", default=None)
    p.add_argument("--normalize-contrast", dest="normalize_contrast",
                   action="store_true", default=None)

    return parser


_COMMAND_KINDS = {
    "analytic": "analytic",
    "surface": "surface",
    "simulate": "simulate-interferogram",
    "beam-block": "beam-block",
    "scan-polar": "polar-scan",
    "scan-azimuthal": "azimuthal-scan",
}

_CONFIG_FIELDS = ("max_rate", "measure_time", "visibility", "theta",
                  "dyn_offset", "seed")


def build_scenario(args: argparse.Namespace) -> Scenario:
    """Merge config-file values and CLI flags into a Scenario (CLI wins)."""
    data: dict = {}
    if args.config:
        data.update(parse_kv(Path(args.config).read_text(encoding="utf-8")))
    for key, value in vars(args).items():
        if key in ("command", "config", "out") or value is None:
            continue
        data[key] = value

    config_kwargs = {}
    for field in _CONFIG_FIELDS:
        if field in data:
            if field in ("theta", "dyn_offset"):
                config_kwargs[field] = parse_angle(data[field])
            elif field == "seed":
                config_kwargs[field] = int(data[field])
            else:
                config_kwargs[field] = float(data[field])
    config = ExperimentConfig(**config_kwargs)

    parameters = {k: v for k, v in data.items()
                  if k not in _CONFIG_FIELDS and k != "kind"}
    return Scenario(kind=_COMMAND_KINDS[args.command], config=config,
                    parameters=parameters)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = build_scenario(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(scenario, args.out)


if __name__ == "__main__":
    sys.exit(main())
