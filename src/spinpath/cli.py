"""Command-line front end: deterministic scenario runs emitting plot-ready
CSV files plus a manifest that suffices to re-run them.

Every run writes a ``manifest.txt`` (key = value lines, UTF-8, LF) echoing
the fully resolved scenario including the seed; feeding that file back via
``--config`` reproduces the run byte for byte.  Angles are accepted as
radians (bare number or ``rad`` suffix) or degrees (``deg`` suffix) and
stored internally as radians.

Two tables drive the rest: a field row gives one option and config key
(``--name-with-dashes``; ``flipper_on`` alone is the inverted
``--flipper-off``), the one parser its flag text and config values both
pass through, and its help; a command row gives the manifest kind, the
runner and the fields.  A config file may hold only the command's fields,
the experiment settings every manifest echoes, the command's own outputs
and a matching ``kind``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (
    default_gamma_grid,
    run_azimuthal_scan,
    run_polar_scan,
    write_scan_results,
)
from .chsh import (
    TSIRELSON,
    polar_optimal_angles,
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
    write_csv,
    write_interferogram,
)
from .quantum import TWO_PI


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


# ---------------------------------------------------------------------------
# field parsers: flag text or config value -> value; ValueError if invalid
# ---------------------------------------------------------------------------

def _whole(value) -> int:
    """An integer value (3.0 counts as 3) or integer text."""
    if isinstance(value, str):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int):
        return value
    raise ValueError(value)


def _checked(parse: Callable, ok: Callable) -> Callable:
    """parse, then a ValueError unless ok holds for the parsed value."""
    def checked(value):
        parsed = parse(value)
        if not ok(parsed):
            raise ValueError(parsed)
        return parsed
    return checked


_finite_angle = _checked(parse_angle, math.isfinite)
_count = _checked(_whole, lambda n: n >= 1)
_boolean = _checked(lambda value: value, lambda value: isinstance(value, bool))


class Field(NamedTuple):
    parse: Callable  # flag text or config value -> value; ValueError if invalid
    must: str  # completes "<name> must be ..."
    help: str


_ANGLE, _COUNT = "a finite angle", "a positive integer"
_FIELDS = {
    "seed": Field(_whole, "an integer",
                  "master seed for all randomness (default 0)"),
    "max_rate": Field(float, "a number", "peak detection rate, counts/s"),
    "measure_time": Field(float, "a number", "seconds per scan point"),
    "visibility": Field(float, "a number", "fringe contrast in [0, 1]"),
    "theta": Field(_finite_angle, _ANGLE, "spin-flip imperfection angle"),
    "dyn_offset": Field(_finite_angle, _ANGLE,
                        "constant dynamical phase offset"),
    "gamma_points": Field(_count, _COUNT, "number of phases over [0, 2pi)"),
    "gamma_list": Field(
        _checked(lambda text: [_finite_angle(g) for g in parse_angle_list(text)],
                 bool),
        "a non-empty list of finite angles",
        "comma-separated phases (rad/deg suffixes allowed)"),
    "gamma": Field(_finite_angle, _ANGLE, "geometric phase"),
    "step": Field(_checked(_finite_angle, lambda step: step > 0.0),
                  "a positive finite angle", "grid step (default pi/90)"),
    "delta": Field(_finite_angle, _ANGLE, "spin-analysis angle"),
    "chi_points": Field(_count, _COUNT,
                        "phase-shifter points per scan (default 32)"),
    "chi_periods": Field(_count, _COUNT,
                         "fringe periods the phase shifter covers (default 2)"),
    "flipper_on": Field(_boolean, "true or false",
                        "simulate the flipper-off reference run"),
    "exact": Field(_boolean, "true or false",
                   "emit expected counts instead of Poisson draws"),
    "blocked_path": Field(_checked(str, lambda path: path in ("I", "II")),
                          "I or II", "the stopped beam path: I or II"),
    "delta_points": Field(_checked(_whole, lambda n: n >= 2),
                          "an integer of at least 2",
                          "spin-analysis angles over [0, 2pi] (default 17)"),
    "delta_step": Field(
        _checked(_finite_angle, lambda step: 0.0 < step <= math.pi / 8.0 + 1e-12),
        "a positive angle of at most pi/8", "analyzer-angle step (default pi/8)"),
    "normalize_contrast": Field(
        _boolean, "true or false",
        "divide the fringe contrast by the flipper-off reference contrast"),
}
# the ExperimentConfig settings: every manifest echoes them
_ECHO = tuple(f.name for f in dataclasses.fields(ExperimentConfig))
_GAMMA_SOURCES = ("gamma_list", "gamma_points")


def _parsed(name: str, value):
    """value parsed by the field's row, or a ValueError naming the field;
    only flag fields take booleans."""
    field = _FIELDS[name]
    if field.parse is _boolean or not isinstance(value, bool):
        try:
            return field.parse(value)
        except ValueError:
            pass
    raise ValueError(f"{name} must be {field.must}, got {value!r}")


def _require(field: str, value):
    if value is None:
        raise ValueError(f"missing required field {field!r} for this scenario")
    return value


# ---------------------------------------------------------------------------
# runners: (config, out, **parsed values) -> resolved values for the manifest
# ---------------------------------------------------------------------------

def _gammas(gamma_list=None, gamma_points=None) -> list:
    if gamma_points is not None:
        return list(np.linspace(0.0, TWO_PI, gamma_points, endpoint=False))
    return list(default_gamma_grid() if gamma_list is None else gamma_list)


def _gamma_echo(gammas) -> str:
    return ",".join(repr(float(g)) for g in gammas)


def _run_analytic(config, out: Path, gamma_list=None, gamma_points=None) -> dict:
    gammas = _gammas(gamma_list, gamma_points)
    rows = ([repr(float(gamma)), repr(s_general(standard_angles(), gamma)),
             repr(s_polar_max(gamma)), repr(TSIRELSON)] for gamma in gammas)
    write_csv(out / "analytic.csv",
              "gamma_rad,s_no_adjust,s_polar_max,s_tsirelson", rows)
    return {"gamma_list": _gamma_echo(gammas)}


def _run_surface(config, out: Path, gamma=None,
                 step=math.pi / 90.0) -> dict:
    gamma = _require("gamma", gamma)
    grid = np.arange(-math.pi, math.pi, step)
    surface = s_polar(math.pi / 2.0, grid[:, None], grid[None, :], gamma)
    labels = [repr(b) for b in grid.tolist()]
    rows = ([labels[i], labels[j], repr(s)]
            for i, row in enumerate(surface.tolist())
            for j, s in enumerate(row))
    write_csv(out / "surface.csv", "beta1_rad,beta1p_rad,s", rows)
    beta1, beta1_p, _ = polar_optimal_angles(gamma)
    return {
        "gamma": gamma, "step": step,
        "beta1_max": beta1, "beta1p_max": beta1_p, "s_max": s_polar_max(gamma),
    }


def _run_simulate(config, out: Path, delta=None, gamma=None, chi_points=32,
                  chi_periods=2, flipper_on=True, exact=False) -> dict:
    delta = _require("delta", delta)
    chi = default_chi_grid(chi_points, chi_periods)
    if flipper_on:
        gamma = _require("gamma", gamma)
        gram = simulate_interferogram(config, delta, gamma, chi_grid=chi,
                                      exact=exact)
    else:
        gamma = 0.0 if gamma is None else gamma
        gram = reference_run(config, delta, chi_grid=chi, exact=exact)
    write_interferogram(gram, out / "interferogram.csv", config)
    return {
        "delta": delta, "gamma": gamma, "flipper_on": flipper_on,
        "chi_points": chi_points, "chi_periods": chi_periods, "exact": exact,
    }


def _run_beam_block(config, out: Path, blocked_path=None, gamma=0.0,
                    delta_points=17, exact=False) -> dict:
    blocked_path = _require("blocked_path", blocked_path)
    deltas = np.linspace(0.0, TWO_PI, delta_points)
    scan = simulate_beam_block(config, deltas, gamma, blocked_path,
                               exact=exact)
    write_beam_block(scan, out / "beam_block.csv", config)
    return {
        "blocked_path": blocked_path, "gamma": gamma,
        "delta_points": delta_points, "exact": exact,
    }


def _run_polar_scan(config, out: Path, gamma_list=None,
                    delta_step=math.pi / 8.0, chi_points=32, chi_periods=2,
                    exact=False, normalize_contrast=False) -> dict:
    gammas = _gammas(gamma_list)
    deltas = np.linspace(0.0, math.pi, int(round(math.pi / delta_step)) + 1)
    results = run_polar_scan(config, gammas, delta_grid=deltas,
                             chi_grid=default_chi_grid(chi_points, chi_periods),
                             exact=exact, normalize_contrast=normalize_contrast)
    write_scan_results(results, out / "scan_polar.csv")
    return {
        "gamma_list": _gamma_echo(gammas), "delta_step": delta_step,
        "chi_points": chi_points, "chi_periods": chi_periods,
        "exact": exact, "normalize_contrast": normalize_contrast,
    }


def _run_azimuthal_scan(config, out: Path, gamma_list=None, chi_points=32,
                        chi_periods=2, exact=False,
                        normalize_contrast=False) -> dict:
    gammas = _gammas(gamma_list)
    results = run_azimuthal_scan(
        config, gammas, chi_grid=default_chi_grid(chi_points, chi_periods),
        exact=exact, normalize_contrast=normalize_contrast)
    write_scan_results(results, out / "scan_azimuthal.csv")
    return {
        "gamma_list": _gamma_echo(gammas),
        "chi_points": chi_points, "chi_periods": chi_periods,
        "exact": exact, "normalize_contrast": normalize_contrast,
    }


class Command(NamedTuple):
    kind: str  # the manifest's kind
    runner: Callable
    fields: tuple  # its options and config keys, in order
    help: str
    outputs: tuple = ()  # manifest keys a rerun accepts and never reads


_SIM = ("seed", "max_rate", "measure_time", "visibility", "theta", "dyn_offset")
_COMMANDS = {
    "analytic": Command(
        "analytic", _run_analytic, ("seed", "gamma_points", "gamma_list"),
        "exact S curves versus the geometric phase"),
    "surface": Command(
        "surface", _run_surface, ("seed", "gamma", "step"),
        "S(beta1, beta1') surface at one geometric phase",
        outputs=("beta1_max", "beta1p_max", "s_max")),
    "simulate": Command(
        "simulate-interferogram", _run_simulate,
        (*_SIM, "delta", "gamma", "chi_points", "chi_periods", "flipper_on",
         "exact"),
        "simulate one phase-shifter scan"),
    "beam-block": Command(
        "beam-block", _run_beam_block,
        (*_SIM, "blocked_path", "gamma", "delta_points", "exact"),
        "simulate a spin scan with one beam stopped"),
    "scan-polar": Command(
        "polar-scan", _run_polar_scan,
        (*_SIM, "gamma_list", "delta_step", "chi_points", "chi_periods",
         "exact", "normalize_contrast"),
        "polar Bell-angle adjustment scan over gamma"),
    "scan-azimuthal": Command(
        "azimuthal-scan", _run_azimuthal_scan,
        (*_SIM, "gamma_list", "chi_points", "chi_periods", "exact",
         "normalize_contrast"),
        "azimuthal Bell-angle adjustment scan over gamma"),
}


def run(command: Command, config: ExperimentConfig, values: dict,
        output_dir) -> int:
    """Execute a command on parsed values, writing its CSV artifacts and
    manifest.

    Returns 0 on success, 2 on an invalid scenario (with a diagnostic
    naming the offending field), 1 on I/O failure.
    """
    try:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        manifest = {"kind": command.kind, **config_echo(config),
                    **command.runner(config, out, **values)}
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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", default=None,
                       help="key = value config file; CLI flags override it")
        for field in command.fields:
            inverted = field == "flipper_on"
            option = "--flipper-off" if inverted else "--" + field.replace("_", "-")
            action = ("store_false" if inverted else
                      "store_true" if _FIELDS[field].parse is _boolean else "store")
            p.add_argument(option, dest=field, action=action, default=None,
                           help=_FIELDS[field].help)
    return parser


def build_scenario(args: argparse.Namespace) -> tuple:
    """(command, config, values): the config file merged with the flags
    (flags win), every key checked against the command and every value
    parsed by its field's row."""
    command = _COMMANDS[args.command]
    data = (parse_kv(Path(args.config).read_text(encoding="utf-8"))
            if args.config else {})
    kind = data.pop("kind", command.kind)
    if kind != command.kind:
        raise ValueError(f"kind must be {command.kind!r} for {args.command}, "
                         f"got {kind!r}")
    flags = {field: getattr(args, field) for field in command.fields
             if getattr(args, field) is not None}
    if not flags.keys().isdisjoint(_GAMMA_SOURCES):
        # the two gamma sources are one choice: a flag replaces both
        data = {k: v for k, v in data.items() if k not in _GAMMA_SOURCES}
    data.update(flags)
    for key in data:
        if key not in command.fields + _ECHO + command.outputs:
            raise ValueError(f"{key} is not a key of {args.command}")
    if all(source in data for source in _GAMMA_SOURCES):
        raise ValueError("gamma_list and gamma_points are one choice; "
                         "give only one")
    values = {k: _parsed(k, v) for k, v in data.items()
              if k not in command.outputs}
    config = ExperimentConfig(**{k: values.pop(k) for k in _ECHO if k in values})
    return command, config, values


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        command, config, values = build_scenario(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(command, config, values, args.out)


if __name__ == "__main__":
    sys.exit(main())
