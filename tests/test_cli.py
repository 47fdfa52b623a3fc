import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from spinpath import cli
from spinpath.cli import main, parse_angle, parse_angle_list
from spinpath.analysis import read_scan_results
from spinpath.chsh import polar_optimal_angles, s_polar, s_polar_max
from spinpath.experiment import parse_kv, read_beam_block, read_interferogram

TSIRELSON = 2.0 * math.sqrt(2.0)


def read_csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# angle parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("1.5", 1.5),
    ("0.5rad", 0.5),
    ("0.5 rad", 0.5),
    ("45deg", math.pi / 4),
    ("30 deg", math.pi / 6),
])
def test_parse_angle(text, expected):
    assert parse_angle(text) == pytest.approx(expected, abs=1e-12)


def test_parse_angle_list():
    values = parse_angle_list("0, 90deg, 1.5rad")
    assert values == pytest.approx([0.0, math.pi / 2, 1.5])
    assert parse_angle_list("") == []


# ---------------------------------------------------------------------------
# analytic and surface scenarios
# ---------------------------------------------------------------------------

def test_analytic_run(tmp_path):
    out = tmp_path / "run"
    assert main(["analytic", "--gamma-points", "25", "--out", str(out)]) == 0
    header, rows = read_csv_rows(out / "analytic.csv")
    assert header == ["gamma_rad", "s_no_adjust", "s_polar_max", "s_tsirelson"]
    assert len(rows) == 25
    first = [float(v) for v in rows[0]]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(TSIRELSON, abs=1e-9)
    assert first[2] == pytest.approx(TSIRELSON, abs=1e-9)
    manifest = parse_kv((out / "manifest.txt").read_text(encoding="utf-8"))
    assert manifest["kind"] == "analytic"
    assert manifest["seed"] == 0


def test_surface_run(tmp_path):
    out = tmp_path / "surface"
    code = main(["surface", "--gamma", "90 deg", "--step", "0.05",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv_rows(out / "surface.csv")
    assert header == ["beta1_rad", "beta1p_rad", "s"]
    s_max_cell = max(float(r[2]) for r in rows)
    assert s_max_cell == pytest.approx(2.0, abs=0.01)
    manifest = parse_kv((out / "manifest.txt").read_text(encoding="utf-8"))
    assert manifest["s_max"] == pytest.approx(2.0, abs=1e-6)
    # the manifest reports the closed-form maximum and its angles as given
    gamma = parse_angle("90 deg")
    beta1, beta1_p, _ = polar_optimal_angles(gamma)
    assert (manifest["beta1_max"], manifest["beta1p_max"], manifest["s_max"]) \
        == (beta1, beta1_p, s_polar_max(gamma))


@pytest.mark.parametrize("gamma", ["90 deg", "1.1"])
def test_surface_csv_matches_per_point_loop(tmp_path, gamma):
    out = tmp_path / "surface"
    assert main(["surface", "--gamma", gamma, "--out", str(out)]) == 0
    g = parse_angle(gamma)
    grid = np.arange(-math.pi, math.pi, math.pi / 90.0)
    lines = ["beta1_rad,beta1p_rad,s"]
    for b1 in grid:
        for b1p in grid:
            s = s_polar(math.pi / 2.0, b1, b1p, g)
            lines.append(f"{float(b1)!r},{float(b1p)!r},{s!r}")
    want = ("\n".join(lines) + "\n").encode("utf-8")
    assert (out / "surface.csv").read_bytes() == want


# ---------------------------------------------------------------------------
# simulation scenarios
# ---------------------------------------------------------------------------

def test_simulate_writes_interferogram(tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--delta", "90deg", "--gamma", "0.5",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    gram, meta = read_interferogram(out / "interferogram.csv")
    assert gram.flipper_on is True
    assert gram.gamma == pytest.approx(0.5)
    assert meta["seed"] == 3
    assert gram.counts.size == 32


def test_simulate_flipper_off(tmp_path):
    out = tmp_path / "ref"
    code = main(["simulate", "--delta", "90deg", "--flipper-off",
                 "--out", str(out)])
    assert code == 0
    gram, _ = read_interferogram(out / "interferogram.csv")
    assert gram.flipper_on is False


def test_beam_block_run(tmp_path):
    out = tmp_path / "block"
    code = main(["beam-block", "--blocked-path", "II", "--gamma", "0",
                 "--out", str(out)])
    assert code == 0
    scan, meta = read_beam_block(out / "beam_block.csv")
    assert scan.blocked_path == "II"
    assert meta["kind"] == "beam-block"


def test_runs_are_deterministic(tmp_path):
    args = ["simulate", "--delta", "45deg", "--gamma", "1.0", "--seed", "9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("interferogram.csv", "interferogram.meta", "manifest.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# scan scenarios and manifest reruns
# ---------------------------------------------------------------------------

def test_scan_azimuthal_exact_and_manifest_rerun(tmp_path):
    out = tmp_path / "scan"
    code = main(["scan-azimuthal", "--gamma-list", "0,30deg", "--exact",
                 "--out", str(out)])
    assert code == 0
    results = read_scan_results(out / "scan_azimuthal.csv")
    adjusted = [r for r in results if r.method == "azimuthal-adjusted"]
    assert all(abs(r.s - TSIRELSON) < 1e-6 for r in adjusted)

    # the manifest alone re-runs the scenario byte for byte
    rerun = tmp_path / "rerun"
    code = main(["scan-azimuthal", "--config", str(out / "manifest.txt"),
                 "--out", str(rerun)])
    assert code == 0
    assert (rerun / "scan_azimuthal.csv").read_bytes() == \
        (out / "scan_azimuthal.csv").read_bytes()
    assert (rerun / "manifest.txt").read_bytes() == \
        (out / "manifest.txt").read_bytes()


def test_scan_polar_exact(tmp_path):
    out = tmp_path / "polar"
    code = main(["scan-polar", "--gamma-list", "0,45deg", "--exact",
                 "--out", str(out)])
    assert code == 0
    results = read_scan_results(out / "scan_polar.csv")
    assert len(results) == 2
    for r in results:
        assert r.s == pytest.approx(s_polar_max(r.gamma), abs=1e-6)


def test_config_file_merging(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("visibility = 0.5\nseed = 4\ngamma = 30 deg\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    code = main(["simulate", "--delta", "90deg", "--config", str(config),
                 "--out", str(out)])
    assert code == 0
    manifest = parse_kv((out / "manifest.txt").read_text(encoding="utf-8"))
    assert manifest["visibility"] == 0.5
    assert manifest["seed"] == 4
    assert manifest["gamma"] == pytest.approx(math.pi / 6)


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_empty_gamma_list_fails(tmp_path, capsys):
    code = main(["scan-azimuthal", "--gamma-list", "", "--exact",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "gamma_list" in capsys.readouterr().err


def test_invalid_visibility_names_field(tmp_path, capsys):
    code = main(["simulate", "--delta", "0", "--gamma", "0",
                 "--visibility", "1.5", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "visibility" in capsys.readouterr().err


def test_missing_required_field_names_it(tmp_path, capsys):
    code = main(["surface", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_missing_delta_names_it(tmp_path, capsys):
    code = main(["simulate", "--gamma", "0", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["simulate", "--exact", "--delta", "1", "--gamma", "0.5",
      "--chi-points", "0"], "chi_points"),
    (["simulate", "--exact", "--delta", "1", "--gamma", "0.5",
      "--chi-periods", "0"], "chi_periods"),
    (["scan-polar", "--exact", "--gamma-list", "0", "--chi-points", "0"],
     "chi_points"),
    (["scan-azimuthal", "--exact", "--gamma-list", "0", "--chi-periods", "0"],
     "chi_periods"),
    (["beam-block", "--exact", "--blocked-path", "I", "--delta-points", "0"],
     "delta_points"),
    (["surface", "--gamma", "nan"], "gamma"),
    (["surface", "--gamma", "1", "--step", "inf"], "step"),
    (["analytic", "--gamma-list", "0,nan"], "gamma_list"),
    (["simulate", "--delta", "nan", "--gamma", "0", "--exact"], "delta"),
    (["simulate", "--delta", "1", "--gamma", "inf", "--exact"], "gamma"),
    (["beam-block", "--blocked-path", "I", "--gamma", "inf", "--exact"],
     "gamma"),
    (["scan-polar", "--exact", "--gamma-list", "0", "--delta-step", "nan"],
     "delta_step"),
    (["surface", "--gamma", "abc"], "gamma"),
    (["scan-polar", "--exact", "--gamma-list", "0,abc"], "gamma_list"),
    (["scan-polar", "--exact", "--gamma-list", "0", "--delta-step", "xyz"],
     "delta_step"),
    (["simulate", "--exact", "--delta", "1", "--gamma", "0", "--theta", "abc"],
     "theta"),
    (["simulate", "--exact", "--delta", "1", "--gamma", "0",
      "--dyn-offset", "1foo"], "dyn_offset"),
    (["beam-block", "--blocked-path", "I", "--gamma", "", "--exact"], "gamma"),
])
def test_zero_sizes_are_rejected_not_defaulted(tmp_path, capsys, argv, field):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) != 0
    assert field in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


def test_normalize_contrast_failure_names_field_and_delta(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["scan-polar", "--gamma-list", "0", "--normalize-contrast",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "normalize_contrast" in err and "delta = 3.14159" in err
    assert not (out / "manifest.txt").exists()


def test_zero_step_from_config_file_is_rejected(tmp_path, capsys):
    # config-file values arrive parsed as numbers, so a zero step must not
    # fall back to the default either
    config = tmp_path / "run.cfg"
    config.write_text("delta_step = 0\n", encoding="utf-8")
    code = main(["scan-polar", "--exact", "--gamma-list", "0",
                 "--config", str(config), "--out", str(tmp_path / "x")])
    assert code != 0
    assert "delta_step" in capsys.readouterr().err


_SIMULATE = ["simulate", "--exact", "--delta", "1", "--gamma", "0.5"]
_AZIMUTHAL = ["scan-azimuthal", "--exact", "--gamma-list", "0"]


@pytest.mark.parametrize("line,argv", [
    # unparsable values
    ("measure_time = abc", _SIMULATE),
    ("chi_points = abc", _SIMULATE),
    ("gamma_points = x", ["analytic"]),
    # integer fields take integers only
    ("seed = 1.5", _SIMULATE),
    ("chi_points = 16.9", _SIMULATE),
    ("chi_periods = 2.5", _AZIMUTHAL),
    ("delta_points = 3.5", ["beam-block", "--exact", "--blocked-path", "I"]),
    ("gamma_points = 4.5", ["analytic"]),
    # flags take true or false only
    ("exact = False", ["scan-azimuthal", "--gamma-list", "0"]),
    ("normalize_contrast = 1", _AZIMUTHAL),
    ("flipper_on = no", ["simulate", "--exact", "--delta", "1", "--gamma", "0"]),
    # numbers and angles are not booleans
    ("visibility = true", _SIMULATE),
    ("max_rate = false", _SIMULATE),
    ("theta = true", _SIMULATE),
    ("gamma_list = true", ["analytic"]),
])
def test_config_file_values_are_not_coerced(tmp_path, capsys, line, argv):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "x"
    code = main(argv + ["--config", str(config), "--out", str(out)])
    assert code == 2
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


def test_integral_float_counts_are_accepted(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("chi_points = 16.0\nseed = 3.0\n", encoding="utf-8")
    out = tmp_path / "x"
    assert main(_SIMULATE + ["--config", str(config), "--out", str(out)]) == 0
    manifest = parse_kv((out / "manifest.txt").read_text(encoding="utf-8"))
    assert (manifest["chi_points"], manifest["seed"]) == (16, 3)


# ---------------------------------------------------------------------------
# config keys are checked against the subcommand
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,argv,key", [
    # unknown keys (misspelled fields)
    ("visibilty = 0.5\n", _AZIMUTHAL, "visibilty"),
    ("mesure_time = 1\n", _AZIMUTHAL, "mesure_time"),
    ("out = elsewhere\n", _SIMULATE, "out"),
    # keys of another subcommand
    ("delta_step = 0.3\n", _AZIMUTHAL, "delta_step"),
    ("flipper_on = true\n", ["beam-block", "--exact", "--blocked-path", "I"],
     "flipper_on"),
    ("s_max = 2.0\n", _SIMULATE, "s_max"),
    ("gamma = 1\n", ["analytic"], "gamma"),
    # a kind other than the subcommand's
    ("kind = polar-scan\n", _AZIMUTHAL, "kind"),
    ("kind = simulate\n", _SIMULATE, "kind"),
    # the scans take gamma_list only
    ("gamma_points = 5\n", ["scan-polar", "--exact"], "gamma_points"),
    ("gamma_points = 5\n", ["scan-azimuthal", "--exact"], "gamma_points"),
    # a key given twice
    ("visibility = 0.5\nvisibility = 0.9\n", _SIMULATE, "visibility"),
    # both gamma sources in one file
    ("gamma_points = 5\ngamma_list = 0\n", ["analytic"], "gamma_points"),
])
def test_config_key_rules_exit_2_by_name(tmp_path, capsys, text, argv, key):
    config = tmp_path / "run.cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "x"
    code = main(argv + ["--config", str(config), "--out", str(out)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (out / "manifest.txt").exists()


def test_readme_manifests_fail_on_every_other_subcommand(tmp_path, capsys,
                                                         monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    manifests = []
    for line in re.findall(r"^spinpath .*$", readme, re.MULTILINE):
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        manifests.append((argv[0], Path(argv[argv.index("--out") + 1])
                          / "manifest.txt"))
    assert {command for command, _ in manifests} == set(_OPTIONS)
    for command, manifest in manifests:
        for other in set(_OPTIONS) - {command}:
            out = tmp_path / "other"
            assert main([other, "--config", str(manifest),
                         "--out", str(out)]) == 2, (command, other)
            assert "kind" in capsys.readouterr().err
            assert not (out / "manifest.txt").exists()


_SIM_OPTIONS = {"--seed", "--out", "--config", "--max-rate", "--measure-time",
                "--visibility", "--theta", "--dyn-offset"}
_OPTIONS = {
    "analytic": {"--seed", "--out", "--config", "--gamma-points",
                 "--gamma-list"},
    "surface": {"--seed", "--out", "--config", "--gamma", "--step"},
    "simulate": _SIM_OPTIONS | {"--delta", "--gamma", "--chi-points",
                                "--chi-periods", "--flipper-off", "--exact"},
    "beam-block": _SIM_OPTIONS | {"--blocked-path", "--gamma",
                                  "--delta-points", "--exact"},
    "scan-polar": _SIM_OPTIONS | {"--gamma-list", "--delta-step",
                                  "--chi-points", "--chi-periods", "--exact",
                                  "--normalize-contrast"},
    "scan-azimuthal": _SIM_OPTIONS | {"--gamma-list", "--chi-points",
                                      "--chi-periods", "--exact",
                                      "--normalize-contrast"},
}


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_subcommand_options_are_pinned(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == \
        _OPTIONS[command] | {"--help"}
    # every option's help line comes from its field row
    for name in cli._COMMANDS[command].fields:
        assert cli._FIELDS[name].help in " ".join(text.split())


# ---------------------------------------------------------------------------
# the two gamma sources are one choice
# ---------------------------------------------------------------------------

def test_gamma_flag_replaces_both_config_gamma_sources(tmp_path):
    first = tmp_path / "first"
    assert main(["analytic", "--gamma-points", "25", "--out", str(first)]) == 0
    manifest = str(first / "manifest.txt")
    out = tmp_path / "points"
    assert main(["analytic", "--config", manifest, "--gamma-points", "5",
                 "--out", str(out)]) == 0
    _, rows = read_csv_rows(out / "analytic.csv")
    assert [float(r[0]) for r in rows] == \
        list(np.linspace(0.0, 2 * math.pi, 5, endpoint=False))
    config = tmp_path / "points.cfg"
    config.write_text("gamma_points = 5\n", encoding="utf-8")
    out = tmp_path / "list"
    assert main(["analytic", "--config", str(config), "--gamma-list", "0,1",
                 "--out", str(out)]) == 0
    _, rows = read_csv_rows(out / "analytic.csv")
    assert [float(r[0]) for r in rows] == [0.0, 1.0]


def test_both_gamma_flags_are_rejected(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["analytic", "--gamma-points", "5", "--gamma-list", "0,1",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "gamma_points" in err and "gamma_list" in err
    assert not (out / "manifest.txt").exists()
