import math

import numpy as np
import pytest

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
