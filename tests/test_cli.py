import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from micromacro import cli, fock
from micromacro.config import ConfigError, RunConfig, parse_config_text
from micromacro.noise import ExperimentParams
from micromacro.spdc import DetailedParams
from micromacro.tables import ResultTable, format_cell

FAST_CURVES = """
run.seed = 3
curves.alpha_sq_min = 0
curves.alpha_sq_max = 90     # trailing comment
curves.points = 4
curves.band_samples = 24
"""


def read_table(path):
    """(meta, columns, rows) back from a table file; cells parsed as float
    when possible."""
    meta, columns, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    k, _, v = body.partition(":")
                    meta[k.strip()] = v.strip()
                continue
            if not line:
                continue
            if columns is None:
                columns = line.split(",")
                continue
            cells = []
            for cell in line.split(","):
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell)
            rows.append(tuple(cells))
    return meta, columns or [], rows


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(args):
    return cli.main([str(a) for a in args])


def test_config_parsing_basics():
    values = parse_config_text(FAST_CURVES)
    assert values["curves.points"] == 4
    assert values["curves.alpha_sq_max"] == 90.0
    assert values["run.seed"] == 3
    # untouched keys keep their defaults
    assert values["tomo.werner_w"] == 0.94


def test_config_rejects_a_repeated_key():
    # the second line is the error, and it names the first
    with pytest.raises(ConfigError, match="line 3: run.seed is already set on line 1"):
        parse_config_text("run.seed = 1\ncurves.points = 4\nrun.seed = 9\n")
    with pytest.raises(ConfigError, match="line 2: detailed.mc_samples is already set on line 1"):
        parse_config_text("detailed.mc_samples = 1\ndetailed.mc_samples = 4\n")


@pytest.mark.parametrize("key, top", [
    ("curves.points", 10**6), ("size.points", 10**6), ("hom.points", 10**6),
    ("hom.window_points", 10**6), ("curves.band_samples", 10**7),
    ("detailed.mc_samples", 10**9), ("tomo.shots", (2**63 - 1) // 36),
])
def test_count_keys_have_an_upper_bound(key, top):
    # parsed only: no grid is built and no oracle runs at these counts
    assert parse_config_text(f"{key} = {top}\n")[key] == top
    for value in (v for v in (top + 1, 10**15, 10**21, 2**63 - 1, 2**63) if v > top):
        with pytest.raises(ConfigError, match=f"line 1: bad value '{value}' for {key}: "
                                              "must be in"):
            parse_config_text(f"{key} = {value}\n")


def test_config_rejects_bad_input():
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config_text("curves.alpha_max = 3")
    with pytest.raises(ConfigError, match="line 2.*bad value"):
        parse_config_text("run.seed = 1\ncurves.points = three\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words")
    # the double-click factor has one reading; the old selector is no key
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config_text("detailed.g_reading = per_mode")


@pytest.mark.parametrize("command, line", [
    ("curves", "curves.alpha_sq_max = nan"),
    ("curves", "curves.alpha_sq_min = -inf"),
    ("hom", "hom.mu_min = nan"),
    ("curves", "curves.points = 0"),
    ("size", "size.points = 0"),
    ("hom", "hom.points = 0"),
    ("hom", "hom.window_points = 0"),
    ("tomo", "tomo.shots = 0"),
    ("curves", "curves.band_samples = -5"),
    ("curves", "curves.band_samples = 1"),
    ("detailed", "detailed.mc_samples = 1"),
    ("detailed", "detailed.mc_samples = -1"),
    ("tomo", "run.seed = -1"),
    ("tomo", "--seed -1"),
    ("curves", "--seed -7"),
    ("size", "size.beta_sq_min = 70"),
    ("size", "size.beta_sq_min = -4"),
    ("size", "size.beta_sq_star = -2"),
    ("size", "size.beta_sq_star = 1e300"),
    ("size", "size.beta_sq_max = 2e6"),
    ("hom", "hom.mu_min = -0.5"),
    ("hom", "hom.mu_max = 0.001"),
    ("hom", "hom.mu_star = -1"),
    ("hom", "hom.mu_star = 1e300"),
    ("hom", "hom.mu_max = 1.5"),
    ("hom", "hom.p_pair = 0"),
    ("hom", "hom.p_pair = -0.1"),
    ("hom", "hom.p_pair = 1"),
    ("hom", "hom.window_min = 0"),
    ("hom", "hom.window_min = 1e-4"),
    ("hom", "hom.window_min = 1e-300"),
    ("hom", "hom.window_max = 1e-200"),
    ("hom", "hom.window_max = -1"),
    ("hom", "hom.window_min = 6"),
    ("curves", "curves.alpha_sq_min = 200"),
    ("curves", "curves.alpha_sq_max = -5"),
    ("curves", "noise.sd_eta_h = -0.02"),
    ("curves", "noise.sd_eta = -0.002"),
    ("curves", "noise.sd_vis = -0.0002"),
    ("curves", "noise.sd_eta = 5.648257270759618e+307"),
    ("curves", "noise.sd_eta_h = 0.6"),
    # ranges declared on the parameter dataclasses, checked at parse time
    ("size", "noise.eta_abs = 0"),
    ("hom", "hom.csp_fwhm = -1"),
    ("detailed", "detailed.g = -1"),
    ("hom", "hom.xi = -1"),
    ("tomo", "tomo.werner_w = 1.5"),
    ("detailed", "detailed.g = 50"),
    ("detailed", "detailed.gamma = -3"),
    ("detailed", "detailed.gamma = 1e300"),
    ("detailed", "detailed.sigma_phi = 1e300"),
    ("hom", "hom.p_dc = 1"),
    ("curves", "noise.kappa = 0"),
])
def test_out_of_range_input_is_rejected(tmp_path, capsys, command, line):
    out = tmp_path / "out"
    if line.startswith("--"):
        # a bad flag is a usage error: argparse exits with status 2
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--out", str(out), *line.split()])
        assert exc.value.code == 2
        assert f"argument {line.split()[0]}: must be >= " in capsys.readouterr().err
    else:
        cfg = write_config(tmp_path, f"# range check\n{line}\n")
        assert run([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"line 2: bad value '{line.split()[-1]}' for {line.split()[0]}: " in err
    assert not out.exists()


def test_every_command_checks_every_key(tmp_path, capsys):
    # curves builds no DetailedParams, yet a bad detailed.* key still fails
    # before any output is written
    cfg = write_config(tmp_path, "detailed.g = -1\n")
    out = tmp_path / "out"
    assert run(["curves", "--config", cfg, "--out", out]) == 1
    assert "line 1: bad value '-1' for detailed.g: must be in [0, 5]" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_takes_an_int(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tomo", "--out", str(tmp_path / "out"), "--seed", "x"])
    assert exc.value.code == 2
    assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("command, line, flags, message", [
    ("size", "size.target_p_g = 0.99", [], "target 0.99 outside"),
    ("curves", "curves.points = 1", ["--svg"],
     "witness_curves.svg: need at least two x points"),
    ("size", "size.points = 1", ["--svg"], "size_curve.svg: need at least two x points"),
    ("hom", "hom.points = 1", ["--svg"], "hom_visibility.svg: need at least two x points"),
])
def test_failed_run_writes_no_table(tmp_path, capsys, command, line, flags, message):
    # each run fails after a table was built: the size target on the second
    # table, a one-point grid on the chart after both tables
    cfg = write_config(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out, *flags]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_removed_overlap_ratio_key_is_unknown(tmp_path, capsys):
    # noise.r_overlap fed no computation and is no longer a key
    cfg = write_config(tmp_path, "noise.r_overlap = 0.87\n")
    out = tmp_path / "out"
    assert run(["curves", "--config", cfg, "--out", out]) == 1
    assert "line 1: unknown key 'noise.r_overlap'" in capsys.readouterr().err
    assert not out.exists()


def test_validate_takes_no_run_options(capsys):
    # validate reads no config and writes no file, so it has no run options
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--svg"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --svg" in capsys.readouterr().err


def test_removed_jobs_flag_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["size", "--out", str(out), "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not out.exists()


def test_curves_run_at_a_vanishing_size(tmp_path):
    # the noise fraction keeps its small-size limit (0.0156) at alpha_sq = 1e-20
    cfg = write_config(tmp_path, "curves.alpha_sq_min = 1e-20\ncurves.points = 4\n"
                                 "curves.band_samples = 24\n")
    assert run(["curves", "--config", cfg, "--out", tmp_path]) == 0
    _, cols, rows = read_table(tmp_path / "witness_curves.csv")
    first = dict(zip(cols, rows[0]))
    assert first["alpha_sq"] == 1e-20
    assert abs(first["chsh_s"] - 2.0 * math.sqrt(2.0) * 0.94 * (1.0 - 0.015623054352)) < 1e-9
    assert all(math.isfinite(v) for row in rows for v in row)


@pytest.mark.parametrize("sd_eta", [0.012, 0.05])
def test_curves_bands_take_draws_clipped_to_no_retrieval(tmp_path, sd_eta):
    # some band draws clip to eta = 0 (at 0.012 on seed 1 here, at 0.05 on
    # every seed); they take the eta -> 0 limit of the noise fraction
    cfg = write_config(tmp_path, f"noise.sd_eta = {sd_eta}\n")
    for seed in range(4):
        out = tmp_path / f"seed{seed}"
        assert run(["curves", "--config", cfg, "--out", out, "--seed", seed]) == 0
        _, cols, rows = read_table(out / "witness_curves.csv")
        assert all(math.isfinite(v) for row in rows for v in row)
        assert all(dict(zip(cols, row))["chsh_s_band"] > 0.0 for row in rows[1:])


def test_overflowing_photon_number_is_an_error(tmp_path, capsys):
    # mu = kappa * alpha_sq overflows at the default grid: exit 1 with a
    # message, no numpy warning and no table
    cfg = write_config(tmp_path, "noise.kappa = 1e308\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["curves", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "error: mu = kappa * alpha_sq = 1e+308 * " in err and "not finite" in err
    assert not out.exists()



def test_overflowing_leak_exponent_is_an_error(tmp_path, capsys):
    # mu = 1e308 is finite but 2 mu is not, and a band draw clipped to eta = 0
    # made the leak exponent inf * 0: a NaN warning instead of a message
    cfg = write_config(tmp_path, "curves.alpha_sq_max = 1e308\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["curves", "--config", cfg, "--out", out]) == 1
    assert "overflows: 2 mu is not finite" in capsys.readouterr().err
    assert not out.exists()

def test_grid_bounds_must_be_ordered():
    # the later of the two lines is blamed, and both keys are named
    message = (r"line 3: bad value '2' for size\.beta_sq_max: "
               r"size\.beta_sq_min \(5\) must be below size\.beta_sq_max \(2\)")
    with pytest.raises(ConfigError, match=message):
        parse_config_text("# grid\nsize.beta_sq_min = 5\nsize.beta_sq_max = 2\n")
    values = parse_config_text("hom.window_min = 0.1\nhom.window_max = 0.2\n")
    assert (values["hom.window_min"], values["hom.window_max"]) == (0.1, 0.2)


@pytest.mark.parametrize("command", ["curves", "size", "hom", "detailed", "tomo"])
def test_every_command_rejects_retrieval_above_absorption(tmp_path, capsys, command):
    # noise.eta_abs is 0.55 by default; hom, detailed and tomo read no noise
    # key, yet fail before writing anything
    cfg = write_config(tmp_path, "# memory\nnoise.eta = 0.6\n")
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 1
    assert ("line 2: bad value '0.6' for noise.eta: noise.eta (0.6) must be at "
            "most noise.eta_abs (0.55)") in capsys.readouterr().err
    assert not out.exists()


def test_curves_run_at_retrieval_equal_to_absorption(tmp_path):
    cfg = write_config(tmp_path, FAST_CURVES + "noise.eta = 0.55\n")
    assert run(["curves", "--config", cfg, "--out", tmp_path]) == 0
    _, _, rows = read_table(tmp_path / "witness_curves.csv")
    assert len(rows) == 4 and all(math.isfinite(v) for row in rows for v in row)


def test_band_draw_clipped_to_no_click_is_an_error(tmp_path, capsys):
    # at these spreads some band draw clips eta_h to 0 and vis to 1 together,
    # so it has neither a signal nor a noise click
    cfg = write_config(tmp_path, "noise.sd_eta_h = 0.5\nnoise.sd_vis = 0.5\n")
    out = tmp_path / "out"
    assert run(["curves", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "error: p_s + p_n = 0: noise fraction undefined: " in err
    assert "if band draws clip there, noise.sd_eta_h or noise.sd_vis" in err
    assert not out.exists()


def test_config_hash_ignores_formatting():
    a = RunConfig.from_text("run.seed = 3\ncurves.points = 4\n")
    b = RunConfig.from_text("# comment\ncurves.points=4\n\nrun.seed   =  3")
    assert a.sha256() == b.sha256()
    c = RunConfig.from_text("run.seed = 4\ncurves.points = 4\n")
    assert a.sha256() != c.sha256()
    assert RunConfig.defaults().sha256() == RunConfig.from_text("").sha256()


def test_config_param_builders_match_defaults():
    cfg = RunConfig.defaults()
    assert cfg.noise_params() == ExperimentParams()
    assert cfg.detailed_params() == DetailedParams()
    with pytest.raises(KeyError):
        cfg["nope.nope"]


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, FAST_CURVES)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    assert run(["curves", "--config", cfg, "--out", out1]) == 0
    assert run(["curves", "--config", cfg, "--out", out2]) == 0
    for name in ("witness_curves.csv", "reference_points.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_exit_codes(tmp_path):
    assert run(["curves", "--config", tmp_path / "missing.cfg"]) == 1
    bad = write_config(tmp_path, "curves.points = banana\n")
    assert run(["curves", "--config", bad, "--out", tmp_path]) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_validate_command(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_size_command_summary(tmp_path):
    cfg = write_config(tmp_path, "size.points = 4\n")
    assert run(["size", "--config", cfg, "--out", tmp_path]) == 0
    _, _, rows = read_table(tmp_path / "size_curve.csv")
    assert len(rows) == 4
    _, _, srows = read_table(tmp_path / "size_summary.csv")
    summary = dict(srows)
    assert summary["n_eff"] == 13
    assert abs(summary["p_g_ideal"] - 0.898236) < 1e-4
    assert abs(summary["sigma_max"] - 14.9079) < 1e-3
    assert abs(summary["p_g_mixture_sigma0"] - 0.541616) < 1e-4


@pytest.mark.parametrize("eta_abs", [0.55, 0.1, 0.7])
def test_size_runs_at_the_largest_stored_size(tmp_path, eta_abs):
    # at 0.1 and 0.7, sqrt(eta_abs) sqrt(1e6 / eta_abs) rounds one ulp above 1000
    cfg = write_config(tmp_path, f"size.beta_sq_star = 1e6\nsize.points = 2\n"
                                 f"noise.eta_abs = {eta_abs}\n")
    assert run(["size", "--config", cfg, "--out", tmp_path]) == 0
    _, _, srows = read_table(tmp_path / "size_summary.csv")
    summary = dict(srows)
    assert 0.5 < summary["p_g_mixture_sigma0"] < summary["p_g_ideal"] < 1.0


def test_hom_command_tables(tmp_path):
    cfg = write_config(tmp_path, "hom.points = 4\nhom.window_points = 4\n")
    assert run(["hom", "--config", cfg, "--out", tmp_path]) == 0
    meta, cols, rows = read_table(tmp_path / "hom_visibility.csv")
    assert cols == ["mu", "visibility"] and len(rows) == 4
    assert all(0.0 < v < 1.0 for _, v in rows)
    meta, cols, orows = read_table(tmp_path / "hom_overlap.csv")
    assert len(orows) == 4
    assert abs(float(meta["expected_visibility"]) - 0.841390) < 1e-4
    # wider windows always lose overlap
    xis = [r[1] for r in orows]
    assert xis == sorted(xis, reverse=True)


def test_hom_runs_at_a_subnormal_coherence_time(tmp_path):
    # the overlap takes its limit 0 instead of dividing 0 by 0
    cfg = write_config(tmp_path, "hom.hsp_tau_c = 5e-324\nhom.points = 2\n"
                                 "hom.window_points = 4\n")
    assert run(["hom", "--config", cfg, "--out", tmp_path]) == 0
    _, cols, orows = read_table(tmp_path / "hom_overlap.csv")
    assert [(r[cols.index("xi")], r[cols.index("v_m")]) for r in orows] == [(0.0, 0.0)] * 4


@pytest.mark.parametrize("command, text, keys", [
    ("detailed", "detailed.eta_d = 0\n", ["detailed.eta_d"]),
    ("detailed", "detailed.t2 = 0\n", ["detailed.t2"]),
    ("detailed", "detailed.g = 0\ndetailed.p_dc = 0\n", ["detailed.g", "detailed.p_dc"]),
    ("detailed", "detailed.g = 0\ndetailed.gamma = 0\n", ["detailed.g", "detailed.gamma"]),
    ("hom", "hom.eta_d = 0\nhom.points = 2\n", ["hom.eta_d", "hom.p_dc"])])
def test_a_run_where_nothing_can_click_names_the_keys(tmp_path, capsys, command, text, keys):
    cfg = write_config(tmp_path, text)
    assert run([command, "--config", cfg, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(key in err for key in keys), err
    assert not list(tmp_path.glob("*.csv"))


def test_detailed_command_with_oracle(tmp_path):
    cfg = write_config(tmp_path, "detailed.mc_samples = 400\n")
    assert run(["detailed", "--config", cfg, "--out", tmp_path]) == 0
    _, _, grid = read_table(tmp_path / "detailed_grid.csv")
    assert len(grid) == 16
    _, _, srows = read_table(tmp_path / "detailed_summary.csv")
    summary = dict(srows)
    assert 2.0 < summary["chsh_s"] < 2.83
    _, cols, orows = read_table(tmp_path / "detailed_oracle.csv")
    assert len(orows) == 64  # 16 grid points x 4 outcomes
    dev = [row[cols.index("deviation_se")] for row in orows]
    assert max(dev) < 8.0  # loose screen at 400 samples


def test_detailed_oracle_writes_zero_deviation_where_the_se_is_zero(tmp_path):
    # with no dark counts and no reflection, (0, 0, pp) never clicks: its two
    # samples give a zero standard error, and the deviation is written as 0,
    # neither NaN nor a divide-by-zero warning
    cfg = write_config(tmp_path, "detailed.r = 0\ndetailed.p_dc = 0\n"
                                 "detailed.mc_samples = 2\n")
    assert run(["detailed", "--config", cfg, "--out", tmp_path]) == 0
    _, cols, orows = read_table(tmp_path / "detailed_oracle.csv")
    assert not any(isinstance(c, float) and math.isnan(c) for row in orows for c in row)
    se, dev = cols.index("mc_se"), cols.index("deviation_se")
    assert [row[:3] for row in orows if row[se] == 0.0] == [(0.0, 0.0, "pp")]
    assert orows[0][:3] == (0.0, 0.0, "pp") and orows[0][se] == orows[0][dev] == 0.0


def test_tomo_command(tmp_path):
    cfg = write_config(tmp_path, "tomo.shots = 2000\n")
    assert run(["tomo", "--config", cfg, "--out", tmp_path]) == 0
    _, _, srows = read_table(tmp_path / "tomo_summary.csv")
    summary = dict(srows)
    assert summary["fidelity"] > 0.99
    assert summary["concurrence"] > 0.8
    _, _, mrows = read_table(tmp_path / "tomo_matrix.csv")
    assert len(mrows) == 16
    trace = sum(re for i, j, re, im in mrows if i == j)
    assert abs(trace - 1.0) < 1e-9


def test_svg_output(tmp_path):
    cfg = write_config(tmp_path, "size.points = 3\n")
    assert run(["size", "--config", cfg, "--out", tmp_path, "--svg"]) == 0
    text = (tmp_path / "size_curve.svg").read_text()
    assert "<svg" in text and "</svg>" in text


def test_table_round_trip(tmp_path):
    table = ResultTable("demo", {"x": np.array([0.1, 2.0 / 3.0]), "label": ["a", "b"]},
                        meta={"seed": "5"})
    path = tmp_path / "demo.csv"
    path.write_text(table.to_csv_text(), encoding="utf-8")
    meta, cols, rows = read_table(path)
    assert meta["table"] == "demo" and meta["seed"] == "5"
    assert cols == ["x", "label"]
    assert rows[0] == (0.1, "a")
    assert abs(rows[1][0] - 2.0 / 3.0) < 1e-12


def test_format_cell():
    assert format_cell(0.1) == "0.1"
    assert format_cell(1.0 / 3.0) == "0.333333333333"
    assert format_cell(True) == "True"
    assert format_cell(7) == "7"


def test_format_cell_writes_numpy_scalars_like_python_ones():
    # table columns pass numpy arrays as they come, so their cells are numpy
    # scalars: an int64 must not print as numpy 2's repr ``np.int64(7)``
    assert format_cell(np.int64(7)) == "7"
    assert format_cell(np.float64(1.0 / 3.0)) == "0.333333333333"


def test_table_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError, match="demo: columns of unequal length"):
        ResultTable("demo", {"x": [1.0, 2.0], "y": np.array([1.0])})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_table_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError, match="demo: non-finite y"):
        ResultTable("demo", {"x": [1.0, 2.0], "y": np.array([0.5, bad])})
    with pytest.raises(ValueError, match="demo: non-finite y"):
        ResultTable("demo", {"x": [1.0], "y": [bad]})


def run_fresh_python(script):
    """Standard output of ``script`` run in a fresh interpreter on this
    package's source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


#: the package modules that each subcommand adds to what every one loads
COMMAND_MODULES = {
    "curves": {"noise"}, "size": {"fock", "macro"}, "hom": {"fock", "hom"},
    "detailed": {"polarization", "spdc"}, "tomo": {"polarization", "tomography"},
}


def test_no_subcommand_loads_scipy(tmp_path):
    # the package is numpy-only: no subcommand loads scipy, and none starts
    # worker processes, so no process-pool module loads either.  Each one,
    # run in its own fresh interpreter, loads only the package modules it
    # calls, and the run configuration alone loads not even numpy
    report = (
        "import sys\n"
        "def loaded(*roots):\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in roots)\n"
        "print('scipy', loaded('scipy'))\n"
        "print('pool', loaded('multiprocessing', 'concurrent'))\n"
        "print('package', *(m.split('.')[1] for m in loaded('micromacro') if '.' in m))\n"
    )
    for cmd in (*COMMAND_MODULES, "validate"):
        argv = [cmd] if cmd == "validate" else [cmd, "--out", str(tmp_path)]
        argv += ["--svg"] if cmd in ("curves", "size", "hom", "detailed") else []
        script = f"from micromacro import cli\ncode = cli.main({argv!r})\n{report}sys.exit(code)\n"
        lines = [line.split() for line in run_fresh_python(script).splitlines()
                 if line.startswith(("scipy ", "pool ", "package "))]
        assert lines[:2] == [["scipy", "[]"], ["pool", "[]"]], (cmd, lines)
        if cmd != "validate":
            assert set(lines[2][1:]) == {"cli", "config", "ranges", "tables", "svgplot",
                                         *COMMAND_MODULES[cmd]}, cmd
    config_only = "import sys, micromacro.config\nprint('numpy' in sys.modules)"
    assert run_fresh_python(config_only).split() == ["False"]


def test_cli_import_builds_no_log_factorial_table():
    # the table is built on first use: a fresh process that imports the CLI,
    # as every cold invocation does, has computed no log(n!) yet
    script = "import micromacro.cli, micromacro.fock as f; print(f._log_factorial_table.size)"
    assert run_fresh_python(script).split() == ["0"]


def test_hom_and_validate_decompose_no_dense_fock_matrix(tmp_path, monkeypatch):
    # unitaries are exponentiated through eig/eigh, and the splitter works one
    # photon-number block at a time: the largest matrix hom or validate may
    # decompose is validate's 13 x 13 block at n_max 12
    sizes = []

    def recording(decompose):
        def wrapper(m, *args, **kwargs):
            sizes.append(np.shape(m)[-1])
            return decompose(m, *args, **kwargs)
        return wrapper

    for name in ("eig", "eigh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    fock.splitter_blocks.cache_clear()
    assert cli.main(["hom", "--out", str(tmp_path)]) == 0
    assert cli.main(["validate"]) == 0
    assert max(sizes) == 13
