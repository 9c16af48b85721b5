"""Command-line layer: deterministic CSV output, figure properties, JSON
breakdowns, config precedence, exit codes, and the check suite."""

import builtins
import errno
import json
import math
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from loopentropy import checks as checks_mod
from loopentropy.cli import SweepConfig, build_parser, cmd_figure2, cmd_figure3, fmt, main


def _parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


# ----------------------------------------------------------------------
# figure 2
# ----------------------------------------------------------------------
def test_figure2_csv_shape_and_column_arithmetic():
    cfg = SweepConfig(m0_min=1.0, m0_max=10.0, steps=50, mu=(1.0,))
    text = cmd_figure2(cfg)
    header, rows = _parse_csv(text)
    assert header == ["m0", "S_total", "S_ext", "S_int", "I", "S_ext_plus_S_int"]
    assert len(rows) == 50
    for row in rows:
        assert row[5] == pytest.approx(row[2] + row[3], abs=1e-14)
        # mutual information is the defining combination of the other three
        assert row[4] == pytest.approx(row[2] + row[3] - row[1], abs=1e-10)


def test_figure2_deterministic_byte_for_byte(tmp_path):
    cfg1 = SweepConfig(steps=40, mu=(1.0,), out=str(tmp_path / "a.csv"))
    cfg2 = SweepConfig(steps=40, mu=(1.0,), out=str(tmp_path / "b.csv"))
    cmd_figure2(cfg1)
    cmd_figure2(cfg2)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert b"\r" not in (tmp_path / "a.csv").read_bytes()


def test_figure2_17_digit_round_trip():
    cfg = SweepConfig(steps=5, mu=(1.0,))
    text = cmd_figure2(cfg)
    _, rows = _parse_csv(text)
    from loopentropy import entropy as en
    from loopentropy.loops import SchemeParams

    for row in rows:
        p = SchemeParams(m0=row[0], mu=1.0, lambda0=1.0, tv=1.0)
        assert row[1] == en.s_total_21(p).finite  # exact, not approximate


def test_figure2_curves_increase_and_dominance():
    cfg = SweepConfig(m0_min=1.0, m0_max=10.0, steps=100, mu=(1.0,))
    _, rows = _parse_csv(cmd_figure2(cfg))
    arr = np.array(rows)
    for col in (1, 2, 3, 4, 5):
        assert np.all(np.diff(arr[:, col]) > 0)
    m0 = arr[:, 0]
    assert np.all(arr[m0 >= 2.0, 5] > arr[m0 >= 2.0, 1])


def test_figure2_asymptotic_log_slope():
    cfg = SweepConfig(m0_min=8.0, m0_max=10.0, steps=40, mu=(1.0,))
    _, rows = _parse_csv(cmd_figure2(cfg))
    arr = np.array(rows)
    logs = np.log(arr[:, 0])
    for col in (1, 2, 3):
        slope = np.polyfit(logs, arr[:, col], 1)[0]
        assert slope == pytest.approx(4.0, abs=0.05)


def test_figure2_svg_output(tmp_path):
    svg_path = tmp_path / "fig2.svg"
    cfg = SweepConfig(steps=20, mu=(1.0,), svg=str(svg_path))
    cmd_figure2(cfg)
    content = svg_path.read_text()
    assert content.count("<polyline") == 5
    assert "<svg" in content and "S_total" in content


# ----------------------------------------------------------------------
# figure 3
# ----------------------------------------------------------------------
def test_figure3_minima_interior_and_decreasing():
    cfg = SweepConfig(m0_min=0.2, m0_max=6.0, steps=300, mu=(0.5, 1.0, 2.0))
    header, rows = _parse_csv(cmd_figure3(cfg))
    assert header[0] == "m0"
    arr = np.array(rows)
    minima = []
    for col in (1, 2, 3):
        i = int(np.argmin(arr[:, col]))
        assert 0 < i < len(arr) - 1
        signs = np.sign(np.diff(arr[:, col]))
        assert int(np.sum(np.abs(np.diff(signs)) > 0)) == 1
        minima.append(arr[i, 0])
    assert minima[0] > minima[1] > minima[2]


def test_figure3_mass_log_term_inactive_at_unit_mass():
    cfg = SweepConfig(m0_min=0.5, m0_max=1.5, steps=3, mu=(1.0,),
                      convention="closed_form")
    _, rows = _parse_csv(cmd_figure3(cfg))
    from loopentropy import entropy as en

    vac_a, vac_b = en.vacuum_coefficients(1.0)
    expected = 1.0 - 0.25 * (vac_a + vac_b) / (1536 * math.pi ** 4)
    mid = rows[1]
    assert mid[0] == pytest.approx(1.0)
    assert mid[1] == pytest.approx(expected, rel=1e-12)


def test_figure3_convention_recorded_in_header_comment():
    cfg = SweepConfig(steps=5, mu=(1.0,), m0_min=0.2, m0_max=6.0)
    text = cmd_figure3(cfg)
    first = text.split("\n", 1)[0]
    assert first.startswith("#") and "figure convention" in first


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(steps=1)
    with pytest.raises(ValueError):
        SweepConfig(m0_min=5.0, m0_max=1.0)
    with pytest.raises(ValueError):
        SweepConfig(mu=())


def test_sweep_log_grid():
    cfg = SweepConfig(m0_min=0.5, m0_max=8.0, steps=5, log_grid=True, mu=(1.0,))
    grid = np.asarray(cfg.grid())
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])
    assert grid[0] == pytest.approx(0.5) and grid[-1] == pytest.approx(8.0)


def test_grid_equals_numpy_bit_for_bit():
    from loopentropy.cli import MAX_STEPS

    rng = np.random.default_rng(20240817)
    ends = [(1.0, 10.0, 200), (0.2, 6.0, 300), (1.0, 2.0, 2), (1e-30, 1e30, MAX_STEPS),
            (1e-30, 1e30, 2), (1e-30, 2e-30, 7), (5e29, 1e30, 9),
            (1.0, math.nextafter(1.0, 2.0), MAX_STEPS)]
    for _ in range(2000):
        lo, hi = sorted((10.0 ** rng.uniform(-30, 30, size=2)).tolist())
        ends.append((lo, hi, int(rng.integers(2, 400))))
    for lo, hi, steps in ends:
        cfg = SweepConfig(m0_min=lo, m0_max=hi, steps=steps)
        assert cfg.grid() == np.linspace(lo, hi, steps).tolist(), (lo, hi, steps)
        log_cfg = SweepConfig(m0_min=lo, m0_max=hi, steps=steps, log_grid=True)
        assert log_cfg.grid() == np.geomspace(lo, hi, steps).tolist(), (lo, hi, steps)


# ----------------------------------------------------------------------
# entropy / tau / trace-check commands
# ----------------------------------------------------------------------
def test_entropy_command_conditional(capsys):
    code = main(["entropy", "--q", "cond_ext_int"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["finite"] == pytest.approx(-0.102, abs=1e-3)


def test_entropy_command_mutual(capsys):
    code = main(["entropy", "--q", "mutual21", "--m0", "1", "--tv", "1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    from loopentropy.contour import tau

    assert data["finite"] == pytest.approx(1 - tau() + math.log(2.0), abs=1e-12)


def test_entropy_command_unknown_quantity(capsys):
    assert main(["entropy", "--q", "nonsense"]) == 2


def test_entropy_command_invalid_parameter(capsys):
    assert main(["entropy", "--q", "mutual21", "--m0", "-3"]) == 2


def test_tau_command(capsys):
    code = main(["tau"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(3.2663, abs=1e-4)


def test_tau_command_with_regulated_ratio(capsys):
    code = main(["tau", "--delta-cut", "0.05"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tau"] == pytest.approx(3.26636, abs=1e-4)
    assert data["regulated_ratio"]["im"] == pytest.approx(math.pi / 2, rel=1e-6)


def test_trace_check_command(capsys):
    code = main(["trace-check"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    terms = {(t["k"], t["l"]): complex(t["re"], t["im"])
             for t in data["tadpole_pair"]["normalized"]["terms"]}
    assert terms[(0, 0)] == pytest.approx(1.0, abs=1e-12)
    # anything beyond the unit constant is float residue
    assert all(abs(v) <= 1e-12 for key, v in terms.items() if key != (0, 0))


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main(["figure2", "--steps", "1"]) == 2


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps({"m0": 2.0, "tv": 4.0}))
    code = main(["--config", str(cfg_path), "entropy", "--q", "int21",
                 "--tv", "1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["m0"] == 2.0   # from config
    assert data["tv"] == 1.0   # explicit flag wins


def test_config_may_give_the_quantity(tmp_path, capsys):
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps({"q": "int21"}))
    assert main(["--config", str(cfg_path), "entropy"]) == 0
    from_config = capsys.readouterr().out
    assert main(["entropy", "--q", "int21"]) == 0
    assert from_config == capsys.readouterr().out
    assert main(["--config", str(cfg_path), "entropy", "--q", "ext21"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "ext21"  # the flag wins


def test_check_command_passes(capsys):
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[FAIL]" not in out
    assert "[INFO]" in out  # informational findings present, not failures
    assert "chi_alternate_form_sign" in out


def test_check_meets_every_quadrature_tolerance_at_seed_174(capsys):
    # 174: the chi x-integral missed 1e-11 in one pass over (0, 1) and exited 2;
    # 480: so did the chi radial integral in one pass over (0, inf)
    for seed in ("174", "480"):
        code = main(["check", "--seed", seed])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0, seed
        assert len([line for line in lines if line.startswith("[")]) == 13
        assert "[FAIL]" not in "\n".join(lines)


def test_check_fault_injection_names_oracle(monkeypatch):
    # a sign flip in the closed form must fail every check that reads it
    from loopentropy import loops

    delta_closed = loops.delta_closed
    monkeypatch.setattr(loops, "delta_closed", lambda j, m2, d: -delta_closed(j, m2, d))
    results = checks_mod.run_all()
    assert checks_mod.exit_code(results) == 1
    failed = [r.name for r in results if r.passed is False]
    assert failed == ["delta_vs_radial_oracle", "chi_quadrature_consistency",
                      "eta_zero_equals_delta2", "series_error_scaling"]


def test_check_tau_verdict_is_numeric_only(monkeypatch):
    # a clock that advances a second per reading: the value is right, so PASS
    ticks = iter(range(100))
    monkeypatch.setattr(checks_mod, "time",
                        types.SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    slow = checks_mod.check_tau()
    assert slow.status == "PASS"
    assert "runtime=1000000.0us" in slow.detail
    monkeypatch.setattr(checks_mod.ct, "tau", lambda: 3.3)
    assert checks_mod.check_tau().status == "FAIL"


def test_console_script_end_to_end(tmp_path):
    out = tmp_path / "fig2.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "loopentropy.cli", "figure2", "--steps", "10",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    header, rows = _parse_csv(out.read_text())
    assert len(rows) == 10
    assert header[0] == "m0"


def test_fmt_is_lossless():
    for x in (1 / 3, math.pi, -2.0, 1e-17, 123456.789):
        assert float(fmt(x)) == x


# ----------------------------------------------------------------------
# input contract: exit 2, one error line, nothing on stdout
# ----------------------------------------------------------------------
CONFIGS = {
    "bad_json.json": "{bad",
    "not_object.json": "[1, 2]",
    "float_steps.json": json.dumps({"steps": 2.5}),
    "unknown_key.json": json.dumps({"m0": 2.0, "no_such_option": 1}),
    "switch_not_bool.json": json.dumps({"log_grid": 1}),
    "bad_choice.json": json.dumps({"convention": "sideways"}),
    "null_value.json": json.dumps({"m0": None}),
    "delta_cut.json": json.dumps({"delta_cut": 0.1}),
    "delta_cut_above_one.json": json.dumps({"delta_cut": 1.5}),
    "delta_cut_too_small.json": json.dumps({"delta_cut": 1e-7}),
    "empty_svg.json": json.dumps({"svg": ""}),
    "negative_seed.json": json.dumps({"seed": -1}),
    "m0_only.json": json.dumps({"m0": 2.0}),
    "other_commands_keys.json": json.dumps({"mu": [1, 2], "q": "int21", "seed": 3}),
    "list_for_scalar.json": json.dumps({"q": ["ext21"]}),
    "list_for_scalar_mu.json": json.dumps({"mu": [1.0]}),
}

INVALID_INPUTS = {
    "missing_config": ["--config", "{tmp}/missing.json", "tau"],
    "unreadable_config": ["--config", "{tmp}", "tau"],
    "bad_json": ["--config", "{tmp}/bad_json.json", "tau"],
    "not_object": ["--config", "{tmp}/not_object.json", "tau"],
    "float_steps": ["--config", "{tmp}/float_steps.json", "figure2"],
    "unknown_key": ["--config", "{tmp}/unknown_key.json", "entropy", "--q", "int21"],
    "switch_not_bool": ["--config", "{tmp}/switch_not_bool.json", "figure2"],
    "bad_choice": ["--config", "{tmp}/bad_choice.json", "figure3"],
    "null_value": ["--config", "{tmp}/null_value.json", "entropy", "--q", "int21"],
    "z_without_m_phys": ["entropy", "--q", "nonpert", "--z", "0.5"],
    "missing_q": ["entropy"],
    "missing_q_in_config_too": ["--config", "{tmp}/m0_only.json", "entropy"],
    "order_above_cap": ["entropy", "--q", "int21", "--order", "33"],
    "negative_order": ["trace-check", "--order", "-1"],
    "m0_inf": ["entropy", "--q", "ext21", "--m0", "inf"],
    "tv_inf": ["entropy", "--q", "total21", "--tv", "inf"],
    "lambda0_nan": ["entropy", "--q", "ext2_order1", "--lambda0", "nan"],
    "mu_nan": ["trace-check", "--mu", "nan"],
    "delta_cut_nan": ["tau", "--delta-cut", "nan"],
    # cuts in (0, 1) at which the contour quadrature misses its tolerance
    "delta_cut_too_small": ["tau", "--delta-cut", "1e-6"],
    "quad_ratio_delta_cut_too_small": ["entropy", "--q", "total21", "--quad-ratio",
                                       "--delta-cut", "1e-9"],
    "config_delta_cut_too_small": ["--config", "{tmp}/delta_cut_too_small.json", "tau"],
    "nonfinite_result": ["entropy", "--q", "ext21", "--m0", "1e200"],
    "steps_above_cap": ["figure2", "--steps", "100000000"],
    "figure_order_above_cap": ["figure2", "--order", "40"],
    "grid_inf": ["figure2", "--m0-max", "inf"],
    "figure_mu_nan": ["figure3", "--mu", "1,nan"],
    "figure_mu_empty_entry": ["figure3", "--mu", "1,,2"],
    "figure_mu_trailing_comma": ["figure3", "--mu", "1,"],
    "figure2_mu": ["figure2", "--mu", "2"],
    # an output path is nonempty
    "empty_out": ["figure2", "--steps", "3", "--out", ""],
    "empty_svg": ["figure2", "--steps", "3", "--svg", ""],
    "config_empty_svg": ["--config", "{tmp}/empty_svg.json", "figure3", "--steps", "3"],
    "bad_float": ["entropy", "--q", "int21", "--m0", "abc"],
    # "--" as an option's value, which argparse alone drops, leaving a list
    "double_dash_value": ["figure2", "--m0-min=--"],
    "double_dash_config": ["--config=--", "tau"],
    # flags that the chosen quantity would not read
    "quad_ratio_not_total21": ["entropy", "--q", "mutual21", "--quad-ratio"],
    "delta_cut_without_quad_ratio": ["entropy", "--q", "total21", "--delta-cut", "0.1"],
    "config_delta_cut_without_quad_ratio": ["--config", "{tmp}/delta_cut.json",
                                            "entropy", "--q", "total21"],
    "m_phys_not_nonpert": ["entropy", "--q", "int21", "--m-phys", "2"],
    "trace_check_delta_cut": ["trace-check", "--delta-cut", "0.1"],
    # masses and scales outside [MASS_MIN, MASS_MAX]
    "m0_overflows": ["entropy", "--q", "mutual21", "--m0", "1e100"],
    "m0_underflows": ["entropy", "--q", "vacuum21", "--m0", "1e-200"],
    "mu_underflows": ["entropy", "--q", "ext2_total", "--mu", "1e-100"],
    "m_phys_overflows": ["entropy", "--q", "nonpert", "--m-phys", "1e200"],
    # a field strength below Z_MIN
    "z_underflows": ["entropy", "--q", "nonpert", "--m-phys", "1", "--z", "1e-308"],
    "z_underflows_small_m_phys": ["entropy", "--q", "nonpert", "--m-phys", "1e-30",
                                  "--z", "1e-300"],
    "figure2_grid_overflows": ["figure2", "--m0-max", "1e100"],
    "figure3_grid_overflows": ["figure3", "--m0-max", "1e100"],
    "figure3_mu_underflows": ["figure3", "--mu", "1,1e-100"],
    # couplings and volumes outside their ranges
    "lambda0_overflows": ["trace-check", "--lambda0", "1e300"],
    "lambda0_underflows": ["trace-check", "--lambda0", "1e-100"],
    "tv_overflows": ["entropy", "--q", "mutual21", "--m0", "1e30", "--tv", "1e300"],
    "figure3_lambda0_tv_overflow": ["figure3", "--lambda0", "1e300", "--tv", "1e300",
                                    "--steps", "3"],
    "tv_doubles_to_inf": ["entropy", "--q", "int21", "--tv", "1e308"],
    "lambda0_minus_inf": ["entropy", "--q", "ext2_order1", "--lambda0", "-inf"],
    "negative_seed": ["check", "--seed=-1"],
    "negative_seed_separate": ["check", "--seed", "-1"],
    "float_seed": ["check", "--seed", "1.5"],
    "config_negative_seed": ["--config", "{tmp}/negative_seed.json", "check"],
    # keys that only other subcommands read
    "config_key_of_another_command": ["--config", "{tmp}/other_commands_keys.json",
                                      "figure2", "--steps", "3"],
    # a list only for an option that reads a comma list (figure3's --mu)
    "config_list_for_scalar": ["--config", "{tmp}/list_for_scalar.json", "entropy"],
    "config_list_for_scalar_mu": ["--config", "{tmp}/list_for_scalar_mu.json",
                                  "trace-check"],
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_invalid_input_exits_2_with_one_error_line(case, tmp_path, capsys):
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in INVALID_INPUTS[case]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize("config, command, message", [
    ("list_for_scalar.json", "entropy", "config key 'q' takes one value, not the list ['ext21']"),
    ("list_for_scalar_mu.json", "trace-check",
     "config key 'mu' takes one value, not the list [1.0]"),
])
def test_a_config_list_for_a_scalar_option_names_the_key(config, command, message, tmp_path,
                                                         capsys):
    (tmp_path / config).write_text(CONFIGS[config])
    assert main(["--config", str(tmp_path / config), command]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag", [
    (["figure2", "--out", "ok.csv", "--svg", "missing/x.svg"], "--svg"),
    (["figure3", "--out", "ok.csv", "--svg", "missing/x.svg"], "--svg"),
    (["figure2", "--svg", "ok.svg", "--out", "missing/x.csv"], "--out"),
    (["figure2", "--out", "/"], "--out"),
    (["figure3", "--out", "ok.csv", "--svg", "."], "--svg"),
])
def test_a_figure_that_cannot_write_a_file_writes_none(argv, flag, tmp_path, capsys,
                                                       monkeypatch):
    """A figure writes all of its files or none, and the error names the
    flag of the path it cannot write; a file that was there is unchanged."""
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--steps", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: argument {flag}: cannot write ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == []
    (tmp_path / "ok.csv").write_text("kept")
    assert main(argv + ["--steps", "3"]) == 2
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.csv"]
    assert (tmp_path / "ok.csv").read_text() == "kept"


def test_the_renderers_return_text_and_open_no_file(monkeypatch):
    from loopentropy import cli as cli_mod
    from loopentropy import svg

    def no_open(*args, **kwargs):
        raise AssertionError("a renderer opened a file")

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", no_open)
        csv = cli_mod._write_csv("grid", ["m0", "y"], [[1.0, 0.5], [2.0, -0.25]])
        chart = svg.render_line_chart([1.0, 2.0], [("y", [0.5, -0.25])], "t", "m0", "y")
    assert csv == "# grid\nm0,y\n1,0.5\n2,-0.25\n"
    assert chart.startswith("<?xml") and chart.endswith("</svg>\n")
    assert chart.count("<polyline") == 1


@pytest.mark.parametrize("failing", ["f.csv", "f.svg"])
def test_a_figure_whose_write_fails_after_the_probes_writes_none(failing, tmp_path, capsys,
                                                                 monkeypatch):
    """Both paths can be opened, but writing one of them fails: the error is
    one line, and each file this run made is removed again."""
    monkeypatch.chdir(tmp_path)
    real_open = builtins.open

    def full_disk(path, mode="r", *args, **kwargs):
        if path == failing and mode == "w":
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", full_disk)
    assert main(["figure2", "--steps", "3", "--out", "f.csv", "--svg", "f.svg"]) == 2
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
    assert list(tmp_path.iterdir()) == []


def test_a_figure_writes_the_same_files_over_existing_ones(tmp_path, capsys):
    paths = [tmp_path / name for name in ("a.csv", "a.svg")]
    argv = ["figure2", "--steps", "5", "--out", str(paths[0]), "--svg", str(paths[1])]
    assert main(argv) == 0
    first = [p.read_bytes() for p in paths]
    for p in paths:
        p.write_text("x" * 10_000)  # longer than either file
    assert main(argv) == 0
    assert [p.read_bytes() for p in paths] == first
    assert capsys.readouterr().out == ""


def test_mass_out_of_range_names_the_bound(capsys):
    assert main(["entropy", "--q", "ext21", "--m0", "1e160"]) == 2
    assert capsys.readouterr().err == "error: m0 must lie in [1e-30, 1e+30], not 1e+160\n"


@pytest.mark.parametrize("argv, message", [
    (["trace-check", "--lambda0", "1e300"],
     "lambda0 must be 0 or have a magnitude in [1e-30, 1e+30], not 1e+300"),
    (["entropy", "--q", "mutual21", "--m0", "1e30", "--tv", "1e300"],
     "tv must lie in [1e-30, 1e+30], not 1e+300"),
    (["figure2", "--tv", "1e-31", "--steps", "3"],
     "tv must lie in [1e-30, 1e+30], not 1e-31"),
    (["trace-check", "--lambda0", "0"],
     "ratio_checks requires a nonzero coupling lambda0"),
    (["entropy", "--q", "int21", "--tv", "1e308"],
     "tv must lie in [1e-30, 1e+30], not 1e+308"),
    (["entropy", "--q", "nonpert", "--m-phys", "1", "--z", "1e-308"],
     "Z must lie in [1e-30, 1], not 1e-308"),
])
def test_coupling_and_tv_errors_name_the_flag(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, value", [
    (["tau", "--delta-cut", "1.5"], "1.5"),
    (["entropy", "--q", "total21", "--quad-ratio", "--delta-cut", "nan"], "nan"),
    (["--config", "{tmp}/delta_cut_above_one.json", "tau"], "1.5"),
])
def test_delta_cut_error_names_the_flag(argv, value, tmp_path, capsys):
    (tmp_path / "delta_cut_above_one.json").write_text(CONFIGS["delta_cut_above_one.json"])
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    assert capsys.readouterr() == (
        "", f"error: argument --delta-cut: endpoint_cut must lie in (0, 1), not {value}\n")


@pytest.mark.parametrize("argv, cut", [
    (["tau", "--delta-cut", "1e-6"], "1e-06"),
    (["tau", "--delta-cut", "1e-12"], "1e-12"),
    (["entropy", "--q", "total21", "--quad-ratio", "--delta-cut", "1e-9"], "1e-09"),
])
def test_delta_cut_too_small_for_the_quadrature_names_the_flag(argv, cut, capsys):
    """A cut in (0, 1) at which the contour quadrature misses its tolerance
    is refused in one line that names the flag and the cut; the estimate
    itself comes from QUADPACK."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(
        rf"error: argument --delta-cut: the contour quadrature misses its tolerance "
        rf"at endpoint_cut {cut} \(quadrature error estimate \S+ too large for value "
        rf"\S+\); use a larger cut\n", err), err


def test_check_seed_error_names_the_flag(capsys):
    assert main(["check", "--seed=-1"]) == 2
    assert capsys.readouterr() == (
        "", "error: argument --seed: must be a non-negative integer, not '-1'\n")


@pytest.mark.parametrize("value", ["-1e-3", "-1E+2", "-.5e1", "-2.5e-1", "-3"])
def test_negative_numbers_in_exponent_notation_are_values(value, capsys):
    assert main(["entropy", "--q", "ext2_order1", "--lambda0", value]) == 0
    separate = capsys.readouterr()
    assert main(["entropy", "--q", "ext2_order1", f"--lambda0={value}"]) == 0
    assert separate == capsys.readouterr()
    assert json.loads(separate.out)["lambda0"] == float(value)


@pytest.mark.parametrize("lambda0", ["1e-30", "-1e-30", "1e30", "-1e30"])
@pytest.mark.parametrize("tv", ["1e-30", "1e30"])
def test_every_quantity_is_finite_at_the_coupling_and_tv_range_ends(lambda0, tv, capsys):
    from loopentropy.entropy import QUANTITY_NAMES

    for m0, mu in (("1e-30", "1e30"), ("1e30", "1e-30"), ("1e30", "1e30")):
        scheme = ["--m0", m0, "--mu", mu, f"--lambda0={lambda0}", "--tv", tv,
                  "--order", "32"]
        for q in QUANTITY_NAMES:
            assert main(["entropy", "--q", q, *scheme]) == 0
            json.loads(capsys.readouterr().out)  # strict JSON: finite values only
        assert main(["trace-check", *scheme]) == 0
        report = json.loads(capsys.readouterr().out)
        # lambda0^2 neither underflows nor overflows: both ratios normalize to 1
        for pair in ("tadpole_pair", "fully_contracted"):
            lead = report[pair]["normalized"]["terms"][0]
            assert (lead["k"], lead["l"]) == (0, 0)
            assert lead["re"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("command, rows_fn", [("figure2", "figure2_rows"),
                                              ("figure3", "figure3_rows")])
def test_figure_commands_refuse_non_finite_rows(command, rows_fn, tmp_path,
                                                monkeypatch, capsys):
    import loopentropy.cli as cli_mod

    real = getattr(cli_mod, rows_fn)

    def with_nonfinite(cfg):
        rows = real(cfg)
        rows[1][-1] = math.inf
        return rows

    monkeypatch.setattr(cli_mod, rows_fn, with_nonfinite)
    out_path = tmp_path / "out.csv"
    for extra in ([], ["--out", str(out_path)]):
        assert main([command, "--steps", "3", *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: non-finite value in the row at m0 = ")
        assert err.count("\n") == 1
    assert not out_path.exists()


def test_delta_cut_is_used_with_quad_ratio(capsys):
    finite = []
    for extra in ([], ["--delta-cut", "0.05"], ["--delta-cut", "0.1"]):
        assert main(["entropy", "--q", "total21", "--quad-ratio", *extra]) == 0
        finite.append(json.loads(capsys.readouterr().out)["finite"])
    assert finite[0] == finite[1] != finite[2]


def test_config_values_are_converted_like_flags(tmp_path, capsys):
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps({"mu": [0.5, 2], "steps": 4, "m0-max": 3,
                                    "log_grid": True, "convention": "closed_form"}))
    assert main(["--config", str(cfg_path), "figure3"]) == 0
    from_config = capsys.readouterr().out
    assert main(["figure3", "--mu", "0.5,2", "--steps", "4", "--m0-max", "3",
                 "--log-grid", "--convention", "closed_form"]) == 0
    assert from_config == capsys.readouterr().out
    # a mu list is fine for figure3 but not for entropy's single scale
    assert main(["--config", str(cfg_path), "entropy", "--q", "int21"]) == 2


def test_z_with_m_phys_is_used(capsys):
    assert main(["entropy", "--q", "nonpert", "--m-phys", "2", "--z", "0.5"]) == 0
    with_z = json.loads(capsys.readouterr().out)["finite"]
    assert main(["entropy", "--q", "nonpert", "--m-phys", "2"]) == 0
    assert with_z != json.loads(capsys.readouterr().out)["finite"]


def test_sweep_config_caps_and_finiteness():
    from loopentropy.cli import MAX_STEPS
    from loopentropy.loops import MAX_ORDER

    assert SweepConfig(steps=MAX_STEPS, order=MAX_ORDER).steps == MAX_STEPS
    for kwargs in ({"steps": MAX_STEPS + 1}, {"steps": 2.5}, {"order": MAX_ORDER + 1},
                   {"order": -1}, {"m0_max": math.inf}, {"m0_min": math.nan},
                   {"tv": math.inf}, {"lambda0": math.nan}, {"mu": (1.0, math.inf)},
                   {"m0_min": 1e-31}, {"m0_max": 1e31}, {"mu": (1.0, 1e-31)},
                   {"lambda0": 1e31}, {"lambda0": -1e-31}, {"tv": 1e31}, {"tv": 1e-31},
                   {"tv": -1.0}):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)


@pytest.mark.parametrize("order", ["20", "32"])
def test_high_orders_give_the_order_4_finite_part(order, capsys):
    """The printed finite part does not depend on --order; the exact,
    library-level form is tests/test_quantities.py's order test."""
    from loopentropy.entropy import QUANTITY_NAMES

    for q in QUANTITY_NAMES:
        finite = []
        for o in ("4", order):
            assert main(["entropy", "--q", q, "--m0", "1.7", "--order", o]) == 0
            finite.append(json.loads(capsys.readouterr().out)["finite"])
        assert finite[1] == pytest.approx(finite[0], rel=1e-12, abs=1e-12), q


def _record_orders(monkeypatch, module, names) -> list[int]:
    """Wrap the functions ``names`` of ``module`` so that each call records
    the order of the SchemeParams it is handed."""
    from loopentropy.loops import SchemeParams

    seen = []
    for name in names:
        def spy(*args, _fn=getattr(module, name), **kwargs):
            seen.extend(a.order for a in args if isinstance(a, SchemeParams))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return seen


def test_cli_hands_the_library_the_order_it_prints(monkeypatch, capsys):
    """entropy and figure2 print eps^0 and below, so they build at order 0
    whatever --order says; trace-check prints whole series at --order."""
    from loopentropy import entropy as en
    from loopentropy import traces

    seen = _record_orders(monkeypatch, en, ["compute_quantity"])
    for q in en.QUANTITY_NAMES:
        assert main(["entropy", "--q", q, "--order", "9"]) == 0
    assert seen == [0] * len(en.QUANTITY_NAMES)
    seen = _record_orders(monkeypatch, en, ["s_total_21", "s_ext_21", "s_int_21",
                                            "mutual_information_21"])
    assert main(["figure2", "--steps", "3", "--order", "6"]) == 0
    assert seen == [0] * 12  # four library calls per grid point
    seen = _record_orders(monkeypatch, traces, ["ratio_checks"])
    assert main(["trace-check", "--order", "6"]) == 0
    assert seen == [6]


# ----------------------------------------------------------------------
# every flag shows in the output
# ----------------------------------------------------------------------
GRID = ["--steps", "5"]
# (subcommand, flag) -> (the other arguments of both runs, a value other than
# the default, or None for a switch); the first run leaves the flag out
FLAG_CASES = {
    **{(figure, flag): (GRID, value) for figure in ("figure2", "figure3")
       for flag, value in (("--m0-min", "0.5"), ("--m0-max", "5"), ("--log-grid", None),
                           ("--lambda0", "2"), ("--tv", "3"), ("--order", "2"),
                           ("--out", "{tmp}/out.csv"), ("--svg", "{tmp}/out.svg"))},
    ("figure2", "--steps"): ([], "7"),
    ("figure3", "--steps"): ([], "7"),
    ("figure3", "--mu"): (GRID, "3"),
    ("figure3", "--convention"): (GRID, "closed_form"),
    ("entropy", "--q"): (["--q", "int21"], "ext21"),
    ("entropy", "--m0"): (["--q", "int21"], "2"),
    ("entropy", "--mu"): (["--q", "ext2_order1"], "2"),
    ("entropy", "--lambda0"): (["--q", "ext2_order1"], "2"),
    ("entropy", "--tv"): (["--q", "int21"], "3"),
    ("entropy", "--order"): (["--q", "int21"], "2"),
    ("entropy", "--quad-ratio"): (["--q", "total21"], None),
    ("entropy", "--delta-cut"): (["--q", "total21", "--quad-ratio"], "0.1"),
    ("entropy", "--m-phys"): (["--q", "nonpert"], "2"),
    # Z cancels from a one-particle density: only the last digit moves
    ("entropy", "--z"): (["--q", "nonpert", "--m-phys", "2"], "0.5"),
    ("tau", "--json"): ([], None),
    ("tau", "--delta-cut"): ([], "0.1"),
    ("trace-check", "--m0"): ([], "2"),
    ("trace-check", "--mu"): ([], "2"),
    ("trace-check", "--lambda0"): ([], "2"),
    ("trace-check", "--tv"): ([], "3"),
    ("trace-check", "--order"): ([], "2"),
    ("check", "--seed"): ([], "1"),
}
# read by nothing that reaches the output, yet passed by the benchmark's
# workloads, so they stay until it stops passing them (ROADMAP item 1).  The
# --order of entropy, figure2 and figure3 is unread by construction: it is
# range-checked, and the CLI builds at order 0 (figure3 reads no order at all).
# figure2 --lambda0 reaches only the grid comment: no figure2 column depends on
# the coupling.
UNREAD_FLAGS = {("figure2", "--order"), ("figure3", "--order"), ("entropy", "--order"),
                ("trace-check", "--mu"), ("figure2", "--lambda0")}


def test_every_flag_has_a_case():
    commands = build_parser()._command_parsers
    for sub in commands.values():
        sub.parse_known_args([])  # a subcommand gets its options when first parsed
    flags = {(command, option)
             for command, sub in commands.items()
             for action in sub._actions for option in action.option_strings
             if option not in ("-h", "--help")}
    assert flags == set(FLAG_CASES)


def _run_cli(argv, tmp_path, capsys):
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 0
    # without the figures' grid comment, which records every grid flag, and
    # without check's wall-clock time
    out = re.sub(r"(?m)^#.*\n|runtime=\S+", "", capsys.readouterr().out)
    files = {}
    for path in sorted(tmp_path.iterdir()):
        files[path.name] = path.read_bytes()
        path.unlink()
    return out, files


@pytest.mark.parametrize("command, flag", [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason="ignored flag the benchmark still passes (ROADMAP item 1)"))
    if case in UNREAD_FLAGS else case for case in sorted(FLAG_CASES)])
def test_every_flag_changes_the_output(command, flag, tmp_path, capsys):
    context, value = FLAG_CASES[command, flag]
    default = _run_cli([command, *context], tmp_path, capsys)
    other = [flag] if value is None else [flag, value]
    assert _run_cli([command, *context, *other], tmp_path, capsys) != default
