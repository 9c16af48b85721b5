"""Command-line layer, for what the ledger of ``tests/test_cli_ledger.py``
does not pin by hash: the grid arithmetic, file writing, config conversion,
that every flag shows in the output, that each named refusal's ledger line
is a refusal, the refusals whose line the ledger cannot pin, and the
``check`` suite's verdicts.  The paper's physics is asserted at the library
layer, where a failure names the function that broke."""

import builtins
import errno
import hashlib
import json
import math
import re

import numpy as np
import pytest

from loopentropy import checks as checks_mod
from loopentropy.cli import SweepConfig, build_parser, fmt, main
from test_cli_ledger import CONFIG_RUNS, DATA, LEDGER, REFUSALS

# each refusal of the CLI ledger by name, and the ledger's entries by argv
NAMED_REFUSALS = {**REFUSALS, **CONFIG_RUNS}
LEDGER_ENTRIES = {tuple(e["argv"]): e for e in json.loads(LEDGER.read_text())["entries"]}


# ----------------------------------------------------------------------
# the sweep grid
# ----------------------------------------------------------------------
def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(steps=1)
    with pytest.raises(ValueError):
        SweepConfig(m0_min=5.0, m0_max=1.0)
    with pytest.raises(ValueError):
        SweepConfig(mu=())


def test_grid_equals_numpy_bit_for_bit():
    from loopentropy.cli import MAX_STEPS

    rng = np.random.default_rng(20240817)
    ends = [(1.0, 10.0, 200), (0.2, 6.0, 300), (0.5, 8.0, 5), (1.0, 2.0, 2),
            (1e-30, 1e30, MAX_STEPS), (1e-30, 1e30, 2), (1e-30, 2e-30, 7), (5e29, 1e30, 9),
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
# entropy / tau / trace-check / check commands
# ----------------------------------------------------------------------
def test_tau_command_with_regulated_ratio(capsys):
    code = main(["tau", "--delta-cut", "0.05"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tau"] == pytest.approx(3.26636, abs=1e-4)
    assert data["regulated_ratio"]["im"] == pytest.approx(math.pi / 2, rel=1e-6)


def test_a_bare_value_error_is_a_bug_and_not_reported_as_invalid_input(monkeypatch, capsys):
    # the CLI catches the library's errors and OSError, so a ValueError that
    # is no InputError comes out as a traceback
    from loopentropy import contour

    def broken():
        raise ValueError("an internal bug")

    monkeypatch.setattr(contour, "tau", broken)
    with pytest.raises(ValueError, match="an internal bug"):
        main(["tau"])
    assert "error:" not in capsys.readouterr().err


def test_a_nul_in_an_output_path_names_the_flag(tmp_path, capsys):
    # a command line cannot hold a NUL, a config file can; open() refuses it
    # with a ValueError
    config = tmp_path / "nul.json"
    config.write_text(json.dumps({"out": str(tmp_path / "f\0.csv")}))
    assert main(["--config", str(config), "figure2", "--steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument --out: cannot write ")
    assert list(tmp_path.iterdir()) == [config]


def test_config_may_give_the_quantity(tmp_path, capsys):
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps({"q": "int21"}))
    assert main(["--config", str(cfg_path), "entropy"]) == 0
    from_config = capsys.readouterr().out
    assert main(["entropy", "--q", "int21"]) == 0
    assert from_config == capsys.readouterr().out
    assert main(["--config", str(cfg_path), "entropy", "--q", "ext21"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "ext21"  # the flag wins


def test_check_passes_at_the_first_ten_seeds_and_at_174_and_480(capsys):
    # the ledger runs the default seed and 1; these are the rest of the first
    # ten, not chosen by outcome.  At 174 the chi x-integral missed 1e-11 in
    # one pass over (0, 1) and exited 2, and at 480 so did the chi radial
    # integral in one pass over (0, inf), when check drew with numpy
    for seed in ("0", "2", "3", "4", "5", "6", "7", "8", "9", "174", "480"):
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
    results = checks_mod.run_all(seed=0)
    assert checks_mod.exit_code(results) == 1
    failed = [r.name for r in results if r.passed is False]
    assert failed == ["delta_vs_radial_oracle", "chi_quadrature_consistency",
                      "eta_zero_equals_delta2", "series_error_scaling"]


def test_check_tau_verdict_is_numeric_only(monkeypatch):
    monkeypatch.setattr(checks_mod.ct, "tau", lambda: 3.3)
    assert checks_mod.check_tau().status == "FAIL"


def test_check_prints_the_same_bytes_on_every_run(capsys):
    # no line reads a clock, so the ledger pins check's stdout as printed
    outputs = []
    for _ in range(2):
        assert main(["check", "--seed", "0"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_fmt_is_lossless():
    # 0.1 + 0.2 is 0.30000000000000004: 16 digits print another double
    for x in (1 / 3, math.pi, -2.0, 1e-17, 123456.789, 0.1 + 0.2):
        assert float(fmt(x)) == x


# ----------------------------------------------------------------------
# input contract: exit 2, one error line, nothing on stdout
# ----------------------------------------------------------------------
# cuts in (0, 1) at which the contour quadrature misses its tolerance, with
# the cut as the error line prints it; the line also holds QUADPACK's error
# estimate, so the ledger cannot pin it and it is matched by pattern
QUADRATURE_REFUSALS = {
    "delta_cut_too_small": (["tau", "--delta-cut", "1e-6"], "1e-06"),
    "delta_cut_far_too_small": (["tau", "--delta-cut", "1e-12"], "1e-12"),
    "quad_ratio_delta_cut_too_small": (["entropy", "--q", "total21", "--quad-ratio",
                                        "--delta-cut", "1e-9"], "1e-09"),
    "config_delta_cut_too_small": (["--config", "{data}/config/delta_cut_too_small.json",
                                    "tau"], "1e-07"),
}


@pytest.mark.parametrize("case", sorted({**NAMED_REFUSALS, **QUADRATURE_REFUSALS}))
def test_invalid_input_exits_2_with_one_error_line(case, capsys):
    """Exit 2, nothing on stdout, and one ``error:`` line.  A named refusal
    is read from its ledger entry and not run: the ledger's own test runs
    every entry and compares.  A cut too small for the quadrature is run,
    and its line is matched against the pattern above."""
    if case in QUADRATURE_REFUSALS:
        argv, cut = QUADRATURE_REFUSALS[case]
        assert main([a.replace("{data}", str(DATA)) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(
            rf"error: argument --delta-cut: the contour quadrature misses its tolerance "
            rf"at endpoint_cut {cut} \(quadrature error estimate \S+ too large for value "
            rf"\S+\); use a larger cut\n", err), err
        return
    argv = NAMED_REFUSALS[case]
    want = LEDGER_ENTRIES[tuple(argv)]
    assert want["exit"] == 2 and want["stdout_sha256"] == hashlib.sha256(b"").hexdigest()
    assert want["stderr"].startswith("error: ") and "\n" not in want["stderr"]


def test_a_nul_in_the_config_path_is_refused_as_unreadable(capsys):
    # a command line cannot hold a NUL, so the ledger cannot pin this case
    assert main(["--config", "a\0b", "tau"]) == 2
    assert capsys.readouterr() == (
        "", "error: cannot read config file 'a\\x00b': embedded null byte\n")


def test_a_quadrature_miss_without_delta_cut_is_the_library_error(monkeypatch, capsys):
    """At the default cut a quadrature miss is not the flag's error: the CLI
    passes the library's message on."""
    from loopentropy import entropy
    from loopentropy.errors import ToleranceNotMetError

    def miss(*args, **kwargs):
        raise ToleranceNotMetError("quadrature error estimate 1 too large for value 0")

    monkeypatch.setattr(entropy, "compute_quantity", miss)
    assert main(["entropy", "--q", "total21", "--quad-ratio"]) == 2
    assert capsys.readouterr() == (
        "", "error: quadrature error estimate 1 too large for value 0\n")


@pytest.mark.parametrize("argv", [["tau"], ["tau", "--json"]])
def test_a_non_finite_tau_is_refused(argv, monkeypatch, capsys):
    from loopentropy import contour

    monkeypatch.setattr(contour, "tau", lambda: math.nan)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("x, ys, message", [
    ([], [], "nothing to plot"),
    ([1.0, 2.0], [math.nan, math.inf], "nothing to plot"),
    # a flat curve where y + 1 == y, and one where a tick step of the
    # widened range is below the float spacing
    ([1.0, 2.0], [1e20, 1e20], "from 1e+20 to 1e+20"),
    ([1.0, 2.0], [5e15, 5e15], "from 5000000000000000.0 to 5000000000000001.0"),
    ([1.0, 2.0], [-1e308, 1e308], "from -inf to inf"),  # the span overflows
    # the x of figure2 --m0-min 1e20 --m0-max 1.0000000000000002e20 --steps 2
    ([1e20, 1.0000000000000002e20], [0.5, 1.0], "from 1e+20 to 1.0000000000000002e+20"),
], ids=["empty", "no_finite_y", "flat_past_2_53", "flat_below_2_53", "y_span_overflows",
        "x_one_float_apart"])
def test_a_chart_that_cannot_be_drawn_is_refused(x, ys, message):
    from loopentropy import svg
    from loopentropy.errors import InputError

    with pytest.raises(InputError, match=re.escape(message)):
        svg.render_line_chart(x, [("y", ys)], "t", "m0", "y")


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


@pytest.mark.parametrize("value", ["-1e-3", "-1E+2", "-.5e1", "-2.5e-1", "-3"])
def test_negative_numbers_in_exponent_notation_are_values(value, capsys):
    assert main(["entropy", "--q", "ext2_order1", "--lambda0", value]) == 0
    separate = capsys.readouterr()
    assert main(["entropy", "--q", "ext2_order1", f"--lambda0={value}"]) == 0
    assert separate == capsys.readouterr()
    assert json.loads(separate.out)["lambda0"] == float(value)


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan", "-NaN"])
def test_a_negative_inf_or_nan_is_a_value_that_its_range_refuses(value, capsys):
    assert main(["entropy", "--q", "ext2_order1", "--lambda0", value]) == 2
    separate = capsys.readouterr()
    assert main(["entropy", "--q", "ext2_order1", f"--lambda0={value}"]) == 2
    assert separate == capsys.readouterr()
    assert separate.err.startswith("error: lambda0 must be 0 or have a magnitude in ")


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
    # --quad-ratio alone takes the default cut, 0.05; that another cut moves
    # the output is the --delta-cut row of FLAG_CASES
    outputs = []
    for extra in ([], ["--delta-cut", "0.05"]):
        assert main(["entropy", "--q", "total21", "--quad-ratio", *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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
    # without the figures' grid comment, which records every grid flag
    out = re.sub(r"(?m)^#.*\n", "", capsys.readouterr().out)
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
