"""Every command-line output, by hash.

``tests/data/cli_ledger.json`` holds one entry per command line: its argv,
the exit code, the sha256 of stdout and, for a refusal (exit 2), the one
``error:`` line on stderr.  The commands cover seeded schemes over the
documented ranges and their corners (all 12 quantities, zero and negative
couplings, orders 0, 1, 4, 9 and 32), ``tau`` and ``trace-check``,
non-default and log grids of both figures, both figures at orders 0 and 32,
``figure3 --convention closed_form``, the exit-2 refusals, ``--config``
files (one good file, one for each refusal of a config file and config
values that an option's own check refuses) and ``check``.  Commands run
in-process.  The ledger is the one table
that pins what the CLI prints, its output and its ``error:`` lines alike:
the library's tests hold the values, and ``tests/test_cli.py`` runs a
command only for what no entry pins.  Each refusal has a name, and
``tests/test_cli.py`` checks by name that its entry is a refusal (exit 2,
empty stdout, one ``error:`` line) without running it again.
The config files are committed under ``tests/data/config``; an argv names
that directory ``{data}``, which stands in its ``error:`` lines too, so no
entry depends on where the repository lives.

Entries marked ``versioned`` print numbers made by numpy or scipy routines
(quadrature, ``np.geomspace``); they are compared only under the numpy and
scipy versions recorded in the file, and skip with that reason otherwise.
A refusal prints no number, so it is never versioned.

Some versioned entries also depend on the CPU.  numpy's float64 ``log10`` and
``power`` (behind the ``--log-grid`` of ``np.geomspace``) and ``arctanh``
(the weight of the contour quadratures behind ``--quad-ratio`` and
``tau --delta-cut``) run SIMD (AVX-512) code on some hosts and libm on
others, and the two differ in last bits, which these entries print.  So the
file records a fingerprint of those functions on the host that wrote it, and
these entries are compared only where it matches.  ``check`` prints its
numbers to a few digits and is compared wherever the versions match.

Regenerate only for a change that is meant to move output:

    PYTHONPATH=src python tests/test_cli_ledger.py
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import scipy

from loopentropy.cli import main

DATA = Path(__file__).resolve().parent / "data"
LEDGER = DATA / "cli_ledger.json"
SEED = 20153
N_SCHEMES = 30
ORDERS = (0, 1, 4, 9, 32)
QUANTITIES = ("ext2_order0", "ext2_order1", "ext2_total", "ext21", "int21", "total21",
              "mutual21", "cond_ext_int", "cond_int_ext", "vacuum21", "nonpert", "tau")
CORNERS = ((1e-30, 1e-30, 1e-30, 1e-30), (1e30, 1e30, 1e30, 1e30),
           (1e-30, 1e30, -1e30, 1e30), (1e30, 1e-30, 0.0, 1e-30))

# each refusal by name (``tests/test_cli.py`` reads each one's ledger entry,
# and the test below runs it)
REFUSALS = {
    "missing_q": ["entropy"],
    "unknown_q": ["entropy", "--q", "nope"],
    "unknown_q_quad_ratio": ["entropy", "--q", "nope", "--quad-ratio"],
    "unknown_q_m_phys": ["entropy", "--q", "nope", "--m-phys", "2"],
    "unknown_q_z": ["entropy", "--q", "nope", "--z", "0.5"],
    "unknown_q_m0_inf": ["entropy", "--q", "nope", "--m0", "inf"],
    "unknown_q_delta_cut": ["entropy", "--q", "nope", "--delta-cut", "0.1"],
    "unknown_q_quad_ratio_m_phys": ["entropy", "--q", "nope", "--quad-ratio", "--m-phys", "2"],
    "quad_ratio_not_total21": ["entropy", "--q", "mutual21", "--quad-ratio"],
    "quad_ratio_m_phys_int21": ["entropy", "--q", "int21", "--quad-ratio", "--m-phys", "2"],
    "delta_cut_without_quad_ratio": ["entropy", "--q", "total21", "--delta-cut", "0.1"],
    "m_phys_total21": ["entropy", "--q", "total21", "--m-phys", "2"],
    "m_phys_not_nonpert": ["entropy", "--q", "int21", "--m-phys", "2"],
    "z_without_m_phys": ["entropy", "--q", "nonpert", "--z", "0.5"],
    "quad_ratio_nonpert": ["entropy", "--q", "nonpert", "--quad-ratio"],
    "order_above_cap": ["entropy", "--q", "int21", "--order", "33"],
    "m0_inf": ["entropy", "--q", "ext21", "--m0", "inf"],
    "tv_inf": ["entropy", "--q", "total21", "--tv", "inf"],
    "lambda0_nan": ["entropy", "--q", "ext2_order1", "--lambda0", "nan"],
    "nonfinite_result": ["entropy", "--q", "ext21", "--m0", "1e200"],
    "bad_float": ["entropy", "--q", "int21", "--m0", "abc"],
    "m0_overflows": ["entropy", "--q", "mutual21", "--m0", "1e100"],
    "m0_underflows": ["entropy", "--q", "vacuum21", "--m0", "1e-200"],
    "mu_underflows": ["entropy", "--q", "ext2_total", "--mu", "1e-100"],
    "m_phys_overflows": ["entropy", "--q", "nonpert", "--m-phys", "1e200"],
    "z_underflows": ["entropy", "--q", "nonpert", "--m-phys", "1", "--z", "1e-308"],
    "quad_ratio_delta_cut_above_one": ["entropy", "--q", "total21", "--quad-ratio",
                                       "--delta-cut", "1.5"],
    "lambda0_above_range": ["entropy", "--q", "ext21", "--lambda0", "1e31"],
    "tv_zero": ["entropy", "--q", "int21", "--tv", "0"],
    "negative_order": ["trace-check", "--order", "-1"],
    "mu_nan": ["trace-check", "--mu", "nan"],
    "trace_check_delta_cut": ["trace-check", "--delta-cut", "0.1"],
    "trace_check_zero_coupling": ["trace-check", "--lambda0", "0"],
    "lambda0_overflows": ["trace-check", "--lambda0", "1e300"],
    "delta_cut_nan": ["tau", "--delta-cut", "nan"],
    "delta_cut_zero": ["tau", "--delta-cut", "0"],
    "steps_above_cap": ["figure2", "--steps", "100000000"],
    "figure_order_above_cap": ["figure2", "--order", "40"],
    "grid_inf": ["figure2", "--m0-max", "inf"],
    "figure2_mu": ["figure2", "--mu", "2"],
    "grid_reversed": ["figure2", "--m0-min", "5", "--m0-max", "2"],
    "figure2_grid_overflows": ["figure2", "--m0-max", "1e100"],
    "figure_mu_nan": ["figure3", "--mu", "1,nan"],
    "figure_mu_empty_entry": ["figure3", "--mu", "1,,2"],
    "figure_mu_trailing_comma": ["figure3", "--mu", "1,"],
    "figure_mu_empty": ["figure3", "--mu", ""],
    "figure3_mu_underflows": ["figure3", "--mu", "1,1e-100"],
    "bad_convention": ["figure3", "--convention", "sideways"],
    "negative_seed_separate": ["check", "--seed", "-1"],
    "unknown_command": ["nope"],
    "no_command": [],
    "z_underflows_small_m_phys": ["entropy", "--q", "nonpert", "--m-phys", "1e-30",
                                  "--z", "1e-300"],
    "figure3_grid_overflows": ["figure3", "--m0-max", "1e100"],
    "lambda0_underflows": ["trace-check", "--lambda0", "1e-100"],
    "tv_overflows": ["entropy", "--q", "mutual21", "--m0", "1e30", "--tv", "1e300"],
    "figure3_lambda0_tv_overflow": ["figure3", "--lambda0", "1e300", "--tv", "1e300",
                                    "--steps", "3"],
    "figure2_tv_below_range": ["figure2", "--tv", "1e-31", "--steps", "3"],
    "tv_doubles_to_inf": ["entropy", "--q", "int21", "--tv", "1e308"],
    "lambda0_minus_inf": ["entropy", "--q", "ext2_order1", "--lambda0", "-inf"],
    "m0_above_range": ["entropy", "--q", "ext21", "--m0", "1e160"],
    "tau_delta_cut_above_one": ["tau", "--delta-cut", "1.5"],
    "quad_ratio_delta_cut_nan": ["entropy", "--q", "total21", "--quad-ratio",
                                 "--delta-cut", "nan"],
    "negative_seed": ["check", "--seed=-1"],
    "float_seed": ["check", "--seed", "1.5"],
    # an output path is nonempty
    "empty_out": ["figure2", "--steps", "3", "--out", ""],
    "empty_svg": ["figure2", "--steps", "3", "--svg", ""],
    # "--" as an option's value, which argparse alone drops, leaving a list
    "double_dash_value": ["figure2", "--m0-min=--"],
    "double_dash_config": ["--config=--", "tau"],
    # a negative inf or nan is a value, as -1e-3 is, and its range names it
    "lambda0_minus_nan": ["entropy", "--q", "ext2_order1", "--lambda0", "-nan"],
    "m0_minus_inf": ["entropy", "--q", "ext21", "--m0", "-inf"],
    "negative_m0": ["entropy", "--q", "mutual21", "--m0", "-3"],
    "one_step": ["figure2", "--steps", "1"],
}

# a good file, which a flag overrides
GOOD_CONFIG_RUN = ["--config", "{data}/config/good.json", "figure3", "--steps", "4"]

# each refusal of ``cli._apply_config``, then config values that an option's
# own check refuses, by name as REFUSALS
CONFIG_RUNS = {
    "unknown_key": ["--config", "{data}/config/unknown_key.json", "entropy", "--q", "int21"],
    "config_key_of_another_command": ["--config", "{data}/config/foreign_key.json",
                                      "figure2", "--steps", "3"],
    "switch_not_bool": ["--config", "{data}/config/switch_not_bool.json", "figure2",
                        "--steps", "3"],
    "not_object": ["--config", "{data}/config/not_object.json", "tau"],
    "bad_json": ["--config", "{data}/config/bad_json.json", "tau"],
    "missing_config": ["--config", "{data}/config/missing.json", "tau"],
    "unreadable_config": ["--config", "{data}/config", "tau"],
    "switch_int": ["--config", "{data}/config/switch_int.json", "figure2"],
    "config_list_for_scalar": ["--config", "{data}/config/list_for_scalar.json", "entropy"],
    "config_list_for_scalar_mu": ["--config", "{data}/config/list_for_scalar_mu.json",
                                  "trace-check"],
    "float_steps": ["--config", "{data}/config/float_steps.json", "figure2"],
    "bad_choice": ["--config", "{data}/config/bad_choice.json", "figure3"],
    "null_value": ["--config", "{data}/config/null_value.json", "entropy", "--q", "int21"],
    "missing_q_in_config_too": ["--config", "{data}/config/m0_only.json", "entropy"],
    "config_delta_cut_without_quad_ratio": ["--config", "{data}/config/delta_cut.json",
                                            "entropy", "--q", "total21"],
    "config_delta_cut_above_one": ["--config", "{data}/config/delta_cut_above_one.json",
                                   "tau"],
    "config_empty_svg": ["--config", "{data}/config/empty_svg.json", "figure3",
                         "--steps", "3"],
    "config_negative_seed": ["--config", "{data}/config/negative_seed.json", "check"],
}


def _log_uniform(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-30.0, 30.0)


def _scheme_args(m0, mu, lambda0, tv) -> list[str]:
    return ["--m0", repr(m0), "--mu", repr(mu), "--lambda0", repr(lambda0), "--tv", repr(tv)]


def commands() -> list[list[str]]:
    """Seeded command lines: every third coupling is 0, every third negative."""
    rng = random.Random(SEED)
    out = []
    for i in range(N_SCHEMES):
        lam = (0.0, -_log_uniform(rng), _log_uniform(rng))[i % 3]
        scheme = _scheme_args(_log_uniform(rng), _log_uniform(rng), lam, _log_uniform(rng))
        order = ["--order", str(ORDERS[i % len(ORDERS)])]
        out += [["entropy", "--q", q, *scheme, *order] for q in QUANTITIES]
        if lam != 0.0:
            out.append(["trace-check", *scheme, *order])
    for corner in CORNERS:
        out += [["entropy", "--q", q, *_scheme_args(*corner)] for q in QUANTITIES]
    for _ in range(6):
        z = 10.0 ** rng.uniform(-30.0, 0.0)
        out.append(["entropy", "--q", "nonpert", "--m0", repr(_log_uniform(rng)),
                    "--m-phys", repr(_log_uniform(rng)), "--z", repr(z)])
        out.append(["entropy", "--q", "nonpert", "--m-phys", repr(_log_uniform(rng)),
                    "--tv", repr(_log_uniform(rng))])
    for _ in range(3):
        m0, tv = repr(_log_uniform(rng)), repr(_log_uniform(rng))
        cut = repr(rng.uniform(0.02, 0.2))
        out.append(["entropy", "--q", "total21", "--m0", m0, "--tv", tv, "--quad-ratio"])
        out.append(["entropy", "--q", "total21", "--m0", m0, "--quad-ratio",
                    "--delta-cut", cut])
        out.append(["tau", "--delta-cut", cut])
    out += [["tau"], ["tau", "--json"], ["trace-check"]]
    for figure in ("figure2", "figure3"):
        for log_grid in ([], ["--log-grid"]):
            for _ in range(3):
                lo = 10.0 ** rng.uniform(-30.0, 0.0)
                hi = lo * 10.0 ** rng.uniform(0.01, 30.0)
                grid = ["--m0-min", repr(lo), "--m0-max", repr(hi),
                        "--steps", str(rng.randint(2, 12)), *log_grid,
                        "--lambda0", repr(-_log_uniform(rng)), "--tv", repr(_log_uniform(rng))]
                if figure == "figure3":
                    mus = ",".join(repr(_log_uniform(rng)) for _ in range(rng.randint(1, 3)))
                    grid += ["--mu", mus]
                out.append([figure, *grid])
    out += [["figure3", "--steps", "9", "--convention", "closed_form"],
            ["figure3", "--steps", "9", "--mu", "0.3,1,4", "--convention", "closed_form",
             "--m0-min", "0.1", "--m0-max", "20"],
            ["figure2", "--steps", "11", "--m0-min", "0.5", "--m0-max", "3", "--tv", "7"]]
    # both figures at the ends of the order range
    out += [["figure2", "--steps", "6", "--order", "0"],
            ["figure2", "--steps", "6", "--m0-min", "0.01", "--m0-max", "100", "--log-grid",
             "--lambda0", "-3", "--tv", "0.4", "--order", "32"],
            ["figure3", "--steps", "6", "--mu", "0.7,3", "--order", "0"],
            ["figure3", "--steps", "6", "--m0-min", "0.5", "--m0-max", "12", "--tv", "5",
             "--order", "32"]]
    out += [list(argv) for argv in REFUSALS.values()]
    out += [list(GOOD_CONFIG_RUN)] + [list(argv) for argv in CONFIG_RUNS.values()]
    out += [["check"], ["check", "--seed", "1"]]
    return out


def versioned(argv: list[str]) -> bool:
    """Whether a successful run prints numbers made by numpy or scipy."""
    return ("--quad-ratio" in argv or "--log-grid" in argv or argv[:1] == ["check"]
            or (argv[:1] == ["tau"] and "--delta-cut" in argv))


def cpu_dependent(argv: list[str]) -> bool:
    """Whether a successful run prints numpy's float64 ``log10``/``power``
    or ``arctanh`` results to the last bit."""
    return ("--log-grid" in argv or "--quad-ratio" in argv
            or (argv[:1] == ["tau"] and "--delta-cut" in argv))


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.replace("{data}", str(DATA)) for arg in argv])
    entry = {"argv": argv, "exit": code,
             "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    if code == 2:
        entry["stderr"] = err.getvalue().rstrip("\n").replace(str(DATA), "{data}")
    elif versioned(argv):
        entry["versioned"] = True
    return entry


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _ufunc_fingerprint() -> str:
    """sha256 of a fixed ``np.geomspace`` grid and of ``np.arctanh`` on a
    fixed grid: it changes with the code those ufuncs run on this CPU."""
    grid = np.geomspace(1e-30, 1e30, 1001)
    weights = np.arctanh(np.linspace(0.0, 0.999, 1001))
    return hashlib.sha256(grid.tobytes() + weights.tobytes()).hexdigest()


def _compare(select) -> None:
    entries = [e for e in json.loads(LEDGER.read_text())["entries"] if select(e)]
    assert entries
    diffs = [(want["argv"], got) for want in entries if (got := run(want["argv"])) != want]
    assert not diffs, f"{len(diffs)} of {len(entries)} differ; first: {diffs[0]}"


def _skip_unless_versions_match(ledger: dict) -> None:
    if ledger["versions"] != _versions():
        pytest.skip(f"recorded under {ledger['versions']}, running {_versions()}")


def _skip_unless_ufuncs_match(ledger: dict) -> None:
    if ledger["ufuncs"] != _ufunc_fingerprint():
        pytest.skip(f"recorded where numpy's ufuncs gave {ledger['ufuncs']}, "
                    f"here {_ufunc_fingerprint()}")


def test_cli_outputs_match_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    assert ledger["seed"] == SEED
    assert [e["argv"] for e in ledger["entries"]] == commands()
    _compare(lambda e: not e.get("versioned", False))


def test_numerics_outputs_match_the_ledger():
    _skip_unless_versions_match(json.loads(LEDGER.read_text()))
    _compare(lambda e: e.get("versioned", False) and not cpu_dependent(e["argv"]))


def test_cpu_dependent_outputs_match_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    _skip_unless_versions_match(ledger)
    _skip_unless_ufuncs_match(ledger)
    _compare(lambda e: e.get("versioned", False) and cpu_dependent(e["argv"]))


if __name__ == "__main__":
    LEDGER.parent.mkdir(exist_ok=True)
    # one entry a line, so a regenerated ledger diffs by command
    lines = ",\n".join(json.dumps(run(argv), separators=(",", ":")) for argv in commands())
    LEDGER.write_text(f'{{"seed":{SEED},"versions":{json.dumps(_versions())},'
                      f'"ufuncs":"{_ufunc_fingerprint()}","entries":[\n'
                      f"{lines}\n]}}\n")
