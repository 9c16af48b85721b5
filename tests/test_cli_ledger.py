"""Every command-line output, by hash.

``tests/data/cli_ledger.json`` holds one entry per command line: its argv,
the exit code, the sha256 of stdout and, for a refusal (exit 2), the one
``error:`` line on stderr.  The commands cover seeded schemes over the
documented ranges and their corners (all 12 quantities, zero and negative
couplings, orders 0, 1, 4, 9 and 32), ``tau`` and ``trace-check``,
non-default and log grids of both figures, both figures at orders 0 and 32,
``figure3 --convention closed_form``, the exit-2 refusals and ``check``
(its ``runtime=`` fields stripped).  Commands run in-process.

Entries marked ``versioned`` print numbers made by numpy or scipy routines
(quadrature, ``np.geomspace``); they are compared only under the numpy and
scipy versions recorded in the file, and skip with that reason otherwise.
A refusal prints no number, so it is never versioned.

Regenerate only for a change that is meant to move output:

    PYTHONPATH=src python tests/test_cli_ledger.py
"""

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import scipy

from loopentropy.cli import main

LEDGER = Path(__file__).resolve().parent / "data" / "cli_ledger.json"
SEED = 20153
N_SCHEMES = 30
ORDERS = (0, 1, 4, 9, 32)
QUANTITIES = ("ext2_order0", "ext2_order1", "ext2_total", "ext21", "int21", "total21",
              "mutual21", "cond_ext_int", "cond_int_ext", "vacuum21", "nonpert", "tau")
CORNERS = ((1e-30, 1e-30, 1e-30, 1e-30), (1e30, 1e30, 1e30, 1e30),
           (1e-30, 1e30, -1e30, 1e30), (1e30, 1e-30, 0.0, 1e-30))

REFUSALS = (
    ["entropy"], ["entropy", "--q", "nope"], ["entropy", "--q", "nope", "--quad-ratio"],
    ["entropy", "--q", "nope", "--m-phys", "2"], ["entropy", "--q", "nope", "--z", "0.5"],
    ["entropy", "--q", "nope", "--m0", "inf"],
    ["entropy", "--q", "nope", "--delta-cut", "0.1"],
    ["entropy", "--q", "nope", "--quad-ratio", "--m-phys", "2"],
    ["entropy", "--q", "mutual21", "--quad-ratio"],
    ["entropy", "--q", "int21", "--quad-ratio", "--m-phys", "2"],
    ["entropy", "--q", "total21", "--delta-cut", "0.1"],
    ["entropy", "--q", "total21", "--m-phys", "2"],
    ["entropy", "--q", "int21", "--m-phys", "2"], ["entropy", "--q", "nonpert", "--z", "0.5"],
    ["entropy", "--q", "nonpert", "--quad-ratio"],
    ["entropy", "--q", "int21", "--order", "33"], ["entropy", "--q", "ext21", "--m0", "inf"],
    ["entropy", "--q", "total21", "--tv", "inf"],
    ["entropy", "--q", "ext2_order1", "--lambda0", "nan"],
    ["entropy", "--q", "ext21", "--m0", "1e200"], ["entropy", "--q", "int21", "--m0", "abc"],
    ["entropy", "--q", "mutual21", "--m0", "1e100"],
    ["entropy", "--q", "vacuum21", "--m0", "1e-200"],
    ["entropy", "--q", "ext2_total", "--mu", "1e-100"],
    ["entropy", "--q", "nonpert", "--m-phys", "1e200"],
    ["entropy", "--q", "nonpert", "--m-phys", "1", "--z", "1e-308"],
    ["entropy", "--q", "total21", "--quad-ratio", "--delta-cut", "1.5"],
    ["entropy", "--q", "ext21", "--lambda0", "1e31"], ["entropy", "--q", "int21", "--tv", "0"],
    ["trace-check", "--order", "-1"], ["trace-check", "--mu", "nan"],
    ["trace-check", "--delta-cut", "0.1"], ["trace-check", "--lambda0", "0"],
    ["trace-check", "--lambda0", "1e300"], ["tau", "--delta-cut", "nan"],
    ["tau", "--delta-cut", "0"], ["figure2", "--steps", "100000000"],
    ["figure2", "--order", "40"], ["figure2", "--m0-max", "inf"], ["figure2", "--mu", "2"],
    ["figure2", "--m0-min", "5", "--m0-max", "2"], ["figure2", "--m0-max", "1e100"],
    ["figure3", "--mu", "1,nan"], ["figure3", "--mu", "1,,2"], ["figure3", "--mu", "1,"],
    ["figure3", "--mu", "1,1e-100"], ["figure3", "--convention", "sideways"],
    ["check", "--seed", "-1"], ["nope"], [],
)


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
    out += [list(argv) for argv in REFUSALS]
    out += [["check"], ["check", "--seed", "1"]]
    return out


def versioned(argv: list[str]) -> bool:
    """Whether a successful run prints numbers made by numpy or scipy."""
    return ("--quad-ratio" in argv or "--log-grid" in argv or argv[:1] == ["check"]
            or (argv[:1] == ["tau"] and "--delta-cut" in argv))


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    text = re.sub(r"runtime=\S+", "runtime=", out.getvalue())
    entry = {"argv": argv, "exit": code,
             "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}
    if code == 2:
        entry["stderr"] = err.getvalue().rstrip("\n")
    elif versioned(argv):
        entry["versioned"] = True
    return entry


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _compare(want_versioned: bool) -> None:
    entries = [e for e in json.loads(LEDGER.read_text())["entries"]
               if e.get("versioned", False) == want_versioned]
    diffs = [(want["argv"], got) for want in entries if (got := run(want["argv"])) != want]
    assert not diffs, f"{len(diffs)} of {len(entries)} differ; first: {diffs[0]}"


def test_cli_outputs_match_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    assert ledger["seed"] == SEED
    assert [e["argv"] for e in ledger["entries"]] == commands()
    _compare(want_versioned=False)


def test_numerics_outputs_match_the_ledger():
    recorded = json.loads(LEDGER.read_text())["versions"]
    if recorded != _versions():
        pytest.skip(f"ledger recorded under {recorded}, running {_versions()}")
    _compare(want_versioned=True)


if __name__ == "__main__":
    LEDGER.parent.mkdir(exist_ok=True)
    # one entry a line, so a regenerated ledger diffs by command
    lines = ",\n".join(json.dumps(run(argv), separators=(",", ":")) for argv in commands())
    LEDGER.write_text(f'{{"seed":{SEED},"versions":{json.dumps(_versions())},"entries":[\n'
                      f"{lines}\n]}}\n")
