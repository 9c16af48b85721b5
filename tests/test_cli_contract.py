"""The command line's input contract, as a property.

Every input has one of two outcomes: exit 0 with finite output (no
``NaN``/``Infinity`` on stdout or in a written file), or exit 2 with one
``error:`` line on stderr, nothing on stdout and no file written.  The
command lines are drawn from the argparse tree of ``build_parser()``, so a
new option joins by itself, with values from the contract's edge classes:
non-finite and overflowing numbers, subnormals and ``-0``, each range end
and its neighbouring floats, and text that is not quite a number.  A drawn
``--config`` file holds the command's own keys, other commands' keys and
unknown keys, with mistyped values, lists for scalars and ``NaN``/``Infinity``
literals, or is not a JSON object at all.  Each command line runs in-process.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopentropy import params
from loopentropy.cli import (MAX_STEPS, _parse_delta_cut, _parse_mu_list, _parse_seed,
                             build_parser, main)
from loopentropy.entropy import QUANTITIES

BOUNDS = (params.MASS_MIN, params.MASS_MAX, params.COUPLING_MIN, params.COUPLING_MAX,
          params.TV_MIN, params.TV_MAX, params.Z_MIN, params.WEIGHT_MAX, 0.0, 1.0)
# each range end, its neighbouring floats, and their negatives
RANGE_ENDS = sorted({repr(sign * x) for b in BOUNDS for sign in (1.0, -1.0)
                     for x in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))})
NOT_NUMBERS = ["", " ", "1_0", "0x1", "1e", "abc", "true", "None", "--", "1,2", "١"]
FLOATS = RANGE_ENDS + NOT_NUMBERS + [
    "nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "1e309", "-1e309",
    "5e-324", "-5e-324", "2.2250738585072014e-308", "-0", "-0.0", "1e-3", "0.1", "0.5",
    "2", "3.5", "-2", "1e6", "-1e-3", "1E+2"]
INTS = NOT_NUMBERS + [
    "-1", "-0", "0", "1", "2", "3", "+4", "7", str(params.MAX_ORDER), str(params.MAX_ORDER + 1),
    str(MAX_STEPS + 1), str(2 ** 31), str(2 ** 64), "1.5", "1e3", "nan", "inf"]
PATHS = ["{tmp}/out.csv", "{tmp}/out.svg", "{tmp}/out", "", "{tmp}", "{tmp}/no_dir/out.csv"]
NAMES = sorted(QUANTITIES) + ["no_such_quantity", "EXT21", "ext21 "]
# values inside every range, drawn as often as the edges so that commands run
PLAIN_FLOATS = ["0.1", "0.5", "1", "2", "3.5", "1e-3"]
PLAIN_INTS = ["0", "1", "2", "3", "4", "7"]


def _values(action):
    """The values drawn for an option, by the conversion it applies: an edge
    value or a plain one."""
    if action.choices is not None:
        edge, plain = NOT_NUMBERS, list(action.choices)
    elif action.type in (float, _parse_delta_cut):
        edge, plain = FLOATS, PLAIN_FLOATS
    elif action.type in (int, _parse_seed):
        edge, plain = INTS, PLAIN_INTS
    elif action.type is _parse_mu_list:
        return st.lists(st.sampled_from(FLOATS) | st.sampled_from(PLAIN_FLOATS),
                        min_size=1, max_size=3).map(",".join)
    elif action.dest in ("out", "svg"):
        edge, plain = PATHS, PATHS[:2]
    elif action.dest == "q":
        edge, plain = NAMES, sorted(QUANTITIES)
    else:  # an option added later
        edge, plain = FLOATS + INTS + PATHS + NAMES, PLAIN_FLOATS + PLAIN_INTS
    return st.sampled_from(edge) | st.sampled_from(plain)


def _options():
    """Each subcommand's options as (flag, value strategy or None for a
    switch), read from the parser."""
    commands = build_parser()._command_parsers
    options = {}
    for command, sub in sorted(commands.items()):
        sub.parse_known_args([])  # a subcommand gets its options when first parsed
        options[command] = [(action.option_strings[-1],
                             None if action.nargs == 0 else _values(action))
                            for action in sub._actions if action.dest != "help"]
    return options


OPTIONS = _options()
KEYS = sorted({flag[2:] for flags in OPTIONS.values() for flag, _ in flags}
              | {flag[2:].replace("-", "_") for flags in OPTIONS.values() for flag, _ in flags}
              | {"no_such_option", "config", "help", "command"})


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


SCALARS = st.one_of(
    st.sampled_from(FLOATS + INTS + NAMES),
    st.sampled_from(PLAIN_FLOATS + PLAIN_INTS + sorted(QUANTITIES)),
    st.sampled_from([x for x in map(_number, FLOATS) if x is not None]),
    st.sampled_from([0, 1, -1, 2, 7, params.MAX_ORDER + 1, 10 ** 30, 2 ** 64, True, False,
                     None]))
JSON_VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=3), st.just({}))


def _rarely():
    return st.sampled_from([False, False, False, True])


@st.composite
def command_lines(draw):
    """(argv with ``{tmp}`` for the scratch directory, config file text or
    None)."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    chosen = draw(st.lists(st.sampled_from(OPTIONS[command]), unique=True, max_size=4))
    if command == "entropy" and not draw(_rarely()):  # main requires --q
        chosen = [opt for opt in OPTIONS[command] if opt[0] == "--q"] + chosen
    for flag, values in chosen:
        if values is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.extend([flag, draw(values)])
        else:
            argv.append(f"{flag}={draw(values)}")
    if not draw(_rarely()):
        return argv, None
    own = [(flag[2:], values) for flag, values in OPTIONS[command] if values is not None]
    entries = st.one_of(
        st.sampled_from(own).flatmap(lambda kv: st.tuples(st.just(kv[0]), kv[1] | JSON_VALUES)),
        st.tuples(st.sampled_from(KEYS), JSON_VALUES))
    config = draw(st.one_of(
        st.lists(entries, max_size=3).map(lambda kvs: json.dumps(dict(kvs))),
        JSON_VALUES.map(json.dumps),  # not an object
        st.sampled_from(["{bad", "", "{\"m0\": 1e999}", "{\"steps\": -Infinity}"])))
    path = draw(st.sampled_from(["{tmp}/config.json"] * 3 + PATHS))
    return ["--config", path, *argv], config


NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _contract_holds(argv, config):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if config is not None:
            (tmp / "config.json").write_text(config, encoding="utf-8")
        before = {path: path.read_bytes() for path in tmp.rglob("*") if path.is_file()}
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)  # a relative output path, such as a config's "svg": -1, lands here
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([a.replace("{tmp}", str(tmp)) for a in argv])
        finally:
            os.chdir(cwd)
        out, err = out.getvalue(), err.getvalue()
        after = {path: path.read_bytes() for path in tmp.rglob("*") if path.is_file()}
    if code == 0:
        assert err == ""
        for text in [out, *(data.decode() for path, data in after.items()
                            if data != before.get(path))]:  # the CSV and SVG files
            assert not NON_FINITE.search(text), text
    else:
        assert code == 2, (out, err)
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        assert after == before


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(command_lines())
# the one grid at the cap: a drawn --steps is far below it or above it
@example((["figure3", "--steps", str(MAX_STEPS)], None))
def test_every_command_line_exits_0_with_finite_output_or_2_with_one_error_line(case):
    _contract_holds(*case)


@pytest.mark.slow
@settings(derandomize=True, database=None, deadline=None, max_examples=10_000)
@given(command_lines())
def test_the_contract_holds_on_a_wider_run(case):
    _contract_holds(*case)
