"""Command-line front end.

Subcommands
-----------
figure2      entropy curves of the first-order two-point state vs bare mass
figure3      vacuum-entropy finite coefficient vs bare mass, one curve per mu
entropy      one quantity as a JSON breakdown on stdout
tau          the closed-form contour-ratio constant
trace-check  the trace-relation ratio report as JSON
check        the full invariant suite; exit 1 on any failure

``entropy``, ``figure2`` and ``figure3`` print only pole, log(eps) and
finite coefficients, which do not depend on how far a series is built:
``entropy`` and ``figure2`` build every series at order 0, and ``figure3``
evaluates a closed form.  Their ``--order`` is range-checked and then
unread.  ``trace-check`` prints whole series, built to ``--order``.

Floats are printed with 17 significant digits so that CSV values round-trip
binary doubles exactly; CSV rows are comma separated with LF endings and a
leading '#' comment recording the grid.  Output is strict: a non-finite
value is an error, never ``NaN``/``Infinity`` in JSON or ``nan``/``inf`` in
a CSV row.  An optional JSON config file supplies defaults; explicit flags
override it.  Its keys are option names (``m0``, ``delta_cut`` or
``delta-cut``, ...), and its values are checked as if given on the command
line.  Exit codes: 0 success, 1 check failure, 2 invalid input (usage,
config or parameter error, each an ``InputError``), which prints one
``error:`` line on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace

from ._lazy import LazyModule
from .errors import InputError, LoopEntropyError, NonFiniteError, ToleranceNotMetError
from .params import CHECK_SEED, SchemeParams, check_int_range, check_range

np = LazyModule("numpy")


# largest grid the figure commands accept
MAX_STEPS = 10_000


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_text(payload: dict) -> str:
    try:  # strict: a NaN or an infinity is refused, never printed
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteError("non-finite value in the output") from None


@dataclass
class SweepConfig:
    """Grid and output options for the figure commands (``mu`` and
    ``convention`` are figure3's; the grid defaults are figure2's).

    The grid ends and every scale in ``mu`` lie in [MASS_MIN, MASS_MAX];
    ``lambda0``, ``tv`` and ``order`` take the defaults and obey the ranges
    of :class:`SchemeParams`; ``order`` is only checked, since the figures
    are built at order 0.  An output path, if given, is nonempty.
    """

    m0_min: float = 1.0
    m0_max: float = 10.0
    steps: int = 200
    log_grid: bool = False
    mu: tuple = (0.5, 1.0, 2.0)
    lambda0: float = SchemeParams.lambda0
    tv: float = SchemeParams.tv
    order: int = SchemeParams.order
    out: str | None = None
    svg: str | None = None
    convention: str = "figure"

    def __post_init__(self):
        check_int_range("steps", self.steps, 2, MAX_STEPS)
        SchemeParams(lambda0=self.lambda0, tv=self.tv, order=self.order)  # their ranges
        for name, value in (("m0-min", self.m0_min), ("m0-max", self.m0_max),
                            *(("mu", mu) for mu in self.mu)):
            check_range(name, value)
        if not self.m0_min < self.m0_max:
            raise InputError("m0-min must be below m0-max")
        if not self.mu:
            raise InputError("mu list must be nonempty")
        if "" in (self.out, self.svg):
            raise InputError(f"{'out' if self.out == '' else 'svg'} must be a nonempty path")

    def grid(self) -> list[float]:
        """The m0 grid.  The linear grid is numpy's ``linspace`` arithmetic
        (``i * step + m0_min``, last point ``m0_max``), equal to it bit for
        bit without loading numpy; the log grid stays on ``np.geomspace``,
        whose vectorized ``log10``/``power`` differ from libm in last bits.
        Which of the two a host runs depends on its CPU (numpy takes AVX-512
        code where it has it), so the log grid's last bits do too."""
        if self.log_grid:
            return np.geomspace(self.m0_min, self.m0_max, self.steps).tolist()
        step = (self.m0_max - self.m0_min) / (self.steps - 1)
        return [i * step + self.m0_min for i in range(self.steps - 1)] + [self.m0_max]


def _write_csv(comment: str, header: list[str], rows: list[list[float]]) -> str:
    """The CSV text; like the strict JSON, a CSV never holds ``nan`` or
    ``inf`` (NonFiniteError instead)."""
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            raise NonFiniteError(f"non-finite value in the row at m0 = {fmt(row[0])}")
    lines = [f"# {comment}", ",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def figure2_rows(cfg: SweepConfig) -> list[list[float]]:
    """Finite parts of total/external/internal entropy, mutual information
    and the external+internal sum over the m0 grid."""
    from . import entropy as en

    rows = []
    for m0 in cfg.grid():
        p = SchemeParams(m0=m0, lambda0=cfg.lambda0, tv=cfg.tv, order=0)
        s_tot = en.s_total_21(p).finite
        s_ext = en.s_ext_21(p).finite
        s_int = en.s_int_21(p).finite
        mutual = en.mutual_information_21(p).finite
        rows.append([m0, s_tot, s_ext, s_int, mutual, s_ext + s_int])
    return rows


def _write_files(*outputs: tuple[str, str | None, str | None]) -> None:
    """Write the text of each (flag, path, text) whose path is given, as
    UTF-8 with LF endings, all or none.

    Each path is first opened for appending, which creates a missing file
    but changes no existing one, so a path that cannot be written is
    refused as its flag's error before any file is written.  If that or a
    write fails, each file made here is removed again.
    """
    outputs = [output for output in outputs if output[1]]
    made = []
    try:
        for flag, path, _ in outputs:
            existed = os.path.lexists(path)
            try:
                open(path, "a").close()
            except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
                raise InputError(f"argument {flag}: cannot write {path!r}: "
                                 f"{getattr(exc, 'strerror', None) or exc}") from None
            if not existed:
                made.append(path)
        for _, path, text in outputs:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _write_figure(cfg: SweepConfig, what: str, header: list[str], rows: list[list[float]],
                  labels: list[str], title: str, ylabel: str) -> str:
    """The CSV text of a figure, with the grid in its ``#`` comment; writes
    it to ``--out`` and the SVG chart of columns 1.. (one curve per label)
    to ``--svg``, each if given."""
    comment = (f"{what}; m0 grid [{fmt(cfg.m0_min)}, {fmt(cfg.m0_max)}] x {cfg.steps} "
               f"({'log' if cfg.log_grid else 'linear'}), TV={fmt(cfg.tv)}, "
               f"lambda0={fmt(cfg.lambda0)}")
    text = _write_csv(comment, header, rows)
    chart = None
    if cfg.svg:
        from .svg import render_line_chart

        curves = [(label, [r[i] for r in rows]) for i, label in enumerate(labels, 1)]
        chart = render_line_chart([r[0] for r in rows], curves, title, "m0", ylabel)
    _write_files(("--out", cfg.out, text), ("--svg", cfg.svg, chart))
    return text


def cmd_figure2(cfg: SweepConfig) -> str:
    return _write_figure(cfg, "first-order two-point entropies",
                         ["m0", "S_total", "S_ext", "S_int", "I", "S_ext_plus_S_int"],
                         figure2_rows(cfg), ["S_total", "S_ext", "S_int", "I", "S_ext+S_int"],
                         "Two-point entropies", "finite part")


def figure3_rows(cfg: SweepConfig) -> list[list[float]]:
    """Vacuum-entropy finite coefficient per mu over the m0 grid."""
    from . import entropy as en

    return [[m0, *(en.vacuum_finite_coefficient(m0, mu, cfg.lambda0, cfg.tv, cfg.convention)
                   for mu in cfg.mu)] for m0 in cfg.grid()]


def cmd_figure3(cfg: SweepConfig) -> str:
    what = f"vacuum-entropy finite coefficient ({cfg.convention} convention)"
    return _write_figure(cfg, what, ["m0"] + [f"finite_mu_{fmt(mu)}" for mu in cfg.mu],
                         figure3_rows(cfg), [f"mu={mu:g}" for mu in cfg.mu],
                         "Vacuum entropy coefficient", "finite coefficient")


def _readers(input_name: str) -> str:
    """The quantities whose ``reads`` hold ``input_name``, comma separated."""
    from . import entropy as en

    return ", ".join(name for name, q in en.QUANTITIES.items() if input_name in q.reads)


def _parse_mu_list(text: str) -> tuple:
    if not text.strip():
        raise argparse.ArgumentTypeError("mu list must be nonempty")
    try:  # an empty entry ("1,,2" or "1,") is refused here too
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad mu list {text!r}") from exc


def _parse_delta_cut(text: str):
    """The cut as a ``contour.ContourConfig``, so that its range error names
    the flag."""
    from .contour import ContourConfig

    try:
        return ContourConfig(endpoint_cut=float(text))
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:  # from float()
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _at_cut(call, cfg):
    """``call()``, where a contour quadrature that misses its tolerance at a
    ``--delta-cut`` the user gave is refused as that flag's error."""
    try:
        return call()
    except ToleranceNotMetError as exc:
        if cfg is None:
            raise
        raise InputError(f"argument --delta-cut: the contour quadrature misses its "
                         f"tolerance at endpoint_cut {cfg.endpoint_cut!r} ({exc}); "
                         f"use a larger cut") from None


def _parse_seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an ``InputError``, which the CLI prints as
    one ``error:`` line (exit 2) like any other invalid input; reads a
    negative number in exponent notation (``-1e-3``) or a negative
    ``inf``, ``infinity`` or ``nan`` (any case, as ``float`` reads them) as
    a value, where argparse alone would take it for an option, so the
    value's own check names its range; and refuses a value of
    ``--`` (``--m0=--``), which argparse alone drops, leaving an empty list.

    A subcommand's parser is made with ``add_arguments``, the function that
    adds its options, and calls it when it is first parsed: a process
    imports only what the options of the command it runs need (``entropy``'s
    help text reads the quantity table).
    """

    def __init__(self, *args, add_arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add_arguments, self._add_arguments = self._add_arguments, None
            add_arguments(self)
        return super().parse_known_args(args, namespace)

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)

    def error(self, message: str):
        raise InputError(message)


def _add_scheme(p, names=tuple(f.name for f in fields(SchemeParams))):
    for name in names:  # each default, and its type, is SchemeParams'
        default = getattr(SchemeParams, name)
        p.add_argument(f"--{name}", type=type(default), default=default)


def _add_grid(p, m0_min=SweepConfig.m0_min, m0_max=SweepConfig.m0_max,
              steps=SweepConfig.steps):
    p.add_argument("--m0-min", type=float, default=m0_min)
    p.add_argument("--m0-max", type=float, default=m0_max)
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--log-grid", action="store_true")
    _add_scheme(p, ("lambda0", "tv", "order"))
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.add_argument("--svg", help="optional SVG chart path")


def _add_figure3(p):
    _add_grid(p, 0.2, 6.0, 300)
    p.add_argument("--mu", type=_parse_mu_list, default=SweepConfig.mu,
                   help="comma-separated scale list, one curve per value")
    p.add_argument("--convention", choices=("figure", "closed_form"),
                   default=SweepConfig.convention,
                   help="finite-coefficient convention (see docs)")


def _add_entropy(p):
    from .contour import ContourConfig
    from .entropy import SpectralDensity

    p.add_argument("--q", help="quantity name")
    _add_scheme(p)
    p.add_argument("--quad-ratio", action="store_true",
                   help="use the regulated contour ratio instead of tau "
                        f"({_readers('contour')} only)")
    p.add_argument("--delta-cut", type=_parse_delta_cut, default=None,
                   help="endpoint cut of the contour ratio "
                        f"(default {ContourConfig.endpoint_cut:g}; needs --quad-ratio)")
    p.add_argument("--m-phys", type=float, default=None,
                   help="physical mass for the spectral quantity "
                        f"({_readers('spectrum')} only)")
    p.add_argument("--z", type=float, default=None,
                   help="field strength for the spectral quantity "
                        f"(default {SpectralDensity.Z:g}; needs --m-phys)")


def _add_tau(p):
    p.add_argument("--json", action="store_true")
    p.add_argument("--delta-cut", type=_parse_delta_cut, default=None,
                   help="also report the regulated a/b at this endpoint cut")


def _add_check(p):
    p.add_argument("--seed", type=_parse_seed, default=CHECK_SEED,
                   help="seed of the sampled checks (a non-negative integer)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopentropy",
        description="Regularized one-loop entropies of real and virtual states",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("figure2", help="two-point entropy curves vs m0", add_arguments=_add_grid)
    sub.add_parser("figure3", help="vacuum entropy coefficient vs m0",
                   add_arguments=_add_figure3)
    sub.add_parser("entropy", help="one quantity as JSON", add_arguments=_add_entropy)
    sub.add_parser("tau", help="closed-form contour-ratio constant", add_arguments=_add_tau)
    sub.add_parser("trace-check", help="trace-relation ratio report", add_arguments=_add_scheme)
    sub.add_parser("check", help="run the invariant suite", add_arguments=_add_check)
    parser._command_parsers = sub.choices
    return parser


def _apply_config(parser: argparse.ArgumentParser, path: str, command: str) -> None:
    """Make the JSON object in ``path`` the option defaults of ``command``.

    Each value is checked as if it had been given as a flag: a switch takes
    true or false, and anything else goes, as text, through the option's
    own conversion.  A list joins with commas, and is taken only by an
    option that reads a comma list (figure3's ``mu``).  A key that is not an
    option of ``command`` is an error, even when another subcommand reads
    it.
    """
    try:
        fh = open(path, encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise InputError(f"cannot read config file {path!r}: "
                         f"{getattr(exc, 'strerror', None) or exc}") from None
    with fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise InputError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputError(f"config file {path!r} must hold a JSON object")
    sp = parser._command_parsers[command]
    actions = {action.dest: action for action in sp._actions if action.dest != "help"}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None:
            raise InputError(f"config key {key!r} is not an option of {command}")
        if action.nargs == 0:  # a switch
            if not isinstance(value, bool):
                raise InputError(f"config key {key!r} must be true or false, not {value!r}")
            sp.set_defaults(**{dest: value})
            continue
        if isinstance(value, list) and action.type is not _parse_mu_list:
            raise InputError(f"config key {key!r} takes one value, not the list {value!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float, list)):
            raise InputError(f"config key {key!r} must be a number, a string or a list, "
                             f"not {value!r}")
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        if action.choices is not None and text not in action.choices:
            raise InputError(f"config key {key!r} must be one of {list(action.choices)}, "
                             f"not {value!r}")
        sp.set_defaults(**{dest: text})


def _scheme(args: argparse.Namespace) -> SchemeParams:
    return SchemeParams(**{f.name: getattr(args, f.name) for f in fields(SchemeParams)})


def main(argv: list[str] | None = None) -> int:
    """Run ``argv``, or if None the process's own command line, which the
    process then ends with: its heap is frozen, so the shutdown collector
    skips it and the OS reclaims it; atexit hooks and flushes still run."""
    if argv is not None:
        return _run(list(argv))
    code = _run(sys.argv[1:])
    gc.freeze()
    return code


def _run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config(parser, args.config, args.command)
            args = parser.parse_args(argv)
        if args.command == "entropy" and args.q is None:  # --config may give it
            raise InputError("the following arguments are required: --q")

        if args.command in ("figure2", "figure3"):
            cfg = SweepConfig(**{name: value for name, value in vars(args).items()
                                 if name not in ("command", "config")})
            text = cmd_figure2(cfg) if args.command == "figure2" else cmd_figure3(cfg)
            if not cfg.out:
                sys.stdout.write(text)
            return 0

        if args.command == "entropy":
            from . import entropy as en

            params = replace(_scheme(args), order=0)  # --order is only checked
            if args.delta_cut is not None and not args.quad_ratio:
                raise InputError("--delta-cut needs --quad-ratio")
            reads = en.QUANTITIES[args.q].reads if args.q in en.QUANTITIES else ()
            for flag, given, needs in (("--quad-ratio", args.quad_ratio, "contour"),
                                       ("--m-phys", args.m_phys is not None, "spectrum")):
                if given and needs not in reads:
                    raise InputError(f"{flag} applies only to --q {_readers(needs)}")
            sd = None
            if args.m_phys is not None:
                sd = en.SpectralDensity(Z=en.SpectralDensity.Z if args.z is None else args.z,
                                        m_phys=args.m_phys)
            elif args.z is not None:
                raise InputError("--z needs --m-phys")
            bd = _at_cut(lambda: en.compute_quantity(args.q, params,
                                                     use_tau=not args.quad_ratio,
                                                     cfg=args.delta_cut, sd=sd),
                         args.delta_cut)
            print(_json_text(bd.to_json_dict()))
            return 0

        if args.command == "tau":
            from . import contour as ct

            value = ct.tau()
            payload = {"tau": value}
            if args.delta_cut is not None:
                reg = _at_cut(lambda: ct.ratio_ab_regulated(args.delta_cut), args.delta_cut)
                payload["regulated_ratio"] = {"re": reg.real, "im": reg.imag,
                                              "endpoint_cut": args.delta_cut.endpoint_cut}
            text = _json_text(payload)  # plain tau goes through its finite check too
            print(text if args.json or args.delta_cut is not None else fmt(value))
            return 0

        if args.command == "trace-check":
            from .traces import ratio_checks

            report = ratio_checks(_scheme(args))
            print(_json_text({name: part if name == "lambda0" else
                              {key: value if key == "note" else value.to_json_dict()
                               for key, value in part.items() if key != "ratio"}
                              for name, part in report.items()}))
            return 0

        from . import checks as checks_mod  # the one command left: check

        results = checks_mod.run_all(seed=args.seed)
        for r in results:
            print(f"[{r.status}] {r.name}: {r.detail}")
        code = checks_mod.exit_code(results)
        print("all checks passed" if code == 0 else "CHECK FAILURES PRESENT")
        return code
    except SystemExit as exc:  # --help: argparse's every other exit goes through error()
        return exc.code
    except (LoopEntropyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
