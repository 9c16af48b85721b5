"""The benchmark's four seeded workloads.

Each workload is an endless stream of cycles.  Cycle ``c`` is built by its
own generator, seeded with ``(seed, c)``, so every prefix of the stream is
the same in every run with that seed, however long the run.  An op runs
once under the clock and is verified afterwards, off the clock.

An op whose call raises a ``LoopEntropyError`` is a documented refusal: it
counts as failed, but no answer was wrong.  An op that fails verification
raises one of two errors:

- ``ContractBroken``: a documented contract was not kept, but no answer
  under test was wrong.  An invalid CLI input did not end in exit code 2
  with a one-line message; the ``check`` suite failed only on the 1 ms
  wall-clock bound of ``check_tau``; or a quadrature oracle returned a value
  outside its tolerance without raising, while the closed form agreed with
  the other oracle.  Counted as failed.
- ``WrongOutput``: a valid input gave an answer that fails a golden value,
  an identity or an oracle.  Counted as failed, and the run is incorrect.

Library functions are always looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from loopentropy import cli
from loopentropy import contour as ct
from loopentropy import entropy as en
from loopentropy import loops as lp
from loopentropy import traces as tr
from loopentropy.epsseries import EpsSeries
from loopentropy.loops import LoopValue, SchemeParams

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
DEFAULT_SEED = 1
PI = math.pi

# Goldens cover this many leading cycles of the default seed's stream.
REGISTRY_GOLDEN_CYCLES = 10
CLI_GOLDEN_CYCLES = 6


class WrongOutput(Exception):
    pass


class ContractBroken(Exception):
    pass


class Op:
    """One timed call (``run``) and its off-the-clock verification (``check``)."""

    __slots__ = ("key", "run", "check")

    def __init__(self, key: str, run, check):
        self.key = key
        self.run = run
        self.check = check


def cycle_rng(seed: int, c: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 63, c])


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def random_scheme(rng, order: int) -> dict:
    return {"m0": log_uniform(rng, 0.2, 20.0), "mu": log_uniform(rng, 0.5, 2.0),
            "lambda0": float(rng.uniform(0.1, 2.0)), "tv": log_uniform(rng, 0.5, 10.0),
            "order": order}


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


def expect_close(value, reference, tol: float, what: str) -> None:
    expect(abs(value - reference) <= tol, f"{what}: {value!r} vs {reference!r} (tol {tol:g})")


def expect_rel(value, reference, tol: float, what: str) -> None:
    expect(abs(value - reference) <= tol * abs(reference),
           f"{what}: {value!r} vs {reference!r} (rel tol {tol:g})")


# ----------------------------------------------------------------------
# golden digests: a short list of numbers per answer, compared with a
# relative tolerance so that reordered arithmetic may change last digits
# ----------------------------------------------------------------------
GOLDEN_TOL = 1e-10


def digest(value) -> list:
    if isinstance(value, en.EntropyBreakdown):
        return [value.finite, value.residual_im, *digest(value.pole2),
                *digest(value.pole1), *digest(value.logeps)]
    if isinstance(value, EpsSeries):
        terms = [(k, l, c) for k, l, c in value.terms() if c != 0]
        weighted = sum(c / (1.0 + 0.37 * (k + 5) + 0.11 * l) for k, l, c in terms)
        return [value.kmax, len(terms), *digest(value.finite_part()), *digest(weighted)]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in digest(v)]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return [value]


def digests_match(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        g == w if isinstance(w, int) else abs(g - w) <= GOLDEN_TOL * max(1.0, abs(w))
        for g, w in zip(got, want))


def read_csv_rows(path: Path) -> list[list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()[2:]
    return [[float(v) for v in line.split(",")] for line in lines]


# ----------------------------------------------------------------------
# sweep: one grid point of a figure2-style sweep per op
# ----------------------------------------------------------------------
def sweep_point(m0: float, mu: float, lambda0: float, tv: float, order: int) -> list:
    p = SchemeParams.from_tv(m0=m0, mu=mu, lambda0=lambda0, tv=tv, order=order)
    s_tot = en.s_total_21(p).finite
    s_ext = en.s_ext_21(p).finite
    s_int = en.s_int_21(p).finite
    mutual = en.mutual_information_21(p).finite
    return [m0, s_tot, s_ext, s_int, mutual, s_ext + s_int]


GRID_STEPS = 40


class Sweep:
    """Cycle 0 is the default ``figure2`` grid; later cycles are seeded grids
    of GRID_STEPS points at orders 2, 4, 6 in turn."""

    name = "sweep"
    trace_cycles = 7

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.golden = read_csv_rows(GOLDEN_DIR / "figure2.csv")

    def grid(self, c: int):
        if c == 0:
            return np.linspace(1.0, 10.0, 200), 1.0, 1.0, 1.0, 4
        rng = cycle_rng(self.seed, c)
        order = (2, 4, 6)[(c - 1) % 3]  # cost depends on the order: keep the mix fixed
        lo = log_uniform(rng, 0.2, 10.0)
        hi = lo * log_uniform(rng, 1.5, 20.0 / lo)
        m0s = (np.geomspace if rng.random() < 0.5 else np.linspace)(lo, hi, GRID_STEPS)
        mu, tv = log_uniform(rng, 0.5, 2.0), log_uniform(rng, 0.5, 10.0)
        return m0s, mu, float(rng.uniform(0.1, 2.0)), tv, order

    def cycle(self, c: int) -> list[Op]:
        m0s, mu, lambda0, tv, order = self.grid(c)
        line: list[float] = []  # offsets of the first point of the grid
        ops = []
        for i, m0 in enumerate(m0s):
            m0 = float(m0)
            golden = self.golden[i] if c == 0 else None
            ops.append(Op(
                f"sweep c{c} i{i} m0={m0!r} order={order}",
                lambda m0=m0: sweep_point(m0, mu, lambda0, tv, order),
                lambda row, golden=golden: self.check(row, golden, line)))
        return ops

    @staticmethod
    def check(row: list, golden, line: list) -> None:
        if golden is not None:
            expect(row == golden, "differs from the figure2.csv golden row")
        m0, s_tot, s_ext, s_int, mutual, _ = row
        expect(all(math.isfinite(v) for v in row), "non-finite entropy")
        expect_close(mutual, s_ext + s_int - s_tot, 1e-10, "mutual = ext + int - total")
        # slope 4 in log(m0) makes the conditional entropies constant in m0
        offsets = [v - 4.0 * math.log(m0) for v in (s_tot, s_ext, s_int, mutual)]
        offsets += [s_tot - s_int, s_tot - s_ext]
        if not line:
            line.extend(offsets)
        for got, ref, what in zip(offsets, line, ("total", "ext", "int", "mutual",
                                                 "cond_ext_int", "cond_int_ext")):
            expect_close(got, ref, 1e-9, f"{what} off its line in log(m0)")


# ----------------------------------------------------------------------
# registry: mixed library queries
# ----------------------------------------------------------------------
SLOPE_FOUR = ("ext2_order0", "ext21", "int21", "total21", "mutual21")


def sparse_series(rng, kmin: int, kmax: int, logs: bool, lead: complex | None = None):
    coeffs = {}
    if lead is not None:
        coeffs[(0, 0)] = lead
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(kmin, kmax + 1))
        l = int(rng.integers(0, 3)) if logs else 0
        coeffs[(k, l)] = complex(rng.normal(), rng.normal())
    return EpsSeries(coeffs, kmax)


def phir_reference(ts) -> EpsSeries:
    """The phi^r vacuum trace by Horner's rule, an independent association."""
    half = ts.r // 2
    acc = ts.traces[2]
    for n in range(4, ts.r + 1, 2):
        acc = ts.traces[n] + ts.delta0 * acc
    bracket = acc - (ts.delta0 ** half).scale(half - 1.0)
    return EpsSeries.constant(1.0) + bracket.scale(-1j * ts.lambda0)


class Registry:
    """Per cycle: each of the 12 registry names once, a ``use_tau=False``
    ``total21``, the generic first-order assembly, ``ratio_checks``,
    ``vacuum_trace_phir`` on sparse series, and a loop series at j = 0..3."""

    name = "registry"
    trace_cycles = 30

    def __init__(self, seed: int, work: Path, golden: bool = True):
        self.seed = seed
        self.golden = []
        if golden and seed == DEFAULT_SEED:
            self.golden = json.loads((GOLDEN_DIR / "registry.json").read_text())["cycles"]

    def cycle(self, c: int) -> list[Op]:
        rng = cycle_rng(self.seed, c)
        # orders rotate through 0..9 per slot, so every run has the same mix
        kinds = [("q", name) for name in en.QUANTITY_NAMES]
        kinds += [("q_quad", "total21"), ("generic", None), ("ratio_checks", None),
                  ("delta_series", c % 4), ("chi_series", (c + 2) % 4)]
        specs = [(kind, arg, random_scheme(rng, (c + slot) % 10))
                 for slot, (kind, arg) in enumerate(kinds)]
        specs.append(("phir", (4, 6, 8, 10, 12)[c % 5], None))
        ops = [self.make_op(rng, c, *specs[i]) for i in rng.permutation(len(specs))]
        if c < len(self.golden):
            for op, (key, want) in zip(ops, self.golden[c]):
                op.check = self.with_golden(op, key, want)
        return ops

    @staticmethod
    def with_golden(op: Op, key: str, want: list):
        check = op.check

        def checked(result):
            expect(op.key == key, f"stream differs from the golden stream: {key}")
            expect(digests_match(digest(result), want), "differs from the golden value")
            check(result)

        return checked

    def make_op(self, rng, c: int, kind: str, arg, scheme: dict | None) -> Op:
        p = SchemeParams.from_tv(**scheme) if scheme else None
        key = f"{kind} {arg} {scheme}"
        if kind == "q":
            sd = None
            if arg == "nonpert":
                m_phys = float(rng.uniform(0.3, 5.0))
                samples = tuple((4.0 * m_phys ** 2 * float(rng.uniform(1.0, 10.0)),
                                 float(rng.uniform(0.0, 1.0)))
                                for _ in range(c % 9))
                sd = en.SpectralDensity(Z=float(rng.uniform(0.1, 1.0)), m_phys=m_phys,
                                        multiparticle=samples)
                key += f" sd={sd}"
            return Op(key, lambda: en.compute_quantity(arg, p, sd=sd),
                      lambda bd: self.check_quantity(arg, p, bd, sd=sd))
        if kind == "q_quad":
            cfg = ct.ContourConfig(endpoint_cut=float(rng.uniform(0.02, 0.2)))
            key += f" cut={cfg.endpoint_cut!r}"
            return Op(key, lambda: en.compute_quantity(arg, p, use_tau=False, cfg=cfg),
                      lambda bd: self.check_quantity(arg, p, bd, use_tau=False, cfg=cfg))
        if kind == "generic":
            def run():
                blocks = en.order1_blocks_n2(p)
                return en.entropy_order1_generic(*blocks, Fraction(1), Fraction(1, 2),
                                                 p.lambda0)
            return Op(key, run, lambda s: self.check_generic(p, s))
        if kind == "ratio_checks":
            def run():
                report = tr.ratio_checks(p)
                return tuple(report[part][entry]
                             for part in ("tadpole_pair", "fully_contracted")
                             for entry in ("ratio", "normalized"))
            return Op(key, run, self.check_ratios)
        if kind == "phir":
            kmaxes = rng.integers(2, 7, size=arg // 2 + 1)
            d0 = sparse_series(rng, 1, int(kmaxes[0]), False,
                               lead=complex(rng.normal(), rng.normal()) + 1.5)
            traces = {arg - 2 * j: sparse_series(rng, -2, int(kmaxes[j + 1]), True)
                      for j in range(arg // 2)}
            ts = tr.TraceSet(r=arg, traces=traces, delta0=d0,
                             lambda0=float(rng.uniform(0.1, 2.0)))
            key += " " + " ".join(repr(s.terms()) for s in (d0, *traces.values()))
            return Op(key, lambda: tr.vacuum_trace_phir(ts),
                      lambda s: self.check_phir(ts, s))
        closed = {"delta_series": "delta_closed", "chi_series": "chi_closed"}[kind]
        return Op(key, lambda: getattr(lp, kind)(arg, p),
                  lambda s: self.check_loop_series(s, getattr(lp, closed), arg, p))

    @staticmethod
    def check_quantity(name, p, bd, use_tau=True, cfg=None, sd=None) -> None:
        expect(bd.name == name, f"asked for {name}, got {bd.name}")
        expect(math.isfinite(bd.finite) and math.isfinite(bd.residual_im),
               f"{name}: non-finite finite part")

        def other(q, **changes):
            scheme = dict(m0=p.m0, mu=p.mu, lambda0=p.lambda0, tv=p.tv, order=p.order)
            scheme.update(changes)
            return en.compute_quantity(q, SchemeParams.from_tv(**scheme),
                                       use_tau=use_tau, cfg=cfg).finite

        if name in SLOPE_FOUR:
            expect_close(other(name, m0=2.0 * p.m0) - bd.finite, 4.0 * math.log(2.0), 1e-9,
                         f"{name}: slope in log(m0)")
        if name == "mutual21":
            expect_close(bd.finite, other("ext21") + other("int21") - other("total21"),
                         1e-10, "mutual = ext + int - total")
        elif name in ("cond_ext_int", "cond_int_ext"):
            expect_close(bd.finite, other(name, m0=1.0), 1e-9, f"{name}: constant in m0")
        elif name == "ext2_order1":
            ref = p.lambda0 / 2.0 * (2.0 * 0.57721566490153286061 - 1.0 + math.log(
                p.m0 ** 4 / (16.0 * PI ** 2 * p.mu ** 4))) / (16.0 * PI ** 2)
            expect_close(bd.finite, ref, 1e-9 * max(1.0, abs(ref)), "ext2_order1 closed form")
        elif name == "ext2_total":
            assembled = en.s_ext_2_total(p, mode="assembled").finite
            expect_close(bd.finite - assembled, 0.5, 1e-10, "closed minus assembled offset")
        elif name == "vacuum21":
            ref = en.vacuum_finite_coefficient(p.m0, p.mu, p.lambda0, p.tv, "closed_form")
            expect_close(bd.finite, ref, 1e-12 * max(1.0, abs(ref)), "vacuum finite part")
        elif name == "nonpert":
            if sd.multiparticle:
                expect(bd.is_real, "nonpert: imaginary residue")
            else:
                ref = en.s_ext_2_order0(SchemeParams.from_tv(
                    m0=sd.m_phys, mu=p.mu, lambda0=p.lambda0, tv=p.tv, order=p.order))
                expect(bd.series.max_coeff_diff(ref.series) <= 1e-10,
                       "nonpert: one-particle density differs from ext2_order0 at m_phys")
        elif name == "tau":
            expect(bd.finite == ct.tau(), "tau quantity differs from tau()")

    @staticmethod
    def check_generic(p, series) -> None:
        assembled = en.s_ext_2_total(p, mode="assembled").series
        diff = series.real_part().max_coeff_diff(assembled.real_part(), through_k=0)
        expect(diff <= 1e-10, f"generic assembly real part differs by {diff:.2e}")

    @staticmethod
    def check_ratios(parts) -> None:
        for normalized in parts[1::2]:
            diff = normalized.max_coeff_diff(EpsSeries.constant(1.0), through_k=0)
            expect(diff <= 1e-10, f"normalized ratio differs from 1 by {diff:.2e}")

    @staticmethod
    def check_phir(ts, series) -> None:
        ref = phir_reference(ts)
        diff = series.max_coeff_diff(ref)
        expect(diff <= 1e-10 * max(1.0, ref.max_abs()),
               f"phi^{ts.r} trace differs from Horner's rule by {diff:.2e}")

    @staticmethod
    def check_loop_series(series, closed, j, p) -> None:
        d = 4.0 + 1e-3  # compose first: d - 4 is then exact in doubles
        value = LoopValue(exact_d=closed(j, p.m2, d), series=series, d=d)
        expect(value.consistent(), f"j={j}: series at eps=1e-3 misses the closed form")


# ----------------------------------------------------------------------
# oracle: closed forms against independent quadrature
# ----------------------------------------------------------------------
# Renyi powers in the timed stream.  n = 4 is left out: in narrow windows of
# m0 (width about 1e-5; 3 of about 150000 random draws) renyi_trace_radial returns
# a value 4e-8 to 7e-8 off renyi_trace_n without raising; two are probes.
RENYI_N = (2, 3, 5)
RENYI_RADIAL_MISSES = (1.74552, 3.29645841826026)


class Oracle:
    """Per cycle: two delta, one chi, one eta, two Renyi and one contour op."""

    name = "oracle"
    trace_cycles = 60

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def cycle(self, c: int) -> list[Op]:
        rng = cycle_rng(self.seed, c)
        n1, n2 = RENYI_N[c % 3], RENYI_N[(c + 1) % 3]
        ops = [self.delta(rng, c % 5), self.delta(rng, (c + 2) % 5), self.chi(rng, 1 + c % 4),
               self.eta(rng), self.renyi(rng, n1), self.renyi(rng, n2), self.contour(rng)]
        return [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def point(rng, j: int, margin: float = 0.2, m2_min: float = 0.25) -> tuple[float, float]:
        # the check suite's sampling (margin 0.2, m2 from 0.25): convergent
        # radial integrals need d < 2(j+1)
        return float(rng.uniform(1.0, 2 * j + 2 - margin)), float(rng.uniform(m2_min, 9.0))

    def delta(self, rng, j: int) -> Op:
        d, m2 = self.point(rng, j)

        def check(pair):
            expect_rel(pair[0], pair[1], 1e-6, f"delta_closed vs radial oracle at {j, d, m2}")

        return Op(f"delta {j} {d!r} {m2!r}",
                  lambda: (lp.delta_closed(j, m2, d), lp.oracle_delta_radial(j, m2, d)), check)

    def chi(self, rng, j: int) -> Op:
        # Kept off the points where the chi quadratures cannot meet their
        # relative tolerance, so no op is refused: j >= 1 (at j = 0 about one
        # point in 300 raised ToleranceNotMetError), m2 >= 1 (below it the
        # log in both integrands changes sign, and the real part can cancel
        # to about 0), and 0.4 below the convergence edge (next to it one
        # quadrature once missed its tolerance without raising).
        d, m2 = self.point(rng, j, margin=0.4, m2_min=1.0)

        def check(triple):
            x_form, radial, closed = triple
            agree = [abs(closed - ref) <= 1e-6 * abs(ref) for ref in (x_form, radial)]
            expect(any(agree), f"chi_closed matches neither quadrature at {j, d, m2}")
            if not all(agree):
                # the answer is confirmed; one quadrature missed its accuracy
                # without raising, which breaks the oracles' contract
                raise ContractBroken(f"chi quadratures disagree at {j, d, m2}: "
                                     f"x-integral {x_form!r}, radial {radial!r}")

        return Op(f"chi {j} {d!r} {m2!r}",
                  lambda: (lp.oracle_chi_x(j, m2, d), lp.oracle_chi_radial(j, m2, d),
                           lp.chi_closed(j, m2, d)), check)

    def eta(self, rng) -> Op:
        m2, d = float(rng.uniform(0.25, 9.0)), float(rng.uniform(2.0, 5.5))

        def check(pair):
            expect_rel(pair[0], pair[1], 1e-10, f"eta(0) vs delta_closed(2) at {m2, d}")

        return Op(f"eta {m2!r} {d!r}",
                  lambda: (lp.eta(0.0, m2, d), lp.delta_closed(2, m2, d)), check)

    def renyi(self, rng, n: int) -> Op:
        m0, tv = log_uniform(rng, 0.5, 5.0), log_uniform(rng, 0.5, 10.0)
        return self.renyi_op(n, m0, tv, float(rng.uniform(0.02, 0.2)))

    def probes(self) -> list[Op]:
        """The known points where the radial cross-check misses its
        tolerance without raising, for the traced run's count of them."""
        return [self.renyi_op(4, m0, 1.0, 0.05) for m0 in RENYI_RADIAL_MISSES]

    @staticmethod
    def renyi_op(n: int, m0: float, tv: float, cut: float) -> Op:
        p = SchemeParams.from_tv(m0=m0, tv=tv)
        cfg = ct.ContourConfig(endpoint_cut=cut)
        tol = 1e-7 if n == 2 else 1e-8  # the library's own contour-vs-radial tolerances

        def check(pair):
            expect_rel(pair[1], pair[0], tol, f"renyi n={n} contour vs radial")

        return Op(f"renyi {n} {p.m0!r} {cfg.endpoint_cut!r}",
                  lambda: (en.renyi_trace_n(n, p, cfg), en.renyi_trace_radial(n, p, cfg)), check)

    def contour(self, rng) -> Op:
        cuts = sorted((float(x) for x in rng.uniform(0.02, 0.3, size=3)), reverse=True)

        def run():
            bs = [ct.coeff_b(ct.ContourConfig(endpoint_cut=cut)) for cut in cuts]
            return bs, ct.coeff_a(ct.ContourConfig(endpoint_cut=cuts[-1]))

        def check(result):
            bs, a = result
            mags = [abs(b) for b in bs]
            expect(mags[0] < mags[1] < mags[2], f"|b| not rising as the cut shrinks: {mags}")
            expect_rel(a.imag, (PI / 2) * bs[-1].real, 1e-9, "Im a = (pi/2) b")

        return Op(f"contour {cuts}", run, check)


# ----------------------------------------------------------------------
# cli_cold: one loopentropy process per op
# ----------------------------------------------------------------------
CLI_CODE = "import sys; from loopentropy.cli import main; sys.exit(main())"
INVALID = ("order20", "m0_inf", "missing_config", "unknown_q")
PROBE_CYCLE = 2 ** 31 - 1  # generator index of the probes, past any timed cycle
# quantities whose series depend on --order (the others are closed forms)
SERIES_QUANTITIES = ("ext2_order0", "ext2_order1", "ext21", "int21", "cond_ext_int",
                     "cond_int_ext", "nonpert")


def strict_json(text: str):
    def reject(token):
        raise WrongOutput(f"non-finite JSON value {token}")
    return json.loads(text, parse_constant=reject)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliCold:
    """Per cycle: tau, two entropy queries, trace-check, figure2, figure3,
    check and an unknown ``--q``.  Cycle 0 draws the default figure grids,
    which must match the committed figure files byte for byte."""

    name = "cli_cold"
    # one window: a run holds too few CLI processes, of subcommands that
    # differ in cost, for per-window figures to be steady
    window_s = math.inf
    trace_cycles = 1

    def __init__(self, seed: int, work: Path, golden: bool = True):
        self.seed = seed
        self.work = work
        self.launch = self.run_cli
        self.golden = {}
        if golden and seed == DEFAULT_SEED:
            self.golden = json.loads((GOLDEN_DIR / "cli_cold.json").read_text())

    def run_cli(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", CLI_CODE, *argv], capture_output=True,
                              timeout=150)

    def scheme_args(self, rng) -> list[str]:
        s = random_scheme(rng, int(rng.integers(0, 10)))
        return ["--m0", repr(s["m0"]), "--mu", repr(s["mu"]), "--lambda0", repr(s["lambda0"]),
                "--tv", repr(s["tv"]), "--order", str(s["order"])]

    def grid_args(self, rng, figure: str) -> list[str]:
        lo = log_uniform(rng, 0.2, 5.0)
        args = ["--m0-min", repr(lo), "--m0-max", repr(lo * log_uniform(rng, 1.5, 4.0)),
                "--steps", str(int(rng.integers(5, 31))), "--tv", repr(log_uniform(rng, 0.5, 10.0)),
                "--lambda0", repr(float(rng.uniform(0.1, 2.0))),
                "--order", str(int(rng.choice([2, 4, 6])))]
        if rng.random() < 0.5:
            args.append("--log-grid")
        if figure == "figure3":
            mus = [log_uniform(rng, 0.5, 2.0) for _ in range(int(rng.integers(1, 4)))]
            args += ["--mu", ",".join(repr(m) for m in mus),
                     "--convention", str(rng.choice(["figure", "closed_form"]))]
        return args

    def cycle(self, c: int) -> list[Op]:
        rng = cycle_rng(self.seed, c)
        names = [str(n) for n in rng.permutation(en.QUANTITY_NAMES)]
        tau_variant = int(rng.integers(0, 3))
        tau_args = [[], ["--json"], ["--delta-cut", repr(float(rng.uniform(0.02, 0.2)))]]
        ops = [self.valid(c, "tau", ["tau", *tau_args[tau_variant]])]
        for name in names[:2]:
            argv = ["entropy", "--q", name, *self.scheme_args(rng)]
            if name == "total21" and rng.random() < 0.5:
                argv.append("--quad-ratio")
            if name == "nonpert" and rng.random() < 0.5:
                argv += ["--m-phys", repr(float(rng.uniform(0.3, 5.0))),
                         "--z", repr(float(rng.uniform(0.1, 1.0)))]
            ops.append(self.valid(c, "entropy", argv))
        ops.append(self.valid(c, "trace-check", ["trace-check", *self.scheme_args(rng)]))
        for figure in ("figure2", "figure3"):
            files = [f"{{work}}/c{c}_{figure}.csv", f"{{work}}/c{c}_{figure}.svg"]
            extra = [] if c == 0 else self.grid_args(rng, figure)
            ops.append(self.valid(c, figure, [figure, *extra, "--out", files[0],
                                              "--svg", files[1]], files))
        ops.append(Op(f"c{c} check", lambda: self.launch(["check"]), self.check_suite))
        ops.append(self.invalid(f"c{c}", rng, "unknown_q"))
        return ops

    def probes(self) -> list[Op]:
        """Each documented invalid input once, for the traced run's count of
        broken input contracts.  Three of them break the contract at the seed
        commit, so only ``unknown_q`` is in the timed stream, where no op
        may fail."""
        rng = cycle_rng(self.seed, PROBE_CYCLE)
        return [self.invalid("probe", rng, kind) for kind in INVALID]

    def path(self, arg: str) -> str:
        return arg.replace("{work}", str(self.work))

    def valid(self, c: int, command: str, argv: list[str], files=()) -> Op:
        key = "c%d %s" % (c, " ".join(argv))

        def run():
            return self.launch([self.path(a) for a in argv])

        def check(proc):
            out = proc.stdout
            expect(proc.returncode == 0 and not proc.stderr,
                   f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
            if command in ("entropy", "trace-check") or out.startswith(b"{"):
                strict_json(out.decode())
            produced = [Path(self.path(f)).read_bytes() for f in files]
            if c == 0 and command in ("figure2", "figure3"):
                for data, suffix in zip(produced, (".csv", ".svg")):
                    expect(data == (GOLDEN_DIR / (command + suffix)).read_bytes(),
                           f"{command}{suffix} differs from the committed figure")
            else:
                want_out, want_files = self.in_process(argv, files)
                expect(out == want_out, "stdout differs from the in-process CLI")
                expect(produced == want_files, "output files differ from the in-process CLI")
            want = self.golden.get(key)
            if want is not None:
                expect(sha256(out) == want["stdout"], "stdout differs from the golden output")
                expect([sha256(d) for d in produced] == want["files"],
                       "output files differ from the golden output")
            for f in files:
                Path(self.path(f)).unlink()

        return Op(key, run, check)

    def in_process(self, argv: list[str], files) -> tuple[bytes, list[bytes]]:
        """The same command through ``cli.main`` in this process."""
        mine = {f: f.replace("{work}/", "{work}/expected_") for f in files}
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([self.path(mine.get(a, a)) for a in argv])
        expect(code == 0, f"in-process CLI exit {code}")
        produced = []
        for f in files:
            path = Path(self.path(mine[f]))
            produced.append(path.read_bytes())
            path.unlink()
        return buf.getvalue().encode(), produced

    @staticmethod
    def check_suite(proc) -> None:
        lines = proc.stdout.decode().splitlines()
        results = [line for line in lines if line.startswith("[")]
        fails = [line for line in results if line.startswith("[FAIL]")]
        expect(len(results) == 13 and not proc.stderr,
               f"check printed {len(results)} results, stderr {proc.stderr.decode()[-200:]!r}")
        if proc.returncode == 0 and not fails and lines[-1] == "all checks passed":
            return
        if (proc.returncode == 1 and len(fails) == 1
                and fails[0].startswith("[FAIL] tau_constant:")):
            detail = fails[0].split()
            rel = float(detail[3].split("=")[1])
            runtime_us = float(detail[4].split("=")[1].rstrip("us"))
            if rel <= 5e-5 and runtime_us >= 1000.0:
                raise ContractBroken("check_tau exceeded its 1 ms wall-clock bound")
        raise WrongOutput(f"check failed: {fails}")

    def invalid(self, tag: str, rng, kind: str) -> Op:
        scheme = self.scheme_args(rng)
        name = str(rng.choice(en.QUANTITY_NAMES))
        argv = {
            "order20": ["entropy", "--q", str(rng.choice(SERIES_QUANTITIES)), *scheme,
                        "--order", "20"],
            "m0_inf": ["entropy", "--q", name, *scheme, "--m0", "inf"],
            "missing_config": ["--config", "{work}/missing.json", "tau"],
            "unknown_q": ["entropy", "--q", "no_such_quantity", *scheme],
        }[kind]

        def check(proc):
            err = proc.stderr.decode().strip()
            if (proc.returncode != 2 or proc.stdout or not err or "\n" in err
                    or "Traceback" in err):
                raise ContractBroken(
                    f"invalid input ({kind}): exit {proc.returncode}, "
                    f"{len(err.splitlines())} stderr lines, {len(proc.stdout)} stdout bytes")

        return Op(f"{tag} invalid {kind} " + " ".join(argv),
                  lambda: self.launch([self.path(a) for a in argv]), check)


WORKLOADS = {"cli_cold": CliCold, "sweep": Sweep, "registry": Registry, "oracle": Oracle}
