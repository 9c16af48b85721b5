"""Every coefficient of every registry quantity and loop series, bit for bit.

The figure CSVs and the CLI JSON carry only pole and finite parts, so a
change to the series kernel that moved the last bits of a higher
coefficient would pass them.  ``tests/data/series_golden.json`` holds
``[k, l, re.hex(), im.hex()]`` for each coefficient, in the series' own
key order, at seeded schemes (negative couplings and numpy masses
included) and orders 0-8 and ``MAX_ORDER``; this test compares exactly.
Its ``loop_records`` do the same for the loop layer below the registry:
``delta``/``chi`` and their ratio at j = 0..3 for the first four schemes'
masses, and the Gamma and harmonic expansions at the keys the loop
series ask for at those orders, (j - 1, -0.5, n) and (j - 2, -0.5, n) for
n = order, order + 1 and order + 2.

Regenerate only for a change that is meant to move bits:

    PYTHONPATH=src python tests/test_series_golden.py
"""

import json
import random
from pathlib import Path

import numpy as np

from loopentropy.entropy import QUANTITY_NAMES, compute_quantity
from loopentropy.epsseries import gamma_series, harmonic_series
from loopentropy.loops import (MAX_ORDER, SchemeParams, chi_over_delta_series_m2,
                               chi_series_m2, delta_series_m2, delta_stripped_series_m2)

GOLDEN = Path(__file__).resolve().parent / "data" / "series_golden.json"
SEED = 20151
N_SCHEMES = 12
ORDERS = tuple(range(9)) + (MAX_ORDER,)
LOOP_JS = range(4)
LOOP_SCHEMES = 4
LOOP_SERIES = {
    "delta": delta_series_m2,
    "delta_stripped": delta_stripped_series_m2,
    "chi": chi_series_m2,
    "chi_over_delta": chi_over_delta_series_m2,
    "chi_over_delta_real": lambda j, m2, order: chi_over_delta_series_m2(
        j, m2, order, real_branch=True),
}
# the expansions behind the loop series, with the c0 they take at loop index j
EXPANSIONS = {
    "gamma": (gamma_series, lambda j: j - 1),
    "harmonic": (harmonic_series, lambda j: j - 2),
}


def schemes() -> list[dict]:
    """Seeded (m0, mu, lambda0, tv): every second coupling is negative, one
    is zero, and every third mass is a numpy float."""
    rng = random.Random(SEED)
    out = []
    for i in range(N_SCHEMES):
        m0 = 10.0 ** rng.uniform(-2.0, 2.0)
        lam = (-1.0) ** i * 10.0 ** rng.uniform(-3.0, 3.0)
        out.append({
            "m0": np.float64(m0) if i % 3 == 2 else m0,
            "mu": 10.0 ** rng.uniform(-2.0, 2.0),
            "lambda0": 0.0 if i == 4 else lam,
            "tv": 10.0 ** rng.uniform(-3.0, 3.0),
        })
    return out


def _terms(series) -> dict:
    return {
        "kmax": series.kmax,
        "terms": [[k, l, float.hex(c.real), float.hex(c.imag)]
                  for (k, l), c in series.coeffs.items()],
    }


def records() -> list[dict]:
    out = []
    for scheme in schemes():
        for order in ORDERS:
            params = SchemeParams(order=order, **scheme)
            for name in QUANTITY_NAMES:
                series = compute_quantity(name, params).series
                out.append({
                    "m0": float.hex(float(scheme["m0"])),
                    "order": order,
                    "name": name,
                    **_terms(series),
                })
    return out


def loop_records() -> list[dict]:
    out = []
    for scheme in schemes()[:LOOP_SCHEMES]:
        m2 = SchemeParams(**scheme).m2
        for order in ORDERS:
            for name, fn in LOOP_SERIES.items():
                for j in LOOP_JS:
                    out.append({"m2": float.hex(float(m2)), "order": order, "name": name,
                                "j": j, **_terms(fn(j, m2, order))})
    for name, (fn, c0) in EXPANSIONS.items():
        for j in LOOP_JS:
            for order in sorted({order + k for order in ORDERS for k in range(3)}):
                out.append({"order": order, "name": name, "j": j,
                            **_terms(fn(c0(j), -0.5, order))})
    return out


def _assert_matches(got: list[dict], want: list[dict]):
    assert len(got) == len(want)
    for rec, expected in zip(got, want):
        assert rec == expected, (rec["name"], rec["order"], rec.get("m0"), rec.get("j"))


def test_every_coefficient_matches_the_golden_bit_for_bit():
    golden = json.loads(GOLDEN.read_text())
    assert golden["seed"] == SEED
    _assert_matches(records(), golden["records"])


def test_every_loop_series_coefficient_matches_the_golden_bit_for_bit():
    _assert_matches(loop_records(), json.loads(GOLDEN.read_text())["loop_records"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    # one record a line, so a regenerated golden diffs by quantity
    def lines(recs):
        return ",\n".join(json.dumps(rec, separators=(",", ":")) for rec in recs)

    GOLDEN.write_text(f'{{"seed":{SEED},"records":[\n{lines(records())}\n],'
                      f'"loop_records":[\n{lines(loop_records())}\n]}}\n')
