"""Every coefficient of every registry quantity, bit for bit.

The figure CSVs and the CLI JSON carry only pole and finite parts, so a
change to the series kernel that moved the last bits of a higher
coefficient would pass them.  ``tests/data/series_golden.json`` holds
``[k, l, re.hex(), im.hex()]`` for each coefficient, in the series' own
key order, at seeded schemes (negative couplings and numpy masses
included) and orders 0-8 and ``MAX_ORDER``; this test compares exactly.

Regenerate only for a change that is meant to move bits:

    PYTHONPATH=src python tests/test_series_golden.py
"""

import json
import random
from pathlib import Path

import numpy as np

from loopentropy.entropy import QUANTITY_NAMES, compute_quantity
from loopentropy.loops import MAX_ORDER, SchemeParams

GOLDEN = Path(__file__).resolve().parent / "data" / "series_golden.json"
SEED = 20151
N_SCHEMES = 12
ORDERS = tuple(range(9)) + (MAX_ORDER,)


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


def records() -> list[dict]:
    out = []
    for scheme in schemes():
        for order in ORDERS:
            params = SchemeParams.from_tv(order=order, **scheme)
            for name in QUANTITY_NAMES:
                series = compute_quantity(name, params).series
                out.append({
                    "m0": float.hex(float(scheme["m0"])),
                    "order": order,
                    "name": name,
                    "kmax": series.kmax,
                    "terms": [[k, l, float.hex(c.real), float.hex(c.imag)]
                              for (k, l), c in series.coeffs.items()],
                })
    return out


def test_every_coefficient_matches_the_golden_bit_for_bit():
    golden = json.loads(GOLDEN.read_text())
    assert golden["seed"] == SEED
    got = records()
    assert len(got) == len(golden["records"])
    for rec, want in zip(got, golden["records"]):
        assert rec == want, (rec["name"], rec["order"], rec["m0"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    # one record a line, so a regenerated golden diffs by quantity
    lines = ",\n".join(json.dumps(rec, separators=(",", ":")) for rec in records())
    GOLDEN.write_text(f'{{"seed":{SEED},"records":[\n{lines}\n]}}\n')
