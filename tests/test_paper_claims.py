"""The README's Paper claims table, recomputed.

Each row states a claim of the paper's abstract, what the library computes
for it, a verdict and where it is checked.  This test recomputes every
verdict and every series a row quotes, and finds every check it names.
"""

import math
import re
from pathlib import Path

from loopentropy import checks
from loopentropy import entropy as en
from loopentropy.params import MASS_MAX, MASS_MIN, SchemeParams

ROOT = Path(__file__).resolve().parents[1]
# "every m0" in the table: MASS_MIN to MASS_MAX, five decades apart
M0S = [10.0 ** e for e in range(-30, 31, 5)]
# how far rounding moves a part at the largest |log m0|
ROUNDING = 1e-12


def _quantity(name: str, m0: float = 1.0):
    return en.compute_quantity(name, SchemeParams(m0=m0))


def _quoted(name: str) -> str:
    """A quantity's printed parts at the defaults, as the table quotes them:
    ``-4/eps - log(eps) - 1.67575``."""
    bd = _quantity(name)
    text = ""
    for c, unit in ((bd.pole2.real, "/eps^2"), (bd.pole1.real, "/eps"),
                    (bd.logeps.real, "log(eps)"), (bd.finite, "")):
        if c == 0:
            continue
        if unit == "log(eps)":
            number = "" if abs(c) == 1 else f"{abs(c):g} "
        else:
            number = f"{abs(c):g}" if unit else f"{abs(c):.5f}"
        sign = "-" if c < 0 else "+"
        text += f"{sign}{number}{unit}" if not text else f" {sign} {number}{unit}"
    return text


def _slope() -> str:
    for name in ("total21", "ext21", "int21"):
        base = _quantity(name).finite
        for m0 in M0S:
            if abs(_quantity(name, m0).finite - base - 4.0 * math.log(m0)) > ROUNDING:
                return "not reproduced"
    return "reproduced"


def _mutual_is_external() -> str:
    for m0 in M0S:
        ext, mutual = _quantity("ext21", m0).series, _quantity("mutual21", m0).series
        # S_ext - I = S_total - S_int, the conditional entropy S(ext|int)
        assert (ext - mutual).max_coeff_diff(_quantity("cond_ext_int", m0).series,
                                             through_k=0) <= ROUNDING
        if ext.max_coeff_diff(mutual, through_k=0) > ROUNDING:
            return "not reproduced"
    return "reproduced"


def _conditionals_negative() -> str:
    verdict = "reproduced"
    for name in ("cond_ext_int", "cond_int_ext"):
        parts = [_quantity(name, m0) for m0 in M0S]
        finites = [bd.finite for bd in parts]
        if max(finites) >= 0 or max(finites) - min(finites) > ROUNDING:
            return "not reproduced"
        if any(bd.pole2 or bd.pole1 or bd.logeps for bd in parts):
            verdict = "finite parts only"
    return verdict


def _trace_relations() -> str:
    return "reproduced" if checks.check_trace_relations().passed else "not reproduced"


# claim -> its verdict, and the parts its "Computed here" cell quotes
CLAIMS = {
    "entropies grow as ln(m0)": (_slope, lambda: []),
    "mutual information is identical to the external entropy": (
        _mutual_is_external,
        lambda: [_quoted("mutual21"), _quoted("ext21"), _quoted("cond_ext_int")]),
    "conditional entropies are negative for all m0": (
        _conditionals_negative,
        lambda: [f"({_quantity('cond_ext_int').finite:.5f})",
                 f"({_quantity('cond_int_ext').finite:.5f})", _quoted("cond_int_ext")]),
    "total-trace relations for phi^r": (_trace_relations, lambda: []),
    "partial traces over external degrees of freedom": (lambda: "not computed", lambda: []),
}


def _rows() -> dict:
    section = (ROOT / "README.md").read_text().split("\n## Paper claims\n", 1)[1]
    table = [line for line in section.split("\n## ", 1)[0].splitlines()
             if line.startswith("|")]
    return {cells[0]: cells[1:] for cells in
            ([cell.strip() for cell in line.strip("|").split("|")] for line in table[2:])}


def test_readme_claims_table_is_recomputed():
    assert (M0S[0], M0S[-1]) == (MASS_MIN, MASS_MAX)
    rows = _rows()
    assert list(rows) == list(CLAIMS)
    for claim, (verdict, quoted) in CLAIMS.items():
        computed, stated, checked_by = rows[claim]
        assert stated == verdict(), claim
        for text in quoted():
            assert text in computed, (claim, text)
        assert checked_by.startswith(("`check` line", "`tests/")) or checked_by == "none"


def test_every_check_the_table_names_passes():
    cells = [row[2] for row in _rows().values()]
    results = {r.name: r.status for r in checks.run_all()}
    for name in re.findall(r"`check` line `(\w+)`", " ".join(cells)):
        assert results[name] == "PASS", name
    for path, test in re.findall(r"`(tests/\w+\.py)::(\w+)`", " ".join(cells)):
        assert f"def {test}(" in (ROOT / path).read_text(), (path, test)
