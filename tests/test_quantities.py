"""The quantity table: what each quantity reads, and the README's copy of it.

For every (quantity, input) pair, an input in the quantity's ``reads`` must
move some printed part (``pole2``, ``pole1``, ``logeps``, ``finite``,
``residual_im``) by more than 1e-6, and an input outside it must move none by
more than 1e-12 (absolute).  Both bounds are fixed.  Inputs outside ``reads``
are varied from seeded schemes over the documented ranges; inputs inside it
from the unit scheme, where every dependence shows, over the same ranges.
``nonpert`` runs at its default density, so ``m0`` reaches it as ``m_phys``.

The parts a quantity prints do not depend on the truncation order: they are
equal bit for bit at order 0 and at orders 1, 4, 9 and 32.  The CLI relies on
this to build ``entropy`` at order 0 whatever its ``--order``.
"""

import random
from pathlib import Path

import pytest

from loopentropy import contour as ct
from loopentropy import entropy as en
from loopentropy.loops import SchemeParams
from test_cli_ledger import CORNERS  # as (m0, mu, lambda0, tv)

README = Path(__file__).resolve().parent.parent / "README.md"
INPUTS = ("m0", "mu", "lambda0", "tv", "contour", "spectrum")
SEED = 20154
DRAWS = 4
MOVES, STAYS = 1e-6, 1e-12


def _magnitude(rng: random.Random, lo: float = -30.0, hi: float = 30.0) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _coupling(rng: random.Random) -> float:
    return rng.choice((0.0, -1.0, 1.0)) * _magnitude(rng)


def _draw(rng: random.Random, name: str):
    """A seeded value of the input ``name``, as a change to the call."""
    if name == "lambda0":
        return {"lambda0": _coupling(rng)}
    if name in ("m0", "mu", "tv"):
        return {name: _magnitude(rng)}
    if name == "contour":
        cut = rng.uniform(1e-3, 0.999)
        return {"use_tau": False, "cfg": ct.ContourConfig(endpoint_cut=cut)}
    samples = tuple((_magnitude(rng, -60.0, 60.0), _magnitude(rng, -30.0, 30.0))
                    for _ in range(rng.randint(0, 2)))
    return {"sd": en.SpectralDensity(Z=_magnitude(rng, -30.0, 0.0), m_phys=_magnitude(rng),
                                     multiparticle=samples)}


def _parts(name: str, call: dict) -> list[float]:
    scheme = {k: call[k] for k in ("m0", "mu", "lambda0", "tv")}
    extra = {k: call[k] for k in ("use_tau", "cfg", "sd") if k in call}
    bd = en.compute_quantity(name, SchemeParams(order=call["order"], **scheme),
                             **extra)
    return [bd.pole2.real, bd.pole2.imag, bd.pole1.real, bd.pole1.imag,
            bd.logeps.real, bd.logeps.imag, bd.finite, bd.residual_im]


def _largest_move(name: str, base: dict, change: dict) -> float:
    before, after = _parts(name, base), _parts(name, {**base, **change})
    return max(abs(a - b) for a, b in zip(before, after))


def test_every_reads_names_known_inputs():
    for name, quantity in en.QUANTITIES.items():
        assert quantity.reads <= set(INPUTS), name


@pytest.mark.parametrize("name", en.QUANTITY_NAMES)
def test_a_quantity_moves_with_exactly_the_inputs_it_reads(name):
    rng = random.Random(f"{SEED}-{name}")
    reads = en.QUANTITIES[name].reads
    for input_name in INPUTS:
        for _ in range(DRAWS):
            order = rng.choice((0, 1, 4, 9, 32))
            if input_name in reads:
                base = {"m0": 1.0, "mu": 1.0, "lambda0": 1.0, "tv": 1.0, "order": order}
                move = _largest_move(name, base, _draw(rng, input_name))
                assert move > MOVES, (name, input_name, move)
            else:
                base = {"m0": _magnitude(rng), "mu": _magnitude(rng),
                        "lambda0": _coupling(rng), "tv": _magnitude(rng), "order": order}
                move = _largest_move(name, base, _draw(rng, input_name))
                assert move <= STAYS, (name, input_name, base, move)


N_SCHEMES = 24


def _order_cases(rng: random.Random) -> list[tuple[str, dict, dict]]:
    """(name, scheme, extra arguments) for every quantity at seeded schemes
    (every third coupling 0, every third negative) and at the corners, plus
    ``nonpert`` at explicit densities and ``total21`` at seeded cuts."""
    schemes = [{"m0": _magnitude(rng), "mu": _magnitude(rng),
                "lambda0": (0.0, -1.0, 1.0)[i % 3] * _magnitude(rng), "tv": _magnitude(rng)}
               for i in range(N_SCHEMES)]
    schemes += [dict(zip(("m0", "mu", "lambda0", "tv"), corner)) for corner in CORNERS]
    cases = [(name, scheme, {}) for scheme in schemes for name in en.QUANTITIES]
    for scheme in schemes[:N_SCHEMES]:
        sd = en.SpectralDensity(Z=_magnitude(rng, -30.0, 0.0), m_phys=_magnitude(rng))
        cases.append(("nonpert", scheme, {"sd": sd}))
        cut = ct.ContourConfig(endpoint_cut=rng.uniform(1e-3, 0.999))
        cases.append(("total21", scheme, {"use_tau": False, "cfg": cut}))
    return cases


def test_printed_parts_do_not_depend_on_the_order():
    for name, scheme, extra in _order_cases(random.Random(f"{SEED}-orders")):
        want = en.compute_quantity(name, SchemeParams(order=0, **scheme), **extra)
        for order in (1, 4, 9, 32):
            got = en.compute_quantity(name, SchemeParams(order=order, **scheme), **extra)
            assert got.to_json_dict() == want.to_json_dict(), (name, scheme, extra, order)


def _readme_rows() -> list[list[str]]:
    section = README.read_text().split("\n## Quantities\n", 1)[1].split("\n## ", 1)[0]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]


def test_readme_quantities_table_is_the_registry():
    rows = _readme_rows()
    assert [row[0] for row in rows] == [f"`{name}`" for name in en.QUANTITIES]
    for (cell, meaning, reads), quantity in zip(rows, en.QUANTITIES.values()):
        assert meaning == quantity.meaning, cell
        want = ", ".join(f"`{i}`" for i in INPUTS if i in quantity.reads) or "nothing"
        assert reads == want, cell
