"""The figure commands at their default options reproduce the committed
figure files in ``demos/output`` byte for byte."""

from pathlib import Path

import pytest

from loopentropy.cli import main

OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"


@pytest.mark.parametrize("figure", ["figure2", "figure3"])
def test_default_figure_matches_committed_bytes(figure, tmp_path):
    csv, svg = tmp_path / f"{figure}.csv", tmp_path / f"{figure}.svg"
    assert main([figure, "--out", str(csv), "--svg", str(svg)]) == 0
    assert csv.read_bytes() == (OUTPUT / f"{figure}.csv").read_bytes()
    assert svg.read_bytes() == (OUTPUT / f"{figure}.svg").read_bytes()
