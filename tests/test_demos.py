"""Each demo's stdout, by hash.

``tests/data/demo_stdout.json`` holds the sha256 of what each script in
``demos/`` prints.  Demos 02 and 04 print quadrature values, so, like the
CPU-dependent entries of the CLI ledger, they are compared only under the
numpy and scipy versions and the ufunc fingerprint recorded in the file.

Each demo runs in-process from a copy in a temporary directory, so 05 writes
its figures there and never into ``demos/output``; that directory prints as
``{tmp}``.

Regenerate only for a change that is meant to move output:

    PYTHONPATH=src python tests/test_demos.py
"""

import hashlib
import io
import json
import runpy
import shutil
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from test_cli_ledger import (_skip_unless_ufuncs_match, _skip_unless_versions_match,
                             _ufunc_fingerprint, _versions)

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PINS = Path(__file__).resolve().parent / "data" / "demo_stdout.json"
NAMES = sorted(path.name for path in DEMOS.glob("*.py"))
QUADRATURE = ("02_loop_integrals.py", "04_contour_and_replica.py")


def run_demo(name: str) -> str:
    """What ``demos/<name>`` prints, run in-process from a temporary copy."""
    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp) / name
        shutil.copyfile(DEMOS / name, script)
        out = io.StringIO()
        with redirect_stdout(out):
            runpy.run_path(str(script), run_name="__main__")
    return out.getvalue().replace(tmp, "{tmp}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", NAMES)
def test_demo_stdout_matches_its_pin(name):
    pins = json.loads(PINS.read_text())
    assert sorted(pins["demos"]) == NAMES
    if name in QUADRATURE:
        _skip_unless_versions_match(pins)
        _skip_unless_ufuncs_match(pins)
    assert _sha256(run_demo(name)) == pins["demos"][name]


if __name__ == "__main__":
    PINS.write_text(json.dumps({"versions": _versions(), "ufuncs": _ufunc_fingerprint(),
                                "demos": {name: _sha256(run_demo(name)) for name in NAMES}},
                               indent=1) + "\n")
