"""The public API, pinned: each name in ``loopentropy.__all__`` with its
signature, so that adding, removing or changing a public name shows as a
diff of ``tests/data/public_api.json``.  Regenerate it after a deliberate
API change with ``PYTHONPATH=src python tests/test_public_api.py``.
"""

import inspect
import json
from pathlib import Path

import loopentropy

SNAPSHOT = Path(__file__).resolve().parent / "data" / "public_api.json"


def _describe(value) -> str:
    """A callable's signature, an exception class's bases, or a value's type."""
    if not callable(value):
        return type(value).__name__
    try:
        return str(inspect.signature(value))
    except ValueError:  # an exception class has no signature of its own
        return "subclass of " + ", ".join(base.__name__ for base in value.__bases__)


def public_api() -> dict[str, str]:
    return {name: _describe(getattr(loopentropy, name)) for name in loopentropy.__all__}


def test_the_public_api_matches_its_snapshot():
    assert public_api() == json.loads(SNAPSHOT.read_text())


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(public_api(), indent=1) + "\n")
