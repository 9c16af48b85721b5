"""Record the golden outputs of the default seed.

    PYTHONPATH=src python3 bench/make_golden.py

Writes ``golden/registry.json`` (a digest of each registry answer in the
leading cycles) and ``golden/cli_cold.json`` (SHA-256 of stdout and of each
written file for the deterministic CLI ops in the leading cycles).  The
figure files in ``golden/`` are copies of the committed ``demos/output``
figures.  Every recorded output must first pass the workload's own checks.  Record
goldens only from a commit whose outputs are trusted.
"""

import json
import shutil
from pathlib import Path

import workloads as wls


def registry() -> dict:
    wl = wls.Registry(wls.DEFAULT_SEED, Path("."), golden=False)
    cycles = []
    for c in range(wls.REGISTRY_GOLDEN_CYCLES):
        entries = []
        for op in wl.cycle(c):
            result = op.run()
            op.check(result)
            entries.append([op.key, wls.digest(result)])
        cycles.append(entries)
    return {"seed": wls.DEFAULT_SEED, "cycles": cycles}


def cli_cold(work: Path) -> dict:
    wl = wls.CliCold(wls.DEFAULT_SEED, work, golden=False)
    golden = {}
    for c in range(wls.CLI_GOLDEN_CYCLES):
        for op in wl.cycle(c):
            if " check" in op.key or " invalid " in op.key:
                continue
            proc = op.run()
            files = [a for a in op.key.split() if a.startswith("{work}/")]
            golden[op.key] = {
                "stdout": wls.sha256(proc.stdout),
                "files": [wls.sha256(Path(wl.path(f)).read_bytes()) for f in files]}
            op.check(proc)
    return golden


def main() -> None:
    out = wls.GOLDEN_DIR
    (out / "registry.json").write_text(json.dumps(registry()) + "\n")
    work = wls.BENCH_DIR.parent / ".bench_work" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    try:
        (out / "cli_cold.json").write_text(json.dumps(cli_cold(work), indent=1) + "\n")
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    main()
