"""Runs the loopentropy CLI under the tracer.

    BENCH_TRACE_OUT=summary.json python3 -X importtime bench/cli_child.py ARGS...

Behaves as ``loopentropy ARGS...`` (same stdout, stderr and exit code) and
writes the span summary to the file named by ``BENCH_TRACE_OUT``.
"""

import json
import os
import sys

from tracer import SUBCOMMANDS, Tracer, install

from loopentropy import cli


def main() -> int:
    argv = sys.argv[1:]
    command = next((a for a in argv if a in SUBCOMMANDS), "none")
    tracer = install(Tracer())
    try:
        with tracer.span("cli.main." + command):
            return cli.main(argv)
    finally:
        with open(os.environ["BENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
