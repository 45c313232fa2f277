"""Start ``threadfuser serve`` with the traced run's layer wrappers.

Usage: ``python perfbench/serve_launcher.py SPANS_JSON serve [ARGS...]``

Installs the same span wrappers as the harness (on the host wall clock,
so spans line up with the job documents' stamps), hands over to the
``serve`` command, and writes the spans to ``SPANS_JSON`` when the
server stops (SIGINT).
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans as spans_mod  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    spans = spans_mod.Spans(clock=time.time)
    spans_mod.install(spans)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        spans.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
