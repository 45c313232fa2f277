#!/usr/bin/env python
"""Closed-source analysis: traces in, insight out.

The paper emphasizes that ThreadFuser "can be applied to any CPU binary,
even closed source": the analyzer needs only the dynamic trace file, not
the program.  This example plays both sides of that wall:

* a "vendor" machine runs a proprietary service and ships a trace file;
* an "analyst" loads the file -- with no access to the program -- and
  produces the full SIMT report, including the function-level bottleneck
  breakdown (function *names* come from the trace's call events, exactly
  what PIN records from the symbol table).

Run:  python examples/closed_source.py
"""

import os
import tempfile

from repro.core import analyze_traces
from repro.session import AnalysisSession
from repro.tracer import load_traces, save_traces


def vendor_side(path: str) -> None:
    """The party with the binary: run it traced, ship the trace file."""
    session = AnalysisSession()
    traces = session.trace("dsb_usertag", n_threads=96)
    save_traces(traces, path)
    print(f"[vendor]  traced {len(traces)} requests "
          f"({traces.total_instructions} instructions) -> {path} "
          f"({os.path.getsize(path) // 1024} KiB)")


def analyst_side(path: str) -> None:
    """The party without source or binary: trace file only."""
    traces = load_traces(path)  # note: no program handed over
    print(f"[analyst] loaded {len(traces)} logical threads, "
          f"traced fraction {traces.traced_fraction():.1%}")
    for warp_size in (8, 16, 32):
        report = analyze_traces(traces, warp_size=warp_size)
        print(f"[analyst] warp {warp_size:>2}: "
              f"SIMT efficiency {report.simt_efficiency:6.1%}")
    report = analyze_traces(traces, warp_size=32)
    print("[analyst] per-function breakdown (from trace call events):")
    for fr in report.per_function():
        print(f"          {fr.name:<16} {fr.instruction_share:>6.1%} "
              f"of instructions at {fr.efficiency:>6.1%} efficiency")
    hot = report.divergence_hotspots(top=3)
    print("[analyst] divergence hotspots (function, block address, splits):")
    for function, addr, count, _label in hot:
        print(f"          {function:<16} {addr:#010x}  {count}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "service.trace")
        vendor_side(path)
        analyst_side(path)
    print()
    print("No source, no binary -- the trace alone supports the whole "
          "first-order analysis.")


if __name__ == "__main__":
    main()
