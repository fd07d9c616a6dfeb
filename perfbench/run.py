"""Run one workload of the vsep benchmark and print its metrics.

    python3 perfbench/run.py --workload search_mix --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; vsep is imported from ``src/``.  The
workloads are described in ``workloads.py``.  Every output is checked:
separators are re-validated, certificates re-checked from their parts,
and each solve's determinism digest is printed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median seconds of one pass, first solve call to last return;
* ``setup_s``: median seconds, over fresh interpreters, to import vsep and
  build the workload's graphs and configurations;
* ``peak_rss_mb``: peak resident memory of this process;
* ``cost_ratio``: worst cost / reference over the instances of a pass,
  averaged over the quality passes (on ``certify_k4``, which returns a
  bound rather than a separator: reference / certified lower bound).

``certificates`` (accepted per pass) and ``error_rate`` (failed over
attempted solves) are printed with them, above the JSON line.

``--trace 1`` reports the per-layer metrics of ``tracing.py`` from traced
passes, each paired with an untraced pass on the same seed for the
tracing overhead.  Spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vsep" / "__init__.py").is_file():
        print(f"perfbench: vsep sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import harness
    import workloads
    from tracing import PER_LAYER_UNITS

    if args.workload not in workloads.WORKLOADS:
        names = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r} (one of {names})", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    tally = harness.Tally(workload)
    tally.problems.extend(workloads.verify_references(workload))
    if args.trace:
        values = harness.run_traced(workload, args.seed, args.seconds, tally, OUT_DIR)
        units = PER_LAYER_UNITS
    else:
        values = harness.run_untraced(workload, args.seed, args.seconds, tally)
        units = harness.END_TO_END_UNITS

    failed = len(tally.failures)
    lines = tally.lines + [f"FAILED {f}" for f in tally.failures]
    lines += [f"PROBLEM {p}" for p in tally.problems]
    lines += [f"{workload.name} {name} = {values[name]:.6g} {unit}" for name, unit in units.items()]
    lines.append(
        f"{workload.name} error_rate = {failed / tally.attempted:g} ratio "
        f"({failed} of {tally.attempted} solves failed)"
    )
    print("\n".join(lines))
    result = {
        "correct": failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
