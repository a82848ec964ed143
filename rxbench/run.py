#!/usr/bin/env python3
"""System R/X benchmark: three closed-loop workloads through DatabaseServer.

Run from the repository root::

    python3 rxbench/run.py --workload catalog_scan --seed 1 --seconds 40
    python3 rxbench/run.py --workload commit_mix --seed 1 --trace 1
    python3 rxbench/run.py --smoke        # every workload, tiny, traced

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed; ``--trace 1`` prints the per-layer metrics (counts from an
untraced window, times from a traced one).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The engine is
imported from ``src/`` next to this directory; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("catalog_scan", "index_lookup",
                                 "commit_mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size, traced, "
                             "and exit non-zero unless all are correct")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _print_result(name: str, result) -> None:
    for note in result.notes:
        print(f"[{name}] {note}")
    for metric, (value, unit) in {**result.metrics,
                                  **result.printed}.items():
        print(f"[{name}] {metric:36s} {value:14.6f} {unit}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"rxbench: engine source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    from workloads import WORKLOADS

    spans_dir = os.path.join(ROOT, ".rxbench")
    if args.smoke:
        ok = True
        for name, cls in WORKLOADS.items():
            result = harness.run(cls, args.seed, seconds=0.5, trace=True,
                                 scale=0.1)
            _print_result(name, result)
            ok = ok and result.correct and result.failed == 0
        print(json.dumps({"smoke": "ok" if ok else "failed"}))
        return 0 if ok else 1

    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace),
                         spans_dir=spans_dir if args.trace else None)
    _print_result(args.workload, result)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
