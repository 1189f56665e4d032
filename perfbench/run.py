"""User-path benchmark of the replay system.

Run from the repository root::

    python3 perfbench/run.py --workload single-replay --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``single-replay`` -- closed loop, one client, ``api.replay(capture).run()``
  at the default ``ReplayConfig`` over distinct seeded traces (``core``).
* ``fleet-256`` -- closed loop of ``ClusterReplayer.replay`` over a
  256-rank DDP-RM fleet captured rank by rank (``cluster``).
* ``daemon-sweep`` -- open loop of sweep jobs submitted over HTTP to an
  in-process ``ReplayDaemon`` (``daemon``, ``service``).

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` is the separate traced run: it records spans around every public call,
splits the time across the layers, reports the per-layer metrics, and
writes the spans as Chrome-trace JSON under ``.perfbench-out/``.

Every output is checked against a scalar-loop (``vectorized=False``)
reference; a mismatch counts as a failed operation.  Each metric is printed
as ``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = {
    "single-replay": "single_replay",
    "fleet-256": "fleet",
    "daemon-sweep": "daemon_sweep",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.seed, args.seconds, bool(args.trace), OUT_DIR)

    names = {metric["name"] for metric in declared}
    unknown = sorted(set(outcome.metrics) - names)
    if unknown:
        print(f"error: undeclared metric(s) {unknown}", file=sys.stderr)
        return 2
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name in outcome.metrics:
            value = float(outcome.metrics[name])
            print(f"{name} {value:.6g} {unit}")
        elif args.trace:
            # Per-layer metric of a layer this workload does not exercise.
            value = 0.0
            print(f"{name} 0 {unit} (layer not exercised)")
        else:
            print(f"error: end-to-end metric {name!r} not measured", file=sys.stderr)
            return 2
        metrics[name] = {"value": value, "unit": unit}
    for name, value, unit in outcome.notes:
        print(f"{name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
