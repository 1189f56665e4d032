"""Replay-throughput profiling (the meta layer: profiling the simulator).

Everything else in the package profiles the *simulated workload* on a
virtual clock; this package profiles the *replay engine itself* on the
host's real clock, so regressions in replay throughput are visible.

Two pieces:

* :class:`ProfileHook` — a :class:`~repro.telemetry.TelemetryHook` that
  aggregates per-operator wall time (``on_op_replayed``), hot-first,
  tinygrad ``ProfileOp``-style, and sums its ``stage:<name>`` telemetry
  spans into per-stage wall time, with an opt-in atexit summary.
* :class:`ProfileReport` — the structured, versioned result, serialized
  through :mod:`repro.service.serialize` and attached to replay results by
  ``.with_profiling()`` sessions.

All durations are measured with ``time.perf_counter()`` — never the
non-monotonic wall clock, whose NTP slews and steps would corrupt measured
windows (``scripts/check_deprecated_usage.py`` enforces this for the whole
package).
"""

from repro.profiling.profiler import ProfileHook
from repro.profiling.report import PROFILE_SCHEMA_VERSION, OpProfile, ProfileReport

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "OpProfile",
    "ProfileHook",
    "ProfileReport",
]
