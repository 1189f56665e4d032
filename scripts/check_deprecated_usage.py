#!/usr/bin/env python3
"""CI guard against deprecated / banned API usage inside ``src/``.

Four rules, one pass:

* ``BatchReplayer`` must not be constructed outside ``src/repro/service/``
  and ``src/repro/daemon/`` — batch work flows through the facade
  (``repro.api.sweep``), the service layer, or the daemon's job queue, so
  cache policy, error reporting and pause semantics stay in one place.
* ``time.time(`` is banned wherever the package measures *host* durations
  (``src/repro/bench/`` and ``src/repro/profiling/``): it is not monotonic
  (NTP slews and clock steps corrupt measured windows), so all wall-time
  deltas use ``time.perf_counter()``.
* Bare ``print(`` is banned inside ``src/repro/`` outside the CLI and the
  daemon's HTTP front-end: library code reports through return values, the
  telemetry layer (``repro.telemetry``), or an explicit stream
  (``print(..., file=...)`` / ``sys.stderr.write``) — never by writing to
  whatever stdout happens to be attached (which corrupts ``--json`` output
  and daemon logs).
* Direct ``json.dump(s)`` of analysis/CLI payloads is banned inside
  ``src/repro/insights/`` and ``src/repro/service/`` outside
  ``service/serialize.py`` — every ``--json`` and daemon payload renders
  through the shared serializer (``serialize.dumps`` /
  ``serialize.dumps_compact``), so payload shape and encoding policy stay
  in one place.  (``json.loads`` is fine anywhere.)

Run from the repository root (``make lint`` does).  Exit code 0 when clean,
1 with a file:line listing otherwise.  ``tests/test_profiling.py`` drives
:func:`find_offenders` directly to keep the rules themselves honest.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Rule:
    """One banned-usage rule: a pattern, where it applies, and why."""

    name: str
    pattern: re.Pattern
    #: Directories (relative to the repo root) the rule scans.
    roots: Tuple[str, ...]
    message: str
    #: Paths (relative to the repo root) exempt from the rule: exact files,
    #: or whole directories when the entry ends with ``/``.
    exempt: Tuple[str, ...] = field(default=())


RULES = (
    Rule(
        name="direct-batch-replayer",
        # Batch execution policy (cache, error capture, pause semantics)
        # lives in the service layer and the daemon's queue; nothing else
        # constructs the replayer directly.
        pattern=re.compile(r"\bBatchReplayer\("),
        roots=("src",),
        exempt=(
            "src/repro/service/",
            "src/repro/daemon/",
        ),
        message=(
            "BatchReplayer constructed outside service/ and daemon/ (submit "
            "through repro.api.sweep, the service layer, or the daemon queue)"
        ),
    ),
    Rule(
        name="non-monotonic-clock",
        pattern=re.compile(r"\btime\.time\("),
        roots=("src/repro/bench", "src/repro/profiling"),
        message=(
            "time.time() used where host durations are measured (it is not "
            "monotonic; use time.perf_counter())"
        ),
    ),
    Rule(
        name="bare-print",
        # A print( call with no file= argument on the same line.  The
        # lookbehind keeps method calls (self.print(), console.print()) and
        # string literals mentioning print( out of scope.
        pattern=re.compile(r"(?<![\w.\"'])print\((?!.*\bfile\s*=)"),
        roots=("src/repro",),
        exempt=(
            "src/repro/service/cli.py",
            "src/repro/daemon/server.py",
        ),
        message=(
            "bare print() in library code (route output through return "
            "values, repro.telemetry, or an explicit print(..., file=...))"
        ),
    ),
    Rule(
        name="serializer-bypass",
        # Matches json.dump( and json.dumps( but not json.loads(.
        pattern=re.compile(r"\bjson\.dumps?\("),
        roots=("src/repro/insights", "src/repro/service"),
        exempt=(
            "src/repro/service/serialize.py",
            # The result cache persists its own entries; not a payload
            # anything prints or serves.
            "src/repro/service/cache.py",
        ),
        message=(
            "json.dump(s) of an analysis/CLI payload outside "
            "service/serialize.py (render through serialize.dumps / "
            "serialize.dumps_compact so payload shapes stay in one place)"
        ),
    ),
)


def find_offenders(root: Path = Path(".")) -> Dict[str, List[str]]:
    """Scan the tree under ``root``; rule name -> ``file:line: text`` hits."""
    offenders: Dict[str, List[str]] = {}
    for rule in RULES:
        exempt_files = {root / path for path in rule.exempt if not path.endswith("/")}
        exempt_dirs = [root / path for path in rule.exempt if path.endswith("/")]
        for scan_root in rule.roots:
            base = root / scan_root
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                if path in exempt_files:
                    continue
                if any(directory in path.parents for directory in exempt_dirs):
                    continue
                for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                    if rule.pattern.search(line):
                        offenders.setdefault(rule.name, []).append(
                            f"{path}:{lineno}: {line.strip()}"
                        )
    return offenders


def main() -> int:
    if not Path("src").is_dir():
        print("check_deprecated_usage: run from the repository root", file=sys.stderr)
        return 2
    offenders = find_offenders()
    if offenders:
        messages = {rule.name: rule.message for rule in RULES}
        for name, hits in sorted(offenders.items()):
            print(f"{messages[name]}:", file=sys.stderr)
            for hit in hits:
                print(f"  {hit}", file=sys.stderr)
        return 1
    print(f"check_deprecated_usage: OK ({len(RULES)} rules, no offenders)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
