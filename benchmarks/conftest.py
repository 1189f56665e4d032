"""Shared fixtures for the table/figure regeneration benchmarks.

Each benchmark file regenerates one table or figure of the paper's
evaluation section (see DESIGN.md for the per-experiment index).  Captures
of the four paper workloads are produced once per session and shared, and
every benchmark writes its rendered table/series to
``benchmarks/results/<experiment>.txt`` so the numbers quoted in
EXPERIMENTS.md can be re-derived from a single run.

Those tables and ``BENCH_replay_throughput.json`` are tracked files, so
they are written into the repository only under ``--write-results``
(``make bench``); any other run writes them under a pytest temp dir with
the same layout.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.bench.harness import CaptureResult, capture_workload
from repro.bench.throughput import BENCH_FILENAME
from repro.workloads import build_workload

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Root this session's output goes under (set by :func:`output_root`).
_output_root: Optional[Path] = None

#: The four evaluated workloads of Section 6.2, at their paper-style
#: (default) configurations.
PAPER_WORKLOADS = ("param_linear", "resnet", "asr", "rm")


@pytest.fixture(scope="session")
def paper_captures() -> Dict[str, CaptureResult]:
    """One captured iteration per paper workload on the A100 model."""
    captures: Dict[str, CaptureResult] = {}
    for name in PAPER_WORKLOADS:
        workload = build_workload(name)
        captures[name] = capture_workload(workload, device="A100", warmup_iterations=1)
    return captures


@pytest.fixture(scope="session")
def paper_workload_factory():
    """Factory producing fresh paper-scale workload instances."""
    return build_workload


@pytest.fixture(scope="session", autouse=True)
def output_root(request, tmp_path_factory) -> Path:
    """The repository under ``--write-results``, a temp dir otherwise."""
    global _output_root
    if request.config.getoption("--write-results"):
        _output_root = REPO_ROOT
    else:
        _output_root = tmp_path_factory.mktemp("bench-output")
    return _output_root


@pytest.fixture(scope="session")
def bench_file(output_root: Path) -> Path:
    """Where this session writes the BENCH trajectory file."""
    return output_root / BENCH_FILENAME


def save_report(name: str, text: str) -> Path:
    """Persist a rendered table/series under benchmarks/results/."""
    results_dir = _output_root / "benchmarks" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    return path


@pytest.fixture
def report_writer():
    return save_report
