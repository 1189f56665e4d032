"""Guard for the benchmark harness under ``perfbench/``.

The harness imports the package directly, so a rename in ``src/`` can
break it at import time, or leave a per-layer stage metric summing spans
that no stage emits any more (the metric then silently reads zero).  This
suite imports every harness workload module against the current source
tree, writing no bytecode next to the harness, and checks that every
default pipeline stage feeds some per-layer metric.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import ReplayPipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("common", "single_replay", "fleet", "daemon_sweep")


@pytest.fixture(scope="module")
def harness():
    """The harness modules, imported the way ``perfbench/run.py`` does
    (its directory on ``sys.path``) and unloaded afterwards."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(PERFBENCH))
        try:
            yield {name: importlib.import_module(name) for name in MODULES}
        finally:
            for name in MODULES:
                sys.modules.pop(name, None)


@pytest.mark.parametrize("name", MODULES)
def test_harness_module_imports(harness, name):
    assert Path(harness[name].__file__).parent == PERFBENCH


def test_every_default_stage_feeds_a_stage_metric(harness):
    timed = {stage for stages in harness["common"].STAGE_METRICS.values() for stage in stages}
    missing = [name for name in ReplayPipeline.default().stage_names() if name not in timed]
    assert not missing, f"stages no per-layer metric times: {missing}"
