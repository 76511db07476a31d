"""The benchmark's workloads still build and warm up against the library.

`perfbench/workloads.py` calls the library's public API directly, so an API
change that breaks the benchmark fails here too.  The test only imports
from `perfbench/`; everything it writes goes to a temporary directory.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_builds_and_warms_up(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        workload(7, tmp_path / name).warm_up()
