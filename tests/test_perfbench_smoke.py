"""The benchmark's workloads and tracer still work against the library.

`perfbench/workloads.py` calls the library's public API directly, and
`perfbench/tracer.py` wraps library functions and methods by name, so an API
change that breaks the benchmark or its traced runs fails here too.  The
tests only import from `perfbench/`; everything they write goes to a
temporary directory.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_builds_and_warms_up(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        workload(7, tmp_path / name).warm_up()


def test_tracer_wraps_and_restores_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    importlib.import_module("sgl.cli")  # imports every traced module
    modules = [sys.modules[name] for name in tracer.SGL_MODULES]
    functions = [getattr(sys.modules[origin], attr) for _, origin, attr, _ in tracer.FUNCTIONS]
    bindings = [
        (module, key, value)
        for module in modules
        for key, value in vars(module).items()
        if any(value is fn for fn in functions)
    ]
    for (name, _, attr, _), fn in zip(tracer.FUNCTIONS, functions):
        assert any(value is fn for _, _, value in bindings), f"{name}: {attr} is bound nowhere"
    methods = []
    for name, origin, attr in tracer.METHODS:
        owners = [
            cls for cls in vars(sys.modules[origin]).values()
            if isinstance(cls, type) and attr in vars(cls)
        ]
        assert owners, f"{name}: no class in {origin} defines {attr}"
        methods += [(cls, attr, vars(cls)[attr]) for cls in owners]

    traced = tracer.Tracer()
    traced.install()
    try:
        for module, key, value in bindings:
            assert getattr(module, key) is not value, f"{module.__name__}.{key} not wrapped"
        for cls, attr, value in methods:
            assert vars(cls)[attr] is not value, f"{cls.__name__}.{attr} not wrapped"
    finally:
        traced.uninstall()
    for module, key, value in bindings:
        assert getattr(module, key) is value, f"{module.__name__}.{key} not restored"
    for cls, attr, value in methods:
        assert vars(cls)[attr] is value, f"{cls.__name__}.{attr} not restored"
