"""The benchmark traces package functions by name (``TRACE_TARGETS`` in
``perfbench/workloads.py``), so a refactor that deletes or renames one must
update the benchmark in the same change.  This checks the names resolve the
way the tracer resolves them, without installing it or running a workload."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def resolve(target):
    """The callable ``Tracer.install`` would wrap for ``target``, or None."""
    module_name, _, qualname = target.partition(".")
    module = importlib.import_module(f"mecpe.{module_name}")
    owner_name, _, attr = qualname.rpartition(".")
    if not owner_name:
        return getattr(module, attr, None)
    owner = getattr(module, owner_name, None)
    return vars(owner).get(attr) if isinstance(owner, type) else None


def test_trace_targets_resolve_to_package_callables(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    assert workloads.TRACE_TARGETS
    assert [t for t in workloads.TRACE_TARGETS if not callable(resolve(t))] == []
