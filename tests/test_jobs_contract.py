"""Every ``jobs/tN_*.py`` table generator imports and defines ``main``.

The jobs are not run by the test suite (each sweeps |DB| for minutes), so
a rename or deletion in ``src`` that one of them relies on would go
unnoticed until the next table is regenerated. These tests import each
job as ``python jobs/tN_*.py`` does, with ``jobs/`` on ``sys.path``, and
fail if Spark is started on import.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"
NAMES = sorted(p.stem for p in JOBS.glob("t*_*.py"))


def test_one_job_per_table():
    assert [n.split("_")[0] for n in NAMES] == ["t2", "t3", "t4", "t5", "t6", "t7", "t8"]


@pytest.mark.parametrize("name", NAMES)
def test_job_imports_and_defines_main(name, monkeypatch):
    from pyspark.sql import SparkSession

    def boom(*args, **kwargs):
        raise AssertionError(f"importing jobs/{name}.py started Spark")

    monkeypatch.setattr(SparkSession.Builder, "getOrCreate", boom)
    monkeypatch.syspath_prepend(str(JOBS))
    try:
        module = importlib.import_module(name)
        assert callable(module.main)
    finally:
        for mod in (name, "common"):
            sys.modules.pop(mod, None)
