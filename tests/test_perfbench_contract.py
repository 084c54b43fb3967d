"""The program surface the benchmark in ``perfbench/`` relies on.

``perfbench/spans.py`` traces a run by replacing class and module
attributes while a step runs, and ``perfbench/workloads.py`` builds the
circuits and reads their state through public names. A refactor that
renames or rebinds any of these would silently break ``--trace 1`` or a
workload; these tests fail instead. Both files are read, never modified.
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str) -> types.ModuleType:
    """Execute ``perfbench/<name>.py`` as a module (no bytecode written)."""
    path = PERFBENCH / f"{name}.py"
    mod = types.ModuleType(f"perfbench_{name}")
    mod.__file__ = str(path)
    sys.modules[mod.__name__] = mod  # dataclasses resolve their module
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


spans = _load("spans")
workloads = _load("workloads")


def test_every_span_target_resolves_to_a_callable():
    targets = spans._targets()
    assert targets
    for owner, attr, name, _before, _after in targets:
        # Tracer.install reads the attribute from the owner's own dict
        assert attr in vars(owner), f"{name}: {owner!r} has no own '{attr}'"
        assert callable(getattr(owner, attr)), name


def test_tracer_install_restores_every_target():
    before = [(o, a, vars(o)[a]) for o, a, *_ in spans._targets()]
    tracer = spans.Tracer(sc=None)
    tracer.install()
    try:
        assert all(vars(o)[a] is not f for o, a, f in before)
    finally:
        tracer.uninstall()
    assert all(vars(o)[a] is f for o, a, f in before)


@pytest.fixture
def no_spark(monkeypatch):
    """Make any attempt to reach a Spark session fail loudly."""
    from pyspark.sql import SparkSession

    def boom(*args, **kwargs):
        raise AssertionError("circuit construction touched Spark")

    monkeypatch.setattr(SparkSession, "getActiveSession", boom)
    monkeypatch.setattr(SparkSession, "active", boom)
    monkeypatch.setattr(SparkSession.Builder, "getOrCreate", boom)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_circuit_builds_without_spark(no_spark, name):
    w = workloads.WORKLOADS[name]
    circuit = w.circuit()
    rows = w.state_rows(circuit)  # empty state: read without a Spark job
    assert rows and all(v == 0 for v in rows.values())


def test_view_churn_circuit_surface(no_spark):
    from repro.sql import translate as t

    c = workloads.WORKLOADS["view_churn"].circuit()
    assert isinstance(c.ast, t.Node)
    sizes = c.state_sizes()
    assert any(k.startswith("join:") for k in sizes)
    assert any(k.startswith("distinct:") for k in sizes)


def test_tc_churn_circuit_surface(no_spark):
    from repro.core import recursion
    from repro.core.backend import GroupOps
    from repro.core.tc import tc_base_fn, tc_join_fn

    c = workloads.WORKLOADS["tc_churn"].circuit()
    for tail in (c.join.b1, c.join.a1, c.join.a12, c.dist.u, c.dist.v_prev):
        assert tail.vals == []
    assert c.inner_iterations == []
    assert isinstance(c.ops, GroupOps)
    body = recursion.IncBody(c.ops, tc_base_fn, tc_join_fn)
    assert body.ops is c.ops


def _traced_names(spark, run) -> set[str]:
    """Span names recorded while ``run()`` executes under one root span."""
    tracer = spans.Tracer(spark.sparkContext)
    tracer.install()
    try:
        root = tracer.open_root("root", 0)
        try:
            run()
        finally:
            tracer.close(root)
    finally:
        tracer.uninstall()
    return {s.name for s in root.walk()}


def test_trace_sees_view_layers(spark):
    from repro.sql.compile import IncrementalView
    from repro.zset.frame import ZSet

    from test_sql_translate import paper_44_query

    iv = IncrementalView(paper_44_query())
    t1 = ZSet.from_rows(spark, [(1, 5, 1, 1)], "id int, a int, x int")
    t2 = ZSet.from_rows(spark, [(1, 9, 2, 1)], "id int, s int, y int")
    names = _traced_names(spark, lambda: iv.step({"t1": t1, "t2": t2}))
    assert {"compile.view_step", "circuit.join", "circuit.distinct",
            "ops.join_z"} <= names


def test_trace_sees_nested_layers(spark):
    from repro.core.backend import SparkZSetOps
    from repro.core.nested import IncrementalRecursive
    from repro.core.tc import edges_zset, tc_base_fn, tc_join_fn

    node = IncrementalRecursive(SparkZSetOps(), tc_base_fn, tc_join_fn)
    e = edges_zset(spark, [(1, 2), (2, 3)])
    names = _traced_names(spark, lambda: node.step(e))
    assert {"nested.step", "nested.join_inner", "nested.distinct_inner",
            "ops.join_z"} <= names
