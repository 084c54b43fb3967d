"""Aggregation over Z-sets (§7.2–§7.4 of the paper).

Scalar aggregates map a Z-set to a value in some group:

* ``agg_count`` — Σ weights. **Linear** ``Z[A] -> Z``.
* ``agg_sum``   — Σ value·weight. **Linear** ``Z[R] -> R``.
* ``agg_min`` — over the support of a *positive* Z-set. **Not linear**;
  its incremental version is brute force (§7.2).

The paper's ``makeset(x) = 1·x`` re-embeds a scalar result as a singleton
Z-set so aggregates compose with further queries; the ``*_singleton``
helpers fuse aggregate∘makeset into one plan. ``group_agg`` implements
GROUP BY + aggregate (§7.3/7.4): partitioning is linear, so per-group
aggregates only need re-evaluation for groups touched by a change (see
``IncrementalGroupAggregate`` in :mod:`repro.core.operators`).
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import functions as F

from .frame import W, ZSet


def agg_count(z: ZSet) -> int:
    """COUNT on a Z-set: the sum of all multiplicities (linear)."""
    row = z.df.agg(F.coalesce(F.sum(W), F.lit(0)).alias("c")).collect()[0]
    return int(row["c"])


def agg_sum(z: ZSet, col: str) -> float:
    """SUM on a Z-set: Σ value × multiplicity (linear)."""
    row = z.df.agg(
        F.coalesce(F.sum(F.col(col) * F.col(W)), F.lit(0.0)).alias("s")
    ).collect()[0]
    return float(row["s"])


def agg_min(z: ZSet, col: str) -> float | None:
    """MIN over the support of a positive Z-set (non-linear).

    Deletions can expose a new minimum only the full set knows about, which
    is why the incremental version must keep the whole integral (§7.2).
    """
    rows = z.consolidate().df.where(F.col(W) > 0).agg(F.min(col).alias("m")).collect()
    return rows[0]["m"]


def count_singleton(z: ZSet, alias: str = "cnt") -> ZSet:
    """``makeset ∘ a_COUNT`` as one Catalyst plan (no driver round-trip)."""
    df = z.df.agg(F.coalesce(F.sum(W), F.lit(0)).cast("long").alias(alias))
    return ZSet(df.withColumn(W, F.lit(1).cast("long")))


def sum_singleton(z: ZSet, col: str, alias: str = "total") -> ZSet:
    """``makeset ∘ a_SUM`` as one Catalyst plan."""
    df = z.df.agg(
        F.coalesce(F.sum(F.col(col) * F.col(W)), F.lit(0.0)).alias(alias)
    )
    return ZSet(df.withColumn(W, F.lit(1).cast("long")))


_SUPPORTED = {"count", "sum", "min", "max", "avg"}


def group_agg(
    z: ZSet, keys: Sequence[str], aggs: Sequence[tuple[str, str, str | None]]
) -> ZSet:
    """GROUP BY ``keys`` then aggregate each grouping (§7.4's ``Agg_a``).

    ``aggs`` is a list of ``(output_name, kind, input_col)`` with kind in
    {count, sum, min, max, avg} (``input_col`` is ignored for count).
    A group is present in the output iff its grouping Z-set is non-zero;
    each present group contributes one output row with weight 1
    (``makeset`` per group). min/max/avg require a positive input Z-set.
    """
    c = z.consolidate().df
    exprs = []
    for name, kind, col in aggs:
        if kind not in _SUPPORTED:
            raise ValueError(f"unsupported aggregate kind: {kind}")
        if kind == "count":
            exprs.append(F.sum(W).cast("long").alias(name))
        elif kind == "sum":
            exprs.append(F.sum(F.col(col) * F.col(W)).alias(name))
        elif kind == "min":
            exprs.append(F.min(col).alias(name))
        elif kind == "max":
            exprs.append(F.max(col).alias(name))
        elif kind == "avg":
            exprs.append(
                (F.sum(F.col(col) * F.col(W)) / F.sum(W)).alias(name)
            )
    out = c.groupBy(*keys).agg(*exprs)
    return ZSet(out.withColumn(W, F.lit(1).cast("long")))
