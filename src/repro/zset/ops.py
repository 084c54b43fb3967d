"""Relational operators on Z-sets — the right column of the paper's Table 1.

Every SQL (set) operator is implemented as a Z-set operator executed by
Catalyst. Linearity notes (they drive incrementalization in §3):

* ``filter_z`` (σ), ``map_z`` (π / selection), ``restrict_z`` (⋉),
  ``union-all`` (group ``+``), ``flatmap_z`` — **linear**: weights pass
  through rows.
* ``join_z``, ``cartesian_z``, ``intersect_z`` — **bilinear**: the output
  weight is the product of the input weights.
* ``ZSet.distinct`` — neither; it gets its own incremental operator
  (Proposition 4.7, see :mod:`repro.core.operators`).

Set operators per Table 1 (inputs are sets, outputs are sets):
``union_z(a,b) = distinct(a+b)``, ``difference_z(a,b) = distinct(a-b)``,
``intersect_z`` = equijoin on all columns, ``antijoin_z`` per §7.5.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .frame import W, ZSet


def filter_z(z: ZSet, condition: str) -> ZSet:
    """σ — keep rows matching a SQL predicate; weights unchanged (linear)."""
    return ZSet(z.df.where(condition))


def map_z(z: ZSet, exprs: Mapping[str, str]) -> ZSet:
    """π / map — project each row through SQL expressions (linear).

    ``exprs`` maps output column name -> SQL expression over the input
    columns. Rows that collapse to the same output tuple get their weights
    added (on consolidation), which is exactly the Z-set π of Table 1.
    """
    sel = [F.expr(e).alias(name) for name, e in exprs.items()] + [F.col(W)]
    return ZSet(z.df.select(*sel))


def join_z(
    z_left: ZSet,
    z_right: ZSet,
    on: Sequence[tuple[str, str]] | Sequence[str],
    suffix: str = "_r",
    broadcast: str | None = None,
) -> ZSet:
    """⋈ — equijoin; output weight = product of input weights (bilinear).

    ``on`` is either a list of common column names or a list of
    ``(left_col, right_col)`` pairs. Right-side data columns whose names
    collide with left-side ones are suffixed with ``suffix`` in the output
    (including right join keys when both sides use the same name).

    ``broadcast`` ∈ {None, 'left', 'right'} hints the physical plan: the
    incremental operators pass the *change* side here so a Δ ⋈ integral
    term probes the O(R) state with one scan instead of shuffling it —
    the physical realization of the paper's O(C[t]) per-step claim.
    """
    pairs = [(c, c) if isinstance(c, str) else tuple(c) for c in on]

    ldf = z_left.df.withColumnRenamed(W, "__wl")
    rdf = z_right.df.withColumnRenamed(W, "__wr")
    left_cols = set(z_left.data_cols)
    renames: dict[str, str] = {}
    for c in z_right.data_cols:
        if c in left_cols:
            renames[c] = c + suffix
    for old, new in renames.items():
        rdf = rdf.withColumnRenamed(old, new)
    if broadcast == "left":
        ldf = F.broadcast(ldf)
    elif broadcast == "right":
        rdf = F.broadcast(rdf)

    cond = None
    for lc, rc in pairs:
        rc = renames.get(rc, rc)
        clause = ldf[lc] == rdf[rc]
        cond = clause if cond is None else (cond & clause)
    joined = ldf.join(rdf, on=cond, how="inner")
    joined = joined.withColumn(W, (F.col("__wl") * F.col("__wr")).cast("long"))
    return ZSet(joined.drop("__wl", "__wr"))


def restrict_z(z: ZSet, keys: DataFrame) -> ZSet:
    """``z ⋉ broadcast(keys)``: the rows of ``z`` that match a row of the
    small plain DataFrame ``keys`` on all of its columns (linear in ``z``).

    This is how an incremental operator reads only the part of its O(R)
    state that a change touches: one broadcast probe of the state.
    """
    return ZSet(z.df.join(F.broadcast(keys), on=keys.columns, how="leftsemi"))


def cartesian_z(z_left: ZSet, z_right: ZSet, suffix: str = "_r") -> ZSet:
    """× — Cartesian product; weights multiply (bilinear)."""
    ldf = z_left.df.withColumnRenamed(W, "__wl")
    rdf = z_right.df.withColumnRenamed(W, "__wr")
    left_cols = set(z_left.data_cols)
    for c in z_right.data_cols:
        if c in left_cols:
            rdf = rdf.withColumnRenamed(c, c + suffix)
    joined = ldf.crossJoin(rdf)
    joined = joined.withColumn(W, (F.col("__wl") * F.col("__wr")).cast("long"))
    return ZSet(joined.drop("__wl", "__wr"))


def union_z(a: ZSet, b: ZSet) -> ZSet:
    """Set UNION (Table 1): ``distinct(a + b)``."""
    return a.add(b).distinct()


def union_all_z(a: ZSet, b: ZSet) -> ZSet:
    """Bag UNION ALL (§7.1): plain Z-set addition — linear."""
    return a.add(b)


def difference_z(a: ZSet, b: ZSet) -> ZSet:
    """Set EXCEPT (Table 1): ``distinct(a - b)``."""
    return a.sub(b).distinct()


def intersect_z(a: ZSet, b: ZSet) -> ZSet:
    """Set INTERSECT: equijoin on all (shared) columns, left columns kept.

    For set inputs the product weights are 1 and the result is a set; for
    general Z-sets this is the bilinear intersection of [Green et al.].
    """
    cols = a.data_cols
    if set(cols) != set(b.data_cols):
        raise ValueError("intersect requires identical schemas")
    j = join_z(a, b, on=cols)
    return map_z(j, {c: c for c in cols})


def antijoin_z(a: ZSet, b: ZSet, on: Sequence[tuple[str, str]] | Sequence[str]) -> ZSet:
    """Antijoin (§7.5): rows of set ``a`` with no match in set ``b``.

    Implemented exactly as the paper's circuit: ``C = π_{cols(a)}(a ⋈ b)``
    then ``a \\ distinct(C)`` — a join composed with a set difference, so
    the whole construction incrementalizes with the standard machinery.
    """
    c = map_z(join_z(a, b, on=on), {col: col for col in a.data_cols})
    return difference_z(a, c.distinct())


def flatmap_z(z: ZSet, explode_col: str, out_col: str) -> ZSet:
    """flatmap (§7.4): explode an array column; weights replicate (linear)."""
    df = z.df.withColumn(out_col, F.explode(F.col(explode_col))).drop(explode_col)
    return ZSet(df)
