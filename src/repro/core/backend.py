"""Group-operation backends for the stream calculus.

DBSP's stream operators (§2–§3) are defined over *any* abelian group. The
circuit nodes in :mod:`repro.core.circuit` are therefore written against
this small interface and instantiated twice:

* :class:`SparkZSetOps` — the production backend over Spark DataFrames
  (:class:`repro.zset.frame.ZSet`), where ``materialize`` consolidates and
  ``localCheckpoint``s loop-carried state;
* :class:`RefZSetOps` — the pure-Python reference backend over
  ``dict[tuple, int]`` from :mod:`repro.zset.ref`, used to test the exact
  same operator code against by-definition semantics, fast.

``zero_like(x)`` derives the group zero from a sample value, so operators
can start with ``None`` state and never need a schema up front.
"""
from __future__ import annotations

from repro.zset import ops as zops
from repro.zset import ref
from repro.zset.frame import ZSet


class GroupOps:
    """Abstract abelian-group operations + the distinct-H function."""

    def add(self, a, b):  # pragma: no cover - interface
        raise NotImplementedError

    def neg(self, a):  # pragma: no cover - interface
        raise NotImplementedError

    def zero_like(self, x):  # pragma: no cover - interface
        raise NotImplementedError

    def is_zero(self, a) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def consolidate(self, a):
        """Canonical form (no-op where values are always canonical)."""
        return a

    def materialize(self, a):
        """Canonical form + lineage cut; required for loop-carried state."""
        return self.consolidate(a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def equals(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def accumulate(self, state, delta):
        """Fold a small change into large loop-carried state (``I`` update).

        Semantically ``state + delta``; backends may keep the state
        *unconsolidated* so the per-step cost is O(|delta|) amortized —
        the paper's §4.5 observation that ``I`` stores O(R) but can be
        *updated* in O(C). ``state`` may be None (zero).
        """
        if state is None:
            return self.materialize(delta)
        return self.materialize(self.add(state, delta))

    def join(self, join_fn, a, b, broadcast: str):
        """Apply the bilinear payload ``join_fn`` to ``a`` and ``b``.

        ``broadcast`` ('left' or 'right') names the side that holds the
        change; Spark payloads take it as a third argument and broadcast
        that side. Here values have no physical plan: ``join_fn(a, b)``.
        """
        return join_fn(a, b)

    def h(self, i, d):
        """Proposition 4.7's ``H(i, d)`` — used by incremental distinct."""
        raise NotImplementedError  # pragma: no cover - interface

    def distinct(self, a):
        """Definition 4.3 ``distinct`` — used by non-incremental circuits."""
        raise NotImplementedError  # pragma: no cover - interface

    def support_count(self, a) -> int:
        """Distinct rows with non-zero weight (the work/size metric)."""
        raise NotImplementedError  # pragma: no cover - interface


class RefZSetOps(GroupOps):
    """Reference backend: Z-sets as plain dicts."""

    def accumulate(self, state, delta):
        return delta if state is None else ref.radd(state, delta)

    def add(self, a, b):
        return ref.radd(a, b)

    def neg(self, a):
        return ref.rneg(a)

    def zero_like(self, x):
        return {}

    def is_zero(self, a) -> bool:
        return not a

    def h(self, i, d):
        return ref.rh(i, d)

    def distinct(self, a):
        return ref.rdistinct(a)

    def support_count(self, a) -> int:
        return len(a)


class SparkZSetOps(GroupOps):
    """Production backend: Z-sets as Spark DataFrames with a weight column.

    ``compact_after`` bounds how many checkpointed fragments an
    append-only state may accumulate before it is re-consolidated; the
    O(R) consolidation is thus amortized over that many O(C) steps.
    """

    def __init__(self, compact_after: int = 24):
        self.compact_after = compact_after

    def accumulate(self, state: ZSet | None, delta: ZSet) -> ZSet:
        """O(|delta|) state update: checkpoint the delta, append lazily."""
        if delta.known_empty:
            return delta.zero_like() if state is None else state
        if delta.checkpointed:
            d = delta  # already consolidated + checkpointed: reuse as-is
        else:
            d = ZSet(
                delta.consolidate().df.localCheckpoint(eager=True),
                checkpointed=True,
            )
        if state is None:
            return d
        merged = ZSet(state.df.unionByName(d.df), segments=state.segments + 1)
        if merged.segments >= self.compact_after:
            return self.materialize(merged)
        return merged

    def add(self, a: ZSet, b: ZSet) -> ZSet:
        return a.add(b)

    def neg(self, a: ZSet) -> ZSet:
        return a.neg()

    def zero_like(self, x: ZSet) -> ZSet:
        return x.zero_like()

    def is_zero(self, a: ZSet) -> bool:
        return a.is_empty()

    def consolidate(self, a: ZSet) -> ZSet:
        return a.consolidate()

    def materialize(self, a: ZSet) -> ZSet:
        return a.materialize()

    def join(self, join_fn, a: ZSet, b: ZSet, broadcast: str) -> ZSet:
        return join_fn(a, b, broadcast)

    def h(self, i: ZSet, d: ZSet) -> ZSet:
        """``H(i, d)`` computed with one probe join against the integral.

        Only rows in ``support(d)`` can flip sign: the (possibly
        unconsolidated, O(R)) integral is first restricted to the change's
        rows with a broadcast semijoin and only the restriction is
        consolidated — work bounded by one scan plus O(|d|) aggregation,
        Proposition 4.7's claim in Spark terms.
        """
        from pyspark.sql import functions as F

        from repro.zset.frame import W

        if d.checkpointed:
            dd = d.df.withColumnRenamed(W, "__wd")  # already small + cached
        else:
            dd = d.consolidate().df.withColumnRenamed(W, "__wd")
            dd = dd.localCheckpoint(eager=True)  # reused twice below
        cols = d.data_cols
        restricted = zops.restrict_z(i, dd.select(*cols)).df
        ii = restricted.groupBy(*cols).agg(F.sum(W).alias("__wi"))
        joined = dd.join(ii, on=cols, how="left")
        old = F.coalesce(F.col("__wi"), F.lit(0))
        new = old + F.col("__wd")
        weight = (
            F.when((old > 0) & (new <= 0), F.lit(-1))
            .when((old <= 0) & (new > 0), F.lit(1))
            .otherwise(F.lit(0))
        )
        out = joined.withColumn(W, weight.cast("long")).where(F.col(W) != 0)
        return ZSet(out.select(*cols, W))

    def distinct(self, a: ZSet) -> ZSet:
        return a.distinct()

    def support_count(self, a: ZSet) -> int:
        return a.support_count()
