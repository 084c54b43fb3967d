"""Spark-backed Z-sets (§4.1 of the DBSP paper).

A Z-set over a relation schema ``A`` is a function ``A -> Z`` with finite
support: a weighted relation where weights may be negative. We represent a
Z-set as a Spark DataFrame carrying one extra ``__w: long`` column; a row
``(x, w)`` means element ``x`` has multiplicity ``w``. The abelian-group
structure (``+``, unary ``-``, ``0``) required by DBSP's stream calculus is
implemented with Catalyst operators only:

* ``add``      — unionByName (weights of equal rows add after consolidation)
* ``neg``      — negate the weight column
* ``consolidate`` — groupBy(data columns).sum(weight), drop weight-0 rows

A ZSet may be *unconsolidated* (the same data row appearing several times);
all semantics are defined on the consolidated view, and every comparison /
predicate here consolidates first. ``materialize`` consolidates and
``localCheckpoint``s — mandatory for loop-carried state, otherwise Catalyst
plans grow without bound across circuit steps.
"""
from __future__ import annotations

from typing import Iterable

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

#: Name of the multiplicity column. Double-underscore so it never collides
#: with a user data column.
W = "__w"


class ZSet:
    """A weighted relation (Z-set) backed by a Spark DataFrame.

    The wrapped DataFrame always contains the weight column :data:`W`;
    every other column is a data column. Instances are immutable — all
    operations return new ZSets.
    """

    def __init__(
        self,
        df: DataFrame,
        segments: int = 1,
        known_empty: bool = False,
        checkpointed: bool = False,
    ):
        if W not in df.columns:
            raise ValueError(f"ZSet DataFrame must contain a '{W}' column")
        self.df = df
        #: number of appended (checkpointed) fragments in this plan — used
        #: by the append-only state accumulator to amortize compaction.
        self.segments = segments
        #: statically known to be the group zero (zero_like/empty) — lets
        #: state accumulators skip no-op update jobs.
        self.known_empty = known_empty
        #: already consolidated + localCheckpointed — operators reuse it
        #: instead of re-evaluating the producing plan (set by materialize).
        self.checkpointed = checkpointed

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_df(cls, df: DataFrame, weight: int = 1) -> "ZSet":
        """Wrap a plain DataFrame as a Z-set, giving every row ``weight``.

        With ``weight=1`` this is the paper's ``tozset`` for bags; a true
        *set* input must not contain duplicate rows (use ``distinct`` on the
        result if unsure).
        """
        return cls(df.withColumn(W, F.lit(weight).cast("long")))

    @classmethod
    def from_rows(
        cls, spark: SparkSession, rows: Iterable[tuple], schema: str
    ) -> "ZSet":
        """Build a Z-set from ``(.., weight)`` tuples.

        ``schema`` is a DDL string for the *data* columns; each row tuple
        carries the data values followed by an integer weight.
        """
        rows = list(rows)
        full_schema = f"{schema}, {W} long" if schema else f"{W} long"
        df = spark.createDataFrame(rows, schema=full_schema)
        return cls(df)

    @classmethod
    def empty(cls, spark: SparkSession, schema: str) -> "ZSet":
        """The group zero for the given data-column DDL schema."""
        full_schema = f"{schema}, {W} long" if schema else f"{W} long"
        return cls(spark.createDataFrame([], schema=full_schema), known_empty=True)

    def zero_like(self) -> "ZSet":
        """The group zero with this Z-set's schema."""
        return ZSet(self.df.limit(0), known_empty=True)

    # ------------------------------------------------------------------ #
    # group structure
    # ------------------------------------------------------------------ #
    @property
    def data_cols(self) -> list[str]:
        """Data columns (everything except the weight column)."""
        return [c for c in self.df.columns if c != W]

    def add(self, other: "ZSet") -> "ZSet":
        """Group addition: weights of equal rows add (lazily)."""
        return ZSet(self.df.unionByName(other.df))

    def neg(self) -> "ZSet":
        """Group negation: flip every weight."""
        return ZSet(self.df.withColumn(W, -F.col(W)))

    def sub(self, other: "ZSet") -> "ZSet":
        """Group subtraction ``self - other``."""
        return self.add(other.neg())

    def scale(self, k: int) -> "ZSet":
        """Multiply every weight by the integer ``k``."""
        return ZSet(self.df.withColumn(W, F.col(W) * F.lit(k)))

    def consolidate(self) -> "ZSet":
        """Canonical form: one row per distinct data tuple, weight != 0."""
        return ZSet(
            self.df.groupBy(*self.data_cols)
            .agg(F.sum(W).alias(W))
            .where(F.col(W) != 0)
        )

    def materialize(self) -> "ZSet":
        """Consolidate and cut lineage (for loop-carried state)."""
        if self.checkpointed:
            return self
        return ZSet(
            self.consolidate().df.localCheckpoint(eager=True), checkpointed=True
        )

    # ------------------------------------------------------------------ #
    # predicates / inspection
    # ------------------------------------------------------------------ #
    def is_empty(self) -> bool:
        """True iff this is the group zero (all weights cancel)."""
        return len(self.consolidate().df.take(1)) == 0

    def equals(self, other: "ZSet") -> bool:
        """Group equality: ``self - other == 0``."""
        return self.sub(other).is_empty()

    def support_count(self) -> int:
        """Number of distinct data tuples with non-zero weight."""
        return self.consolidate().df.count()

    def weight_of(self, **values) -> int:
        """Multiplicity of the row matching the given column values."""
        df = self.consolidate().df
        for k, v in values.items():
            df = df.where(F.col(k) == F.lit(v))
        rows = df.agg(F.coalesce(F.sum(W), F.lit(0)).alias(W)).collect()
        return rows[0][W]

    def isset(self) -> bool:
        """Definition 4.1: every multiplicity is exactly one."""
        bad = self.consolidate().df.where(F.col(W) != 1)
        return len(bad.take(1)) == 0

    def ispositive(self) -> bool:
        """Definition 4.2: every multiplicity is non-negative."""
        bad = self.consolidate().df.where(F.col(W) < 0)
        return len(bad.take(1)) == 0

    # ------------------------------------------------------------------ #
    # set/bag conversion
    # ------------------------------------------------------------------ #
    def distinct(self) -> "ZSet":
        """Definition 4.3: keep rows with positive weight, at weight 1."""
        return ZSet(
            self.consolidate()
            .df.where(F.col(W) > 0)
            .withColumn(W, F.lit(1).cast("long"))
        )

    def to_set_df(self) -> DataFrame:
        """``toset``: the underlying set as a plain DataFrame (weight dropped)."""
        return self.distinct().df.drop(W)

    def to_bag_df(self) -> DataFrame:
        """Expand positive multiplicities into duplicate rows (bag view).

        Raises at action time if any weight is negative (a bag view of a
        non-positive Z-set is meaningless).
        """
        c = self.consolidate().df
        exploded = c.withColumn(
            "__i",
            F.explode(
                F.sequence(
                    F.lit(1),
                    F.when(F.col(W) > 0, F.col(W)).otherwise(
                        F.raise_error(F.lit("to_bag_df: negative multiplicity"))
                    ),
                )
            ),
        )
        return exploded.drop(W, "__i")

    def collect_dict(self) -> dict[tuple, int]:
        """Consolidated contents as ``{data-tuple: weight}`` (tests)."""
        cols = self.data_cols
        out: dict[tuple, int] = {}
        for r in self.consolidate().df.collect():
            out[tuple(r[c] for c in cols)] = r[W]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ZSet(cols={self.data_cols})"
