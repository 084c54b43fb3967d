"""The benchmark's three change-stream workloads.

Each workload builds its inputs from ``repro.synth_data`` and a seed, runs
one circuit through the public APIs, and knows how to recompute the same
view from scratch, how large its operator state is, and the SQL that
DuckDB runs as the end-of-run oracle. Only the benchmark sees the seed;
the program sees only the generated Z-sets.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import pandas as pd


@dataclass
class Inputs:
    """A base snapshot plus one change per step, all materialized."""

    base: dict  # input name -> ZSet
    changes: list  # per step: input name -> ZSet
    rows_in: list  # per step: inserted plus deleted rows
    live: dict  # input name -> pandas rows live after the last step
    touched_share: list = field(default_factory=list)  # agg_churn only


def _changes(spark, frames: dict, n_steps: int, checkpoint_each: bool = True) -> list[dict]:
    """Per-step change Z-sets, from one DataFrame per input.

    ``frames[name]`` is ``(pandas rows with __w and __step, schema)``; it is
    checkpointed once. With ``checkpoint_each`` every step's slice is
    checkpointed too and marked consolidated, which it is by construction
    (its rows are distinct, each inserted or deleted once). Without it a
    slice is a lazy filter of the one checkpoint.
    """
    from repro.zset.frame import ZSet

    out = [dict() for _ in range(n_steps)]
    for name, (pdf, schema) in frames.items():
        all_df = spark.createDataFrame(pdf, schema=schema).localCheckpoint(eager=True)
        for k in range(n_steps):
            part = all_df.where(all_df["__step"] == k).drop("__step")
            if checkpoint_each:
                out[k][name] = ZSet(part.localCheckpoint(eager=True), checkpointed=True)
            else:
                out[k][name] = ZSet(part)
    return out


def _table_stream(pdf: pd.DataFrame, n_steps: int, inserts: int, seed: int):
    """Base rows and ``n_steps`` (inserts, deletes) pairs of one table.

    ``synth_data.table_change_stream`` is called once per step on its own
    slice of ``2 * inserts`` rows: half start live (in the base), half are
    the step's inserts, and the step deletes 10% of its insert volume from
    the live half. One call per step keeps generation linear in the run
    length (the function's delete sampling is quadratic in live rows).
    """
    from repro import synth_data

    width = 2 * inserts
    n_base_only = len(pdf) - n_steps * width
    if n_base_only < 0:
        raise ValueError("table too small for the requested change stream")
    base = [pdf.iloc[:n_base_only]]
    steps = []
    for k in range(n_steps):
        lo = n_base_only + k * width
        init, [(ins, dels)] = synth_data.table_change_stream(
            pdf.iloc[lo: lo + width], n_steps=1, initial_frac=0.5,
            delete_frac=0.1, seed=seed + k,
        )
        base.append(init)
        steps.append((ins, dels))
    return pd.concat(base, ignore_index=True), steps


def _stream_frame(steps) -> pd.DataFrame:
    parts = []
    for k, (ins, dels) in enumerate(steps):
        parts.append(ins.assign(__w=1, __step=k))
        parts.append(dels.assign(__w=-1, __step=k))
    return pd.concat(parts, ignore_index=True)


def _live(base: pd.DataFrame, steps) -> pd.DataFrame:
    """Rows live after every step: base plus inserts minus deletes."""
    rows = pd.concat([base] + [ins for ins, _ in steps], ignore_index=True)
    dels = pd.concat([d for _, d in steps], ignore_index=True)
    m = rows.merge(dels.drop_duplicates(), how="left", indicator=True)
    return m[m["_merge"] == "left_only"].drop(columns="_merge")


def _schemas(spark, pdf: pd.DataFrame):
    """``pdf``'s schema as Spark infers it, and that schema plus the
    ``__w`` and ``__step`` columns of a change frame, so base and changes
    agree on every column type."""
    from pyspark.sql.types import LongType, StructField, StructType

    schema = spark.createDataFrame(pdf.head(1)).schema
    extra = [StructField("__w", LongType()), StructField("__step", LongType())]
    return schema, StructType(schema.fields + extra)


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name: str
    keys: list[str]  # output columns a row is matched on by the checks
    cycle_s: float  # step + recompute + checks on a 4-core host

    def n_steps(self, seconds: int) -> int:
        """Changes per run: one warm-up plus at least three measured."""
        return max(4, round(seconds / self.cycle_s))

    def generate(self, spark, seed: int, n_steps: int) -> Inputs:
        raise NotImplementedError

    def circuit(self):
        raise NotImplementedError

    def step(self, circuit, changes: dict):
        raise NotImplementedError

    def recompute(self, circuit, snapshots: dict):
        """The view from scratch: ``(ZSet, recursion iterations or None)``."""
        raise NotImplementedError

    def state_rows(self, circuit) -> dict[str, int]:
        raise NotImplementedError

    def inner_iters(self, circuit, k: int):
        return None

    def oracle(self, live: dict) -> tuple[str, dict]:
        raise NotImplementedError


# ------------------------------------------------------------------ #
# view_churn: Algorithm 4.8 over a join + distinct view
# ------------------------------------------------------------------ #
def view_ast():
    """``SELECT DISTINCT o_custkey, l_partkey FROM orders ⋈ lineitem ...``."""
    from repro.sql import translate as t

    return t.t_project(
        t.t_join(
            t.t_select(t.Rel("orders"), "o_totalprice > 100000"),
            t.t_select(t.Rel("lineitem"), "l_quantity > 25"),
            on=[("o_orderkey", "l_orderkey")],
        ),
        {"c": "o_custkey", "p": "l_partkey"},
    )


VIEW_SQL = """
SELECT DISTINCT o.o_custkey AS c, l.l_partkey AS p
FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
WHERE o.o_totalprice > 100000 AND l.l_quantity > 25
"""


class ViewChurn(Workload):
    name = "view_churn"
    keys = ["c", "p"]
    cycle_s = 4.0
    sf = 0.01
    inserts = {"lineitem": 1000, "orders": 250}

    def generate(self, spark, seed, n_steps):
        from repro import synth_data
        from repro.zset.frame import ZSet

        tables = {
            "lineitem": synth_data.lineitem(spark, sf=self.sf, seed=1000 * seed).toPandas(),
            "orders": synth_data.orders(spark, sf=self.sf, seed=1000 * seed + 1).toPandas(),
        }
        base, frames, live = {}, {}, {}
        rows_in = [0] * n_steps
        for i, (name, pdf) in enumerate(tables.items()):
            b, steps = _table_stream(
                pdf, n_steps, self.inserts[name], 1000 * seed + 100 + 400 * i
            )
            schema, change_schema = _schemas(spark, pdf)
            base[name] = ZSet.from_df(spark.createDataFrame(b, schema=schema)).materialize()
            frames[name] = (_stream_frame(steps), change_schema)
            live[name] = _live(b, steps)
            for k, (ins, dels) in enumerate(steps):
                rows_in[k] += len(ins) + len(dels)
        # the view filters each input before the join node materializes
        # it, so a lazy slice costs a step no extra Spark job
        changes = _changes(spark, frames, n_steps, checkpoint_each=False)
        return Inputs(base, changes, rows_in, live)

    def circuit(self):
        from repro.sql.compile import IncrementalView

        return IncrementalView(view_ast())

    def step(self, circuit, changes):
        return circuit.step(changes)

    def recompute(self, circuit, snapshots):
        from repro.sql import compile as sql_compile

        return sql_compile.evaluate(circuit.ast, snapshots), None

    def state_rows(self, circuit):
        sizes = circuit.state_sizes()
        return {
            "circuit.join.state_rows": sum(v for k, v in sizes.items() if k.startswith("join:")),
            "circuit.distinct.state_rows": sum(v for k, v in sizes.items() if k.startswith("distinct:")),
        }

    def oracle(self, live):
        return VIEW_SQL, {
            "orders": live["orders"][["o_orderkey", "o_custkey", "o_totalprice"]],
            "lineitem": live["lineitem"][["l_orderkey", "l_partkey", "l_quantity"]],
        }


# ------------------------------------------------------------------ #
# agg_churn: GROUP BY with a non-integral SUM under bulk changes
# ------------------------------------------------------------------ #
AGG_KEYS = ["l_partkey"]
AGG_AGGS = [("revenue", "sum", "l_extendedprice"), ("n", "count", None)]
AGG_SQL = """
SELECT l_partkey, SUM(l_extendedprice) AS revenue, COUNT(*) AS n
FROM lineitem GROUP BY l_partkey
"""


class AggChurn(Workload):
    name = "agg_churn"
    keys = AGG_KEYS
    cycle_s = 5.0
    sf = 0.05
    inserts = 10_000

    def generate(self, spark, seed, n_steps):
        from repro import synth_data
        from repro.zset.frame import ZSet

        pdf = synth_data.lineitem(spark, sf=self.sf, seed=1000 * seed).toPandas()
        b, steps = _table_stream(pdf, n_steps, self.inserts, 1000 * seed + 100)
        schema, change_schema = _schemas(spark, pdf)
        base = {"lineitem": ZSet.from_df(spark.createDataFrame(b, schema=schema)).materialize()}
        frames = {"lineitem": (_stream_frame(steps), change_schema)}
        changes = _changes(spark, frames, n_steps)
        # distinct changed keys / live groups, from the generated rows
        live_keys = Counter(b["l_partkey"])
        touched = []
        for ins, dels in steps:
            keys = set(ins["l_partkey"]) | set(dels["l_partkey"])
            touched.append(len(keys) / sum(1 for c in live_keys.values() if c > 0))
            live_keys.update(ins["l_partkey"])
            live_keys.subtract(dels["l_partkey"])
        rows_in = [len(i) + len(d) for i, d in steps]
        return Inputs(base, changes, rows_in, {"lineitem": _live(b, steps)}, touched)

    def circuit(self):
        from repro.core.operators import IncrementalGroupAggregate

        return IncrementalGroupAggregate(AGG_KEYS, AGG_AGGS)

    def step(self, circuit, changes):
        return circuit.step(changes["lineitem"])

    def recompute(self, circuit, snapshots):
        from repro.zset import aggregates

        return aggregates.group_agg(snapshots["lineitem"], AGG_KEYS, AGG_AGGS), None

    def state_rows(self, circuit):
        return {"operators.groupagg.state_rows": circuit.state_size()}

    def oracle(self, live):
        return AGG_SQL, {"lineitem": live["lineitem"][["l_partkey", "l_extendedprice"]]}


# ------------------------------------------------------------------ #
# tc_churn: transitive closure through the nested incremental circuit
# ------------------------------------------------------------------ #
class TcChurn(Workload):
    name = "tc_churn"
    keys = ["s", "t"]
    cycle_s = 7.5
    layers, width, fanout = 3, 60, 2
    inserts, deletes = 6, 2

    def generate(self, spark, seed, n_steps):
        from repro import synth_data
        from repro.core.tc import E_SCHEMA
        from repro.zset.frame import ZSet

        edges = synth_data.layered_dag_edges(
            layers=self.layers, width=self.width, fanout=self.fanout, seed=1000 * seed
        )
        initial, deltas = synth_data.edge_change_stream(
            edges, n_steps=n_steps, inserts_per_step=self.inserts,
            deletes_per_step=self.deletes, seed=1000 * seed + 1,
        )
        base = {"e": ZSet.from_rows(spark, [(h, t, 1) for h, t in initial], E_SCHEMA).materialize()}
        pdf = pd.DataFrame(
            [(h, t, w, k) for k, d in enumerate(deltas) for h, t, w in d],
            columns=["h", "t", "__w", "__step"],
        )
        changes = _changes(
            spark, {"e": (pdf, f"{E_SCHEMA}, __w bigint, __step bigint")}, n_steps
        )
        live = set(initial)
        for d in deltas:
            for h, t, w in d:
                (live.add if w > 0 else live.discard)((h, t))
        live_pdf = pd.DataFrame(sorted(live), columns=["h", "t"])
        return Inputs(base, changes, [len(d) for d in deltas], {"e": live_pdf})

    def circuit(self):
        from repro.core.backend import SparkZSetOps
        from repro.core.nested import IncrementalRecursive
        from repro.core.tc import tc_base_fn, tc_join_fn

        return IncrementalRecursive(SparkZSetOps(), tc_base_fn, tc_join_fn)

    def step(self, circuit, changes):
        return circuit.step(changes["e"])

    def recompute(self, circuit, snapshots):
        from repro.core import recursion
        from repro.core.tc import tc_base_fn, tc_join_fn

        ops = circuit.ops
        body = recursion.IncBody(ops, tc_base_fn, tc_join_fn)
        z, stats = recursion.semi_naive_fixpoint(ops, body, snapshots["e"])
        return z, stats.iterations

    def state_rows(self, circuit):
        from functools import reduce

        from pyspark.sql import functions as F
        from repro.zset.frame import W, ZSet

        # Σ support over every per-iteration entry, in one Spark job: the
        # tag keeps equal rows of different entries apart, and the data
        # columns of edges (h, t) and facts (s, t) are renamed to agree
        lists = [circuit.join.b1, circuit.join.a1, circuit.join.a12,
                 circuit.dist.u, circuit.dist.v_prev]
        tagged = [
            v.df.select(
                *[F.col(c).alias(f"c{j}") for j, c in enumerate(v.data_cols)],
                F.col(W), F.lit(i).alias("__entry"),
            )
            for i, v in enumerate(v for tl in lists for v in tl.vals)
        ]
        if not tagged:
            return {"nested.state_rows": 0}
        union = reduce(lambda a, b: a.unionByName(b), tagged)
        return {"nested.state_rows": ZSet(union).support_count()}

    def inner_iters(self, circuit, k):
        return circuit.inner_iterations[k]

    def oracle(self, live):
        from repro.core.tc import TC_SQL

        return TC_SQL, {"e": live["e"]}


WORKLOADS = {w.name: w for w in (ViewChurn(), AggChurn(), TcChurn())}


# ------------------------------------------------------------------ #
# correctness checks
# ------------------------------------------------------------------ #
def same_zset(got, expected, keys: list[str], rel_tol: float = 1e-9) -> bool:
    """``got == expected`` as Z-sets: weights exactly, floats to ``rel_tol``.

    The tolerance applies only to values of rows already matched on
    ``keys``; a key's rows must agree in number and in every weight.
    """
    diff = got.sub(expected).consolidate()
    if not diff.df.take(1):
        return True
    if set(keys) == set(got.data_cols):
        return False
    from repro.zset.frame import W

    suspects = diff.df.select(*keys).distinct()
    g = got.consolidate().df.join(suspects, keys, "leftsemi").toPandas()
    e = expected.consolidate().df.join(suspects, keys, "leftsemi").toPandas()
    values = [c for c in got.data_cols if c not in keys]
    floats = {c for c in values if pd.api.types.is_float_dtype(g[c])}
    g_rows = {k: v.sort_values([W] + values) for k, v in g.groupby(keys)}
    e_rows = {k: v.sort_values([W] + values) for k, v in e.groupby(keys)}
    if g_rows.keys() != e_rows.keys():
        return False
    for k, gk in g_rows.items():
        ek = e_rows[k]
        if len(gk) != len(ek) or list(gk[W]) != list(ek[W]):
            return False
        for c in values:
            for a, b in zip(gk[c], ek[c]):
                ok = math.isclose(a, b, rel_tol=rel_tol) if c in floats else a == b
                if not ok:
                    return False
    return True


def oracle_ok(integrated, workload: Workload, live: dict) -> bool:
    """End-of-run check of the integrated view against DuckDB."""
    from repro.oracle import assert_equivalent
    from repro.zset.frame import W

    if not integrated.isset():
        return False
    sql, tables = workload.oracle(live)
    try:
        assert_equivalent(integrated.df.drop(W), sql, **tables)
    except AssertionError:
        return False
    return True
