"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
the ``jobs/`` table sweeps use SF 0.01-0.5. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(spark: SparkSession, *, sf: float = 0.01, seed: int = 0) -> DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )
    return spark.createDataFrame(pdf)


def orders(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


def customer(spark: SparkSession, *, sf: float = 0.01, seed: int = 2) -> DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )
    return spark.createDataFrame(pdf)


def zipf_keys(spark: SparkSession, *, n: int, n_keys: int, alpha: float = 1.1, seed: int = 3) -> DataFrame:
    """Skewed key column — for join-skew / cardinality-estimation papers."""
    g = _rng(seed)
    ranks = np.arange(1, n_keys + 1)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    keys = g.choice(ranks, size=n, p=weights)
    return spark.createDataFrame(pd.DataFrame({"k": keys, "v": g.random(n)}))


def uniform_keys(spark: SparkSession, *, n: int, n_keys: int, seed: int = 4) -> DataFrame:
    g = _rng(seed)
    return spark.createDataFrame(
        pd.DataFrame({"k": g.integers(1, n_keys + 1, n), "v": g.random(n)})
    )


# --------------------------------------------------------------------- #
# DBSP-reproduction extensions: graphs and change streams
# --------------------------------------------------------------------- #
def random_digraph_edges(
    *, n_nodes: int, n_edges: int, seed: int = 7
) -> list[tuple[int, int]]:
    """A random simple digraph as distinct (head, tail) edge pairs.

    Used by the recursion experiments (T6/T7); returned as plain tuples so
    both the Spark and the reference backends consume the same data.
    """
    g = _rng(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < n_edges:
        need = n_edges - len(edges)
        h = g.integers(0, n_nodes, need * 2)
        t = g.integers(0, n_nodes, need * 2)
        for a, b in zip(h, t):
            if a != b:
                edges.add((int(a), int(b)))
            if len(edges) >= n_edges:
                break
    return sorted(edges)


def layered_dag_edges(
    *, layers: int, width: int, fanout: int = 2, seed: int = 8
) -> list[tuple[int, int]]:
    """A layered DAG with controlled transitive-closure depth.

    Node ``l*width + i`` sits in layer ``l``; each node gets ``fanout``
    edges into the next layer, so the TC fixpoint takes ~``layers``
    semi-naïve iterations — handy for per-iteration work tables (T6).
    """
    g = _rng(seed)
    edges: set[tuple[int, int]] = set()
    for layer in range(layers - 1):
        for i in range(width):
            src = layer * width + i
            for dst_i in g.integers(0, width, fanout):
                edges.add((src, (layer + 1) * width + int(dst_i)))
    return sorted(edges)


def edge_change_stream(
    edges: list[tuple[int, int]],
    *,
    n_steps: int,
    inserts_per_step: int,
    deletes_per_step: int = 0,
    seed: int = 9,
) -> tuple[list[tuple[int, int]], list[list[tuple[int, int, int]]]]:
    """Split an edge set into an initial snapshot plus insert/delete deltas.

    Returns ``(initial_edges, deltas)`` where each delta is a list of
    ``(head, tail, weight)`` with weight +1 (insert) or -1 (delete of a
    previously live edge). The live edge set stays a *set* throughout —
    the invariant relational DBSP circuits assume (§4).
    """
    g = _rng(seed)
    total_inserts = n_steps * inserts_per_step
    if total_inserts > len(edges):
        raise ValueError("not enough edges for the requested insert stream")
    initial = edges[: len(edges) - total_inserts]
    pending = list(edges[len(edges) - total_inserts:])
    perm = g.permutation(len(pending))
    pending = [pending[i] for i in perm]
    live = list(initial)
    deltas: list[list[tuple[int, int, int]]] = []
    pos = 0
    for _ in range(n_steps):
        delta: list[tuple[int, int, int]] = []
        ins = pending[pos: pos + inserts_per_step]
        pos += inserts_per_step
        delta.extend((h, t, 1) for h, t in ins)
        if deletes_per_step and live:
            idx = g.choice(len(live), size=min(deletes_per_step, len(live)), replace=False)
            doomed = [live[i] for i in sorted(idx, reverse=True)]
            for i in sorted(idx, reverse=True):
                live.pop(i)
            delta.extend((h, t, -1) for h, t in doomed)
        live.extend(ins)
        deltas.append(delta)
    return initial, deltas


def table_change_stream(
    pdf: pd.DataFrame,
    *,
    n_steps: int,
    initial_frac: float = 0.5,
    delete_frac: float = 0.1,
    seed: int = 10,
) -> tuple[pd.DataFrame, list[tuple[pd.DataFrame, pd.DataFrame]]]:
    """Split a table into an initial snapshot and a stream of changes.

    Returns ``(initial, [(inserted, deleted), ...])``: the remaining rows
    are spread uniformly over ``n_steps`` as insertions; each step also
    deletes ``delete_frac`` of its insertion volume, sampled from rows
    already live. Deterministic in ``seed``. Rows are unique by position
    (TPC-H-lite rows are effectively unique), keeping set semantics.
    """
    g = _rng(seed)
    n = len(pdf)
    order = g.permutation(n)
    n_init = int(n * initial_frac)
    initial_idx = order[:n_init]
    rest = order[n_init:]
    per_step = len(rest) // n_steps
    initial = pdf.iloc[initial_idx].reset_index(drop=True)
    live = list(initial_idx)
    steps: list[tuple[pd.DataFrame, pd.DataFrame]] = []
    for s in range(n_steps):
        ins_idx = rest[s * per_step: (s + 1) * per_step]
        n_del = int(len(ins_idx) * delete_frac)
        if n_del and live:
            del_pos = g.choice(len(live), size=min(n_del, len(live)), replace=False)
            del_idx = [live[i] for i in del_pos]
            live = [v for i, v in enumerate(live) if i not in set(del_pos)]
        else:
            del_idx = []
        live.extend(ins_idx)
        steps.append(
            (
                pdf.iloc[ins_idx].reset_index(drop=True),
                pdf.iloc[del_idx].reset_index(drop=True),
            )
        )
    return initial, steps
