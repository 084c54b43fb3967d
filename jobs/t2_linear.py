"""T2 — linear operators: per-step cost of Q^Δ vs full recompute (§4.5).

Sweeps the accumulated database size at a fixed change size; the paper's
claim is that the incremental step's cost is a function of C[t] (flat in
|DB|) while full recomputation tracks R[t].
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import base_and_delta, get_spark, print_table, timed  # noqa: E402

from repro import synth_data  # noqa: E402
from repro.zset import ops as zops  # noqa: E402

DELTA_ROWS = 1_000


def linear_query(z):
    f = zops.filter_z(z, "l_quantity > 25 AND l_discount < 0.05")
    return zops.map_z(f, {"k": "l_orderkey", "p": "l_partkey", "flag": "l_returnflag"})


def main():
    spark = get_spark("t2_linear")
    rows = []
    for sf in (0.01, 0.05, 0.1, 0.25):
        pdf = synth_data.lineitem(spark, sf=sf).toPandas()
        base, delta = base_and_delta(spark, pdf, DELTA_ROWS)
        _, t_inc = timed(lambda: linear_query(delta).consolidate().df.count())
        _, t_full = timed(lambda: linear_query(base).consolidate().df.count())
        rows.append(
            [len(pdf), DELTA_ROWS, f"{t_inc*1e3:.0f} ms", f"{t_full*1e3:.0f} ms",
             f"{t_full/t_inc:.1f}x"]
        )
    print_table(
        "T2 — linear σ+π pipeline: incremental step vs full recompute",
        ["|DB| rows", "|Δ| rows", "incremental (Q^Δ=Q on Δ)", "full recompute", "speedup"],
        rows,
    )
    spark.stop()


if __name__ == "__main__":
    main()
