"""T5 — Algorithm 4.8 end-to-end on a composed view (σ, ⋈, π, distinct)."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import base_and_delta, get_spark, print_table, timed  # noqa: E402

from repro import synth_data  # noqa: E402
from repro.sql import translate as t  # noqa: E402
from repro.sql.compile import IncrementalView, evaluate  # noqa: E402

DELTA_LI, DELTA_O = 1_000, 250


def view_ast():
    return t.t_project(
        t.t_join(
            t.t_select(t.Rel("orders"), "o_totalprice > 100000"),
            t.t_select(t.Rel("lineitem"), "l_quantity > 25"),
            on=[("o_orderkey", "l_orderkey")],
        ),
        {"c": "o_custkey", "p": "l_partkey"},
    )


def main():
    spark = get_spark("t5_view")
    rows = []
    for sf in (0.01, 0.05, 0.1, 0.25, 0.5):
        li = synth_data.lineitem(spark, sf=sf).toPandas()
        o = synth_data.orders(spark, sf=sf).toPandas()
        z_li, d_li = base_and_delta(spark, li, DELTA_LI)
        z_o, d_o = base_and_delta(spark, o, DELTA_O)

        iv = IncrementalView(view_ast())
        iv.step({"orders": z_o, "lineitem": z_li})
        _, t_inc = timed(
            lambda: iv.step({"orders": d_o, "lineitem": d_li}).df.count()
        )
        ast = iv.ast
        _, t_full = timed(
            lambda: evaluate(ast, {"orders": z_o, "lineitem": z_li}).consolidate().df.count()
        )
        rows.append(
            [len(o) + len(li), f"{DELTA_O}+{DELTA_LI}",
             sum(iv.state_sizes().values()),
             f"{t_inc*1e3:.0f} ms", f"{t_full*1e3:.0f} ms", f"{t_full/t_inc:.1f}x"]
        )
    print_table(
        "T5 — composed view (σ,⋈,π,distinct) via Algorithm 4.8",
        ["|DB| rows", "|Δ| rows", "state rows", "incremental step", "full recompute", "speedup"],
        rows,
    )
    spark.stop()


if __name__ == "__main__":
    main()
