"""T3 — bilinear join: Theorem 3.4's three-term step vs full join recompute."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import base_and_delta, get_spark, print_table, timed  # noqa: E402

from repro import synth_data  # noqa: E402
from repro.core.operators import incremental_join_node  # noqa: E402
from repro.zset import ops as zops  # noqa: E402

ON = [("o_orderkey", "l_orderkey")]
PROJ = {"k": "o_orderkey", "c": "o_custkey", "p": "l_partkey", "q": "l_quantity"}
DELTA_LI, DELTA_O = 1_000, 250


def main():
    spark = get_spark("t3_join")
    rows = []
    for sf in (0.01, 0.05, 0.1, 0.25, 0.5):
        li = synth_data.lineitem(spark, sf=sf).toPandas()
        o = synth_data.orders(spark, sf=sf).toPandas()
        z_li, d_li = base_and_delta(spark, li, DELTA_LI)
        z_o, d_o = base_and_delta(spark, o, DELTA_O)

        node = incremental_join_node(on=ON, project=PROJ)
        node.step(z_o, z_li)  # load integrals
        _, t_inc = timed(lambda: node.step(d_o, d_li).consolidate().df.count())

        def full():
            j = zops.join_z(z_o, z_li, on=ON)
            return zops.map_z(j, PROJ).consolidate().df.count()

        _, t_full = timed(full)
        rows.append(
            [len(o), len(li), f"{DELTA_O}+{DELTA_LI}",
             f"{t_inc*1e3:.0f} ms", f"{t_full*1e3:.0f} ms", f"{t_full/t_inc:.1f}x"]
        )
    print_table(
        "T3 — orders ⋈ lineitem: incremental (Thm 3.4) vs full recompute",
        ["|orders|", "|lineitem|", "|Δ| rows", "incremental step", "full join", "speedup"],
        rows,
    )
    spark.stop()


if __name__ == "__main__":
    main()
