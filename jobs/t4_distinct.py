"""T4 — (↑distinct)^Δ via Prop 4.7's H vs brute-force D∘↑distinct∘I."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import base_and_delta, get_spark, print_table, timed  # noqa: E402

from repro import synth_data  # noqa: E402
from repro.core.backend import SparkZSetOps  # noqa: E402
from repro.core.circuit import BruteIncremental, IncrementalDistinct  # noqa: E402
from repro.zset import ops as zops  # noqa: E402

DELTA_ROWS = 1_000


def proj(z):
    return zops.map_z(z, {"p": "l_partkey", "flag": "l_returnflag"})


def main():
    spark = get_spark("t4_distinct")
    sops = SparkZSetOps()
    rows = []
    for sf in (0.01, 0.05, 0.1, 0.25):
        pdf = synth_data.lineitem(spark, sf=sf).toPandas()
        base, delta = base_and_delta(spark, pdf, DELTA_ROWS)
        base, delta = proj(base).materialize(), proj(delta).materialize()

        h_node = IncrementalDistinct(sops)
        h_node.step(base)
        _, t_h = timed(lambda: h_node.step(delta).consolidate().df.count())

        b_node = BruteIncremental(sops, lambda z: z.distinct())
        b_node.step(base)
        _, t_b = timed(lambda: b_node.step(delta).consolidate().df.count())

        rows.append(
            [len(pdf), h_node.state_size(), DELTA_ROWS,
             f"{t_h*1e3:.0f} ms", f"{t_b*1e3:.0f} ms", f"{t_b/t_h:.1f}x"]
        )
    print_table(
        "T4 — incremental distinct: H-based (Prop 4.7) vs brute force",
        ["|DB| rows", "integral rows", "|Δ| rows", "H-based step", "brute-force step", "speedup"],
        rows,
    )
    spark.stop()


if __name__ == "__main__":
    main()
