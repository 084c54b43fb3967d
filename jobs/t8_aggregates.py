"""T8 — aggregates & windows: linear vs non-linear incremental behaviour."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import base_and_delta, get_spark, print_table, timed  # noqa: E402

from repro import synth_data  # noqa: E402
from repro.core.backend import SparkZSetOps  # noqa: E402
from repro.core.circuit import BruteIncremental  # noqa: E402
from repro.core.operators import IncrementalGroupAggregate  # noqa: E402
from repro.core.window import TimeRangeWindow  # noqa: E402
from repro.zset import aggregates  # noqa: E402
from repro.zset.frame import ZSet  # noqa: E402

SOPS = SparkZSetOps()
DELTA_ROWS = 1_000
KEYS = ["l_partkey"]
AGGS = [("total_qty", "sum", "l_quantity"), ("n", "count", None)]


def main():
    spark = get_spark("t8_aggregates")
    rows = []
    for sf in (0.01, 0.05, 0.1, 0.25):
        pdf = synth_data.lineitem(spark, sf=sf).toPandas()
        base, delta = base_and_delta(spark, pdf, DELTA_ROWS)

        inc = IncrementalGroupAggregate(KEYS, AGGS)
        inc.step(base)
        _, t_inc = timed(lambda: inc.step(delta).df.count())

        brute = BruteIncremental(SOPS, lambda z: aggregates.group_agg(z, KEYS, AGGS))
        brute.step(base)
        _, t_brute = timed(lambda: brute.step(delta).consolidate().df.count())

        def min_singleton(z):
            m = aggregates.agg_min(z, "l_extendedprice")
            return ZSet.from_rows(spark, [(float(m), 1)], "m double")

        min_node = BruteIncremental(SOPS, min_singleton)
        min_node.step(base)
        _, t_min = timed(lambda: min_node.step(delta).consolidate().df.count())

        _, t_lin = timed(lambda: aggregates.agg_sum(delta, "l_quantity"))

        rows.append(
            [len(pdf), DELTA_ROWS, f"{t_lin*1e3:.0f} ms", f"{t_inc*1e3:.0f} ms",
             f"{t_brute*1e3:.0f} ms", f"{t_min*1e3:.0f} ms"]
        )
    print_table(
        "T8 — aggregation step cost under a 1k-row change",
        ["|DB| rows", "|Δ| rows", "linear SUM (Thm 3.3)",
         "GROUP-BY-SUM changed groups (§7.4)",
         "GROUP-BY-SUM brute force", "MIN brute force (§7.2)"],
        rows,
    )

    # window state bound (§7.6.1): rows retained vs rows received
    w = TimeRangeWindow("ts", width=5.0)
    wrows = []
    received = 0
    for t in range(20):
        delta = ZSet.from_rows(
            spark, [(t * 100 + j, float(t), 1) for j in range(100)], "k int, ts double"
        )
        w.step(delta, float(t))
        received += 100
        if t % 5 == 4:
            wrows.append([t + 1, received, w.state_size()])
    print_table(
        "T8b — [RANGE 5] window: bounded state on an unbounded stream",
        ["watermark", "rows received", "rows retained (state)"],
        wrows,
    )
    spark.stop()


if __name__ == "__main__":
    main()
