"""Shared helpers for the experiment jobs.

Each ``jobs/tN_*.py`` reproduces one table of EXPERIMENTS.md: it builds
the workload, runs the paper's incremental circuit against the
non-incremental baseline, and prints a markdown table. Run with
``spark-submit jobs/tN_*.py`` or plain ``python jobs/tN_*.py``.
"""
from __future__ import annotations

import sys
import time
from typing import Callable

from repro import session
from repro.zset.frame import ZSet


def get_spark(app: str):
    """The shared session (``repro.session``), with Spark's log quietened."""
    s = session.build(app)
    s.sparkContext.setLogLevel("ERROR")
    return s


def base_and_delta(spark, pdf, delta_rows: int) -> tuple[ZSet, ZSet]:
    """Materialized Z-sets of all of ``pdf`` and of a seeded row sample."""
    base = ZSet.from_df(spark.createDataFrame(pdf)).materialize()
    delta = ZSet.from_df(
        spark.createDataFrame(pdf.sample(delta_rows, random_state=1))
    ).materialize()
    return base, delta


def timed(fn: Callable, repeats: int = 3) -> tuple[object, float]:
    """Run ``fn`` ``repeats`` times, return (last result, median seconds)."""
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return result, times[len(times) // 2]


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    print(f"\n## {title}\n")
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join("---" for _ in header) + "|")
    for r in rows:
        print("| " + " | ".join(str(x) for x in r) + " |")
    sys.stdout.flush()
