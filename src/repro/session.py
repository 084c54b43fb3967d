"""The one Spark session setup shared by the test fixture and ``jobs/``.

Master and driver memory are read when the JVM launches, not from
``SparkConf``, so :func:`build` puts them into ``PYSPARK_SUBMIT_ARGS``
before it imports pyspark and starts the session. A
``PYSPARK_SUBMIT_ARGS`` already in the environment is left as it is.

Environment: ``SPARK_MASTER`` (default ``local[*]``), ``SPARK_DRIVER_MEM``
(default :func:`driver_memory`) and ``SPARK_SHUFFLE_PARTITIONS``
(default 64).
"""
from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half of MemTotal clamped to 2-8g.

    The same rule ``perfbench/run.py`` applies. The cgroup limit is not
    consulted: under cgroup v1 it often holds the ~9.2e18 "unlimited"
    sentinel, and the clamp already keeps the heap within a small host.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152  # kB -> half, in GiB
                    return f"{min(8, max(2, g))}g"
    except (OSError, ValueError, IndexError):
        pass
    return "2g"


def build(app: str) -> SparkSession:
    """A local SparkSession that exercises the shuffle path.

    Broadcast joins are disabled so the incremental operators actually
    shuffle at the sizes the tests and jobs use; a query that wants a
    broadcast join asks for it with a hint. Shuffle partitions, Arrow
    and the broadcast threshold are honoured after launch, so they are
    set on the builder.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
