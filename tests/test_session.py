"""The one Spark session setup (``repro.session``), without starting Spark."""
from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import session

CGROUP_V1 = "/sys/fs/cgroup/memory/memory.limit_in_bytes"
UNLIMITED = "9223372036854771712\n"  # cgroup v1's "no limit" sentinel


def _host(monkeypatch, files: dict[str, str]) -> None:
    """Serve ``files`` to ``repro.session`` in place of the real host's."""

    def fake_open(path, *args, **kwargs):
        if path in files:
            return io.StringIO(files[path])
        raise FileNotFoundError(path)

    monkeypatch.setattr(session, "open", fake_open, raising=False)
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)


def _meminfo(kb: int) -> str:
    return f"MemFree:         1000000 kB\nMemTotal:       {kb} kB\n"


@pytest.mark.parametrize(
    "kb, expected",
    [
        (16_479_424, "7g"),  # 16 GB host: half, rounded down
        (67_108_864, "8g"),  # 64 GB host: clamped to 8g
        (2_097_152, "2g"),  # 2 GB host: clamped to 2g
    ],
)
def test_driver_memory_is_half_of_memtotal_clamped(monkeypatch, kb, expected):
    _host(monkeypatch, {"/proc/meminfo": _meminfo(kb), CGROUP_V1: UNLIMITED})
    assert session.driver_memory() == expected


def test_driver_memory_without_meminfo_is_2g(monkeypatch):
    _host(monkeypatch, {CGROUP_V1: UNLIMITED})
    assert session.driver_memory() == "2g"


def test_explicit_driver_memory_wins(monkeypatch):
    _host(monkeypatch, {"/proc/meminfo": _meminfo(16_479_424)})
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert session.driver_memory() == "3g"


def test_build_sets_submit_args_and_session_conf(monkeypatch):
    from pyspark.sql import SparkSession

    monkeypatch.delenv("PYSPARK_SUBMIT_ARGS", raising=False)
    monkeypatch.setenv("SPARK_MASTER", "local[2]")
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    monkeypatch.setenv("SPARK_SHUFFLE_PARTITIONS", "7")
    monkeypatch.setattr(SparkSession.Builder, "getOrCreate", lambda b: dict(b._options))
    conf = session.build("probe")
    submit = os.environ["PYSPARK_SUBMIT_ARGS"]
    assert submit.startswith("--master local[2] --driver-memory 3g ")
    assert submit.endswith(" pyspark-shell")
    assert conf["spark.app.name"] == "probe"
    assert conf["spark.sql.shuffle.partitions"] == "7"
    assert conf["spark.sql.execution.arrow.pyspark.enabled"] == "true"
    assert str(conf["spark.sql.autoBroadcastJoinThreshold"]) == "-1"


def test_import_does_not_load_pyspark():
    # submit args must be in place before pyspark launches the JVM
    src = Path(session.__file__).resolve().parents[1]
    code = "import sys, repro.session; sys.exit('pyspark' in sys.modules)"
    subprocess.run(
        [sys.executable, "-c", code], check=True, cwd=src, env={"PYTHONPATH": str(src)}
    )
