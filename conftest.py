import sys

import pytest

from repro import session


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session.

    Master, driver memory and session configs come from
    :func:`repro.session.build`, the setup the ``jobs/`` share.
    """
    s = session.build("repro")
    sc = s.sparkContext
    # One line in the test log that records the heap the JVM was given.
    print(
        f"[conftest] driver memory={sc.getConf().get('spark.driver.memory', 'default')} "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
