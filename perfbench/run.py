"""Measure DBSP circuit steps end to end (``--trace 0``) or per layer (``--trace 1``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload view_churn --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn. The load is a closed
loop: one client thread submits change ``t+1`` only after step ``t``'s
output change has been forced with one ``count()``. Every step is checked
against a recomputation of the view from scratch, and the final view
against DuckDB. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name and unit, and the environment.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work" / str(os.getpid())  # Spark scratch space; removed at exit
RESULTS = HERE / "results"
WARMUP = 1  # changes after the initial load that are not measured
SETUP_REPS = 3  # set-ups (and initial loads) per untraced run; medians reported


# ------------------------------------------------------------------ #
# environment
# ------------------------------------------------------------------ #
def driver_memory() -> str:
    """Half of MemTotal, clamped to 2-8 GiB, as the tier-1 command does."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(8, max(2, g))}g"
    except (OSError, ValueError, IndexError):
        pass
    return "2g"


def pin_environment() -> dict:
    cores = os.cpu_count() or 1
    mem = driver_memory()
    WORK.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        f"--driver-memory {mem}",
        f"--driver-java-options {shlex.quote('-Djava.io.tmpdir=' + str(WORK))}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])
    return {"master": f"local[{cores}]", "cores": cores, "driver_memory": mem}


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def start_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM it runs in, and wait for the JVM."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


class JobCounter:
    """Spark jobs and tasks per job group, from the status tracker."""

    def __init__(self, sc):
        self.sc = sc
        self.tracker = sc.statusTracker()

    def drain(self) -> None:
        # job and stage events reach the status store asynchronously
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()

    def jobs(self, group: str) -> list[int]:
        return list(self.tracker.getJobIdsForGroup(group))

    def tasks(self, job_ids) -> int:
        n = 0
        for j in job_ids:
            info = self.tracker.getJobInfo(j)
            for s in info.stageIds if info else ():
                st = self.tracker.getStageInfo(s)
                n += st.numCompletedTasks if st else 0
        return n


def settle(spark) -> None:
    """Collect garbage left by earlier set-ups before a timed pass.

    Dropped DataFrames free their checkpoint blocks only when both
    interpreters collect them; doing that now keeps the cleanup out of
    the measured steps.
    """
    gc.collect()
    spark.sparkContext._jvm.System.gc()
    time.sleep(1.0)  # Spark's ContextCleaner frees blocks asynchronously


def cpu_steal() -> tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs, or (0, 0) if unreadable.

    Steal is time other tenants of a virtual machine's host took from this
    one; a run with a high steal share ran on a busy host.
    """
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


# ------------------------------------------------------------------ #
# one pass: initial load, then the change stream, checked step by step
# ------------------------------------------------------------------ #
def measure(counter, tracer, name: str, k: int, fn):
    """Time ``fn()`` as step or recomputation ``k`` and count its Spark jobs.

    Untraced, the call runs in a job group of its own; traced, the tracer
    is installed for the call only, which is a root span whose spans have
    one job group each. Returns ``(result, seconds, jobs, tasks)``; tasks
    are counted only untraced.
    """
    sc = counter.sc
    group = f"perfbench-{name}-{k}-{uuid.uuid4().hex}"  # unique in the process
    if tracer:
        tracer.install()
        root = tracer.open_root(name, k)
    else:
        sc.setJobGroup(group, name)
    gc.collect()
    gc.disable()  # no interpreter collection pauses inside the timed call
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        seconds = time.perf_counter() - t0
        gc.enable()
        if tracer:
            tracer.close(root)
            tracer.uninstall()
        else:
            sc._jsc.clearJobGroup()
    counter.drain()
    if tracer:
        return result, seconds, tracer.resolve_jobs(root, counter.jobs), 0
    ids = counter.jobs(group)
    return result, seconds, len(ids), counter.tasks(ids)


class Lane:
    """One circuit fed the change stream, with its integrated output and
    its record; traced when it has a tracer."""

    def __init__(self, wl, tracer):
        self.wl, self.tracer = wl, tracer
        self.circuit = wl.circuit()
        self.integrated = None
        self.rec = {k: [] for k in (
            "step_s", "rows_out", "jobs", "tasks", "recompute_s",
            "recompute_jobs", "recursion_iters", "inner_iters", "ok",
        )}

    def step(self, counter, k: int, changes: dict) -> None:
        wl, rec = self.wl, self.rec

        def step():
            out = wl.step(self.circuit, changes)
            return out, out.df.count()

        (out, rows_out), dt, jobs, tasks = measure(counter, self.tracer, "step", k, step)
        rec["step_s"].append(dt)
        rec["rows_out"].append(rows_out)
        rec["jobs"].append(jobs)
        rec["tasks"].append(tasks)
        rec["inner_iters"].append(wl.inner_iters(self.circuit, k))
        self.integrated = (
            out.materialize() if self.integrated is None
            else self.integrated.add(out).materialize()
        )

    def recompute(self, counter, k: int, snaps: dict) -> None:
        from workloads import same_zset

        wl, rec = self.wl, self.rec

        def recompute():
            ref, iters = wl.recompute(self.circuit, snaps)
            return ref.materialize(), iters

        (ref, iters), dt, jobs, _ = measure(counter, self.tracer, "recompute", k, recompute)
        rec["recompute_s"].append(dt)
        rec["recompute_jobs"].append(jobs)
        rec["recursion_iters"].append(iters)
        rec["ok"].append(same_zset(self.integrated, ref, wl.keys))

    def finish(self, data) -> None:
        """State sizes and the DuckDB oracle, after the timed steps so that
        their jobs never land inside a step."""
        from workloads import oracle_ok

        self.rec["state"] = self.wl.state_rows(self.circuit)
        if not oracle_ok(self.integrated, self.wl, data.live):
            self.rec["ok"][-1] = False


def run_pass(spark, wl, data, tracers=(None,)) -> list[dict]:
    """Feed the base and then every change to one lane per tracer.

    ``None`` is an untraced lane. Lanes step in lockstep, taking turns to
    go first, so a traced and an untraced lane see the same warm-up and
    host load and their step times compare fairly.
    """
    counter = JobCounter(spark.sparkContext)
    lanes = [Lane(wl, t) for t in tracers]
    snaps = dict(data.base)
    t_pass = time.perf_counter()
    steal0 = cpu_steal()
    for k, changes in enumerate([data.base] + data.changes):
        if k:
            snaps = {n: snaps[n].add(changes[n]).materialize() for n in snaps}
        order = lanes if k % 2 == 0 else lanes[::-1]
        for lane in order:
            lane.step(counter, k, changes)
        for lane in order:
            lane.recompute(counter, k, snaps)
    t_final = time.perf_counter()
    for lane in lanes:
        lane.finish(data)
    steal1 = cpu_steal()
    total = steal1[1] - steal0[1]
    for lane in lanes:
        lane.rec["phases_s"] = {"steps": t_final - t_pass, "final": time.perf_counter() - t_final}
        lane.rec["steal_share"] = (steal1[0] - steal0[0]) / total if total else 0.0
    return [lane.rec for lane in lanes]


# ------------------------------------------------------------------ #
# metrics
# ------------------------------------------------------------------ #
def tail(samples: list[float]):
    """Highest percentile with at least 10 samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def end_to_end(rec, data, setup_s, initial_s) -> dict:
    m = slice(1 + WARMUP, None)  # measured steps
    step_s = rec["step_s"][m]
    rows = data.rows_in[WARMUP:]
    return {
        "step_ms_p50": (statistics.median(step_s) * 1e3, "ms"),
        "throughput_rows_per_s": (sum(rows) / sum(step_s), "rows/s"),
        "recompute_ms_p50": (statistics.median(rec["recompute_s"][m]) * 1e3, "ms"),
        # the first initial load warms the JVM up, like the warm-up step
        "initial_load_s": (statistics.median(initial_s[1:]), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "state_rows": (sum(rec["state"].values()), "rows"),
    }


# (span name, name of its self-time metric); all other names are "<span>.calls"
# and "<span>.jobs"
LAYER_SPANS = [
    ("compile.view_step", "self_ms"),
    ("circuit.join", "ms"),
    ("circuit.distinct", "ms"),
    ("operators.groupagg", "ms"),
    ("nested.step", "ms"),
    ("nested.join_inner", "ms"),
    ("nested.distinct_inner", "ms"),
    ("backend.accumulate", "ms"),
    ("backend.h", "ms"),
    ("frame.materialize", "ms"),
    ("frame.is_empty", "ms"),
    ("ops.join_z", "plan_ms"),
    ("aggregates.group_agg", "plan_ms"),
]
RECOMPUTE_SPANS = [("compile.evaluate", "ms"), ("recursion.semi_naive", "ms")]
STATE_METRICS = [
    "circuit.join.state_rows", "circuit.distinct.state_rows",
    "operators.groupagg.state_rows", "nested.state_rows",
]


def _mean(xs) -> float:
    xs = [x for x in xs if x is not None]
    return sum(xs) / len(xs) if xs else 0.0


def _spans(roots, name: str) -> list:
    return [s for r in roots for s in r.walk() if s.name == name]


def _layer_totals(roots, specs) -> dict:
    """Per-root means of calls, self ms and self jobs for each span name."""
    out = {}
    n = max(1, len(roots))
    for name, ms_name in specs:
        spans = _spans(roots, name)
        out[f"{name}.calls"] = len(spans) / n
        out[f"{name}.{ms_name}"] = sum(s.self_ms for s in spans) / n
        out[f"{name}.jobs"] = sum(s.jobs for s in spans) / n
    return out


def per_layer(plain, traced, tracer, data) -> dict:
    m = slice(1 + WARMUP, None)
    first = 1 + WARMUP
    steps = [r for r in tracer.roots if r.name == "step" and r.step >= first]
    recomputes = [r for r in tracer.roots if r.name == "recompute" and r.step >= first]
    t = _layer_totals(steps, LAYER_SPANS)
    t.update(_layer_totals(recomputes, RECOMPUTE_SPANS))

    def share(name, note):
        spans = _spans(steps, name)
        return sum(1 for s in spans if s.notes.get(note)) / len(spans) if spans else 0.0

    all_steps = [r for r in tracer.roots if r.name == "step"]
    compactions = sum(
        1 for r in all_steps for s in r.walk()
        if s.name == "backend.accumulate" and s.notes.get("compaction")
    )
    state = {k: 0 for k in STATE_METRICS}
    state.update(plain["state"])
    ms = lambda xs: statistics.median(xs) * 1e3  # noqa: E731
    v = {
        "spark.jobs_per_step": (_mean(plain["jobs"][m]), "count"),
        "spark.tasks_per_step": (_mean(plain["tasks"][m]), "count"),
        "spark.jobs_per_recompute": (_mean(plain["recompute_jobs"][m]), "count"),
        "compile.view_step.self_ms": (t["compile.view_step.self_ms"], "ms"),
        "compile.evaluate.ms": (t["compile.evaluate.ms"], "ms"),
        "circuit.join.ms": (t["circuit.join.ms"], "ms"),
        "circuit.join.jobs": (t["circuit.join.jobs"], "count"),
        "circuit.distinct.ms": (t["circuit.distinct.ms"], "ms"),
        "circuit.distinct.jobs": (t["circuit.distinct.jobs"], "count"),
        "circuit.join.state_rows": (state["circuit.join.state_rows"], "rows"),
        "circuit.distinct.state_rows": (state["circuit.distinct.state_rows"], "rows"),
        "operators.groupagg.ms": (t["operators.groupagg.ms"], "ms"),
        "operators.groupagg.jobs": (t["operators.groupagg.jobs"], "count"),
        "operators.groupagg.state_rows": (state["operators.groupagg.state_rows"], "rows"),
        "operators.groupagg.touched_share": (_mean(data.touched_share[WARMUP:]), "share"),
        "nested.step.ms": (t["nested.step.ms"], "ms"),
        "nested.join_inner.ms": (t["nested.join_inner.ms"], "ms"),
        "nested.join_inner.jobs": (t["nested.join_inner.jobs"], "count"),
        "nested.distinct_inner.ms": (t["nested.distinct_inner.ms"], "ms"),
        "nested.distinct_inner.jobs": (t["nested.distinct_inner.jobs"], "count"),
        "nested.inner_iters": (_mean(plain["inner_iters"][m]), "count"),
        "nested.state_rows": (state["nested.state_rows"], "rows"),
        "recursion.semi_naive.ms": (t["recursion.semi_naive.ms"], "ms"),
        "recursion.semi_naive.jobs": (t["recursion.semi_naive.jobs"], "count"),
        "recursion.iters": (_mean(plain["recursion_iters"][m]), "count"),
        "backend.accumulate.calls": (t["backend.accumulate.calls"], "count"),
        "backend.accumulate.ms": (t["backend.accumulate.ms"], "ms"),
        "backend.accumulate.jobs": (t["backend.accumulate.jobs"], "count"),
        "backend.accumulate.compactions": (compactions, "count"),
        "backend.h.calls": (t["backend.h.calls"], "count"),
        "backend.h.ms": (t["backend.h.ms"], "ms"),
        "backend.h.jobs": (t["backend.h.jobs"], "count"),
        "frame.materialize.calls": (t["frame.materialize.calls"], "count"),
        "frame.materialize.ms": (t["frame.materialize.ms"], "ms"),
        "frame.materialize.jobs": (t["frame.materialize.jobs"], "count"),
        "frame.materialize.noop_share": (share("frame.materialize", "noop"), "share"),
        "frame.is_empty.calls": (t["frame.is_empty.calls"], "count"),
        "frame.is_empty.ms": (t["frame.is_empty.ms"], "ms"),
        "frame.is_empty.true_share": (share("frame.is_empty", "true"), "share"),
        "ops.join_z.calls": (t["ops.join_z.calls"], "count"),
        "ops.join_z.plan_ms": (t["ops.join_z.plan_ms"], "ms"),
        "aggregates.group_agg.calls": (t["aggregates.group_agg.calls"], "count"),
        "aggregates.group_agg.plan_ms": (t["aggregates.group_agg.plan_ms"], "ms"),
        "step.rows_in": (_mean(data.rows_in[WARMUP:]), "rows"),
        "step.rows_out": (_mean(plain["rows_out"][m]), "rows"),
        "trace.overhead_ms_per_step": (ms(traced["step_s"][m]) - ms(plain["step_s"][m]), "ms"),
        "trace.extra_jobs": (sum(traced["jobs"]) - sum(plain["jobs"]), "count"),
    }
    return v


# ------------------------------------------------------------------ #
# entry point
# ------------------------------------------------------------------ #
def run_workload(wl, seed: int, seconds: int, trace: bool, env: dict) -> dict:
    from spans import Tracer

    n_steps = wl.n_steps(seconds)
    reps = 1 if trace else SETUP_REPS
    setup_s, initial_s, spark = [], [], None
    for r in range(reps):
        t0 = time.perf_counter()
        spark = spark or start_session()
        data = wl.generate(spark, seed, n_steps)
        setup_s.append(time.perf_counter() - t0)
        if r < reps - 1:  # the last set-up's initial load is the pass's first step
            t0 = time.perf_counter()
            wl.step(wl.circuit(), data.base).df.count()
            initial_s.append(time.perf_counter() - t0)
    env.update(spark=spark.version, seed=seed, workload=wl.name, steps=n_steps)

    settle(spark)
    if trace:
        tracer = Tracer(spark.sparkContext)
        plain, traced = run_pass(spark, wl, data, (None, tracer))
        metrics = per_layer(plain, traced, tracer, data)
        if metrics["trace.extra_jobs"][0] != 0:
            raise RuntimeError(
                f"{wl.name}: tracing changed the Spark jobs per step: "
                f"{traced['jobs']} traced vs {plain['jobs']} untraced"
            )
        ok = [a and b for a, b in zip(plain["ok"], traced["ok"])]
    else:
        (plain,) = run_pass(spark, wl, data)
        initial_s.append(plain["step_s"][0])
        metrics = end_to_end(plain, data, setup_s, initial_s)
        ok = plain["ok"]
    m = slice(1 + WARMUP, None)
    return {
        "spark": spark,
        "metrics": metrics,
        "attempted": len(ok),
        "failed": sum(1 for x in ok if not x),
        "tail": tail(plain["step_s"][m]),
        "jobs_per_step": plain["jobs"],
        "step_ms": [x * 1e3 for x in plain["step_s"]],
        "recompute_ms": [x * 1e3 for x in plain["recompute_s"]],
        "phases_s": {"setup": setup_s, "initial": initial_s, **plain["phases_s"]},
        "steal_share": plain["steal_share"],
    }


def print_report(name: str, r: dict, trace: bool) -> None:
    print(f"== {name}")
    for k, (v, unit) in r["metrics"].items():
        print(f"{name}  {k:<36} {v:>14.4f} {unit}")
    if not trace:
        t = r["tail"]
        n = len(r["step_ms"]) - 1 - WARMUP
        if t is None:
            print(f"{name}  {'step_ms_tail':<36} {'n/a':>14} ms  ({n} measured steps; needs 11)")
        else:
            print(f"{name}  {'step_ms_tail':<36} {t[0] * 1e3:>14.4f} ms  (p{t[1]:.1f} of {n} steps)")
    rate = r["failed"] / r["attempted"]
    print(f"{name}  {'error_rate':<36} {rate:>14.4f} share  ({r['failed']} of {r['attempted']} steps)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = pin_environment()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import duckdb

    env.update(
        host=platform.node(), python=platform.python_version(),
        duckdb=duckdb.__version__, commit=git_commit(),
        seconds=args.seconds, trace=args.trace,
    )
    spark, results = None, {}
    try:
        for name in names:
            r = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env)
            spark = r.pop("spark")
            results[name] = r
            print_report(name, r, bool(args.trace))
            print(f"# env {json.dumps(env, sort_keys=True)}")
            print(f"# phases_s {json.dumps(r['phases_s'])} cpu_steal_share {r['steal_share']:.3f}")
            RESULTS.mkdir(exist_ok=True)
            out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps({"env": env, **r, "metrics": {
                k: {"value": v, "unit": u} for k, (v, u) in r["metrics"].items()
            }}, indent=1, default=str))
    finally:
        if spark is not None or "pyspark" in sys.modules:
            stop_spark(spark)
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    prefix = (lambda n: f"{n}.") if len(names) > 1 else (lambda n: "")
    final = {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            prefix(n) + k: {"value": v, "unit": u}
            for n, r in results.items() for k, (v, u) in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
