"""Run-time spans around the public calls of each layer, with Spark job counts.

The program is not edited: :class:`Tracer` replaces the listed functions
and methods with wrappers while it is installed, and puts the originals
back on :meth:`Tracer.uninstall`. A span records its name, start, end,
parent, step id and the Spark job group that was current while it was the
innermost span, so every job is counted exactly once, in the span that
launched it. Spans are only opened under a root span (one circuit step or
one recomputation), and tracing launches no Spark job of its own.
"""
from __future__ import annotations

import functools
import time
import uuid
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: "Span | None"
    step: int
    group: str
    start: float = 0.0
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)
    #: observations made by the span's hook (e.g. ``noop`` for materialize)
    notes: dict = field(default_factory=dict)
    jobs: int = 0  # Spark jobs launched while this span was innermost

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def self_ms(self) -> float:
        return self.ms - sum(c.ms for c in self.children)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


def _targets():
    """``(owner, attribute, span name, hook)`` for every traced call.

    Imported lazily so that importing this module needs no ``repro``.
    A hook sees ``(span, args, result)`` after the call returns.
    """
    from repro.core import backend, circuit, nested, operators, recursion
    from repro.sql import compile as sql_compile
    from repro.zset import aggregates, frame, ops

    def materialize_before(span, args):
        span.notes["noop"] = bool(args[0].checkpointed)

    def is_empty_after(span, args, result):
        span.notes["true"] = bool(result)

    def compaction_after(span, args, result):
        # accumulate only materializes (a traced child) when it compacts
        span.notes["compaction"] = any(
            c.name == "frame.materialize" for c in span.children
        )

    return [
        (sql_compile.IncrementalView, "step", "compile.view_step", None, None),
        (sql_compile, "evaluate", "compile.evaluate", None, None),
        (circuit.IncrementalJoin, "step", "circuit.join", None, None),
        (circuit.IncrementalDistinct, "step", "circuit.distinct", None, None),
        (operators.IncrementalGroupAggregate, "step", "operators.groupagg", None, None),
        (nested.IncrementalRecursive, "step", "nested.step", None, None),
        (nested.NestedIncrementalJoin, "inner_step", "nested.join_inner", None, None),
        (nested.NestedIncrementalDistinct, "inner_step", "nested.distinct_inner", None, None),
        (recursion, "semi_naive_fixpoint", "recursion.semi_naive", None, None),
        (backend.SparkZSetOps, "accumulate", "backend.accumulate", None, compaction_after),
        (backend.SparkZSetOps, "h", "backend.h", None, None),
        (frame.ZSet, "materialize", "frame.materialize", materialize_before, None),
        (frame.ZSet, "is_empty", "frame.is_empty", None, is_empty_after),
        (ops, "join_z", "ops.join_z", None, None),
        (aggregates, "group_agg", "aggregates.group_agg", None, None),
    ]


class Tracer:
    """Spans with one Spark job group each; see the module docstring."""

    def __init__(self, sc):
        self.sc = sc
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._n = 0
        self._prefix = f"perfbench-span-{uuid.uuid4().hex}"  # job groups unique per tracer
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _open(self, name: str, step: int) -> Span:
        self._n += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, step, f"{self._prefix}-{self._n}")
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        self.sc.setJobGroup(span.group, name)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self.sc.setJobGroup(self._stack[-1].group, self._stack[-1].name)
        else:
            self.sc._jsc.clearJobGroup()

    def open_root(self, name: str, step: int) -> Span:
        """Open the span of one step or recomputation (see :meth:`close`)."""
        span = self._open(name, step)
        self.roots.append(span)
        return span

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # outside a root, or a recursive call of the same layer
            # (``evaluate`` walks the AST through itself): no new span
            if not stack or stack[-1].name == name:
                return fn(*args, **kwargs)
            span = tracer._open(name, stack[0].step)
            if before is not None:
                before(span, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, before, after in _targets():
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, before, after))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # ------------------------------------------------------------ jobs
    def resolve_jobs(self, root: Span, jobs_of) -> int:
        """Fill ``span.jobs`` for the tree under ``root``; return the total.

        ``jobs_of(group)`` returns the job ids of a job group; call this
        only after the listener bus has drained.
        """
        total = 0
        for s in root.walk():
            s.jobs = len(jobs_of(s.group))
            total += s.jobs
        return total
