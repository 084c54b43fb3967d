"""Reference (pandas/pure-Python) Z-set implementation.

An *independent* implementation of Z-sets as plain ``dict[tuple, int]``
maps, used as a second correctness oracle next to DuckDB: every optimized
Spark operator (incremental join, incremental distinct, semi-naïve
recursion, the nested operators of §6) is tested for stream equality
against by-definition semantics computed with these dictionaries.

It is deliberately boring: no Spark, no clever data structures — just the
paper's definitions transcribed. Rows are tuples; a Z-set maps rows to
non-zero integer weights (absent row == weight 0).
"""
from __future__ import annotations

from typing import Callable

RZ = dict  # type alias: RZ = dict[tuple, int]


def rz(*items: tuple) -> RZ:
    """Build a reference Z-set from ``(row_tuple, weight)`` pairs."""
    out: RZ = {}
    for row, w in items:
        out[row] = out.get(row, 0) + w
        if out[row] == 0:
            del out[row]
    return out


def radd(a: RZ, b: RZ) -> RZ:
    """Group addition (pointwise weight sum, zero rows dropped)."""
    out = dict(a)
    for row, w in b.items():
        nw = out.get(row, 0) + w
        if nw == 0:
            out.pop(row, None)
        else:
            out[row] = nw
    return out


def rneg(a: RZ) -> RZ:
    """Group negation."""
    return {row: -w for row, w in a.items()}


def rsub(a: RZ, b: RZ) -> RZ:
    """Group subtraction."""
    return radd(a, rneg(b))


def rscale(a: RZ, k: int) -> RZ:
    """Scalar multiple ``k·a``."""
    return {} if k == 0 else {row: k * w for row, w in a.items()}


def rdistinct(a: RZ) -> RZ:
    """Definition 4.3: positive-weight rows at weight one."""
    return {row: 1 for row, w in a.items() if w > 0}


def risset(a: RZ) -> bool:
    """Definition 4.1."""
    return all(w == 1 for w in a.values())


def rispositive(a: RZ) -> bool:
    """Definition 4.2."""
    return all(w >= 0 for w in a.values())


def rfilter(a: RZ, pred: Callable[[tuple], bool]) -> RZ:
    """σ — linear."""
    return {row: w for row, w in a.items() if pred(row)}


def rmap(a: RZ, fn: Callable[[tuple], tuple]) -> RZ:
    """π / map — linear; collapsing rows add their weights."""
    out: RZ = {}
    for row, w in a.items():
        nrow = fn(row)
        nw = out.get(nrow, 0) + w
        if nw == 0:
            out.pop(nrow, None)
        else:
            out[nrow] = nw
    return out


def rjoin(
    a: RZ,
    b: RZ,
    key_a: Callable[[tuple], object],
    key_b: Callable[[tuple], object],
    out: Callable[[tuple, tuple], tuple],
) -> RZ:
    """⋈ — bilinear: output weight = product of matched weights."""
    from collections import defaultdict

    index: dict[object, list[tuple]] = defaultdict(list)
    for row in b:
        index[key_b(row)].append(row)
    res: RZ = {}
    for ra, wa in a.items():
        for rb in index.get(key_a(ra), ()):  # noqa: B905
            nrow = out(ra, rb)
            nw = res.get(nrow, 0) + wa * b[rb]
            if nw == 0:
                res.pop(nrow, None)
            else:
                res[nrow] = nw
    return res


def rcartesian(a: RZ, b: RZ) -> RZ:
    """× — bilinear."""
    res: RZ = {}
    for ra, wa in a.items():
        for rb, wb in b.items():
            nrow = ra + rb
            nw = res.get(nrow, 0) + wa * wb
            if nw == 0:
                res.pop(nrow, None)
            else:
                res[nrow] = nw
    return res


def runion(a: RZ, b: RZ) -> RZ:
    """Set UNION = distinct(a+b)."""
    return rdistinct(radd(a, b))


def rdifference(a: RZ, b: RZ) -> RZ:
    """Set EXCEPT = distinct(a-b)."""
    return rdistinct(rsub(a, b))


def rintersect(a: RZ, b: RZ) -> RZ:
    """Bilinear intersection: pointwise weight product."""
    return {row: a[row] * b[row] for row in a if row in b and a[row] * b[row] != 0}


def rh(i: RZ, d: RZ) -> RZ:
    """The ``H`` function of Proposition 4.7 (incremental distinct).

    Support is contained in the support of the change ``d`` — the property
    that makes ``(↑distinct)^Δ`` O(|change|).
    """
    out: RZ = {}
    for row in d:
        old = i.get(row, 0)
        new = old + d[row]
        if old > 0 and new <= 0:
            out[row] = -1
        elif old <= 0 and new > 0:
            out[row] = 1
    return out


def rcount(a: RZ) -> int:
    """a_COUNT — linear Z[A] -> Z."""
    return sum(a.values())


def rsum(a: RZ, idx: int = 0) -> float:
    """a_SUM over column ``idx`` — linear."""
    return sum(row[idx] * w for row, w in a.items())


def rmin(a: RZ, idx: int = 0):
    """MIN over the support of a positive Z-set — non-linear."""
    vals = [row[idx] for row, w in a.items() if w > 0]
    return min(vals) if vals else None
