"""Executing relational ASTs: lifted full recomputation vs Algorithm 4.8.

:func:`evaluate` runs an AST non-incrementally over full Z-set snapshots
(the lifted circuit of Algorithm 4.8 step 3 — what a view recomputation
does every transaction).

:class:`IncrementalView` is Algorithm 4.8 steps (4)–(5): each AST node is
replaced by its incremental version — linear nodes by themselves
(Theorem 3.3), ``Join``/``Cartesian`` by :class:`IncrementalJoin`
(Theorem 3.4), ``Distinct`` by :class:`IncrementalDistinct`
(Proposition 4.7) — then chained (the chain rule of Proposition 3.2).
``step`` consumes per-input change Z-sets and emits the view's change.

Both run the same walk, :func:`_run`: the full and the incremental
circuit differ only at the non-linear nodes, which a callback computes.
"""
from __future__ import annotations

from typing import Callable, Mapping

from repro.core.backend import SparkZSetOps
from repro.core.circuit import IncrementalDistinct, IncrementalJoin
from repro.core.operators import join_payload
from repro.zset import ops as zops
from repro.zset.frame import ZSet

from . import translate as t


def _run(
    node: t.Node, inputs: Mapping[str, ZSet], nonlinear: Callable[..., ZSet]
) -> ZSet:
    """Compute ``node`` bottom-up; ``nonlinear(node, *child values)``
    computes ``Join``, ``Cartesian`` and ``Distinct`` nodes."""
    if isinstance(node, t.Rel):
        if node.name not in inputs:
            raise KeyError(
                f"input '{node.name}' missing — pass an explicit empty "
                "ZSet for unchanged inputs"
            )
        return inputs[node.name]
    args = [_run(c, inputs, nonlinear) for c in t.children(node)]
    if isinstance(node, t.Select):
        return zops.filter_z(args[0], node.predicate)
    if isinstance(node, t.Project):
        return zops.map_z(args[0], dict(node.exprs))
    if isinstance(node, t.Negate):
        return args[0].neg()
    if isinstance(node, t.UnionAll):
        return args[0].add(args[1])
    return nonlinear(node, *args)


def _cartesian(a: ZSet, b: ZSet, broadcast: str | None = None) -> ZSet:
    """× as a bilinear payload; its plan takes no broadcast hint."""
    return zops.cartesian_z(a, b)


def _bilinear(node: t.Node) -> Callable[..., ZSet]:
    """The Spark payload ``(a, b, broadcast=None)`` of a Join or Cartesian."""
    if isinstance(node, t.Join):
        return join_payload(node.on, suffix=node.suffix)
    if isinstance(node, t.Cartesian):
        return _cartesian
    raise TypeError(f"unknown node {type(node)}")


def _full(node: t.Node, *args: ZSet) -> ZSet:
    if isinstance(node, t.Distinct):
        return args[0].distinct()
    return _bilinear(node)(*args)


def evaluate(node: t.Node, inputs: Mapping[str, ZSet]) -> ZSet:
    """Run the (non-incremental) Z-set circuit over full snapshots."""
    return _run(node, inputs, _full)


class IncrementalView:
    """A compiled incremental view-maintenance circuit (Algorithm 4.8).

    Built from a (distinct-consolidated) AST; holds one stateful node per
    non-linear AST operator. ``step(changes)`` takes a dict of input-name
    -> change Z-set and returns the change to the view. Every input the
    AST reads must be present at every step — pass an explicit empty
    Z-set for an unchanged input; a missing one raises ``KeyError``.
    """

    def __init__(self, ast: t.Node):
        self.ast = t.consolidate_distincts(ast)
        self.sops = SparkZSetOps()
        # one stateful operator per AST occurrence, keyed by object id
        self._nodes: dict[int, IncrementalJoin | IncrementalDistinct] = {}
        for n in t.walk(self.ast):
            if isinstance(n, t.Distinct):
                self._nodes[id(n)] = IncrementalDistinct(self.sops)
            elif isinstance(n, (t.Join, t.Cartesian)):
                self._nodes[id(n)] = IncrementalJoin(self.sops, _bilinear(n))

    def reset(self) -> None:
        for n in self._nodes.values():
            n.reset()

    def state_sizes(self) -> dict[str, int]:
        """Support sizes of all integrals held by non-linear nodes."""
        out: dict[str, int] = {}
        for k, n in self._nodes.items():
            if isinstance(n, IncrementalJoin):
                out[f"join:{k}"] = sum(n.state_sizes())
            else:
                out[f"distinct:{k}"] = n.state_size()
        return out

    def step(self, changes: Mapping[str, ZSet]) -> ZSet:
        """Advance one transaction: input changes in, view change out."""
        # Theorem 3.4 for Join/Cartesian, Proposition 4.7 for Distinct
        nonlinear = lambda n, *args: self._nodes[id(n)].step(*args)  # noqa: E731
        return _run(self.ast, changes, nonlinear).consolidate()
