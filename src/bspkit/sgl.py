"""Put-free scatter-gather sublanguage over machine trees.

Every global operation is a one-to-many scatter or a many-to-one gather;
local computation stays in ``lmap``.  Every machine is routed as a tree, a
flat machine being a one-leaf tree: the designated root distributes whole
blocks to the addressing root of each child (the first pid of the child's
span), which then scatters internally.  Gather is the same walk with every
send reversed.  Sibling subtrees are independent machines, so their phase
costs overlap (max, not sum).  ``run_nested`` runs a program as SGL only,
rejecting put and proj; ``translate_to_bsml`` swaps in put-based routing.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from . import bsml
from .engine import RunContext, current_context, run
from .errors import DimensionError, RoutingError
from .model import (
    CommMatrix,
    CostTrace,
    Leaf,
    Machine,
    MachineTree,
    Node,
    ParVec,
    total_p,
)

__all__ = [
    "Leaf",
    "Node",
    "MachineTree",
    "scatter",
    "gather",
    "lmap",
    "run_nested",
    "translate_to_bsml",
]


def scatter(root: int, chunks: Sequence) -> ParVec:
    """Distribute chunk i from root to pid i; one superstep."""
    ctx = current_context()
    chunks = tuple(chunks)
    if len(chunks) != ctx.p:
        raise DimensionError(f"scatter needs exactly p={ctx.p} chunks, got {len(chunks)}")
    _check_root(ctx, root)
    return _impl_for(ctx).scatter(ctx, root, chunks)


def gather(root: int, pv: ParVec) -> list:
    """Collect pv[0..p-1] at root, in pid order; one superstep."""
    ctx = current_context()
    if not isinstance(pv, ParVec) or len(pv) != ctx.p:
        raise DimensionError(f"gather needs a width-{ctx.p} ParVec")
    _check_root(ctx, root)
    return _impl_for(ctx).gather(ctx, root, pv)


def lmap(f: Callable, pv: ParVec, *, work: Any = 1) -> ParVec:
    """Pointwise local map; no communication."""
    ctx = current_context()
    fv = bsml.mkpar(lambda _i: f, work=0)
    return bsml.apply(fv, pv, work=work)


def run_nested(tree: Machine, program: Callable[[], Any], backend: str = "simulate", **kwargs) -> tuple[Any, CostTrace]:
    """Run an SGL-only program on a machine tree; returns (result, trace).

    A flat MachineConfig is accepted as a one-leaf tree.  Programs that invoke
    put or proj are rejected: this is the SGL-only entry point.
    """
    report = run(program, tree, backend=backend, _sgl_only=True, **kwargs)
    return report.result, report.trace


def translate_to_bsml(program: Callable[[], Any]) -> Callable[[], Any]:
    """Compile an SGL program to one that uses only the bsml primitives.

    scatter becomes a put plan where only the root row is non-empty, gather a
    put plan where every pid sends only to the root; lmap is already apply.
    Results and superstep counts are preserved.
    """

    def bsml_program(*args, **kwargs):
        ctx = current_context()
        previous = ctx.sgl_impl
        ctx.sgl_impl = _BsmlSgl()
        try:
            return program(*args, **kwargs)
        finally:
            ctx.sgl_impl = previous

    return bsml_program


# --- implementation strategies -------------------------------------------------


def _impl_for(ctx: RunContext):
    if ctx.sgl_impl is None:
        ctx.sgl_impl = _TreeSgl()
    return ctx.sgl_impl


def _check_root(ctx: RunContext, root: int) -> None:
    if isinstance(root, bool) or not isinstance(root, int) or not 0 <= root < ctx.p:
        raise RoutingError(f"root pid {root!r} out of range 0..{ctx.p - 1}")


def _scatter_sends(tree: MachineTree, root: int, sizes: list[int]) -> list[tuple[int, int, int]]:
    """(source, dest, words) of a scatter from root over the machine tree.

    Each child that does not hold the data receives its whole block at its
    first pid, which then scatters within the child.
    """
    sends: list[tuple[int, int, int]] = []

    def route(t: MachineTree, base: int, holder: int) -> None:
        if isinstance(t, Leaf):
            sends.extend((holder, d, sizes[d]) for d in range(base, base + t.config.p) if d != holder)
            return
        for child in t.children:
            end = base + total_p(child)
            if base <= holder < end:
                route(child, base, holder)
            else:
                sends.append((holder, base, sum(sizes[base:end])))
                route(child, base, base)
            base = end

    route(tree, 0, root)
    return sends


class _TreeSgl:
    """Hierarchical routing; gather moves the words of scatter's sends backwards."""

    def scatter(self, ctx: RunContext, root: int, chunks: tuple) -> ParVec:
        self._close(ctx, _scatter_sends(ctx.machine, root, [ctx.sizing(c) for c in chunks]))
        return ParVec(chunks)

    def gather(self, ctx: RunContext, root: int, pv: ParVec) -> list:
        sends = _scatter_sends(ctx.machine, root, [ctx.sizing(v) for v in pv.elems])
        self._close(ctx, [(d, s, w) for s, d, w in sends])
        return list(pv.elems)

    @staticmethod
    def _close(ctx: RunContext, sends: list[tuple[int, int, int]]) -> None:
        for _s, d, w in sends:
            ctx.add_alloc(d, w)
        ctx.close_superstep(CommMatrix.from_sends(ctx.p, sends))


class _BsmlSgl:
    """Scatter/gather realized as put plans from/to the root."""

    def scatter(self, ctx: RunContext, root: int, chunks: tuple) -> ParVec:
        p = ctx.p
        plan = bsml.mkpar(
            lambda i: {d: chunks[d] for d in range(p) if d != root} if i == root else {},
            work=0,
        )
        received = bsml.put(plan)
        extract = bsml.mkpar(
            lambda i: (lambda msgs, i=i: chunks[i] if i == root else msgs[root]),
            work=0,
        )
        return bsml.apply(extract, received, work=0)

    def gather(self, ctx: RunContext, root: int, pv: ParVec) -> list:
        p = ctx.p
        plan = bsml.mkpar(
            lambda i: {} if i == root else {root: pv.elems[i]},
            work=0,
        )
        received = bsml.put(plan)
        at_root = received.elems[root]
        return [pv.elems[s] if s == root else at_root[s] for s in range(p)]
