"""Put-free scatter-gather sublanguage over machine trees.

Every global operation is a one-to-many scatter or a many-to-one gather;
local computation stays in ``lmap``.  Every machine is routed as a tree, a
flat machine being a one-leaf tree: the designated root distributes whole
blocks to the addressing root of each child (the first pid of the child's
span), which then scatters internally.  Gather is the same walk with every
send reversed.  Sibling subtrees are independent machines, so their phase
costs overlap (max, not sum).  ``run_nested`` runs a program as SGL only,
rejecting put and proj; ``translate_to_bsml`` routes them through put.
"""

from __future__ import annotations

from functools import partial
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
    if ctx.sgl_via_put:
        return _put_scatter(root, chunks)
    ctx.close_superstep(CommMatrix.from_sends(ctx.p, _scatter_sends(ctx.machine, root, ctx.sizes(chunks, holder=root))))
    return ParVec(chunks)


def gather(root: int, pv: ParVec) -> list:
    """Collect pv[0..p-1] at root, in pid order; one superstep."""
    ctx = current_context()
    bsml._check_width(ctx, pv, "gathered vector")
    _check_root(ctx, root)
    if ctx.sgl_via_put:
        return _put_gather(root, pv)
    sends = _scatter_sends(ctx.machine, root, ctx.sizes(pv.elems))
    ctx.close_superstep(CommMatrix.from_sends(ctx.p, ((d, s, w) for s, d, w in sends)))  # scatter's sends, reversed
    return list(pv.elems)


def lmap(f: Callable, pv: ParVec, *, work: Any = 1) -> ParVec:
    """Pointwise local map; no communication.  f is replicated code, so it holds no words."""
    return bsml.apply(ParVec((f,) * bsml.nprocs()), pv, work=work)


def run_nested(tree: Machine, program: Callable[[], Any], backend: str = "simulate") -> tuple[Any, CostTrace]:
    """Run an SGL-only program on a machine tree; returns (result, trace).

    A flat MachineConfig is accepted as a one-leaf tree.  Programs that invoke
    put or proj are rejected: this is the SGL-only entry point.
    """

    def sgl_program():
        current_context().sgl_only = True
        return program()

    report = run(sgl_program, tree, backend=backend)
    return report.result, report.trace


def translate_to_bsml(program: Callable[[], Any]) -> Callable[[], Any]:
    """Compile an SGL program to one that uses only the bsml primitives.

    scatter becomes a put plan where only the root row is non-empty, gather a
    put plan where every pid sends only to the root; lmap is already apply.
    Results and superstep counts are preserved.
    """

    def bsml_program():
        ctx = current_context()
        previous = ctx.sgl_via_put
        ctx.sgl_via_put = True
        try:
            return program()
        finally:
            ctx.sgl_via_put = previous

    return bsml_program


# --- routing -------------------------------------------------------------------


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
            sends.extend((holder, d, sizes[d]) for d in range(base, base + t.p) if d != holder)
            return
        for child in t.children:
            end = base + child.p
            if base <= holder < end:
                route(child, base, holder)
            else:
                sends.append((holder, base, sum(sizes[base:end])))
                route(child, base, base)
            base = end

    route(tree, 0, root)
    return sends


def _put_scatter(root: int, chunks: tuple) -> ParVec:
    """Scatter as a put plan in which only the root row is non-empty."""
    p = len(chunks)
    plan = bsml.mkpar(
        lambda i: {d: chunks[d] for d in range(p) if d != root} if i == root else {},
        work=0,
    )
    extract = ParVec(partial(lambda i, msgs: chunks[i] if i == root else msgs[root], i) for i in range(p))
    return bsml.apply(extract, bsml.put(plan), work=0)


def _put_gather(root: int, pv: ParVec) -> list:
    """Gather as a put plan in which every pid sends only to the root."""
    plan = bsml.mkpar(
        lambda i: {} if i == root else {root: pv.elems[i]},
        work=0,
    )
    gathered = list(bsml.put(plan).elems[root])
    gathered[root] = pv.elems[root]
    return gathered
