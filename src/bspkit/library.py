"""Basic application library written in the scatter-gather sublanguage.

Ten elementary list/array operations make up the expressiveness basis used by
the check suite: map, reduce, scan, zip, filter, sort, histogram, dot-product,
matrix-vector multiply, and broadcast.  Each entry carries its sequential
oracle so the suite can measure which fraction of the basis works put-free.

Sort is the known exception: a scalable parallel sort needs an all-to-all
redistribution, which scatter/gather cannot express, so its entry has no
put-free implementation (see ``algorithms.sample_sort`` for the real thing).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .bsml import nprocs
from .model import ParVec
from .sgl import gather, lmap, scatter


def split_blocks(xs: Sequence, p: int) -> list[tuple]:
    """Split into p contiguous blocks whose sizes differ by at most one."""
    xs = list(xs)
    n = len(xs)
    base, rem = divmod(n, p)
    blocks = []
    start = 0
    for i in range(p):
        size = base + (1 if i < rem else 0)
        blocks.append(tuple(xs[start : start + size]))
        start += size
    return blocks


def _concat(blocks) -> list:
    out: list = []
    for b in blocks:
        out.extend(b)
    return out


def par_map(f: Callable, xs: Sequence) -> list:
    p = nprocs()
    pv = scatter(0, split_blocks(xs, p))
    mapped = lmap(lambda blk: tuple(f(v) for v in blk), pv, work=lambda blk: len(blk))
    return _concat(gather(0, mapped))


def par_reduce(op: Callable, xs: Sequence, zero):
    """Left fold; op must be associative for the result to match."""
    p = nprocs()
    pv = scatter(0, split_blocks(xs, p))

    def fold(blk):
        acc = zero
        for v in blk:
            acc = op(acc, v)
        return acc

    partials = gather(0, lmap(fold, pv, work=lambda blk: len(blk)))
    acc = zero
    for v in partials:
        acc = op(acc, v)
    return acc


def par_scan(op: Callable, xs: Sequence, zero) -> list:
    """Inclusive prefix: result[i] = fold of xs[0..i]."""
    p = nprocs()
    pv = scatter(0, split_blocks(xs, p))

    def local_prefix(blk):
        out = []
        acc = zero
        for v in blk:
            acc = op(acc, v)
            out.append(acc)
        return tuple(out), acc

    prefixed = lmap(local_prefix, pv, work=lambda blk: len(blk))
    totals = [t for _pre, t in gather(0, prefixed)]
    offsets = []
    acc = zero
    for t in totals:
        offsets.append(acc)
        acc = op(acc, t)
    shifted = scatter(0, [(pre, off) for (pre, _t), off in zip(prefixed, offsets)])
    final = lmap(lambda po: tuple(op(po[1], v) for v in po[0]), shifted, work=lambda po: len(po[0]))
    return _concat(gather(0, final))


def par_zip(xs: Sequence, ys: Sequence) -> list:
    p = nprocs()
    paired = [(bx, by) for bx, by in zip(split_blocks(xs, p), split_blocks(ys, p))]
    pv = scatter(0, paired)
    zipped = lmap(lambda t: tuple(zip(t[0], t[1])), pv, work=lambda t: len(t[0]))
    return _concat(gather(0, zipped))


def par_filter(pred: Callable, xs: Sequence) -> list:
    p = nprocs()
    pv = scatter(0, split_blocks(xs, p))
    kept = lmap(lambda blk: tuple(v for v in blk if pred(v)), pv, work=lambda blk: len(blk))
    return _concat(gather(0, kept))


def par_histogram(xs: Sequence, bins: int, lo, hi) -> list[int]:
    """Counts per bin over [lo, hi); out-of-range values are clamped."""
    p = nprocs()
    pv = scatter(0, split_blocks(xs, p))
    width = hi - lo

    def local_counts(blk):
        counts = [0] * bins
        for v in blk:
            b = int((v - lo) * bins // width)
            counts[min(max(b, 0), bins - 1)] += 1
        return tuple(counts)

    partials = gather(0, lmap(local_counts, pv, work=lambda blk: len(blk)))
    return [sum(col) for col in zip(*partials)]


def par_dot(xs: Sequence, ys: Sequence):
    p = nprocs()
    paired = [(bx, by) for bx, by in zip(split_blocks(xs, p), split_blocks(ys, p))]
    pv = scatter(0, paired)
    partials = gather(0, lmap(lambda t: sum(a * b for a, b in zip(t[0], t[1])), pv, work=lambda t: len(t[0])))
    return sum(partials)


def par_matvec(rows: Sequence[Sequence], vec: Sequence) -> list:
    """Row-blocked matrix-vector product; the vector rides along in each chunk."""
    p = nprocs()
    chunks = [(blk, tuple(vec)) for blk in split_blocks(rows, p)]
    pv = scatter(0, chunks)
    partial = lmap(
        lambda t: tuple(sum(a * b for a, b in zip(row, t[1])) for row in t[0]),
        pv,
        work=lambda t: len(t[0]) * max(len(t[1]), 1),
    )
    return _concat(gather(0, partial))


def broadcast(root: int, value) -> ParVec:
    """All pids end up holding value; one superstep, on a flat machine h = (p-1) * size(value)."""
    p = nprocs()
    return scatter(root, [value] * p)


# --- the expressiveness basis ---------------------------------------------------


@dataclass(frozen=True)
class BasicOp:
    """One basis operation: put-free implementation (or None), oracle, input maker.

    The oracle takes (p, *args) where args are whatever gen produced; p only
    matters for operations whose output shape depends on the machine.
    """

    name: str
    run: Callable | None
    oracle: Callable
    gen: Callable[[random.Random, int], tuple]
    note: str = ""


def _ints(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(0, 99) for _ in range(n)]


def _oracle_scan(p, xs):
    out = []
    acc = 0
    for v in xs:
        acc += v
        out.append(acc)
    return out


def _oracle_histogram(p, xs):
    counts = [0] * 10
    for v in xs:
        counts[min(max(v // 10, 0), 9)] += 1
    return counts


BASIC_API: tuple[BasicOp, ...] = (
    BasicOp(
        "map",
        lambda xs: par_map(lambda v: 3 * v + 1, xs),
        lambda p, xs: [3 * v + 1 for v in xs],
        lambda rng, n: (_ints(rng, n),),
    ),
    BasicOp(
        "reduce",
        lambda xs: par_reduce(lambda a, b: a + b, xs, 0),
        lambda p, xs: sum(xs),
        lambda rng, n: (_ints(rng, n),),
    ),
    BasicOp(
        "scan",
        lambda xs: par_scan(lambda a, b: a + b, xs, 0),
        _oracle_scan,
        lambda rng, n: (_ints(rng, n),),
    ),
    BasicOp(
        "zip",
        lambda xs, ys: par_zip(xs, ys),
        lambda p, xs, ys: list(zip(xs, ys)),
        lambda rng, n: (_ints(rng, n), _ints(rng, n)),
    ),
    BasicOp(
        "filter",
        lambda xs: par_filter(lambda v: v % 2 == 0, xs),
        lambda p, xs: [v for v in xs if v % 2 == 0],
        lambda rng, n: (_ints(rng, n),),
    ),
    BasicOp(
        "sort",
        None,
        lambda p, xs: sorted(xs),
        lambda rng, n: (_ints(rng, n),),
        note="needs all-to-all redistribution; put is absent in SGL",
    ),
    BasicOp(
        "histogram",
        lambda xs: par_histogram(xs, 10, 0, 100),
        _oracle_histogram,
        lambda rng, n: (_ints(rng, n),),
    ),
    BasicOp(
        "dot-product",
        lambda xs, ys: par_dot(xs, ys),
        lambda p, xs, ys: sum(a * b for a, b in zip(xs, ys)),
        lambda rng, n: (_ints(rng, n), _ints(rng, n)),
    ),
    BasicOp(
        "matrix-vector",
        lambda rows, vec: par_matvec(rows, vec),
        lambda p, rows, vec: [sum(a * b for a, b in zip(row, vec)) for row in rows],
        lambda rng, n: ([_ints(rng, 5) for _ in range(n)], _ints(rng, 5)),
    ),
    BasicOp(
        "broadcast",
        lambda value: list(broadcast(0, value)),
        lambda p, value: [value] * p,
        lambda rng, n: (tuple(_ints(rng, min(n, 8))),),
    ),
)
