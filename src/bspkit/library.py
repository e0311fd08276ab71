"""Basic application library written in the scatter-gather sublanguage.

The collectives over per-pid values (``tree_fold``, ``reduce``, ``scan`` and
``broadcast``) live here, and the list operations below are built from one
block pipeline: scatter one chunk per pid from pid 0, ``lmap``, gather at
pid 0.

Ten elementary list/array operations make up the expressiveness basis used by
the check suite: map, reduce, scan, zip, filter, sort, histogram, dot-product,
matrix-vector multiply, and broadcast.  Each entry carries its sequential
oracle so the suite can measure which fraction of the basis works put-free.

Sort is the known exception: a scalable parallel sort needs an all-to-all
redistribution, which scatter/gather cannot express, so its entry has no
put-free implementation (see ``algorithms.sample_sort`` for the real thing).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

from .bsml import nprocs
from .errors import UsageError
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


# --- collectives over per-pid values ---------------------------------------------


def tree_fold(op: Callable, values: Sequence):
    """Fold in a fixed left-balanced binary tree order: ((a.b),(c.d))..."""
    items = list(values)
    if not items:
        raise UsageError("tree_fold needs at least one value")
    while len(items) > 1:
        items = [op(items[i], items[i + 1]) if i + 1 < len(items) else items[i] for i in range(0, len(items), 2)]
    return items[0]


def reduce(op: Callable, pv: ParVec):
    """Combine the p per-pid values in fixed tree order; one superstep."""
    return tree_fold(op, gather(0, pv))


def scan(op: Callable, pv: ParVec) -> ParVec:
    """Inclusive prefix over pids: result[i] = fold of pv[0..i]; two supersteps."""
    return scatter(0, accumulate(gather(0, pv), op))


def broadcast(root: int, value) -> ParVec:
    """All pids end up holding value; one superstep, on a flat machine h = (p-1) * size(value)."""
    p = nprocs()
    return scatter(root, [value] * p)


# --- operations over lists -----------------------------------------------------------


def _blockwise(f: Callable, chunks: Sequence, work: Callable = len) -> list:
    """Scatter chunk i from pid 0 to pid i, apply f there, gather the results at pid 0; two supersteps."""
    return gather(0, lmap(f, scatter(0, chunks), work=work))


def _paired_blocks(xs: Sequence, ys: Sequence) -> list[tuple]:
    """Per pid, its block of xs alongside its block of ys."""
    p = nprocs()
    return list(zip(split_blocks(xs, p), split_blocks(ys, p)))


def par_map(f: Callable, xs: Sequence) -> list:
    return _concat(_blockwise(lambda blk: tuple(f(v) for v in blk), split_blocks(xs, nprocs())))


def par_reduce(op: Callable, xs: Sequence, zero):
    """Fold of xs: each block folds from zero, the block results in ``reduce``'s tree order.

    op must be associative and zero its identity for the result to match.
    """
    return tree_fold(op, _blockwise(lambda blk: functools.reduce(op, blk, zero), split_blocks(xs, nprocs())))


def par_scan(op: Callable, xs: Sequence, zero) -> list:
    """Inclusive prefix: result[i] = fold of xs[0..i]."""

    def local_prefix(blk):
        prefix = tuple(accumulate(blk, op, initial=zero))
        return prefix[1:], prefix[-1]

    prefixed = _blockwise(local_prefix, split_blocks(xs, nprocs()))
    offsets = accumulate((t for _pre, t in prefixed), op, initial=zero)
    shifted = [(pre, off) for (pre, _t), off in zip(prefixed, offsets)]
    return _concat(_blockwise(lambda po: tuple(op(po[1], v) for v in po[0]), shifted, work=lambda po: len(po[0])))


def par_zip(xs: Sequence, ys: Sequence) -> list:
    return _concat(_blockwise(lambda t: tuple(zip(t[0], t[1])), _paired_blocks(xs, ys), work=lambda t: len(t[0])))


def par_filter(pred: Callable, xs: Sequence) -> list:
    return _concat(_blockwise(lambda blk: tuple(v for v in blk if pred(v)), split_blocks(xs, nprocs())))


def par_histogram(xs: Sequence, bins: int, lo, hi) -> list[int]:
    """Counts per bin over [lo, hi); out-of-range values are clamped."""
    width = hi - lo

    def local_counts(blk):
        counts = [0] * bins
        for v in blk:
            b = int((v - lo) * bins // width)
            counts[min(max(b, 0), bins - 1)] += 1
        return tuple(counts)

    return [sum(col) for col in zip(*_blockwise(local_counts, split_blocks(xs, nprocs())))]


def par_dot(xs: Sequence, ys: Sequence):
    return sum(_blockwise(lambda t: sum(a * b for a, b in zip(t[0], t[1])), _paired_blocks(xs, ys), work=lambda t: len(t[0])))


def par_matvec(rows: Sequence[Sequence], vec: Sequence) -> list:
    """Row-blocked matrix-vector product; the vector rides along in each chunk."""
    chunks = [(blk, tuple(vec)) for blk in split_blocks(rows, nprocs())]
    return _concat(
        _blockwise(
            lambda t: tuple(sum(a * b for a, b in zip(row, t[1])) for row in t[0]),
            chunks,
            work=lambda t: len(t[0]) * max(len(t[1]), 1),
        )
    )


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
        par_zip,
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
        par_dot,
        lambda p, xs, ys: sum(a * b for a, b in zip(xs, ys)),
        lambda rng, n: (_ints(rng, n), _ints(rng, n)),
    ),
    BasicOp(
        "matrix-vector",
        par_matvec,
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
