"""The put-free basic application library and its expressiveness fraction."""

from __future__ import annotations

import random

from bspkit import MachineConfig, run
from bspkit.checks import sgl_expressiveness
from bspkit.library import (
    BASIC_API,
    broadcast,
    par_dot,
    par_filter,
    par_histogram,
    par_map,
    par_matvec,
    par_reduce,
    par_scan,
    par_zip,
    split_blocks,
)

M4 = MachineConfig(p=4, g=1.0, l=10.0)


def at_p4(op, *args):
    return run(lambda: op(*args), M4).result


class TestSplitBlocks:
    def test_sizes_differ_at_most_one(self):
        rng = random.Random(0)
        for _ in range(50):
            n, p = rng.randint(0, 40), rng.randint(1, 9)
            blocks = split_blocks(range(n), p)
            assert len(blocks) == p
            sizes = [len(b) for b in blocks]
            assert max(sizes) - min(sizes) <= 1
            assert [x for b in blocks for x in b] == list(range(n))

    def test_remainder_goes_to_leading_blocks(self):
        assert split_blocks([1, 2, 3, 4, 5], 3) == [(1, 2), (3, 4), (5,)]


class TestOps:
    def test_map(self):
        assert at_p4(par_map, lambda v: v * v, [1, 2, 3, 4, 5]) == [1, 4, 9, 16, 25]

    def test_reduce_with_nonempty_and_empty_blocks(self):
        assert at_p4(par_reduce, lambda a, b: a + b, [5, 6, 7], 0) == 18
        assert at_p4(par_reduce, lambda a, b: a + b, [], 0) == 0

    def test_reduce_associative_noncommutative(self):
        # string concatenation: associativity alone must suffice
        xs = list("abcdefghij")
        assert at_p4(par_reduce, lambda a, b: a + b, xs, "") == "abcdefghij"

    def test_scan_inclusive(self):
        assert at_p4(par_scan, lambda a, b: a + b, [1, 1, 1, 1, 1], 0) == [1, 2, 3, 4, 5]
        assert at_p4(par_scan, lambda a, b: a + b, [], 0) == []

    def test_zip(self):
        assert at_p4(par_zip, [1, 2, 3], "abc") == [(1, "a"), (2, "b"), (3, "c")]

    def test_filter(self):
        assert at_p4(par_filter, lambda v: v % 3 == 0, list(range(10))) == [0, 3, 6, 9]

    def test_histogram_with_clamping(self):
        got = at_p4(par_histogram, [0, 5, 9, 10, 99, 100, -3], 10, 0, 100)
        # bin 0 holds {0, 5, 9} plus the clamped -3; bin 9 holds 99 plus the clamped 100
        assert got == [4, 1, 0, 0, 0, 0, 0, 0, 0, 2]
        assert sum(got) == 7

    def test_dot(self):
        assert at_p4(par_dot, [1, 2, 3], [4, 5, 6]) == 32

    def test_matvec(self):
        rows = [[1, 0], [0, 1], [2, 3]]
        assert at_p4(par_matvec, rows, [10, 20]) == [10, 20, 80]

    def test_broadcast(self):
        assert list(at_p4(broadcast, 0, ("v",))) == [("v",)] * 4

    def test_scan_sync_count_constant(self):
        for n in (3, 300):
            trace = run(lambda n=n: par_scan(lambda a, b: a + b, list(range(n)), 0), M4).trace
            assert trace.sync_count == 4  # scatter, gather, scatter, gather


class TestExpressiveness:
    def test_fraction_and_missing_entry(self):
        fraction, passing, failing = sgl_expressiveness()
        assert fraction == 0.9
        assert len(BASIC_API) == 10
        assert any(f.startswith("sort") for f in failing)
        assert set(passing) == {
            "map",
            "reduce",
            "scan",
            "zip",
            "filter",
            "histogram",
            "dot-product",
            "matrix-vector",
            "broadcast",
        }

    def test_sort_entry_documents_why(self):
        sort_op = next(op for op in BASIC_API if op.name == "sort")
        assert sort_op.run is None
        assert "put" in sort_op.note
