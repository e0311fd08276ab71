"""Scatter-gather sublanguage: flat, nested, and translated execution."""

from __future__ import annotations

import random

import pytest

from bspkit import (
    Leaf,
    MachineConfig,
    Node,
    gather,
    lmap,
    mkpar,
    proj,
    put,
    run,
    run_nested,
    scatter,
    translate_to_bsml,
)
from bspkit import bsml
from bspkit.checks import sgl_pipeline, two_by_two_tree
from bspkit.errors import DimensionError, RoutingError, UsageError
from bspkit.library import BASIC_API, broadcast, split_blocks
from bspkit.model import ParVec

M3 = MachineConfig(p=3, g=1.0, l=10.0)
M4 = MachineConfig(p=4, g=1.0, l=10.0)


class TestScatter:
    def test_values_and_root_row_words(self):
        report = run(lambda: scatter(0, [("a",), ("b", "b"), ("c", "c", "c")]), M3)
        assert report.result == ParVec([("a",), ("b", "b"), ("c", "c", "c")])
        step = report.trace.steps[0]
        # root keeps chunk 0; sends size(b)+size(c) = 2 + 3
        assert step.comm.sent(0) == 5
        assert step.comm.words[0][1] == 2
        assert step.comm.words[0][2] == 3

    def test_p1_identity_h0(self):
        report = run(lambda: scatter(0, [99]), MachineConfig(p=1, g=1.0, l=10.0))
        assert report.result == ParVec([99])
        assert report.trace.steps[0].h == 0

    def test_scatter_then_gather_round_trip(self):
        chunks = [(1, 2), (3,), (4, 5, 6)]

        def program():
            return gather(0, scatter(0, chunks))

        assert run(program, M3).result == chunks

    def test_wrong_chunk_count(self):
        with pytest.raises(DimensionError):
            run(lambda: scatter(0, [1, 2]), M3)

    def test_root_out_of_range(self):
        for root in (7, True):
            with pytest.raises(RoutingError):
                run(lambda: scatter(root, [1, 2, 3]), M3)


class TestGather:
    def test_values_and_root_column(self):
        def program():
            return gather(1, mkpar(lambda i: (i + 1) * 10, work=0))

        report = run(program, M3)
        assert report.result == [10, 20, 30]
        # root receives one word from each of the 2 other pids
        assert report.trace.steps[0].h == 2

    def test_p1(self):
        report = run(lambda: gather(0, mkpar(lambda i: 5, work=0)), MachineConfig(p=1, g=1.0, l=10.0))
        assert report.result == [5]
        assert report.trace.steps[0].h == 0

    def test_root_out_of_range(self):
        for root in (-1, True):
            with pytest.raises(RoutingError):
                run(lambda: gather(root, mkpar(lambda i: i, work=0)), M3)


    @pytest.mark.parametrize("backend", ["simulate", "parallel"])
    def test_non_vector_is_a_usage_error(self, backend):
        with pytest.raises(UsageError):
            run(lambda: gather(0, [1, 2, 3]), M3, backend=backend)

    @pytest.mark.parametrize("backend", ["simulate", "parallel"])
    def test_wrong_width_is_a_dimension_error(self, backend):
        with pytest.raises(DimensionError):
            run(lambda: gather(0, ParVec([1, 2])), M3, backend=backend)


class TestLmap:
    def test_pointwise_no_comm(self):
        def program():
            pv = scatter(0, [1, 2, 3])
            return gather(0, lmap(lambda v: v + 1, pv))

        report = run(program, M3)
        assert report.result == [2, 3, 4]
        assert report.trace.sync_count == 2  # scatter + gather only

    def test_identity(self):
        def program():
            pv = scatter(0, [1, 2, 3])
            return gather(0, lmap(lambda v: v, pv))

        assert run(program, M3).result == [1, 2, 3]

    def test_declared_work(self):
        def program():
            pv = scatter(0, [0] * 4)
            lmap(lambda v: v, pv, work=7)
            gather(0, pv)

        trace = run(program, M4).trace
        assert trace.steps[1].work == (7, 7, 7, 7)

    @pytest.mark.parametrize("backend", ["simulate", "parallel"])
    def test_replicated_function_holds_no_words(self, backend):
        # 4 one-word blocks: pid 0 ends holding its own block plus the 3 it gathers
        report = run(lambda: gather(0, lmap(lambda v: v, scatter(0, [(0,), (1,), (2,), (3,)]))), M4, backend=backend)
        assert report.result == [(0,), (1,), (2,), (3,)]
        assert report.peak_words == 4


class TestRunNested:
    def test_flat_scatter_cost(self):
        _res, trace = run_nested(MachineConfig(p=4, g=1.0, l=10.0), lambda: scatter(0, [1, 2, 3, 4]))
        assert trace.steps[0].cost == 13.0  # h=3 at the root

    def test_hand_decomposed_two_level_cost(self):
        # level: root sends 2 words to the other child root at g=2,l=20 -> 24
        # leaves: 1 word internally at g=1,l=10 -> 11, concurrent -> max
        _res, trace = run_nested(two_by_two_tree(), lambda: scatter(0, [1, 2, 3, 4]))
        assert trace.steps[0].cost == 35.0

    def test_gather_mirrors_scatter_cost(self):
        def program():
            return gather(0, scatter(0, [1, 2, 3, 4]))

        _res, trace = run_nested(two_by_two_tree(), program)
        assert trace.steps[0].cost == trace.steps[1].cost == 35.0

    def test_values_equal_nested_vs_flat(self):
        rng = random.Random(3)
        tree = two_by_two_tree()
        flat = MachineConfig(p=4, g=1.0, l=10.0)
        for op in BASIC_API:
            if op.run is None:
                continue
            args = op.gen(rng, 37)
            nested_val, _t = run_nested(tree, lambda: op.run(*args))
            flat_val, _t = run_nested(flat, lambda: op.run(*args))
            assert nested_val == flat_val, op.name

    def test_put_rejected(self):
        with pytest.raises(UsageError, match="put is absent in SGL"):
            run_nested(two_by_two_tree(), lambda: put(mkpar(lambda i: {}, work=0)))
        with pytest.raises(UsageError, match="put is absent in SGL"):
            run_nested(two_by_two_tree(), translate_to_bsml(lambda: scatter(0, [(1,)] * 4)))

    def test_put_rejected_on_flat_sgl_runs_too(self):
        with pytest.raises(UsageError, match="put is absent in SGL"):
            run_nested(MachineConfig(p=2, g=1.0, l=10.0), lambda: put(mkpar(lambda i: {}, work=0)))

    def test_proj_rejected_in_sgl(self):
        with pytest.raises(UsageError, match="proj"):
            run_nested(two_by_two_tree(), lambda: proj(mkpar(lambda i: i, work=0)))

    def test_nonroot_scatter_on_tree(self):
        # scattering from pid 3 must still deliver chunk i to pid i
        def program():
            return gather(2, scatter(3, ["a", "b", "c", "d"]))

        res, _trace = run_nested(two_by_two_tree(), program)
        assert res == ["a", "b", "c", "d"]

    def test_deeper_tree_values(self):
        tree = Node(
            children=(
                Node(
                    children=(Leaf(MachineConfig(p=2, g=1.0, l=5.0)), Leaf(MachineConfig(p=1, g=1.0, l=5.0))),
                    g=2.0,
                    l=10.0,
                ),
                Leaf(MachineConfig(p=3, g=1.0, l=5.0)),
            ),
            g=4.0,
            l=40.0,
        )

        def program():
            pv = scatter(0, list(range(6)))
            return gather(0, lmap(lambda v: v * 2, pv))

        res, trace = run_nested(tree, program)
        assert res == [0, 2, 4, 6, 8, 10]
        assert trace.sync_count == 2


class TestFlatCommShape:
    def test_scatter_uses_one_row_gather_one_column(self):
        def program():
            pv = scatter(2, [(1, 1), (2,), (3,), (4, 4, 4)])
            pv = lmap(lambda t: t, pv)
            gather(1, pv)

        trace = run(program, M4).trace
        rows_used = [sum(1 for row in s.comm.words if any(row)) for s in trace.steps]
        cols_used = [sum(1 for col in zip(*s.comm.words) if any(col)) for s in trace.steps]
        assert rows_used[0] == 1  # scatter: only the root sends
        assert cols_used[1] == 1  # gather: only the root receives


class TestNestedCostAgainstRecomputation:
    def test_stored_costs_recomputable_from_comm(self):
        tree = two_by_two_tree()

        def program():
            pv = scatter(0, [(1, 1), (2, 2), (3, 3), (4, 4)])
            pv = lmap(lambda t: t, pv)
            return gather(0, pv)

        _res, trace = run_nested(tree, program)
        for step in trace.steps:
            assert step.recost(tree) == step.cost


class TestTranslate:
    def test_scatter_becomes_root_row_plan(self):
        report = run(translate_to_bsml(lambda: scatter(1, [(1,), (2,), (3,), (4,)])), M4)
        step = report.trace.steps[0]
        assert report.result == ParVec([(1,), (2,), (3,), (4,)])
        for s in range(4):
            if s != 1:
                assert step.comm.sent(s) == 0
        assert step.comm.sent(1) == 3

    def test_translated_scatter_delivers_one_message_per_pid_at_scale(self, monkeypatch):
        p, root = 4096, 17
        receptions = []

        def recording_put(plan):
            received = put(plan)
            receptions.append(received)
            return received

        monkeypatch.setattr(bsml, "put", recording_put)
        report = run(translate_to_bsml(lambda: scatter(root, [(i,) for i in range(p)])), MachineConfig(p))
        assert report.result == ParVec((i,) for i in range(p))
        (received,) = receptions
        assert received[root]._msgs == {}
        assert all(inbox._msgs == {root: (d,)} for d, inbox in enumerate(received) if d != root)
        assert report.trace.steps[0].comm.sent(root) == p - 1

    def test_gather_becomes_root_column_plan(self):
        def program():
            return gather(2, mkpar(lambda i: (i,), work=0))

        report = run(translate_to_bsml(program), M4)
        step = report.trace.steps[0]
        assert report.result == [(0,), (1,), (2,), (3,)]
        for d in range(4):
            if d != 2:
                assert step.comm.received(d) == 0

    def test_random_composites_preserve_results_and_syncs(self):
        rng = random.Random(11)
        for _ in range(25):
            xs = [rng.randint(-99, 99) for _ in range(rng.randint(0, 40))]
            shift = rng.randint(-5, 5)
            root = rng.randrange(4)
            steps = [("scatter", root), ("lmap", lambda v, shift=shift: v + shift, 1), ("gather", root)]
            program, expected = sgl_pipeline(xs, steps, 4)
            direct = run(program, M4)
            translated = run(translate_to_bsml(program), M4)
            assert direct.result == translated.result == expected == split_blocks([v + shift for v in xs], 4)
            assert direct.trace.sync_count == translated.trace.sync_count

    def test_translated_h_matches_direct_for_unit_chunks(self):
        def program():
            return gather(0, scatter(0, [(9,), (9,), (9,), (9,)]))

        direct = run(program, M4)
        translated = run(translate_to_bsml(program), M4)
        assert [s.h for s in direct.trace.steps] == [s.h for s in translated.trace.steps]


class TestScale:
    """p=4096 steps are accounted from their non-zero cells: p^2 would be 16.7M cells."""

    def test_broadcast_on_a_64x64_tree(self):
        leaf = Leaf(MachineConfig(p=64, g=1.0, l=10.0))
        tree = Node(children=(leaf,) * 64, g=4.0, l=200.0)
        result, trace = run_nested(tree, lambda: broadcast(5, (1, 2)))
        assert result == ParVec([(1, 2)] * 4096)
        (step,) = trace.steps
        # the root sends 2 words to every other pid, as a whole 128-word block to each
        # of the 63 other nodes and 2 words to each of the 63 other pids of its own node;
        # every other node's first pid then sends 2 words to each of its 63 neighbours
        assert step.h == 2 * 4095
        assert step.words == 63 * 128 + 64 * 63 * 2
        assert step.cost == 4.0 * 63 * 128 + 200.0 + (0 + 1.0 * 63 * 2 + 10.0)
        assert step.comm.sent(5) == 63 * 128 + 63 * 2
        assert step.comm.received(64) == 128

    def test_flat_scatter(self):
        cfg = MachineConfig(p=4096, g=2.0, l=50.0)
        chunks = [(i,) * (i % 3) for i in range(4096)]
        report = run(lambda: scatter(7, chunks), cfg)
        (step,) = report.trace.steps
        words = sum(len(c) for c in chunks) - len(chunks[7])
        assert (step.h, step.words, step.max_work) == (words, words, 0)
        assert step.cost == 2.0 * words + 50.0
        assert report.result == ParVec(chunks)
