"""Cost arithmetic: h-relation, superstep cost, trace totals, serialization."""

from __future__ import annotations

import dataclasses
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bspkit import gather, run, run_nested, scatter
from bspkit.algorithms import build_program, gen_keys
from bspkit.errors import DimensionError, RoutingError, UsageError
from bspkit.model import (
    MAX_TREE_DEPTH,
    TRACE_CSV_HEADER,
    CommMatrix,
    CostTrace,
    Leaf,
    MachineConfig,
    Node,
    ParVec,
    SuperstepRecord,
    default_sizing,
    h_relation,
    machine_from_dict,
    machine_to_dict,
    nested_step_cost,
    superstep_cost,
    total_p,
    trace_from_csv,
    trace_to_csv,
    trace_to_dict,
)


def comm_of(p, sends):
    return CommMatrix.from_sends(p, sends)


class TestHRelation:
    def test_all_zero(self):
        assert h_relation(CommMatrix.zeros(4)) == 0

    def test_total_exchange_unit_words(self):
        # every off-diagonal pair carries 1 word: each pid sends 3, receives 3
        m = CommMatrix([[0 if s == d else 1 for d in range(4)] for s in range(4)])
        assert h_relation(m) == 3

    def test_root_fan_out_dominates(self):
        # root sends 10 words to each of 3 others: row sum 30 beats column sums of 10
        m = comm_of(4, [(0, d, 10) for d in (1, 2, 3)])
        assert h_relation(m) == 30

    def test_diagonal_excluded(self):
        m = CommMatrix([[99, 1], [0, 99]])
        assert h_relation(m) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            CommMatrix([[0, 1], [0]])

    def test_negative_rejected(self):
        with pytest.raises(DimensionError):
            CommMatrix([[0, -1], [0, 0]])
        with pytest.raises(DimensionError):
            comm_of(2, [(0, 1, -1)])

    @pytest.mark.parametrize("send", [(-1, 0, 5), (0, -1, 5), (3, 0, 5), (0, 3, 5), ("0", 1, 3), (0.5, 1, 3), (0, 1.0, 3)])
    def test_out_of_range_pid_rejected(self, send):
        with pytest.raises(RoutingError):
            comm_of(3, [send])

    @pytest.mark.parametrize("words", [2.5, 2**63])
    def test_non_int64_word_count_rejected(self, words):
        with pytest.raises(DimensionError):
            comm_of(2, [(0, 1, words)])

    @pytest.mark.parametrize("words", [1.7, "3"])
    def test_both_constructors_reject_a_non_integer_word_count(self, words):
        with pytest.raises(DimensionError):
            CommMatrix([[0, words], [0, 0]])
        with pytest.raises(DimensionError):
            CommMatrix.from_sends(2, [(0, 1, words)])

    @given(
        st.integers(1, 5).flatmap(
            lambda p: st.lists(st.lists(st.integers(0, 9), min_size=p, max_size=p), min_size=p, max_size=p)
        )
    )
    @settings(max_examples=80)
    def test_transpose_invariance(self, rows):
        m = CommMatrix(rows)
        assert h_relation(m.transpose()) == h_relation(m)

    @given(
        st.integers(2, 4).flatmap(
            lambda p: st.tuples(
                st.lists(st.lists(st.integers(0, 9), min_size=p, max_size=p), min_size=p, max_size=p),
                st.integers(0, p - 1),
                st.integers(0, p - 1),
                st.integers(1, 5),
            )
        )
    )
    @settings(max_examples=80)
    def test_monotone_in_entries(self, case):
        rows, s, d, bump = case
        base = h_relation(CommMatrix(rows))
        rows2 = [list(r) for r in rows]
        rows2[s][d] += bump
        assert h_relation(CommMatrix(rows2)) >= base


class TestSuperstepCost:
    def test_empty_superstep_costs_one_latency(self):
        m = MachineConfig(p=4, g=1.0, l=10.0)
        assert superstep_cost([0, 0, 0, 0], CommMatrix.zeros(4), m) == 10.0

    def test_hand_evaluated_formula(self):
        # max work 7, h 4, g 2, l 10, r 1 -> 7 + 8 + 10
        m = MachineConfig(p=4, g=2.0, l=10.0, r=1.0)
        comm = comm_of(4, [(0, 1, 4)])
        assert h_relation(comm) == 4
        assert superstep_cost([5, 7, 3, 2], comm, m) == 25.0

    def test_doubling_comm_doubles_cost_minus_l(self):
        m = MachineConfig(p=3, g=1.5, l=7.0)
        comm = comm_of(3, [(0, 1, 3), (2, 0, 5)])
        doubled = comm_of(3, [(0, 1, 6), (2, 0, 10)])
        work = [0, 0, 0]
        once = superstep_cost(work, comm, m) - m.l
        twice = superstep_cost(work, doubled, m) - m.l
        assert twice == 2 * once

    def test_work_length_mismatch(self):
        m = MachineConfig(p=4, g=1.0, l=10.0)
        with pytest.raises(DimensionError):
            superstep_cost([1, 2], CommMatrix.zeros(4), m)

    def test_comm_size_mismatch(self):
        m = MachineConfig(p=4, g=1.0, l=10.0)
        with pytest.raises(DimensionError):
            superstep_cost([0, 0, 0, 0], CommMatrix.zeros(3), m)

    @given(st.lists(st.integers(0, 50), min_size=3, max_size=3), st.integers(0, 2), st.integers(1, 9))
    @settings(max_examples=60)
    def test_monotone_in_work(self, work, i, bump):
        m = MachineConfig(p=3, g=1.0, l=5.0)
        comm = CommMatrix.zeros(3)
        base = superstep_cost(work, comm, m)
        work2 = list(work)
        work2[i] += bump
        assert superstep_cost(work2, comm, m) >= base


class TestMachineConfig:
    def test_validation(self):
        with pytest.raises(DimensionError):
            MachineConfig(p=0)
        with pytest.raises(DimensionError):
            MachineConfig(p=2, g=0.0)
        with pytest.raises(DimensionError):
            MachineConfig(p=2, l=-1.0)
        with pytest.raises(DimensionError):
            MachineConfig(p=2, r=0.0)

    @pytest.mark.parametrize("p", [True, False, 2.5, "2"])
    def test_bool_and_non_integral_p_rejected(self, p):
        with pytest.raises(DimensionError):
            MachineConfig(p=p)
        with pytest.raises(DimensionError):
            machine_from_dict({"p": p})

    def test_integral_float_p_from_json(self):
        assert machine_from_dict({"p": 4.0}) == MachineConfig(p=4)

    def test_json_round_trip_flat(self):
        m = MachineConfig(p=4, g=2.5, l=30.0, r=2.0)
        assert machine_from_dict(machine_to_dict(m)) == m

    def test_json_round_trip_tree(self):
        tree = Node(
            children=(Leaf(MachineConfig(p=2, g=1.0, l=10.0)), Leaf(MachineConfig(p=3, g=1.0, l=10.0))),
            g=2.0,
            l=20.0,
        )
        assert machine_from_dict(machine_to_dict(tree)) == tree
        assert total_p(tree) == 5

    def test_tree_config_literal(self):
        tree = machine_from_dict({"children": [{"p": 4}, {"children": [{"p": 1}, {"p": 1}], "g": 3, "l": 5}], "g": 2, "l": 20})
        assert isinstance(tree, Node)
        assert total_p(tree) == 6

    @pytest.mark.parametrize("backend", ["simulate", "parallel"])
    def test_tree_depth_bounded_when_parsed_and_when_run(self, backend):
        def chain(levels):  # a tree of `levels` levels: nodes of one child above a p=2 leaf
            tree, obj = Leaf(MachineConfig(p=2)), {"p": 2}
            for _ in range(levels - 1):
                tree, obj = Node(children=(tree,), g=1.0, l=1.0), {"children": [obj], "g": 1.0, "l": 1.0}
            return tree, obj

        tree, obj = chain(MAX_TREE_DEPTH)
        assert machine_from_dict(obj) == tree
        assert run(build_program("samplesort", 20, 1), tree, backend=backend).result.to_list() == sorted(gen_keys(20, 1))
        tree, obj = chain(MAX_TREE_DEPTH + 1)
        with pytest.raises(UsageError, match="at most"):
            machine_from_dict(obj)
        with pytest.raises(UsageError, match="at most"):
            run(build_program("empty", 0, 1), tree, backend=backend)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("name", ["g", "l", "r"])
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(DimensionError, match=f"{name} must be a finite number"):
            MachineConfig(p=2, **{name: value})
        if name != "r":
            with pytest.raises(DimensionError, match=f"{name} must be a finite number"):
                Node(children=(Leaf(MachineConfig(p=2)),), **{"g": 1.0, "l": 1.0, name: value})

    @pytest.mark.parametrize("name, value", [("g", "x"), ("l", None), ("r", [1]), ("g", 1 + 2j), ("g", Decimal("NaN")), ("l", Decimal("NaN"))])
    def test_parameter_that_is_not_a_real_number_rejected(self, name, value):
        with pytest.raises(DimensionError, match=f"{name} must be a finite number"):
            MachineConfig(p=2, **{name: value})
        if name != "r":
            with pytest.raises(DimensionError, match=f"{name} must be a finite number"):
                Node(children=(Leaf(MachineConfig(p=2)),), **{"g": 1.0, "l": 1.0, name: value})

    @pytest.mark.parametrize("backend", ["simulate", "parallel"])
    def test_chain_of_3000_levels_built_in_python(self, backend):
        tree = Leaf(MachineConfig(p=3))
        for _ in range(2999):
            tree = Node(children=(tree,), g=1.0, l=1.0)
        assert total_p(tree) == 3
        assert tree.depth == 3000
        with pytest.raises(UsageError, match="at most"):
            run(build_program("empty", 0, 1), tree, backend=backend)

    def test_flat_children_are_taken_as_leaves(self):
        tree = Node(children=(MachineConfig(p=2), MachineConfig(p=1)), g=1, l=1)
        assert tree == Node(children=(Leaf(MachineConfig(p=2)), Leaf(MachineConfig(p=1))), g=1, l=1)
        assert (tree.p, tree.depth, tree.offsets, tree.owner) == (3, 2, (0, 2), (0, 0, 1))
        result, trace = run_nested(tree, lambda: gather(2, scatter(1, [(1,), (2, 3), (4, 5, 6)])))
        assert result == [(1,), (2, 3), (4, 5, 6)]
        # from pid 1, pid 0 shares its leaf and pid 2 is the other child; to pid 2, pid 0 forwards its leaf's block
        assert [step.comm for step in trace.steps] == [comm_of(3, [(1, 0, 1), (1, 2, 3)]), comm_of(3, [(0, 2, 3), (1, 0, 2)])]

    @pytest.mark.parametrize("child", [5, None, "p=2", Leaf])
    def test_child_that_is_not_a_machine_rejected(self, child):
        with pytest.raises(DimensionError, match="must be a MachineConfig"):
            Node(children=(MachineConfig(p=2), child), g=1.0, l=1.0)


class TestNestedCost:
    def test_two_by_two_scatter_decomposition(self):
        # level: 2 words at g=2 plus l=20 -> 24; each leaf: 1 word at g=1 plus l=10 -> 11
        tree = Node(
            children=(Leaf(MachineConfig(p=2, g=1.0, l=10.0)), Leaf(MachineConfig(p=2, g=1.0, l=10.0))),
            g=2.0,
            l=20.0,
        )
        comm = comm_of(4, [(0, 1, 1), (0, 2, 2), (2, 3, 1)])
        assert nested_step_cost([0, 0, 0, 0], comm, tree) == 35.0

    def test_leaf_tree_equals_flat(self):
        cfg = MachineConfig(p=3, g=2.0, l=5.0, r=2.0)
        comm = comm_of(3, [(0, 1, 4), (1, 2, 2)])
        work = [6, 1, 0]
        assert nested_step_cost(work, comm, Leaf(cfg)) == superstep_cost(work, comm, cfg)

    def test_sibling_phases_overlap(self):
        # identical work in both leaves costs the same as work in just one
        tree = Node(
            children=(Leaf(MachineConfig(p=1, g=1.0, l=10.0)), Leaf(MachineConfig(p=1, g=1.0, l=10.0))),
            g=2.0,
            l=20.0,
        )
        both = nested_step_cost([5, 5], CommMatrix.zeros(2), tree)
        one = nested_step_cost([5, 0], CommMatrix.zeros(2), tree)
        assert both == one


class TestTraceTotals:
    def test_empty(self):
        trace = CostTrace([])
        assert (trace.total_cost, trace.total_words, trace.sync_count) == (0.0, 0, 0)

    def test_single_record_identity(self):
        m = MachineConfig(p=2, g=1.0, l=10.0)
        rec = SuperstepRecord.close(0, [5, 0], comm_of(2, [(0, 1, 12)]), m)
        trace = CostTrace([rec])
        assert trace.total_words == 12
        assert trace.sync_count == 1
        assert trace.total_cost == rec.cost

    def test_two_records_componentwise(self):
        m = MachineConfig(p=2, g=1.0, l=10.0)
        r0 = SuperstepRecord.close(0, [5, 0], comm_of(2, [(0, 1, 3)]), m)
        r1 = SuperstepRecord.close(1, [0, 2], comm_of(2, [(1, 0, 4)]), m)
        trace = CostTrace([r0, r1])
        # independent summation
        assert trace.total_cost == r0.cost + r1.cost
        assert trace.total_words == 3 + 4
        assert trace.sync_count == 2

    def test_inconsistent_p_rejected(self):
        m2 = MachineConfig(p=2, g=1.0, l=10.0)
        m3 = MachineConfig(p=3, g=1.0, l=10.0)
        r0 = SuperstepRecord.close(0, [0, 0], CommMatrix.zeros(2), m2)
        r1 = SuperstepRecord.close(1, [0, 0, 0], CommMatrix.zeros(3), m3)
        with pytest.raises(DimensionError):
            CostTrace([r0, r1])

    def test_totals_are_derived_from_the_steps(self):
        m = MachineConfig(p=2, g=1.0, l=10.0)
        recs = [SuperstepRecord.close(i, [i, 1], comm_of(2, [(0, 1, i + 1)]), m) for i in range(3)]
        trace = CostTrace(iter(recs))
        assert [f.name for f in dataclasses.fields(CostTrace)] == ["steps"]
        assert trace.steps == tuple(recs)
        assert (trace.total_cost, trace.total_words, trace.sync_count) == (float(sum(r.cost for r in recs)), 6, 3)
        with pytest.raises(AttributeError):
            trace.total_cost = 0.0

    def test_records_without_work_do_not_constrain_p(self):
        m2 = MachineConfig(p=2, g=1.0, l=10.0)
        summary = SuperstepRecord(index=1, max_work=None, h=0, words=0, cost=10.0)
        trace = CostTrace([SuperstepRecord.close(0, [0, 0], CommMatrix.zeros(2), m2), summary])
        assert trace.sync_count == 2

    def test_recost_reproduces_stored_cost(self):
        m = MachineConfig(p=2, g=3.0, l=7.0, r=2.0)
        rec = SuperstepRecord.close(0, [8, 2], comm_of(2, [(0, 1, 5)]), m)
        assert rec.recost(m) == rec.cost

    @pytest.mark.parametrize("work", [[2.9, 1], [-7, 1]])
    def test_close_rejects_work_that_is_not_an_integer_of_at_least_0(self, work):
        with pytest.raises(DimensionError, match="work must be integers >= 0"):
            SuperstepRecord.close(0, work, CommMatrix.zeros(2), MachineConfig(p=2, g=1.0, l=0.0))

    def test_recost_without_work_counts(self):
        rec = SuperstepRecord(index=0, max_work=None, h=3, words=3, cost=13.0)
        with pytest.raises(UsageError):
            rec.recost(MachineConfig(p=4, g=1.0, l=10.0))


class TestSerialization:
    def test_trace_csv_round_trip(self):
        m = MachineConfig(p=2, g=1.0, l=10.0)
        recs = [
            SuperstepRecord.close(0, [5, 0], comm_of(2, [(0, 1, 3)]), m),
            SuperstepRecord.close(1, [0, 7], CommMatrix.zeros(2), m),
        ]
        text = trace_to_csv(CostTrace(recs))
        assert trace_to_csv(trace_from_csv(text)) == text

    @pytest.mark.parametrize(
        "row",
        ["0,x,0,0,1.0", "5,1,-5,0,nan", "0,-3,0,0,1.0", "0,1,0,-2,1.0", "0,1,0,0,nan", "0,1,0,0,inf", "0,1,0,0,-1.0", "1,1,0,0,1.0", "0,1,5,0,1.0"],
    )
    def test_trace_csv_rejects_garbage(self, row):
        with pytest.raises(UsageError, match="line 2"):
            trace_from_csv(f"index,max_work,h,words_total,cost\n{row}\n")

    def test_trace_csv_rejects_indices_out_of_order(self):
        with pytest.raises(UsageError, match="line 3"):
            trace_from_csv("index,max_work,h,words_total,cost\n0,1,0,0,1.0\n0,1,0,0,1.0\n")

    @pytest.mark.parametrize("row", ["0,1,2,3,4.0,junk", "0,1,2,3", "0,1,2,3,4.0,"])
    def test_trace_csv_rejects_a_row_not_as_wide_as_the_header(self, row):
        with pytest.raises(UsageError, match="malformed trace CSV at line 3"):
            trace_from_csv(f"index,max_work,h,words_total,cost\n0,1,0,0,1.0\n{row}\n")

    def test_trace_csv_writes_missing_work_empty_and_cost_as_a_float(self):
        rec = SuperstepRecord(index=0, max_work=None, h=1, words=2, cost=11)
        text = trace_to_csv(CostTrace([rec]))
        assert text == "index,max_work,h,words_total,cost\n0,,1,2,11.0\n"
        assert trace_from_csv(text).steps == (SuperstepRecord(index=0, max_work=None, h=1, words=2, cost=11.0),)

    def test_trace_dict_steps_use_the_csv_columns(self):
        rec = SuperstepRecord(index=0, max_work=3, h=1, words=2, cost=14.0)
        step = trace_to_dict(CostTrace([rec]))["steps"][0]
        assert list(step) == TRACE_CSV_HEADER
        assert step == {"index": 0, "max_work": 3, "h": 1, "words_total": 2, "cost": 14.0}

    def test_trace_csv_rejects_wrong_header(self):
        with pytest.raises(UsageError):
            trace_from_csv("a,b\n1,2\n")


class TestParVec:
    def test_immutable_and_indexable(self):
        pv = ParVec([1, 2, 3])
        assert len(pv) == 3
        assert pv[1] == 2
        assert list(pv) == [1, 2, 3]
        with pytest.raises(AttributeError):
            pv.elems = ()

    def test_equality(self):
        assert ParVec([1, 2]) == ParVec((1, 2))
        assert ParVec([1, 2]) != ParVec([2, 1])


class TestSizing:
    def test_sequences_by_length_scalars_as_one(self):
        assert default_sizing([1, 2, 3]) == 3
        assert default_sizing((1,)) == 1
        assert default_sizing(7) == 1
        assert default_sizing(3.5) == 1
        assert default_sizing(None) == 0
        assert default_sizing(()) == 0
