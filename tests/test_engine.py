"""Execution engine: backends, determinism, aborts, re-costing, reports."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import pytest

from bspkit import MachineConfig, apply, engine, estimate_runtime, mkpar, nprocs, proj, put, run, run_nested, scatter
from bspkit.algorithms import ALGORITHMS, build_program
from bspkit.engine import DEFAULT_WORKER_CAP, _canon, make_environment, stable_digest
from bspkit.errors import BspError, CapacityError, ProgramError, UsageError
from bspkit.perfmodel import sweep
from bspkit.checks import two_by_two_tree
from bspkit.model import Leaf, MachineConfig as MC, Node, ParVec, step_cost, trace_from_csv, trace_to_csv

M4 = MachineConfig(p=4, g=1.0, l=10.0)


def total_exchange_program():
    p = nprocs()
    return put(mkpar(lambda s: {d: (s,) for d in range(p) if d != s}, work=0))


class Unsized:
    """A value whose size is user code that fails: len() raises ValueError for a __len__ of -1."""

    def __len__(self):
        return -1


class TestRun:
    def test_empty_program(self):
        report = run(lambda: None, M4)
        assert report.trace.sync_count == 0
        assert report.trace.total_cost == 0.0
        assert report.result is None

    def test_total_exchange_analytic(self):
        report = run(total_exchange_program, M4)
        assert report.trace.sync_count == 1
        assert report.trace.steps[0].h == 3
        assert report.trace.steps[0].cost == 3 + 10  # work 0, g=1, l=10

    def test_backends_agree_on_values_and_words(self):
        for name in sorted(ALGORITHMS):
            sim = run(build_program(name, 48, seed=2), M4)
            par = run(build_program(name, 48, seed=2), M4, backend="parallel")
            assert par.result_digest == sim.result_digest, name
            assert [s.words for s in par.trace.steps] == [s.words for s in sim.trace.steps], name

    def test_unknown_backend(self):
        with pytest.raises(UsageError):
            run(lambda: None, M4, backend="quantum")

    def test_worker_cap(self):
        with pytest.raises(CapacityError):
            run(lambda: None, MachineConfig(p=DEFAULT_WORKER_CAP + 1, g=1.0, l=1.0), backend="parallel")

    def test_trailing_work_flushed_by_final_barrier(self):
        def program():
            mkpar(lambda i: i, work=3)
            return None

        trace = run(program, M4).trace
        assert trace.sync_count == 1
        assert trace.steps[0].work == (3, 3, 3, 3)
        assert trace.steps[0].words == 0

    def test_no_flush_when_no_pending_work(self):
        def program():
            put(mkpar(lambda i: {}, work=0))
            return None

        assert run(program, M4).trace.sync_count == 1

    def test_put_on_a_tree_priced_by_the_recursive_rule(self):
        tree = two_by_two_tree()
        report = run(build_program("samplesort", 40, seed=6), tree)
        assert report.result_digest == run(build_program("samplesort", 40, seed=6), M4).result_digest
        assert report.machine is tree
        assert report.trace.sync_count > 1
        for step in report.trace.steps:
            assert step.cost == step_cost(step.work, step.comm, tree)


class TestAbort:
    def test_pid_and_superstep_reported_with_partial_trace(self):
        def program():
            put(mkpar(lambda s: {}, work=0))  # superstep 0 completes

            def boom(v):
                raise RuntimeError("exploded")

            apply(mkpar(lambda i: boom if i == 2 else (lambda v: v), work=0), mkpar(lambda i: i, work=0))

        with pytest.raises(ProgramError) as exc:
            run(program, M4)
        assert exc.value.pid == 2
        assert exc.value.superstep == 1
        assert exc.value.partial_trace is not None
        assert exc.value.partial_trace.sync_count == 1

    def test_lowest_failing_pid_wins_on_parallel_backend(self):
        def program():
            def boom(i):
                if i >= 1:
                    raise RuntimeError(f"pid {i}")
                return i

            return mkpar(boom)

        with pytest.raises(ProgramError) as exc:
            run(program, M4, backend="parallel")
        assert exc.value.pid == 1

    def test_primitives_unusable_from_element_functions(self):
        # element functions see no active run on either backend: nesting is a clean UsageError
        nested = {
            "nprocs": lambda i: nprocs(),
            "mkpar": lambda i: mkpar(lambda j: j),
            "put": lambda i: put(ParVec([{}] * 4)),
            "scatter": lambda i: scatter(0, [(1,)] * 4),
        }
        for backend in ("simulate", "parallel"):
            for name, f in nested.items():

                def program(f=f):
                    put(mkpar(lambda s: {}, work=0))
                    return mkpar(lambda i: f(i) if i >= 2 else i)

                with pytest.raises(ProgramError) as exc:
                    run(program, M4, backend=backend)
                assert (exc.value.pid, exc.value.superstep) == (2, 1), (backend, name)
                assert isinstance(exc.value.cause, UsageError), (backend, name)


    @pytest.mark.parametrize(
        "work, pid, cause",
        [
            (lambda v: 1 // (v - 1) + 1, 1, ZeroDivisionError),  # a raising work callable
            (lambda v: 2 - v, 3, UsageError),  # negative at pid 3
            (-7, 0, UsageError),
            (2.9, 0, UsageError),  # not an integer
            (lambda v: nprocs(), 0, UsageError),  # declared work is read with no active run
        ],
    )
    def test_bad_declared_work_is_a_program_error_on_both_backends(self, work, pid, cause):
        def program():
            put(mkpar(lambda s: {}, work=0))  # superstep 0 completes
            return apply(mkpar(lambda i: (lambda v: v), work=0), mkpar(lambda i: i, work=0), work=work)

        for backend in ("simulate", "parallel"):
            with pytest.raises(ProgramError) as exc:
                run(program, M4, backend=backend)
            assert (exc.value.pid, exc.value.superstep, type(exc.value.cause)) == (pid, 1, cause), backend

    @pytest.mark.parametrize(
        "make, pid, cause",
        [
            (lambda: mkpar(lambda i: Unsized() if i == 1 else i), 1, ValueError),  # a mkpar result
            (lambda: put(mkpar(lambda i: {0: Unsized()} if i == 1 else {})), 1, ValueError),  # a put message, at its source
            (lambda: proj(ParVec([0, Unsized()])), 1, ValueError),  # a proj element
            (lambda: scatter(1, [Unsized(), 0]), 1, ValueError),  # a scatter chunk, at the root that holds it
            (lambda: put(mkpar(lambda i: (lambda d: 1 // 0) if i == 1 else None)), 1, ZeroDivisionError),  # a callable plan
        ],
        ids=["mkpar", "put-message", "proj", "scatter", "put-plan"],
    )
    def test_user_code_inside_a_primitive_fails_at_its_pid_on_both_backends(self, make, pid, cause):
        def program():
            proj(mkpar(lambda i: i, work=0))  # superstep 0 completes
            return make()

        for backend in ("simulate", "parallel"):
            with pytest.raises(ProgramError) as exc:
                run(program, MachineConfig(p=2), backend=backend)
            assert (exc.value.pid, exc.value.superstep, type(exc.value.cause)) == (pid, 1, cause), backend
            assert exc.value.partial_trace.sync_count == 1

    def test_bad_mkpar_work_is_rejected_not_truncated(self):
        for work in (-7, 2.9):
            with pytest.raises(ProgramError) as exc:
                run(lambda work=work: mkpar(lambda i: i, work=work), MachineConfig(p=2, g=1.0, l=100.0))
            assert (exc.value.pid, exc.value.superstep) == (0, 0)
            assert isinstance(exc.value.cause, UsageError)


class TestDeterminism:
    def test_bit_identical_reports_modulo_timestamp(self):
        for name in sorted(ALGORITHMS):
            a = run(build_program(name, 32, seed=9), M4).to_dict()
            b = run(build_program(name, 32, seed=9), M4).to_dict()
            a["environment"].pop("timestamp")
            b["environment"].pop("timestamp")
            assert a == b, name

    def test_trace_invariants_recomputable(self):
        # stored h and cost reproduce from stored work/comm, for every step
        for name in sorted(ALGORITHMS):
            report = run(build_program(name, 40, seed=4), M4)
            for step in report.trace.steps:
                assert step.h == max(max(step.comm.sent(i), step.comm.received(i)) for i in range(4))
                assert step.cost == step_cost(step.work, step.comm, M4)


class TestEstimateRuntime:
    def test_same_machine_reproduces_total(self):
        report = run(build_program("samplesort", 500, seed=1), M4)
        assert estimate_runtime(report.trace, M4) == report.trace.total_cost

    def test_doubling_g_doubles_comm_term(self):
        report = run(total_exchange_program, M4)
        base = estimate_runtime(report.trace, M4)
        doubled = estimate_runtime(report.trace, MachineConfig(p=4, g=2.0, l=10.0))
        h_total = sum(s.h for s in report.trace.steps)
        assert doubled - base == h_total  # g went from 1 to 2

    def test_delta_l_is_sync_count_times_delta(self):
        report = run(build_program("samplesort", 1000, seed=1), M4)
        lo = estimate_runtime(report.trace, MachineConfig(p=4, g=1.0, l=0.0))
        hi = estimate_runtime(report.trace, MachineConfig(p=4, g=1.0, l=1000.0))
        assert hi - lo == report.trace.sync_count * 1000.0

    def test_usage_error_without_work_counts(self):
        from bspkit.model import CostTrace, SuperstepRecord

        trace = CostTrace([SuperstepRecord(index=0, max_work=None, h=1, words=1, cost=11.0)])
        with pytest.raises(UsageError):
            estimate_runtime(trace, M4)

    def test_csv_trace_recosts_on_a_one_leaf_tree(self):
        cfg = MC(p=4, g=1.0, l=10.0)

        def ring():
            p = nprocs()
            return put(mkpar(lambda s: {(s + 1) % p: s}, work=3))

        trace = trace_from_csv(trace_to_csv(run(ring, cfg).trace))
        assert estimate_runtime(trace, cfg) == 14.0  # work 3 + g*h 1 + l 10
        assert estimate_runtime(trace, Leaf(cfg)) == 14.0

    def test_recost_on_machine_tree(self):
        from bspkit import run_nested, scatter

        tree = Node(children=(Leaf(MC(p=2, g=1.0, l=10.0)), Leaf(MC(p=2, g=1.0, l=10.0))), g=2.0, l=20.0)
        _res, trace = run_nested(tree, lambda: scatter(0, [1, 2, 3, 4]))
        assert estimate_runtime(trace, tree) == trace.total_cost
        cheaper = Node(children=tree.children, g=2.0, l=0.0)
        assert estimate_runtime(trace, cheaper) == trace.total_cost - 20.0


class TestEnvironmentAndReports:
    def test_environment_fields_never_empty(self):
        env = make_environment("simulate", 1, {"hardware": "", "note": ""})
        d = env.to_dict()
        assert d["hardware"] == "unknown"
        assert d["note"] == "unknown"
        assert all(str(v).strip() for v in d.values())

    def test_overrides_land_in_report(self):
        report = run(lambda: None, M4, env={"hardware": "bench rig 3", "cluster": "teaching-lab", "cores_used": "3"})
        d = report.to_dict()["environment"]
        assert d["hardware"] == "bench rig 3"
        assert d["cluster"] == "teaching-lab"
        assert d["cores_used"] == 3

    def test_report_json_serializable(self):
        report = run(build_program("broadcast", 4, seed=0), M4)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert "result_digest" in text

    @pytest.mark.parametrize("backend", ["simulate", "parallel"])
    @pytest.mark.parametrize("value", ["0", "-5", "abc"])
    def test_bad_cores_used_rejected_before_the_program_runs(self, value, backend):
        called = []
        with pytest.raises(UsageError, match="cores_used must be"):
            run(lambda: called.append(True), M4, backend=backend, env={"cores_used": value})
        assert called == []

    def test_wall_time_only_on_parallel(self):
        assert run(lambda: None, M4).wall_time is None
        assert run(lambda: None, M4, backend="parallel").wall_time is not None

    def test_peak_words_tracked(self):
        def program():
            proj(mkpar(lambda i: (1, 2, 3), work=0))  # each pid holds 3 + receives 9

        report = run(program, M4)
        assert report.peak_words >= 9


class TestStableDigest:
    def test_dict_order_independent(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_distinguishes_values(self):
        assert stable_digest([1, 2]) != stable_digest([2, 1])
        assert stable_digest(1.0) != stable_digest(1)

    def test_canonical_text_of_every_kind_of_value(self):
        value = {"b": [1, (2.5, None)], "a": {frozenset({3, 1}), b"\x01z"}, 7: ParVec([True, MC(2)])}
        text = "{'a':set[b:017a,frozenset[1,3]],'b':list[1,tuple[2.5,None]],7:ParVec[True,MachineConfig(p=2,g=1.0,l=100.0,r=1.0)]}"
        assert stable_digest(value) == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_result_nested_past_the_recursion_limit(self):
        depth = 5000

        def program():
            value = []
            for _ in range(depth):
                value = [value]
            return value

        report = run(program, MachineConfig(2))
        text = "list[" * (depth + 1) + "]" * (depth + 1)
        assert report.result_digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert len(report.to_dict()["result_preview"]) <= 200

    def test_cyclic_result_raises_bsp_error_naming_the_cycle(self):
        def program():
            a = []
            a.append(a)
            return [1, {"k": (a,)}]

        report = run(program, M4)  # the program succeeds; only reading the digest fails
        with pytest.raises(BspError, match=r"contains itself: list -> list$"):
            report.result_digest
        with pytest.raises(BspError, match="contains itself"):
            report.to_dict()

    def test_cycle_through_a_dict_and_a_dataclass(self):
        @dataclass
        class Cell:
            value: object

        cell = Cell(None)
        cell.value = [{"next": cell}]
        with pytest.raises(BspError, match=r"contains itself: Cell -> list -> dict -> Cell$"):
            stable_digest((0, cell))

    def test_shared_and_deep_values_are_not_cycles(self):
        shared = (1, 2)
        assert stable_digest([shared, [shared, shared]]) == stable_digest([(1, 2), [(1, 2), (1, 2)]])
        deep = []
        for _ in range(300):  # checked for a cycle at depths 64, 128 and 256
            deep = [shared, deep]
        assert len(stable_digest(deep)) == 64

    def test_repeated_container_that_contains_itself_is_still_a_cycle(self):
        a = []
        a.append(a)
        with pytest.raises(BspError, match=r"contains itself: list -> list$"):
            stable_digest([a, a])

    @pytest.mark.parametrize("x", [[1, 2], [(1,), 2]])
    def test_repr_that_mutates_a_sibling_does_not_leave_its_text_stale(self, x):
        class Mutator:
            def __init__(self, target):
                self.target = target

            def __repr__(self):
                self.target.append(3)
                return "Mutator()"

        before = _canon(x)
        text = _canon([x, Mutator(x), x])
        assert text == f"list[{before},Mutator(),{_canon(x)}]" and before != _canon(x)

    def test_container_whose_walk_mutates_it_is_walked_again(self):
        class Appender:
            def __init__(self, target):
                self.target = target

            def __repr__(self):
                self.target.append(0)
                return "Appender()"

        grows = []
        grows.append(Appender(grows))
        assert _canon([grows, grows]) == "list[list[Appender(),0],list[Appender(),0,0]]"

    def test_iteration_that_mutates_a_sibling_does_not_leave_its_text_stale(self):
        x = [1]

        class Touching(list):
            def __iter__(self):
                for item in list.__iter__(self):
                    x.append(2)
                    yield item
                x.append(3)

        text = "list[Touching[list[1,2],list[1,2,2]],list[1,2,2,3]]"
        assert _canon([Touching([x, x]), x]) == text

    @pytest.mark.parametrize("make", [lambda: tuple(range(64)), lambda: [(0, "a"), None]])
    def test_value_replicated_in_every_slot_has_the_text_of_separate_copies(self, make):
        shared, copies = make(), [make() for _ in range(1024)]
        assert len({id(c) for c in copies}) == 1024
        assert _canon(ParVec([shared] * 1024)) == _canon(ParVec(copies)) == "ParVec[" + ",".join([_canon(shared)] * 1024) + "]"

    def test_tuple_of_atoms_replicated_in_every_slot_is_joined_once(self, monkeypatch):
        joined = []
        join = engine._SEQ_JOINS[tuple]
        monkeypatch.setitem(engine._SEQ_JOINS, tuple, lambda texts: joined.append(texts) or join(texts))
        shared = tuple(range(64))
        _canon(ParVec([shared] * 1024))
        assert joined == [list(map(repr, shared))]

    def test_failing_repr_raises_bsp_error(self):
        class Opaque:
            def __repr__(self):
                raise ValueError("no text")

        report = run(lambda: [1, Opaque()], M4)
        with pytest.raises(BspError, match=r"cannot digest a value of type Opaque: ValueError\('no text'\)") as err:
            report.result_digest
        assert isinstance(err.value.__cause__, ValueError)
        with pytest.raises(BspError):
            report.to_dict()

    def test_failing_repr_of_a_dataclass_result_raises_bsp_error_in_to_dict(self):
        @dataclass
        class Pair:
            a: int
            b: int

            def __repr__(self):
                raise ValueError("no text")

        report = run(lambda: Pair(1, 2), M4)
        assert report.result_digest == hashlib.sha256(b"Pair(a=1,b=2)").hexdigest()
        with pytest.raises(BspError, match="cannot preview a result of type Pair"):
            report.to_dict()

    class Cell:
        pass

    @pytest.mark.parametrize(
        "value, name", [(object(), "object"), (Cell(), "Cell"), (lambda: 1, "function"), ([].append, "builtin_function_or_method")]
    )
    def test_value_whose_repr_carries_a_memory_address_is_rejected(self, value, name):
        report = run(lambda: [1, (2, {"k": value})], M4)
        with pytest.raises(BspError, match=rf"cannot digest a value of type {name}: its repr carries a memory address"):
            report.result_digest
        with pytest.raises(BspError):
            report.to_dict()

    def test_only_a_parvec_digests_as_its_elements(self):
        class Bag:
            def __init__(self, elems, tag):
                self.elems, self.tag = elems, tag

            def __repr__(self):
                return f"Bag({self.elems!r}, {self.tag!r})"

        class Count:
            elems = 3

            def __repr__(self):
                return "Count()"

        assert stable_digest(Bag([1, 2], "a")) != stable_digest(Bag([1, 2], "b"))
        assert stable_digest(Count()) == hashlib.sha256(b"Count()").hexdigest()
        assert stable_digest(ParVec([1, 2])) == hashlib.sha256(b"ParVec[1,2]").hexdigest()

    def test_value_with_its_own_repr_and_address_like_text_still_digest(self):
        class Named:
            def __repr__(self):
                return "Named()"

        assert stable_digest([Named(), "stored at 0x1f"]) == hashlib.sha256(b"list[Named(),'stored at 0x1f']").hexdigest()


class TestLazyDigest:
    @pytest.fixture
    def digests(self, monkeypatch):
        """Values passed to engine.stable_digest, which RunReport.result_digest calls."""
        seen = []
        real = engine.stable_digest
        monkeypatch.setattr(engine, "stable_digest", lambda value: seen.append(value) or real(value))
        return seen

    def test_runs_and_sweeps_never_digest(self, digests):
        run(build_program("total-exchange", 2, seed=1), M4)
        run(build_program("samplesort", 40, seed=1), M4, backend="parallel")
        run_nested(M4, build_program("broadcast", 5, seed=1))
        sweep("total-exchange", [2, 4], [1, 2])
        assert digests == []

    def test_first_read_digests_once(self, digests):
        report = run(build_program("samplesort", 40, seed=3), M4)
        first, second = report.result_digest, report.result_digest
        assert len(digests) == 1 and digests[0] is report.result
        assert first == second == stable_digest(report.result)
        assert report.to_dict()["result_digest"] == first
        assert len(digests) == 1
