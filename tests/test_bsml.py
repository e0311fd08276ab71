"""The four primitives: construction, application, projection, exchange."""

from __future__ import annotations

import random
from collections.abc import Sequence

import pytest

from bspkit import MachineConfig, apply, mkpar, nprocs, proj, put, run
from bspkit.engine import _canon
from bspkit.errors import DimensionError, ProgramError, RoutingError, UsageError
from bspkit.model import Inbox, ParVec

M4 = MachineConfig(p=4, g=1.0, l=10.0)


def simulate(program, p=4, **kw):
    return run(program, MachineConfig(p=p, g=1.0, l=10.0), **kw)


class TestNprocs:
    def test_matches_machine(self):
        assert simulate(nprocs, p=4).result == 4
        assert simulate(nprocs, p=1).result == 1

    def test_constant_across_supersteps(self):
        def program():
            seen = [nprocs()]
            put(mkpar(lambda i: {}, work=0))
            seen.append(nprocs())
            put(mkpar(lambda i: {}, work=0))
            seen.append(nprocs())
            return seen

        assert simulate(program, p=3).result == [3, 3, 3]

    def test_no_active_context(self):
        with pytest.raises(UsageError):
            nprocs()


class TestMkpar:
    def test_identity(self):
        assert simulate(lambda: mkpar(lambda i: i)).result == ParVec([0, 1, 2, 3])

    def test_constant(self):
        assert simulate(lambda: mkpar(lambda i: 7)).result == ParVec([7, 7, 7, 7])

    def test_pid_squared(self):
        assert simulate(lambda: mkpar(lambda i: i * i), p=3).result == ParVec([0, 1, 4])

    def test_called_once_per_pid_ascending(self):
        calls = []

        def program():
            return mkpar(lambda i: calls.append(i))

        simulate(program)
        assert calls == [0, 1, 2, 3]

    def test_element_failure_reports_pid(self):
        def boom(i):
            if i == 2:
                raise ValueError("bad pid")
            return i

        with pytest.raises(ProgramError) as exc:
            simulate(lambda: mkpar(boom))
        assert exc.value.pid == 2
        assert exc.value.superstep == 0


class TestApply:
    def test_pointwise_increment(self):
        def program():
            pf = mkpar(lambda i: (lambda v: v + 1))
            return apply(pf, mkpar(lambda i: i))

        assert simulate(program).result == ParVec([1, 2, 3, 4])

    def test_identity_functions(self):
        def program():
            pv = mkpar(lambda i: i * 10)
            return apply(mkpar(lambda i: (lambda v: v)), pv)

        assert simulate(program).result == ParVec([0, 10, 20, 30])

    def test_multiply_by_pid(self):
        def program():
            pf = mkpar(lambda i: (lambda v, i=i: v * i))
            return apply(pf, mkpar(lambda i: 5))

        assert simulate(program, p=3).result == ParVec([0, 5, 10])

    def test_width_mismatch(self):
        def program():
            return apply(mkpar(lambda i: (lambda v: v)), ParVec([1, 2]))

        with pytest.raises(DimensionError):
            simulate(program)

    def test_work_accrues_per_pid(self):
        def program():
            pv = mkpar(lambda i: i, work=0)
            apply(mkpar(lambda i: (lambda v: v), work=0), pv, work=5)
            put(mkpar(lambda i: {}, work=0))
            return None

        trace = simulate(program).trace
        assert trace.steps[0].work == (5, 5, 5, 5)

    def test_no_sync(self):
        def program():
            pv = mkpar(lambda i: i, work=0)
            for _ in range(5):
                pv = apply(mkpar(lambda i: (lambda v: v + 1), work=0), pv, work=0)
            return pv

        assert simulate(program).trace.sync_count == 0


class TestProj:
    def test_folds_to_tuple(self):
        def program():
            return proj(mkpar(lambda i: (i + 1) * 10, work=0))

        assert simulate(program, p=3).result == (10, 20, 30)

    def test_p1_no_remote_words(self):
        def program():
            return proj(mkpar(lambda i: 42, work=0))

        trace = simulate(program, p=1).trace
        assert trace.sync_count == 1
        assert trace.steps[0].h == 0
        assert trace.total_words == 0

    def test_all_to_all_accounting(self):
        # 1-word values, p=4: every pid sends to 3 others and receives 3
        def program():
            return proj(mkpar(lambda i: i, work=0))

        trace = simulate(program).trace
        assert trace.steps[0].h == 3
        assert trace.total_words == 4 * 3

    def test_increments_sync_by_one(self):
        def program():
            pv = mkpar(lambda i: i, work=0)
            proj(pv)
            proj(pv)
            return None

        assert simulate(program).trace.sync_count == 2


class TestPut:
    def test_barrier_with_no_traffic(self):
        def program():
            return put(mkpar(lambda i: {}, work=0))

        report = simulate(program)
        assert report.trace.sync_count == 1
        assert report.trace.steps[0].h == 0
        assert report.result == ParVec([(None,) * 4] * 4)

    def test_ring_shift_transpose(self):
        # s sends its pid to (s+1) mod 3; d receives (d-1) mod 3 from (d-1) mod 3
        def program():
            return put(mkpar(lambda s: {(s + 1) % 3: s}, work=0))

        got = simulate(program, p=3).result
        for d in range(3):
            src = (d - 1) % 3
            for s in range(3):
                assert got[d][s] == (src if s == src else None)

    def test_total_exchange_enumerates_sources(self):
        def program():
            p = nprocs()
            return put(mkpar(lambda s: {d: 10 * s + d for d in range(p) if d != s}, work=0))

        got = simulate(program).result
        for d in range(4):
            received = {got[d][s] for s in range(4) if s != d}
            assert received == {10 * s + d for s in range(4) if s != d}

    def test_dense_sequence_and_callable_plans(self):
        def program():
            p = nprocs()
            dense = mkpar(lambda s: [s * 100 + d for d in range(p)], work=0)
            first = put(dense)
            fn = mkpar(lambda s: (lambda d, s=s: s * 100 + d), work=0)
            second = put(fn)
            return first, second

        first, second = simulate(program, p=3).result
        assert first == second

    def test_out_of_range_destination(self):
        for dest in (9, True):

            def program(dest=dest):
                return put(mkpar(lambda s: {dest: "x"}, work=0))

            with pytest.raises(RoutingError, match=rf"pid 0.*{dest}"):
                simulate(program)

    def test_self_send_delivered_but_free(self):
        def program():
            return put(mkpar(lambda s: {s: ("hello", s)}, work=0))

        report = simulate(program)
        assert report.trace.total_words == 0
        assert report.result[2][2] == ("hello", 2)

    def test_conservation_words_sent_equal_received(self):
        rng = random.Random(5)

        def program():
            p = nprocs()
            return put(
                mkpar(
                    lambda s: {d: tuple(range(rng.randint(0, 4))) for d in range(p) if rng.random() < 0.6},
                    work=0,
                )
            )

        step = simulate(program).trace.steps[0]
        assert sum(step.comm.sent(i) for i in range(4)) == sum(step.comm.received(i) for i in range(4))


class TestInbox:
    """A reception reads as the dense tuple it stands for, but stores only the messages sent."""

    DENSE = (None, (1,), None, "x", None)

    def inbox(self):
        def program():
            return put(mkpar(lambda s: {2: self.DENSE[s]} if self.DENSE[s] is not None else {}, work=0))

        received = simulate(program, p=5).result[2]
        assert isinstance(received, Inbox)
        return received

    def test_indexing(self):
        inbox = self.inbox()
        for i in range(-5, 5):
            assert inbox[i] == self.DENSE[i]
        assert inbox[True] == self.DENSE[True]
        for bad in (5, -6):
            with pytest.raises(IndexError):
                inbox[bad]
        with pytest.raises(TypeError):
            inbox["1"]

    def test_slices_are_tuples(self):
        inbox = self.inbox()
        for sl in (slice(1, 4), slice(None, None, -1), slice(None, None, 2), slice(-2, None), slice(7, 9)):
            assert inbox[sl] == self.DENSE[sl]
            assert type(inbox[sl]) is tuple

    def test_length_iteration_and_mixins(self):
        inbox = self.inbox()
        assert len(inbox) == 5
        assert list(inbox) == list(self.DENSE)
        assert list(reversed(inbox)) == list(reversed(self.DENSE))
        assert "x" in inbox and inbox.count(None) == 3 and inbox.index("x") == 3
        assert isinstance(inbox, Sequence)

    def test_equals_and_hashes_as_the_dense_tuple(self):
        inbox = self.inbox()
        assert inbox == self.DENSE and self.DENSE == inbox
        assert not inbox != self.DENSE
        assert inbox == Inbox({1: (1,), 3: "x"}, 5)
        assert hash(inbox) == hash(self.DENSE)
        assert inbox != list(self.DENSE) and inbox != self.DENSE[:4] and inbox != Inbox({1: (1,), 3: "x"}, 6)
        assert {self.DENSE: "dense"}[inbox] == "dense"

    def test_repr_and_canonical_text_are_the_tuples(self):
        inbox = self.inbox()
        assert repr(inbox) == repr(self.DENSE)
        assert _canon(inbox) == _canon(self.DENSE)
        assert _canon(ParVec([inbox, [inbox]])) == _canon(ParVec([self.DENSE, [self.DENSE]]))

    def test_read_only(self):
        inbox = self.inbox()
        with pytest.raises(TypeError):
            inbox[0] = "y"
        with pytest.raises(TypeError):
            del inbox[1]


class TestTransposeLaw:
    def test_exhaustive_small_p(self):
        # every (s, d) pair, all p <= 5, against the stored plans
        rng = random.Random(17)
        for p in range(1, 6):
            for _ in range(40):
                plans = [
                    {d: rng.randint(0, 999) for d in range(p) if rng.random() < 0.5} for _s in range(p)
                ]

                def program(plans=plans):
                    return put(mkpar(lambda s: plans[s], work=0))

                got = run(program, MachineConfig(p=p, g=1.0, l=10.0)).result
                for d in range(p):
                    for s in range(p):
                        assert got[d][s] == plans[s].get(d)


class TestPurity:
    def test_two_runs_bit_identical(self):
        def program():
            p = nprocs()
            pv = mkpar(lambda i: i * 3)
            pv = apply(mkpar(lambda i: (lambda v: v * v)), pv)
            put(mkpar(lambda s: {d: (s, d) for d in range(p) if d != s}))
            return proj(pv)

        a = simulate(program)
        b = simulate(program)
        assert a.result == b.result
        assert a.trace == b.trace
        assert a.result_digest == b.result_digest
