"""put's row-wise accounting against a message-by-message reference, and its errors, sizes and totals."""

from __future__ import annotations

import os
import subprocess
import sys
from array import array
from collections.abc import Mapping, Sequence
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bspkit import Leaf, MachineConfig, Node, bsml, mkpar, proj, put, run
from bspkit.errors import ProgramError, RoutingError
from bspkit.model import CommMatrix, default_sizing, h_relation, step_cost

Pid = IntEnum("Pid", [(f"P{i}", i) for i in range(9)])


class Plan(dict):
    """A dict subclass: read through the mapping path, not used as the row itself."""


def reference_put(plans, p):
    """The inboxes and matrix of a put, built one message at a time: delivered, sized, then stored as a triple."""
    inbox = [{} for _ in range(p)]

    def items(s, entry):
        if entry is None:
            return ()
        if isinstance(entry, Mapping):
            return entry.items()
        if callable(entry):
            return ((d, entry(d)) for d in range(p))
        assert isinstance(entry, Sequence) and len(entry) == p
        return enumerate(entry)

    def sends():
        for s in range(p):
            for d, msg in items(s, plans[s]):
                if msg is not None:
                    inbox[d][s] = msg
                    if d != s:
                        yield s, d, default_sizing(msg)

    return inbox, CommMatrix.from_sends(p, sends())


messages = st.one_of(st.none(), st.lists(st.integers(0, 9), max_size=3).map(tuple), st.integers(-3, 3), st.text(max_size=3))
machines = st.one_of(
    st.builds(MachineConfig, p=st.integers(1, 9), g=st.sampled_from((0.5, 2.0)), l=st.sampled_from((0.0, 10.0))),
    st.builds(Node, children=st.lists(st.builds(MachineConfig, p=st.integers(1, 3)), min_size=1, max_size=3), g=st.just(4.0), l=st.just(20.0)),
)


@st.composite
def plans(draw, p: int):
    """One plan per pid, each in a random form: a dict in any key order (int or IntEnum keys), a dict subclass, a
    list or tuple, a callable, or an empty plan; rows hold None messages, self-sends, (), scalars and str."""
    out = []
    for _s in range(p):
        row = draw(st.lists(messages, min_size=p, max_size=p))
        order = draw(st.permutations(range(p)))
        spelled = draw(st.lists(st.booleans(), min_size=p, max_size=p))  # also list a None message
        entries = [(d, row[d]) for d in order if row[d] is not None or spelled[d]]
        form = draw(st.sampled_from(("dict", "intenum", "subclass", "sequence", "callable", "empty")))
        if form == "dict":
            out.append(dict(entries))
        elif form == "intenum":
            out.append({Pid(d): msg for d, msg in entries})
        elif form == "subclass":
            out.append(Plan(entries))
        elif form == "sequence":
            out.append(draw(st.sampled_from((list, tuple)))(row))
        elif form == "callable":
            out.append(lambda d, row=row: row[d])
        else:
            out.append(draw(st.sampled_from((None, {}))))
    return out


def put_program(plan_rows):
    return lambda: put(mkpar(lambda s: plan_rows[s], work=lambda s: s + 1))


@given(machines, st.data())
@settings(max_examples=150, deadline=None)
def test_put_matches_the_message_by_message_reference(machine, data):
    p = machine.p
    plan_rows = data.draw(plans(p))
    report = run(put_program(plan_rows), machine)
    inbox, comm = reference_put(plan_rows, p)
    (step,) = report.trace.steps
    assert [received._msgs for received in report.result] == inbox
    assert step.comm == comm
    assert (step.comm._sent, step.comm._received) == (comm._sent, comm._received)
    assert step.h == h_relation(comm)
    assert step.words == comm.total_words()
    assert step.cost == step_cost(step.work, comm, machine)


@given(st.integers(1, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_proj_matches_the_all_to_all_reference(p, data):
    values = data.draw(st.lists(messages, min_size=p, max_size=p))
    report = run(lambda: proj(mkpar(lambda i: values[i], work=0)), MachineConfig(p=p))
    (step,) = report.trace.steps
    expected = CommMatrix.from_sends(p, ((s, d, default_sizing(values[s])) for s in range(p) for d in range(p) if s != d))
    assert report.result == tuple(values)
    assert step.comm == expected
    assert (step.comm._sent, step.comm._received) == (expected._sent, expected._received)


@st.composite
def put_columns(draw):
    """p and a put's columns: sources in pid order, each source's destinations off the diagonal and in any order, zero-word cells included."""
    p = draw(st.integers(1, 9))
    counts, dests, words = array("q", [0]) * p, [], []
    for s in range(p):
        row = draw(st.permutations([d for d in range(p) if d != s]))[: draw(st.integers(0, p - 1))]
        counts[s] = len(row)
        dests += row
        words += draw(st.lists(st.one_of(st.integers(0, 3), st.just(2**63 - 1)), min_size=len(row), max_size=len(row)))
    return p, counts, dests, words


@given(put_columns())
@settings(max_examples=200, deadline=None)
def test_the_columns_constructor_stores_what_from_sends_stores(columns):
    p, counts, dests, words = columns
    sources = [s for s in range(p) for _ in range(counts[s])]
    rows = CommMatrix._from_rows(p, counts, list(dests), list(words))
    sends = CommMatrix.from_sends(p, zip(sources, dests, words))
    assert (rows._keys, rows._vals, rows._sent, rows._received) == (sends._keys, sends._vals, sends._sent, sends._received)


class Sized:
    """A message that logs each time it is sized."""

    def __init__(self, tag, log):
        self.tag, self.log = tag, log

    def __len__(self):
        self.log.append(self.tag)
        return 2


@pytest.mark.parametrize("bad", [True, -1, "p", "1", 1.0])
def test_a_bad_destination_raises_before_any_later_pid_is_sized(bad):
    p = 4
    bad = p if bad == "p" else bad
    log: list = []
    plan_rows = [{1: Sized("0->1", log)}, {0: Sized("1->0", log), bad: Sized("1->bad", log)}, {0: Sized("2->0", log)}, {}]
    with pytest.raises(RoutingError) as exc:
        run(put_program(plan_rows), MachineConfig(p=p))
    assert str(exc.value) == f"pid 1 sends to invalid destination {bad!r} (p={p})"
    assert log == ["0->1"]


def test_a_message_whose_len_raises_fails_at_its_pid_and_superstep():
    class Unsized:
        def __len__(self):
            raise ValueError("no size")

    def program():
        put(mkpar(lambda s: {}, work=0))
        return put(mkpar(lambda s: {0: Unsized()} if s == 2 else {0: (s,)}, work=0))

    with pytest.raises(ProgramError) as exc:
        run(program, MachineConfig(p=4))
    assert (exc.value.pid, exc.value.superstep, type(exc.value.cause)) == (2, 1, ValueError)


def test_each_message_but_a_self_send_is_sized_once_in_plan_order():
    p = 4
    log: list = []
    plan_rows = [
        {3: Sized((0, 3), log), 0: Sized((0, 0), log), 1: Sized((0, 1), log)},
        [None if d == 2 else Sized((1, d), log) for d in range(p)],
        lambda d: Sized((2, d), log),
        Plan({Pid(2): Sized((3, 2), log), Pid(3): Sized((3, 3), log), Pid(0): Sized((3, 0), log)}),
    ]
    report = run(put_program(plan_rows), MachineConfig(p=p))
    assert log == [(0, 3), (0, 1), (1, 0), (1, 3), (2, 0), (2, 1), (2, 3), (3, 2), (3, 0)]
    assert report.trace.steps[0].words == 2 * len(log)


def test_a_scalar_or_a_len_that_raises_type_error_counts_one_word():
    class Odd:
        def __len__(self):
            raise TypeError("no len")

    report = run(put_program([{1: 7, 2: Odd(), 3: "abc"}, {}, {}, {}]), MachineConfig(p=4))
    assert [report.trace.steps[0].comm.received(d) for d in range(4)] == [0, 1, 1, 3]


def test_a_row_is_read_before_its_messages_are_sized():
    class Unsized:
        def __len__(self):
            raise ValueError("no size")

    def plan(d):
        if d == 3:
            raise KeyError(d)
        return Unsized()

    with pytest.raises(ProgramError) as exc:
        run(put_program([{}, plan, {}, {}]), MachineConfig(p=4))
    assert (exc.value.pid, exc.value.superstep, type(exc.value.cause)) == (1, 0, KeyError)


def test_huge_messages_keep_exact_totals():
    p = 4
    report = run(put_program([{d: range(2**62) for d in range(p) if d != s} for s in range(p)]), MachineConfig(p=p))
    (step,) = report.trace.steps
    assert step.h == 3 * 2**62
    assert step.words == 12 * 2**62
    assert [step.comm.sent(i) for i in range(p)] == [step.comm.received(i) for i in range(p)] == [3 * 2**62] * p


def test_a_dense_dict_put_calls_no_default_sizing(monkeypatch):
    calls = []
    monkeypatch.setattr(bsml, "default_sizing", lambda value: calls.append(value) or default_sizing(value), raising=False)
    p = 64
    report = run(put_program([{d: (s, d) for d in range(p) if d != s} for s in range(p)]), MachineConfig(p=p))
    assert report.trace.steps[0].words == 2 * p * (p - 1)
    assert calls == []


def test_a_tree_step_prices_the_same_cells():
    tree = Node(children=(Leaf(MachineConfig(p=2)), Leaf(MachineConfig(p=3))), g=4.0, l=20.0)
    plan_rows = [{4: (1, 2), 1: (3,)}, [None, None, "xy", None, ()], lambda d: (d,) * d, None, Plan({Pid(0): "abcd"})]
    report = run(put_program(plan_rows), tree)
    _inbox, comm = reference_put(plan_rows, 5)
    assert report.trace.steps[0].cost == step_cost(report.trace.steps[0].work, comm, tree)


def test_importing_bspkit_leaves_numpy_unloaded():
    """The columns constructor imports numpy when a step first has cells, not when bspkit is imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(bsml.__file__).resolve().parents[1]))
    code = "import sys, bspkit; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
