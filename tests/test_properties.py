"""Property tests over random machine trees (depth <= 3), flat machines (p <= 8), send lists (p <= 9) and nested values with shared containers."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import chain, count, repeat
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bspkit import Leaf, MachineConfig, Node, apply, gather, mkpar, nprocs, proj, put, run, run_nested, scatter, translate_to_bsml
from bspkit import algorithms
from bspkit.algorithms import (
    DistArray,
    _accel,
    _accels,
    _block_work,
    _papply,
    _rows_work,
    distribute,
    key_hash,
    key_owner,
    key_owners,
    sample_sort,
    seq_sort,
)
from bspkit.checks import sgl_pipeline
from bspkit.engine import _canon, stable_digest
from bspkit.errors import ProgramError, RoutingError
from bspkit.library import BASIC_API, par_reduce
from bspkit.model import CommMatrix, Inbox, ParVec, default_sizing, h_relation, step_cost, total_p

PARAMS = st.sampled_from((0.5, 1.0, 2.0))
LATENCIES = st.sampled_from((0.0, 5.0, 10.0))

flat_machines = st.builds(MachineConfig, p=st.integers(1, 8), g=PARAMS, l=LATENCIES, r=PARAMS)


def trees(depth: int):
    """Machine trees with at most ``depth`` levels of nodes above the leaves."""
    leaves = st.builds(Leaf, st.builds(MachineConfig, p=st.integers(1, 3), g=PARAMS, l=LATENCIES, r=PARAMS))
    if depth == 0:
        return leaves
    nodes = st.builds(Node, children=st.lists(trees(depth - 1), min_size=1, max_size=3), g=PARAMS, l=LATENCIES)
    return st.one_of(leaves, nodes)


machines = st.one_of(flat_machines, trees(3))


#: Element functions of SGL pipelines; the last raises ZeroDivisionError on multiples of 7.
KERNELS = (lambda v: 2 * v + 1, lambda v: v - 3, lambda v: 1 // (v % 7))


@st.composite
def sgl_steps(draw, p: int, kernels=KERNELS[:2]):
    """1-3 rounds of scatter, 0-2 lmaps and gather, with random roots, element functions and work."""
    pids = st.integers(0, p - 1)
    lmaps = st.lists(st.tuples(st.just("lmap"), st.sampled_from(kernels), st.integers(0, 3)), max_size=2)
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        steps += [("scatter", draw(pids)), *draw(lmaps), ("gather", draw(pids))]
    return steps


def sgl_inputs(p: int):
    """Input lists from empty to three elements per pid, so blocks range from empty to uneven."""
    return st.lists(st.integers(-20, 20), max_size=3 * p)


messages = st.one_of(st.none(), st.lists(st.integers(0, 9), max_size=3).map(tuple))


@st.composite
def put_plans(draw, p: int):
    """(plans, rows): per pid a dict, length-p sequence or callable plan, and the dense rows it sends.

    rows[s][d] is the message from s to d or None; rows hold None messages,
    self-sends and empty messages.  Dict plans list their keys in random
    order and may spell out a None message.
    """
    rows = draw(st.lists(st.lists(messages, min_size=p, max_size=p), min_size=p, max_size=p))
    plans = []
    for row in rows:
        form = draw(st.sampled_from(("dict", "sequence", "callable")))
        if form == "dict":
            spelled = draw(st.lists(st.booleans(), min_size=p, max_size=p))
            plans.append({d: row[d] for d in draw(st.permutations(range(p))) if row[d] is not None or spelled[d]})
        elif form == "sequence":
            plans.append(draw(st.sampled_from((list, tuple)))(row))
        else:
            plans.append(lambda d, row=row: row[d])
    return plans, rows


def put_program(plans):
    return lambda: put(mkpar(lambda s: plans[s], work=lambda s: s + 1))


@st.composite
def put_programs(draw, p: int):
    """One put of random-size messages between random pid pairs, in random plan formats."""
    return put_program(draw(put_plans(p))[0])


def step_tuples(trace):
    return [(s.index, s.h, s.words, s.max_work, s.cost, s.work, s.comm) for s in trace.steps]


def fail(i):
    raise ValueError(f"pid {i}")


#: What a faulty element function does at its pids: raise, or call a primitive from inside.
FAULT_ACTIONS = {
    "raise": fail,
    "nprocs": lambda i: nprocs(),
    "mkpar": lambda i: mkpar(lambda j: j),
    "put": lambda i: put(mkpar(lambda j: {j: (j,)})),
}
faults = st.one_of(st.none(), st.tuples(st.sampled_from(sorted(FAULT_ACTIONS)), st.frozensets(st.integers(0, 7), min_size=1, max_size=3)))


def faulty(fault, body):
    """body(i, *args), preceded at the fault's pids by the fault's action."""
    if fault is None:
        return body
    action, pids = FAULT_ACTIONS[fault[0]], fault[1]

    def element(i, *args):
        if i in pids:
            action(i)
        return body(i, *args)

    return element


@st.composite
def mixed_programs(draw, p: int):
    """A random sequence of mkpar/apply/put/proj/scatter/gather steps whose element functions may fault."""
    pids = st.integers(0, p - 1)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("mkpar"), faults, st.integers(0, 3)),
                st.tuples(st.just("apply"), faults, st.integers(0, 3)),
                st.tuples(st.just("put"), faults, st.lists(pids, max_size=3)),
                st.tuples(st.just("proj")),
                st.tuples(st.just("scatter"), pids, faults),
                st.tuples(st.just("gather"), pids),
            ),
            min_size=1,
            max_size=5,
        )
    )

    def program():
        pv, seq = mkpar(lambda i: i), list(range(p))
        for op in ops:
            if op[0] == "mkpar":
                pv = mkpar(faulty(op[1], lambda i: (i * 5 + op[2]) % 7), work=op[2])
            elif op[0] == "apply":
                f = faulty(op[1], lambda i, v: (3 * v + i) % 11)
                pv = apply(mkpar(lambda i: lambda v, i=i: f(i, v)), pv, work=op[2])
            elif op[0] == "put":
                plan = faulty(op[1], lambda s, offsets=op[2]: {(s + k) % p: (pv.elems[s],) * (k % 3) for k in offsets})
                received = put(mkpar(plan, work=0))
                pv = apply(mkpar(lambda i: lambda msgs: sum(len(m) + sum(m) for m in msgs if m is not None) % 13), received)
            elif op[0] == "proj":
                seq = list(proj(pv))
            elif op[0] == "scatter":
                blocks = scatter(op[1], [(x,) * (x % 3) for x in seq])
                f = faulty(op[2], lambda i, blk: sum(blk) + i)
                pv = apply(mkpar(lambda i: lambda blk, i=i: f(i, blk)), blocks)
            else:
                seq = gather(op[1], pv)
        return pv, seq

    return program


def outcome(program, machine, backend: str):
    """What a run shows: its data, or where and why it failed."""
    try:
        report = run(program, machine, backend=backend)
    except ProgramError as exc:
        return "failed", exc.pid, exc.superstep, type(exc.cause)
    return "ran", report.result_digest, report.peak_words, step_tuples(report.trace)


def reference_cost(work, comm, tree) -> float:
    """The recursive rule with every h counted cell by cell over explicit pid blocks."""
    words = comm.words

    def h(pids_of) -> int:
        k = len(pids_of)
        cell = [[sum(words[s][d] for s in pids_of[a] for d in pids_of[c]) for c in range(k)] for a in range(k)]
        return max(max(sum(cell[i][c] for c in range(k) if c != i), sum(cell[a][i] for a in range(k) if a != i)) for i in range(k))

    def cost(t, base: int) -> float:
        if isinstance(t, Leaf):
            pids = range(base, base + t.config.p)
            return max(work[i] for i in pids) / t.config.r + t.config.g * h([[i] for i in pids]) + t.config.l
        spans, b = [], base
        for child in t.children:
            spans.append(range(b, b + total_p(child)))
            b += total_p(child)
        return t.g * h([list(s) for s in spans]) + t.l + max(cost(c, s.start) for c, s in zip(t.children, spans))

    return cost(tree, 0)


@given(trees(3))
@settings(max_examples=100, deadline=None)
def test_tree_layout_follows_the_recursive_definitions(tree):
    def p(t) -> int:
        return t.config.p if isinstance(t, Leaf) else sum(p(c) for c in t.children)

    def depth(t) -> int:
        return 1 if isinstance(t, Leaf) else 1 + max(depth(c) for c in t.children)

    def check(t) -> None:
        assert (t.p, t.depth) == (p(t), depth(t))
        if isinstance(t, Node):
            assert t.offsets == tuple(sum(p(c) for c in t.children[:i]) for i in range(len(t.children)))
            assert t.owner == tuple(i for i, c in enumerate(t.children) for _ in range(p(c)))
            for child in t.children:
                check(child)

    check(tree)
    assert total_p(tree) == p(tree)


@given(machines, st.data())
@settings(max_examples=80, deadline=None)
def test_gather_moves_the_transpose_of_scatter(machine, data):
    p = total_p(machine)
    root = data.draw(st.integers(0, p - 1))
    chunks = data.draw(st.lists(st.lists(st.integers(0, 9), max_size=4).map(tuple), min_size=p, max_size=p))
    _res, trace = run_nested(machine, lambda: gather(root, scatter(root, chunks)))
    down, up = trace.steps
    assert up.comm == down.comm.transpose()
    assert (up.h, up.words, up.cost) == (down.h, down.words, down.cost)


@given(flat_machines, st.data())
@settings(max_examples=60, deadline=None)
def test_flat_run_equals_one_leaf_run_nested(cfg, data):
    program, expected = sgl_pipeline(data.draw(sgl_inputs(cfg.p)), data.draw(sgl_steps(cfg.p)), cfg.p)
    report = run(program, cfg)
    result, trace = run_nested(Leaf(cfg), program)
    assert report.machine is cfg
    assert result == report.result == expected
    assert step_tuples(trace) == step_tuples(report.trace)


@given(flat_machines, st.data())
@settings(max_examples=80, deadline=None)
def test_backends_agree_on_data_and_errors(cfg, data):
    program = data.draw(mixed_programs(cfg.p))
    assert outcome(program, cfg, "parallel") == outcome(program, cfg, "simulate")


@given(trees(3), st.data())
@settings(max_examples=60, deadline=None)
def test_stored_tree_costs_follow_the_recursive_rule(tree, data):
    p = total_p(tree)
    program, _expected = sgl_pipeline(data.draw(sgl_inputs(p)), data.draw(sgl_steps(p)), p)
    _res, sgl_trace = run_nested(tree, program)
    put_trace = run(data.draw(put_programs(p)), tree).trace
    for step in sgl_trace.steps + put_trace.steps:
        assert step.cost == step_cost(step.work, step.comm, tree) == reference_cost(step.work, step.comm, tree)
        assert step.recost(tree) == step.cost


def translation_outcome(program, machine):
    """(what every machine keeps: the failure, or the digest and sync count; the per-step tuples)."""
    try:
        report = run(program, machine)
    except ProgramError as exc:
        return ("failed", exc.pid, exc.superstep, type(exc.cause)), None
    return ("ran", report.result_digest, report.trace.sync_count), step_tuples(report.trace)


@given(machines, st.data())
@settings(max_examples=150, deadline=None)
def test_translation_keeps_outcome_and_flat_costs(machine, data):
    p = total_p(machine)
    program, expected = sgl_pipeline(data.draw(sgl_inputs(p)), data.draw(sgl_steps(p, KERNELS)), p)
    direct, direct_steps = translation_outcome(program, machine)
    translated, translated_steps = translation_outcome(translate_to_bsml(program), machine)
    assert translated == direct
    if isinstance(expected, Exception):
        assert direct[0] == "failed" and direct[3] is type(expected)
    else:
        assert direct[1] == stable_digest(expected)
    if isinstance(machine, MachineConfig):
        assert translated_steps == direct_steps


@given(machines, st.sampled_from([op for op in BASIC_API if op.run is not None]), st.integers(0, 24), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_basic_ops_match_their_oracles(machine, op, n, rng):
    p = total_p(machine)
    args = op.gen(rng, n)
    want = op.oracle(p, *args)
    program = lambda: op.run(*args)
    assert run_nested(machine, program)[0] == want
    if isinstance(machine, MachineConfig):
        assert run(translate_to_bsml(program), machine).result == want


@given(machines, st.lists(st.text("abc", min_size=1, max_size=2), max_size=24))
@settings(max_examples=60, deadline=None)
def test_par_reduce_keeps_the_order_of_an_op_that_does_not_commute(machine, xs):
    result, _trace = run_nested(machine, lambda: par_reduce(lambda a, b: a + b, xs, ""))
    assert result == "".join(xs)


@given(flat_machines, st.data())
@settings(max_examples=80, deadline=None)
def test_put_matches_a_dense_reference(cfg, data):
    p = cfg.p
    plans, rows = data.draw(put_plans(p))
    report = run(put_program(plans), cfg)
    words = [[default_sizing(rows[s][d]) if s != d else 0 for d in range(p)] for s in range(p)]
    received = [sum(words[s][d] for s in range(p)) for d in range(p)]
    (step,) = report.trace.steps
    dense = tuple(tuple(rows[s][d] for s in range(p)) for d in range(p))
    assert report.result.elems == dense
    assert [hash(inbox) for inbox in report.result] == list(map(hash, dense))
    assert _canon(report.result) == _canon(ParVec(dense))
    for d, inbox in enumerate(report.result):
        assert inbox._msgs == {s: rows[s][d] for s in range(p) if rows[s][d] is not None}
    assert step.comm.words == tuple(map(tuple, words))
    assert step.work == tuple(s + 1 for s in range(p))
    assert report.peak_words == max(default_sizing(plans[d]) + received[d] for d in range(p))


@given(flat_machines, st.data())
@settings(max_examples=40, deadline=None)
def test_put_rejects_an_invalid_destination(cfg, data):
    p = cfg.p
    plans, _rows = data.draw(put_plans(p))
    src = data.draw(st.integers(0, p - 1))
    bad = data.draw(st.sampled_from((-1, p, True, 1.0, "0")))
    plans[src] = {0: (1,), bad: (2,)}
    with pytest.raises(RoutingError, match=rf"pid {src} sends to invalid destination"):
        run(put_program(plans), cfg)


@st.composite
def send_lists(draw):
    """(p, sends) with self-sends, zero words and repeated (source, dest) pairs."""
    p = draw(st.integers(1, 9))
    pids = st.integers(0, p - 1)
    sends = draw(st.lists(st.tuples(pids, pids, st.integers(0, 9)), max_size=3 * p))
    if sends:
        sends += draw(st.lists(st.sampled_from(sends), max_size=p))
    return p, draw(st.permutations(sends))


def dense_reference(p, sends) -> list[list[int]]:
    rows = [[0] * p for _ in range(p)]
    for s, d, w in sends:
        rows[s][d] += w
    return rows


@given(send_lists())
@settings(max_examples=200, deadline=None)
def test_sparse_comm_matches_a_dense_reference(case):
    p, sends = case
    rows = dense_reference(p, sends)
    m = CommMatrix.from_sends(p, sends)
    sent = [sum(rows[i]) - rows[i][i] for i in range(p)]
    received = [sum(row[i] for row in rows) - rows[i][i] for i in range(p)]
    assert m.p == p
    assert m.words == tuple(map(tuple, rows))
    assert [m.sent(i) for i in range(p)] == sent
    assert [m.received(i) for i in range(p)] == received
    assert m.total_words() == sum(map(sum, rows))
    assert h_relation(m) == h_relation(rows) == max(sent + received)
    assert m.transpose().words == tuple(zip(*rows))
    assert m.transpose().transpose() == m
    dense = CommMatrix(rows)
    assert m == dense and hash(m) == hash(dense)
    assert CommMatrix.from_sends(p, reversed(sends)) == m
    bumped = CommMatrix.from_sends(p, sends + [(0, p - 1, 1)])
    assert bumped != m and bumped.words != m.words


@given(trees(3), st.data())
@settings(max_examples=60, deadline=None)
def test_step_cost_on_dense_traffic_follows_the_recursive_rule(tree, data):
    p = total_p(tree)
    rows = data.draw(st.lists(st.lists(st.integers(0, 9), min_size=p, max_size=p), min_size=p, max_size=p))
    work = data.draw(st.lists(st.integers(0, 20), min_size=p, max_size=p))
    comm = CommMatrix(rows)
    assert step_cost(work, comm, tree) == step_cost(work, rows, tree) == reference_cost(work, comm, tree)


class Tag(int):
    def __repr__(self):
        return f"Tag<{int(self)}>"


class Word(str):
    def __repr__(self):
        return f"Word<{str(self)}>"


class Label:
    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return f"Label({self.text!r})"


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


def reference_canon(value) -> str:
    """The canonical text of stable_digest, by plain recursion over the value."""
    if value is None or isinstance(value, (bool, int, str, float)):
        return repr(value)
    if isinstance(value, bytes):
        return "b:" + value.hex()
    if isinstance(value, dict):
        items = sorted(((reference_canon(k), reference_canon(v)) for k, v in value.items()), key=lambda kv: kv[0])
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if is_dataclass(value):
        return f"{type(value).__name__}(" + ",".join(f"{f.name}={reference_canon(getattr(value, f.name))}" for f in fields(value)) + ")"
    if type(value) is Inbox:
        return reference_canon(tuple(value))
    if isinstance(value, (list, tuple, set, frozenset, ParVec)):
        texts = [reference_canon(x) for x in value]
        return f"{type(value).__name__}[" + ",".join(sorted(texts) if isinstance(value, (set, frozenset)) else texts) + "]"
    return repr(value)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


CANON_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(width=16),
    st.text("ab", max_size=2),
    st.binary(max_size=2),
    st.integers(-5, 5).map(Tag),
    st.text("ab", max_size=2).map(Word),
    st.text("ab", max_size=2).map(Label),
)

CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "set": lambda kids: set(filter(_hashable, kids)),
    "frozenset": lambda kids: frozenset(filter(_hashable, kids)),
    "dict": lambda kids: {k: v for k, v in zip(filter(_hashable, kids), reversed(kids))},
    "pair": lambda kids: Pair(*(kids + [None, None])[:2]),
    "parvec": ParVec,
    "inbox": lambda kids: Inbox({s: x for s, x in enumerate(kids) if s % 3}, len(kids) + 1),
}


@st.composite
def shared_values(draw):
    """A value built bottom-up from a pool, so one container object recurs as consecutive
    siblings, as siblings apart and at several depths, next to a twin of its kind and length."""
    pool = draw(st.lists(CANON_ATOMS, min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 8))):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=6))
        kids = [pool[i] for i in picks]
        if kids and draw(st.booleans()):
            kids += [kids[-1]] * draw(st.integers(1, 3))  # a run of one object
        make = CONTAINERS[draw(st.sampled_from(sorted(CONTAINERS)))]
        pool += [make(kids[::-1]), make(kids)]
    root = CONTAINERS[draw(st.sampled_from(sorted(CONTAINERS)))]
    return root([pool[-1], pool[-1], pool[-2], pool[len(pool) // 2], pool[-1]])


@given(shared_values())
@settings(max_examples=300, deadline=None)
def test_canonical_text_matches_a_plain_recursive_reference(value):
    assert _canon(value) == reference_canon(value)


HASH_KEYS = st.one_of(
    st.integers(-(2**70), -1),
    st.integers(0, 2**64 - 1),
    st.integers(2**64, 2**80),
    st.booleans(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.tuples(st.integers(-3, 3), st.text("ab", max_size=2)),
)


@given(st.lists(HASH_KEYS, max_size=20), st.one_of(st.sampled_from((0, 1, 0x5EED, -1, 2**64 + 3)), st.integers()), st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_key_owners_is_key_owner_of_each_key(keys, seed, p):
    owners = key_owners(keys, seed, p)
    assert owners == [key_owner(k, seed, p) for k in keys] == [key_hash(k, seed) % p for k in keys]


@given(st.integers(1, 9), st.lists(st.integers(-3, 3), max_size=60))
@settings(max_examples=80, deadline=None)
def test_sample_sort_with_many_ties_is_sorted_alike_on_both_backends(p, xs):
    program = lambda: sample_sort(distribute(xs))
    machine = MachineConfig(p=p, g=1.0, l=10.0)
    assert run(program, machine).result.to_list() == seq_sort(xs)
    assert outcome(program, machine, "simulate") == outcome(program, machine, "parallel")


def tagged_sample_sort(d):
    """sample_sort as it was when every key carried its tag (key, pid, index) through the sort and the merge."""
    p = nprocs()

    tagged = _papply(lambda i, blk: tuple(sorted(zip(blk, repeat(i), count()))), d.blocks, work=_block_work)

    def local_samples(blk):
        m = len(blk)
        if m == 0:
            return ()
        positions = sorted({(j * m) // p for j in range(p)})
        return tuple(blk[t] for t in positions)

    at_root = put(_papply(lambda i, blk: {0: local_samples(blk)}, tagged, work=1))

    def pick_splitters(rows):
        samples = sorted(chain.from_iterable(r for r in rows if r))
        m = len(samples)
        if m == 0 or p == 1:
            return ()
        return tuple(samples[min((k * m) // p, m - 1)] for k in range(1, p))

    with_splitters = put(_papply(lambda i, rows: dict.fromkeys(range(p), pick_splitters(rows)) if i == 0 else {}, at_root, work=_rows_work))

    def partition(blk, splitters):
        if not splitters:
            return {0: blk} if blk else {}
        bounds = [bisect_left(blk, sp) for sp in splitters]
        out = {}
        start = 0
        for dest, end in enumerate(bounds + [len(blk)]):
            if end > start:
                out[dest] = blk[start:end]
            start = end
        return out

    exchanged = put(_papply(lambda i, blk: partition(blk, with_splitters[i][0]), tagged, work=_block_work))
    merged = _papply(lambda i, rows: tuple(map(itemgetter(0), sorted(chain.from_iterable(r for r in rows if r)))), exchanged, work=_rows_work)
    return DistArray(merged)


#: Sort keys with many ties, among them equal keys of different types and both zeros.
SORT_KEYS = st.one_of(st.integers(-3, 3), st.sampled_from((1, 1.0, True, Fraction(1), 0, 0.0, -0.0, False, Fraction(-1, 2), -0.5)))


@given(st.integers(1, 9), st.lists(SORT_KEYS, max_size=60), st.sampled_from(("simulate", "parallel")))
@settings(max_examples=120, deadline=None)
def test_sample_sort_equals_the_tagged_sample_sort(p, xs, backend):
    machine = MachineConfig(p=p, g=1.0, l=10.0)
    got = run(lambda: sample_sort(distribute(xs)), machine, backend=backend)
    want = run(lambda: tagged_sample_sort(distribute(xs)), machine, backend=backend)
    assert repr(got.result.to_list()) == repr(want.result.to_list())
    assert (got.result_digest, got.peak_words, step_tuples(got.trace)) == (want.result_digest, want.peak_words, step_tuples(want.trace))


#: Float sort keys with many ties, among them both zeros and both infinities.
FLOAT_KEYS = st.one_of(st.sampled_from((0.0, -0.0, float("inf"), float("-inf"), 1.0)), st.floats(-4.0, 4.0))


@given(st.integers(1, 9), st.lists(st.one_of(FLOAT_KEYS, st.just(float("nan"))), max_size=40), st.sampled_from(("simulate", "parallel")))
@settings(max_examples=200, deadline=None)
def test_sample_sort_of_floats_with_nan_returns_the_keys_it_was_given(p, xs, backend):
    out = run(lambda: sample_sort(distribute(xs)), MachineConfig(p=p), backend=backend).result.to_list()
    assert sorted(map(repr, out)) == sorted(map(repr, xs))


@given(st.integers(1, 9), st.lists(FLOAT_KEYS, max_size=40), st.sampled_from(("simulate", "parallel")))
@settings(max_examples=150, deadline=None)
def test_sample_sort_of_floats_without_nan_equals_the_sequential_sort(p, xs, backend):
    out = run(lambda: sample_sort(distribute(xs)), MachineConfig(p=p), backend=backend).result.to_list()
    assert repr(out) == repr(seq_sort(xs))


COORDS = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-4.0, 4.0))


@st.composite
def body_rows(draw):
    """(rows, positions, masses): bodies at a few shared points, so some coincide, with ±0.0 coordinates."""
    points = draw(st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=6))
    positions = draw(st.lists(st.sampled_from(points), max_size=24))
    masses = draw(st.lists(st.floats(0.01, 100.0), min_size=len(positions), max_size=len(positions)))
    start = draw(st.integers(0, len(positions)))
    return range(start, draw(st.integers(start, len(positions)))), positions, masses


@given(body_rows(), st.sampled_from((1, 7, algorithms._CELLS)))
@settings(max_examples=300, deadline=None)
def test_numpy_accelerations_equal_the_scalar_loop_bit_for_bit(case, cells):
    rows, positions, masses = case
    saved, algorithms._CELLS = algorithms._CELLS, cells  # small chunks split the rows several ways
    try:
        got = _accels(rows, positions, masses)
    finally:
        algorithms._CELLS = saved
    want = [_accel(i, positions, masses) for i in rows]
    assert [tuple(map(float.hex, a)) for a in got] == [tuple(map(float.hex, a)) for a in want]
    assert all(type(v) is float for a in got for v in a)
