"""Machine descriptions, parallel vectors, and superstep cost accounting.

Every cost in this module is expressed in abstract time-units: a superstep
with per-pid local work ``w``, communication matrix ``C`` and machine
``(p, g, l, r)`` costs ``max(w)/r + g*h(C) + l``, where ``h`` is the
h-relation of ``C``.  A flat machine is a one-leaf tree, and one recursive
rule (``step_cost``) prices a superstep on any tree.  Nothing here performs
I/O with the outside world except the dict/CSV serializers at the bottom.
"""

from __future__ import annotations

import math
import numbers
import operator
from array import array
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

from .errors import DimensionError, RoutingError, UsageError

#: Default BSP parameters.  The underlying model fixes no numbers; these are
#: configurable everywhere a machine can be supplied.
DEFAULT_G = 1.0
DEFAULT_L = 100.0
DEFAULT_R = 1.0

#: Most levels a machine tree may have, a flat machine being one level.  The
#: tree is walked by recursion once per level, so this keeps a run well inside
#: the interpreter's recursion limit.
MAX_TREE_DEPTH = 100


@dataclass(frozen=True)
class MachineConfig:
    """A flat BSP machine: p processors, gap g, latency l, compute rate r."""

    p: int
    g: float = DEFAULT_G
    l: float = DEFAULT_L
    r: float = DEFAULT_R

    def __post_init__(self):
        if isinstance(self.p, bool) or not isinstance(self.p, int) or self.p < 1:
            raise DimensionError(f"p must be an integer >= 1, got {self.p!r}")
        _check_parameters(g=self.g, l=self.l, r=self.r)


def _check_parameters(**values: float) -> None:
    """Raise DimensionError unless each value is a real number, g and r finite and > 0 and l finite and >= 0."""
    for name, value in values.items():
        if not (isinstance(value, numbers.Real) and (value >= 0 if name == "l" else value > 0) and value < math.inf):
            raise DimensionError(f"{name} must be a finite number {'>=' if name == 'l' else '>'} 0, got {value!r}")


@dataclass(frozen=True)
class Leaf:
    """A leaf of a machine tree: one flat machine of ``p`` pids, one level deep."""

    config: MachineConfig
    depth = 1

    def __post_init__(self):
        if not isinstance(self.config, MachineConfig):
            raise DimensionError(f"a flat machine must be a MachineConfig, got {type(self.config).__name__}")
        object.__setattr__(self, "p", self.config.p)


@dataclass(frozen=True)
class Node:
    """An interior level: communication among children costs (g, l) per word/step; a MachineConfig child is a Leaf."""

    children: tuple  # tuple[MachineTree, ...]
    g: float
    l: float

    def __post_init__(self):
        children = tuple(map(as_tree, self.children))
        if not children:
            raise DimensionError("a machine tree node needs at least one child")
        _check_parameters(g=self.g, l=self.l)
        owner = tuple(i for i, child in enumerate(children) for _ in range(child.p))  # each pid's child, pids counted from the node's first
        offsets = tuple(accumulate((child.p for child in children[:-1]), initial=0))  # each child's first pid, counted likewise
        for name, value in (("children", children), ("p", len(owner)), ("depth", 1 + max(c.depth for c in children)), ("offsets", offsets), ("owner", owner)):
            object.__setattr__(self, name, value)  # plain attributes, not fields: no part of ==, hash or repr


MachineTree = Union[Leaf, Node]
Machine = Union[MachineConfig, Leaf, Node]


def as_tree(machine: Machine) -> MachineTree:
    """The machine as a tree: a flat machine is a one-leaf tree."""
    return machine if isinstance(machine, (Leaf, Node)) else Leaf(machine)


def check_depth(machine: Machine) -> None:
    """Raise UsageError if the machine tree has more than MAX_TREE_DEPTH levels."""
    _check_level(as_tree(machine).depth)


def _check_level(depth: int) -> None:
    if depth > MAX_TREE_DEPTH:
        raise UsageError(f"a machine tree may have at most {MAX_TREE_DEPTH} levels")


def total_p(machine: Machine) -> int:
    """Total number of workers: leaf p summed over the whole tree."""
    return machine.p


def machine_from_dict(obj: dict) -> Machine:
    """Parse a machine from its JSON form.

    ``{"p": 4, "g": 1, "l": 10}`` is a flat machine; ``{"children": [...],
    "g": 2, "l": 20}`` is a tree node whose children are parsed recursively.
    Keys it does not know are ignored; a value that is not an object, a
    missing ``p``, a parameter that is not a number and a tree of more than
    MAX_TREE_DEPTH levels raise UsageError.
    """
    return _machine_from_dict(obj, 1)


def _machine_from_dict(obj: dict, depth: int) -> Machine:
    _check_level(depth)
    if not isinstance(obj, dict):
        raise UsageError(f"a machine must be a JSON object, got {type(obj).__name__}")
    if "children" in obj:
        if not isinstance(obj["children"], (list, tuple)):
            raise UsageError(f"machine key 'children' must be a list, got {obj['children']!r}")
        children = tuple(_machine_from_dict(c, depth + 1) for c in obj["children"])
        return Node(children=children, g=_number(obj, "g", DEFAULT_G), l=_number(obj, "l", DEFAULT_L))
    if "p" not in obj:
        raise UsageError("a machine needs the key 'p' (flat) or 'children' (tree)")
    p = obj["p"]
    if isinstance(p, float) and p.is_integer():
        p = int(p)
    return MachineConfig(p=p, g=_number(obj, "g", DEFAULT_G), l=_number(obj, "l", DEFAULT_L), r=_number(obj, "r", DEFAULT_R))


def _number(obj: dict, key: str, default: float) -> float:
    """The machine parameter under key as a float, default if absent."""
    try:
        return float(obj.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"machine key {key!r} must be a number, got {obj[key]!r}") from exc


def machine_to_dict(machine: Machine) -> dict:
    if isinstance(machine, MachineConfig):
        return {"p": machine.p, "g": machine.g, "l": machine.l, "r": machine.r}
    if isinstance(machine, Leaf):
        return machine_to_dict(machine.config)
    return {"children": [machine_to_dict(c) for c in machine.children], "g": machine.g, "l": machine.l}


class ParVec:
    """A width-p vector of per-processor values, indexed by pid 0..p-1.

    Immutable value type; the unit of all BSML computation.
    """

    __slots__ = ("elems",)

    def __init__(self, elems: Iterable):
        object.__setattr__(self, "elems", tuple(elems))

    def __setattr__(self, name, value):
        raise AttributeError("ParVec is immutable")

    def __len__(self) -> int:
        return len(self.elems)

    def __getitem__(self, pid: int):
        return self.elems[pid]

    def __iter__(self) -> Iterator:
        return iter(self.elems)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParVec) and self.elems == other.elems

    def __hash__(self) -> int:
        return hash(self.elems)

    def __repr__(self) -> str:
        return f"ParVec{self.elems!r}"


class Inbox(Sequence):
    """What one pid received in a ``put``: a read-only length-p sequence indexed by source pid.

    Backed by ``{source: message}``, so delivering costs the messages sent,
    not p.  A source that sent nothing reads as None.  Indexing, slicing (a
    tuple), iteration, ``==``, ``hash`` and ``repr`` behave as for the dense
    length-p tuple it stands for.
    """

    __slots__ = ("_msgs", "_p")

    def __init__(self, msgs: dict, p: int):
        self._msgs = msgs
        self._p = p

    def __len__(self) -> int:
        return self._p

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._msgs.get, range(*index.indices(self._p))))
        i = operator.index(index)
        if i < 0:
            i += self._p
        if not 0 <= i < self._p:
            raise IndexError("Inbox index out of range")
        return self._msgs.get(i)

    def __iter__(self) -> Iterator:
        return map(self._msgs.get, range(self._p))

    def __eq__(self, other) -> bool:
        if isinstance(other, (Inbox, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def default_sizing(value: Any) -> int:
    """Words in one message: element count for sequences, 1 for scalars."""
    if value is None:
        return 0
    try:
        return len(value)
    except TypeError:
        return 1


class CommMatrix:
    """p x p matrix of words sent per (source, destination) in one superstep.

    Stored sparse: the non-zero cells as ascending keys ``s * p + d`` with
    their word counts, plus each pid's off-diagonal sent and received totals.
    Building costs O(nnz + p) when the cells arrive in key order (O(nnz log
    nnz) otherwise); ``words`` is a dense view built on demand in O(p^2).
    """

    __slots__ = ("p", "_keys", "_vals", "_sent", "_received")

    def __init__(self, words: Iterable[Iterable[int]]):
        rows = [tuple(row) for row in words]
        p = len(rows)
        for row in rows:
            if len(row) != p:
                raise DimensionError(f"communication matrix must be square, got row of length {len(row)} in a {p}-row matrix")
        self._fill(p, ((s, d, w) for s, row in enumerate(rows) for d, w in enumerate(row)))

    def _fill(self, p: int, sends: Iterable[tuple[int, int, int]]) -> None:
        """Validate the sends and store their sum: one pass, merged by key only if out of order."""
        if isinstance(p, bool) or not isinstance(p, int) or p < 0:
            raise DimensionError(f"communication matrix size must be an integer >= 0, got {p!r}")
        keys, vals = array("q"), array("q")
        add_key, add_val = keys.append, vals.append
        sent, received = [0] * p, [0] * p
        last, ordered = -1, True
        for s, d, w in sends:
            try:
                if not (0 <= s < p and 0 <= d < p):
                    raise RoutingError(f"send from pid {s!r} to pid {d!r} outside 0..{p - 1}")
                if w <= 0:
                    if w < 0:
                        raise DimensionError(f"negative word count {w} in communication matrix")
                    continue
                key = s * p + d
                add_key(key)  # the array takes only an int: a str or float pid fails here
                add_val(w)
            except (TypeError, OverflowError):
                if all(isinstance(pid, int) and 0 <= pid < p for pid in (s, d)):
                    raise DimensionError(f"word count {w!r} in communication matrix is not an integer below 2**63") from None
                raise RoutingError(f"send from pid {s!r} to pid {d!r} outside 0..{p - 1}") from None
            if key <= last:
                ordered = False
            last = key
            if s != d:
                sent[s] += w
                received[d] += w
        if not ordered:
            keys, vals = _merge_cells(keys, vals)
        for name, value in (("p", p), ("_keys", keys), ("_vals", vals), ("_sent", sent), ("_received", received)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("CommMatrix is immutable")

    @classmethod
    def zeros(cls, p: int) -> CommMatrix:
        return cls.from_sends(p, ())

    @classmethod
    def from_sends(cls, p: int, sends: Iterable[tuple[int, int, int]]) -> CommMatrix:
        """Build from (source, dest, words) triples; repeated pairs accumulate."""
        m = cls.__new__(cls)
        m._fill(p, sends)
        return m

    @classmethod
    def _from_rows(cls, p: int, counts: array, dests: list[int], words: list[int]) -> CommMatrix:
        """Build from int columns: source s owns the next ``counts[s]`` cells, sources in pid order.

        The caller checks what ``_fill`` checks per cell: every destination in
        0..p-1 and off the diagonal, words >= 0, and no destination twice in
        one source's cells.  Zero-word cells are dropped, and the cells are
        sorted only when out of order.  Totals stay exact Python ints.
        """
        keys, vals, sent, received = array("q"), array("q"), [0] * p, [0] * p
        if dests:
            import numpy as np  # here, so that importing bspkit does not import numpy

            keys, vals = array("q", [0]) * len(dests), array("q", [0]) * len(words)
            dst, w = np.frombuffer(keys, np.int64), np.frombuffer(vals, np.int64)
            dst[:], w[:] = dests, words
            src = np.repeat(np.arange(p), np.frombuffer(counts, np.int64))
            exact = np.int64 if sum(words) < 2**63 else object  # no pid's total overflows int64 when the sum of all does not
            sent, received = np.zeros(p, exact), np.zeros(p, exact)
            np.add.at(sent, src, w.astype(exact, copy=False))
            np.add.at(received, dst, w.astype(exact, copy=False))
            sent, received = sent.tolist(), received.tolist()
            src *= p
            dst += src  # the keys, in place
            del src
            # The keys are distinct, so they ascend unless some step between neighbours is negative (>> 63 maps it to -1).
            # No numpy comparison or sort runs here: the first such call in a process maps 130-330 KiB more of numpy's code.
            steps = np.diff(dst)
            steps >>= 63
            if np.count_nonzero(steps) or np.count_nonzero(w) < len(w):
                cells = w.nonzero()[0]
                order = dst[cells].tolist()
                cells = cells[sorted(range(len(order)), key=order.__getitem__)]
                keys, vals = array("q", dst[cells].tobytes()), array("q", w[cells].tobytes())
        m = cls.__new__(cls)
        for name, value in (("p", p), ("_keys", keys), ("_vals", vals), ("_sent", sent), ("_received", received)):
            object.__setattr__(m, name, value)
        return m

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """The dense p x p rows, built on demand."""
        rows = [[0] * self.p for _ in range(self.p)]
        for s, d, w in self._cells():
            rows[s][d] = w
        return tuple(map(tuple, rows))

    def _cells(self) -> Iterator[tuple[int, int, int]]:
        """(source, dest, words) of every non-zero cell, in row-major order."""
        p = self.p
        for key, w in zip(self._keys, self._vals):
            s, d = divmod(key, p)
            yield s, d, w

    def sent(self, pid: int) -> int:
        """Words pid sends off-processor (diagonal excluded)."""
        return self._sent[pid]

    def received(self, pid: int) -> int:
        """Words pid receives from other processors (diagonal excluded)."""
        return self._received[pid]

    def total_words(self) -> int:
        return sum(self._vals)

    def transpose(self) -> CommMatrix:
        return CommMatrix.from_sends(self.p, ((d, s, w) for s, d, w in self._cells()))

    def __eq__(self, other) -> bool:
        return isinstance(other, CommMatrix) and self.p == other.p and self._keys == other._keys and self._vals == other._vals

    def __hash__(self) -> int:
        return hash((self.p, self._keys.tobytes(), self._vals.tobytes()))

    def __repr__(self) -> str:
        return f"CommMatrix({list(map(list, self.words))!r})"


def _merge_cells(keys: array, vals: array) -> tuple[array, array]:
    """Sort cells by key and sum the words of repeated keys."""
    merged_keys, merged_vals = array("q"), array("q")
    last = -1
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[i]
        if key == last:
            merged_vals[-1] += vals[i]
        else:
            merged_keys.append(key)
            merged_vals.append(vals[i])
            last = key
    return merged_keys, merged_vals


def _as_comm(comm: Union[CommMatrix, Sequence[Sequence[int]]]) -> CommMatrix:
    return comm if isinstance(comm, CommMatrix) else CommMatrix(comm)


def h_relation(comm: Union[CommMatrix, Sequence[Sequence[int]]]) -> int:
    """Max over pids of max(words sent, words received), self-sends excluded."""
    m = _as_comm(comm)
    return _h(m._sent, m._received)


def _h(sent: Sequence[int], received: Sequence[int]) -> int:
    return max(max(sent, default=0), max(received, default=0))


def _leaf_cost(cfg: MachineConfig, max_work: int, h: int) -> float:
    return max_work / cfg.r + cfg.g * h + cfg.l


def step_cost(work: Sequence[int], comm: Union[CommMatrix, Sequence[Sequence[int]]], machine: Machine) -> float:
    """Cost of one superstep on any machine; a flat machine is a one-leaf tree.

    Recursive rule: a leaf costs max(w)/r + g*h + l over its pid block; a node
    costs g_level * h_level + l_level plus the maximum over its children
    (independent machines overlap).  h_level treats each child as one
    endpoint and counts the words crossing between child blocks.
    """
    m = _as_comm(comm)
    tree = as_tree(machine)
    p = tree.p
    if len(work) != p:
        raise DimensionError(f"work vector has length {len(work)}, machine has p={p}")
    if m.p != p:
        raise DimensionError(f"communication matrix is {m.p}x{m.p}, machine has p={p}")
    if isinstance(tree, Leaf):
        return _leaf_cost(tree.config, max(work), _h(m._sent, m._received))
    return _tree_cost(tree, work, 0, [cell for cell in m._cells() if cell[0] != cell[1]])


def _tree_cost(t: MachineTree, work: Sequence[int], base: int, cells: list[tuple[int, int, int]]) -> float:
    """Cost of subtree t, whose pids start at base, given the off-diagonal cells inside its block.

    A node hands each child the cells that stay inside it and counts the rest
    as crossing words, so every level reads each cell once.
    """
    if isinstance(t, Leaf):
        sent, received = [0] * t.p, [0] * t.p
        for s, d, w in cells:
            sent[s - base] += w
            received[d - base] += w
        return _leaf_cost(t.config, max(work[base : base + t.p]), _h(sent, received))
    owner, k = t.owner, len(t.children)
    sent, received = [0] * k, [0] * k
    inside: list[list[tuple[int, int, int]]] = [[] for _ in range(k)]
    for cell in cells:
        a, c = owner[cell[0] - base], owner[cell[1] - base]
        if a == c:
            inside[a].append(cell)
        else:
            sent[a] += cell[2]
            received[c] += cell[2]
    child_cost = max(_tree_cost(child, work, base + offset, inner) for child, offset, inner in zip(t.children, t.offsets, inside))
    return t.g * _h(sent, received) + t.l + child_cost


def superstep_cost(work: Sequence[int], comm: Union[CommMatrix, Sequence[Sequence[int]]], machine: MachineConfig) -> float:
    """Cost of one superstep on a flat machine: max(work)/r + g*h + l."""
    return step_cost(work, comm, machine)


def nested_step_cost(work: Sequence[int], comm: Union[CommMatrix, Sequence[Sequence[int]]], tree: MachineTree) -> float:
    """Cost of one superstep on a machine tree, by the recursive rule of step_cost."""
    return step_cost(work, comm, tree)


@dataclass(frozen=True)
class SuperstepRecord:
    """One superstep: local work per pid, communication, h-relation, cost.

    ``work`` and ``comm`` may be None for records reconstructed from a trace
    CSV, which stores only the per-step summary columns.
    """

    index: int
    h: int
    max_work: int | None
    words: int
    cost: float
    work: tuple[int, ...] | None = None
    comm: CommMatrix | None = None

    @classmethod
    def close(cls, index: int, work: Sequence[int], comm: CommMatrix, machine: Machine) -> SuperstepRecord:
        """Record a fully-known superstep, computing h and cost from machine.

        Each pid's work must be an integer >= 0, as ``RunContext.map_pids`` requires of declared work.
        """
        w = tuple(work)
        if not (all(map(isinstance, w, repeat(int))) and min(w, default=0) >= 0):
            raise DimensionError(f"work must be integers >= 0, got {list(w)!r}")
        return cls(
            index=index,
            h=h_relation(comm),
            max_work=max(w) if w else 0,
            words=comm.total_words(),
            cost=step_cost(w, comm, machine),
            work=w,
            comm=comm,
        )

    def recost(self, machine: Machine) -> float:
        """Recompute this step's cost for a (possibly different) machine.

        Machine-independent counts (work, h) are re-priced; the summary
        suffices for a one-leaf machine, deeper trees need full work/comm data.
        """
        tree = as_tree(machine)
        if isinstance(tree, Leaf):
            if self.max_work is None:
                raise UsageError("trace record lacks work counts; cannot re-cost")
            return _leaf_cost(tree.config, self.max_work, self.h)
        if self.work is None or self.comm is None:
            raise UsageError("trace record lacks full work/comm data; cannot re-cost on a machine tree")
        return step_cost(self.work, self.comm, tree)


@dataclass(frozen=True)
class CostTrace:
    """Per-superstep records, in order; the totals are derived from them."""

    steps: tuple[SuperstepRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        widths = {len(s.work) for s in self.steps if s.work is not None}
        if len(widths) > 1:
            raise DimensionError(f"records disagree on p: {sorted(widths)}")

    @property
    def total_cost(self) -> float:
        return float(sum(s.cost for s in self.steps))

    @property
    def total_words(self) -> int:
        return sum(s.words for s in self.steps)

    @property
    def sync_count(self) -> int:
        return len(self.steps)


# --- serialization ---------------------------------------------------------

#: One column of a table row: its CSV column (and JSON key), the row's field it holds, how a CSV
#: cell is read, and how the field's value is written to one.
Column = namedtuple("Column", "name field parse write", defaults=(str,))


def write_columns(columns: Sequence[Column], rows: Iterable) -> str:
    """A header line of the columns' names, then one line of comma-separated cells per row."""
    lines = [",".join(c.name for c in columns)]
    lines.extend(",".join(c.write(getattr(row, c.field)) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def read_columns(lines: Iterable[tuple[int, str]], columns: Sequence[Column], what: str, make: Callable[..., Any]) -> Iterator[tuple[int, Any]]:
    """(line number, make(**fields)) of each row after the header of the columns' names; empty lines are skipped.

    A wrong header, a row not as wide as the header or a cell its column cannot parse raises UsageError naming the line.
    """
    lines = iter(lines)
    lineno, header = next(lines, (1, None))
    expected = ",".join(c.name for c in columns)
    if header != expected:
        raise UsageError(f"malformed {what} at line {lineno}: expected header {expected!r}, got {header!r}")
    for lineno, line in lines:
        if not line:
            continue
        cells = line.split(",")
        try:
            if len(cells) != len(columns):
                raise ValueError(f"expected {len(columns)} cells, got {len(cells)}")
            yield lineno, make(**{c.field: c.parse(cell) for c, cell in zip(columns, cells)})
        except ValueError as exc:
            raise UsageError(f"malformed {what} at line {lineno}: {exc}") from exc


def _at_least_0(number):
    """A parsed cell, or ValueError if it is below 0, NaN or infinite."""
    if not 0 <= number < math.inf:
        raise ValueError(f"{number} is not a finite number >= 0")
    return number


#: Every summary column of a trace step, in CSV order.
STEP_COLUMNS = (
    Column("index", "index", lambda cell: _at_least_0(int(cell))),
    Column("max_work", "max_work", lambda cell: None if cell == "" else _at_least_0(int(cell)), write=lambda w: "" if w is None else str(w)),
    Column("h", "h", lambda cell: _at_least_0(int(cell))),
    Column("words_total", "words", lambda cell: _at_least_0(int(cell))),
    Column("cost", "cost", lambda cell: _at_least_0(float(cell)), write=lambda cost: repr(float(cost))),
)

TRACE_CSV_HEADER = [c.name for c in STEP_COLUMNS]


def trace_to_dict(trace: CostTrace) -> dict:
    return {
        "steps": [{c.name: getattr(s, c.field) for c in STEP_COLUMNS} for s in trace.steps],
        "totals": {
            "total_cost": trace.total_cost,
            "total_words": trace.total_words,
            "sync_count": trace.sync_count,
        },
    }


def trace_to_csv(trace: CostTrace) -> str:
    return write_columns(STEP_COLUMNS, trace.steps)


def trace_from_csv(text: str) -> CostTrace:
    rows = list(read_columns(enumerate(text.splitlines(), start=1), STEP_COLUMNS, "trace CSV", SuperstepRecord))
    for i, (lineno, step) in enumerate(rows):
        if step.index != i:
            raise UsageError(f"malformed trace CSV at line {lineno}: step index {step.index}, expected {i}")
        if step.h > step.words:  # a step's h never exceeds the words it sends
            raise UsageError(f"malformed trace CSV at line {lineno}: h {step.h} exceeds words_total {step.words}")
    return CostTrace(step for _lineno, step in rows)
