"""Machine descriptions, parallel vectors, and superstep cost accounting.

Every cost in this module is expressed in abstract time-units: a superstep
with per-pid local work ``w``, communication matrix ``C`` and machine
``(p, g, l, r)`` costs ``max(w)/r + g*h(C) + l``, where ``h`` is the
h-relation of ``C``.  A flat machine is a one-leaf tree, and one recursive
rule (``step_cost``) prices a superstep on any tree.  Nothing here performs
I/O with the outside world except the JSON/CSV serializers at the bottom.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence, Union

from .errors import DimensionError, UsageError

#: Default BSP parameters.  The underlying model fixes no numbers; these are
#: configurable everywhere a machine can be supplied.
DEFAULT_G = 1.0
DEFAULT_L = 100.0
DEFAULT_R = 1.0


@dataclass(frozen=True)
class MachineConfig:
    """A flat BSP machine: p processors, gap g, latency l, compute rate r."""

    p: int
    g: float = DEFAULT_G
    l: float = DEFAULT_L
    r: float = DEFAULT_R

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise DimensionError(f"p must be an integer >= 1, got {self.p!r}")
        if not self.g > 0:
            raise DimensionError(f"g must be > 0, got {self.g!r}")
        if self.l < 0:
            raise DimensionError(f"l must be >= 0, got {self.l!r}")
        if not self.r > 0:
            raise DimensionError(f"r must be > 0, got {self.r!r}")


@dataclass(frozen=True)
class Leaf:
    """A leaf of a machine tree: one flat machine."""

    config: MachineConfig


@dataclass(frozen=True)
class Node:
    """An interior level: communication among children costs (g, l) per word/step."""

    children: tuple  # tuple[MachineTree, ...]
    g: float
    l: float

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise DimensionError("a machine tree node needs at least one child")
        if not self.g > 0 or self.l < 0:
            raise DimensionError(f"bad level parameters g={self.g!r}, l={self.l!r}")


MachineTree = Union[Leaf, Node]
Machine = Union[MachineConfig, Leaf, Node]


def as_tree(machine: Machine) -> MachineTree:
    """The machine as a tree: a flat machine is a one-leaf tree."""
    return Leaf(machine) if isinstance(machine, MachineConfig) else machine


def total_p(machine: Machine) -> int:
    """Total number of workers: leaf p summed over the whole tree."""
    if isinstance(machine, MachineConfig):
        return machine.p
    if isinstance(machine, Leaf):
        return machine.config.p
    return sum(total_p(c) for c in machine.children)


def machine_from_dict(obj: dict) -> Machine:
    """Parse a machine from its JSON form.

    ``{"p": 4, "g": 1, "l": 10}`` is a flat machine; ``{"children": [...],
    "g": 2, "l": 20}`` is a tree node whose children are parsed recursively.
    """
    if "children" in obj:
        children = tuple(as_tree(machine_from_dict(c)) for c in obj["children"])
        return Node(children=children, g=float(obj.get("g", DEFAULT_G)), l=float(obj.get("l", DEFAULT_L)))
    return MachineConfig(
        p=int(obj["p"]),
        g=float(obj.get("g", DEFAULT_G)),
        l=float(obj.get("l", DEFAULT_L)),
        r=float(obj.get("r", DEFAULT_R)),
    )


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


def default_sizing(value: Any) -> int:
    """Words in one message: element count for sequences, 1 for scalars."""
    if value is None:
        return 0
    try:
        return len(value)
    except TypeError:
        return 1


class CommMatrix:
    """p x p matrix of words sent per (source, destination) in one superstep."""

    __slots__ = ("words",)

    def __init__(self, words: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(w) for w in row) for row in words)
        p = len(rows)
        for row in rows:
            if len(row) != p:
                raise DimensionError(f"communication matrix must be square, got row of length {len(row)} in a {p}-row matrix")
            for w in row:
                if w < 0:
                    raise DimensionError(f"negative word count {w} in communication matrix")
        object.__setattr__(self, "words", rows)

    def __setattr__(self, name, value):
        raise AttributeError("CommMatrix is immutable")

    @classmethod
    def zeros(cls, p: int) -> CommMatrix:
        return cls([[0] * p for _ in range(p)])

    @classmethod
    def from_sends(cls, p: int, sends: Iterable[tuple[int, int, int]]) -> CommMatrix:
        """Build from (source, dest, words) triples; repeated pairs accumulate."""
        rows = [[0] * p for _ in range(p)]
        for s, d, w in sends:
            rows[s][d] += w
        return cls(rows)

    @property
    def p(self) -> int:
        return len(self.words)

    def sent(self, pid: int) -> int:
        """Words pid sends off-processor (diagonal excluded)."""
        return sum(w for d, w in enumerate(self.words[pid]) if d != pid)

    def received(self, pid: int) -> int:
        """Words pid receives from other processors (diagonal excluded)."""
        return sum(row[pid] for s, row in enumerate(self.words) if s != pid)

    def total_words(self) -> int:
        return sum(sum(row) for row in self.words)

    def transpose(self) -> CommMatrix:
        return CommMatrix(zip(*self.words))

    def __eq__(self, other) -> bool:
        return isinstance(other, CommMatrix) and self.words == other.words

    def __hash__(self) -> int:
        return hash(self.words)

    def __repr__(self) -> str:
        return f"CommMatrix({list(map(list, self.words))!r})"


def _as_comm(comm: Union[CommMatrix, Sequence[Sequence[int]]]) -> CommMatrix:
    return comm if isinstance(comm, CommMatrix) else CommMatrix(comm)


def h_relation(comm: Union[CommMatrix, Sequence[Sequence[int]]]) -> int:
    """Max over pids of max(words sent, words received), self-sends excluded."""
    m = _as_comm(comm)
    return _block_h(m.words, 0, m.p)


def _block_h(words: Sequence[Sequence[int]], lo: int, hi: int) -> int:
    """h-relation among pids lo..hi-1, read from the rows and columns of words."""
    block = [row[lo:hi] for row in words[lo:hi]]
    sent = max((sum(row) - row[i] for i, row in enumerate(block)), default=0)
    received = max((sum(col) - col[i] for i, col in enumerate(zip(*block))), default=0)
    return max(sent, received)


def _leaf_cost(cfg: MachineConfig, max_work: int, h: int) -> float:
    return max_work / cfg.r + cfg.g * h + cfg.l


def step_cost(work: Sequence[int], comm: Union[CommMatrix, Sequence[Sequence[int]]], machine: Machine) -> float:
    """Cost of one superstep on any machine; a flat machine is a one-leaf tree.

    Recursive rule: a leaf costs max(w)/r + g*h + l over its pid block; a node
    costs g_level * h_level + l_level plus the maximum over its children
    (independent machines overlap).  h_level treats each child as one
    endpoint and counts the words crossing between child blocks.
    """
    words = _as_comm(comm).words
    tree = as_tree(machine)
    p = total_p(tree)
    if len(work) != p:
        raise DimensionError(f"work vector has length {len(work)}, machine has p={p}")
    if len(words) != p:
        raise DimensionError(f"communication matrix is {len(words)}x{len(words)}, machine has p={p}")

    def cost(t: MachineTree, base: int) -> float:
        if isinstance(t, Leaf):
            end = base + t.config.p
            return _leaf_cost(t.config, max(work[base:end]), _block_h(words, base, end))
        blocks = []
        for child in t.children:
            blocks.append((base, base + total_p(child)))
            base = blocks[-1][1]
        cross = [[sum(sum(row[c0:c1]) for row in words[a0:a1]) for c0, c1 in blocks] for a0, a1 in blocks]
        child_cost = max(cost(child, b0) for child, (b0, _) in zip(t.children, blocks))
        return t.g * _block_h(cross, 0, len(blocks)) + t.l + child_cost

    return cost(tree, 0)


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
        """Record a fully-known superstep, computing h and cost from machine."""
        w = tuple(int(x) for x in work)
        return cls(
            index=index,
            h=h_relation(comm),
            max_work=max(w) if w else 0,
            words=comm.total_words(),
            cost=step_cost(w, comm, machine),
            work=w,
            comm=comm,
        )

    @classmethod
    def from_summary(cls, index: int, max_work: int | None, h: int, words: int, cost: float) -> SuperstepRecord:
        return cls(index=index, h=h, max_work=max_work, words=words, cost=cost)

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

    def p(self) -> int | None:
        if self.work is not None:
            return len(self.work)
        if self.comm is not None:
            return self.comm.p
        return None


@dataclass(frozen=True)
class CostTrace:
    """Per-superstep records plus their totals."""

    steps: tuple[SuperstepRecord, ...]
    total_cost: float
    total_words: int
    sync_count: int


def trace_totals(steps: Iterable[SuperstepRecord]) -> CostTrace:
    """Aggregate records into a CostTrace, preserving input order."""
    steps = tuple(steps)
    widths = {s.p() for s in steps if s.p() is not None}
    if len(widths) > 1:
        raise DimensionError(f"records disagree on p: {sorted(widths)}")
    return CostTrace(
        steps=steps,
        total_cost=float(sum(s.cost for s in steps)),
        total_words=sum(s.words for s in steps),
        sync_count=len(steps),
    )


# --- serialization ---------------------------------------------------------

TRACE_CSV_HEADER = ["index", "max_work", "h", "words_total", "cost"]


def trace_to_dict(trace: CostTrace, machine: Machine | None = None) -> dict:
    obj: dict[str, Any] = {
        "machine": machine_to_dict(machine) if machine is not None else None,
        "steps": [
            {
                "index": s.index,
                "max_work": s.max_work,
                "h": s.h,
                "words_total": s.words,
                "cost": s.cost,
            }
            for s in trace.steps
        ],
        "totals": {
            "total_cost": trace.total_cost,
            "total_words": trace.total_words,
            "sync_count": trace.sync_count,
        },
    }
    return obj


def trace_to_json(trace: CostTrace, machine: Machine | None = None) -> str:
    return json.dumps(trace_to_dict(trace, machine), indent=2, sort_keys=True) + "\n"


def trace_to_csv(trace: CostTrace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_CSV_HEADER)
    for s in trace.steps:
        writer.writerow([s.index, "" if s.max_work is None else s.max_work, s.h, s.words, repr(float(s.cost))])
    return buf.getvalue()


def trace_from_csv(text: str) -> CostTrace:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != TRACE_CSV_HEADER:
        raise UsageError(f"not a trace CSV: header {header!r}")
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            records.append(
                SuperstepRecord.from_summary(
                    index=int(row[0]),
                    max_work=None if row[1] == "" else int(row[1]),
                    h=int(row[2]),
                    words=int(row[3]),
                    cost=float(row[4]),
                )
            )
        except (ValueError, IndexError) as exc:
            raise UsageError(f"malformed trace CSV at line {lineno}: {exc}") from exc
    return trace_totals(records)
