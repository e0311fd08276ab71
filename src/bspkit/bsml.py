"""The four BSML-style primitives over parallel vectors.

``nprocs`` reads the machine width, ``mkpar`` constructs a width-p vector by
binding pid, ``apply`` transforms one pointwise, and ``put`` exchanges
messages through a p x p send/receive relation, ending the superstep; it
reads plans and delivers receptions sparsely, so it costs O(nnz + p) host
time for nnz messages.  Its accounting goes one plan row at a time: each
row's destinations and sizes are appended to two int columns, from which
the step's ``CommMatrix`` is built at once.
``proj`` folds a parallel vector back into ordinary sequential data and is
accounted as an all-to-all replication so that its cost is honest; its
columns hold every off-diagonal cell.

All primitives are pure with respect to program values; the active run
context logs declared work and exact word counts for every call.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Mapping, Sequence

from .engine import RunContext, current_context
from .errors import BspError, DimensionError, RoutingError, UsageError
from .model import CommMatrix, Inbox, ParVec


def nprocs() -> int:
    """Number of processors of the active run; constant for its lifetime."""
    return current_context().p


def mkpar(f: Callable[[int], Any], *, work: Any = 1) -> ParVec:
    """Build a parallel vector with f(pid) at each slot.

    f is invoked exactly once per pid, pid order ascending on the simulator.
    It runs with no active run, so it may not call a primitive.
    ``work`` declares the local cost of one element evaluation (an int, or a
    callable of the pid).
    """
    ctx = current_context()
    return ParVec(ctx.map_pids(f, work=work))


def apply(pf: ParVec, pv: ParVec, *, work: Any = 1) -> ParVec:
    """Pointwise application: result[i] = pf[i](pv[i]).

    Local work accrues to each pid's counter in the open superstep; ``work``
    may be a callable of the input element.
    """
    ctx = current_context()
    _check_width(ctx, pf, "function vector")
    _check_width(ctx, pv, "argument vector")
    per_pid = (lambda i: work(pv.elems[i])) if callable(work) else work
    return ParVec(ctx.map_pids(lambda i: pf.elems[i](pv.elems[i]), work=per_pid))


def proj(pv: ParVec) -> tuple:
    """Destructor: fold a parallel vector into a plain length-p tuple.

    Accounted as a gather-to-all: every pid sends its value to every other
    pid, which ends the current superstep.  proj(pv)[i] == pv[i].
    """
    ctx = current_context()
    if ctx.sgl_only:
        raise UsageError("proj is not an SGL operation; use gather")
    _check_width(ctx, pv, "vector")
    p = ctx.p
    sizes = ctx.sizes(pv.elems)
    dests = list(chain.from_iterable(chain(range(s), range(s + 1, p)) for s in range(p)))
    words = list(chain.from_iterable(repeat(w, p - 1) for w in sizes))
    ctx.close_superstep(CommMatrix._from_rows(p, array("q", [p - 1]) * p, dests, words))
    return tuple(pv.elems)


def put(plan: ParVec) -> ParVec:
    """Exchange messages: reception[d][s] = plan[s][d] (relational transpose).

    Each pid's plan entry maps destination pids to optional messages, given as
    a dict, a length-p sequence (None = no message), or a callable probed for
    every destination.  Plans are read once, in pid order: a dict costs its
    own entries, a sequence or a callable all p destinations.  Each row is
    read whole, then its messages are sized, each once and in row order: a
    self-send is delivered but neither sized nor counted, and a message
    without ``len`` (a scalar) counts 1 word.  A callable or sequence plan,
    or a message's size, that raises fails the run at the source pid; a plan
    of the wrong shape raises its BspError as it is, before any later pid's
    row is read.  The superstep ends, and each pid receives an ``Inbox``: a
    read-only length-p sequence indexed by source pid that stores only the
    messages that are not None, and compares equal to the dense tuple.
    """
    ctx = current_context()
    if ctx.sgl_only:
        raise UsageError("put is absent in SGL")
    _check_width(ctx, plan, "message plan")
    p = ctx.p
    inbox: list[dict] = [{} for _ in range(p)]
    counts, dests, words = array("q", [0]) * p, [], []
    pids = frozenset(range(p))
    for s, row in enumerate(plan.elems):
        try:
            if type(row) is not dict:  # read into a dict without None messages
                row = {d: msg for d, msg in _plan_items(s, row, p) if msg is not None}
            elif row and not (_INTS.issuperset(map(type, row)) and pids.issuperset(row)):
                _plan_items(s, row, p)  # raises RoutingError at the first invalid destination
            if row:
                counts[s] = _send_row(s, row, inbox, dests, words)
        except BspError:
            raise
        except Exception as exc:  # user code: a callable or sequence plan, or a message's __len__
            raise ctx.failure(s, exc) from exc
    ctx.close_superstep(CommMatrix._from_rows(p, counts, dests, words))
    return ParVec([Inbox(msgs, p) for msgs in inbox])


def _check_width(ctx: RunContext, pv: ParVec, what: str) -> None:
    if not isinstance(pv, ParVec):
        raise UsageError(f"{what} must be a ParVec, got {type(pv).__name__}")
    if len(pv) != ctx.p:
        raise DimensionError(f"{what} has width {len(pv)}, machine has p={ctx.p}")


def _send_row(src: int, row: dict, inbox: list[dict], dests: list[int], words: list[int]) -> int:
    """Deliver one source's messages and append its cells to the columns; the number of cells appended.

    Every message but the self-send is sized once, in row order: len, or 1
    word for a message without one.  A None message is neither delivered
    nor counted.
    """
    sized, nones = row, False
    if src in row:  # delivered, not counted
        sized = row.copy()
        nones = sized.pop(src) is None
    messages = list(sized.values())
    rest = iter(messages)
    start = len(words)
    while True:
        try:
            words += map(len, rest)  # when a len raises, the sizes before it stay appended
            break
        except TypeError:  # a scalar, or None
            none = messages[len(words) - start] is None
            nones |= none
            words.append(0 if none else 1)
    dests += sized
    if nones:
        row = {d: msg for d, msg in row.items() if msg is not None}
    for d, msg in row.items():
        inbox[d][src] = msg
    return len(messages)


_INTS = frozenset({int})


def _plan_items(src: int, entry: Any, p: int) -> Iterable[tuple[int, Any]]:
    """One pid's message plan as (destination, message) pairs."""
    if entry is None:
        return ()
    if isinstance(entry, Mapping):
        for d in entry:
            if isinstance(d, bool) or not isinstance(d, int) or not 0 <= d < p:
                raise RoutingError(f"pid {src} sends to invalid destination {d!r} (p={p})")
        return entry.items()
    if callable(entry):
        return ((d, entry(d)) for d in range(p))
    if isinstance(entry, Sequence):
        if len(entry) != p:
            raise DimensionError(f"pid {src}'s dense message plan has length {len(entry)}, expected p={p}")
        return enumerate(entry)
    raise UsageError(f"pid {src}'s message plan must be a mapping, sequence, or callable, got {type(entry).__name__}")
