"""Program execution: the exact-cost sequential simulator and the thread backend.

A program is a zero-argument callable that uses the bsml/sgl primitives while
a run context is active.  The ``simulate`` backend evaluates every per-pid
function in ascending pid order on the calling thread and produces an exact,
deterministic cost trace.  The ``parallel`` backend dispatches one pool task
per pid for each ``mkpar`` or ``apply`` and joins them before the primitive
returns, so messages become visible only after the barrier; its traces carry
identical counts, plus a wall-clock measurement.  On both backends an element
function runs with no active run, so it cannot call a primitive.
"""

from __future__ import annotations

import hashlib
import operator
import os
import platform
import re
import reprlib
import time
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass, is_dataclass, fields as dc_fields
from datetime import datetime, timezone
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping

from . import __version__
from .errors import BspError, CapacityError, ProgramError, UsageError
from .model import (
    CommMatrix,
    CostTrace,
    Inbox,
    Machine,
    ParVec,
    SuperstepRecord,
    as_tree,
    check_depth,
    default_sizing,
    machine_to_dict,
    total_p,
    trace_to_dict,
)

BACKENDS = ("simulate", "parallel")

#: Hard ceiling on pids for the parallel backend; override per run.
DEFAULT_WORKER_CAP = 64

_CURRENT: ContextVar["RunContext | None"] = ContextVar("bspkit_run_context", default=None)


class RunContext:
    """Mutable state of one run: machine tree, open superstep, trace so far.

    ``sgl_only`` rejects put and proj; only ``sgl.run_nested`` sets it.
    ``sgl_via_put`` runs scatter and gather as put plans; only
    ``sgl.translate_to_bsml`` sets it.  Pids run on ``pool`` if one is given.
    """

    def __init__(self, machine: Machine, pool: ThreadPoolExecutor | None = None):
        self.machine = as_tree(machine)
        self.p = self.machine.p
        self.pool = pool
        self.sgl_only = False
        self.sgl_via_put = False
        self.steps: list[SuperstepRecord] = []
        self.open_work = [0] * self.p
        self.open_alloc = [0] * self.p
        self.peak_words = 0

    # -- accounting -------------------------------------------------------

    def close_superstep(self, comm: CommMatrix) -> SuperstepRecord:
        """End the open superstep with its communication matrix; open a fresh one.

        Each pid's allocation grows by the words it receives from other pids.
        """
        rec = SuperstepRecord.close(len(self.steps), tuple(self.open_work), comm, self.machine)
        self.steps.append(rec)
        received = map(comm.received, range(self.p))
        self.peak_words = max(self.peak_words, max(map(operator.add, self.open_alloc, received), default=0))
        self.open_work = [0] * self.p
        self.open_alloc = [0] * self.p
        return rec

    def partial_trace(self) -> CostTrace:
        return CostTrace(self.steps)

    def failure(self, pid: int, cause: BaseException) -> ProgramError:
        """The error that ends the run when user code for pid raised cause in the open superstep."""
        return ProgramError(pid, len(self.steps), cause, partial_trace=self.partial_trace())

    def sizes(self, values: Iterable, holder: int | None = None) -> list[int]:
        """Words in each value: pid i holds the i-th, unless one holder holds them all.

        A size that cannot be read (a user ``__len__`` that raises) fails the run at the pid holding it.
        """
        sizes: list[int] = []
        try:
            for value in values:
                sizes.append(default_sizing(value))
        except Exception as exc:  # user code may raise anything
            raise self.failure(len(sizes) if holder is None else holder, exc) from exc
        return sizes

    def finish(self) -> CostTrace:
        """Close the run; trailing local work is flushed by the final barrier."""
        self.peak_words = max(self.peak_words, max(self.open_alloc, default=0))
        if any(self.open_work):
            self.close_superstep(CommMatrix.zeros(self.p))
        return self.partial_trace()

    # -- per-pid evaluation -------------------------------------------------

    def map_pids(self, call: Callable[[int], Any], work: Any = 1) -> list:
        """Evaluate call(i) for every pid and accrue its declared work.

        ``work`` is an integer cost >= 0 per element evaluation, or a callable
        of the pid that returns one; it is read right after call(i), and then
        the result is sized.  All three run with no active run, so a primitive
        inside one raises UsageError: the run is unset on the calling thread,
        and pool threads never hold it.
        Every pid is evaluated; results are assembled by pid regardless of
        completion order, and the lowest failing pid aborts the run.
        """
        errors: dict[int, BaseException] = {}
        declared = [0] * self.p
        words = [0] * self.p

        def at(i: int) -> Any:
            try:
                value = call(i)
                w = work(i) if callable(work) else work
                if not (isinstance(w, int) and w >= 0):
                    raise UsageError(f"declared work must be an integer >= 0, got {w!r}")
                declared[i] = w
                words[i] = default_sizing(value)
                return value
            except Exception as exc:  # user code may raise anything
                errors[i] = exc

        token = _CURRENT.set(None)
        try:
            results = list((self.pool.map if self.pool is not None else map)(at, range(self.p)))
        finally:
            _CURRENT.reset(token)
        if errors:
            pid = min(errors)
            raise self.failure(pid, errors[pid])
        for i in range(self.p):
            self.open_work[i] += declared[i]
            self.open_alloc[i] += words[i]
        return results


def current_context() -> RunContext:
    ctx = _CURRENT.get()
    if ctx is None:
        raise UsageError("no active run: call primitives from the program passed to engine.run(), not from an element function")
    return ctx


# --- environment record ------------------------------------------------------


@dataclass(frozen=True)
class EnvironmentRecord:
    """Experiment-setup documentation embedded in every emitted report."""

    software: str
    hardware: str
    cores_used: int
    threads: str
    measured: str
    timestamp: str
    extra: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        def nonempty(v: str) -> str:
            return v if str(v).strip() else "unknown"

        d = {
            "software": nonempty(self.software),
            "hardware": nonempty(self.hardware),
            "cores_used": self.cores_used,
            "threads": nonempty(self.threads),
            "measured": nonempty(self.measured),
            "timestamp": nonempty(self.timestamp),
        }
        for k, v in self.extra:
            d[nonempty(k)] = nonempty(v)
        return d


def make_environment(backend: str, workers: int, overrides: Mapping[str, str] | None = None) -> EnvironmentRecord:
    base = {
        "software": f"python {platform.python_version()}; bspkit {__version__}",
        "hardware": f"{platform.platform()}; {platform.machine() or 'unknown'}; {os.cpu_count() or 'unknown'} cores",
        "threads": str(workers) if backend == "parallel" else "1",
        "measured": "wall-clock seconds + model cost (time-units)" if backend == "parallel" else "model cost (time-units)",
    }
    extra = []
    for k, v in (overrides or {}).items():
        if k in base:
            base[k] = v
        elif k == "cores_used":
            try:
                workers = int(v)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"cores_used must be an integer, got {v!r}") from exc
            if workers < 1:
                raise UsageError(f"cores_used must be at least 1, got {v!r}")
        else:
            extra.append((str(k), str(v)))
    return EnvironmentRecord(**base, cores_used=workers, timestamp=datetime.now(timezone.utc).isoformat(), extra=tuple(extra))


# --- result digesting --------------------------------------------------------


def _canon(value: Any) -> str:
    """Canonical text for hashing: stable across runs for equal values.

    Containers are walked with an explicit stack of (children, texts, join,
    container) frames, so a value nested past the recursion limit still has
    a digest.  A cycle makes the stack grow without end, so the ids of the
    containers on it are compared each time its depth reaches a power of two
    (O(1) amortised per container).  A cycle, a value whose repr or iteration
    raises, and a repr that carries a memory address (differing from process
    to process) raise BspError.

    Two shortcuts leave the text as it is.  A list, tuple or Inbox whose
    elements all have an exact atom type is joined in one pass.  The one
    joined last is remembered with its text, which is reused when the same
    object comes again and is a tuple, since nothing can change it: a tuple
    replicated in consecutive slots (a broadcast) is joined once.
    """
    stack = [(iter((value,)), [], "".join, None)]
    check_depth = 64
    child = value
    last, last_text = None, ""  # the list, tuple or Inbox of atoms joined last, and its text

    try:
        while True:
            children, texts, join, _ = stack[-1]
            for child in children:
                if type(child) in _ATOMS:
                    texts.append(repr(child))
                elif child is last and type(child) is tuple:  # a list or an Inbox may have changed since
                    texts.append(last_text)
                elif type(child) in _SEQ_JOINS:  # the common container, framed without a call
                    if not _ATOMS.issuperset(map(type, child)):
                        stack.append((iter(child), [], _SEQ_JOINS[type(child)], child))
                        break
                    last, last_text = child, _SEQ_JOINS[type(child)](list(map(repr, child)))
                    texts.append(last_text)
                elif isinstance(child, (bool, int, str, float)):
                    texts.append(repr(child))
                elif isinstance(child, bytes):
                    texts.append("b:" + child.hex())
                elif (frame := _canon_frame(child)) is not None:
                    stack.append((frame[0], [], frame[1], child))
                    break
                else:
                    texts.append(repr(child))
                    if _ADDRESS.search(texts[-1]):
                        raise BspError(f"cannot digest a value of type {type(child).__name__}: its repr carries a memory address")
            else:
                stack.pop()
                text = join(texts)
                if not stack:
                    return text
                stack[-1][1].append(text)
                continue
            if len(stack) == check_depth:
                _reject_cycle([entry[3] for entry in stack[1:]])
                check_depth *= 2
    except BspError:
        raise
    except Exception as exc:  # a user type's repr, fields or iteration
        raise BspError(f"cannot digest a value of type {type(child).__name__}: {exc!r}") from exc


def _reject_cycle(path: list) -> None:
    """Raise BspError naming the cycle if a container occurs twice on the path from the root."""
    first: dict[int, int] = {}
    for depth, container in enumerate(path):
        at = first.setdefault(id(container), depth)
        if at != depth:
            names = " -> ".join(type(c).__name__ for c in path[at : depth + 1])
            raise BspError(f"cannot digest a value that contains itself: {names}")


def _canon_frame(value: Any) -> tuple | None:
    """(children, join of their texts) for a container; None for any other value."""
    name = type(value).__name__
    if isinstance(value, dict):
        return (x for item in value.items() for x in item), _join_dict
    if is_dataclass(value) and not isinstance(value, type):
        names = [f.name for f in dc_fields(value)]
        return (getattr(value, n) for n in names), lambda texts: f"{name}(" + ",".join(map("{}={}".format, names, texts)) + ")"
    if not isinstance(value, (list, tuple, set, frozenset, ParVec)):
        return None
    unordered = isinstance(value, (set, frozenset))
    return iter(value), lambda texts: f"{name}[" + ",".join(sorted(texts) if unordered else texts) + "]"


_ADDRESS = re.compile(r" at 0x[0-9A-Fa-f]+")
_ATOMS = frozenset({type(None), bool, int, str, float})  # exact types; a subclass may have its own repr
_SEQ_JOINS = {seq: lambda texts, name=seq.__name__: f"{name}[" + ",".join(texts) + "]" for seq in (list, tuple)}
_SEQ_JOINS[Inbox] = _SEQ_JOINS[tuple]  # an Inbox digests as the dense tuple it stands for


def _join_dict(texts: list[str]) -> str:
    items = sorted(zip(texts[0::2], texts[1::2]), key=lambda kv: kv[0])
    return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"


def stable_digest(value: Any) -> str:
    return hashlib.sha256(_canon(value).encode("utf-8")).hexdigest()


# --- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Everything one run produced: values, trace, measurement, environment.

    ``result_digest`` is computed on first read and then cached, from the
    result as it is at that moment: a caller who mutates the result should
    read the digest first.
    """

    result: Any
    machine: Machine
    backend: str
    trace: CostTrace
    environment: EnvironmentRecord
    wall_time: float | None = None
    peak_words: int = 0

    @cached_property
    def result_digest(self) -> str:
        return stable_digest(self.result)

    def to_dict(self) -> dict:
        digest = self.result_digest  # first: a value that cannot be digested fails here, not in repr
        try:
            preview = repr(self.result)
        except RecursionError:  # nested past the recursion limit
            preview = reprlib.repr(self.result)
        except Exception as exc:  # a user type's repr
            raise BspError(f"cannot preview a result of type {type(self.result).__name__}: {exc!r}") from exc
        if len(preview) > 200:
            preview = preview[:197] + "..."
        return {
            "result_digest": digest,
            "result_preview": preview,
            "machine": machine_to_dict(self.machine),
            "backend": self.backend,
            "wall_time": self.wall_time,
            "peak_words_per_pid": self.peak_words,
            "environment": self.environment.to_dict(),
            "trace": trace_to_dict(self.trace),
        }


def run(
    program: Callable[[], Any],
    machine: Machine,
    backend: str = "simulate",
    *,
    worker_cap: int = DEFAULT_WORKER_CAP,
    env: Mapping[str, str] | None = None,
) -> RunReport:
    """Execute a closed program on the given machine and backend.

    Raises ProgramError (with the partial trace attached) if the program
    itself fails; CapacityError if the parallel backend would need more than
    ``worker_cap`` pids; UsageError for a bad ``env`` or a machine tree of
    more than ``MAX_TREE_DEPTH`` levels before anything runs.
    """
    if backend not in BACKENDS:
        raise UsageError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    check_depth(machine)
    p = total_p(machine)
    workers = 1
    if backend == "parallel":
        if p > worker_cap:
            raise CapacityError(f"p={p} exceeds the worker cap of {worker_cap}")
        workers = min(p, os.cpu_count() or 1)
    environment = make_environment(backend, workers, env)
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="bspkit-pid") if backend == "parallel" else None
    ctx = RunContext(machine, pool=pool)
    token = _CURRENT.set(ctx)
    t0 = time.perf_counter()
    try:
        result = program()
        wall = time.perf_counter() - t0
    finally:
        _CURRENT.reset(token)
        if pool is not None:
            pool.shutdown(wait=True)
    trace = ctx.finish()
    return RunReport(
        result=result,
        machine=machine,
        backend=backend,
        trace=trace,
        environment=environment,
        wall_time=wall if backend == "parallel" else None,
        peak_words=ctx.peak_words,
    )


def estimate_runtime(trace: CostTrace, machine: Machine) -> float:
    """Re-price a recorded trace on a (possibly different) target machine.

    Work and communication counts are machine-independent, so a trace recorded
    once can produce runtime estimates for any (g, l, r).
    """
    return float(sum(step.recost(machine) for step in trace.steps))
