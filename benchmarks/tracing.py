"""Outside-in layer spans for the bspkit benchmark.

The tracer wraps the public entry points of each bspkit module from outside
the package: every module attribute that *is* one of the wrapped functions is
replaced for the duration of a traced pass, so names re-bound by
``from .bsml import put`` in ``algorithms``, ``sgl``, ``library`` or
``checks`` are wrapped where they are looked up.  Methods are wrapped on
their class.  Nothing inside ``src/`` is modified on disk.

A span is ``(id, parent id, name, start, end, count, error, label)``.  Spans
live in memory and are written out once, when the run ends.  Self time is a
span's duration minus the durations of its direct children; a group's
inclusive time counts only the spans that have no ancestor in the group, so
nested spans of one group are not counted twice.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable

# (span name, module, attribute path, count(args, result) or None)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("algorithms.distribute", "bspkit.algorithms", "distribute", None),
    ("algorithms.broadcast", "bspkit.algorithms", "broadcast", None),
    ("algorithms.total_exchange", "bspkit.algorithms", "total_exchange", None),
    ("algorithms.scan", "bspkit.algorithms", "scan", None),
    ("algorithms.sample_sort", "bspkit.algorithms", "sample_sort", None),
    ("algorithms.nbody_step", "bspkit.algorithms", "nbody_step", None),
    ("algorithms.hash_build", "bspkit.algorithms", "hash_build", None),
    ("algorithms.hash_lookup", "bspkit.algorithms", "hash_lookup", None),
    ("bsml.mkpar", "bspkit.bsml", "mkpar", None),
    ("bsml.apply", "bspkit.bsml", "apply", None),
    ("bsml.put", "bspkit.bsml", "put", None),
    ("bsml.proj", "bspkit.bsml", "proj", None),
    ("sgl.scatter", "bspkit.sgl", "scatter", None),
    ("sgl.gather", "bspkit.sgl", "gather", None),
    ("sgl.lmap", "bspkit.sgl", "lmap", None),
    ("sgl.run_nested", "bspkit.sgl", "run_nested", None),
    ("engine.map_pids", "bspkit.engine", "RunContext.map_pids", lambda args, _r: args[0].p),
    ("engine.close_superstep", "bspkit.engine", "RunContext.close_superstep", None),
    ("engine.digest", "bspkit.engine", "stable_digest", None),
    ("model.comm_build", "bspkit.model", "CommMatrix.from_sends", None),
    ("model.comm_build", "bspkit.model", "CommMatrix.__init__", None),
    ("model.h_relation", "bspkit.model", "h_relation", None),
    ("model.step_cost", "bspkit.model", "step_cost", None),
    ("model.step_cost", "bspkit.model", "superstep_cost", None),
    ("model.step_cost", "bspkit.model", "nested_step_cost", None),
    ("perfmodel.sweep", "bspkit.perfmodel", "sweep", None),
    ("perfmodel.fit", "bspkit.perfmodel", "fit", None),
    ("perfmodel.fit", "bspkit.perfmodel", "crossval", None),
    ("perfmodel.fit", "bspkit.perfmodel", "predict", None),
    ("perfmodel.surface", "bspkit.perfmodel", "surface", None),
    ("cli.main", "bspkit.cli", "main", None),
    ("cli.sweep", "bspkit.cli", "cmd_sweep", None),
    ("cli.fit", "bspkit.cli", "cmd_fit", None),
    # the benchmark's stand-in for the output step of `bspkit run --out --trace`
    ("cli.report", "workloads", "serialise_report", None),
)

#: engine.run is wrapped separately: it also wraps the program it is given.
RUN_TARGET = ("engine.run", "bspkit.engine", "run")

LAYERS = ("algorithms", "bsml", "sgl", "engine", "model", "perfmodel", "cli")

#: The primitives that end a superstep, and the run's final barrier.
CLOSE_PARENTS = frozenset({"bsml.put", "bsml.proj", "sgl.scatter", "sgl.gather", "engine.run"})
MAP_PARENTS = frozenset({"bsml.mkpar", "bsml.apply"})

# span tuple fields
ID, PARENT, NAME, START, END, COUNT, ERROR, LABEL = range(8)


class Tracer:
    """Collects spans; install() swaps the wrappers in, uninstall() swaps them back."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self.missing: set[str] = set()  # targets the program no longer has

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [next(ids), stack[-1] if stack else None, name, 0.0, 0.0, 1, False, None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, label: str | None = None):
        """A span opened by the benchmark itself (one per operation)."""
        stack = self._stack()
        rec = [next(self._ids), stack[-1] if stack else None, name, 0.0, 0.0, 1, False, label]
        self.spans.append(rec)
        stack.append(rec[ID])
        rec[START] = time.perf_counter()
        try:
            yield rec
        except BaseException:
            rec[ERROR] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            stack.pop()

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if m is not None and (k == "bspkit" or k.startswith("bspkit.") or k == "workloads")]
        for name, module, path, count in TARGETS:
            if not self._patch(modules, module, path, lambda fn, n=name, c=count: self.wrap(n, fn, c)):
                self.missing.add(f"{module}.{path}")
        if not self._patch(modules, *RUN_TARGET[1:], self._wrap_run):
            self.missing.add(".".join(RUN_TARGET[1:]))

    def _wrap_run(self, fn: Callable) -> Callable:
        def run(program, *args, **kwargs):
            return fn(self.wrap("algorithms.program", program), *args, **kwargs)

        return self.wrap(RUN_TARGET[0], run, lambda _args, report: report.trace.sync_count)

    def _patch(self, modules, module_name: str, path: str, make: Callable[[Callable], Callable]) -> bool:
        """Wrap one target wherever it is bound; False if the program lacks it."""
        owner = sys.modules.get(module_name)
        if "." in path:  # a method: patch it on its class
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return True
        original = getattr(owner, path, None)
        if original is None:
            return False
        wrapped = make(original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        return True

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# --- aggregation -----------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanIndex:
    """Parent links, self times and group totals over a list of spans."""

    def __init__(self, spans: Iterable[list]):
        self.spans = list(spans)
        self.by_id = {s[ID]: s for s in self.spans}
        self.child_time: dict[int, float] = {}
        for s in self.spans:
            if s[PARENT] is not None:
                self.child_time[s[PARENT]] = self.child_time.get(s[PARENT], 0.0) + (s[END] - s[START])

    def parent_name(self, s) -> str | None:
        parent = self.by_id.get(s[PARENT])
        return parent[NAME] if parent is not None else None

    def self_time(self, s) -> float:
        return (s[END] - s[START]) - self.child_time.get(s[ID], 0.0)

    def _has_ancestor_in(self, s, names: frozenset) -> bool:
        parent = self.by_id.get(s[PARENT])
        while parent is not None:
            if parent[NAME] in names:
                return True
            parent = self.by_id.get(parent[PARENT])
        return False

    def inclusive(self, *names: str) -> float:
        """Time covered by spans of these names, nested ones counted once."""
        group = frozenset(names)
        return sum(s[END] - s[START] for s in self.spans if s[NAME] in group and not self._has_ancestor_in(s, group))

    def self_sum(self, predicate: Callable[[str], bool]) -> float:
        return sum(self.self_time(s) for s in self.spans if predicate(s[NAME]))

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.spans if s[NAME] in names)

    def count_sum(self, name: str) -> int:
        return sum(s[COUNT] for s in self.spans if s[NAME] == name)

    def descendants(self, root) -> "SpanIndex":
        keep = {root[ID]}
        out = []
        for s in self.spans:  # parents are recorded before their children
            if s[PARENT] in keep:
                keep.add(s[ID])
                out.append(s)
        return SpanIndex(out)

    def self_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s[NAME]] = totals.get(s[NAME], 0.0) + self.self_time(s)
        return totals


def layer_metrics(index: SpanIndex, passes: int) -> dict[str, float]:
    """Per-pass span metrics of every layer (times in s, counts per pass)."""
    per = 1.0 / passes
    m = {
        "algorithms.between_primitives_s": index.self_sum(lambda n: layer_of(n) == "algorithms") * per,
        "engine.map_pids_s": index.inclusive("engine.map_pids") * per,
        "engine.map_pids_calls": index.calls("engine.map_pids") * per,
        "engine.elements": index.count_sum("engine.map_pids") * per,
        "engine.close_superstep_s": index.inclusive("engine.close_superstep") * per,
        "engine.digest_s": index.inclusive("engine.digest") * per,
        "engine.run_self_s": index.self_sum(lambda n: n == "engine.run") * per,
        "bsml.put_self_s": index.self_sum(lambda n: n == "bsml.put") * per,
        "bsml.proj_self_s": index.self_sum(lambda n: n == "bsml.proj") * per,
        "bsml.put_calls": index.calls("bsml.put") * per,
        "sgl.scatter_self_s": index.self_sum(lambda n: n == "sgl.scatter") * per,
        "sgl.gather_self_s": index.self_sum(lambda n: n == "sgl.gather") * per,
        "sgl.calls": index.calls("sgl.scatter", "sgl.gather", "sgl.lmap") * per,
        "model.comm_build_s": index.inclusive("model.comm_build") * per,
        "model.h_relation_s": index.inclusive("model.h_relation") * per,
        "model.step_cost_s": index.inclusive("model.step_cost") * per,
        "cli.report_s": index.inclusive("cli.report") * per,
        "perfmodel.sweep_self_s": index.self_sum(lambda n: n == "perfmodel.sweep") * per,
        "perfmodel.cells": sum(1 for s in index.spans if s[NAME] == "engine.run" and index.parent_name(s) == "perfmodel.sweep") * per,
        "perfmodel.fit_s": index.inclusive("perfmodel.fit") * per,
        "perfmodel.surface_s": index.inclusive("perfmodel.surface") * per,
        "bench.accounting_s": index.inclusive("model.comm_build", "engine.close_superstep") * per,
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(1 for s in index.spans if s[ERROR] and layer_of(s[NAME]) == layer) * per
    return m


def coverage_problems(index: SpanIndex, expected: Iterable[str], missing: Iterable[str] = ()) -> list[str]:
    """Self-check that the wrappers sit where the calls are looked up.

    Every superstep close must come from a primitive (or the run's final
    barrier), every per-pid evaluation from mkpar/apply, the number of closes
    must equal the runs' total sync count, and every span the workload is
    expected to reach must have been seen.
    """
    problems = [f"cannot wrap {target}: not found" for target in sorted(missing)]
    closes = [s for s in index.spans if s[NAME] == "engine.close_superstep"]
    stray = sorted({str(index.parent_name(s)) for s in closes if index.parent_name(s) not in CLOSE_PARENTS})
    if stray:
        problems.append(f"close_superstep reached outside a traced primitive (parents: {', '.join(stray)})")
    maps = [s for s in index.spans if s[NAME] == "engine.map_pids"]
    stray = sorted({str(index.parent_name(s)) for s in maps if index.parent_name(s) not in MAP_PARENTS})
    if stray:
        problems.append(f"map_pids reached outside mkpar/apply (parents: {', '.join(stray)})")
    syncs = index.count_sum("engine.run")
    if len(closes) != syncs:
        problems.append(f"{len(closes)} close_superstep spans but the runs report {syncs} supersteps")
    seen = {s[NAME] for s in index.spans}
    missing = sorted(set(expected) - seen)
    if missing:
        problems.append(f"expected spans never seen: {', '.join(missing)}")
    return problems


def spans_to_dicts(spans: Iterable[list]) -> list[dict]:
    return [
        {"id": s[ID], "parent": s[PARENT], "name": s[NAME], "start": s[START], "end": s[END], "count": s[COUNT], "error": s[ERROR], "label": s[LABEL]}
        for s in spans
    ]
