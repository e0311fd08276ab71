"""The four bspkit benchmark workloads.

A workload is built once from a seed (inputs, programs, machines: the set-up)
and then run as passes.  A pass runs each of the workload's operations once,
in a fixed order, through the public API (``engine.run``, ``sgl.run_nested``)
or the in-process CLI (``bspkit.cli.main``).  Checks run outside the timed
region: every operation is compared with a sequential oracle or a closed
form, and on ``collectives`` and ``threads`` also with its sibling runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from bspkit import algorithms as alg
from bspkit import cli
from bspkit.checks import closed_form_counts
from bspkit.engine import run, stable_digest
from bspkit.library import split_blocks
from bspkit.model import DEFAULT_G, DEFAULT_L, CostTrace, Leaf, MachineConfig, Node, trace_to_csv
from bspkit.perfmodel import grid_from_csv, model_from_json
from bspkit.sgl import run_nested, translate_to_bsml

NAMES = ("kernels", "exchange", "collectives", "threads")

WHY = {
    "kernels": "element functions and code between primitives do most of the work; accounting touches at most p^2 = 4096 cells a step",
    "exchange": "comm density ~1 at p=256 with trivial element work, plus a sweep/fit CLI round-trip: plan normalisation, digests, dense accounting, perfmodel",
    "collectives": "SGL broadcast/scan at p=1024 on a 32x32 tree, flat and translated: comm density ~1/p, so CommMatrix build, h and nested cost dominate",
    "threads": "the kernels on the thread backend at p=16: the only path through the engine's pool, one task per pid per primitive",
}

#: Problem sizes: (n, p) per operation.  Smoke sizes run each workload in seconds.
SIZES = {
    False: {
        "kernels": {"samplesort": (100_000, 64), "hashlookup": (50_000, 16), "nbody": (320, 16)},
        "exchange": {"total-exchange": (1, 256), "hashlookup": (4096, 256), "sweep": ((32, 64, 128, 256), (1, 2, 4))},
        "collectives": {"broadcast": 64, "scan": 65536, "tree": (32, 32)},
        "threads": {"samplesort": (100_000, 16), "hashlookup": (50_000, 16), "nbody": (256, 16)},
    },
    True: {
        "kernels": {"samplesort": (2000, 8), "hashlookup": (1000, 4), "nbody": (24, 4)},
        "exchange": {"total-exchange": (1, 16), "hashlookup": (256, 16), "sweep": ((4, 8, 12, 16), (1, 2, 4))},
        "collectives": {"broadcast": 8, "scan": 512, "tree": (4, 4)},
        "threads": {"samplesort": (2000, 4), "hashlookup": (1000, 4), "nbody": (24, 4)},
    },
}

TREE_LEVEL = (4.0, 200.0)  # (g, l) between the nodes of the collectives tree
TREE_LEAF = (1.0, 10.0)  # (g, l) inside one node, also used for the flat machine
NBODY_DT = 0.01


@dataclass
class Outcome:
    """What one operation produced: its value, trace and result digest."""

    value: Any = None
    trace: CostTrace | None = None
    digest: str | None = None  # set when the operation went through engine.run
    bytes_written: int = 0


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    # problems found in an outcome, given every outcome of the same pass
    check: Callable[[Outcome, dict], list[str]]
    # the same operation on the simulate backend (threads only)
    reference: Callable[[], Outcome] | None = None


@dataclass
class Workload:
    name: str
    backend: str
    ops: list[Op]
    expected_spans: frozenset[str]
    sizes: dict = field(default_factory=dict)


def subseed(seed: int, tag: str) -> int:
    """A 32-bit input seed per operation, derived from the workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{tag}".encode()).digest()[:4], "little")


def serialise_report(report, out_dir: Path, stem: str) -> int:
    """Write a run report as `bspkit run --out --trace` does; returns bytes written."""
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    trace_csv = trace_to_csv(report.trace)
    (out_dir / f"{stem}.json").write_text(text, encoding="utf-8")
    (out_dir / f"{stem}.csv").write_text(trace_csv, encoding="utf-8")
    return len(text.encode("utf-8")) + len(trace_csv.encode("utf-8"))


def _from_report(report, bytes_written: int = 0) -> Outcome:
    return Outcome(value=report.result, trace=report.trace, digest=report.result_digest, bytes_written=bytes_written)


def _api_op(name: str, program, machine, backend: str, check, out_dir: Path | None = None) -> Op:
    """An operation that is one engine.run call (optionally serialised like the CLI)."""

    def go(backend=backend) -> Outcome:
        report = run(program, machine, backend=backend)
        written = serialise_report(report, out_dir, name) if out_dir is not None else 0
        return _from_report(report, written)

    reference = (lambda: go("simulate")) if backend == "parallel" else None
    return Op(name, go, check, reference)


# --- oracles -------------------------------------------------------------------


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _check_sorted(n: int, seed: int):
    def check(out: Outcome, _all) -> list[str]:
        expected = alg.seq_sort(alg.gen_keys(n, seed))
        return [] if out.value.to_list() == expected else ["samplesort output differs from seq_sort"]

    return check


def _hash_inputs(n: int, seed: int) -> tuple[list, list]:
    """n (key, value) pairs and n/2 queries, 80% of them present keys."""
    rng = random.Random(seed ^ 0xA5A5)
    pairs = [(k, k * 3 + 1) for k in alg.gen_keys(n, seed)]
    present = [k for k, _v in pairs]
    queries = [rng.choice(present) if rng.random() < 0.8 else rng.getrandbits(34) for _ in range(max(n // 2, 1))]
    return pairs, queries


def _hash_program(pairs: list, queries: list):
    def program():
        table = alg.hash_build(pairs)
        return alg.hash_lookup(table, alg.distribute(queries))

    return program


def _check_lookup(pairs: list, queries: list):
    def check(out: Outcome, _all) -> list[str]:
        expected = alg.seq_lookup(pairs, queries)
        return [] if out.value.to_list() == expected else ["hashlookup answers differ from seq_lookup"]

    return check


def _body_bits(body) -> tuple:
    return tuple(float(v).hex() for v in (*body.pos, *body.vel, body.mass))


def _check_nbody(n: int, seed: int):
    def check(out: Outcome, _all) -> list[str]:
        expected = [_body_bits(b) for b in alg.seq_nbody_step(alg.gen_bodies(n, seed), NBODY_DT)]
        got = [_body_bits(b) for b in out.value.to_list()]
        return [] if got == expected else ["nbody step is not bitwise equal to seq_nbody_step"]

    return check


# --- workloads -------------------------------------------------------------------


def _kernel_ops(sizes: dict, seed: int, backend: str, out_dir: Path | None) -> list[Op]:
    n, p = sizes["samplesort"]
    s = subseed(seed, "samplesort")
    ops = [_api_op("samplesort", alg.build_program("samplesort", n, s), MachineConfig(p), backend, _check_sorted(n, s), out_dir)]
    n, p = sizes["hashlookup"]
    pairs, queries = _hash_inputs(n, subseed(seed, "hashlookup"))
    ops.append(_api_op("hashlookup", _hash_program(pairs, queries), MachineConfig(p), backend, _check_lookup(pairs, queries), out_dir))
    n, p = sizes["nbody"]
    s = subseed(seed, "nbody")
    ops.append(_api_op("nbody", alg.build_program("nbody", n, s), MachineConfig(p), backend, _check_nbody(n, s), out_dir))
    return ops


def _check_total_exchange(n: int, p: int):
    h, words = closed_form_counts("total-exchange", p, n)

    def check(out: Outcome, _all) -> list[str]:
        problems: list[str] = []
        _expect(problems, out.trace.sync_count == 1, f"total-exchange took {out.trace.sync_count} supersteps, expected 1")
        _expect(problems, [st.h for st in out.trace.steps] == [h], f"total-exchange h {[st.h for st in out.trace.steps]} != closed form {h}")
        _expect(problems, out.trace.total_words == words, f"total-exchange words {out.trace.total_words} != closed form {words}")
        for d, row in enumerate(out.value):
            want = tuple(None if s_ == d else tuple([10 * s_ + d] * n) for s_ in range(p))
            if tuple(row) != want:
                problems.append(f"total-exchange reception at pid {d} is wrong")
                break
        return problems

    return check


def _cli_round_trip(p_list, n_list, seed: int, tmp: Path):
    grid = tmp / "grid.csv"
    paths = {name: tmp / name for name in ("model.json", "residuals.csv", "surface.csv")}
    sweep_argv = ["sweep", "--algo", "total-exchange", "--p-list", ",".join(map(str, p_list)), "--n-list", ",".join(map(str, n_list)), "--seed", str(seed), "--out", str(grid)]
    fit_argv = ["fit", "--grid", str(grid), "--crossval", "4", "--residuals", str(paths["residuals.csv"]), "--surface", str(paths["surface.csv"]), "--out", str(paths["model.json"])]

    def go() -> Outcome:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            codes = (cli.main(sweep_argv), cli.main(fit_argv))
        texts = {"grid.csv": grid.read_text(encoding="utf-8")}
        texts.update({name: path.read_text(encoding="utf-8") for name, path in paths.items()})
        return Outcome(value={"codes": codes, "stderr": stderr.getvalue(), **texts})

    return go


def _normalised_cli_outputs(value: dict) -> dict:
    """The host-independent content of the sweep/fit outputs."""
    grid = grid_from_csv(value["grid.csv"])
    model = model_from_json(value["model.json"])
    return {
        "codes": list(value["codes"]),
        "grid": [(r.p, r.n, r.metric, r.value) for r in grid.rows],
        "basis": list(model.basis),
        "coefficients": [f"{round(c, 6) + 0.0:.6f}" for c in model.coefficients],  # + 0.0 folds -0.0 into 0.0
        "surface.csv": value["surface.csv"],
    }


def _check_cli(p_list, n_list):
    def check(out: Outcome, _all) -> list[str]:
        value = out.value
        if value["codes"] != (0, 0):
            return [f"sweep/fit exit codes {value['codes']}: {value['stderr'].strip()}"]
        problems: list[str] = []
        grid = grid_from_csv(value["grid.csv"])
        want = {(p, n): DEFAULT_G * closed_form_counts("total-exchange", p, n)[0] + DEFAULT_L for p in p_list for n in n_list}
        got = {(r.p, r.n): r.value for r in grid.rows if r.metric == "cost"}
        _expect(problems, got == want, "sweep costs differ from g*h + l of the closed form")
        model = model_from_json(value["model.json"])
        _expect(problems, model.residuals.rms <= 1e-6 * max(want.values()), f"fit residual rms {model.residuals.rms!r} on an exact polynomial")
        _expect(problems, "crossval k=4" in value["stderr"], "fit printed no cross-validation line")
        _expect(problems, len(value["residuals.csv"].splitlines()) == 1 + len(want), "residual table has the wrong number of rows")
        surface = value["surface.csv"]
        _expect(problems, surface.startswith("# surface") and "NA" not in surface, "surface is not a full p x n matrix")
        return problems

    return check


def _exchange_ops(sizes: dict, seed: int, tmp: Path) -> list[Op]:
    n, p = sizes["total-exchange"]
    ops = [_api_op("total-exchange", alg.build_program("total-exchange", n, seed), MachineConfig(p), "simulate", _check_total_exchange(n, p))]
    n, p = sizes["hashlookup"]
    pairs, queries = _hash_inputs(n, subseed(seed, "hashlookup"))
    ops.append(_api_op("hashlookup", _hash_program(pairs, queries), MachineConfig(p), "simulate", _check_lookup(pairs, queries)))
    p_list, n_list = sizes["sweep"]
    ops.append(Op("sweep-fit", _cli_round_trip(p_list, n_list, seed, tmp), _check_cli(p_list, n_list)))
    return ops


def _collective_ops(sizes: dict, seed: int) -> list[Op]:
    nodes, cores = sizes["tree"]
    tree = Node(children=tuple(Leaf(MachineConfig(cores, g=TREE_LEAF[0], l=TREE_LEAF[1])) for _ in range(nodes)), g=TREE_LEVEL[0], l=TREE_LEVEL[1])
    flat = MachineConfig(nodes * cores, g=TREE_LEAF[0], l=TREE_LEAF[1])
    p = flat.p

    bc_seed, bc_n = subseed(seed, "broadcast"), sizes["broadcast"]
    broadcast = alg.build_program("broadcast", bc_n, bc_seed)
    sc_seed, sc_n = subseed(seed, "scan"), sizes["scan"]
    scan = alg.build_program("scan", sc_n, sc_seed)

    def broadcast_expected() -> list:
        return [tuple(alg.gen_keys(bc_n, bc_seed))] * p

    def scan_expected() -> list:
        prefix, acc = [], 0
        for blk in split_blocks(alg.gen_keys(sc_n, sc_seed), p):
            acc += sum(blk)
            prefix.append(acc)
        return prefix

    def nested(program) -> Callable[[], Outcome]:
        def go() -> Outcome:
            result, trace = run_nested(tree, program)
            return Outcome(value=result, trace=trace)

        return go

    def flat_run(program) -> Callable[[], Outcome]:
        return lambda: _from_report(run(program, flat))

    def check_against(expected: Callable[[], list], tree_op: str):
        def check(out: Outcome, outcomes: dict) -> list[str]:
            problems: list[str] = []
            _expect(problems, list(out.value) == expected(), "value differs from the sequential result")
            tree_out = outcomes.get(tree_op)
            if tree_out is not None and tree_out.trace is not None:
                _expect(problems, out.trace.sync_count == tree_out.trace.sync_count, f"{out.trace.sync_count} supersteps, the tree run took {tree_out.trace.sync_count}")
            return problems

        return check

    bc_check = check_against(broadcast_expected, "broadcast-tree")
    sc_check = check_against(scan_expected, "scan-tree")
    return [
        Op("broadcast-tree", nested(broadcast), bc_check),
        Op("scan-tree", nested(scan), sc_check),
        Op("broadcast-flat", flat_run(broadcast), bc_check),
        Op("scan-flat", flat_run(scan), sc_check),
        Op("broadcast-translated", flat_run(translate_to_bsml(broadcast)), bc_check),
    ]


_COMMON_SPANS = {"engine.run", "algorithms.program", "engine.map_pids", "engine.close_superstep", "engine.digest", "model.comm_build", "model.h_relation", "model.step_cost", "bsml.mkpar", "bsml.apply", "algorithms.distribute"}
_KERNEL_SPANS = _COMMON_SPANS | {"algorithms.sample_sort", "algorithms.hash_build", "algorithms.hash_lookup", "algorithms.nbody_step", "bsml.put", "bsml.proj", "sgl.scatter", "sgl.lmap"}
EXPECTED_SPANS = {
    "kernels": frozenset(_KERNEL_SPANS | {"cli.report"}),
    "exchange": frozenset(_COMMON_SPANS | {"algorithms.total_exchange", "algorithms.hash_build", "algorithms.hash_lookup", "bsml.put", "sgl.scatter", "perfmodel.sweep", "perfmodel.fit", "perfmodel.surface", "cli.main", "cli.sweep", "cli.fit"}),
    "collectives": frozenset(_COMMON_SPANS | {"sgl.run_nested", "sgl.scatter", "sgl.gather", "sgl.lmap", "algorithms.broadcast", "algorithms.scan", "bsml.put"}),
    "threads": frozenset(_KERNEL_SPANS),
}


def build(name: str, seed: int, smoke: bool, tmp: Path) -> Workload:
    """Generate the workload's inputs and programs from the seed."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    sizes = SIZES[smoke][name]
    if name == "kernels":
        ops, backend = _kernel_ops(sizes, seed, "simulate", tmp), "simulate"
    elif name == "threads":
        ops, backend = _kernel_ops(sizes, seed, "parallel", None), "parallel"
    elif name == "exchange":
        ops, backend = _exchange_ops(sizes, seed, tmp), "simulate"
    else:
        ops, backend = _collective_ops(sizes, seed), "simulate"
    return Workload(name, backend, ops, EXPECTED_SPANS[name], sizes)


# --- per-pass signatures and exact counts ------------------------------------------


def digest_of(out: Outcome) -> str:
    if out.trace is None:  # the CLI round-trip: digest its host-independent outputs
        return stable_digest(_normalised_cli_outputs(out.value))
    return out.digest if out.digest is not None else stable_digest(out.value)


def signature(out: Outcome) -> tuple:
    """Cheap identity of an outcome, compared between passes."""
    if out.trace is None:
        return (digest_of(out),)
    return (digest_of(out), out.trace.sync_count, out.trace.total_words, out.trace.total_cost)


def exact_counts(out: Outcome) -> dict:
    """The fingerprint of one operation: result digest and exact traffic counts."""
    counts = {"digest": digest_of(out), "supersteps": 0, "words": 0, "h_sum": 0, "comm_cells": 0, "comm_nnz": 0, "declared_work": 0}
    if out.trace is None:
        return counts
    counts["supersteps"] = out.trace.sync_count
    counts["words"] = out.trace.total_words
    for st in out.trace.steps:
        counts["h_sum"] += st.h
        counts["declared_work"] += st.max_work or 0
        if st.comm is not None:
            counts["comm_cells"] += st.comm.p * st.comm.p
            counts["comm_nnz"] += sum(sum(map(bool, row)) for row in st.comm.words)
    return counts


def same_steps(a: Outcome, b: Outcome) -> list[str]:
    """Problems when two runs of one program differ in value or per-step counts."""
    problems = []
    if digest_of(a) != digest_of(b):
        problems.append("result digest differs from the simulate run")
    steps = lambda o: [(s.index, s.h, s.max_work, s.words, s.cost, s.work, s.comm) for s in o.trace.steps]
    if steps(a) != steps(b):
        problems.append("per-step counts differ from the simulate run")
    return problems
