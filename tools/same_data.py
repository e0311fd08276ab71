"""Same-data comparer: run one fixed matrix of programs on two checkouts and print every record that differs.

    python tools/same_data.py --parent PARENT/src --change src

Each DIR is a checkout's ``src``; each side runs in its own subprocess with
only that directory on PYTHONPATH.  The matrix is every ``ALGORITHMS`` entry
at n in {0, 5, 40}; the broadcast, reduce and scan programs through
``translate_to_bsml``; every ``BASIC_API`` operation that has a put-free
implementation, on inputs of size n in {0, 5, 40}, and random SGL programs
built by ``checks.sgl_pipeline`` (their roots drawn in 0..15 and taken
modulo the machine's p), both through ``run``, ``run_nested`` and
``translate_to_bsml``; put programs in each plan format, and puts of scalar
and empty messages in descending destination order, to ``IntEnum``
destinations, of messages of 2**62 words, with a bad destination in a dict
plan, or with a message whose ``__len__`` raises; programs whose
element functions call a primitive or raise; broadcasts of a list and of
a tuple that holds a list, replicated values that the digest walks in
every slot, through ``run``, ``run_nested`` and ``translate_to_bsml``; a
sample sort of equal keys of four numeric types and both zeros, and one of
floats with NaN; an n-body step whose bodies coincide and hold both
zeros; and hash lookups whose keys mix ``str``, ``bytes``, negative, big
and ``bool`` ints and tuples, whose int keys lie on both sides of 2**64,
or whose input holds a malformed pair or a key whose ``repr`` raises.
Every program runs on flat p in {1, 2, 3, 4, 7, 16}, on the 2x2 tree, on
a 3-level tree and on an 8-level comb tree of 15 pids, on both backends.  It also runs ``bspkit translate --program PROG --p P`` for
each of the three programs at P in {1, 4, 7}, and the measurement layer:
``bspkit sweep`` on a full p x n grid, on a single-p grid with
``--metrics memory,cost --reps 3`` and on the parallel backend with
``--metrics memory,cost``, ``bspkit fit`` on the full grid with
``--crossval``, ``--residuals`` and ``--surface``, a rank-deficient ``fit``,
``bspkit surface`` on the single-p grid (a curve), ``bspkit run`` of
samplesort and of hashlookup at p=4, n=50 writing the report JSON and the
trace CSV, and ``bspkit check`` with every suite.  Each command runs in
process through ``bspkit.cli.main``; its record is its exit status, the
sha256 of its stdout and its stderr, and for each file it wrote, with every
``timestamp`` value masked: for a JSON object, each top-level key's number
or the sha256 of any other value; for any other file, the sha256 of the file.

Last, it builds communication matrices with the public constructors:
``CommMatrix(rows)`` with diagonal and zero-word cells,
``CommMatrix.from_sends`` with repeated, diagonal, zero-word and
out-of-order cells and with repeats whose words sum past 2**63, and
``transpose``.  Each matrix's record is the sha256 of its ``words``, every
pid's sent and received words, its h-relation and its ``step_cost`` on flat
p=4, the 2x2 tree and the comb tree.  Two more records hold what
``from_sends`` makes of repeats whose sum is 2**63 and of a zero word count
given as a float: the error's type and message, or the matrix's words.

A record is, for a run that succeeds, its result digest, peak words per pid
and two sha256s of per-step tuples: ``counts`` of ``(index, h, words,
comm.words)`` and ``costs`` of ``(work, max_work, cost)``; for a run that
fails, the error's type, pid, superstep and cause type.

Each differing record is printed with the fields it differs in (a number
with its parent and change values), then one line per field class: digest,
peak_words, counts, costs, error (any of the failure fields), and for a
command the name of the differing output, file or JSON key.  Each line
counts the records that differ in the class and how many of them hold a
lower or a higher number.  Exit status: 0 when every record matches, 1
otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

SEED = 1
SIZES = (0, 5, 40)
TRANSLATED = ("broadcast", "reduce", "scan")
SGL_PROGRAMS = 20
FLAT_P = (1, 2, 3, 4, 7, 16)
TRANSLATE_PROGRAMS = ("scatter", "gather", "pipeline")
TRANSLATE_P = (1, 4, 7)
#: (name, argv) of each CLI command whose outputs are hashed, run in order in one directory; {dir} is that directory.
MEASUREMENT_COMMANDS = (
    ("sweep/grid", "sweep --algo total-exchange --p-list 1,2,4 --n-list 1,2,4 --out {dir}/grid.csv"),
    ("sweep/single-p", "sweep --algo broadcast --p-list 4 --n-list 1,10,100 --metrics memory,cost --reps 3 --out {dir}/single.csv"),
    ("sweep/parallel-exact", "sweep --algo broadcast --p-list 1,4 --n-list 1,10 --backend parallel --metrics memory,cost --out {dir}/parallel.csv"),
    ("fit/crossval", "fit --grid {dir}/grid.csv --crossval 4 --out {dir}/model.json --residuals {dir}/residuals.csv --surface {dir}/surface.csv"),
    ("fit/rank-deficient", "fit --grid {dir}/grid.csv --basis n,2*n --out {dir}/deficient.json"),
    ("surface/curve", "surface --grid {dir}/single.csv --out {dir}/curve.csv"),
    ("run/samplesort", "run --algo samplesort --p 4 --n 50 --out {dir}/samplesort.json --trace {dir}/samplesort.csv"),
    ("run/hashlookup", "run --algo hashlookup --p 4 --n 50 --out {dir}/hashlookup.json --trace {dir}/hashlookup.csv"),
    ("check/all", "check"),
)
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
BACKENDS = ("simulate", "parallel")


def matrix():
    """(name, runner) pairs; runner(machine, backend) returns a successful run's record.

    Each runner builds its program with make(p), p being the machine's width.
    """
    from bspkit import (
        mkpar,
        nprocs,
        proj,
        put,
        run,
        run_nested,
        scatter,
        translate_to_bsml,
    )
    from bspkit.algorithms import ALGORITHMS, Body, broadcast, build_program, distribute, hash_build, hash_lookup, nbody_step, sample_sort
    from bspkit.checks import sgl_pipeline
    from bspkit.engine import stable_digest
    from bspkit.library import BASIC_API
    from bspkit.model import total_p

    def steps_fields(trace) -> dict:
        """The trace's counts and costs, each as the sha256 of its per-step tuples."""
        counts = [(s.index, s.h, s.words, s.comm.words) for s in trace.steps]
        costs = [(s.work, s.max_work, s.cost) for s in trace.steps]
        return {name: hashlib.sha256(repr(rows).encode("utf-8")).hexdigest() for name, rows in (("counts", counts), ("costs", costs))}

    def via_run(make):
        def runner(machine, backend):
            report = run(make(total_p(machine)), machine, backend=backend)
            return {"digest": report.result_digest, "peak_words": report.peak_words, **steps_fields(report.trace)}

        return runner

    def via_run_nested(make):
        def runner(machine, backend):
            result, trace = run_nested(machine, make(total_p(machine)), backend=backend)
            return {"digest": stable_digest(result), **steps_fields(trace)}

        return runner

    def sgl_program(rng: random.Random):
        """make(p) for a random SGL pipeline: its input and its rounds of (scatter root, lmap work, gather root)."""
        xs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 40))]
        rounds = [(rng.randrange(16), rng.randint(0, 3), rng.randrange(16)) for _ in range(rng.randint(1, 3))]

        def make(p):
            steps = []
            for src, work, dst in rounds:
                steps += [("scatter", src % p), ("lmap", lambda v: 2 * v + 1, work), ("gather", dst % p)]
            return sgl_pipeline(xs, steps, p)[0]

        return make

    def put_program(form: str):
        def program():
            p = nprocs()

            def plan(s):
                row = [None if (s + d) % 3 == 1 else tuple(range((s * d) % 4)) for d in range(p)]
                kind = form if form != "mixed" else ("sequence", "callable", "dict")[s % 3]
                if kind == "sequence":
                    return row
                if kind == "callable":
                    return lambda d: row[d]
                return {d: row[d] for d in reversed(range(p)) if row[d] is not None or d == s}

            return put(mkpar(plan, work=lambda s: s + 1))

        return program

    def put_rows(row):
        """A program whose one put sends row(s, p) from each pid s."""

        def program():
            p = nprocs()
            return put(mkpar(lambda s: row(s, p), work=lambda s: s + 1))

        return program

    class Unsized:
        def __len__(self):
            raise ValueError("no size")

    Dest = IntEnum("Dest", [(f"D{d}", d) for d in range(max(FLAT_P))])
    puts = {
        "descending-scalars": lambda s, p: {d: (s * d, (), "x" * d)[(s + d) % 3] for d in reversed(range(p))},
        "intenum": lambda s, p: {Dest((s + k) % p): (s,) * k for k in (1, 2)},
        "huge": lambda s, p: {d: range(2**62) for d in range(p) if d != s},
        "bad-destination": lambda s, p: {0: (s,), p: (s,)} if s == p // 2 else {0: (s,)},
        "unsized-message": lambda s, p: {0: Unsized()} if s == p - 1 else {0: (s,)},
    }

    def fail(i):
        raise ValueError(f"pid {i}")

    nested = {
        "nprocs": lambda i: nprocs(),
        "mkpar": lambda i: mkpar(lambda j: j),
        "put": lambda i: put(mkpar(lambda j: {j: (j,)})),
        "scatter": lambda i: scatter(0, [(i,)] * nprocs()),
        "proj": lambda i: proj(mkpar(lambda j: j)),
        "raise": fail,
    }

    def nested_program(action):
        def program():
            put(mkpar(lambda s: {}, work=0))
            return proj(mkpar(lambda i: (action(i), i) if i % 2 else i))

        return program

    class BadRepr:
        def __repr__(self):
            raise RuntimeError("no repr")

    mixed = ["k", "", "ключ", b"k", b"", -1, -(2**70), 2**64, 2**64 + 5, True, False, 7, (1, "a"), (), ((b"x",), -2)]
    lookups = {
        "mixed": ([(k, i) for i, k in enumerate(mixed[::2])], mixed + ["absent", b"absent", -7, (2,)]),
        "bad-pair-first": ([(1, 2), (3, 4, 5), (BadRepr(), 0)], [1]),
        "bad-repr-first": ([(1, 2), (BadRepr(), 0), (3, 4, 5)], [1]),
        "bad-query": ([(1, 2)], [1, "k", BadRepr(), 2]),
        "wide-ints": ([(2**64 - 1, "a"), (2**64, "b"), (-1, "c")], [-1, 2**64, 2**64 - 1, 0, 2**64 + 1, 2**65 - 1]),
    }
    # equal keys of four types and both zeros, whose order among ties the output's repr shows
    equal_keys = [1, 0.0, True, Fraction(1), -0.0, 1.0, 0, 2, False, -0.0, Fraction(1), 1.0, 0.0, True, 1, -1, 0.5, Fraction(1, 2)]
    # NaN, which breaks the order the splitters' cut points rely on
    nan_keys = [3.0, float("nan"), 1.0, 2.0, float("nan"), 0.0, 5.0, 4.0]
    # bodies sharing positions, and coordinates of both zeros
    coincident = [Body(pos=(x, y), vel=(0.25 * k, -0.5), mass=1.0 + k) for k, (x, y) in enumerate([(0.0, 0.0), (-0.0, 0.0), (0.5, -0.0), (0.0, 0.0), (0.5, -0.0), (-1.0, 2.0), (0.0, -0.0)])]

    def lookup_program(pairs, keys):
        def program():
            return hash_lookup(hash_build(pairs), distribute(keys))

        return program

    def sgl_entries(name, make):
        """The SGL program make(p) through run, run_nested and translate_to_bsml."""
        return [
            (f"{name}/run", via_run(make)),
            (f"{name}/run_nested", via_run_nested(make)),
            (f"{name}/translated", via_run(lambda p: translate_to_bsml(make(p)))),
        ]

    entries = []
    for name in sorted(ALGORITHMS):
        for n in SIZES:
            entries.append((f"algorithm/{name}/n={n}", via_run(lambda p, name=name, n=n: build_program(name, n, SEED))))
    for name in TRANSLATED:
        for n in SIZES:
            entries.append((f"translated/{name}/n={n}", via_run(lambda p, name=name, n=n: translate_to_bsml(build_program(name, n, SEED)))))
    for op in BASIC_API:
        if op.run is None:
            continue
        for n in SIZES:
            args = op.gen(random.Random(SEED), n)
            entries += sgl_entries(f"basic/{op.name}/n={n}", lambda p, op=op, args=args: lambda: op.run(*args))
    rng = random.Random(SEED)
    for k in range(SGL_PROGRAMS):
        entries += sgl_entries(f"sgl/{k}", sgl_program(rng))
    for form in ("sequence", "callable", "dict", "mixed"):
        entries.append((f"put/{form}", via_run(lambda p, form=form: put_program(form))))
    for name, row in puts.items():
        entries.append((f"put/{name}", via_run(lambda p, row=row: put_rows(row))))
    entries += sgl_entries("broadcast/list", lambda p: lambda: broadcast(0, [3, "a", None, 2.5]))
    entries += sgl_entries("broadcast/tuple-of-list", lambda p: lambda: broadcast(0, (1, [2, 3], "b")))
    entries.append(("samplesort/mixed-equal", via_run(lambda p: lambda: sample_sort(distribute(equal_keys)))))
    entries.append(("samplesort/nan", via_run(lambda p: lambda: sample_sort(distribute(nan_keys)))))
    entries.append(("nbody/coincident", via_run(lambda p: lambda: nbody_step(distribute(coincident), dt=0.01))))
    for name, (pairs, keys) in lookups.items():
        entries.append((f"hashlookup/{name}", via_run(lambda p, pairs=pairs, keys=keys: lookup_program(pairs, keys))))
    for name, action in nested.items():
        entries.append((f"nested/{name}", via_run(lambda p, action=action: nested_program(action))))
    return entries


def machines():
    from bspkit import Leaf, MachineConfig, Node
    from bspkit.checks import two_by_two_tree

    three_level = Node(
        children=(Node(children=(Leaf(MachineConfig(p=2)), Leaf(MachineConfig(p=1))), g=1.5, l=5.0), Leaf(MachineConfig(p=3))),
        g=2.0,
        l=20.0,
    )
    comb = Leaf(MachineConfig(p=2))  # 8 levels, each a leaf beside the next level, deep child first at odd levels
    for level, p in enumerate((1, 3, 1, 2, 1, 3, 2), start=1):
        tooth = Leaf(MachineConfig(p=p, g=1.0, l=10.0))
        comb = Node(children=(comb, tooth) if level % 2 else (tooth, comb), g=0.5 * level, l=5.0 * level)
    named = [(f"p={p}", MachineConfig(p=p, g=1.0, l=10.0)) for p in FLAT_P]
    return named + [("two_by_two_tree", two_by_two_tree()), ("three_level_tree", three_level), ("comb_tree", comb)]


def record(runner, machine, backend: str) -> dict:
    """The run's record, or, for a rejected program, where and why it failed."""
    from bspkit.errors import ProgramError

    try:
        return runner(machine, backend)
    except Exception as exc:  # a rejected program is a record too
        cause = exc.cause if isinstance(exc, ProgramError) else None
        return {
            "error": type(exc).__name__,
            "pid": getattr(exc, "pid", None),
            "superstep": getattr(exc, "superstep", None),
            "cause": type(cause).__name__ if cause is not None else None,
        }


def emit() -> None:
    """Print one JSON line per run of the matrix, preceded by the bspkit path."""
    import bspkit

    print(json.dumps({"bspkit": bspkit.__file__}))
    for name, runner in matrix():
        for machine_name, machine in machines():
            for backend in BACKENDS:
                key = f"{name} @ {machine_name} / {backend}"
                print(json.dumps({"key": key, "record": record(runner, machine, backend)}, sort_keys=True))
    for key, dump in [*translate_dumps(), *measurement_records(), *comm_records()]:
        print(json.dumps({"key": key, "record": dump}, sort_keys=True))


def translate_dumps():
    """(key, record) of each ``bspkit translate`` dump: exit status and sha256 of what it printed."""
    from bspkit.cli import main

    for program in TRANSLATE_PROGRAMS:
        for p in TRANSLATE_P:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["translate", "--program", program, "--p", str(p)])
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            yield f"cli/translate/{program} @ p={p}", {"exit": code, "sha256": digest}


def measurement_records():
    """(key, record) of each measurement command: exit status and sha256 of stdout, stderr and each file written."""
    from bspkit.cli import main

    def sha256(text: str) -> str:
        return hashlib.sha256(TIMESTAMP.sub('"timestamp": "*"', text).encode("utf-8")).hexdigest()

    def file_record(text: str):
        """A JSON object file as one entry per top-level key (a number as itself, anything else hashed); other files hashed whole."""
        try:
            obj = json.loads(text)
        except ValueError:
            obj = None
        if not isinstance(obj, dict):
            return sha256(text)
        return {k: v if _number(v) is not None else sha256(json.dumps(v, sort_keys=True)) for k, v in obj.items()}

    with tempfile.TemporaryDirectory() as tmp:
        written: set[Path] = set()
        for name, argv in MEASUREMENT_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([arg.format(dir=tmp) for arg in argv.split()])
            files = {path.name: file_record(path.read_text(encoding="utf-8")) for path in sorted(Path(tmp).iterdir()) if path not in written}
            written.update(Path(tmp).iterdir())
            yield f"cli/{name}", {"exit": code, "stdout": sha256(out.getvalue()), "stderr": sha256(err.getvalue()), "files": files}


def comm_records():
    """(key, record) of each matrix built by a public ``CommMatrix`` constructor, and of two inputs they may reject."""
    from bspkit.model import CommMatrix, h_relation, step_cost

    def rows(p):  # diagonal and zero-word cells
        return CommMatrix([[(3 * s + 5 * d) % 4 for d in range(p)] for s in range(p)])

    def huge(p):  # repeats that sum to 2**63 - 1 in a cell, and totals past 2**63 per pid
        return CommMatrix.from_sends(p, [(s, (s + k) % p, w) for s in range(p) for k, w in ((1, 2**62), (2, 2**61), (1, 2**62 - 1))])

    built = {
        "rows": rows,
        "sends/repeated": lambda p: CommMatrix.from_sends(p, [(s, (s + k) % p, k + 1) for s in reversed(range(p)) for k in (1, 3, 1)]),
        "sends/diagonal": lambda p: CommMatrix.from_sends(p, [(s, d, s + d) for s in range(p) for d in (s, p - 1 - s)]),
        "sends/zero-words": lambda p: CommMatrix.from_sends(p, [(0.5, 0, 0), *((s, (2 * s) % p, s % 2) for s in reversed(range(p))), (p - 1, 0, False)]),
        "sends/huge": huge,
        "transpose/rows": lambda p: rows(p).transpose(),
        "transpose/huge": lambda p: huge(p).transpose(),
    }
    for machine_name, machine in machines():
        if machine_name not in ("p=4", "two_by_two_tree", "comb_tree"):
            continue
        p = machine.p
        for name, make in built.items():
            m = make(p)
            words = hashlib.sha256(repr(m.words).encode("utf-8")).hexdigest()
            cost = step_cost([pid % 3 for pid in range(p)], m, machine)
            yield f"comm/{name} @ {machine_name}", {"words": words, "sent": list(map(m.sent, range(p))), "received": list(map(m.received, range(p))), "h": h_relation(m), "cost": cost}
    for name, p, sends in (("repeats-reaching-2**63", 2, [(0, 1, 2**62), (0, 1, 2**62)]), ("zero-words-as-float", 3, [(0, 1, 0.0)])):
        try:
            result = {"words": CommMatrix.from_sends(p, sends).words}
        except Exception as exc:  # a rejected input is a record too
            result = {"error": type(exc).__name__, "message": str(exc)}
        yield f"comm/sends/{name}", result


def collect(src: str) -> dict[str, dict]:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    out = subprocess.run([sys.executable, __file__, "--emit"], env=env, capture_output=True, text=True, check=True).stdout
    first, *lines = out.splitlines()
    where = Path(json.loads(first)["bspkit"]).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"{src}: imported bspkit from {where}")
    return {row["key"]: row["record"] for row in map(json.loads, lines)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the parent checkout's src directory")
    parser.add_argument("--change", help="the changed checkout's src directory")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit()
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    parent, change = collect(args.parent), collect(args.change)
    differing = 0
    tally = {name: [0, 0, 0] for name in CORE_CLASSES}  # class -> [records, lower, higher]
    for key in sorted(parent.keys() | change.keys()):
        diffs = field_diffs(parent.get(key), change.get(key))
        if not diffs:
            continue
        differing += 1
        print(f"{key}: " + ", ".join(path if old is None or new is None else f"{path} {old} -> {new}" for path, old, new in diffs))
        per_class: dict[str, list[int]] = {}  # class -> [fields lower, fields higher] in this record
        for path, old, new in diffs:
            lower_higher = per_class.setdefault(field_class(path), [0, 0])
            if old is not None and new is not None:
                lower_higher[new > old] += 1
        for name, (lower, higher) in per_class.items():
            counts = tally.setdefault(name, [0, 0, 0])
            counts[0] += 1
            counts[1] += lower > 0
            counts[2] += higher > 0
    print(f"{len(parent.keys() | change.keys())} runs, {differing} differ")
    for name, (records, lower, higher) in tally.items():
        moved = f" ({lower} with a lower number, {higher} with a higher one)" if lower or higher else ""
        print(f"  {name}: {records} records differ{moved}")
    return 1 if differing else 0


#: The field classes of a run's record, tallied even when no record differs in them.
CORE_CLASSES = ("digest", "peak_words", "counts", "costs", "error")
ERROR_FIELDS = ("error", "pid", "superstep", "cause")


def flatten(record, prefix: str = "") -> dict:
    """Path -> leaf value of a record; a missing record has no paths."""
    out = {}
    for k, v in (record or {}).items():
        path = f"{prefix}{k}"
        out.update(flatten(v, path + "/") if isinstance(v, dict) else {path: v})
    return out


def field_diffs(parent, change) -> list[tuple[str, object, object]]:
    """(path, parent value, change value) of every field whose value differs, numbers shown as they are and hashes as None."""
    a, b = flatten(parent), flatten(change)
    return [(path, _number(a.get(path)), _number(b.get(path))) for path in sorted(a.keys() | b.keys()) if a.get(path) != b.get(path)]


def _number(value):
    return value if isinstance(value, (int, float)) and not isinstance(value, bool) else None


def field_class(path: str) -> str:
    """A field's class: "error" for where and why a run failed, the JSON key for a field of a written file, else the field's name."""
    name = path.rsplit("/", 1)[-1]
    return "error" if name in ERROR_FIELDS else name


if __name__ == "__main__":
    sys.exit(main())
