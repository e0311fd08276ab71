"""Same-data oracle: result digests and per-step counts match the committed golden file.

``tests/data/golden_traces.json`` holds the result digest, the peak words
per pid and a sha256 of the per-step ``(index, h, words, max_work, cost,
work, comm.words)`` tuples of: every registered algorithm at n=40 on flat
machines; the broadcast, reduce and scan programs through
``translate_to_bsml`` on the same machines; one put program mixing the three
plan formats on those machines and on the 2x2 tree; and every put-free
basic-library program on the 2x2 tree.  A change that keeps the program's
behaviour keeps every entry, on the simulator and on the thread backend.
The file is written from an archive of the commit before the change under
test (only when a behaviour change is intended is it written from the change
itself)::

    mkdir -p "$PARENT" && git archive HEAD src | tar -x -C "$PARENT"
    PYTHONPATH="$PARENT/src" python tests/test_golden_traces.py > tests/data/golden_traces.json
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from bspkit import MachineConfig, mkpar, nprocs, put, run
from bspkit.algorithms import ALGORITHMS, build_program
from bspkit.checks import two_by_two_tree
from bspkit.library import BASIC_API
from bspkit.sgl import translate_to_bsml

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_traces.json"
N = 40
SEED = 1
FLAT_P = (1, 3, 4, 7, 16)
TRANSLATED = ("broadcast", "reduce", "scan")


def steps_sha256(trace) -> str:
    rows = [(s.index, s.h, s.words, s.max_work, s.cost, s.work, s.comm.words) for s in trace.steps]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def plan_formats_program():
    """One put in which pids send by a length-p sequence, a callable, or a dict.

    The dict plans hold a self-send, a None message and an empty message.
    """
    p = nprocs()

    def plan(s):
        if s % 3 == 0:
            return [None if (s + d) % 2 else tuple(range(d + 1)) for d in range(p)]
        if s % 3 == 1:
            return lambda d: (s, d) if d != s + 1 else None
        return {s: (s,) * 3, (s + 1) % p: None, 0: (), p - 1: tuple(range(s))}

    return put(mkpar(plan, work=lambda s: s + 1))


def record(report) -> dict:
    return {"digest": report.result_digest, "peak_words": report.peak_words, "steps": steps_sha256(report.trace)}


def golden_records(backend: str = "simulate") -> dict[str, dict]:
    def run_on(program, machine):
        return record(run(program, machine, backend=backend))

    records = {}
    for name in sorted(ALGORITHMS):
        for p in FLAT_P:
            records[f"algorithm/{name}/p={p}"] = run_on(build_program(name, N, SEED), MachineConfig(p))
    for name in TRANSLATED:
        for p in FLAT_P:
            records[f"translated/{name}/p={p}"] = run_on(translate_to_bsml(build_program(name, N, SEED)), MachineConfig(p))
    for p in FLAT_P:
        records[f"put/plan-formats/p={p}"] = run_on(plan_formats_program, MachineConfig(p))
    records["put/plan-formats/two_by_two_tree"] = run_on(plan_formats_program, two_by_two_tree())
    for op in BASIC_API:
        if op.run is None:
            continue
        args = op.gen(random.Random(SEED), N)
        records[f"basic/{op.name}/two_by_two_tree"] = run_on(lambda op=op, args=args: op.run(*args), two_by_two_tree())
    return records


def test_traces_match_the_golden_file():
    # counts do not depend on the backend, so the thread backend must match the simulator's records
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for backend in ("simulate", "parallel"):
        current = golden_records(backend)
        assert sorted(current) == sorted(golden)
        differing = sorted(key for key in golden if current[key] != golden[key])
        assert not differing, f"digest or per-step counts changed on {backend}: {differing}"


if __name__ == "__main__":
    print(json.dumps(golden_records(), indent=1, sort_keys=True))
