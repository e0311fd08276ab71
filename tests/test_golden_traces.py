"""Same-data oracle: result digests and per-step counts match the committed golden file.

``tests/data/golden_traces.json`` holds, for every registered algorithm at
n=40 on flat machines and for every put-free basic-library program on the
2x2 tree, the result digest and a sha256 of the per-step
``(index, h, words, max_work, cost, work, comm.words)`` tuples.  A change
that keeps the program's behaviour keeps every entry.  To regenerate the
file from a checkout (only when a behaviour change is intended)::

    PYTHONPATH=src python tests/test_golden_traces.py > tests/data/golden_traces.json
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from bspkit import MachineConfig, run
from bspkit.algorithms import ALGORITHMS, build_program
from bspkit.checks import two_by_two_tree
from bspkit.engine import stable_digest
from bspkit.library import BASIC_API
from bspkit.sgl import run_nested

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_traces.json"
N = 40
SEED = 1
FLAT_P = (1, 3, 4, 7, 16)


def steps_sha256(trace) -> str:
    rows = [(s.index, s.h, s.words, s.max_work, s.cost, s.work, s.comm.words) for s in trace.steps]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def golden_records() -> dict[str, dict[str, str]]:
    records = {}
    for name in sorted(ALGORITHMS):
        for p in FLAT_P:
            report = run(build_program(name, N, SEED), MachineConfig(p))
            records[f"algorithm/{name}/p={p}"] = {"digest": report.result_digest, "steps": steps_sha256(report.trace)}
    for op in BASIC_API:
        if op.run is None:
            continue
        args = op.gen(random.Random(SEED), N)
        result, trace = run_nested(two_by_two_tree(), lambda op=op, args=args: op.run(*args))
        records[f"basic/{op.name}/two_by_two_tree"] = {"digest": stable_digest(result), "steps": steps_sha256(trace)}
    return records


def test_traces_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = golden_records()
    assert sorted(current) == sorted(golden)
    differing = sorted(key for key in golden if current[key] != golden[key])
    assert not differing, f"digest or per-step counts changed: {differing}"


if __name__ == "__main__":
    print(json.dumps(golden_records(), indent=1, sort_keys=True))
