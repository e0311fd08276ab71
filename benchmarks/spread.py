#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --seeds 1-10 --out set-a.json
    python3 benchmarks/spread.py --compare set-a.json set-b.json

The first form runs ``benchmarks/run.py`` once per workload and seed (one
after the other, never concurrently) for ``run_seconds`` of BENCHMARK.json
and prints, per end-to-end metric, the median of the runs and the spread: the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound in BENCHMARK.json.  The second form checks that two such sets
agree: every median of the second set within its bound of the first, in
either direction, and identical exact-count fingerprints for every workload
and seed both sets ran.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


WORKLOADS = ("kernels", "exchange", "collectives", "threads")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bounds() -> dict[str, float]:
    return {m["name"]: m["bound"] for m in spec()["end_to_end"]}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, inter-quartile distance as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def run_set(args) -> int:
    seconds = spec()["run_seconds"]
    result: dict = {"seconds": seconds, "trace": args.trace, "runs": {}}
    for workload in WORKLOADS:
        runs = result["runs"].setdefault(workload, {})
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"error: {workload} seed {seed} exited with code {proc.returncode}", file=sys.stderr)
                return 1
            final = json.loads(lines[-1])
            fingerprint = next((ln.split()[1] for ln in lines if ln.startswith("fingerprint: ")), None)
            runs[str(seed)] = {"wall_s": wall, "fingerprint": fingerprint, **final}
            values = ", ".join(f"{k}={v['value']:.4f}" for k, v in final["metrics"].items())
            print(f"{workload} seed {seed}: correct={final['correct']} failed={final['failed']}/{final['attempted']} wall={wall:.1f}s {values}", flush=True)
    summarise(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def summarise(result: dict) -> dict:
    limits = bounds() if result["trace"] == 0 else {}
    summary: dict = {}
    for workload, runs in result["runs"].items():
        names = next(iter(runs.values()))["metrics"].keys()
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs.values()]
            median, share = spread(values)
            bound = limits.get(name)
            summary.setdefault(workload, {})[name] = {"median": median, "spread": share, "runs": len(values)}
            if bound is not None:
                print(f"{workload:<12} {name:<14} median {median:.6f}  spread {share:.4f}  bound {bound}  spread/bound {share / bound:.2f}")
    result["summary"] = summary
    return summary


def compare(a_path: str, b_path: str) -> int:
    a = json.loads(Path(a_path).read_text(encoding="utf-8"))
    b = json.loads(Path(b_path).read_text(encoding="utf-8"))
    limits = bounds()
    ok = True
    for workload in sorted(set(a["runs"]) & set(b["runs"])):
        for name, bound in limits.items():
            ma = spread([r["metrics"][name]["value"] for r in a["runs"][workload].values()])[0]
            mb = spread([r["metrics"][name]["value"] for r in b["runs"][workload].values()])[0]
            change = mb / ma - 1.0
            within = abs(change) <= bound
            ok = ok and within
            print(f"{workload:<12} {name:<14} first {ma:.6f}  second {mb:.6f}  change {change:+.4f}  bound {bound}  {'ok' if within else 'OUTSIDE BOUND'}")
        for seed in sorted(set(a["runs"][workload]) & set(b["runs"][workload]), key=int):
            fa, fb = a["runs"][workload][seed]["fingerprint"], b["runs"][workload][seed]["fingerprint"]
            if fa != fb:
                ok = False
                print(f"{workload:<12} seed {seed}: fingerprints differ ({fa} vs {fb})")
        print(f"{workload:<12} fingerprints compared for seeds {', '.join(sorted(set(a['runs'][workload]) & set(b['runs'][workload]), key=int))}")
    print("sets agree" if ok else "sets DISAGREE")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the runs and their summary as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), help="compare two sets written with --out")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
