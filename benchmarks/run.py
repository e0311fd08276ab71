#!/usr/bin/env python3
"""bspkit benchmark: four workloads, end-to-end metrics and outside-in layer spans.

Run from the root of a checkout (bspkit is imported from ./src):

    python3 benchmarks/run.py --workload kernels --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 benchmarks/run.py --workload all --smoke --seconds 1

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (pass_s, cold_pass_s, setup_s, peak_rss_mb); with
``--trace 1`` it holds the per-layer metrics of a traced run.  The lines before
it print every metric by name with its unit, the pass count and tail
percentile, fail_ratio with the number of operations attempted, the exact-count
fingerprint and the environment record.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build"
FINGERPRINTS = HERE / "fingerprints.json"
WORKLOADS = ("kernels", "exchange", "collectives", "threads")

# set-up and first pass: this process plus two fresh child processes, one before and one
# after the timed passes, so that the samples span the run rather than a few seconds of it
FRESH_PROCESSES = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"pass_s": "s", "cold_pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

LAYER_UNITS = {
    "algorithms.between_primitives_s": "s",
    "algorithms.declared_work": "count",
    "algorithms.host_ns_per_work": "ns/work",
    "algorithms.errors": "count",
    "engine.map_pids_s": "s",
    "engine.map_pids_calls": "count",
    "engine.elements": "count",
    "engine.close_superstep_s": "s",
    "engine.digest_s": "s",
    "engine.run_self_s": "s",
    "engine.parallel_over_simulate": "ratio",
    "engine.parallel_pass_s": "s",
    "engine.simulate_pass_s": "s",
    "engine.errors": "count",
    "bsml.put_self_s": "s",
    "bsml.proj_self_s": "s",
    "bsml.put_calls": "count",
    "bsml.errors": "count",
    "sgl.scatter_self_s": "s",
    "sgl.gather_self_s": "s",
    "sgl.calls": "count",
    "sgl.errors": "count",
    "model.comm_build_s": "s",
    "model.h_relation_s": "s",
    "model.step_cost_s": "s",
    "model.supersteps": "count",
    "model.words": "count",
    "model.h_sum": "count",
    "model.comm_cells": "count",
    "model.comm_nnz": "count",
    "model.comm_density": "ratio",
    "model.errors": "count",
    "cli.report_s": "s",
    "cli.bytes_written": "bytes",
    "cli.errors": "count",
    "perfmodel.sweep_self_s": "s",
    "perfmodel.cells": "count",
    "perfmodel.fit_s": "s",
    "perfmodel.surface_s": "s",
    "perfmodel.errors": "count",
    "bench.trace_overhead": "ratio",
    "bench.traced_pass_s": "s",
    "bench.untraced_pass_s": "s",
    "bench.accounting_share": "ratio",
}

#: span groups shown in the per-operation attribution of a traced run
ATTRIBUTION = ("engine.map_pids", "engine.close_superstep", "model.comm_build", "engine.digest", "perfmodel.sweep", "cli.report")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the timed passes run (at least 3 passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="0: end-to-end metrics; 1: traced run with per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny problem sizes: each workload runs in seconds")
    parser.add_argument("--record-fingerprint", action="store_true", help=f"store this run's exact-count fingerprint in {FINGERPRINTS.name}; refused if an operation fails")
    parser.add_argument("--cold-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- set-up ----------------------------------------------------------------------


def setup(args, tmp: Path):
    """Import bspkit (numpy and scipy with it) and build the workload; timed."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports bspkit, its CLI and perfmodel

    workload = workloads.build(args.workload, args.seed, args.smoke, tmp)
    elapsed = time.perf_counter() - t0
    import bspkit

    if Path(bspkit.__file__).resolve().parent != (SRC / "bspkit").resolve():
        raise SystemExit(f"error: bspkit was imported from {bspkit.__file__}, not from {SRC}")
    return elapsed, workload, workloads


def fresh_sample(args) -> dict:
    """Set-up time, first-pass time and exact counts measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--cold-only", "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: the fresh process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_only(args, tmp: Path) -> None:
    setup_s, workload, W = setup(args, tmp)
    gc.collect()
    cold_s, outcomes = run_pass(workload)
    counts = {name: _describe(out) if isinstance(out, BaseException) else W.exact_counts(out) for name, out in outcomes.items()}
    print(json.dumps({"setup_s": setup_s, "cold_pass_s": cold_s, "counts": counts}))


# --- passes and checks --------------------------------------------------------------


def run_pass(workload, tracer=None) -> tuple[float, dict]:
    """Run every operation once; an exception is kept as the operation's outcome."""
    outcomes: dict = {}
    t0 = time.perf_counter()
    for op in workload.ops:
        try:
            if tracer is None:
                outcomes[op.name] = op.run()
            else:
                with tracer.span("bench.op", op.name):
                    outcomes[op.name] = op.run()
        except Exception as exc:  # counted as a failed operation, never retried
            outcomes[op.name] = exc
    return time.perf_counter() - t0, outcomes


def _describe(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1:] if exc.__traceback__ else []
    where = f" at {Path(last[0].filename).name}:{last[0].lineno}" if last else ""
    return f"raised {type(exc).__name__}: {exc}{where}"


class Tally:
    """Operations attempted and failed, with the first problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems_by_op: dict[str, list[str]]) -> None:
        self.attempted += len(problems_by_op)
        for op, problems in problems_by_op.items():
            if problems:
                self.failed += 1
                message = f"{op}: {'; '.join(problems)}"
                if message not in self.problems and len(self.problems) < 20:
                    self.problems.append(message)


def check_outcomes(W, workload, outcomes: dict) -> dict[str, list[str]]:
    """Oracle and sibling checks of one pass (outside the timed region)."""
    found: dict[str, list[str]] = {}
    for op in workload.ops:
        out = outcomes[op.name]
        if isinstance(out, BaseException):
            found[op.name] = [_describe(out)]
            continue
        try:
            found[op.name] = list(op.check(out, outcomes))
            if op.reference is not None:
                found[op.name] += W.same_steps(out, op.reference())
        except Exception as exc:
            found[op.name] = [f"check {_describe(exc)}"]
    return found


def compare_signatures(W, reference: dict, outcomes: dict) -> dict[str, list[str]]:
    """Problems of a later pass: reference holds the signatures of the operations that passed their checks."""
    found = {}
    for name, out in outcomes.items():
        if isinstance(out, BaseException):
            found[name] = [_describe(out)]
        elif name not in reference:
            found[name] = ["repeats an operation that failed in the checked pass"]
        else:
            found[name] = [] if W.signature(out) == reference.get(name) else ["value or counts differ from the checked pass"]
    return found


# --- fingerprints -----------------------------------------------------------------


def fingerprint_key(args) -> str:
    return f"{args.workload}/{'smoke' if args.smoke else 'full'}/seed={args.seed}"


def fingerprint_of(counts: dict) -> str:
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()


def check_fingerprint(args, counts: dict) -> tuple[str, dict[str, list[str]]]:
    """Compare with the fingerprint stored for this workload and seed."""
    stored = json.loads(FINGERPRINTS.read_text(encoding="utf-8")) if FINGERPRINTS.exists() else {}
    key = fingerprint_key(args)
    if key not in stored:
        return "no fingerprint recorded for this seed", {}
    want = stored[key]["ops"]
    found = {}
    for op in sorted(set(want) | set(counts)):
        if want.get(op) != counts.get(op):
            diff = sorted(k for k in set(want.get(op, {})) | set(counts.get(op, {})) if want.get(op, {}).get(k) != counts.get(op, {}).get(k))
            found[op] = [f"exact counts differ from the recorded fingerprint in {', '.join(diff)}"]
    return ("matches the recorded fingerprint" if not found else "DIFFERS from the recorded fingerprint"), found


def record_fingerprint(args, counts: dict) -> None:
    stored = json.loads(FINGERPRINTS.read_text(encoding="utf-8")) if FINGERPRINTS.exists() else {}
    stored[fingerprint_key(args)] = {"fingerprint": fingerprint_of(counts), "ops": counts}
    FINGERPRINTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def count_totals(counts: dict) -> dict[str, float]:
    total = {k: sum(c[k] for c in counts.values()) for k in ("supersteps", "words", "h_sum", "comm_cells", "comm_nnz", "declared_work")}
    return {
        "model.supersteps": total["supersteps"],
        "model.words": total["words"],
        "model.h_sum": total["h_sum"],
        "model.comm_cells": total["comm_cells"],
        "model.comm_nnz": total["comm_nnz"],
        "model.comm_density": total["comm_nnz"] / total["comm_cells"] if total["comm_cells"] else 0.0,
        "algorithms.declared_work": total["declared_work"],
    }


# --- environment --------------------------------------------------------------------


def environment(workload) -> dict:
    import numpy
    import scipy
    from bspkit import engine

    nproc = os.cpu_count() or 1
    workers = min(max(p for _n, p in workload.sizes.values()), nproc) if workload.backend == "parallel" else 1
    record = engine.make_environment(workload.backend, workers).to_dict()
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    record.update(
        {
            "nproc": nproc,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "gil": gil,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "note": f"{'GIL' if gil else 'free-threaded'} {platform.python_implementation()} on {nproc} cores: "
            "threads pass_s measures pool dispatch and GIL contention, not parallel speed-up",
        }
    )
    return record


# --- reporting ---------------------------------------------------------------------


def tail(times: list[float]) -> str:
    """The highest percentile that still has at least ten passes beyond it."""
    k = len(times) - 10
    if k < 1:
        return f"no tail percentile: {len(times)} passes (needs more than 10)"
    return f"p{100 * k / len(times):.0f} = {sorted(times)[k - 1]:.6f} s"


def print_table(rows: list[tuple[str, float, str, str]]) -> None:
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>14}  {unit:<8}  {note}".rstrip())


def result_line(correct: bool, tally: Tally, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    )


# --- one workload ----------------------------------------------------------------------


def run_one(args) -> int:
    if not (SRC / "bspkit" / "__init__.py").is_file():
        print(f"error: no bspkit sources under {SRC}; run from the root of a bspkit checkout", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    fresh = [] if args.trace or args.cold_only else [fresh_sample(args)]
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        if args.cold_only:
            cold_only(args, tmp)
            return 0
        setup_s, workload, W = setup(args, tmp)
        return measure(args, workload, W, setup_s, fresh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, workload, W, setup_s: float, fresh: list[dict]) -> int:
    env = environment(workload)
    sizes = "smoke" if args.smoke else "full"
    print(f"bspkit benchmark: workload={workload.name} seed={args.seed} sizes={sizes} backend={workload.backend} trace={args.trace}")
    print(f"  why: {W.WHY[workload.name]}")
    print(f"  operations per pass: {', '.join(op.name for op in workload.ops)}; sizes {json.dumps(workload.sizes)}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    tally = Tally()
    gc.collect()
    cold_s, outcomes = run_pass(workload)  # the first pass in this process, also the checked one
    checked = check_outcomes(W, workload, outcomes)
    signatures = {name: W.signature(out) for name, out in outcomes.items() if not isinstance(out, BaseException)}
    counts = {name: W.exact_counts(out) for name, out in outcomes.items() if not isinstance(out, BaseException)}
    bytes_written = sum(out.bytes_written for out in outcomes.values() if not isinstance(out, BaseException))
    verdict, mismatched = ("", {}) if args.record_fingerprint else check_fingerprint(args, counts)
    for name, problems in mismatched.items():
        checked.setdefault(name, []).extend(problems)
    signatures = {name: sig for name, sig in signatures.items() if not checked.get(name)}
    tally.add(checked)
    del outcomes
    tally_fresh(tally, workload, counts, fresh)

    if args.trace:
        metrics, coverage = traced_passes(args, workload, W, tally, signatures)
        metrics.update(count_totals(counts))
        metrics["cli.bytes_written"] = bytes_written
        declared = metrics["algorithms.declared_work"]
        metrics["algorithms.host_ns_per_work"] = metrics["engine.map_pids_s"] * 1e9 / declared if declared else 0.0
        units = LAYER_UNITS
        notes = {}
    else:
        times = timed_passes(args, workload, W, tally, signatures)
        later = [fresh_sample(args) for _ in range(FRESH_PROCESSES - 1 - len(fresh))]
        tally_fresh(tally, workload, counts, later)
        setup_samples = [setup_s] + [sample["setup_s"] for sample in fresh + later]
        cold_samples = [cold_s] + [sample["cold_pass_s"] for sample in fresh + later]
        coverage = []
        metrics = {
            "pass_s": statistics.median(times),
            "cold_pass_s": statistics.median(cold_samples),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        notes = {
            "pass_s": f"median of {len(times)} passes, quartiles {fmt_quartiles(times)}; {tail(times)}",
            "cold_pass_s": f"median of the first pass in {len(cold_samples)} fresh processes: {', '.join(f'{s:.4f}' for s in cold_samples)}",
            "setup_s": f"median of {len(setup_samples)} set-ups in fresh processes: {', '.join(f'{s:.4f}' for s in setup_samples)}",
            "peak_rss_mb": "ru_maxrss of this process",
        }

    if args.record_fingerprint:  # a failed or raising operation must not become the reference
        if tally.failed or coverage:
            for problem in tally.problems + coverage:
                print(f"problem: {problem}", file=sys.stderr)
            print(f"error: {tally.failed} of {tally.attempted} operations failed; no fingerprint recorded", file=sys.stderr)
            return 1
        record_fingerprint(args, counts)
        verdict = "recorded"

    fail_ratio = tally.failed / tally.attempted
    print("metrics:")
    rows = [(name, metrics[name], units[name], notes.get(name, "")) for name in units]
    rows.append(("fail_ratio", fail_ratio, "ratio", f"{tally.failed} of ops={tally.attempted} operations failed"))
    print_table(rows)
    print(f"fingerprint: {fingerprint_of(counts)[:16]} ({verdict}); counts per operation {json.dumps(counts, sort_keys=True)}")
    for problem in tally.problems + coverage:
        print(f"problem: {problem}")
    correct = tally.failed == 0 and not coverage
    print(result_line(correct, tally, metrics, units))
    return 0


def tally_fresh(tally: Tally, workload, counts: dict, samples: list[dict]) -> None:
    """The same inputs must give the same counts in every process."""
    for sample in samples:
        tally.add({op.name: [] if sample["counts"].get(op.name) == counts.get(op.name) else ["exact counts differ in a fresh process"] for op in workload.ops})


def fmt_quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.6f}..{q3:.6f} s"


def timed_passes(args, workload, W, tally: Tally, signatures: dict) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        gc.collect()
        elapsed, outcomes = run_pass(workload)
        times.append(elapsed)
        tally.add(compare_signatures(W, signatures, outcomes))
        del outcomes
    return times


def traced_passes(args, workload, W, tally: Tally, signatures: dict) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes (and simulate passes for threads).

    The order within a round flips every round, and the number of rounds is
    even, so an effect of a pass's place in the round cancels in the overhead.
    """
    tracer = tracing.Tracer()
    times: dict[str, list[float]] = {"untraced": [], "traced": [], "simulate": []}
    kinds = ["untraced", "traced"] + (["simulate"] if workload.backend == "parallel" else [])
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_PASSES or rounds % 2 or time.perf_counter() - start < args.seconds:
        for kind in kinds if rounds % 2 == 0 else kinds[::-1]:
            gc.collect()
            if kind == "traced":
                with tracer.installed():
                    elapsed, outcomes = run_pass(workload, tracer)
            elif kind == "simulate":
                t0 = time.perf_counter()
                outcomes = {op.name: op.reference() for op in workload.ops}
                elapsed = time.perf_counter() - t0
            else:
                elapsed, outcomes = run_pass(workload)
            times[kind].append(elapsed)
            if kind != "simulate":
                tally.add(compare_signatures(W, signatures, outcomes))
            del outcomes
        rounds += 1

    traced = len(times["traced"])
    index = tracing.SpanIndex(tracer.spans)
    metrics = tracing.layer_metrics(index, traced)
    untraced_s = statistics.median(times["untraced"])
    traced_s = statistics.median(times["traced"])
    # each traced pass over the untraced pass of the same round, so host drift between rounds cancels
    ratios = [t / u for t, u in zip(times["traced"], times["untraced"])]
    metrics["bench.trace_overhead"] = statistics.median(ratios)
    metrics["bench.traced_pass_s"] = traced_s
    metrics["bench.untraced_pass_s"] = untraced_s
    metrics["bench.accounting_share"] = metrics.pop("bench.accounting_s") / statistics.mean(times["traced"])
    if times["simulate"]:
        simulate_s = statistics.median(times["simulate"])
        metrics.update({"engine.parallel_pass_s": untraced_s, "engine.simulate_pass_s": simulate_s, "engine.parallel_over_simulate": untraced_s / simulate_s})
    else:
        metrics.update({"engine.parallel_pass_s": 0.0, "engine.simulate_pass_s": 0.0, "engine.parallel_over_simulate": 0.0})

    coverage = tracing.coverage_problems(index, workload.expected_spans, tracer.missing)
    print(f"traced run: {traced} traced and {len(times['untraced'])} untraced passes, {len(tracer.spans)} spans; span coverage {'ok' if not coverage else 'FAILED'}")
    print(f"  traced over untraced per round: median {statistics.median(ratios[0::2]):.4f} when the untraced pass ran first, {statistics.median(ratios[1::2]):.4f} when it ran second")
    attribution = print_attribution(index, traced)
    out = SCRATCH / f"spans-{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}.json"
    out.write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "smoke": args.smoke, "passes": traced, "attribution": attribution, "spans": tracing.spans_to_dicts(tracer.spans)}) + "\n",
        encoding="utf-8",
    )
    print(f"spans written to {out}")
    return metrics, coverage


def print_attribution(index, passes: int) -> dict:
    """Per operation: its traced time and the share each layer group takes."""
    by_op: dict[str, list] = {}
    for s in index.spans:
        if s[tracing.NAME] == "bench.op":
            by_op.setdefault(s[tracing.LABEL], []).append(s)
    attribution = {}
    print("attribution per operation (traced, mean per pass):")
    for op, roots in by_op.items():
        total = sum(r[tracing.END] - r[tracing.START] for r in roots)
        sub = tracing.SpanIndex([s for r in roots for s in index.descendants(r).spans])
        shares = {g: sub.inclusive(g) / total for g in ATTRIBUTION if sub.calls(g)}
        top = sorted(sub.self_by_name().items(), key=lambda kv: -kv[1])[:4]
        attribution[op] = {"seconds": total / passes, "inclusive_share": shares, "top_self_s": {k: v / passes for k, v in top}}
        print(
            f"  {op}: {total / passes:.4f} s; "
            + ", ".join(f"{g} {v:.0%}" for g, v in shares.items())
            + "; top self: "
            + ", ".join(f"{k} {v / passes:.4f} s" for k, v in top)
        )
    top = sorted(index.self_by_name().items(), key=lambda kv: -kv[1])[:5]
    print("  largest self times per pass: " + ", ".join(f"{k} {v / passes:.4f} s" for k, v in top))
    return attribution


# --- all workloads ---------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, so cold pass and peak RSS are per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.record_fingerprint:
            cmd.append("--record-fingerprint")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all" and not args.cold_only:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
