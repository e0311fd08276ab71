"""Command-line entry point: run | sweep | fit | surface | check | translate.

All outputs are UTF-8 files (JSON or comma-separated CSV, '.' decimal point);
exit code 0 means success, 1 a failing program or check, 2 a usage problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algorithms import ALGORITHMS, DISTRIBUTIONS, build_program
from .checks import ALL_SUITES, run_suites, sgl_pipeline
from .engine import BACKENDS, DEFAULT_WORKER_CAP, run
from .errors import BspError, ProgramError, UsageError
from .model import (
    DEFAULT_G,
    DEFAULT_L,
    DEFAULT_R,
    MachineConfig,
    machine_from_dict,
    trace_to_csv,
)
from .perfmodel import (
    DEFAULT_BASIS,
    METRICS,
    crossval,
    fit,
    grid_from_csv,
    grid_to_csv,
    model_to_json,
    predict,
    surface,
    surface_to_csv,
    sweep,
)
from .sgl import translate_to_bsml


def _env_pairs(items) -> dict[str, str]:
    env = {}
    for item in items or ():
        if "=" not in item:
            raise UsageError(f"--env expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        env[k] = v
    return env


def _machine_from_args(args) -> object:
    if getattr(args, "machine", None):
        with open(args.machine, "r", encoding="utf-8") as fh:
            try:
                return machine_from_dict(json.load(fh))
            except ValueError as exc:  # json.JSONDecodeError, or a file that is not UTF-8
                raise UsageError(f"machine JSON {args.machine}: {exc}") from exc
            except RecursionError as exc:  # from the JSON decoder
                raise UsageError(f"machine JSON {args.machine}: nested too deeply") from exc
    return MachineConfig(p=args.p, g=args.g, l=args.l, r=args.r)


def _write(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from exc


# --- subcommands ---------------------------------------------------------------


def cmd_run(args) -> int:
    machine = _machine_from_args(args)
    program = build_program(args.algo, args.n, args.seed, args.dist)
    env = _env_pairs(args.env)
    try:
        report = run(program, machine, backend=args.backend, env=env, worker_cap=args.worker_cap)
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.trace and exc.partial_trace is not None:
            _write(args.trace, trace_to_csv(exc.partial_trace))
        return 1
    _write(args.out, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    if args.trace:
        _write(args.trace, trace_to_csv(report.trace))
    return 0


def cmd_sweep(args) -> int:
    grid = sweep(
        args.algo,
        p_list=_int_list(args.p_list),
        n_list=_int_list(args.n_list),
        backend=args.backend,
        repetitions=args.reps,
        metrics=args.metrics.split(",") if args.metrics else None,
        g=args.g,
        l=args.l,
        r=args.r,
        seed=args.seed,
        distribution=args.dist,
        env=_env_pairs(args.env),
    )
    _write(args.out, grid_to_csv(grid))
    return 0


def cmd_fit(args) -> int:
    grid = grid_from_csv(Path(args.grid).read_text(encoding="utf-8"))
    model = fit(grid, args.basis, metric=args.metric)
    env = dict(grid.environments).get(grid.rows[0].env_id) if grid.rows else None
    _write(args.out, model_to_json(model, env=env))
    if model.rank_deficient:
        print(f"warning: rank-deficient basis; dependent terms: {', '.join(model.deficient_terms)}", file=sys.stderr)
    if args.residuals:
        lines = ["p,n,value,predicted,residual"]
        for row in grid.select(model.metric):
            pred = predict(model, row.p, row.n)
            lines.append(f"{row.p},{row.n},{row.value!r},{pred!r},{row.value - pred!r}")
        _write(args.residuals, "\n".join(lines) + "\n")
    if args.crossval:
        stats = crossval(grid, args.basis, args.crossval, metric=args.metric)
        print(f"crossval k={args.crossval}: rms={stats.rms!r} max_abs={stats.max_abs!r}", file=sys.stderr)
    if args.surface:
        _write_surface(args.surface, grid, model.metric)
    return 0


def cmd_surface(args) -> int:
    _write_surface(args.out, grid_from_csv(Path(args.grid).read_text(encoding="utf-8")), args.metric)
    return 0


def _write_surface(path: str | None, grid, metric: str | None) -> None:
    surf = surface(grid, metric=metric)
    if surf.kind == "curve":
        print("warning: fewer than 2 distinct p or n values; emitting curve format", file=sys.stderr)
    _write(path, surface_to_csv(surf))


def cmd_check(args) -> int:
    results = run_suites(args.suite, p=args.p, cases=args.cases, instances=args.instances)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} suite(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


#: The steps of each ``translate`` program, run over the input seed..seed+n-1.
TRANSLATE_STEPS = {
    "scatter": [("scatter", 0)],
    "gather": [("scatter", 0), ("gather", 0)],
    "pipeline": [("scatter", 0), ("lmap", lambda v: v + 1, 1), ("gather", 0)],
}


def cmd_translate(args) -> int:
    if args.program not in TRANSLATE_STEPS:
        raise UsageError(f"unknown program {args.program!r}; known: {', '.join(TRANSLATE_STEPS)}")
    machine = _machine_from_args(args)
    program, _expected = sgl_pipeline(range(args.seed, args.seed + args.n), TRANSLATE_STEPS[args.program], args.p)
    direct = run(program, machine)
    translated = run(translate_to_bsml(program), machine)
    summary = lambda report: {"result_digest": report.result_digest, "sync_count": report.trace.sync_count}
    put_plans = [{"index": s.index, "comm": [list(row) for row in s.comm.words]} for s in translated.trace.steps if s.comm is not None]
    dump = {
        "program": args.program,
        "p": args.p,
        "direct": summary(direct),
        "translated": {**summary(translated), "put_plans": put_plans},
        "equivalent": summary(direct) == summary(translated),
    }
    _write(args.out, json.dumps(dump, indent=2, sort_keys=True) + "\n")
    return 0 if dump["equivalent"] else 1


# --- parser -----------------------------------------------------------------------


def _add_machine_flags(sub, with_tree: bool = True):
    sub.add_argument("--p", type=int, default=4, help="processor count (flat machine)")
    sub.add_argument("--g", type=float, default=DEFAULT_G, help="gap: time-units per word")
    sub.add_argument("--l", type=float, default=DEFAULT_L, help="latency: time-units per superstep")
    sub.add_argument("--r", type=float, default=DEFAULT_R, help="local compute rate")
    if with_tree:
        sub.add_argument("--machine", help="JSON machine config (flat or nested tree)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bspkit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run one algorithm and write its report")
    p_run.add_argument("--algo", required=True, help=f"one of: {', '.join(sorted(ALGORITHMS))}")
    p_run.add_argument("--n", type=int, default=16, help="input size")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--dist", default="uniform", choices=DISTRIBUTIONS)
    p_run.add_argument("--backend", default="simulate", choices=BACKENDS)
    p_run.add_argument("--worker-cap", type=int, default=DEFAULT_WORKER_CAP)
    _add_machine_flags(p_run)
    p_run.add_argument("--out", help="report JSON path (stdout if omitted)")
    p_run.add_argument("--trace", help="also write the cost trace CSV here")
    p_run.add_argument("--env", action="append", help="environment override key=value", default=[])
    p_run.set_defaults(fn=cmd_run)

    p_sweep = subs.add_parser("sweep", help="run a (p, n) grid and write it as CSV")
    p_sweep.add_argument("--algo", required=True)
    p_sweep.add_argument("--p-list", required=True, help="comma-separated processor counts")
    p_sweep.add_argument("--n-list", required=True, help="comma-separated input sizes")
    p_sweep.add_argument("--backend", default="simulate", choices=BACKENDS)
    p_sweep.add_argument("--reps", type=int, default=1, help="repetitions (parallel backend)")
    p_sweep.add_argument("--metrics", help=f"comma-separated subset of {','.join(METRICS)}")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--dist", default="uniform", choices=DISTRIBUTIONS)
    _add_machine_flags(p_sweep, with_tree=False)
    p_sweep.add_argument("--out", help="grid CSV path (stdout if omitted)")
    p_sweep.add_argument("--env", action="append", default=[])
    p_sweep.set_defaults(fn=cmd_sweep)

    p_fit = subs.add_parser("fit", help="fit a performance model to a grid CSV")
    p_fit.add_argument("--grid", required=True, help="grid CSV produced by sweep")
    p_fit.add_argument("--basis", default=",".join(DEFAULT_BASIS), help="comma-separated terms over p and n")
    p_fit.add_argument("--metric", help="metric to fit (defaults to the grid's first)")
    p_fit.add_argument("--out", help="model JSON path (stdout if omitted)")
    p_fit.add_argument("--residuals", help="residual table CSV path")
    p_fit.add_argument("--crossval", type=int, help="also report k-fold held-out RMS")
    p_fit.add_argument("--surface", help="also write the plot matrix CSV here")
    p_fit.set_defaults(fn=cmd_fit)

    p_surf = subs.add_parser("surface", help="reshape a grid CSV into a plot matrix")
    p_surf.add_argument("--grid", required=True)
    p_surf.add_argument("--metric")
    p_surf.add_argument("--out", help="matrix CSV path (stdout if omitted)")
    p_surf.set_defaults(fn=cmd_surface)

    p_check = subs.add_parser("check", help="run the invariant/property suites")
    p_check.add_argument("--suite", action="append", choices=tuple(ALL_SUITES), help="repeatable; default: all")
    p_check.add_argument("--p", type=int, help="machine width for exhaustive suites (transpose)")
    p_check.add_argument("--cases", type=int, help="randomized case count where a suite takes one")
    p_check.add_argument("--instances", type=int, help="oracle-equivalence instance count")
    p_check.set_defaults(fn=cmd_check)

    p_tr = subs.add_parser("translate", help="dump an SGL program next to its BSML translation")
    p_tr.add_argument("--program", required=True, help=" | ".join(TRANSLATE_STEPS))
    p_tr.add_argument("--n", type=int, default=8)
    p_tr.add_argument("--seed", type=int, default=0)
    _add_machine_flags(p_tr, with_tree=False)
    p_tr.add_argument("--out", help="dump JSON path (stdout if omitted)")
    p_tr.set_defaults(fn=cmd_translate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BspError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
