"""Property suites: closed-form counts, oracle equivalence, translation laws.

Each suite returns a CheckResult; the CLI ``check`` subcommand prints one
pass/fail line per suite and the acceptance tests call the same functions
with the criterion-level parameters.  ``sgl_pipeline`` builds the SGL
programs of the suites, the ``translate`` subcommand and the property tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from . import algorithms as alg
from .bsml import mkpar, nprocs, put
from .engine import estimate_runtime, run
from .errors import UsageError
from .library import BASIC_API, split_blocks
from .model import Leaf, MachineConfig, Node
from .perfmodel import DEFAULT_BASIS, GridRow, SweepGrid, fit, parse_basis, sweep
from .sgl import gather, lmap, run_nested, scatter, translate_to_bsml


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], detail_ok: str) -> CheckResult:
    if failures:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; ... {len(failures)} failures total"
        return CheckResult(name, False, shown)
    return CheckResult(name, True, detail_ok)


def _machine(p: int) -> MachineConfig:
    return MachineConfig(p=p, g=1.0, l=10.0, r=1.0)


# --- closed-form communication counts ----------------------------------------------


def closed_form_counts(name: str, p: int, n: int) -> tuple[int, int]:
    """(h, total words) of one collective superstep, from first principles."""
    if name == "broadcast":
        return (p - 1) * n, (p - 1) * n
    if name == "total-exchange":
        return (p - 1) * n, p * (p - 1) * n
    if name == "ring-shift":
        return (n, p * n) if p > 1 else (0, 0)
    raise UsageError(f"no closed form for {name!r}")


def suite_exact_counts() -> CheckResult:
    """Simulator traces match closed-form h and word counts exactly, p in 1..8 and n in {1, 10, 100}."""
    failures = []
    p_range, n_list = range(1, 9), (1, 10, 100)
    for name in ("broadcast", "total-exchange", "ring-shift"):
        for p in p_range:
            for n in n_list:
                program = alg.build_program(name, n, seed=1)
                trace = run(program, _machine(p)).trace
                h_want, words_want = closed_form_counts(name, p, n)
                if trace.sync_count != 1:
                    failures.append(f"{name} p={p} n={n}: sync {trace.sync_count} != 1")
                elif (trace.steps[0].h, trace.total_words) != (h_want, words_want):
                    failures.append(
                        f"{name} p={p} n={n}: (h, words) = ({trace.steps[0].h}, {trace.total_words}) "
                        f"!= ({h_want}, {words_want})"
                    )
    return _result("exact-counts", failures, f"{3 * len(p_range) * len(n_list)} cases, all exact")


# --- the put transpose law -----------------------------------------------------------


def suite_transpose(max_p: int = 5, cases: int = 1000) -> CheckResult:
    """put's received/sent relation equals the brute-force p x p transpose."""
    rng = random.Random(2024)
    failures = []
    for case in range(cases):
        p = rng.randint(1, max_p)
        plans = []
        for s in range(p):
            row = {}
            for d in range(p):
                if rng.random() < 0.5:
                    row[d] = tuple(rng.randint(0, 99) for _ in range(rng.randint(1, 4)))
            plans.append(row)

        def program(plans=plans):
            return put(mkpar(lambda s: plans[s], work=0))

        report = run(program, _machine(p))
        received = report.result
        # brute-force oracle over all (s, d) pairs
        for d in range(p):
            for s in range(p):
                want = plans[s].get(d)
                if received[d][s] != want:
                    failures.append(f"case {case}: received[{d}][{s}] = {received[d][s]!r}, want {want!r}")
        step = report.trace.steps[0]
        want_words = sum(len(m) for s in range(p) for dd, m in plans[s].items() if dd != s)
        if step.words != want_words:
            failures.append(f"case {case}: trace words {step.words} != plan words {want_words}")
        fan_out = [sum(len(m) for dd, m in plans[s].items() if dd != s) for s in range(p)]
        fan_in = [sum(len(m) for s in range(p) for dd, m in plans[s].items() if dd == d and dd != s) for d in range(p)]
        want_h = max(max(fan_out[i], fan_in[i]) for i in range(p))
        if step.h != want_h:
            failures.append(f"case {case}: h {step.h} != brute-force {want_h}")
        # conservation: every word sent off-processor is received exactly once
        recv_total = sum(step.comm.received(i) for i in range(p))
        sent_total = sum(step.comm.sent(i) for i in range(p))
        if recv_total != sent_total:
            failures.append(f"case {case}: sent {sent_total} != received {recv_total}")
    return _result("transpose", failures, f"{cases} randomized cases up to p={max_p}, exact")


# --- oracle equivalence ----------------------------------------------------------------


def suite_oracles(instances: int = 100, p_list: Sequence[int] = (1, 2, 3, 4, 8)) -> CheckResult:
    failures = []
    rng = random.Random(7)
    distributions = ("uniform", "sorted", "reverse", "equal")

    for case in range(instances):
        p = p_list[case % len(p_list)]
        m = _machine(p)

        # sample sort
        n = rng.randint(0, 300)
        dist = distributions[case % len(distributions)]
        xs = alg.gen_keys(n, seed=rng.randint(0, 10**9), distribution=dist)
        out = run(lambda xs=xs: alg.sample_sort(alg.distribute(xs)), m).result
        if out.to_list() != alg.seq_sort(xs):
            failures.append(f"sample_sort p={p} n={n} {dist}: mismatch")
        bound = 2 * max(n, 1) / p + p
        if any(size > bound for size in out.sizes()):
            failures.append(f"sample_sort p={p} n={n} {dist}: block sizes {out.sizes()} exceed 2n/p+p={bound}")

        # reduce / scan over per-pid values
        vals = [rng.randint(-999, 999) for _ in range(p)]
        got = run(lambda vals=vals: alg.reduce(max, mkpar(lambda i: vals[i], work=0)), m).result
        if got != max(vals):
            failures.append(f"reduce(max) p={p}: {got} != {max(vals)}")
        got = run(lambda vals=vals: alg.reduce(lambda a, b: a + b, mkpar(lambda i: vals[i], work=0)), m).result
        if got != sum(vals):
            failures.append(f"reduce(+) p={p}: {got} != {sum(vals)}")
        got = run(lambda vals=vals: alg.scan(lambda a, b: a + b, mkpar(lambda i: vals[i], work=0)), m).result
        want = [sum(vals[: i + 1]) for i in range(p)]
        if list(got) != want:
            failures.append(f"scan(+) p={p}: {list(got)} != {want}")

        # hash build + lookup
        nk = rng.randint(0, 200)
        pairs = [(rng.getrandbits(16), rng.randint(0, 999)) for _ in range(nk)]
        keys = [rng.getrandbits(16) for _ in range(rng.randint(1, 100))]

        def hprog(pairs=pairs, keys=keys):
            table = alg.hash_build(pairs)
            return alg.hash_lookup(table, alg.distribute(keys))

        got = run(hprog, m).result.to_list()
        if got != alg.seq_lookup(pairs, keys):
            failures.append(f"hash_lookup p={p}: mismatch")

        # n-body step, bit-exact
        nb = rng.randint(1, 16)
        bodies = alg.gen_bodies(nb, seed=rng.randint(0, 10**9))
        got = run(lambda bodies=bodies: alg.nbody_step(alg.distribute(bodies), dt=0.01), m).result.to_list()
        if got != alg.seq_nbody_step(bodies, dt=0.01):
            failures.append(f"nbody p={p} n={nb}: not bit-exact")

    return _result("oracles", failures, f"{instances} instances x p in {tuple(p_list)}, all match")


# --- superstep constancy ------------------------------------------------------------------


def suite_supersteps() -> CheckResult:
    failures = []
    m = _machine(4)

    sync_by_n = {}
    data_bearing = {}
    for n in (10**3, 10**4):
        trace = run(lambda n=n: alg.sample_sort(alg.distribute(alg.gen_keys(n, seed=3))), m).trace
        sync_by_n[n] = trace.sync_count
        data_bearing[n] = sum(1 for s in trace.steps if s.words > 0)
    if sync_by_n[10**3] != sync_by_n[10**4]:
        failures.append(f"sample_sort sync differs: {sync_by_n}")
    if set(data_bearing.values()) != {3}:
        failures.append(f"sample_sort data-bearing supersteps {data_bearing} != 3")

    pairs = [(k, k + 1) for k in range(500)]
    build_sync = run(lambda: alg.hash_build(pairs), m).trace.sync_count
    for batch in (1, 10, 100, 1000):
        keys = list(range(batch))

        def prog(keys=keys):
            table = alg.hash_build(pairs)
            return alg.hash_lookup(table, alg.distribute(keys))

        sync = run(prog, m).trace.sync_count
        if sync - build_sync != 2:
            failures.append(f"hash lookup batch={batch}: sync delta {sync - build_sync} != 2")

    for name, want in (("broadcast", 1), ("reduce", 1), ("scan", 2)):
        counts = set()
        for n in (10, 1000):
            counts.add(run(alg.build_program(name, n, seed=3), m).trace.sync_count)
        if counts != {want}:
            failures.append(f"{name}: sync counts {counts} != {{{want}}}")

    return _result("supersteps", failures, "superstep counts independent of input size")


# --- SGL expressiveness -------------------------------------------------------------------


def sgl_expressiveness() -> tuple[float, list[str], list[str]]:
    """(fraction passing put-free, passing names, failing/unexpressible names), 5 trials each at p=4."""
    p = 4
    rng = random.Random(11)
    passing, failing = [], []
    for op in BASIC_API:
        if op.run is None:
            failing.append(f"{op.name} ({op.note})")
            continue
        ok = True
        for _ in range(5):
            args = op.gen(rng, rng.randint(0, 40))
            want = op.oracle(p, *args)
            got, _trace = run_nested(_machine(p), lambda op=op, args=args: op.run(*args))
            if got != want:
                ok = False
                break
        (passing if ok else failing).append(op.name)
    return len(passing) / len(BASIC_API), passing, failing


def suite_sgl_express() -> CheckResult:
    fraction, passing, failing = sgl_expressiveness()
    detail = f"{len(passing)}/{len(BASIC_API)} put-free ({fraction:.0%}); missing: {', '.join(failing) or 'none'}"
    return CheckResult("sgl-express", fraction >= 0.8, detail)


# --- SGL pipelines ---------------------------------------------------------------------------


def sgl_pipeline(xs: Sequence, steps: Sequence[tuple], p: int) -> tuple[Callable[[], list], Any]:
    """An SGL program over xs, and the value it returns on p pids.

    The program runs the steps on ``split_blocks(xs, nprocs())`` and returns
    ``list(value)``.  A step is ``("scatter", root)``, ``("gather", root)``
    or ``("lmap", f, work)``, which applies f to every element of every
    block.  The expected value is what the lmap steps make of
    ``split_blocks(xs, p)``, or the exception f raised on the way.
    """

    def program():
        value = split_blocks(xs, nprocs())
        for step in steps:
            if step[0] == "scatter":
                value = scatter(step[1], value)
            elif step[0] == "lmap":
                value = lmap(lambda blk, f=step[1]: tuple(map(f, blk)), value, work=step[2])
            else:
                value = gather(step[1], value)
        return list(value)

    expected: Any = split_blocks(xs, p)
    try:
        for step in steps:
            if step[0] == "lmap":
                expected = [tuple(map(step[1], blk)) for blk in expected]
    except Exception as exc:  # the run fails on it too
        expected = exc
    return program, expected


def _random_steps(rng: random.Random, p: int) -> tuple[list[int], list[tuple]]:
    """An input list and 1-3 rounds of scatter, lmap and gather, each round with its own roots."""
    xs = [rng.randint(-50, 50) for _ in range(rng.randint(0, 30))]
    kernels = (lambda v: v + 1, lambda v: v * 2, lambda v: v - 3)
    steps = []
    for _ in range(rng.randint(1, 3)):
        steps += [("scatter", rng.randrange(p)), ("lmap", rng.choice(kernels), 1), ("gather", rng.randrange(p))]
    return xs, steps


# --- nested machines ------------------------------------------------------------------------


def two_by_two_tree() -> Node:
    leaf = lambda: Leaf(MachineConfig(p=2, g=1.0, l=10.0))
    return Node(children=(leaf(), leaf()), g=2.0, l=20.0)


def suite_nested() -> CheckResult:
    failures = []

    # hand-decomposed cost: level 2*2+20 = 24, each leaf 1*1+10 = 11, total 35
    _res, trace = run_nested(two_by_two_tree(), lambda: scatter(0, [1, 2, 3, 4]))
    if trace.steps[0].cost != 35.0:
        failures.append(f"nested scatter cost {trace.steps[0].cost} != 35.0")

    rng = random.Random(13)
    tree = two_by_two_tree()
    flat = _machine(4)
    for op in BASIC_API:
        if op.run is None:
            continue
        args = op.gen(rng, rng.randint(0, 40))
        nested_val, _t1 = run_nested(tree, lambda op=op, args=args: op.run(*args))
        flat_val, _t2 = run_nested(flat, lambda op=op, args=args: op.run(*args))
        if nested_val != flat_val:
            failures.append(f"{op.name}: nested != flat")

    for case in range(10):
        program, expected = sgl_pipeline(*_random_steps(rng, p=4), p=4)
        nested_val, _t1 = run_nested(tree, program)
        flat_val, _t2 = run_nested(flat, program)
        if not (nested_val == flat_val == expected):
            failures.append(f"composite case {case}: nested {nested_val} / flat {flat_val} / expected {expected}")

    return _result("nested", failures, "nested == flat on all SGL programs; 35.0 example exact")


# --- SGL -> BSML translation -----------------------------------------------------------------


def suite_translate(cases: int = 30) -> CheckResult:
    failures = []
    rng = random.Random(17)
    m = _machine(4)

    # construction laws: only the root row (scatter) / root column (gather) carry words
    rep = run(translate_to_bsml(lambda: scatter(1, [(1,), (2,), (3,), (4,)])), m)
    comm = rep.trace.steps[0].comm
    if any(any(row) for s, row in enumerate(comm.words) if s != 1):
        failures.append("translated scatter sends from a non-root row")
    rep = run(translate_to_bsml(lambda: gather(2, rep.result)), m)
    comm = rep.trace.steps[0].comm
    if any(w for s, row in enumerate(comm.words) for d, w in enumerate(row) if d != 2):
        failures.append("translated gather sends to a non-root column")

    for case in range(cases):
        program, expected = sgl_pipeline(*_random_steps(rng, p=4), p=4)
        direct = run(program, m)
        translated = run(translate_to_bsml(program), m)
        if direct.result != expected or translated.result != expected:
            failures.append(f"case {case}: results diverge from expected")
        if direct.trace.sync_count != translated.trace.sync_count:
            failures.append(
                f"case {case}: sync {direct.trace.sync_count} != translated {translated.trace.sync_count}"
            )
    return _result("translate", failures, f"{cases} random programs: results and superstep counts preserved")


# --- model recovery ----------------------------------------------------------------------------


def suite_model_recovery(draws: int = 20) -> CheckResult:
    failures = []
    rng = random.Random(23)
    terms = parse_basis(DEFAULT_BASIS)
    points = [(p, n) for p in (1, 2, 3, 4, 6, 8) for n in (1, 2, 4, 8, 16, 32)]
    for draw in range(draws):
        coef = [rng.uniform(-10, 10) for _ in terms]
        rows = tuple(
            GridRow(p=p, n=n, metric="cost", value=sum(c * t.fn(p, n) for c, t in zip(coef, terms)), env_id="synth")
            for p, n in points
        )
        model = fit(SweepGrid(rows=rows), DEFAULT_BASIS)
        for c_true, c_fit in zip(coef, model.coefficients):
            if abs(c_fit - c_true) > 1e-6 * max(abs(c_true), 1e-9):
                failures.append(f"draw {draw}: coefficient {c_true} fitted as {c_fit}")
        if model.residuals.rms > 1e-9:
            failures.append(f"draw {draw}: residual RMS {model.residuals.rms} > 1e-9")

    grid = sweep("broadcast", p_list=(2, 4, 8), n_list=(1, 10, 100), g=0.5, l=20.0)
    model = fit(grid, ("1", "n*(p-1)"))
    if abs(model.coefficients[0] - 20.0) > 1e-9 or abs(model.coefficients[1] - 0.5) > 1e-9:
        failures.append(f"broadcast grid fit {model.coefficients} != (l=20.0, g=0.5)")

    return _result("model-recovery", failures, f"{draws} synthetic draws + broadcast grid recover exactly")


# --- determinism and backend equivalence ---------------------------------------------------------


def _comparable_report(report) -> dict:
    d = report.to_dict()
    d["environment"] = {k: v for k, v in d["environment"].items() if k != "timestamp"}
    d.pop("wall_time", None)
    return d


def suite_determinism() -> CheckResult:
    failures = []
    m = _machine(4)
    n, seed = 64, 29
    for name in sorted(alg.ALGORITHMS):
        first = run(alg.build_program(name, n, seed), m)
        second = run(alg.build_program(name, n, seed), m)
        if _comparable_report(first) != _comparable_report(second):
            failures.append(f"{name}: two simulate runs differ")
        par = run(alg.build_program(name, n, seed), m, backend="parallel")
        if par.result_digest != first.result_digest:
            failures.append(f"{name}: parallel result differs from simulate")
        if [(s.h, s.words, s.max_work) for s in par.trace.steps] != [
            (s.h, s.words, s.max_work) for s in first.trace.steps
        ]:
            failures.append(f"{name}: parallel trace counts differ from simulate")
    return _result("determinism", failures, f"all {len(alg.ALGORITHMS)} programs bit-stable across runs and backends")


# --- trace re-costing ------------------------------------------------------------------------------


def suite_recosting() -> CheckResult:
    failures = []
    m = _machine(4)
    trace = run(alg.build_program("samplesort", 1000, seed=5), m).trace

    same = estimate_runtime(trace, m)
    if same != trace.total_cost:
        failures.append(f"re-costing on the same machine: {same} != {trace.total_cost}")

    low = estimate_runtime(trace, MachineConfig(p=4, g=1.0, l=0.0))
    high = estimate_runtime(trace, MachineConfig(p=4, g=1.0, l=1000.0))
    if high - low != trace.sync_count * 1000.0:
        failures.append(f"delta-l re-costing: {high - low} != {trace.sync_count * 1000.0}")

    double_g = estimate_runtime(trace, MachineConfig(p=4, g=2.0, l=10.0))
    comm = sum(s.h for s in trace.steps)
    if double_g - same != comm:
        failures.append(f"doubling g added {double_g - same}, want {comm}")

    return _result("recosting", failures, "re-pricing matches sync_count and h arithmetic exactly")


# --- registry ---------------------------------------------------------------------------------------

#: The keyword each suite takes for the CLI's size options p, cases and instances.
_SIZE_KEYWORDS = {
    "transpose": {"p": "max_p", "cases": "cases"},
    "oracles": {"instances": "instances"},
    "translate": {"cases": "cases"},
    "model-recovery": {"cases": "draws"},
}

ALL_SUITES: dict[str, Callable[[], CheckResult]] = {
    "exact-counts": suite_exact_counts,
    "transpose": suite_transpose,
    "oracles": suite_oracles,
    "supersteps": suite_supersteps,
    "sgl-express": suite_sgl_express,
    "nested": suite_nested,
    "translate": suite_translate,
    "model-recovery": suite_model_recovery,
    "determinism": suite_determinism,
    "recosting": suite_recosting,
}


def run_suites(
    names: Iterable[str] | None = None,
    *,
    p: int | None = None,
    cases: int | None = None,
    instances: int | None = None,
) -> list[CheckResult]:
    """Run the selected suites (default: all) at the configured sizes.

    Every suite runs: one that raises is reported as failed, with the error
    as its detail.
    """
    sizes = {k: v for k, v in (("p", p), ("cases", cases), ("instances", instances)) if v is not None}
    for flag, value in sizes.items():
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")
    selected = list(names) if names else list(ALL_SUITES)
    unknown = [name for name in selected if name not in ALL_SUITES]
    if unknown:
        raise UsageError(f"unknown suite {unknown[0]!r}; known: {', '.join(ALL_SUITES)}")
    results = []
    for name in selected:
        keywords = _SIZE_KEYWORDS.get(name, {})
        try:
            results.append(ALL_SUITES[name](**{keywords[k]: v for k, v in sizes.items() if k in keywords}))
        except Exception as exc:  # a broken suite must not hide the verdicts of the others
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
