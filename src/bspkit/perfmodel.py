"""Benchmark sweeps over (processors x data size) and polynomial model fitting.

A sweep runs one algorithm over a grid of (p, n) cells.  Each cell is a
``run``: once on the simulate backend, ``repetitions`` times on the parallel
backend.  It records one value per metric per cell, each metric being one
entry of ``METRICS``: the exact model cost, the exact peak words per pid, or
the median wall-clock seconds (parallel only).  Each row names the
environment record of its own runs, so a parallel sweep carries one record
per distinct ``cores_used``.  ``fit``, ``crossval`` and ``surface`` read one
metric, by default the grid's first.  A model is a list of named basis terms
over (p, n) fitted by linear least squares; ``surface`` reshapes a grid into
a plot-ready matrix with a header row of n values and a leading column of p
values.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import statistics
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .algorithms import build_program
from .engine import run, stable_digest
from .errors import UsageError
from .model import DEFAULT_G, DEFAULT_L, DEFAULT_R, Column, MachineConfig, _at_least_0, read_columns, write_columns

#: Each metric a sweep can record: its value for one cell, read from the cell's run reports.
METRICS = {
    "cost": lambda reports: reports[0].trace.total_cost,
    "time": lambda reports: statistics.median(report.wall_time for report in reports),
    "memory": lambda reports: reports[0].peak_words,
}

#: Low-degree polynomial terms plus the rational n/p term parallel laws need.
DEFAULT_BASIS = ("1", "n", "p", "n*p", "n/p", "n^2")


# --- basis terms ----------------------------------------------------------------

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Constant,
    ast.Name,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Load,
)


@dataclass(frozen=True)
class BasisTerm:
    name: str
    fn: Callable[[float, float], float]


def compile_basis_term(expr: str) -> BasisTerm:
    """Compile an arithmetic expression over p and n (e.g. "n*(p-1)", "n^2")."""
    text = expr.strip().replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise UsageError(f"cannot parse basis term {expr!r}: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise UsageError(f"basis term {expr!r} uses unsupported syntax ({type(node).__name__})")
        if isinstance(node, ast.Name) and node.id not in ("p", "n"):
            raise UsageError(f"basis term {expr!r} references unknown variable {node.id!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise UsageError(f"basis term {expr!r} contains a non-numeric constant")
    code = compile(tree, f"<basis {expr!r}>", "eval")

    def fn(p: float, n: float) -> float:
        return float(eval(code, {"__builtins__": {}}, {"p": p, "n": n}))

    return BasisTerm(name=expr.strip(), fn=fn)


def parse_basis(spec: str | Sequence[str]) -> tuple[BasisTerm, ...]:
    names = [s for s in (spec.split(",") if isinstance(spec, str) else spec) if str(s).strip()]
    if not names:
        raise UsageError("empty basis")
    terms = tuple(compile_basis_term(str(s)) for s in names)
    seen = set()
    for t in terms:
        if t.name in seen:
            raise UsageError(f"duplicate basis term {t.name!r}")
        seen.add(t.name)
    return terms


# --- sweep grids ----------------------------------------------------------------


@dataclass(frozen=True)
class GridRow:
    p: int
    n: int
    metric: str
    value: float
    env_id: str


@dataclass(frozen=True)
class SweepGrid:
    rows: tuple[GridRow, ...]
    environments: tuple[tuple[str, dict], ...] = ()

    def select(self, metric: str) -> list[GridRow]:
        return [r for r in self.rows if r.metric == metric]


def _metric_rows(grid: SweepGrid, metric: str | None) -> tuple[str, list[GridRow]]:
    """The metric to read, by default the grid's first, and its rows."""
    metric = metric or (grid.rows[0].metric if grid.rows else "cost")
    return metric, grid.select(metric)


def sweep(
    algorithm: str,
    p_list: Sequence[int],
    n_list: Sequence[int],
    backend: str = "simulate",
    repetitions: int = 1,
    *,
    metrics: Sequence[str] | None = None,
    g: float = DEFAULT_G,
    l: float = DEFAULT_L,
    r: float = DEFAULT_R,
    seed: int = 0,
    distribution: str = "uniform",
    env: dict | None = None,
) -> SweepGrid:
    """One row per (p, n) cell per metric.

    simulate cells are exact and ignore ``repetitions`` (noted in the
    environment record).  Every metric is available on both backends except
    ``time``, the median wall time, which needs the parallel backend.  A
    row's ``env_id`` is the digest of its runs' environment record without
    the timestamp; the grid holds each distinct record once.
    """
    if not p_list or not n_list:
        raise UsageError("p_list and n_list must be non-empty")
    if repetitions < 1:
        raise UsageError("repetitions must be >= 1")
    if metrics is None:
        metrics = ("time",) if backend == "parallel" else ("cost",)
    for m in metrics:
        if m not in METRICS:
            raise UsageError(f"unknown metric {m!r}; expected one of {', '.join(METRICS)}")
        if m == "time" and backend != "parallel":
            raise UsageError("the time metric needs the parallel backend")

    overrides = dict(env or {})
    if backend == "simulate" and repetitions > 1:
        overrides.setdefault("repetitions", f"{repetitions} requested, ignored (simulate is exact)")
    runs = repetitions if backend == "parallel" else 1

    rows: list[GridRow] = []
    environments: dict[str, dict] = {}
    for p in p_list:
        machine = MachineConfig(p=int(p), g=g, l=l, r=r)
        for n in n_list:
            program = build_program(algorithm, int(n), seed, distribution)
            reports = [run(program, machine, backend=backend, env=overrides) for _ in range(runs)]
            env_dict = reports[0].environment.to_dict()
            env_id = stable_digest({k: v for k, v in env_dict.items() if k != "timestamp"})[:12]
            environments.setdefault(env_id, env_dict)
            for m in metrics:
                rows.append(GridRow(p=int(p), n=int(n), metric=m, value=float(METRICS[m](reports)), env_id=env_id))
            del reports  # before the next cell runs, so that two cells' results never coexist
    return SweepGrid(rows=tuple(rows), environments=tuple(environments.items()))


# --- models -----------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualStats:
    max_abs: float
    rms: float
    r2: float


@dataclass(frozen=True)
class PerfModel:
    """Fitted linear model: value ~ sum(coefficients[i] * basis[i](p, n))."""

    basis: tuple[str, ...]
    coefficients: tuple[float, ...]
    residuals: ResidualStats
    metric: str = "cost"
    deficient_terms: tuple[str, ...] = ()

    @property
    def rank_deficient(self) -> bool:
        return bool(self.deficient_terms)


def _design_matrix(rows: Sequence[GridRow], terms: Sequence[BasisTerm]) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([[t.fn(row.p, row.n) for t in terms] for row in rows], dtype=float)
    y = np.array([row.value for row in rows], dtype=float)
    if not np.all(np.isfinite(a)):
        raise UsageError("basis terms are not finite on every grid point")
    return a, y


def _residual_stats(y: np.ndarray, pred: np.ndarray) -> ResidualStats:
    resid = y - pred
    if len(y) == 0:
        return ResidualStats(0.0, 0.0, 1.0)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    # zero-variance convention: a perfect constant fit scores 1
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ResidualStats(
        max_abs=float(np.max(np.abs(resid))),
        rms=float(np.sqrt(np.mean(resid * resid))),
        r2=r2,
    )


def fit(grid: SweepGrid, basis: str | Sequence[str] = DEFAULT_BASIS, metric: str | None = None) -> PerfModel:
    """Least-squares fit of the metric's rows over the basis.

    Solved through an orthogonal decomposition (SVD); a rank-deficient design
    matrix yields the minimum-norm solution, flags the model, and names the
    basis subset that is linearly dependent on the rest.
    """
    terms = parse_basis(basis)
    metric, rows = _metric_rows(grid, metric)
    if len(rows) < len(terms):
        raise UsageError(f"{len(rows)} rows for metric {metric!r} cannot fit {len(terms)} basis terms")
    a, y = _design_matrix(rows, terms)
    coef, _sq, rank, _sv = np.linalg.lstsq(a, y, rcond=None)
    deficient: tuple[str, ...] = ()
    if rank < len(terms):
        import scipy.linalg  # imported at its one use: at module level it doubles the time to import bspkit.cli

        _q, _rm, piv = scipy.linalg.qr(a, pivoting=True)
        deficient = tuple(sorted(terms[j].name for j in piv[rank:]))
    return PerfModel(
        basis=tuple(t.name for t in terms),
        coefficients=tuple(float(c) for c in coef),
        residuals=_residual_stats(y, a @ coef),
        metric=metric,
        deficient_terms=deficient,
    )


def predict(model: PerfModel, p: int, n: int) -> float:
    terms = parse_basis(model.basis)
    return float(sum(c * t.fn(p, n) for c, t in zip(model.coefficients, terms)))


def crossval(grid: SweepGrid, basis: str | Sequence[str], k: int, metric: str | None = None) -> ResidualStats:
    """k-fold held-out residuals; folds assigned round-robin by row index."""
    if k < 2:
        raise UsageError("crossval needs k >= 2")
    terms = parse_basis(basis)
    metric, rows = _metric_rows(grid, metric)
    if len(rows) < k:
        raise UsageError(f"{len(rows)} rows cannot be split into {k} folds")
    a, y = _design_matrix(rows, terms)
    held_pred = np.zeros(len(rows))
    for fold in range(k):
        test = np.array([i % k == fold for i in range(len(rows))])
        coef, _sq, _rank, _sv = np.linalg.lstsq(a[~test], y[~test], rcond=None)
        held_pred[test] = a[test] @ coef
    return _residual_stats(y, held_pred)


# --- surfaces ----------------------------------------------------------------------


@dataclass(frozen=True)
class Surface:
    """Plot-ready matrix (or curve, when one axis has a single value)."""

    metric: str
    p_values: tuple[int, ...]
    n_values: tuple[int, ...]
    values: tuple[tuple[float | None, ...], ...]  # rows indexed by p, columns by n
    interpolated: tuple[tuple[bool, ...], ...]

    @property
    def kind(self) -> str:
        return "surface" if len(self.p_values) >= 2 and len(self.n_values) >= 2 else "curve"


def surface(grid: SweepGrid, metric: str | None = None) -> Surface:
    """Reshape a grid to a p x n matrix, bilinearly filling interior holes.

    Cells with no measurement and no four-neighbour support stay empty (NA);
    with fewer than 2 distinct p or n values the result degrades to a curve.
    """
    metric, rows = _metric_rows(grid, metric)
    if not rows:
        raise UsageError(f"no rows for metric {metric!r}")
    cells = {(r.p, r.n): r.value for r in rows}
    ps = tuple(sorted({r.p for r in rows}))
    ns = tuple(sorted({r.n for r in rows}))
    values = [[cells.get((p, n)) for n in ns] for p in ps]
    flags = [[False] * len(ns) for _ in ps]
    for i, p in enumerate(ps):  # a curve has no holes: each of its p (or n) values came with a row
        for j, n in enumerate(ns):
            if values[i][j] is not None:
                continue
            filled = _bilinear(values, ps, ns, i, j)
            if filled is not None:
                values[i][j] = filled
                flags[i][j] = True
    return Surface(
        metric=metric,
        p_values=ps,
        n_values=ns,
        values=tuple(tuple(row) for row in values),
        interpolated=tuple(tuple(row) for row in flags),
    )


def _nearest(values, i, j, di, dj):
    """First present cell walking from (i, j) in direction (di, dj)."""
    rows, cols = len(values), len(values[0])
    i, j = i + di, j + dj
    while 0 <= i < rows and 0 <= j < cols:
        if values[i][j] is not None:
            return i, j
        i, j = i + di, j + dj
    return None


def _bilinear(values, ps, ns, i, j):
    """Average of the two axis-wise linear interpolations through (i, j)."""
    up = _nearest(values, i, j, -1, 0)
    down = _nearest(values, i, j, 1, 0)
    left = _nearest(values, i, j, 0, -1)
    right = _nearest(values, i, j, 0, 1)
    if up is None or down is None or left is None or right is None:
        return None
    (iu, _), (idn, _) = up, down
    (_, jl), (_, jr) = left, right
    t_p = (ps[i] - ps[iu]) / (ps[idn] - ps[iu])
    along_p = values[iu][j] + (values[idn][j] - values[iu][j]) * t_p
    t_n = (ns[j] - ns[jl]) / (ns[jr] - ns[jl])
    along_n = values[i][jl] + (values[i][jr] - values[i][jl]) * t_n
    return (along_p + along_n) / 2.0


# --- serialization -------------------------------------------------------------------

def _known_metric(cell: str) -> str:
    if cell not in METRICS:
        raise ValueError(f"unknown metric {cell!r}; expected one of {', '.join(METRICS)}")
    return cell


def _at_least_1(number: int) -> int:
    if number < 1:
        raise ValueError(f"{number} is not a number >= 1")
    return number


#: The columns of a grid CSV row, in order.
GRID_COLUMNS = (
    Column("p", "p", lambda cell: _at_least_1(int(cell))),
    Column("n", "n", lambda cell: _at_least_0(int(cell))),
    Column("metric", "metric", _known_metric),
    Column("value", "value", lambda cell: _at_least_0(float(cell)), write=lambda value: repr(float(value))),
    Column("env_id", "env_id", str),
)


def grid_to_csv(grid: SweepGrid) -> str:
    lines = ["# bspkit-grid v1"]
    for env_id, env in sorted(grid.environments):
        lines.append(f"# env:{env_id}={json.dumps(env, sort_keys=True)}")
    return "\n".join(lines) + "\n" + write_columns(GRID_COLUMNS, grid.rows)


def grid_from_csv(text: str) -> SweepGrid:
    environments: list[tuple[str, dict]] = []
    table: list[tuple[int, str]] = []  # the numbered lines of the header and the rows
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("env:") and "=" in body:
                env_id, payload = body[4:].split("=", 1)
                try:
                    environments.append((env_id, json.loads(payload)))
                except json.JSONDecodeError as exc:
                    raise UsageError(f"malformed grid CSV at line {lineno}: bad environment JSON ({exc})") from exc
        elif line.strip():
            table.append((lineno, line))
    rows = list(read_columns(table, GRID_COLUMNS, "grid CSV", GridRow))
    known = {env_id for env_id, _env in environments}
    for lineno, row in rows:
        if row.env_id not in known:
            raise UsageError(f"malformed grid CSV at line {lineno}: env_id {row.env_id!r} has no '# env:' line")
    return SweepGrid(rows=tuple(row for _lineno, row in rows), environments=tuple(environments))


def model_to_json(model: PerfModel, env: dict | None = None) -> str:
    obj = {**dataclasses.asdict(model), "rank_deficient": model.rank_deficient}
    if env is not None:
        obj["environment"] = env
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def model_from_json(text: str) -> PerfModel:
    try:
        obj = json.loads(text)
        return PerfModel(
            basis=tuple(obj["basis"]),
            coefficients=tuple(float(c) for c in obj["coefficients"]),
            residuals=ResidualStats(
                max_abs=float(obj["residuals"]["max_abs"]),
                rms=float(obj["residuals"]["rms"]),
                r2=float(obj["residuals"]["r2"]),
            ),
            metric=obj.get("metric", "cost"),
            deficient_terms=tuple(obj.get("deficient_terms", ())),
        )
    except (ValueError, KeyError, TypeError) as exc:  # json.JSONDecodeError is a ValueError
        raise UsageError(f"malformed model JSON: {exc}") from exc


def surface_to_csv(surf: Surface) -> str:
    lines: list[str] = []
    if surf.kind == "curve":
        # a single row (fixed p) or a single column (fixed n): its cells in order
        axes = [("p", surf.p_values), ("n", surf.n_values)]
        (fixed, at), (axis, keys) = axes if len(surf.p_values) == 1 else axes[::-1]
        lines.append(f"# curve metric={surf.metric} {fixed}={at[0]}")
        lines.append(f"{axis},value")
        for key, v in zip(keys, (v for row in surf.values for v in row)):
            lines.append(f"{key},{'NA' if v is None else repr(float(v))}")
        return "\n".join(lines) + "\n"
    lines.append(f"# surface metric={surf.metric}")
    lines.append("," + ",".join(str(n) for n in surf.n_values))
    for i, p in enumerate(surf.p_values):
        cells = ["NA" if v is None else repr(float(v)) for v in surf.values[i]]
        lines.append(f"{p}," + ",".join(cells))
    lines.append("# interpolated")
    lines.append("," + ",".join(str(n) for n in surf.n_values))
    for i, p in enumerate(surf.p_values):
        lines.append(f"{p}," + ",".join("1" if f else "0" for f in surf.interpolated[i]))
    return "\n".join(lines) + "\n"


def _reshape(cells: Sequence, rows: int, width: int) -> tuple[tuple, ...]:
    """A row-major sequence of cells as ``rows`` rows of ``width`` cells."""
    return tuple(tuple(cells[i * width : (i + 1) * width]) for i in range(rows))


def _block_rows(lines: Sequence[str], width: int) -> Iterator[tuple[str, list[str]]]:
    """(key, cells) of each row of a surface block, every row holding one cell per n value."""
    for ln in lines:
        key, *cells = ln.split(",")
        if len(cells) != width:
            raise ValueError(f"row {ln!r} has {len(cells)} cells, the header has {width} n values")
        yield key, cells


def surface_from_csv(text: str) -> Surface:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise UsageError("malformed surface CSV: missing kind header")
    try:
        kind, *head = lines[0][1:].split() or [""]
        fields = dict(part.split("=", 1) for part in head)
        metric = fields.get("metric", "cost")
        if kind == "curve":
            axis = next((a for a in ("p", "n") if a in fields), None)
            if axis is None:
                raise ValueError("a curve header needs p= or n=")
            pts = [ln.split(",", 1) for ln in lines[2:]]
            fixed, keys = (int(fields[axis]),), tuple(int(key) for key, _ in pts)
            ps, ns = (fixed, keys) if axis == "p" else (keys, fixed)
            cells = [None if val == "NA" else float(val) for _, val in pts]
            surf = Surface(metric, ps, ns, _reshape(cells, len(ps), len(ns)), _reshape([False] * len(cells), len(ps), len(ns)))
        elif kind == "surface":
            if "# interpolated" not in lines:
                raise ValueError("missing '# interpolated' block")
            split = lines.index("# interpolated")
            n_values = tuple(int(x) for x in lines[1].split(",")[1:])
            p_values: list[int] = []
            values: list[tuple[float | None, ...]] = []
            for key, cells in _block_rows(lines[2:split], len(n_values)):
                p_values.append(int(key))
                values.append(tuple(None if c == "NA" else float(c) for c in cells))
            flags = [tuple(c == "1" for c in cells) for _, cells in _block_rows(lines[split + 2 :], len(n_values))]
            surf = Surface(metric, tuple(p_values), n_values, tuple(values), tuple(flags))
        else:
            raise ValueError(f"unknown kind {kind!r}")
        if surf.kind != kind:
            raise ValueError(f"{len(surf.p_values)} p by {len(surf.n_values)} n values is not a {kind}")
    except ValueError as exc:
        raise UsageError(f"malformed surface CSV: {exc}") from exc
    return surf
