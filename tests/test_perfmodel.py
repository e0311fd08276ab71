"""Sweeps, least-squares model fitting, surfaces, and their file formats."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bspkit.algorithms import build_program
from bspkit.engine import run
from bspkit.errors import UsageError
from bspkit.model import MachineConfig
from bspkit.perfmodel import (
    DEFAULT_BASIS,
    GridRow,
    SweepGrid,
    compile_basis_term,
    crossval,
    fit,
    grid_from_csv,
    grid_to_csv,
    model_from_json,
    model_to_json,
    parse_basis,
    predict,
    surface,
    surface_from_csv,
    surface_to_csv,
    sweep,
)


def synth_grid(fn, points, metric="cost"):
    return SweepGrid(rows=tuple(GridRow(p=p, n=n, metric=metric, value=float(fn(p, n)), env_id="synth") for p, n in points))


POINTS = [(p, n) for p in (1, 2, 4, 10) for n in (10, 100, 1000)]


class TestBasisParsing:
    def test_default_basis_evaluates(self):
        terms = parse_basis(DEFAULT_BASIS)
        values = [t.fn(4, 8) for t in terms]
        assert values == [1.0, 8.0, 4.0, 32.0, 2.0, 64.0]

    def test_caret_is_power(self):
        assert compile_basis_term("n^2").fn(1, 5) == 25.0

    def test_parenthesized(self):
        assert compile_basis_term("n*(p-1)").fn(4, 10) == 30.0

    def test_rejects_unknown_names(self):
        with pytest.raises(UsageError):
            compile_basis_term("n + q")

    def test_rejects_calls_and_attributes(self):
        with pytest.raises(UsageError):
            compile_basis_term("__import__('os')")
        with pytest.raises(UsageError):
            compile_basis_term("n.real")

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(UsageError):
            parse_basis("n,n")
        with pytest.raises(UsageError):
            parse_basis("")


class TestFit:
    def test_recovers_planted_coefficients(self):
        grid = synth_grid(lambda p, n: 2 + 3 * n + 5 * n / p, POINTS)
        model = fit(grid, ("1", "n", "n/p"))
        for got, want in zip(model.coefficients, (2.0, 3.0, 5.0)):
            assert abs(got - want) <= 1e-6 * abs(want)
        assert model.residuals.rms <= 1e-9
        assert model.residuals.max_abs <= 1e-6

    def test_constant_grid_r2_convention(self):
        grid = synth_grid(lambda p, n: 17.5, POINTS)
        model = fit(grid, ("1",))
        assert model.coefficients == (17.5,)
        assert model.residuals.r2 == 1.0

    def test_simulator_broadcast_grid_recovers_l_and_g(self):
        grid = sweep("broadcast", p_list=(2, 4, 8), n_list=(1, 10, 100), g=0.5, l=20.0)
        model = fit(grid, ("1", "n*(p-1)"))
        assert abs(model.coefficients[0] - 20.0) <= 1e-9
        assert abs(model.coefficients[1] - 0.5) <= 1e-9

    def test_fewer_rows_than_terms(self):
        grid = synth_grid(lambda p, n: n, [(2, 10), (2, 20)])
        with pytest.raises(UsageError):
            fit(grid, ("1", "n", "p"))

    def test_rank_deficient_minimum_norm_with_named_subset(self):
        grid = synth_grid(lambda p, n: 4 * n, POINTS)
        model = fit(grid, ("n", "2*n"))
        assert model.rank_deficient
        assert len(model.deficient_terms) == 1
        # minimum-norm solution of a + 2b = 4: (0.8, 1.6)
        assert abs(model.coefficients[0] - 0.8) <= 1e-9
        assert abs(model.coefficients[1] - 1.6) <= 1e-9
        assert model.residuals.rms <= 1e-9

    def test_reorder_invariance(self):
        grid = synth_grid(lambda p, n: 1 + 2 * n + 3 * p, POINTS)
        shuffled = SweepGrid(rows=tuple(reversed(grid.rows)))
        a = fit(grid, ("1", "n", "p"))
        b = fit(shuffled, ("1", "n", "p"))
        for pp, nn in ((3, 7), (5, 50)):
            assert abs(predict(a, pp, nn) - predict(b, pp, nn)) <= 1e-9

    def test_redundant_term_never_increases_rms(self):
        rng = random.Random(4)
        grid = SweepGrid(
            rows=tuple(
                GridRow(p=p, n=n, metric="cost", value=3 * n + rng.uniform(-1, 1), env_id="x") for p, n in POINTS
            )
        )
        small = fit(grid, ("1", "n"))
        big = fit(grid, ("1", "n", "n^2"))
        assert big.residuals.rms <= small.residuals.rms + 1e-12

    @given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_recovery_whenever_target_in_span(self, coeffs):
        terms = parse_basis(DEFAULT_BASIS)
        pts = [(p, n) for p in (1, 2, 3, 4, 6, 8) for n in (1, 2, 4, 8, 16, 32)]
        grid = synth_grid(lambda p, n: sum(c * t.fn(p, n) for c, t in zip(coeffs, terms)), pts)
        model = fit(grid, DEFAULT_BASIS)
        assert model.residuals.rms <= 1e-9


class TestPredictCrossval:
    def test_predict_reproduces_fitting_points(self):
        grid = synth_grid(lambda p, n: 2 + 3 * n + 5 * n / p, POINTS)
        model = fit(grid, ("1", "n", "n/p"))
        for row in grid.rows:
            assert abs(predict(model, row.p, row.n) - row.value) <= 1e-6

    def test_predict_arithmetic(self):
        model = fit(synth_grid(lambda p, n: 2 + 3 * n + 5 * n / p, POINTS), ("1", "n", "n/p"))
        assert abs(predict(model, 10, 100) - 352.0) <= 1e-6

    def test_crossval_at_least_fit_rms_on_noisy_data(self):
        rng = random.Random(21)
        pts = [(p, n) for p in (1, 2, 4, 8) for n in (5, 10, 20, 40, 80)]
        grid = SweepGrid(
            rows=tuple(
                GridRow(p=p, n=n, metric="cost", value=2 + 3 * n + rng.gauss(0, 2.0), env_id="x") for p, n in pts
            )
        )
        fitted = fit(grid, ("1", "n"))
        held = crossval(grid, ("1", "n"), k=5)
        assert held.rms >= fitted.residuals.rms

    def test_readers_default_to_the_grids_first_metric(self):
        memory = synth_grid(lambda p, n: 2 * n, POINTS, metric="memory")
        cost = synth_grid(lambda p, n: p + n, POINTS)
        grid = SweepGrid(rows=memory.rows + cost.rows)
        assert fit(grid, ("1", "n")).metric == "memory"
        assert fit(grid, ("1", "n")) == fit(grid, ("1", "n"), metric="memory")
        assert crossval(grid, ("1", "n", "p"), k=3) == crossval(grid, ("1", "n", "p"), k=3, metric="memory")
        assert crossval(grid, ("1", "n", "p"), k=3) != crossval(grid, ("1", "n", "p"), k=3, metric="cost")
        assert surface(grid) == surface(grid, metric="memory")
        assert surface(grid).values[0] == (20.0, 200.0, 2000.0)

    def test_crossval_k_validation(self):
        grid = synth_grid(lambda p, n: n, POINTS)
        with pytest.raises(UsageError):
            crossval(grid, ("1",), k=1)


class TestSurface:
    def test_complete_grid_no_interpolation(self):
        grid = synth_grid(lambda p, n: p * 100 + n, [(p, n) for p in (1, 2, 3) for n in (1, 2, 3)])
        s = surface(grid)
        assert s.kind == "surface"
        assert s.values[0] == (101.0, 102.0, 103.0)
        assert not any(any(row) for row in s.interpolated)

    def test_interior_hole_bilinear_fill(self):
        pts = [(p, n) for p in (1, 2, 3) for n in (10, 20, 30) if not (p == 2 and n == 20)]
        grid = synth_grid(lambda p, n: 10.0 * p + n, pts)
        s = surface(grid)
        # along p: (20+20)... hand: up=(1,20)->30, down=(3,20)->50 => 40; left=(2,10)->30, right=(2,30)->50 => 40
        assert s.values[1][1] == 40.0
        assert s.interpolated[1][1] is True

    def test_nonuniform_spacing_hole(self):
        pts = [(p, n) for p in (1, 2, 5) for n in (1, 10, 100) if not (p == 2 and n == 10)]
        grid = synth_grid(lambda p, n: 3.0 * p, pts)
        s = surface(grid)
        # along p through constant-in-n data: 3 + (15-3)*(2-1)/(5-1) = 6; along n: 6 flat -> mean is 6
        assert s.values[1][1] == 6.0

    def test_boundary_hole_stays_empty(self):
        pts = [(p, n) for p in (1, 2, 3) for n in (1, 2, 3) if not (p == 1 and n == 1)]
        s = surface(synth_grid(lambda p, n: float(p + n), pts))
        assert s.values[0][0] is None
        assert s.interpolated[0][0] is False

    def test_single_p_becomes_curve(self):
        s = surface(synth_grid(lambda p, n: float(n), [(4, 1), (4, 2), (4, 3)]))
        assert s.kind == "curve"
        assert s.p_values == (4,)

    def test_no_rows_for_metric(self):
        with pytest.raises(UsageError):
            surface(synth_grid(lambda p, n: 1.0, POINTS), metric="time")


class TestSweep:
    def test_single_cell_deterministic(self):
        a = sweep("broadcast", p_list=(4,), n_list=(100,))
        b = sweep("broadcast", p_list=(4,), n_list=(100,))
        assert [(r.p, r.n, r.metric, r.value) for r in a.rows] == [(r.p, r.n, r.metric, r.value) for r in b.rows]

    def test_broadcast_rows_match_closed_form(self):
        grid = sweep("broadcast", p_list=(2, 4, 8), n_list=(1, 10, 100), g=1.0, l=100.0)
        for row in grid.rows:
            assert row.value == 1.0 * (row.p - 1) * row.n + 100.0

    def test_memory_metric_on_simulate(self):
        grid = sweep("broadcast", p_list=(4,), n_list=(10,), metrics=("cost", "memory"))
        metrics = {r.metric for r in grid.rows}
        assert metrics == {"cost", "memory"}
        mem = next(r for r in grid.rows if r.metric == "memory")
        assert mem.value >= 10.0  # every non-root pid receives the 10-word payload

    def test_exact_metrics_on_parallel_equal_simulate(self):
        cells = dict(p_list=(1, 4), n_list=(1, 10), metrics=("memory", "cost"))
        rows = lambda grid: [(r.p, r.n, r.metric, r.value) for r in grid.rows]
        assert rows(sweep("broadcast", backend="parallel", **cells)) == rows(sweep("broadcast", **cells))

    def test_parallel_median_of_repetitions(self):
        grid = sweep("reduce", p_list=(2,), n_list=(50,), backend="parallel", repetitions=3)
        assert len(grid.rows) == 1
        assert grid.rows[0].metric == "time"
        assert grid.rows[0].value > 0.0

    def test_parallel_rerun_medians_within_jitter_tolerance(self):
        # a workload long enough that scheduling noise stays far below 10x
        def median_of(run_idx):
            grid = sweep("samplesort", p_list=(2,), n_list=(20000,), backend="parallel", repetitions=3, seed=run_idx)
            return grid.rows[0].value

        a, b = median_of(0), median_of(0)
        assert max(a, b) / min(a, b) < 10.0

    def test_parallel_rows_carry_the_environment_of_their_runs(self):
        grid = sweep("broadcast", p_list=(1, 4), n_list=(1,), backend="parallel")
        environments = dict(grid.environments)
        assert len(environments) == len(grid.environments) == len({row.env_id for row in grid.rows})
        for row in grid.rows:
            expected = run(build_program("broadcast", row.n, 0), MachineConfig(p=row.p), backend="parallel").environment
            recorded = environments[row.env_id]
            assert (recorded["cores_used"], recorded["threads"]) == (expected.cores_used, expected.threads)

    def test_time_metric_needs_parallel(self):
        with pytest.raises(UsageError):
            sweep("reduce", p_list=(2,), n_list=(10,), metrics=("time",))

    def test_unknown_algorithm(self):
        with pytest.raises(UsageError):
            sweep("nope", p_list=(2,), n_list=(10,))

    def test_empty_lists(self):
        with pytest.raises(UsageError):
            sweep("reduce", p_list=(), n_list=(10,))


class TestFormats:
    def test_grid_csv_round_trip(self):
        grid = sweep("broadcast", p_list=(2, 4), n_list=(1, 10))
        text = grid_to_csv(grid)
        assert grid_to_csv(grid_from_csv(text)) == text

    def test_grid_csv_round_trip_at_the_lower_bounds(self):
        grid = sweep("broadcast", p_list=(1, 2), n_list=(0, 3), metrics=("cost", "memory"))
        assert {row.p for row in grid.rows} == {1, 2} and {row.n for row in grid.rows} == {0, 3}
        assert grid_from_csv(grid_to_csv(grid)) == grid

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,3,cost,1.0,e", "0 is not a number >= 1"),
            ("-1,-5,cost,nan,e", "-1 is not a number >= 1"),
            ("2,-5,cost,1.0,e", "-5 is not a finite number >= 0"),
            ("2,3,cost,-1.0,e", "-1.0 is not a finite number >= 0"),
            ("2,3,cost,nan,e", "nan is not a finite number >= 0"),
            ("2,3,cost,inf,e", "inf is not a finite number >= 0"),
        ],
    )
    def test_grid_csv_cell_out_of_range_is_a_usage_error(self, row, message):
        text = '# env:e={}\np,n,metric,value,env_id\n1,0,cost,0.0,e\n' + row + "\n"
        with pytest.raises(UsageError, match=f"malformed grid CSV at line 4: {message}$"):
            grid_from_csv(text)

    def test_grid_csv_bad_line_number(self):
        text = "p,n,metric,value,env_id\n2,xx,cost,1.0,e\n"
        with pytest.raises(UsageError, match="line 2"):
            grid_from_csv(text)

    def test_grid_csv_missing_header(self):
        with pytest.raises(UsageError, match="header"):
            grid_from_csv("2,1,cost,1.0,e\n")

    def test_model_json_round_trip(self):
        model = fit(synth_grid(lambda p, n: 2 + 3 * n, POINTS), ("1", "n"))
        text = model_to_json(model)
        assert model_to_json(model_from_json(text)) == text

    def test_rank_deficient_model_json_round_trip(self):
        model = fit(synth_grid(lambda p, n: 4 * n, POINTS), ("n", "2*n"))
        text = model_to_json(model)
        assert json.loads(text)["rank_deficient"] is True
        assert model_from_json(text) == model and model_from_json(text).rank_deficient

    def test_surface_csv_round_trip(self):
        pts = [(p, n) for p in (1, 2, 3) for n in (1, 2, 3) if not (p == 2 and n == 2)]
        s = surface(synth_grid(lambda p, n: float(p * n), pts))
        text = surface_to_csv(s)
        assert surface_to_csv(surface_from_csv(text)) == text

    def test_curve_csv_round_trip(self):
        s = surface(synth_grid(lambda p, n: float(n), [(4, 1), (4, 2)]))
        text = surface_to_csv(s)
        assert surface_to_csv(surface_from_csv(text)) == text
        assert text.splitlines()[1] == "n,value"

    def test_fixed_n_curve_csv_round_trip(self):
        s = surface(synth_grid(lambda p, n: float(p), [(1, 8), (2, 8), (4, 8)]))
        text = surface_to_csv(s)
        assert text.splitlines()[:2] == ["# curve metric=cost n=8", "p,value"]
        assert surface_from_csv(text) == s

    @pytest.mark.parametrize(
        "text",
        [
            "# surface metric=cost\n,1,2\n1,1.0,2.0\n2,3.0,4.0\n",  # no interpolated block
            "# curve metric=cost\nn,value\n1,2.0\n",  # neither p= nor n=
            "# curve metric=cost p=4\nn,value\n1,abc\n",
            "# curve metric=cost p=x\nn,value\n1,2.0\n",
            "# surface metric=cost\n,1,2\n1,1.0,oops\n2,3.0,4.0\n# interpolated\n,1,2\n1,0,0\n2,0,0\n",
            "# surface metric=cost\n,1,2\n1,1.0,2.0\n# interpolated\n,1,2\n1,0,0\n",  # one p is a curve
            "# surface metric\n",
            "#\n",
        ],
    )
    def test_malformed_surface_csv_is_a_usage_error(self, text):
        with pytest.raises(UsageError, match="malformed surface CSV"):
            surface_from_csv(text)

    @pytest.mark.parametrize(
        "text",
        [
            "# surface metric=cost\n,1,2\n1,1.0\n2,3.0,4.0\n# interpolated\n,1,2\n1,0,0\n2,0,0\n",
            "# surface metric=cost\n,1,2\n1,1.0,2.0,5.0\n2,3.0,4.0\n# interpolated\n,1,2\n1,0,0\n2,0,0\n",
            "# surface metric=cost\n,1,2\n1,1.0,2.0\n2,3.0,4.0\n# interpolated\n,1,2\n1,0,0\n2,0\n",
        ],
    )
    def test_surface_row_not_as_wide_as_the_header_is_a_usage_error(self, text):
        with pytest.raises(UsageError, match="malformed surface CSV: row .* has [13] cells, the header has 2 n values"):
            surface_from_csv(text)

    def test_grid_csv_unknown_metric_is_a_usage_error(self):
        lines = grid_to_csv(sweep("broadcast", p_list=(2,), n_list=(1, 10))).splitlines()
        lines[-1] = lines[-1].replace(",cost,", ",bogus,")
        with pytest.raises(UsageError, match=f"line {len(lines)}: unknown metric 'bogus'"):
            grid_from_csv("\n".join(lines) + "\n")

    def test_grid_csv_row_without_an_environment_is_a_usage_error(self):
        lines = grid_to_csv(sweep("broadcast", p_list=(2,), n_list=(1, 10))).splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nowhere"
        with pytest.raises(UsageError, match=f"line {len(lines)}: env_id 'nowhere' has no '# env:' line"):
            grid_from_csv("\n".join(lines) + "\n")

    def test_non_numeric_model_coefficient_is_a_usage_error(self):
        obj = json.loads(model_to_json(fit(synth_grid(lambda p, n: 2 + 3 * n, POINTS), ("1", "n"))))
        obj["coefficients"][1] = "three"
        with pytest.raises(UsageError, match="malformed model JSON"):
            model_from_json(json.dumps(obj))
