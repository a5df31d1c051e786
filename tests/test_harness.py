"""Tests for the benchmark harness: grids, heatmaps, scenes, timing."""

import dataclasses
import json
import os

import numpy as np
import pytest

from csbench.baselines import CpConfig, OmpConfig
import csbench.harness
from csbench.cmatio import load_matrix
from csbench.errors import NotConverged, NumericalFailure
from csbench.harness import (DtCellResult, DtGridConfig, SolverCellStats,
                             SolverSettings, _write_csv,
                             _write_scene_outputs, emit_heatmap,
                             heatmap_values, make_instance, run_dt_grid,
                             run_scene_experiment, solve_one, time_crossover,
                             write_crossover_csv, write_grid_results_csv,
                             write_grid_timing_csv)
from csbench.metrics import METRIC_COLUMNS, metrics_json_record
from csbench.nkf import NkfConfig
from csbench.problem import SensingProblem
from csbench.sensing import SceneSpec


FAST = SolverSettings(nkf=NkfConfig(max_iter=2000), cp=CpConfig(max_iter=2000))


def test_make_instance_shapes_and_consistency():
    c, x, y = make_instance(16, 8, 3, seed=5)
    assert c.shape == (8, 16)
    assert x.shape == (16,)
    assert y.shape == (8,)
    assert np.count_nonzero(x) == 3
    assert np.allclose(y, c @ x)


def test_make_instance_deterministic():
    a = make_instance(16, 8, 3, seed=5)
    b = make_instance(16, 8, 3, seed=5)
    other = make_instance(16, 8, 3, seed=6)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)
    assert not np.array_equal(a[0], other[0])


def test_solve_one_dispatches_every_solver():
    c, x, y = make_instance(32, 16, 2, seed=13)
    problem = SensingProblem(c, y)
    settings = SolverSettings()
    for solver in ("nkf", "cp", "omp"):
        result = solve_one(solver, problem, settings, s_hint=2)
        assert result.solver == solver
        assert result.x_hat.shape == (32,)
        assert np.linalg.norm(result.x_hat - x) <= 1e-2


def test_solve_one_unknown_solver():
    c, _, y = make_instance(8, 4, 1, seed=0)
    with pytest.raises(ValueError):
        solve_one("lasso", SensingProblem(c, y), SolverSettings())


def test_solve_one_omp_hint_sets_budget():
    c, _, y = make_instance(16, 8, 3, seed=9)
    problem = SensingProblem(c, y)
    result = solve_one("omp", problem, SolverSettings(), s_hint=3)
    assert result.iterations <= 3


def test_solve_one_omp_hint_clamped_to_dims():
    # A hint above min(m, n) must not trip the budget validation.
    c, _, y = make_instance(8, 4, 2, seed=3)
    problem = SensingProblem(c, y)
    result = solve_one("omp", problem, SolverSettings(), s_hint=50)
    assert result.iterations <= 4


def test_solve_one_omp_explicit_budget_wins_over_hint():
    c, _, y = make_instance(16, 8, 3, seed=9)
    problem = SensingProblem(c, y)
    settings = SolverSettings(omp=OmpConfig(max_atoms=1))
    result = solve_one("omp", problem, settings, s_hint=5)
    assert result.iterations == 1


def test_dt_grid_config_validation():
    with pytest.raises(ValueError):
        DtGridConfig(n=1)
    with pytest.raises(ValueError):
        DtGridConfig(steps=1)
    with pytest.raises(ValueError):
        DtGridConfig(trials_per_cell=0)
    with pytest.raises(ValueError):
        DtGridConfig(solvers=())
    with pytest.raises(ValueError):
        DtGridConfig(solvers=("nkf", "ista"))
    with pytest.raises(ValueError, match="omp"):
        DtGridConfig(solvers=("omp", "nkf", "omp"))
    for field, value in (("n", 8.0), ("steps", 3.0),
                         ("trials_per_cell", 1.5), ("seed_base", 0.0)):
        with pytest.raises(TypeError):
            DtGridConfig(**{field: value})


@pytest.mark.parametrize("field", ["n", "steps", "trials_per_cell",
                                   "seed_base"])
def test_dt_grid_config_rejects_a_boolean_count(field):
    # True would pass operator.index and be written into the trials
    # column of grid_results.csv as "True".
    with pytest.raises(TypeError):
        DtGridConfig(**{field: True})


@pytest.fixture(scope="module")
def tiny_grid():
    config = DtGridConfig(n=8, steps=2, trials_per_cell=2,
                          solvers=("nkf", "cp"), seed_base=0)
    return config, run_dt_grid(config, FAST)


def test_dt_grid_shape_and_axes(tiny_grid):
    _, grid = tiny_grid
    assert len(grid) == 2 and all(len(row) == 2 for row in grid)
    # Rows are indexed by rho, columns by delta, both ascending.
    assert grid[0][0].delta == 0.0 and grid[0][0].rho == 0.0
    assert grid[0][1].delta == 1.0 and grid[0][1].rho == 0.0
    assert grid[1][0].rho == 1.0
    assert grid[1][1].m == 8 and grid[1][1].s == 8


def test_dt_grid_zero_rho_row_trivial(tiny_grid):
    _, grid = tiny_grid
    for cell in grid[0]:
        assert cell.s == 0
        for stats in cell.per_solver.values():
            assert stats.successes == stats.trials
            assert stats.success_rate == 1.0
            assert stats.mean_l2_error == 0.0
            assert stats.failures == 0


def test_dt_grid_dense_corner_nkf_succeeds(tiny_grid):
    # delta = rho = 1 makes the system square, so the particular
    # solution already solves it exactly and the nullspace is empty.
    _, grid = tiny_grid
    assert grid[1][1].per_solver["nkf"].success_rate == 1.0


def test_dt_grid_dense_corner_every_solver_succeeds():
    grid = run_dt_grid(DtGridConfig(n=8, steps=2, trials_per_cell=1,
                                    solvers=("nkf", "cp", "omp"),
                                    seed_base=0))
    for stats in grid[1][1].per_solver.values():
        assert stats.successes == 1
        assert stats.failures == 0


def test_dt_grid_failure_policy_at_the_iteration_cap():
    # A solve fails only when it raises. cp at its cap with a large
    # residual raises NotConverged, so it fails in every trial of the
    # capped cells; nkf at its cap returns a feasible iterate, which is
    # scored and never failed. Neither capped solve counts as a success.
    settings = SolverSettings(nkf=NkfConfig(max_iter=3),
                              cp=CpConfig(max_iter=3))
    grid = run_dt_grid(DtGridConfig(n=16, steps=3, trials_per_cell=2,
                                    solvers=("nkf", "cp"), seed_base=1),
                       settings)
    for row in grid:
        for cell in row:
            nkf, cp = cell.per_solver["nkf"], cell.per_solver["cp"]
            assert nkf.failures == 0
            # s = 0 is trivial, and a square system is solved directly.
            capped = cell.s > 0 and cell.m < 16
            assert cp.failures == (2 if capped else 0)
            if capped:
                assert nkf.successes == cp.successes == 0
                assert nkf.mean_l2_error > 0.1
                assert cp.mean_l2_error is not None
            else:
                assert nkf.successes == cp.successes == 2


def test_write_csv_cell_rule(tmp_path):
    # None is an empty cell, a float (numpy's too) its repr, else str.
    records = [
        metrics_json_record("nkf", 64, 16, 5,
                            {"rrmse": 0.25, "tcr_db": 6.5, "ie": 1.5,
                             "ic": 2.0, "fa": 1, "md": 0}),
        metrics_json_record("cp", 8, 4, 1,
                            {"rrmse": 0.0, "tcr_db": np.inf, "fa": 0,
                             "md": 0}),
        metrics_json_record("omp", 8, 4, 1, {}),
    ]
    path = tmp_path / "t.csv"
    _write_csv(path, METRIC_COLUMNS,
               [[r[k] for k in METRIC_COLUMNS] for r in records]
               + [[np.float64(0.5), np.float64(1e-17), None, np.int64(3),
                   "x", 2.0, 7, None, None, ""]])
    assert path.read_text(encoding="ascii") == (
        ",".join(METRIC_COLUMNS) + "\n"
        "nkf,64,16,5,0.25,6.5,1.5,2.0,1,0\n"
        "cp,8,4,1,0.0,,,,0,0\n"
        "omp,8,4,1,,,,,,\n"
        "0.5,1e-17,,3,x,2.0,7,,,\n")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_csv_rejects_non_finite_without_file(tmp_path, bad):
    path = tmp_path / "t.csv"
    with pytest.raises(NumericalFailure):
        _write_csv(path, ("a", "b"), [(1, 0.5), (2, np.float64(bad))])
    assert not path.exists()


def test_scene_outputs_reject_non_finite_without_file(tmp_path):
    record = {"seed": 0, **metrics_json_record("nkf", 4, 2, 1, {}),
              "l2_error": float("inf"), "termination": "max_iter"}
    out = tmp_path / "out"
    with pytest.raises(NumericalFailure):
        _write_scene_outputs([record], [(0, "nkf", 1.0)],
                             [(0, "nkf", np.zeros((2, 2)))], out)
    assert not out.exists()


def test_dt_grid_results_csv_schema_and_determinism(tiny_grid, tmp_path):
    config, grid = tiny_grid
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_grid_results_csv(grid, path_a)
    write_grid_results_csv(run_dt_grid(config, FAST), path_b)
    text_a = path_a.read_text(encoding="ascii")
    assert text_a.splitlines()[0] == (
        "delta_index,rho_index,delta,rho,m,s,solver,trials,"
        "successes,success_rate,mean_l2_error,failures")
    # 2x2 cells x 2 solvers data rows plus the header.
    assert len(text_a.splitlines()) == 9
    assert text_a == path_b.read_text(encoding="ascii")


def test_dt_grid_pool_matches_serial(tiny_grid, tmp_path, monkeypatch):
    config, grid = tiny_grid
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    write_grid_results_csv(grid, serial)
    monkeypatch.setenv("CSBENCH_THREADS", "2")
    write_grid_results_csv(run_dt_grid(config, FAST), pooled)
    assert serial.read_text(encoding="ascii") == pooled.read_text(
        encoding="ascii")


@pytest.mark.parametrize("raw", ["8x", "0", "-2", "", "1.5"])
def test_dt_grid_rejects_bad_thread_count(raw, monkeypatch):
    monkeypatch.setenv("CSBENCH_THREADS", raw)
    config = DtGridConfig(n=8, steps=2, trials_per_cell=1, solvers=("omp",))
    with pytest.raises(ValueError, match="CSBENCH_THREADS"):
        run_dt_grid(config, FAST)


def test_dt_grid_timing_csv_schema(tiny_grid, tmp_path):
    _, grid = tiny_grid
    path = tmp_path / "t.csv"
    write_grid_timing_csv(grid, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "delta_index,rho_index,solver,median_wall_time_ms"
    assert len(lines) == 9


def _fake_grid(rates):
    """2x2 grid with given success counts out of 10 for solver "nkf"."""
    steps = len(rates)
    grid = []
    for j in range(steps):
        row = []
        for i in range(steps):
            stats = SolverCellStats(trials=10, successes=rates[j][i],
                                    failures=0, mean_l2_error=0.1,
                                    median_wall_time_ms=1.0)
            row.append(DtCellResult(delta=i / (steps - 1), rho=j / (steps - 1),
                                    m=1 + i, s=j, per_solver={"nkf": stats}))
        grid.append(row)
    return grid


def test_heatmap_values_success_rate():
    grid = _fake_grid([[0, 10], [10, 0]])
    values = heatmap_values(grid, "success_rate.nkf")
    assert np.array_equal(values, [[0.0, 1.0], [1.0, 0.0]])


def test_heatmap_values_validation():
    grid = _fake_grid([[0, 10], [10, 0]])
    with pytest.raises(ValueError):
        heatmap_values(grid, "mean_iterations.nkf")
    # Timing is kept out of every heatmap.
    with pytest.raises(ValueError):
        heatmap_values(grid, "median_wall_time_ms.nkf")
    with pytest.raises(ValueError):
        heatmap_values(grid, "success_rate.cp")


def test_heatmap_values_missing_data_takes_max():
    grid = _fake_grid([[0, 10], [10, 0]])
    grid[0][0].per_solver["nkf"].mean_l2_error = None
    values = heatmap_values(grid, "mean_l2_error.nkf")
    assert values[0][0] == 0.1


def test_emit_heatmap_pgm_orientation(tmp_path):
    grid = _fake_grid([[0, 10], [10, 0]])
    csv_path, pgm_path = emit_heatmap(grid, "success_rate.nkf",
                                      tmp_path / "hm")
    lines = open(pgm_path, encoding="ascii").read().splitlines()
    assert lines[:3] == ["P2", "2 2", "255"]
    # Top raster row is the largest rho: successes (10, 0) -> (255, 0).
    assert lines[3] == "255 0"
    assert lines[4] == "0 255"


def test_emit_heatmap_constant_field_mid_gray(tmp_path):
    grid = _fake_grid([[5, 5], [5, 5]])
    _, pgm_path = emit_heatmap(grid, "success_rate.nkf", tmp_path / "hm")
    lines = open(pgm_path, encoding="ascii").read().splitlines()
    assert lines[3] == "128 128"
    assert lines[4] == "128 128"


def test_emit_heatmap_csv_round_trip(tmp_path):
    grid = _fake_grid([[0, 10], [10, 0]])
    csv_path, _ = emit_heatmap(grid, "success_rate.nkf", tmp_path / "hm")
    lines = open(csv_path, encoding="ascii").read().splitlines()
    assert lines[0] == "rho/delta,0.0,1.0"
    parsed = np.array([[float(v) for v in line.split(",")[1:]]
                       for line in lines[1:]])
    assert np.array_equal(parsed, heatmap_values(grid, "success_rate.nkf"))
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 1.0]


def test_scene_full_sampling_recovers_reference(tmp_path):
    scene = SceneSpec(n_r=8, n_a=8, n_scatterers=3,
                      target_region=(2, 6, 2, 6), seed=1)
    records = run_scene_experiment(scene, keep_fraction=1.0,
                                   solvers=("nkf",), seeds=(0, 1),
                                   out_dir=tmp_path / "out")
    by_solver = {}
    for rec in records:
        by_solver.setdefault(rec["solver"], []).append(rec)
    assert len(by_solver["reference"]) == 2
    assert len(by_solver["nkf"]) == 2
    for rec in by_solver["nkf"]:
        assert rec["rrmse"] <= 1e-6
        assert rec["fa"] == 0 and rec["md"] == 0
        assert rec["l2_error"] <= 1e-8
        assert rec["n"] == 64 and rec["m"] == 64 and rec["s"] == 3
    for rec in by_solver["reference"]:
        assert rec["rrmse"] is None
        # The reference image is the scene, whose clutter is silent.
        assert rec["tcr_db"] is None


def test_scene_output_files(tmp_path):
    out = tmp_path / "artifacts"
    scene = SceneSpec(n_r=8, n_a=8, n_scatterers=2,
                      target_region=(2, 6, 2, 6), seed=1)
    returned = run_scene_experiment(scene, keep_fraction=1.0,
                                    solvers=("nkf", "omp"), seeds=(7, 8),
                                    out_dir=out)
    lines = (out / "scene_metrics.csv").read_text(
        encoding="ascii").splitlines()
    assert lines[0] == "solver,n,m,s,rrmse,tcr_db,ie,ic,fa,md,seed"
    assert len(lines) == 7
    ref_row = lines[1].split(",")
    assert ref_row[0] == "reference"
    assert ref_row[4] == ""      # rrmse is undefined for the reference
    assert ref_row[-1] == "7"
    records = json.loads((out / "scene_metrics.json").read_text())
    assert records == returned
    assert [r["solver"] for r in records] == ["reference", "nkf", "omp"] * 2
    assert all("wall_time_ms" not in r for r in records)
    # Each solve's time goes to its own file, one row per solve.
    timing = (out / "scene_timing.csv").read_text(
        encoding="ascii").splitlines()
    assert timing[0] == "seed,solver,wall_time_ms"
    rows = [line.split(",") for line in timing[1:]]
    assert [r[:2] for r in rows] == [["7", "nkf"], ["7", "omp"],
                                     ["8", "nkf"], ["8", "omp"]]
    assert all(float(r[2]) >= 0.0 for r in rows)
    for name in ("reference", "nkf"):
        img = load_matrix(out / "images" / f"seed_7_{name}.cmat")
        assert img.shape == (8, 8)


def test_scene_zero_scatterers(tmp_path):
    scene = SceneSpec(n_r=8, n_a=8, n_scatterers=0,
                      target_region=(2, 6, 2, 6), seed=1)
    records = run_scene_experiment(scene, keep_fraction=1.0,
                                   solvers=("nkf",), seeds=(0,))
    # An all-zero reference image produces no reference record.
    assert [r["solver"] for r in records] == ["nkf"]
    rec = records[0]
    assert rec["fa"] == 0 and rec["md"] == 0
    assert rec["tcr_db"] is None and rec["ie"] is None


def test_scene_noise_degrades_reconstruction():
    scene = SceneSpec(n_r=8, n_a=8, n_scatterers=3,
                      target_region=(2, 6, 2, 6), seed=1)
    clean = run_scene_experiment(scene, keep_fraction=1.0,
                                 solvers=("nkf",), seeds=(0,))
    noisy = run_scene_experiment(scene, keep_fraction=1.0,
                                 solvers=("nkf",), seeds=(0,),
                                 noise_sigma=0.3)
    clean_rr = [r["rrmse"] for r in clean if r["solver"] == "nkf"][0]
    noisy_rr = [r["rrmse"] for r in noisy if r["solver"] == "nkf"][0]
    assert clean_rr <= 1e-6
    assert noisy_rr > 1e-4


def test_scene_survives_a_failed_solve(tmp_path, monkeypatch):
    # cp stops at its iteration cap; its partial result is scored and
    # written like the others, and its record says how it ended.
    def capped_cp(solver, problem, settings, s_hint=None):
        result = solve_one(solver, problem, settings, s_hint)
        if solver != "cp":
            return result
        raise NotConverged("cp hit its cap",
                           result=dataclasses.replace(result,
                                                      termination="max_iter"))

    monkeypatch.setattr(csbench.harness, "solve_one", capped_cp)
    scene = SceneSpec(n_r=8, n_a=8, n_scatterers=2,
                      target_region=(2, 6, 2, 6), seed=1)
    out = tmp_path / "out"
    records = run_scene_experiment(scene, keep_fraction=0.5,
                                   solvers=("nkf", "cp", "omp"),
                                   seeds=(0, 1), settings=FAST, out_dir=out)
    assert [r["solver"] for r in records] == [
        "reference", "nkf", "cp", "omp"] * 2
    terminations = {r["solver"]: r["termination"] for r in records
                    if r["solver"] != "reference"}
    assert terminations["cp"] == "max_iter"
    assert terminations["nkf"] == "converged"
    assert len((out / "scene_metrics.csv").read_text(
        encoding="ascii").splitlines()) == 9
    saved = json.loads((out / "scene_metrics.json").read_text())
    assert [r.get("termination") for r in saved] == [
        r.get("termination") for r in records]
    for seed in (0, 1):
        assert (out / "images" / f"seed_{seed}_cp.cmat").is_file()


def test_scene_unknown_solver():
    scene = SceneSpec(n_r=8, n_a=8, n_scatterers=1,
                      target_region=(2, 6, 2, 6), seed=1)
    with pytest.raises(ValueError):
        run_scene_experiment(scene, keep_fraction=1.0,
                             solvers=("fista",), seeds=(0,))


def test_scene_rejects_a_repeated_solver(tmp_path):
    scene = SceneSpec(n_r=8, n_a=8, n_scatterers=1,
                      target_region=(2, 6, 2, 6), seed=1)
    with pytest.raises(ValueError, match="omp"):
        run_scene_experiment(scene, keep_fraction=1.0,
                             solvers=("omp", "omp"), seeds=(0,),
                             out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_scene_rejects_a_repeated_seed(tmp_path, monkeypatch):
    scene = SceneSpec(n_r=8, n_a=8, n_scatterers=1,
                      target_region=(2, 6, 2, 6), seed=1)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the seeds were checked")
    monkeypatch.setattr(csbench.harness, "solve_one", no_solve)
    with pytest.raises(ValueError, match="seed 0 listed twice"):
        run_scene_experiment(scene, keep_fraction=1.0,
                             solvers=("omp",), seeds=(0, 1, 0),
                             out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_scene_rejects_an_empty_seed_list(tmp_path, monkeypatch):
    scene = SceneSpec(n_r=8, n_a=8, n_scatterers=1,
                      target_region=(2, 6, 2, 6), seed=1)

    def no_work(*args, **kwargs):
        raise AssertionError("worked before the seeds were checked")
    monkeypatch.setattr(csbench.harness, "gen_scene", no_work)
    monkeypatch.setattr(csbench.harness, "solve_one", no_work)
    for seeds in ([], ()):
        with pytest.raises(ValueError, match="empty seed list"):
            run_scene_experiment(scene, 0.5, ("nkf",), seeds,
                                 out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_time_crossover_rows_and_schema(tmp_path):
    rows = time_crossover(n=16, s=1, deltas=(0.5, 1.0),
                          solvers=("nkf", "omp"), repeats=2, seed_base=4,
                          settings=FAST)
    assert len(rows) == 4
    assert [(r["delta"], r["solver"]) for r in rows] == [
        (0.5, "nkf"), (0.5, "omp"), (1.0, "nkf"), (1.0, "omp")]
    assert rows[0]["m"] == 8 and rows[2]["m"] == 16
    for r in rows:
        assert r["repeats"] == 2
        assert r["median_wall_time_ms"] >= 0.0
    path = tmp_path / "x.csv"
    write_crossover_csv(rows, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "delta,m,solver,repeats,median_wall_time_ms"
    assert len(lines) == 5
    assert lines[1].startswith("0.5,8,nkf,2,")


def test_time_crossover_builds_each_instance_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return make_instance(*args)
    monkeypatch.setattr(csbench.harness, "make_instance", counted)
    rows = time_crossover(n=16, s=1, deltas=(0.5, 1.0),
                          solvers=("nkf", "cp", "omp"), repeats=3,
                          seed_base=4, settings=FAST)
    assert len(calls) == 2 * 3
    assert len(set(calls)) == len(calls)
    assert all(r["median_wall_time_ms"] is not None for r in rows)


def test_time_crossover_rejects_unknown_solver_before_solving(monkeypatch):
    calls = []
    monkeypatch.setattr(csbench.harness, "solve_one",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="fista"):
        time_crossover(n=16, s=1, deltas=(0.5,), solvers=("nkf", "fista"),
                       repeats=1)
    assert calls == []


@pytest.mark.parametrize("delta", [1.5, -0.5, 0.0, float("nan")])
def test_time_crossover_rejects_delta_outside_unit_interval(monkeypatch,
                                                             delta):
    calls = []
    monkeypatch.setattr(csbench.harness, "solve_one",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=rf"delta={delta} is not in \(0, 1\]"):
        time_crossover(n=16, s=2, deltas=(0.5, delta), solvers=("nkf",),
                       repeats=1)
    assert calls == []


def test_time_crossover_rejects_a_repeated_delta_before_solving(
        monkeypatch):
    calls = []
    monkeypatch.setattr(csbench.harness, "solve_one",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="delta 0.5 listed twice"):
        time_crossover(n=16, s=1, deltas=(0.5, 1.0, 0.5), solvers=("omp",),
                       repeats=1)
    assert calls == []


def test_time_crossover_validation():
    with pytest.raises(ValueError):
        time_crossover(n=16, s=3, deltas=(0.1,), solvers=("nkf",), repeats=1)
    with pytest.raises(ValueError):
        time_crossover(n=16, s=1, deltas=(0.5,), solvers=("nkf",), repeats=0)
    with pytest.raises(ValueError, match="omp"):
        time_crossover(n=16, s=1, deltas=(0.5,), solvers=("omp", "omp"),
                       repeats=1)
    with pytest.raises(TypeError):
        time_crossover(n=16, s=1, deltas=(0.5,), solvers=("omp",),
                       repeats=2.0)


@pytest.mark.parametrize("count", [
    {"n": 16.0}, {"s": 1.0}, {"repeats": True}, {"seed_base": 1.5},
    {"seed_base": True}, {"n": True},
])
def test_time_crossover_rejects_a_count_that_is_not_an_integer(monkeypatch,
                                                              count):
    # repeats=True would be written into the repeats column of
    # crossover.csv, and seed_base=1.5 would silently seed as 1.
    calls = []
    monkeypatch.setattr(csbench.harness, "solve_one",
                        lambda *args: calls.append(args))
    args = {"n": 16, "s": 1, "deltas": (0.5,), "solvers": ("omp",),
            "repeats": 1, "seed_base": 0, **count}
    with pytest.raises(TypeError):
        time_crossover(**args)
    assert calls == []
