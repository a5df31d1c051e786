"""End-to-end tests of the csbench command line entry point."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import csbench.cli
from csbench import cmatio
from csbench.cli import _load_config, main
from csbench.errors import NumericalFailure
from csbench.harness import SolverSettings, make_instance
from csbench.problem import RecoveryResult


def _write_instance(tmp_path, n=16, m=8, s=2, seed=0):
    c, x, y = make_instance(n, m, s, seed=seed)
    mat = tmp_path / "c.cmat"
    vec = tmp_path / "y.cmat"
    cmatio.save_matrix(mat, c)
    cmatio.save_vector(vec, y)
    return mat, vec, x


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "csbench" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert main(["tune"]) == 1
    assert "error" in capsys.readouterr().err


def test_gen_gaussian(tmp_path, capsys):
    out = tmp_path / "c.cmat"
    assert main(["gen", "--kind", "gaussian", "--m", "4", "--n", "8",
                 "--seed", "3", "--out", str(out)]) == 0
    c = cmatio.load_matrix(out)
    assert c.shape == (4, 8)
    assert np.allclose(np.linalg.norm(c, axis=0), 1.0)
    assert "wrote 4x8 matrix" in capsys.readouterr().out


def test_gen_gaussian_missing_dims(tmp_path, capsys):
    out = tmp_path / "c.cmat"
    assert main(["gen", "--kind", "gaussian", "--m", "4",
                 "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err


def test_gen_missing_out_flag():
    assert main(["gen", "--kind", "gaussian", "--m", "4", "--n", "8"]) == 1


def test_gen_fourier2d(tmp_path):
    out = tmp_path / "f.cmat"
    assert main(["gen", "--kind", "fourier2d", "--nr", "4", "--na", "4",
                 "--keep", "0.5", "--seed", "1", "--out", str(out)]) == 0
    c = cmatio.load_matrix(out)
    assert c.shape == (8, 16)
    kept = cmatio.load_indices(f"{out}.indices.txt")
    assert len(kept) == 8
    assert sorted(set(kept)) == list(kept)


@pytest.mark.parametrize("solver", ["nkf", "cp", "omp"])
def test_solve_each_solver(tmp_path, solver, capsys):
    mat, vec, x = _write_instance(tmp_path, n=32, m=16, s=2, seed=13)
    out = tmp_path / "result.json"
    assert main(["solve", "--solver", solver, "--matrix", str(mat),
                 "--measurements", str(vec), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["solver"] == solver
    assert data["n"] == 32 and data["m"] == 16
    assert data["iterations"] >= 1
    x_hat = np.array([complex(re, im) for re, im in data["x_hat"]])
    assert np.linalg.norm(x_hat - x) <= 1e-2
    assert solver in capsys.readouterr().out


def test_solve_nkf_with_full_config(tmp_path):
    mat, vec, x = _write_instance(tmp_path, n=32, m=16, s=2, seed=13)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "max_iter": 5000,
        "schedule_mode": "aitken-steffensen",
    }))
    out = tmp_path / "result.json"
    assert main(["solve", "--solver", "nkf", "--matrix", str(mat),
                 "--measurements", str(vec), "--config", str(cfg),
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    x_hat = np.array([complex(re, im) for re, im in data["x_hat"]])
    assert np.linalg.norm(x_hat - x) <= 1e-2


def test_solve_unknown_config_key(tmp_path, capsys):
    mat, vec, _ = _write_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"step_size": 0.1}))
    assert main(["solve", "--solver", "nkf", "--matrix", str(mat),
                 "--measurements", str(vec), "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert "step_size" in capsys.readouterr().err


def test_solve_removed_schedule_key(tmp_path, capsys):
    mat, vec, _ = _write_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    args = ["solve", "--solver", "nkf", "--matrix", str(mat),
            "--measurements", str(vec), "--config", str(cfg),
            "--out", str(tmp_path / "r.json")]
    # The nested "schedule" object of earlier versions is one unknown
    # key; its entries are now top-level keys.
    cfg.write_text(json.dumps({"schedule": {"mode": "aitken-steffensen"}}))
    assert main(args) == 1
    assert "'schedule'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"schedule_mode": "aitken-steffensen",
                               "omega": 0.5}))
    assert main(args) == 1
    assert "'omega'" in capsys.readouterr().err


@pytest.mark.parametrize("solver, key", [
    ("nkf", "q_scale"), ("nkf", "stop_tol"), ("nkf", "gamma"),
    ("nkf", "gamma_min"), ("cp", "stop_tol"), ("omp", "residual_tol"),
])
def test_solve_removed_tolerance_key_exits_one(tmp_path, capsys, solver,
                                               key):
    # These settings are constants now; a file that still sets one is
    # rejected by that name, even at its old default.
    mat, vec, _ = _write_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1e-6}))
    out = tmp_path / "r.json"
    assert main(["solve", "--solver", solver, "--matrix", str(mat),
                 "--measurements", str(vec), "--config", str(cfg),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"unknown config key: '{key}'" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("solver", ["nkf", "cp", "omp"])
def test_solve_accepts_every_field_at_its_default(tmp_path, solver):
    # A config file's keys are the field names of the solver's config.
    mat, vec, _ = _write_instance(tmp_path)
    default = getattr(SolverSettings(), solver)
    data = dataclasses.asdict(default)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["solve", "--solver", solver, "--matrix", str(mat),
                 "--measurements", str(vec), "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 0
    config = getattr(_load_config(str(cfg), solver), solver)
    for name, value in data.items():
        assert getattr(config, name) == value == getattr(default, name)


@pytest.mark.parametrize("solver, shape", [
    ("nkf", (3, 2)), ("nkf", (2, 4)), ("cp", (2, 4)), ("omp", (2, 4)),
], ids=["nkf-3x2", "nkf-2x4", "cp-2x4", "omp-2x4"])
def test_solve_shape_mismatch_exits_one(tmp_path, capsys, solver, shape):
    # Three measurements: they fit the 3x2 matrix, which nkf rejects for
    # m > n, and are one too many for the 2x4 one.
    mat = tmp_path / "c.cmat"
    vec = tmp_path / "y.cmat"
    cmatio.save_matrix(mat, np.ones(shape, dtype=complex))
    cmatio.save_vector(vec, np.ones(3, dtype=complex))
    assert main(["solve", "--solver", solver, "--matrix", str(mat),
                 "--measurements", str(vec),
                 "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "shape mismatch" in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("shape", [(0, 4), (3, 0)], ids=["0x4", "3x0"])
@pytest.mark.parametrize("solver", ["nkf", "cp", "omp"])
def test_solve_empty_problem_exits_one(tmp_path, capsys, solver, shape):
    # A CMAT header may declare no rows or no columns; every solver
    # rejects such a problem as a shape mismatch, even when y != 0.
    mat = tmp_path / "c.cmat"
    vec = tmp_path / "y.cmat"
    out = tmp_path / "r.json"
    cmatio.save_matrix(mat, np.zeros(shape, dtype=complex))
    cmatio.save_vector(vec, np.ones(shape[0], dtype=complex))
    assert main(["solve", "--solver", solver, "--matrix", str(mat),
                 "--measurements", str(vec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "shape mismatch" in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("solver, data", [
    ("cp", {"max_iter": "10"}),
    ("nkf", {"max_iter": 10.0}),
    ("cp", {"max_iter": 2.5}),
    ("omp", {"max_atoms": 2.5}),
    ("nkf", {"max_iter": True}),
    ("cp", {"max_iter": True}),
    ("omp", {"max_atoms": False}),
], ids=["cp-max_iter", "nkf-max_iter", "cp-max_iter-float",
        "omp-max_atoms", "nkf-max_iter-bool", "cp-max_iter-bool",
        "omp-max_atoms-bool"])
def test_solve_mistyped_config_value_exits_one(tmp_path, capsys, solver,
                                               data):
    mat, vec, _ = _write_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["solve", "--solver", solver, "--matrix", str(mat),
                 "--measurements", str(vec), "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_solve_non_finite_result_exits_two_without_file(tmp_path, capsys,
                                                        monkeypatch):
    out = tmp_path / "r.json"
    bad = RecoveryResult(solver="cp", n=2, m=1, x_hat=np.zeros(2),
                         iterations=1, termination="max_iter",
                         wall_time_ms=1.0, l1_trace=[float("inf")])
    with pytest.raises(NumericalFailure):
        bad.save_json(out)
    assert not out.exists()
    mat, vec, _ = _write_instance(tmp_path)
    monkeypatch.setattr(csbench.cli, "solve_one", lambda *args: bad)
    assert main(["solve", "--solver", "cp", "--matrix", str(mat),
                 "--measurements", str(vec), "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_solve_cp_removed_step_key(tmp_path, capsys):
    mat, vec, _ = _write_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.5}))
    assert main(["solve", "--solver", "cp", "--matrix", str(mat),
                 "--measurements", str(vec), "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert "'tau'" in capsys.readouterr().err


def test_solve_malformed_config_json(tmp_path, capsys):
    mat, vec, _ = _write_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["solve", "--solver", "nkf", "--matrix", str(mat),
                 "--measurements", str(vec), "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_solve_deeply_nested_config_exits_one(tmp_path, capsys):
    # json raises RecursionError, not a ValueError, past its depth limit.
    mat, vec, _ = _write_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_iter": ' + "[" * 5000 + "]" * 5000 + "}")
    assert main(["solve", "--solver", "nkf", "--matrix", str(mat),
                 "--measurements", str(vec), "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "nests too deeply" in err


@pytest.mark.parametrize("which", ["matrix", "measurements"])
def test_solve_file_with_a_non_ascii_byte_exits_three(tmp_path, capsys,
                                                      which):
    mat, vec, _ = _write_instance(tmp_path)
    bad = mat if which == "matrix" else vec
    bad.write_bytes(bad.read_bytes().replace(b"cmat", b"cmat\xc2\xa0", 1))
    assert main(["solve", "--solver", "cp", "--matrix", str(mat),
                 "--measurements", str(vec),
                 "--out", str(tmp_path / "r.json")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_solve_missing_matrix_file(tmp_path, capsys):
    _, vec, _ = _write_instance(tmp_path)
    assert main(["solve", "--solver", "nkf",
                 "--matrix", str(tmp_path / "absent.cmat"),
                 "--measurements", str(vec),
                 "--out", str(tmp_path / "r.json")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_solve_malformed_matrix_file(tmp_path, capsys):
    _, vec, _ = _write_instance(tmp_path)
    bad = tmp_path / "bad.cmat"
    bad.write_text("cmat 1 1 1\nnot-a-pair\n")
    assert main(["solve", "--solver", "nkf", "--matrix", str(bad),
                 "--measurements", str(vec),
                 "--out", str(tmp_path / "r.json")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_solve_truncated_matrix_file(tmp_path, capsys):
    _, vec, _ = _write_instance(tmp_path)
    mat = tmp_path / "short.cmat"
    mat.write_text("cmat 1 5 0\n")
    assert main(["solve", "--solver", "omp", "--matrix", str(mat),
                 "--measurements", str(vec),
                 "--out", str(tmp_path / "r.json")]) == 3
    assert "missing row 0" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["matrix", "measurements"])
def test_solve_huge_zero_column_header_exits_three(tmp_path, capsys, which):
    mat, vec, _ = _write_instance(tmp_path)
    big = mat if which == "matrix" else vec
    big.write_text(f"cmat 1 {10 ** 18} 0\n")
    out = tmp_path / "r.json"
    assert main(["solve", "--solver", "nkf", "--matrix", str(mat),
                 "--measurements", str(vec), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "i/o error" in err and "missing row 0" in err
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("size", [10 ** 8, 10 ** 9])
@pytest.mark.parametrize("which", ["matrix", "measurements"])
def test_solve_header_larger_than_its_file_exits_three(tmp_path, capsys,
                                                       which, size):
    # The header asks for more entries than the file holds: an i/o
    # error, found before any memory is reserved for them.
    mat, vec, _ = _write_instance(tmp_path)
    big = mat if which == "matrix" else vec
    big.write_text(f"cmat 1 {size} {size}\n1.0,0.0\n")
    out = tmp_path / "r.json"
    assert main(["solve", "--solver", "nkf", "--matrix", str(mat),
                 "--measurements", str(vec), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "i/o error" in err and "cannot fit" in err
    assert err.count("\n") == 1 and not out.exists()


def test_readme_config_examples_are_the_defaults():
    # The README shows each solver's config at its defaults, one line
    # per solver; a field added or removed must show there too.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = dict(re.findall(r"^(nkf|cp|omp): `(\{.*?\})`", readme,
                               flags=re.MULTILINE))
    settings = SolverSettings()
    assert sorted(examples) == ["cp", "nkf", "omp"]
    for solver, text in examples.items():
        assert (json.loads(text)
                == dataclasses.asdict(getattr(settings, solver)))


def test_solve_rank_deficient_matrix(tmp_path, capsys):
    mat = tmp_path / "c.cmat"
    vec = tmp_path / "y.cmat"
    cmatio.save_matrix(mat, np.array([[1.0, 2.0, 0.0],
                                      [2.0, 4.0, 0.0]], dtype=complex))
    cmatio.save_vector(vec, np.array([1.0, 2.0], dtype=complex))
    assert main(["solve", "--solver", "nkf", "--matrix", str(mat),
                 "--measurements", str(vec),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["nkf", "cp"])
def test_solve_zero_matrix(tmp_path, capsys, solver):
    mat = tmp_path / "c.cmat"
    vec = tmp_path / "y.cmat"
    cmatio.save_matrix(mat, np.zeros((4, 8), dtype=complex))
    cmatio.save_vector(vec, np.ones(4, dtype=complex))
    assert main(["solve", "--solver", solver, "--matrix", str(mat),
                 "--measurements", str(vec),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_solve_cp_iteration_starved(tmp_path, capsys):
    mat, vec, _ = _write_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iter": 1}))
    assert main(["solve", "--solver", "cp", "--matrix", str(mat),
                 "--measurements", str(vec), "--config", str(cfg),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_dt_grid_artifacts_and_determinism(tmp_path):
    base = ["dt-grid", "--n", "8", "--steps", "2", "--trials", "1",
            "--solvers", "nkf", "--seed", "7"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + ["--out", str(out_b)]) == 0
    for name in ("grid_results.csv", "grid_timing.csv",
                 "success_rate_nkf.csv", "success_rate_nkf.pgm",
                 "mean_l2_error_nkf.csv", "mean_l2_error_nkf.pgm"):
        assert (out_a / name).is_file()
    assert ((out_a / "grid_results.csv").read_bytes()
            == (out_b / "grid_results.csv").read_bytes())
    assert ((out_a / "success_rate_nkf.csv").read_bytes()
            == (out_b / "success_rate_nkf.csv").read_bytes())


def test_dt_grid_unknown_solver(tmp_path, capsys):
    assert main(["dt-grid", "--n", "8", "--steps", "2", "--trials", "1",
                 "--solvers", "nkf,ista", "--out", str(tmp_path / "g")]) == 1
    assert "ista" in capsys.readouterr().err


def test_dt_grid_rejects_a_repeated_solver(tmp_path, capsys):
    assert main(["dt-grid", "--n", "8", "--steps", "3", "--trials", "1",
                 "--solvers", "omp,omp", "--out", str(tmp_path / "g")]) == 1
    assert "omp" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_dt_grid_rejects_bad_thread_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CSBENCH_THREADS", "8x")
    assert main(["dt-grid", "--n", "8", "--steps", "2", "--trials", "1",
                 "--solvers", "nkf", "--out", str(tmp_path / "g")]) == 1
    assert "CSBENCH_THREADS" in capsys.readouterr().err


def test_scene_command_with_noise(tmp_path):
    out = tmp_path / "scene"
    assert main(["scene", "--nr", "8", "--na", "8", "--scatterers", "2",
                 "--keep", "1.0", "--solvers", "nkf", "--seeds", "0,1",
                 "--noise", "0.05", "--out", str(out)]) == 0
    lines = (out / "scene_metrics.csv").read_text().splitlines()
    assert len(lines) == 5  # header + (reference, nkf) per seed
    assert (out / "images" / "seed_0_nkf.cmat").is_file()


def test_scene_artifacts_are_byte_identical_across_runs(tmp_path):
    base = ["scene", "--nr", "8", "--na", "8", "--scatterers", "3",
            "--keep", "0.5", "--solvers", "nkf,cp,omp", "--seeds", "0,1",
            "--noise", "0.1"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + ["--out", str(out_b)]) == 0
    names = sorted(str(p.relative_to(out_a)) for p in out_a.rglob("*")
                   if p.is_file())
    assert names == sorted(str(p.relative_to(out_b)) for p in out_b.rglob("*")
                           if p.is_file())
    for name in names:
        if name != "scene_timing.csv":
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert "scene_metrics.json" in names and "scene_timing.csv" in names


def test_scene_json_is_strict_when_clutter_is_silent(tmp_path):
    # Noiseless scenes that omp and cp recover exactly leave the clutter
    # at zero, so the target-to-clutter ratio is infinite.
    out = tmp_path / "scene"
    assert main(["scene", "--nr", "16", "--na", "16", "--scatterers", "3",
                 "--keep", "0.5", "--solvers", "omp,cp", "--seeds", "0,1",
                 "--noise", "0", "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    text = (out / "scene_metrics.json").read_text()
    records = json.loads(text, parse_constant=reject)
    assert [r["tcr_db"] for r in records if r["solver"] != "reference"] \
        == [None] * 4
    assert "inf" not in (out / "scene_metrics.csv").read_text()


def test_scene_rejects_a_repeated_seed(tmp_path, capsys):
    assert main(["scene", "--nr", "8", "--na", "8", "--scatterers", "2",
                 "--keep", "0.5", "--solvers", "omp", "--seeds", "0,0",
                 "--out", str(tmp_path / "s")]) == 1
    assert "seed 0 listed twice" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_scene_rejects_a_nan_noise_level(tmp_path, capsys):
    assert main(["scene", "--nr", "8", "--na", "8", "--scatterers", "2",
                 "--keep", "0.5", "--noise", "nan",
                 "--out", str(tmp_path / "s")]) == 1
    assert "noise_sigma must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_scene_rejects_an_infinite_noise_level(tmp_path, capsys, recwarn):
    assert main(["scene", "--nr", "8", "--na", "8", "--scatterers", "2",
                 "--keep", "0.5", "--noise", "inf",
                 "--out", str(tmp_path / "s")]) == 1
    assert "noise_sigma must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_scene_rejects_an_empty_seed_list(tmp_path, capsys):
    assert main(["scene", "--nr", "8", "--na", "8", "--scatterers", "2",
                 "--keep", "0.5", "--seeds", ",",
                 "--out", str(tmp_path / "s")]) == 1
    assert "empty seed list" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_solve_cp_non_finite_residual_exits_two(tmp_path, capsys):
    c, _, y = make_instance(32, 16, 2, 5)
    mat, vec, out = (tmp_path / "c.cmat", tmp_path / "y.cmat",
                     tmp_path / "r.json")
    # C is subnormal, so x = y / C is about 1e310. cp converges on C in
    # unit range, and its x_hat overflows when it is scaled back.
    cmatio.save_matrix(mat, c * 1e-310)
    cmatio.save_vector(vec, y)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["solve", "--solver", "cp", "--matrix", str(mat),
                     "--measurements", str(vec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "x_hat overflows" in err
    assert not out.exists()


def test_scene_bad_region(tmp_path, capsys):
    assert main(["scene", "--nr", "8", "--na", "8", "--scatterers", "2",
                 "--keep", "1.0", "--region", "1,5,2", "--solvers", "nkf",
                 "--out", str(tmp_path / "s")]) == 1
    assert "config error" in capsys.readouterr().err


def test_crossover_command(tmp_path):
    out = tmp_path / "times.csv"
    assert main(["crossover", "--n", "16", "--s", "1", "--deltas", "0.5,1.0",
                 "--solvers", "nkf,omp", "--repeats", "2", "--seed", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,m,solver,repeats,median_wall_time_ms"
    assert len(lines) == 5


def test_crossover_infeasible_sparsity(tmp_path, capsys):
    assert main(["crossover", "--n", "16", "--s", "9", "--deltas", "0.5",
                 "--solvers", "nkf", "--out", str(tmp_path / "t.csv")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["1.5", "-0.5", "nan"])
def test_crossover_rejects_delta_outside_unit_interval(tmp_path, capsys,
                                                       delta):
    out = tmp_path / "t.csv"
    assert main(["crossover", "--n", "16", "--s", "2", "--deltas", delta,
                 "--solvers", "nkf", "--out", str(out)]) == 1
    assert f"delta={float(delta)} is not in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_crossover_rejects_a_repeated_delta(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["crossover", "--n", "16", "--s", "2", "--deltas", "0.5,0.5",
                 "--solvers", "omp", "--out", str(out)]) == 1
    assert "delta 0.5 listed twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [str(2 ** 64), "-1"])
@pytest.mark.parametrize("command", [
    ["gen", "--kind", "gaussian", "--m", "2", "--n", "4", "--seed"],
    ["dt-grid", "--n", "4", "--steps", "2", "--trials", "1", "--seed"],
    ["crossover", "--n", "8", "--s", "1", "--deltas", "0.5", "--seed"],
    ["scene", "--nr", "4", "--na", "4", "--scatterers", "1", "--keep", "0.5",
     "--seeds"],
])
def test_a_seed_outside_64_bits_exits_one(tmp_path, capsys, command, seed):
    # The library reduces a seed mod 2^64, so 2^64 would alias seed 0.
    out = tmp_path / "out"
    value = f"0,{seed}" if command[-1] == "--seeds" else seed
    assert main(command + [value, "--out", str(out)]) == 1
    assert f"seed {seed} is outside [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


def test_the_largest_64_bit_seed_is_accepted(tmp_path):
    out = tmp_path / "c.cmat"
    assert main(["gen", "--kind", "gaussian", "--m", "2", "--n", "4",
                 "--seed", str(2 ** 64 - 1), "--out", str(out)]) == 0
    assert cmatio.load_matrix(out).shape == (2, 4)


def test_scene_rejects_an_empty_region(tmp_path, capsys):
    # An empty --region is a region of no integers, not the default.
    out = tmp_path / "s"
    assert main(["scene", "--nr", "8", "--na", "8", "--scatterers", "2",
                 "--keep", "1.0", "--region", "", "--solvers", "omp",
                 "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
