"""Benchmark harness: phase-transition grids, scene studies, timing.

Instance seeds are derived with :func:`csbench.rng.combine_seeds` from
(base seed, cell, trial), so results are independent of execution order
and of the worker count. The grid runner honors the ``CSBENCH_THREADS``
environment variable (default 1, else a positive integer) as a cap on
its process pool.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from . import cmatio
from .baselines import CpConfig, OmpConfig, chambolle_pock_bp, omp
from .errors import NumericalFailure, RankDeficient, SolveFailed
from .metrics import (METRIC_COLUMNS, detections, fa_md, image_contrast,
                      image_entropy, l2_error, metrics_json_record, rrmse,
                      tcr)
from .nkf import NkfConfig, solve as solve_nkf
from .operators import PartialFourier2D
from .problem import SensingProblem, as_count
from .rng import combine_seeds
from .sensing import (SceneSpec, SignalSpec, gen_partial_fourier_2d,
                      gen_scene, gen_sparse_signal, gen_gaussian_matrix,
                      measure, region_mask, round_half_up)

KNOWN_SOLVERS = ("nkf", "cp", "omp")
# A dt-grid trial succeeds when ||x_hat - x||_2 is at most this.
SUCCESS_THRESHOLD = 1e-3


def _reject_repeats(values, what: str) -> None:
    """Raise ValueError for a value that appears twice in ``values``."""
    for k, v in enumerate(values):
        if v in values[:k]:
            raise ValueError(f"{what} {v!r} listed twice")


def _check_solvers(solvers) -> None:
    """Raise ValueError for a name that is not in KNOWN_SOLVERS or that
    appears twice."""
    for sv in solvers:
        if sv not in KNOWN_SOLVERS:
            raise ValueError(f"unknown solver {sv!r}")
    _reject_repeats(solvers, "solver")


def _measurement_count(delta: float, n: int) -> int:
    """Rows m for undersampling ratio delta at length n, in [1, n]."""
    return min(max(round_half_up(delta * n), 1), n)


@dataclass(frozen=True)
class SolverSettings:
    """Per-solver configuration bundle used by the harness."""

    nkf: NkfConfig = NkfConfig()
    cp: CpConfig = CpConfig()
    omp: OmpConfig = OmpConfig()


@dataclass(frozen=True)
class DtGridConfig:
    """A (delta, rho) phase-transition sweep at fixed signal length n."""

    n: int = 128
    steps: int = 16
    trials_per_cell: int = 20
    solvers: tuple = ("nkf", "cp")
    seed_base: int = 0

    def __post_init__(self):
        # as_count rejects a float or bool count with TypeError here
        # rather than inside the sweep or in the written artifacts.
        if as_count(self.n) < 2:
            raise ValueError("n must be at least 2")
        if as_count(self.steps) < 2:
            raise ValueError("steps must be at least 2")
        if as_count(self.trials_per_cell) < 1:
            raise ValueError("trials_per_cell must be at least 1")
        as_count(self.seed_base)
        if not self.solvers:
            raise ValueError("need at least one solver")
        _check_solvers(self.solvers)


@dataclass
class SolverCellStats:
    """Aggregates for one solver on one grid cell."""

    trials: int
    successes: int
    failures: int
    mean_l2_error: float | None
    median_wall_time_ms: float | None

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


@dataclass
class DtCellResult:
    delta: float
    rho: float
    m: int
    s: int
    per_solver: dict


def make_instance(n: int, m: int, s: int, seed: int):
    """Matrix, signal, and noiseless measurements for one trial."""
    c = gen_gaussian_matrix(m, n, combine_seeds(seed, 1))
    x = gen_sparse_signal(SignalSpec(n=n, s=s, seed=combine_seeds(seed, 2)))
    return c, x, c @ x


def solve_one(solver: str, problem: SensingProblem,
              settings: SolverSettings, s_hint: int | None = None):
    """Dispatch one solver; atom budget for OMP defaults to s_hint."""
    if solver == "nkf":
        return solve_nkf(problem, settings.nkf)
    if solver == "cp":
        return chambolle_pock_bp(problem, settings.cp)
    if solver == "omp":
        cfg = settings.omp
        if cfg.max_atoms is None and s_hint is not None:
            cfg = replace(cfg, max_atoms=min(s_hint, problem.m, problem.n))
        return omp(problem, cfg)[0]
    raise ValueError(f"unknown solver {solver!r}")


def _solve_guarded(solver: str, problem: SensingProblem,
                   settings: SolverSettings, s_hint: int | None = None):
    """``solve_one`` under the studies' failure policy: (result, failed).

    A solve fails only when it raises: a ``SolveFailed`` (cp's
    ``NotConverged`` when capped with a relative residual of at least
    1e-6, or nkf's ``NumericalFailure``) hands back its partial result
    for the study to score or time, and ``RankDeficient`` leaves none.
    A capped nkf solve (always feasible) or capped cp solve with a
    smaller residual returns and is not failed. ``solve_one`` is looked
    up at call time, so a wrapper installed on the module sees every
    call.
    """
    try:
        return solve_one(solver, problem, settings, s_hint), False
    except SolveFailed as exc:
        return exc.result, True
    except RankDeficient:
        return None, True


def _worker_count() -> int:
    raw = os.environ.get("CSBENCH_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(
            f"CSBENCH_THREADS must be a positive integer, not {raw!r}")
    return count


def _run_cell(args) -> DtCellResult:
    config, settings, i_delta, j_rho = args
    steps = config.steps
    delta = i_delta / (steps - 1)
    rho = j_rho / (steps - 1)
    m = _measurement_count(delta, config.n)
    s = min(max(round_half_up(rho * m), 0), m)
    errors = {sv: [] for sv in config.solvers}
    times = {sv: [] for sv in config.solvers}
    successes = {sv: 0 for sv in config.solvers}
    failures = {sv: 0 for sv in config.solvers}
    for t in range(config.trials_per_cell):
        if s == 0:
            # The zero signal, so y = 0: trivially recovered.
            for sv in config.solvers:
                successes[sv] += 1
                errors[sv].append(0.0)
                times[sv].append(0.0)
            continue
        seed = combine_seeds(config.seed_base, i_delta, j_rho, t)
        c, x, y = make_instance(config.n, m, s, seed)
        problem = SensingProblem(c, y)
        for sv in config.solvers:
            result, failed = _solve_guarded(sv, problem, settings, s)
            failures[sv] += failed
            if result is None:
                continue
            # A partial result is scored but never counted as a success.
            err = l2_error(x, result.x_hat)
            if not failed and err <= SUCCESS_THRESHOLD:
                successes[sv] += 1
            errors[sv].append(err)
            times[sv].append(result.wall_time_ms)
    per_solver = {sv: SolverCellStats(
        trials=config.trials_per_cell, successes=successes[sv],
        failures=failures[sv],
        mean_l2_error=float(np.mean(errors[sv])) if errors[sv] else None,
        median_wall_time_ms=float(median(times[sv])) if times[sv] else None,
    ) for sv in config.solvers}
    return DtCellResult(delta=delta, rho=rho, m=m, s=s, per_solver=per_solver)


def run_dt_grid(config: DtGridConfig,
                settings: SolverSettings = SolverSettings()) -> list:
    """Run the sweep; returns rows indexed [rho_idx][delta_idx]."""
    payloads = [(config, settings, i, j) for j in range(config.steps)
                for i in range(config.steps)]
    workers = min(_worker_count(), len(payloads))
    if workers > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            flat = pool.map(_run_cell, payloads)
    else:
        flat = [_run_cell(p) for p in payloads]
    steps = config.steps
    return [flat[j * steps:(j + 1) * steps] for j in range(steps)]


def _write_lines(path, lines) -> None:
    """Write ``lines`` as ASCII text, each ended by a newline."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _csv_cell(v) -> str:
    """None is an empty cell, a float (numpy's too) its repr, else str.

    Raises NumericalFailure on a NaN or infinite float.
    """
    if v is None:
        return ""
    if not isinstance(v, (float, np.floating)):
        return str(v)
    if not np.isfinite(v):
        raise NumericalFailure(f"non-finite table value {v!r}")
    return repr(float(v))


def _write_csv(path, header, rows) -> None:
    """Write one table: the column names, then one line per row."""
    _write_lines(path, [",".join(header)]
                 + [",".join(_csv_cell(v) for v in row) for row in rows])


def write_grid_results_csv(grid, path) -> None:
    """Deterministic per-cell, per-solver table (no timing columns)."""
    _write_csv(path, ("delta_index", "rho_index", "delta", "rho", "m", "s",
                      "solver", "trials", "successes", "success_rate",
                      "mean_l2_error", "failures"),
               ((i, j, cell.delta, cell.rho, cell.m, cell.s, sv, st.trials,
                 st.successes, st.success_rate, st.mean_l2_error, st.failures)
                for j, row in enumerate(grid)
                for i, cell in enumerate(row)
                for sv, st in cell.per_solver.items()))


def write_grid_timing_csv(grid, path) -> None:
    """Wall-clock medians, kept out of the deterministic results file."""
    _write_csv(path, ("delta_index", "rho_index", "solver",
                      "median_wall_time_ms"),
               ((i, j, sv, st.median_wall_time_ms)
                for j, row in enumerate(grid)
                for i, cell in enumerate(row)
                for sv, st in cell.per_solver.items()))


def heatmap_values(grid, field: str) -> np.ndarray:
    """Matrix of one per-solver statistic, rho rows ascending.

    ``field`` is "<stat>.<solver>", e.g. "success_rate.nkf". Cells with
    no data take the maximum finite value present (or 0 if none).
    """
    stat, _, solver = field.partition(".")
    if stat not in ("success_rate", "mean_l2_error"):
        raise ValueError(f"unknown heatmap field {stat!r}")
    steps = len(grid)
    out = np.full((steps, steps), np.nan)
    for j, row in enumerate(grid):
        for i, cell in enumerate(row):
            if solver not in cell.per_solver:
                raise ValueError(f"solver {solver!r} not present in grid")
            v = getattr(cell.per_solver[solver], stat)
            out[j, i] = np.nan if v is None else v
    if np.isnan(out).any():
        finite = out[np.isfinite(out)]
        out[np.isnan(out)] = finite.max() if finite.size else 0.0
    return out


def emit_heatmap(grid, field: str, out_base) -> tuple[str, str]:
    """Write <out_base>.csv and <out_base>.pgm for one statistic.

    CSV rows run over rho ascending with delta as columns. The PGM is
    plain (P2), 255 max, linearly scaled min -> 0, max -> 255, with the
    top row holding the largest rho; a constant field maps to mid-gray
    (128).
    """
    values = heatmap_values(grid, field)
    steps = values.shape[0]
    axis = [i / (steps - 1) for i in range(steps)]
    csv_path = f"{out_base}.csv"
    pgm_path = f"{out_base}.pgm"

    _write_csv(csv_path, ["rho/delta", *map(repr, axis)],
               ([axis[j], *values[j]] for j in range(steps)))

    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        scaled = np.rint((values - lo) / (hi - lo) * 255.0).astype(int)
    else:
        scaled = np.full_like(values, 128.0).astype(int)
    pgm_lines = ["P2", f"{steps} {steps}", "255"]
    for j in range(steps - 1, -1, -1):  # top row = largest rho
        pgm_lines.append(" ".join(str(int(v)) for v in scaled[j]))
    _write_lines(pgm_path, pgm_lines)
    return csv_path, pgm_path


def _scene_record(seed, solver: str, img, m: int, spec: SceneSpec,
                  reference=None) -> dict:
    """Metrics record of one scene image, scored against ``reference``
    when one is given. An all-zero image has no entropy, contrast or
    rrmse, and its detections are empty.
    """
    target = region_mask(spec)
    clutter = ~target
    nonzero = np.abs(img).max() > 0.0
    values = {"tcr_db": tcr(img, target, clutter) if clutter.any() else None}
    if nonzero:
        values["ie"], values["ic"] = image_entropy(img), image_contrast(img)
    if reference is not None:
        values["fa"], values["md"] = fa_md(img, reference)
        det_ref = detections(reference)
        if nonzero and det_ref.any():
            values["rrmse"] = rrmse(reference[det_ref], img[det_ref])
    return {"seed": seed, **metrics_json_record(solver, img.size, m,
                                                spec.n_scatterers, values)}


def run_scene_experiment(scene: SceneSpec, keep_fraction: float,
                         solvers, seeds,
                         settings: SolverSettings = SolverSettings(),
                         noise_sigma: float = 0.0,
                         out_dir=None) -> list:
    """Reconstructions of a random scene from undersampled 2-D spectra.

    For each run seed, draws a scene and a sampling pattern, solves with
    every requested solver (all three apply the pattern as a
    ``PartialFourier2D`` operator; omp reads only its column norms and
    picked columns from the dense matrix), and scores each
    reconstruction against the noise-free fully-sampled reference
    image, with detections at the
    -30 dB default of ``metrics.detections``. ``noise_sigma`` adds
    complex Gaussian noise of that per-measurement standard deviation to
    the undersampled measurements (the reference stays clean). Solvers
    run with the settings as given; in particular the OMP atom budget is
    not tied to the scatterer count, since a real measurement campaign
    does not know it. A solve that fails with a partial result, such as
    cp at its iteration cap, is scored like any other; its record's
    "termination" says how it ended.

    Returns one record dict per (seed, solver) with a result, plus a
    "reference" record per seed whose scene is not all zero. Records
    hold no time, so the same call gives the same records. An unknown
    or repeated solver, or a repeated seed, raises ValueError before
    any solve, and so does an empty seed list. When
    ``out_dir`` is given, writes them to ``scene_metrics.csv`` and
    ``scene_metrics.json`` (the JSON alone carries "l2_error" and
    "termination"), each solve's wall time to ``scene_timing.csv``, and
    the images under ``images/``.
    """
    _check_solvers(solvers)
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("empty seed list")
    _reject_repeats(seeds, "seed")
    n_r, n_a = scene.n_r, scene.n_a
    records = []
    timings = []
    images = []
    for run_seed in seeds:
        spec = replace(scene, seed=combine_seeds(run_seed, 1))
        x_scene = gen_scene(spec)
        c, kept = gen_partial_fourier_2d(
            n_r, n_a, keep_fraction, combine_seeds(run_seed, 2))
        y = measure(c, x_scene, noise_sigma, combine_seeds(run_seed, 3))
        problem = SensingProblem(c, y, PartialFourier2D(n_r, n_a, kept))
        m = c.shape[0]
        # The fully sampled reference image is the scene itself.
        reference = x_scene.reshape(n_r, n_a)
        if np.abs(reference).max() > 0.0:
            records.append(
                _scene_record(run_seed, "reference", reference, m, spec))
        images.append((run_seed, "reference", reference))
        for sv in solvers:
            result, _ = _solve_guarded(sv, problem, settings)
            if result is None:
                continue
            recon = result.x_hat.reshape(n_r, n_a)
            record = _scene_record(run_seed, sv, recon, m, spec, reference)
            record["l2_error"] = l2_error(x_scene, result.x_hat)
            record["termination"] = result.termination
            records.append(record)
            timings.append((run_seed, sv, result.wall_time_ms))
            images.append((run_seed, sv, recon))
    if out_dir is not None:
        _write_scene_outputs(records, timings, images, out_dir)
    return records


def _write_scene_outputs(records, timings, images, out_dir) -> None:
    """Raises NumericalFailure, before any file is written, if a record
    holds a non-finite value."""
    try:
        text = json.dumps(records, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(
            f"scene metrics not writable as JSON: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    columns = METRIC_COLUMNS + ("seed",)
    _write_csv(os.path.join(out_dir, "scene_metrics.csv"), columns,
               ([rec[k] for k in columns] for rec in records))
    _write_lines(os.path.join(out_dir, "scene_metrics.json"), [text])
    _write_csv(os.path.join(out_dir, "scene_timing.csv"),
               ("seed", "solver", "wall_time_ms"), timings)
    img_dir = os.path.join(out_dir, "images")
    os.makedirs(img_dir, exist_ok=True)
    for run_seed, name, img in images:
        cmatio.save_matrix(
            os.path.join(img_dir, f"seed_{run_seed}_{name}.cmat"), img)


def time_crossover(n: int, s: int, deltas, solvers, repeats: int,
                   seed_base: int = 0,
                   settings: SolverSettings = SolverSettings()) -> list:
    """Median solve times per (delta, solver) at fixed n and s.

    Each (delta, trial) instance is generated once and solved by every
    solver. Problem generation is excluded from the timing; each
    solver's wall time covers its whole solve, from its set-up
    (factorization included) to x_hat in the caller's units (see
    ``RecoveryResult.of``); a failed solve with a partial result is
    timed too. Runs serially so timings are not polluted by sibling
    processes. A delta outside (0, 1], a repeated delta, or one whose m
    is below s, raises ValueError before any
    solve, and a float or bool n, s, repeats or seed_base raises
    TypeError (see ``problem.as_count``).
    """
    _check_solvers(solvers)
    for count in (n, s, seed_base):
        as_count(count)
    if as_count(repeats) < 1:
        raise ValueError("repeats must be at least 1")
    deltas = tuple(deltas)
    _reject_repeats(deltas, "delta")
    counts = []
    for delta in deltas:
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta={delta} is not in (0, 1]")
        m = _measurement_count(delta, n)
        if s > m:
            raise ValueError(f"s={s} exceeds m={m} at delta={delta}")
        counts.append(m)
    rows = []
    for di, (delta, m) in enumerate(zip(deltas, counts)):
        times = {sv: [] for sv in solvers}
        for t in range(repeats):
            c, _, y = make_instance(n, m, s, combine_seeds(seed_base, di, t))
            problem = SensingProblem(c, y)
            for sv in solvers:
                result, _ = _solve_guarded(sv, problem, settings, s)
                if result is not None:
                    times[sv].append(result.wall_time_ms)
        rows.extend({"delta": delta, "m": m, "solver": sv,
                     "median_wall_time_ms": (float(median(times[sv]))
                                             if times[sv] else None),
                     "repeats": repeats} for sv in solvers)
    return rows


def write_crossover_csv(rows, path) -> None:
    _write_csv(path, ("delta", "m", "solver", "repeats",
                      "median_wall_time_ms"),
               ((float(r["delta"]), r["m"], r["solver"], r["repeats"],
                 r["median_wall_time_ms"]) for r in rows))
