"""One benchmark workload in one process: set-up, timed rounds, checks.

``run.py`` starts this file with the BLAS, OpenMP and ``CSBENCH_THREADS``
settings pinned in the environment, so they hold before numpy is
imported. The worker drives the same public entry points as the
``csbench`` commands and sees every solver call through a wrapper on
``csbench.harness.solve_one``: it times the call, counts it as one
operation and checks its output. Checks run with the clock paused, so
they are not part of any reported time.

An untraced run is the workload's ``rounds`` rounds of fixed
operations, together sized to fit the benchmark's ``run_seconds``; its
times are medians over the rounds. With ``--trace 1`` the worker runs
one untraced and one traced round and reports per-layer figures from the
traced one. Either way the rounds' counts, residuals and grid results
must match exactly.

Every workload's inputs are fixed: ``--seed`` is recorded in the
manifest but selects nothing. The end-to-end counts, l1 ratios and
feasibility digits then repeat exactly from run to run, so their bounds
can be tight, and the operations that the nkf stop-rule fault fails are
the same in every run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import scipy
import scipy.linalg

import checks
from run import PINNED
from tracing import Patches, Tracer

from csbench import baselines, cmatio, harness, nkf
from csbench.errors import CsbenchError
from csbench.problem import SensingProblem
from csbench.rng import combine_seeds
from csbench.sensing import SceneSpec

SOLVERS = ("nkf", "cp", "omp")


class Crossover:
    """``csbench crossover`` at n = 256, s = 5, delta in {0.3, 0.6, 0.9}.

    One call runs all three solvers; the others add cp and omp solves on
    further instances, because one cp solve takes milliseconds and one
    omp solve about one, so a few instances would time too short a
    region. One omp-only call comes first and one last, so omp's
    samples spread over the whole round.
    """

    n, s, deltas = 256, 5, (0.3, 0.6, 0.9)
    rounds = 1
    calls = [(("omp",), 60, combine_seeds(0, 2)),
             (SOLVERS, 6, 0),
             (("cp", "omp"), 40, combine_seeds(0, 1)),
             (("omp",), 60, combine_seeds(0, 3))]

    def describe(self):
        return {"n": self.n, "s": self.s, "deltas": self.deltas,
                "calls": [{"solvers": sv, "repeats": r, "seed_base": b}
                          for sv, r, b in self.calls]}

    def recovery_expected(self, m, s):
        return True

    def run_round(self, out_dir):
        for k, (solvers, repeats, seed_base) in enumerate(self.calls):
            rows = harness.time_crossover(self.n, self.s, self.deltas,
                                          solvers, repeats,
                                          seed_base=seed_base)
            harness.write_crossover_csv(
                rows, os.path.join(out_dir, f"crossover_{k}.csv"))

    def check_round(self, out_dir, rec):
        problems = []
        for k, (solvers, repeats, _) in enumerate(self.calls):
            with open(os.path.join(out_dir, f"crossover_{k}.csv"),
                      encoding="ascii") as fh:
                rows = fh.read().splitlines()[1:]
            want = [(d, checks.round_half_up(d * self.n), sv)
                    for d in self.deltas for sv in solvers]
            got = [(float(r.split(",")[0]), int(r.split(",")[1]),
                    r.split(",")[2]) for r in rows]
            if got != want:
                problems.append(f"crossover_{k}.csv: rows {got}")
            if any(not r.split(",")[4] for r in rows):
                problems.append(f"crossover_{k}.csv: missing median")
        return problems


class Scene:
    """``csbench scene`` on 24x24 partial-Fourier scenes, keep 0.25.

    nkf ends 2.3% above cp's converged l1 on scene seed 6, so that nkf
    operation fails in every run; scene seeds 5 and 7 pass. One omp
    solve takes about 70 ms, so omp-only calls on 36 more scenes give
    omp a timed region of seconds. The machine's speed drifts over
    seconds, so the omp-only calls come in six chunks placed around the
    three long nkf solves: every solver's samples spread over the whole
    round.
    """

    n_r = n_a = 24
    rounds = 1
    scatterers = 10
    region = (6, 18, 6, 18)
    keep = 0.25
    noise = 0.1
    calls = [(("omp",), list(range(20, 26)), "omp_20"),
             (SOLVERS, [5], "all_5"),
             (("omp",), list(range(26, 32)), "omp_26"),
             (("cp", "omp"), [8, 9], "cp_omp_8"),
             (("omp",), list(range(32, 38)), "omp_32"),
             (SOLVERS, [6], "all_6"),
             (("omp",), list(range(38, 44)), "omp_38"),
             (("cp", "omp"), [10, 11], "cp_omp_10"),
             (("omp",), list(range(44, 50)), "omp_44"),
             (SOLVERS, [7], "all_7"),
             (("omp",), list(range(50, 56)), "omp_50")]

    def describe(self):
        return {"n_r": self.n_r, "n_a": self.n_a,
                "scatterers": self.scatterers, "region": self.region,
                "keep": self.keep, "noise_sigma": self.noise,
                "calls": [{"solvers": sv, "seeds": seeds}
                          for sv, seeds, _ in self.calls]}

    def recovery_expected(self, m, s):
        return False

    def run_round(self, out_dir):
        spec = SceneSpec(n_r=self.n_r, n_a=self.n_a,
                         n_scatterers=self.scatterers,
                         target_region=self.region, seed=0)
        for solvers, seeds, name in self.calls:
            harness.run_scene_experiment(
                spec, self.keep, solvers, seeds, noise_sigma=self.noise,
                out_dir=os.path.join(out_dir, name))

    def check_round(self, out_dir, rec):
        problems = []
        if not rec.cp_compared:
            problems.append("no nkf scene had a converged cp solve to "
                            "compare its l1 with")
        images = iter(rec.images)
        for solvers, seeds, name in self.calls:
            path = os.path.join(out_dir, name)
            with open(os.path.join(path, "scene_metrics.csv"),
                      encoding="ascii") as fh:
                rows = fh.read().splitlines()
            if len(rows) != 1 + len(seeds) * (len(solvers) + 1):
                problems.append(f"{name}/scene_metrics.csv: {len(rows)} rows")
            for seed in seeds:
                for sv in solvers:
                    solver, x_hat = next(images)
                    file = os.path.join(path, "images",
                                        f"seed_{seed}_{sv}.cmat")
                    with open(file, encoding="ascii") as fh:
                        saved = checks.parse_cmat(fh.read())
                    want = x_hat.reshape(self.n_r, self.n_a)
                    if solver != sv or not np.array_equal(saved, want):
                        problems.append(f"{file}: does not hold the "
                                        f"{sv} reconstruction bit for bit")
        return problems


class Grid:
    """``csbench dt-grid --n 64 --steps 6 --trials 1 --seed 2``, all solvers.

    nkf ends 1.8% above x_true's l1 norm on trial 0 of the cell with
    m = 13, s = 3 at this seed, so that operation fails in every round.
    One omp solve at n = 64 takes about 2 ms, so the main sweep alone
    would time omp over a twentieth of a second: omp-only sweeps with 4
    trials per cell at seeds 3 and 4 come before and after it.

    Its many short solves are interpreter-bound, and the speed of such
    code on a shared host jumps by 20-40% for seconds at a time, so a
    run is four rounds of about 7 s and its times are their medians.
    """

    n, steps = 64, 6
    rounds = 4
    calls = [(("omp",), 4, 3, "omp_3"), (SOLVERS, 1, 2, "all"),
             (("omp",), 4, 4, "omp_4")]

    def __init__(self):
        self.recovery_cells = set()
        for i in range(self.steps):
            for j in range(self.steps):
                delta, rho, m, s = checks.grid_cell(self.n, self.steps, i, j)
                if delta >= 0.6 and rho <= 0.2 and s > 0:
                    self.recovery_cells.add((m, s))

    def describe(self):
        return {"n": self.n, "steps": self.steps,
                "calls": [{"solvers": sv, "trials": t, "seed_base": b}
                          for sv, t, b, _ in self.calls]}

    def recovery_expected(self, m, s):
        return (m, s) in self.recovery_cells

    def run_round(self, out_dir):
        for solvers, trials, seed, name in self.calls:
            config = harness.DtGridConfig(
                n=self.n, steps=self.steps, trials_per_cell=trials,
                solvers=solvers, seed_base=seed)
            grid = harness.run_dt_grid(config)
            path = os.path.join(out_dir, name)
            os.makedirs(path)
            harness.write_grid_results_csv(
                grid, os.path.join(path, "grid_results.csv"))
            harness.write_grid_timing_csv(
                grid, os.path.join(path, "grid_timing.csv"))
            for sv in solvers:
                for stat in ("success_rate", "mean_l2_error"):
                    harness.emit_heatmap(grid, f"{stat}.{sv}",
                                         os.path.join(path, f"{stat}_{sv}"))

    def check_round(self, out_dir, rec):
        problems = []
        for solvers, trials, _, name in self.calls:
            path = os.path.join(out_dir, name)
            with open(os.path.join(path, "grid_results.csv"),
                      encoding="ascii") as fh:
                text = fh.read()
            rec.fingerprint[f"{name}/grid_results.csv"] = text
            problems += checks.grid_rows_problems(text, self.n, self.steps,
                                                  solvers, trials)
            for sv in solvers:
                for stat in ("success_rate", "mean_l2_error"):
                    with open(os.path.join(path, f"{stat}_{sv}.pgm"),
                              encoding="ascii") as fh:
                        problems += checks.pgm_problems(fh.read(),
                                                        self.steps)
        return problems


WORKLOADS = {"crossover": Crossover, "scene": Scene, "grid": Grid}


class Recorder:
    """Times, counts and checks every solver call of one round."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.pause_wall = 0.0
        self.pause_cpu = 0.0
        self.instances = 0
        self.instance = None        # (key, c, x_true, kept)
        self.x_mn = {}              # instance key -> min-l2 point
        self.solve_s = dict.fromkeys(SOLVERS, 0.0)
        self.setup_s = dict.fromkeys(SOLVERS, 0.0)
        self.iters = dict.fromkeys(SOLVERS, 0)
        self.l1_hat = dict.fromkeys(SOLVERS, 0.0)
        self.l1_mn = dict.fromkeys(SOLVERS, 0.0)
        self.residuals = {sv: [] for sv in SOLVERS}
        self.by_size = {}           # (solver, d or m) -> [loop_s, iters]
        self.nkf_l1 = {}            # scene instance key -> nkf's l1
        self.nkf_failed = set()     # instance keys whose nkf op failed
        self.cp_compared = 0        # scene nkf results checked against cp
        self.capped = 0
        self.scored = 0
        self.images = []            # (solver, x_hat) in call order
        self.fingerprint = {}

    def install(self, patches):
        patches.replace(harness, "solve_one", self._wrap_solve)
        patches.replace(harness, "make_instance", self._wrap_instance)
        patches.replace(harness, "gen_scene", self._wrap_scene)
        patches.replace(harness, "gen_partial_fourier_2d", self._wrap_kept)

    def _wrap_instance(self, make_instance):
        def wrapped(n, m, s, seed):
            c, x, y = make_instance(n, m, s, seed)
            self.instances += 1
            self.instance = (("gaussian", n, m, s, seed), c, x, None)
            return c, x, y
        return wrapped

    def _wrap_scene(self, gen_scene):
        def wrapped(spec):
            self.instances += 1
            self.instance = (("scene", self.instances), None, None, None)
            return gen_scene(spec)
        return wrapped

    def _wrap_kept(self, gen):
        def wrapped(*args):
            c, kept = gen(*args)
            self.instance = self.instance[:1] + (c, None, kept)
            return c, kept
        return wrapped

    def _setup_clock(self):
        t = self.tracer
        if t is None:
            return 0.0
        return (t.total("nullspace.lq") + t.total("nullspace.particular")
                + t.total("cp.norm_est"))

    def _wrap_solve(self, solve_one):
        def wrapped(solver, problem, settings, s_hint=None):
            setup0 = self._setup_clock()
            t0 = time.perf_counter()
            try:
                result = solve_one(solver, problem, settings, s_hint)
            except CsbenchError as exc:
                elapsed = time.perf_counter() - t0
                self._record(solver, problem, s_hint,
                             getattr(exc, "result", None), elapsed,
                             self._setup_clock() - setup0, exc)
                raise
            elapsed = time.perf_counter() - t0
            self._record(solver, problem, s_hint, result, elapsed,
                         self._setup_clock() - setup0, None)
            return result
        return wrapped

    def _record(self, solver, problem, s_hint, result, elapsed, setup,
                exc):
        w0, c0 = time.perf_counter(), time.process_time()
        self.attempted += 1
        self.solve_s[solver] += elapsed
        problems = self._check(solver, problem, s_hint, result, exc)
        if problems:
            self._fail(problems)
            if solver == "nkf":
                self.nkf_failed.add(self.instance[0])
        late = self._check_nkf_against_cp(solver, result)
        if late:
            # The nkf operation of this scene fails, once, on cp's evidence.
            self.nkf_failed.add(self.instance[0])
            self._fail(late)
        self.pause_wall += time.perf_counter() - w0
        self.pause_cpu += time.process_time() - c0
        if result is not None:
            size = problem.n - problem.m if solver == "nkf" else problem.m
            entry = self.by_size.setdefault((solver, size), [0.0, 0])
            entry[0] += elapsed - setup
            entry[1] += result.iterations
            self.setup_s[solver] += setup

    def _fail(self, problems):
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.extend(problems)

    def _check_nkf_against_cp(self, solver, result):
        """On a scene, nkf's l1 must be within 1% of cp's converged l1."""
        key = self.instance[0]
        if (solver != "cp" or result is None or key not in self.nkf_l1
                or result.termination != "converged"):
            return []
        self.cp_compared += 1
        if key in self.nkf_failed:
            return []
        problems = checks.l1_vs_cp_problems(self.nkf_l1[key],
                                            checks.l1(result.x_hat))
        return [f"{p} (instance {key})" for p in problems]

    def _check(self, solver, problem, s_hint, result, exc):
        if result is None:
            return [f"{solver} raised {type(exc).__name__} without a "
                    f"result: {exc}"]
        x_hat = result.x_hat
        if not np.all(np.isfinite(x_hat)):
            return [f"{solver} returned a non-finite x_hat"]
        key, c_gen, x_true, kept = self.instance
        c, y = problem.c, problem.y
        if c is not c_gen:
            raise RuntimeError("solver call does not match the last "
                               "generated instance")
        self.iters[solver] += result.iterations
        self.scored += 1
        if solver == "cp" and result.termination == "max_iter":
            self.capped += 1
        if kept is not None:
            self.images.append((solver, x_hat))
        l1_hat = checks.l1(x_hat)
        problems = []
        if solver in ("nkf", "cp"):
            if key not in self.x_mn:
                self.x_mn[key] = checks.min_norm_solution(c, y)
            x_mn = self.x_mn[key]
            res = checks.rel_residual(c, x_hat, y)
            self.residuals[solver].append(res)
            self.l1_hat[solver] += l1_hat
            self.l1_mn[solver] += checks.l1(x_mn)
            if solver == "nkf":
                problems += checks.nkf_problems(c, y, x_hat, x_mn, x_true,
                                                residual=res)
                if x_true is not None:
                    problems += checks.true_l1_problems(x_hat, x_true)
                if kept is not None:
                    self.nkf_l1[key] = l1_hat
                    bins = checks.kept_bins_residual(
                        x_hat.reshape(self.workload.n_r, self.workload.n_a),
                        kept, y)
                    if not bins <= checks.FEAS_TOL:
                        problems.append(f"nkf image misfits its kept "
                                        f"spectrum bins by {bins:.3e}")
        if x_true is not None and self.workload.recovery_expected(
                problem.m, s_hint):
            problems += checks.recovery_problems(solver, x_true, x_hat)
        return [f"{p} (instance {key})" for p in problems]

    def summary(self) -> dict:
        """Counts that must repeat exactly from round to round."""
        return {
            "attempted": self.attempted, "failed": self.failed,
            "iters": self.iters, "capped": self.capped,
            "l1_hat": {k: repr(v) for k, v in self.l1_hat.items()},
            "residuals": {k: [repr(r) for r in v]
                          for k, v in self.residuals.items()},
            **self.fingerprint,
        }


def trace_targets():
    """(owner, attribute, span label) for every layer the trace times."""
    targets = [
        (harness, "solve_one", "harness.solve_one"),
        (harness, "solve_nkf", "nkf.solve"),
        (harness, "chambolle_pock_bp", "cp.solve"),
        (harness, "omp", "omp.solve"),
        (nkf, "lq_factorize", "nullspace.lq"),
        (nkf, "particular_solution", "nullspace.particular"),
        (scipy.linalg, "qr", "nullspace.qr"),
        (nkf, "predict", "nkf.predict"),
        (nkf, "update", "nkf.update"),
        (nkf, "next_target", "schedule.next_target"),
        (baselines, "operator_norm_est", "cp.norm_est"),
        (baselines, "soft_threshold", "cp.soft_threshold"),
        (harness, "make_instance", "sensing.gen"),
        (harness, "gen_scene", "sensing.gen"),
        (harness, "gen_partial_fourier_2d", "sensing.gen"),
        (harness, "measure", "sensing.gen"),
        (cmatio, "save_matrix", "cmatio.save"),
    ]
    for name in ("detections", "tcr", "image_entropy", "image_contrast",
                 "fa_md", "rrmse", "l2_error", "metrics_json_record"):
        targets.append((harness, name, "metrics.score"))
    for name in ("write_grid_results_csv", "write_grid_timing_csv",
                 "emit_heatmap", "_write_scene_outputs",
                 "write_crossover_csv"):
        targets.append((harness, name, "harness.write"))
    return targets


class ByteCounter:
    """Bytes of CMAT files written, for cmatio's throughput."""

    def __init__(self):
        self.bytes = 0

    def wrap(self, save_matrix):
        def wrapped(path, a):
            save_matrix(path, a)
            self.bytes += os.path.getsize(path)
        return wrapped


def run_round(workload, out_dir, traced):
    """One round; returns (recorder, wall_s, cpu_s, tracer, byte counter)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    patches = Patches()
    tracer = counter = None
    if traced:
        tracer, counter = Tracer(), ByteCounter()
        for owner, name, label in trace_targets():
            patches.replace(owner, name,
                            lambda fn, label=label: tracer.wrap(label, fn))
        patches.replace(cmatio, "save_matrix", counter.wrap)
    rec = Recorder(workload, tracer)
    rec.install(patches)
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        workload.run_round(out_dir)
        wall = time.perf_counter() - w0 - rec.pause_wall
        cpu = time.process_time() - c0 - rec.pause_cpu
    finally:
        patches.undo()
    return rec, wall, cpu, tracer, counter


def warm_up():
    """One untimed solve per solver on a small fixed instance."""
    c, _, y = harness.make_instance(32, 16, 2, 12345)
    problem = SensingProblem(c, y)
    for sv in SOLVERS:
        harness.solve_one(sv, problem, harness.SolverSettings(), s_hint=2)
    np.fft.fft2(np.ones((8, 8), dtype=np.complex128))


def feas_digits(residual: float) -> float:
    return min(16.0, -math.log10(max(residual, 1e-16)))


def end_to_end(rounds, setup_samples, peak_rss_mb):
    """The end-to-end metrics of the untraced rounds of one run.

    Times are medians over the rounds; the rounds repeat the same
    operations, so counts, l1 sums and residuals come from the first.
    """
    def median(values):
        return float(statistics.median(values))

    recs = [r[0] for r in rounds]
    rec = recs[0]
    m = {
        "setup_s": (median(setup_samples), "s"),
        "wall_s": (median(r[1] for r in rounds), "s"),
        "cpu_s": (median(r[2] for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for sv in SOLVERS:
        m[f"{sv}.solve_s"] = (median(r.solve_s[sv] for r in recs), "s")
    for sv in ("nkf", "cp"):
        m[f"{sv}.iters"] = (rec.iters[sv], "count")
    for sv in ("nkf", "cp"):
        m[f"{sv}.l1_ratio"] = (rec.l1_hat[sv] / rec.l1_mn[sv], "ratio")
    m["nkf.feas_digits"] = (feas_digits(max(rec.residuals["nkf"])), "digits")
    m["cp.feas_digits"] = (
        feas_digits(statistics.median(rec.residuals["cp"])), "digits")
    return m


def per_layer(rec, tracer, counter, traced_wall, plain_wall):
    """Per-layer metrics of the traced round; 0 where a layer is idle."""
    t = tracer

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    nkf_setup = rec.setup_s["nkf"]
    lq_n = t.count("nullspace.lq")
    m = {
        "nkf.predict_us": (per(t.self_time("nkf.predict"),
                               t.count("nkf.predict"), 1e6), "us"),
        "nkf.update_us": (per(t.self_time("nkf.update"),
                              t.count("nkf.update"), 1e6), "us"),
        "nkf.iter_us": (per(rec.solve_s["nkf"] - nkf_setup,
                            rec.iters["nkf"], 1e6), "us"),
        "nkf.setup_ms": (per(nkf_setup, t.count("nkf.solve"), 1e3), "ms"),
    }
    for d in (179, 102, 26):
        loop_s, iters = rec.by_size.get(("nkf", d), (0.0, 0))
        m[f"nkf.iter_us.d{d}"] = (per(loop_s, iters, 1e6), "us")
    m["schedule.next_target_us"] = (
        per(t.self_time("schedule.next_target"),
            t.count("schedule.next_target"), 1e6), "us")
    m["nullspace.lq_ms"] = (per(t.total("nullspace.lq"), lq_n, 1e3), "ms")
    m["nullspace.qr_ms"] = (per(t.total("nullspace.qr"), lq_n, 1e3), "ms")
    m["nullspace.lq_rest_ms"] = (
        per(t.total("nullspace.lq") - t.total("nullspace.qr"), lq_n, 1e3),
        "ms")
    m["nullspace.particular_ms"] = (
        per(t.total("nullspace.particular"),
            t.count("nullspace.particular"), 1e3), "ms")
    m["cp.norm_est_ms"] = (per(t.total("cp.norm_est"),
                               t.count("cp.norm_est"), 1e3), "ms")
    m["cp.iter_us"] = (per(rec.solve_s["cp"] - rec.setup_s["cp"],
                           rec.iters["cp"], 1e6), "us")
    m["cp.soft_threshold_us"] = (
        per(t.self_time("cp.soft_threshold"),
            t.count("cp.soft_threshold"), 1e6), "us")
    m["cp.capped"] = (rec.capped, "count")
    for mm in (77, 154, 230):
        loop_s, iters = rec.by_size.get(("cp", mm), (0.0, 0))
        m[f"cp.iter_us.m{mm}"] = (per(loop_s, iters, 1e6), "us")
    m["omp.atom_us"] = (per(rec.solve_s["omp"], rec.iters["omp"], 1e6), "us")
    m["omp.atoms"] = (rec.iters["omp"], "count")
    m["sensing.gen_ms"] = (per(t.total("sensing.gen"), rec.instances, 1e3),
                           "ms")
    m["metrics.score_ms"] = (per(t.total("metrics.score"), rec.scored, 1e3),
                             "ms")
    m["cmatio.save_ms"] = (per(t.total("cmatio.save"),
                               t.count("cmatio.save"), 1e3), "ms")
    m["cmatio.mb_per_s"] = (per(counter.bytes / 1e6, t.total("cmatio.save"),
                                1.0), "MB/s")
    m["harness.write_ms"] = (t.self_time("harness.write") * 1e3, "ms")
    m["harness.rest_s"] = (traced_wall - t.top_level_s(), "s")
    m["trace.overhead_pct"] = ((traced_wall / plain_wall - 1.0) * 100.0, "%")
    return m


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="ascii") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="ascii") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        return None


def manifest(args, workload, rounds_wall, setup_samples):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "inputs": workload.describe(),
        "round_wall_s": rounds_wall,
        "setup_samples_s": setup_samples,
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas_info(),
        "env": {k: os.environ.get(k) for k in PINNED},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--setup-samples", default="",
                        help="set-up times of earlier probe processes")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    warm_up()
    setup = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    setup_samples = [float(v) for v in args.setup_samples.split(",") if v]
    setup_samples.append(setup)

    workload = WORKLOADS[args.workload]()
    shutil.rmtree(args.out, ignore_errors=True)
    os.makedirs(args.out)
    rounds = []
    problems = []
    plan = [False, True] if args.trace else [False] * workload.rounds
    for traced in plan:
        out_dir = os.path.join(args.out, f"round{len(rounds)}")
        rec, wall, cpu, tracer, counter = run_round(workload, out_dir,
                                                    traced)
        problems += workload.check_round(out_dir, rec)
        rounds.append((rec, wall, cpu, tracer, counter))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if any(r[0].summary() != rounds[0][0].summary() for r in rounds[1:]):
        problems.append("the rounds do not repeat each other exactly")

    if args.trace == 1:
        rec, wall, _, tracer, counter = rounds[1]
        metrics = per_layer(rec, tracer, counter, wall, rounds[0][1])
        tracer.dump(os.path.join(args.out, "trace.json"))
    else:
        metrics = end_to_end(rounds, setup_samples, peak_rss_mb)
    with open(os.path.join(args.out, "manifest.json"), "w",
              encoding="ascii") as fh:
        json.dump(manifest(args, workload, [r[1] for r in rounds],
                           setup_samples), fh, indent=2)
        fh.write("\n")
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    for rec, *_ in rounds:
        for message in rec.messages:
            print(f"failed operation: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r[0].attempted for r in rounds),
        "failed": sum(r[0].failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
