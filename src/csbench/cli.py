"""csbench command line: generate, solve, and benchmark.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import cmatio
from .errors import (CmatFormatError, DimensionMismatch, RankDeficient,
                     SolveFailed)
from .harness import (KNOWN_SOLVERS, DtGridConfig, SolverSettings,
                      emit_heatmap, run_dt_grid, run_scene_experiment,
                      solve_one, time_crossover, write_crossover_csv,
                      write_grid_results_csv, write_grid_timing_csv)
from .problem import SensingProblem
from .sensing import SceneSpec, gen_gaussian_matrix, gen_partial_fourier_2d

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="csbench",
                     description="sparse-recovery solvers and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a sensing matrix")
    gen.add_argument("--kind", choices=("gaussian", "fourier2d"),
                     required=True)
    gen.add_argument("--m", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--nr", type=int)
    gen.add_argument("--na", type=int)
    gen.add_argument("--keep", type=float)
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="run one solver on one instance")
    solve.add_argument("--solver", choices=KNOWN_SOLVERS, required=True)
    solve.add_argument("--matrix", required=True)
    solve.add_argument("--measurements", required=True)
    solve.add_argument("--config")
    solve.add_argument("--out", required=True)

    grid = sub.add_parser("dt-grid", help="phase-transition sweep")
    grid.add_argument("--n", type=int, required=True)
    grid.add_argument("--steps", type=int, required=True)
    grid.add_argument("--trials", type=int, required=True)
    grid.add_argument("--solvers", default="nkf,cp")
    grid.add_argument("--seed", type=_seed, default=0)
    grid.add_argument("--out", required=True)

    scene = sub.add_parser("scene", help="scene reconstruction study")
    scene.add_argument("--nr", type=int, required=True)
    scene.add_argument("--na", type=int, required=True)
    scene.add_argument("--scatterers", type=int, required=True)
    scene.add_argument("--keep", type=float, required=True)
    scene.add_argument("--region",
                       help="row_lo,row_hi,col_lo,col_hi (default: "
                            "centered half-size rectangle)")
    scene.add_argument("--solvers", default="nkf,cp,omp")
    scene.add_argument("--seeds", type=_seed_list, default="0")
    scene.add_argument("--noise", type=float, default=0.0,
                       help="per-measurement noise standard deviation")
    scene.add_argument("--out", required=True)

    cross = sub.add_parser("crossover", help="solve-time comparison")
    cross.add_argument("--n", type=int, required=True)
    cross.add_argument("--s", type=int, required=True)
    cross.add_argument("--deltas", required=True)
    cross.add_argument("--solvers", default="nkf,cp")
    cross.add_argument("--repeats", type=int, default=5)
    cross.add_argument("--seed", type=_seed, default=0)
    cross.add_argument("--out", required=True)
    return parser


def _seed(text: str) -> int:
    """argparse type: an integer seed in [0, 2^64).

    The library reduces a seed mod 2^64 (see csbench.rng), so a seed
    outside that range would silently alias one inside it.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed: {text!r}") from None
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(
            f"seed {value} is outside [0, 2**64)")
    return value


def _seed_list(text: str) -> list:
    """argparse type: comma-separated seeds, each as for ``_seed``."""
    return [_seed(v) for v in text.split(",") if v.strip()]


def _parse_solvers(raw: str) -> tuple:
    solvers = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not solvers:
        raise ValueError("empty solver list")
    return solvers


def _load_config(path, solver: str) -> SolverSettings:
    """Default settings, with the solver's config read from ``path``.

    The file is a JSON object whose keys are field names of the
    solver's config class (NkfConfig, CpConfig or OmpConfig).
    """
    defaults = SolverSettings()
    if path is None:
        return defaults
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ValueError("config nests too deeply to parse") from exc
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    cls = type(getattr(defaults, solver))
    names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in names:
            raise ValueError(f"unknown config key: {key!r}")
    try:
        config = cls(**data)
    except TypeError as exc:
        raise ValueError(f"bad config value: {exc}") from exc
    return dataclasses.replace(defaults, **{solver: config})


def _cmd_gen(args) -> int:
    if args.kind == "gaussian":
        if args.m is None or args.n is None:
            raise ValueError("gaussian generation needs --m and --n")
        c = gen_gaussian_matrix(args.m, args.n, args.seed)
        cmatio.save_matrix(args.out, c)
        print(f"wrote {c.shape[0]}x{c.shape[1]} matrix to {args.out}")
        return EXIT_OK
    if args.nr is None or args.na is None or args.keep is None:
        raise ValueError("fourier2d generation needs --nr, --na and --keep")
    c, kept = gen_partial_fourier_2d(args.nr, args.na, args.keep, args.seed)
    cmatio.save_matrix(args.out, c)
    idx_path = f"{args.out}.indices.txt"
    cmatio.save_indices(idx_path, kept)
    print(f"wrote {c.shape[0]}x{c.shape[1]} matrix to {args.out}")
    print(f"wrote kept indices to {idx_path}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    c = cmatio.load_matrix(args.matrix)
    y = cmatio.load_vector(args.measurements)
    settings = _load_config(args.config, args.solver)
    problem = SensingProblem(c, y)
    result = solve_one(args.solver, problem, settings)
    result.save_json(args.out)
    print(f"{args.solver}: {result.termination} after {result.iterations} "
          f"iterations, {result.wall_time_ms:.1f} ms; result in {args.out}")
    return EXIT_OK


def _cmd_dt_grid(args) -> int:
    config = DtGridConfig(
        n=args.n, steps=args.steps, trials_per_cell=args.trials,
        solvers=_parse_solvers(args.solvers), seed_base=args.seed,
    )
    grid = run_dt_grid(config)
    os.makedirs(args.out, exist_ok=True)
    results_path = os.path.join(args.out, "grid_results.csv")
    write_grid_results_csv(grid, results_path)
    write_grid_timing_csv(grid, os.path.join(args.out, "grid_timing.csv"))
    for sv in config.solvers:
        for stat in ("success_rate", "mean_l2_error"):
            emit_heatmap(grid, f"{stat}.{sv}",
                         os.path.join(args.out, f"{stat}_{sv}"))
    print(f"wrote grid results to {results_path}")
    return EXIT_OK


def _cmd_scene(args) -> int:
    if args.region is not None:
        parts = [int(v) for v in args.region.split(",")]
        if len(parts) != 4:
            raise ValueError("--region needs four integers")
        region = tuple(parts)
    else:
        region = (args.nr // 4, args.nr // 4 + max(1, args.nr // 2),
                  args.na // 4, args.na // 4 + max(1, args.na // 2))
    spec = SceneSpec(n_r=args.nr, n_a=args.na,
                     n_scatterers=args.scatterers,
                     target_region=region, seed=0)
    run_scene_experiment(spec, args.keep, _parse_solvers(args.solvers),
                         args.seeds, noise_sigma=args.noise, out_dir=args.out)
    print(f"wrote scene metrics to {os.path.join(args.out, 'scene_metrics.csv')}")
    return EXIT_OK


def _cmd_crossover(args) -> int:
    deltas = [float(v) for v in args.deltas.split(",") if v.strip()]
    if not deltas:
        raise ValueError("empty delta list")
    rows = time_crossover(args.n, args.s, deltas,
                          _parse_solvers(args.solvers), args.repeats,
                          seed_base=args.seed)
    write_crossover_csv(rows, args.out)
    print(f"wrote timing table to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "dt-grid": _cmd_dt_grid,
    "scene": _cmd_scene,
    "crossover": _cmd_crossover,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"csbench: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DimensionMismatch as exc:
        print(f"csbench: shape mismatch: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RankDeficient, SolveFailed) as exc:
        print(f"csbench: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, CmatFormatError) as exc:
        print(f"csbench: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
