"""Sparse recovery via nullspace Kalman filtering, with baselines.

The package bundles an l1-minimizing Kalman filter that searches the
nullspace of the sensing matrix, two reference solvers (Chambolle-Pock
basis pursuit and orthogonal matching pursuit), seeded generators for
synthetic compressed-sensing problems, image-quality metrics, and a
benchmark harness exposed through the ``csbench`` command.
"""

from .baselines import (CpConfig, OmpConfig, chambolle_pock_bp, omp,
                        operator_norm_est, soft_threshold)
from .errors import (CmatFormatError, CsbenchError, DimensionMismatch,
                     NotConverged, NumericalFailure, RankDeficient,
                     SolveFailed, ZeroImage, ZeroReferenceAmplitude)
from .harness import (DtCellResult, DtGridConfig, SolverSettings,
                      emit_heatmap, make_instance, run_dt_grid,
                      run_scene_experiment, solve_one, time_crossover)
from .metrics import (detections, fa_md, image_contrast, image_entropy,
                      l2_error, rrmse, tcr)
from .nkf import (NkfConfig, NkfState, l1_jacobian_row, l1_norm, predict,
                  solve as solve_nkf, update)
from .nullspace import lq_factorize, particular_solution
from .operators import DenseOperator, PartialFourier2D, SensingOperator
from .problem import RecoveryResult, SensingProblem
from .rng import PortableRng, combine_seeds
from .schedule import (MODE_AITKEN, MODE_GEOMETRIC, ScheduleState,
                       next_stage, next_target, steffensen_extrapolate)
from .sensing import (SceneSpec, SignalSpec, gen_gaussian_matrix,
                      gen_partial_fourier_2d, gen_scene, gen_sparse_signal,
                      measure, reference_image)

__version__ = "0.1.0"

__all__ = [
    "CmatFormatError", "CpConfig", "CsbenchError", "DimensionMismatch",
    "DenseOperator", "DtCellResult", "DtGridConfig", "MODE_AITKEN", "MODE_GEOMETRIC",
    "NkfConfig", "NkfState", "NotConverged",
    "NumericalFailure", "OmpConfig",
    "PartialFourier2D", "PortableRng", "RankDeficient", "RecoveryResult", "SceneSpec",
    "ScheduleState", "SensingOperator", "SensingProblem", "SignalSpec", "SolveFailed",
    "SolverSettings",
    "ZeroImage", "ZeroReferenceAmplitude",
    "chambolle_pock_bp", "combine_seeds", "detections",
    "emit_heatmap",
    "fa_md", "gen_gaussian_matrix", "gen_partial_fourier_2d", "gen_scene",
    "gen_sparse_signal", "image_contrast",
    "image_entropy", "l1_jacobian_row", "l1_norm", "l2_error",
    "lq_factorize", "make_instance", "measure", "next_stage",
    "next_target",
    "omp", "operator_norm_est", "particular_solution",
    "predict", "reference_image", "rrmse", "run_dt_grid",
    "run_scene_experiment", "soft_threshold", "solve_nkf", "solve_one",
    "steffensen_extrapolate", "tcr", "time_crossover", "update",
]
