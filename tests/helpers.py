"""Shared test utilities: independent oracles and small generators."""

import itertools
import json

import numpy as np

from csbench.cli import _load_config


def bp_optimum_by_enumeration(c, y, feas_tol: float = 1e-9) -> float:
    """Basis-pursuit optimum of a real-valued instance by enumeration.

    For every support of size 1..m, solves the least-squares fit on the
    selected columns and keeps the l1 norm whenever the fit is feasible
    (relative residual below feas_tol). For real data the problem is a
    linear program with a basic optimal solution on at most m columns,
    so the minimum over all enumerated supports is the exact optimum of
    min ||x||_1 s.t. C x = y. y = 0 has optimum 0.

    Complex data voids the exactness: there the problem is a
    second-order cone program whose optimum can spread over up to 2m
    columns, and the value returned here is only an upper bound (the
    best feasible point on at most m columns, which can sit a few
    percent above the true optimum).
    """
    c = np.asarray(c, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    m, n = c.shape
    y_norm = float(np.linalg.norm(y))
    if y_norm == 0.0:
        return 0.0
    best = None
    for size in range(1, m + 1):
        for support in itertools.combinations(range(n), size):
            sub = c[:, support]
            x_s, *_ = np.linalg.lstsq(sub, y, rcond=None)
            if np.linalg.norm(sub @ x_s - y) <= feas_tol * y_norm:
                l1 = float(np.sum(np.abs(x_s)))
                if best is None or l1 < best:
                    best = l1
    if best is None:
        raise AssertionError("no feasible support found by enumeration")
    return best


def random_complex_matrix(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def random_complex_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def covariance(state) -> np.ndarray:
    """The full covariance P = B - W W^H of an NkfState, as a new array;
    the base B is p_v, or sigma I while p_v is unformed."""
    w = state.held[:state.n_held]
    if state.p_v is None:
        base = state.sigma * np.eye(len(state.x_v), dtype=np.complex128)
    else:
        base = state.p_v
    return base - w.T @ w.conj()


def load_config(tmp_path, solver: str, data):
    """The solver's config as ``csbench solve --config`` reads ``data``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return getattr(_load_config(str(path), solver), solver)
