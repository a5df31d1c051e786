"""The benchmark's layer tracer patches package attributes by name.

``bench/worker.py:trace_targets()`` lists (owner, attribute, label)
triples that a traced run replaces with timing wrappers. A renamed or
removed attribute makes ``--trace 1`` fail, and an attribute that the
solver does not look up through its module is never timed.
"""

import importlib
import os

import numpy as np

import csbench.baselines
import csbench.nkf
from csbench.harness import make_instance
from csbench.operators import PartialFourier2D
from csbench.problem import SensingProblem
from csbench.sensing import gen_partial_fourier_2d

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    worker = importlib.import_module("worker")
    targets = worker.trace_targets()
    assert targets
    missing = [f"{owner.__name__}.{name}" for owner, name, _ in targets
               if not callable(getattr(owner, name, None))]
    assert missing == []


def test_suite_pins_the_benchmark_thread_variables(monkeypatch):
    # tests/conftest.py sets them before numpy loads, unless the
    # environment already did.
    monkeypatch.syspath_prepend(BENCH_DIR)
    pinned = importlib.import_module("run").PINNED
    assert pinned
    assert [name for name in pinned if name not in os.environ] == []


def test_nkf_solve_calls_its_layers_through_the_module(monkeypatch):
    calls = {}
    for name in ("lq_factorize", "particular_solution", "predict",
                 "update", "next_target"):
        fn = getattr(csbench.nkf, name)

        def counted(*args, name=name, fn=fn, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(csbench.nkf, name, counted)
    c, _, y = make_instance(16, 8, 1, seed=3)
    result = csbench.nkf.solve(SensingProblem(c, y))
    assert calls["lq_factorize"] == calls["particular_solution"] == 1
    assert calls["predict"] == calls["update"] == result.iterations > 0
    assert calls["next_target"] == result.iterations


def test_cp_calls_its_layers_through_the_module(monkeypatch):
    calls = {}
    for name in ("operator_norm_est", "soft_threshold"):
        fn = getattr(csbench.baselines, name)

        def counted(*args, name=name, fn=fn, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(csbench.baselines, name, counted)
    c, _, y = make_instance(16, 8, 1, seed=3)
    result = csbench.baselines.chambolle_pock_bp(SensingProblem(c, y))
    assert calls["operator_norm_est"] == 1
    assert calls["soft_threshold"] == result.iterations > 0


def test_cp_on_a_scene_estimates_its_norm_through_the_module(monkeypatch):
    calls = []
    fn = csbench.baselines.operator_norm_est

    def counted(*args, **kwargs):
        calls.append(kwargs.get("op"))
        return fn(*args, **kwargs)
    monkeypatch.setattr(csbench.baselines, "operator_norm_est", counted)
    c, kept = gen_partial_fourier_2d(8, 8, 0.5, seed=6)
    op = PartialFourier2D(8, 8, kept)
    y = c @ np.eye(64)[5]
    result = csbench.baselines.chambolle_pock_bp(SensingProblem(c, y, op))
    assert result.iterations > 0
    assert calls == [op]


def test_nkf_gets_a_structured_problems_x_p_through_the_module(monkeypatch):
    # A scene's x_p goes through the same traced name as a dense one's,
    # and its operator needs no factorization.
    calls = {"lq_factorize": 0, "particular_solution": 0}
    for name in calls:
        fn = getattr(csbench.nkf, name)

        def counted(*args, name=name, fn=fn, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(csbench.nkf, name, counted)
    c, kept = gen_partial_fourier_2d(8, 8, 0.5, seed=6)
    y = c @ np.eye(64)[5]
    result = csbench.nkf.solve(
        SensingProblem(c, y, PartialFourier2D(8, 8, kept)))
    assert result.iterations > 0
    assert calls == {"lq_factorize": 0, "particular_solution": 1}
