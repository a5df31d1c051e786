"""Pins the BLAS and OpenMP thread pools of the test run to one thread.

The pools read their thread variables once, when numpy loads, and
pytest loads this file before any test module imports numpy. The names
and values are those the benchmark sets (``bench/run.py:PINNED``), so
the suite runs the solvers on the benchmark's trajectory. A variable
already set in the environment keeps its value.
"""

import importlib.util
import os

_RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "run.py")
_spec = importlib.util.spec_from_file_location("_bench_run", _RUN)
_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_run)
for _name, _value in _run.PINNED.items():
    os.environ.setdefault(_name, _value)
