"""No NaN or infinity reaches an artifact file.

For every writer, a non-finite value, whether a Python float or one of
numpy's float types, either raises before the file exists or is written
as an empty CSV cell or a JSON null.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csbench.cmatio import load_matrix, save_matrix
from csbench.errors import NumericalFailure
from csbench.harness import (DtCellResult, SolverCellStats,
                             write_crossover_csv, write_grid_results_csv)
from csbench.metrics import METRIC_COLUMNS, metrics_json_record

# Every value fits float32 exactly, so each kind holds it unchanged;
# the non-finite ones are drawn often.
FLOAT_KINDS = (float, np.float64, np.float32)
values = st.builds(lambda v, kind: kind(v),
                   st.floats(width=32)
                   | st.sampled_from([math.nan, math.inf, -math.inf]),
                   st.sampled_from(FLOAT_KINDS))
optional_values = st.none() | values


def _finite(v) -> bool:
    return v is None or math.isfinite(v)


def _write_or_refuse(write, error, expect_ok):
    """Run ``write(path)`` in a fresh directory. It must raise ``error``
    and leave no file unless ``expect_ok``; the written text is
    returned, None when refused."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        if expect_ok:
            write(path)
            with open(path, encoding="ascii") as fh:
                return fh.read()
        with pytest.raises(error):
            write(path)
        assert not os.path.exists(path)
        return None


def _assert_numeric_cells(text):
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            if cell and cell != "nkf":
                assert math.isfinite(float(cell)), line


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(values, optional_values), min_size=1,
                max_size=4))
def test_crossover_csv_never_writes_a_non_finite_value(pairs):
    rows = [{"delta": delta, "m": 10, "solver": "nkf", "repeats": 3,
             "median_wall_time_ms": ms} for delta, ms in pairs]
    ok = all(_finite(v) for pair in pairs for v in pair)
    text = _write_or_refuse(lambda p: write_crossover_csv(rows, p),
                            NumericalFailure, ok)
    if ok:
        assert len(text.splitlines()) == 1 + len(rows)
        _assert_numeric_cells(text)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(values, values, optional_values), min_size=1,
                max_size=4))
def test_grid_results_csv_never_writes_a_non_finite_value(cells):
    grid = [[DtCellResult(delta=delta, rho=rho, m=8, s=2, per_solver={
        "nkf": SolverCellStats(trials=4, successes=3, failures=0,
                               mean_l2_error=err,
                               median_wall_time_ms=None)})
        for delta, rho, err in cells]]
    ok = all(_finite(v) for cell in cells for v in cell)
    text = _write_or_refuse(lambda p: write_grid_results_csv(grid, p),
                            NumericalFailure, ok)
    if ok:
        assert len(text.splitlines()) == 1 + len(cells)
        _assert_numeric_cells(text)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True),
                min_size=6, max_size=6))
def test_save_matrix_never_writes_a_non_finite_entry(entries):
    a = np.array(entries, dtype=np.complex128).reshape(2, 3)
    ok = bool(np.all(np.isfinite(a)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.cmat")
        if ok:
            save_matrix(path, a)
            np.testing.assert_array_equal(load_matrix(path), a)
        else:
            with pytest.raises(ValueError):
                save_matrix(path, a)
            assert not os.path.exists(path)


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({key: optional_values
                              for key in METRIC_COLUMNS[4:]}))
def test_metrics_json_record_holds_null_for_a_non_finite_value(metrics):
    record = metrics_json_record("nkf", 64, 16, 2, metrics)
    for key, v in metrics.items():
        if _finite(v):
            assert record[key] == (None if v is None else float(v))
        else:
            assert record[key] is None
    json.loads(json.dumps(record, allow_nan=False))
