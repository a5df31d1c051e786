"""Image metrics: entropy, contrast, target-to-clutter, error rates."""

import math

import numpy as np
import pytest

from csbench.errors import (DimensionMismatch, ZeroImage,
                            ZeroReferenceAmplitude)
from csbench.metrics import (METRIC_COLUMNS, detections, fa_md,
                             image_contrast, image_entropy, l2_error,
                             metrics_json_record, rrmse, tcr)


def test_entropy_uniform_2x2_is_ln4():
    img = np.ones((2, 2), dtype=complex)
    assert image_entropy(img) == pytest.approx(math.log(4.0), abs=1e-12)


def test_entropy_single_pixel_is_zero():
    img = np.zeros((4, 4), dtype=complex)
    img[1, 2] = 3.0 - 1.0j
    assert image_entropy(img) == 0.0


def test_entropy_two_pixel_concentration_monotone():
    # Moving power onto one pixel lowers the entropy toward 0.
    prev = math.log(2.0) + 1e-12
    for w in (0.5, 0.6, 0.8, 0.95, 0.999):
        img = np.array([[math.sqrt(w), math.sqrt(1.0 - w)]], dtype=complex)
        h = image_entropy(img)
        assert h < prev
        prev = h
    assert image_entropy(np.array([[1.0, 0.0]])) == 0.0


def test_entropy_scale_invariant():
    rng = np.random.default_rng(5)
    img = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = image_entropy(img)
    b = image_entropy(img * (2.5 - 1.25j))
    assert a == pytest.approx(b, rel=1e-12)


def test_entropy_zero_image_raises():
    with pytest.raises(ZeroImage):
        image_entropy(np.zeros((3, 3)))


def test_contrast_constant_image_is_zero():
    img = (0.5 + 2j) * np.ones((5, 5))
    assert image_contrast(img) == pytest.approx(0.0, abs=1e-12)


def test_contrast_known_two_level_image():
    # Powers (0, 2): mean 1, std 1, contrast 1.
    img = np.array([[0.0, math.sqrt(2.0)]], dtype=complex)
    assert image_contrast(img) == pytest.approx(1.0, rel=1e-12)


def test_contrast_scale_invariant_and_zero_raises():
    rng = np.random.default_rng(6)
    img = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert image_contrast(img) == pytest.approx(
        image_contrast(img * 3.5j), rel=1e-12)
    with pytest.raises(ZeroImage):
        image_contrast(np.zeros((2, 2)))


def _half_masks(shape):
    target = np.zeros(shape, dtype=bool)
    target[:, : shape[1] // 2] = True
    return target, ~target


def test_tcr_known_ratio():
    # |2| targets against |1| clutter: 10 log10(4) dB.
    img = np.ones((2, 4), dtype=complex)
    img[:, :2] = 2.0j
    target, clutter = _half_masks((2, 4))
    assert tcr(img, target, clutter) == pytest.approx(
        10.0 * math.log10(4.0), abs=1e-9)
    assert tcr(img, target, clutter) == pytest.approx(6.0206, abs=1e-3)


def test_tcr_equal_power_is_zero_db():
    img = np.ones((2, 4), dtype=complex)
    target, clutter = _half_masks((2, 4))
    assert tcr(img, target, clutter) == pytest.approx(0.0, abs=1e-12)


def test_tcr_silent_clutter_and_silent_target():
    img = np.zeros((2, 4), dtype=complex)
    img[:, :2] = 1.0
    target, clutter = _half_masks((2, 4))
    assert tcr(img, target, clutter) == math.inf
    assert tcr(img, clutter, target) == -math.inf


def test_tcr_scale_invariant():
    rng = np.random.default_rng(7)
    img = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    target, clutter = _half_masks((4, 6))
    a = tcr(img, target, clutter)
    b = tcr(img * (0.01 - 0.3j), target, clutter)
    assert a == pytest.approx(b, rel=1e-12)


def test_tcr_mask_validation():
    img = np.ones((2, 4), dtype=complex)
    target, clutter = _half_masks((2, 4))
    with pytest.raises(ValueError):
        tcr(img, target, target)                     # overlap
    with pytest.raises(ValueError):
        tcr(img, np.zeros((2, 4), dtype=bool), clutter)
    with pytest.raises(DimensionMismatch):
        tcr(img, target[:, :2], clutter)


def test_rrmse_identical_is_zero():
    a = np.array([1 + 1j, -2.0, 0.5j])
    assert rrmse(a, a) == 0.0


def test_rrmse_known_values():
    assert rrmse([2.0], [1.0]) == pytest.approx(0.5, rel=1e-15)
    assert rrmse([2.0, 4.0], [1.0, 2.0]) == pytest.approx(0.5, rel=1e-15)
    # 0.0 and 1.0 relative errors: sqrt(mean([0, 1])) = sqrt(0.5)
    assert rrmse([1.0, 2.0], [1.0, 4.0]) == pytest.approx(
        math.sqrt(0.5), rel=1e-12)


def test_rrmse_phase_invariant():
    ref = np.array([2.0, 1.0 + 1.0j])
    rec = ref * np.exp(0.7j)
    assert rrmse(ref, rec) == pytest.approx(0.0, abs=1e-12)


def test_rrmse_validation():
    with pytest.raises(ZeroReferenceAmplitude):
        rrmse([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        rrmse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        rrmse([], [])


def test_detections_relative_threshold():
    img = np.array([[1.0, 0.05, 0.02]])
    det = detections(img, threshold_db=-26.0)       # cut at 0.0501
    np.testing.assert_array_equal(det, [[True, False, False]])
    det = detections(img, threshold_db=-30.0)       # cut at 0.0316
    np.testing.assert_array_equal(det, [[True, True, False]])


def test_fa_md_cases():
    ref = np.zeros((2, 2), dtype=complex)
    ref[0, 0] = 1.0
    assert fa_md(ref, ref) == (0, 0)
    rec = np.zeros((2, 2), dtype=complex)
    rec[0, 0] = 1.0
    rec[1, 1] = 0.5                                  # extra bright pixel
    assert fa_md(rec, ref) == (1, 0)
    miss = np.zeros((2, 2), dtype=complex)
    miss[0, 1] = 1.0                                 # wrong pixel entirely
    assert fa_md(miss, ref) == (1, 1)


def test_fa_md_symmetric_difference_property():
    rng = np.random.default_rng(9)
    rec = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    ref = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    fa, md = fa_md(rec, ref)
    det_rec = detections(rec)
    det_ref = detections(ref)
    assert fa + md == int(np.sum(det_rec ^ det_ref))
    assert fa_md(ref, rec) == (md, fa)


def test_fa_md_shape_validation():
    with pytest.raises(DimensionMismatch):
        fa_md(np.ones((2, 2)), np.ones((2, 3)))


def test_l2_error_examples():
    assert l2_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert l2_error([1.0, 0.0], [0.0, 0.0]) == pytest.approx(1.0)
    assert l2_error([1j], [0.0]) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        l2_error([1.0], [1.0, 2.0])


def test_metrics_record_and_csv_row():
    record = metrics_json_record(
        "nkf", 64, 16, 5,
        {"rrmse": 0.25, "tcr_db": 6.5, "ie": 1.5, "ic": 2.0, "fa": 1,
         "md": 0},
    )
    assert record == {"solver": "nkf", "n": 64, "m": 16, "s": 5,
                      "rrmse": 0.25, "tcr_db": 6.5, "ie": 1.5, "ic": 2.0,
                      "fa": 1, "md": 0}
    # The record's keys are the CSV columns, in order, and hold no time.
    assert tuple(record) == METRIC_COLUMNS
    assert "wall_time_ms" not in METRIC_COLUMNS


def test_metrics_record_non_finite_fields_are_none():
    record = metrics_json_record(
        "cp", 8, 4, 1, {"rrmse": 0.0, "tcr_db": math.inf, "ie": math.nan,
                        "ic": -math.inf, "fa": 0, "md": 0})
    assert [record[k] for k in ("rrmse", "tcr_db", "ie", "ic", "fa")] \
        == [0.0, None, None, None, 0]


def test_metrics_record_none_fields_blank():
    record = metrics_json_record("omp", 8, 4, 1, {})
    assert tuple(record) == METRIC_COLUMNS
    assert [record[k] for k in METRIC_COLUMNS[4:]] == [None] * 6
