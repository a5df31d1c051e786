"""Image-quality metrics for reconstructed scenes.

All metrics operate on complex-valued images (2-D arrays); detection is
relative to each image's own peak magnitude.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DimensionMismatch, ZeroImage, ZeroReferenceAmplitude)

METRIC_COLUMNS = ("solver", "n", "m", "s", "rrmse", "tcr_db", "ie", "ic",
                  "fa", "md")


def _as_image(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D image, got ndim={a.ndim}")
    return a


def rrmse(a_ref, a_rec) -> float:
    """Root mean square of the relative magnitude error per scatterer."""
    a_ref = np.asarray(a_ref, dtype=np.complex128).ravel()
    a_rec = np.asarray(a_rec, dtype=np.complex128).ravel()
    if a_ref.shape != a_rec.shape:
        raise DimensionMismatch(
            f"amplitude vectors differ: {a_ref.shape} vs {a_rec.shape}"
        )
    if a_ref.size == 0:
        raise ValueError("need at least one scatterer")
    mag_ref = np.abs(a_ref)
    if np.any(mag_ref == 0.0):
        raise ZeroReferenceAmplitude("reference scatterer with zero magnitude")
    rel = (mag_ref - np.abs(a_rec)) / mag_ref
    return float(np.sqrt(np.mean(rel ** 2)))


def tcr(image, target_mask, clutter_mask) -> float:
    """Target-to-clutter ratio in dB; +inf when the clutter is silent."""
    image = _as_image(image)
    target_mask = np.asarray(target_mask, dtype=bool)
    clutter_mask = np.asarray(clutter_mask, dtype=bool)
    if target_mask.shape != image.shape or clutter_mask.shape != image.shape:
        raise DimensionMismatch("masks must match the image shape")
    if not target_mask.any() or not clutter_mask.any():
        raise ValueError("masks must select at least one pixel each")
    if (target_mask & clutter_mask).any():
        raise ValueError("target and clutter masks overlap")
    power = np.abs(image) ** 2
    target_power = float(np.mean(power[target_mask]))
    clutter_power = float(np.mean(power[clutter_mask]))
    if clutter_power == 0.0:
        return math.inf
    if target_power == 0.0:
        return -math.inf
    return 10.0 * math.log10(target_power / clutter_power)


def image_entropy(image) -> float:
    """Shannon entropy (natural log) of the normalized power image."""
    image = _as_image(image)
    power = np.abs(image) ** 2
    total = float(power.sum())
    if total == 0.0:
        raise ZeroImage("entropy of an all-zero image is undefined")
    p = power / total
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def image_contrast(image) -> float:
    """Std-to-mean ratio of the power image."""
    image = _as_image(image)
    power = np.abs(image) ** 2
    mean = float(power.mean())
    if mean == 0.0:
        raise ZeroImage("contrast of an all-zero image is undefined")
    return float(np.sqrt(np.mean((power - mean) ** 2)) / mean)


def detections(image, threshold_db: float = -30.0) -> np.ndarray:
    """Pixels with |image| above peak * 10^(threshold_db / 20)."""
    image = _as_image(image)
    mag = np.abs(image)
    return mag > mag.max() * 10.0 ** (threshold_db / 20.0)


def fa_md(reconstructed, reference,
          threshold_db: float = -30.0) -> tuple[int, int]:
    """False alarms and missed detections against a reference image.

    A pixel counts as detected when its magnitude exceeds the image's
    own peak scaled by the threshold; both images use the same relative
    threshold. Returns (fa, md).
    """
    rec = _as_image(reconstructed)
    ref = _as_image(reference)
    if rec.shape != ref.shape:
        raise DimensionMismatch(f"image shapes differ: {rec.shape} vs {ref.shape}")
    det_rec = detections(rec, threshold_db)
    det_ref = detections(ref, threshold_db)
    fa = int(np.sum(det_rec & ~det_ref))
    md = int(np.sum(~det_rec & det_ref))
    return fa, md


def l2_error(x_true, x_hat) -> float:
    x_true = np.asarray(x_true, dtype=np.complex128).ravel()
    x_hat = np.asarray(x_hat, dtype=np.complex128).ravel()
    if x_true.shape != x_hat.shape:
        raise DimensionMismatch(f"lengths differ: {x_true.size} vs {x_hat.size}")
    return float(np.linalg.norm(x_true - x_hat))


def metrics_json_record(solver: str, n: int, m: int, s: int,
                        values: dict) -> dict:
    """One record in METRIC_COLUMNS order; a missing value is None.

    A non-finite value, such as the infinite target-to-clutter ratio of
    an image with silent clutter, is recorded as None too, so the JSON
    dump stays strict JSON. A numpy float is recorded as a Python float.
    """
    record = {"solver": solver, "n": int(n), "m": int(m), "s": int(s)}
    for key in METRIC_COLUMNS[len(record):]:
        v = values.get(key)
        if v is None or not math.isfinite(v):
            v = None
        elif isinstance(v, np.floating):
            v = float(v)
        record[key] = v
    return record
