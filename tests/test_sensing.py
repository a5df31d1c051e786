"""Signal, matrix, and scene generation plus the measurement model."""

import math
import tracemalloc

import numpy as np
import pytest

from csbench.errors import DimensionMismatch
from csbench.operators import dft_rows
from csbench.sensing import (SceneSpec, SignalSpec, gen_gaussian_matrix,
                             gen_partial_fourier_2d, gen_scene,
                             gen_sparse_signal, measure, reference_image,
                             region_mask, round_half_up)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(3.0) == 3
    # the acceptance grids rely on this exact count
    assert round_half_up(0.25 * 100 * 80) == 2000


def test_sparse_signal_basic_properties():
    spec = SignalSpec(n=64, s=5, seed=11)
    x = gen_sparse_signal(spec)
    assert x.shape == (64,)
    assert np.count_nonzero(x) == 5
    assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)


def test_sparse_signal_deterministic():
    a = gen_sparse_signal(SignalSpec(32, 3, seed=9))
    b = gen_sparse_signal(SignalSpec(32, 3, seed=9))
    np.testing.assert_array_equal(a, b)
    c = gen_sparse_signal(SignalSpec(32, 3, seed=10))
    assert not np.array_equal(a, c)


def test_sparse_signal_edge_cases():
    assert np.all(gen_sparse_signal(SignalSpec(8, 0, seed=1)) == 0)
    x = gen_sparse_signal(SignalSpec(1, 1, seed=5))
    assert abs(x[0]) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        SignalSpec(8, 9, seed=0)
    with pytest.raises(ValueError):
        SignalSpec(0, 0, seed=0)


def test_gaussian_matrix_columns_normalized():
    c = gen_gaussian_matrix(24, 48, seed=3)
    assert c.shape == (24, 48)
    np.testing.assert_allclose(np.linalg.norm(c, axis=0), 1.0, atol=1e-12)


def test_gaussian_matrix_deterministic():
    a = gen_gaussian_matrix(8, 16, seed=7)
    b = gen_gaussian_matrix(8, 16, seed=7)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, gen_gaussian_matrix(8, 16, seed=8))


def test_gaussian_matrix_coherence_plausible():
    # Unit columns in 64 dimensions: pairwise coherence stays far from 1.
    for seed in range(5):
        c = gen_gaussian_matrix(64, 128, seed=seed)
        gram = np.abs(c.conj().T @ c)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 0.6


def test_gaussian_matrix_validation():
    with pytest.raises(ValueError):
        gen_gaussian_matrix(0, 4, seed=0)


def test_fourier_full_keep_is_unitary():
    c, kept = gen_partial_fourier_2d(8, 8, 1.0, seed=0)
    assert c.shape == (64, 64)
    np.testing.assert_array_equal(kept, np.arange(64))
    np.testing.assert_allclose(c.conj().T @ c, np.eye(64), atol=1e-10)


def test_fourier_partial_rows_orthonormal():
    c, kept = gen_partial_fourier_2d(8, 6, 0.4, seed=5)
    m = round_half_up(0.4 * 48)
    assert c.shape == (m, 48)
    assert kept.shape == (m,)
    assert np.all(np.diff(kept) > 0)
    np.testing.assert_allclose(c @ c.conj().T, np.eye(m), atol=1e-10)


def test_fourier_row_count_rounding():
    c, _ = gen_partial_fourier_2d(6, 6, 0.3, seed=1)
    assert c.shape[0] == 11            # 10.8 rounds up
    c, _ = gen_partial_fourier_2d(6, 7, 0.25, seed=1)
    assert c.shape[0] == 11            # 10.5 rounds half up


def test_fourier_deterministic():
    a, ka = gen_partial_fourier_2d(8, 8, 0.25, seed=2)
    b, kb = gen_partial_fourier_2d(8, 8, 0.25, seed=2)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ka, kb)


def test_fourier_holds_one_matrix_of_its_size():
    # C is divided in place: the generator's peak is C itself plus its
    # small factors, not C and a scaled copy, and no bit changes.
    n_r = n_a = 32
    tracemalloc.start()
    try:
        c, kept = gen_partial_fourier_2d(n_r, n_a, 0.9, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * c.nbytes
    row_part = dft_rows(kept // n_a, n_r)
    col_part = dft_rows(kept % n_a, n_a)
    old = ((row_part[:, :, None] * col_part[:, None, :]).reshape(c.shape)
           / math.sqrt(n_r * n_a))
    assert c.tobytes() == old.tobytes()


def test_fourier_validation():
    with pytest.raises(ValueError):
        gen_partial_fourier_2d(8, 8, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_partial_fourier_2d(8, 8, 1.5, seed=0)
    with pytest.raises(ValueError):
        gen_partial_fourier_2d(0, 8, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_partial_fourier_2d(4, 4, 0.001, seed=0)   # keeps no rows


def test_measure_noiseless_is_exact():
    c = gen_gaussian_matrix(8, 16, seed=0)
    x = gen_sparse_signal(SignalSpec(16, 2, seed=1))
    np.testing.assert_array_equal(measure(c, x, 0.0, seed=99), c @ x)


def test_measure_noise_statistics():
    # E ||noise||^2 = m sigma^2; average over many seeds.
    m, sigma = 16, 0.5
    c = np.zeros((m, 4), dtype=complex)
    c[:, 0] = 0.0
    x = np.zeros(4, dtype=complex)
    total = 0.0
    draws = 1000
    for seed in range(draws):
        eta = measure(np.eye(m), np.zeros(m), sigma, seed=seed)
        total += float(np.sum(np.abs(eta) ** 2))
    mean = total / draws
    assert mean == pytest.approx(m * sigma ** 2, rel=0.1)


def test_measure_deterministic_given_seed():
    c = gen_gaussian_matrix(8, 16, seed=0)
    x = gen_sparse_signal(SignalSpec(16, 2, seed=1))
    a = measure(c, x, 0.3, seed=42)
    b = measure(c, x, 0.3, seed=42)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, measure(c, x, 0.3, seed=43))


def test_measure_validation():
    with pytest.raises(DimensionMismatch):
        measure(np.eye(3), np.zeros(4), 0.0, seed=0)
    # NaN compares false both ways, so a sign test alone passes it and
    # no noise is added.
    for sigma in (-0.1, -np.inf, np.nan):
        with pytest.raises(ValueError, match="noise_sigma"):
            measure(np.eye(3), np.zeros(3), sigma, seed=0)


def test_measure_rejects_an_infinite_noise_level(recwarn):
    with pytest.raises(ValueError, match="noise_sigma must be .* got inf"):
        measure(np.eye(3), np.ones(3), np.inf, 1)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_scene_respects_region_and_count():
    spec = SceneSpec(16, 16, 12, (4, 12, 4, 12), seed=3)
    scene = gen_scene(spec)
    assert scene.shape == (256,)
    assert np.count_nonzero(scene) == 12
    mask = region_mask(spec).reshape(-1)
    assert np.all(mask[np.flatnonzero(scene)])


def test_scene_zero_scatterers():
    spec = SceneSpec(8, 8, 0, (0, 8, 0, 8), seed=0)
    assert np.count_nonzero(gen_scene(spec)) == 0


def test_scene_deterministic():
    spec = SceneSpec(16, 16, 5, (2, 14, 2, 14), seed=77)
    np.testing.assert_array_equal(gen_scene(spec), gen_scene(spec))


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(8, 8, 1, (4, 4, 0, 8), seed=0)       # empty rows
    with pytest.raises(ValueError):
        SceneSpec(8, 8, 1, (0, 9, 0, 8), seed=0)       # out of grid
    with pytest.raises(ValueError):
        SceneSpec(8, 8, 65, (0, 8, 0, 8), seed=0)      # too many points
    with pytest.raises(ValueError):
        SceneSpec(0, 8, 0, (0, 1, 0, 1), seed=0)


def test_region_mask_shape_and_area():
    spec = SceneSpec(8, 12, 2, (1, 3, 4, 10), seed=0)
    mask = region_mask(spec)
    assert mask.shape == (8, 12)
    assert mask.sum() == 2 * 6
    assert mask[1, 4] and mask[2, 9]
    assert not mask[0, 4] and not mask[3, 4] and not mask[1, 3]


def test_reference_image_inverts_full_sampling():
    spec = SceneSpec(8, 8, 6, (2, 6, 2, 6), seed=9)
    scene = gen_scene(spec)
    c, kept = gen_partial_fourier_2d(8, 8, 1.0, seed=4)
    y = measure(c, scene, 0.0, seed=0)
    img = reference_image(y, kept, 8, 8)
    np.testing.assert_allclose(img.reshape(-1), scene, atol=1e-10)


def test_reference_image_zero_input():
    img = reference_image(np.zeros(4), [0, 1, 2, 3], 2, 2)
    np.testing.assert_array_equal(img, np.zeros((2, 2)))


def test_reference_image_peak_at_scatterer():
    spec = SceneSpec(16, 16, 1, (4, 12, 4, 12), seed=2)
    scene = gen_scene(spec)
    pixel = int(np.flatnonzero(scene)[0])
    c, kept = gen_partial_fourier_2d(16, 16, 0.25, seed=8)
    y = measure(c, scene, 0.0, seed=0)
    img = reference_image(y, kept, 16, 16)
    assert int(np.argmax(np.abs(img).reshape(-1))) == pixel


def test_reference_image_rejects_non_finite_measurements():
    # Unchecked, one NaN would fill the whole image with NaN.
    with pytest.raises(ValueError, match="non-finite"):
        reference_image([np.nan, 1.0, 2.0, 3.0], [0, 1, 2, 3], 2, 2)


def test_reference_image_validation():
    with pytest.raises(DimensionMismatch):
        reference_image(np.zeros(3), [0, 1], 2, 2)
    with pytest.raises(ValueError):
        reference_image(np.zeros(2), [0, 4], 2, 2)
    with pytest.raises(ValueError):
        reference_image(np.zeros(2), [1, 1], 2, 2)
