"""Portable RNG: frozen vectors and independent oracles for each mapping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csbench.rng import PortableRng, combine_seeds, splitmix64

GOLDEN = 0x9E3779B97F4A7C15


def test_splitmix64_published_vectors():
    # First three outputs of the reference splitmix64 stream seeded at 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(GOLDEN) == 0x6E789E6AA1B965F4
    assert splitmix64((2 * GOLDEN) & ((1 << 64) - 1)) == 0x06C45D188009454F


def test_splitmix64_masks_to_64_bits():
    assert splitmix64(2 ** 64) == splitmix64(0)
    assert 0 <= splitmix64(123456789) < 2 ** 64


def test_combine_seeds_deterministic_and_order_sensitive():
    assert combine_seeds(1, 2, 3) == combine_seeds(1, 2, 3)
    assert combine_seeds(1, 2) != combine_seeds(2, 1)
    assert combine_seeds(7) != combine_seeds(7, 0)
    assert combine_seeds(2 ** 64 + 5) == combine_seeds(5)


def test_combine_seeds_single_step_oracle():
    assert combine_seeds(0) == splitmix64(GOLDEN)
    assert combine_seeds(11) == splitmix64(GOLDEN ^ 11)
    two = splitmix64(splitmix64(GOLDEN ^ 4) ^ 9)
    assert combine_seeds(4, 9) == two


def test_uniforms_match_raw_word_mapping():
    # Uniform doubles must be exactly (word >> 11) * 2**-53 of the raw
    # Philox stream keyed by the seed.
    for seed in (0, 42, 2 ** 63 + 17):
        raw = np.random.Philox(key=seed).random_raw(12)
        expected = (raw >> np.uint64(11)) * 2.0 ** -53
        got = PortableRng(seed).uniforms(12)
        np.testing.assert_array_equal(got, expected)


def test_uniforms_prefix_stability():
    a = PortableRng(5).uniforms(4)
    b = PortableRng(5).uniforms(8)
    np.testing.assert_array_equal(a, b[:4])


def test_normals_box_muller_oracle():
    seed = 1234
    u = PortableRng(seed).uniforms(6)
    radius = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    expected = np.empty(6)
    expected[0::2] = radius * np.cos(angle)
    expected[1::2] = radius * np.sin(angle)
    got = PortableRng(seed).normals(6)
    np.testing.assert_array_equal(got, expected)


def test_normals_odd_count_truncates_pair():
    seed = 9
    five = PortableRng(seed).normals(5)
    six = PortableRng(seed).normals(6)
    np.testing.assert_array_equal(five, six[:5])
    assert PortableRng(seed).normals(0).shape == (0,)
    with pytest.raises(ValueError):
        PortableRng(seed).normals(-1)


def test_complex_normals_interleave_oracle():
    seed = 77
    z = PortableRng(seed).normals(8) * 0.5
    expected = z[0::2] + 1j * z[1::2]
    got = PortableRng(seed).complex_normals(4, sigma=0.5)
    np.testing.assert_array_equal(got, expected)


def test_subset_fisher_yates_oracle():
    seed, n, k = 3, 10, 4
    u = PortableRng(seed).uniforms(k)
    idx = list(range(n))
    for i in range(k):
        j = i + int(u[i] * (n - i))
        idx[i], idx[j] = idx[j], idx[i]
    got = PortableRng(seed).subset(n, k)
    np.testing.assert_array_equal(got, idx[:k])


def test_subset_properties():
    rng = PortableRng(8)
    out = rng.subset(100, 30)
    assert out.shape == (30,)
    assert len(set(out.tolist())) == 30
    assert out.min() >= 0 and out.max() < 100


def test_subset_full_permutation_and_empty():
    perm = PortableRng(4).subset(6, 6)
    assert sorted(perm.tolist()) == list(range(6))
    assert PortableRng(4).subset(6, 0).shape == (0,)
    with pytest.raises(ValueError):
        PortableRng(4).subset(3, 4)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(0, 20))
def test_empty_draws_leave_the_stream_where_it_was(seed, n):
    rng = PortableRng(seed)
    for empty, dtype in ((rng.subset(n, 0), np.int64),
                         (rng.normals(0), np.float64),
                         (rng.complex_normals(0), np.complex128)):
        assert empty.shape == (0,) and empty.dtype == dtype
    np.testing.assert_array_equal(rng.uniforms(4),
                                  PortableRng(seed).uniforms(4))


def test_seed_masking():
    a = PortableRng(2 ** 64 + 5).uniforms(3)
    b = PortableRng(5).uniforms(3)
    np.testing.assert_array_equal(a, b)


def test_streams_differ_across_seeds():
    a = PortableRng(1).uniforms(8)
    b = PortableRng(2).uniforms(8)
    assert not np.array_equal(a, b)
