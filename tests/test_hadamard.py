"""Transform core: Kronecker-factored transform vs dense oracle, involution,
isometry, in-place writes and input checks."""

import numpy as np
import pytest

from distmeantest import DimensionError, fwht, fwht_inplace, hadamard_matrix
from distmeantest.hadamard import MAX_FACTOR, _factor
from oracles import naive_hadamard_apply

RNG = np.random.default_rng(20240817)


def test_d2_first_basis_vector():
    out = fwht(np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_constant_vector_concentrates():
    # all-ones maps to a scaled first basis vector
    out = fwht(np.array([1.0, 1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out, [2.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_d8_matches_naive_oracle():
    v = RNG.standard_normal(8)
    np.testing.assert_allclose(fwht(v), naive_hadamard_apply(v), atol=1e-12)


def test_h1_is_identity():
    assert naive_hadamard_apply(np.array([3.7]))[0] == pytest.approx(3.7)


def test_h2_corner_entry():
    assert hadamard_matrix(2)[1, 1] == pytest.approx(-1 / np.sqrt(2))


def test_h4_is_kronecker_square_of_h2():
    h2 = hadamard_matrix(2)
    np.testing.assert_allclose(hadamard_matrix(4), np.kron(h2, h2), atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 64, 256, 1024])
def test_involution(d):
    """H is symmetric orthogonal, so applying it twice is the identity."""
    v = RNG.standard_normal(d)
    back = fwht(fwht(v))
    err = np.max(np.abs(back - v)) / max(np.max(np.abs(v)), 1e-300)
    assert err <= 1e-9, f"involution error {err:.2e} at d={d}"


@pytest.mark.parametrize("d", [2, 8, 32, 128, 1024])
def test_isometry(d):
    v = RNG.standard_normal(d)
    ratio = np.linalg.norm(fwht(v)) / np.linalg.norm(v)
    assert abs(ratio - 1.0) <= 1e-9, f"norm ratio {ratio} at d={d}"


@pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 32, 64, 128, 256])
def test_oracle_equivalence(d):
    for _ in range(5):
        v = RNG.standard_normal(d)
        np.testing.assert_allclose(fwht(v), naive_hadamard_apply(v), atol=1e-9)


def test_fwht_batch_axis():
    # leading axes are a batch; row i transforms independently
    batch = RNG.standard_normal((5, 16))
    out = fwht_inplace(batch.copy())
    for i in range(5):
        np.testing.assert_allclose(out[i], fwht(batch[i]), atol=1e-12)


def test_fwht_preserves_input():
    v = RNG.standard_normal(8)
    keep = v.copy()
    fwht(v)
    np.testing.assert_array_equal(v, keep)


@pytest.mark.parametrize("bad", [0, 3, 6, 12])
def test_non_power_of_two_rejected(bad):
    with pytest.raises(DimensionError):
        fwht(np.ones(bad) if bad else np.ones(0))


def test_naive_oracle_scale_cap():
    with pytest.raises(DimensionError):
        naive_hadamard_apply(np.ones(2048))


def test_naive_oracle_rejects_matrices():
    with pytest.raises(DimensionError):
        naive_hadamard_apply(np.ones((4, 4)))


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("k", range(11))
def test_batches_match_naive_oracle(k, batch):
    x = RNG.standard_normal(batch + (2 ** k,))
    out = fwht_inplace(x.copy())
    for idx in np.ndindex(*batch):
        np.testing.assert_allclose(out[idx], naive_hadamard_apply(x[idx]), atol=1e-12)


def test_d2048_batch_matches_dense_matrix():
    x = RNG.standard_normal((4, 2048))
    expected = (hadamard_matrix(2048) @ x.T).T
    np.testing.assert_allclose(fwht_inplace(x.copy()), expected, atol=1e-12)


def test_d4096_involution_and_isometry():
    x = RNG.standard_normal((3, 4096))
    once = fwht(x)
    np.testing.assert_allclose(np.linalg.norm(once, axis=1), np.linalg.norm(x, axis=1),
                               rtol=1e-12)
    np.testing.assert_allclose(fwht_inplace(once), x, atol=1e-12)


@pytest.mark.parametrize("view", [lambda a: a[:, ::2], lambda a: a.T],
                         ids=["strided", "transposed"])
def test_in_place_on_non_contiguous_views(view):
    base = RNG.standard_normal((32, 32))
    v = view(base)
    assert not v.flags.c_contiguous
    expected = fwht(v)
    assert fwht_inplace(v) is v
    np.testing.assert_allclose(view(base), expected, atol=1e-12)


def test_float32_stays_float32():
    x = RNG.standard_normal((5, 256))
    out = fwht_inplace(x.astype(np.float32))
    assert out.dtype == np.float32
    assert fwht(x.astype(np.float32)).dtype == np.float32
    np.testing.assert_allclose(out, fwht(x), atol=1e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cached_factors_are_read_only(dtype):
    f = 1
    while f <= MAX_FACTOR:
        h = _factor(f, np.dtype(dtype))
        assert h.dtype == dtype and not h.flags.writeable
        assert _factor(f, np.dtype(dtype)) is h
        with pytest.raises(ValueError):
            h[0, 0] = 0.0
        f *= 2


def test_integer_array_rejected_untouched():
    a = np.array([1, 2, 3, 4])
    with pytest.raises(DimensionError):
        fwht_inplace(a)
    np.testing.assert_array_equal(a, [1, 2, 3, 4])


def test_zero_d_array_rejected():
    a = np.array(3.0)
    with pytest.raises(DimensionError):
        fwht_inplace(a)
    assert a == 3.0


@pytest.mark.parametrize("v, expected", [
    ([1.0, -1.0], [0.0, np.sqrt(2.0)]),
    ((1, 2, 3, 4), [5.0, -1.0, -2.0, 0.0]),
], ids=["list", "int-tuple"])
def test_fwht_converts_sequences(v, expected):
    out = fwht(v)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out, expected, atol=1e-12)
