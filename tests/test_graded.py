import numpy as np
import pytest

from lpmanifolds.graded import (NormLadder, OrbitGrid, _row_norms,
                                graded_norm)


def test_zero_vector_any_ladder():
    ladder = NormLadder.euclidean(3)
    assert graded_norm(np.zeros(3), ladder, 0.0) == 0.0
    assert graded_norm(np.zeros(3), ladder, 2.5) == 0.0


def test_euclidean_345():
    ladder = NormLadder.euclidean(2)
    assert graded_norm(np.array([3.0, 4.0]), ladder, 0.0) == pytest.approx(5.0)


def test_weighted_direct_substitution():
    # mu1(1) = 1, mu2(1) = 2 -> ||(1,1)||_1 = sqrt(5)
    ladder = NormLadder(2, lambda i, r: 1.0 if i == 0 else (1.0 + r))
    assert graded_norm(np.array([1.0, 1.0]), ladder, 1.0) == pytest.approx(
        np.sqrt(5.0), abs=1e-12)


def test_dimension_mismatch_errors():
    ladder = NormLadder.euclidean(3)
    with pytest.raises(ValueError, match="mismatch"):
        graded_norm(np.ones(2), ladder, 0.0)


def test_nonfinite_refused():
    ladder = NormLadder.euclidean(2)
    with pytest.raises(ValueError):
        graded_norm(np.array([1.0, np.nan]), ladder, 0.0)


def test_ladder_monotone_random():
    ladder = NormLadder.fourier([0, 1, 2, 5], lambda r: 2.0 * r)
    rng = np.random.default_rng(42)
    for _ in range(100):
        v = rng.normal(size=8)
        r1, r2 = sorted(rng.uniform(0, 3, size=2))
        assert graded_norm(v, ladder, r1) <= graded_norm(v, ladder, r2) * (
            1 + 1e-14)


def test_fourier_ladder_level_zero_is_euclidean():
    ladder = NormLadder.fourier([0, 1, 3], lambda r: (1 + 2 * r) * 0.75)
    assert ladder.weights(0.0) == pytest.approx(np.ones(6))


def test_empty_orbit_rejected():
    with pytest.raises(ValueError):
        OrbitGrid(np.array([]), np.zeros((0, 2)))


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def test_row_norms_of_two_wide_rows_equal_the_einsum_bit_for_bit():
    # two-wide rows take the gemv of the squares with ones; the norms are
    # the einsum's, bit for bit: on random rows of scales 1e-150 .. 1e150,
    # on zero and -0.0 rows (+0.0 norms) and on rows with inf or NaN (inf
    # and NaN norms)
    n = 2
    rng = np.random.default_rng(n)
    X = rng.normal(size=(3201, n)) * np.exp(
        rng.uniform(-345, 345, size=(3201, 1)))
    X[:3] = 0.0
    X[1, 0] = -0.0
    X[2] = -0.0
    X[3, -1], X[4, 0], X[5] = np.inf, -np.inf, np.nan
    X[6, 0], X[6, -1] = np.nan, np.inf
    got = _row_norms(X)
    want = np.sqrt(np.einsum("ij,ij->i", X, X))
    assert np.array_equal(_bits(got), _bits(np.where(np.isnan(want),
                                                      got, want)))
    assert np.isnan(got[[5, 6]]).all() and np.isnan(want[[5, 6]]).all()
    assert np.all(got[:3] == 0.0) and not np.signbit(got[:3]).any()
    assert np.isinf(got[[3, 4]]).all()
