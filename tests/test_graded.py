import numpy as np
import pytest

from lpmanifolds.graded import NormLadder, OrbitGrid, graded_norm


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
