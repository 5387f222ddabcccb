import numpy as np
import pytest

from splitnoise.errors import DomainError
from splitnoise.sampling import QMC_REPLICATES, EstimateWithError, ScrambledHalton, _primes


def points_of(n_points, dims, seed, batch=1 << 16):
    """Every (labels, points) batch of one scrambled Halton set, concatenated."""
    labels, points = zip(*ScrambledHalton(n_points, dims, batch, seed, 4).batches())
    return np.concatenate(labels), np.concatenate(points, axis=1)


def test_primes():
    assert _primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@pytest.mark.parametrize("n_points, dims", [(2, 1), (17, 4), (400, 3), (800, 6), (5000, 13)])
def test_halton_points_lie_strictly_inside_the_unit_cube(n_points, dims):
    labels, points = points_of(n_points, dims, seed=1)
    assert points.shape == (dims, n_points)
    assert np.all((points > 0.0) & (points < 1.0))
    replicates = min(QMC_REPLICATES, n_points)
    counts = np.bincount(labels, minlength=replicates)
    # floor(n/R) or ceil(n/R) points per replicate, the larger ones first
    assert counts.sum() == n_points and counts.max() - counts.min() <= 1
    assert np.array_equal(counts, ScrambledHalton(n_points, dims, 1 << 16, 1, 4).sizes)


def test_halton_points_are_a_pure_function_of_the_seed():
    for batch in (1 << 16, 64):  # one batch, and many batches of 4 indices
        first, second = points_of(1000, 5, 7, batch), points_of(1000, 5, 7, batch)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()
    assert not np.array_equal(points_of(1000, 5, 7)[1], points_of(1000, 5, 8)[1])


@pytest.mark.parametrize("coordinate, k", [(0, 1), (0, 6), (1, 4), (2, 3), (3, 2), (5, 1)])
def test_a_replicate_of_b_to_the_k_points_stratifies_its_coordinate(coordinate, k):
    # coordinate j is base b = the j-th prime: b^k points of a replicate
    # fall one in each base-b interval of length b^-k, in every replicate
    b = _primes(coordinate + 1)[-1]
    for batch in (1 << 16, 16 * 7):  # the replicates in one batch, and in several
        labels, points = points_of(QMC_REPLICATES * b**k, coordinate + 1, seed=3, batch=batch)
        for r in range(QMC_REPLICATES):
            cells = np.floor(points[coordinate, labels == r] * b**k).astype(int)
            assert np.array_equal(np.sort(cells), np.arange(b**k))


def test_halton_points_are_uniform():
    # every point is exactly uniform, below its digits too: at 2 points a
    # replicate one digit level fixes only a grid of 1/2 to 1/7, yet over
    # seeds each eighth of every coordinate holds an eighth of the points
    points = np.concatenate([points_of(32, 4, seed)[1] for seed in range(200)], axis=1)
    n = points.shape[1]
    for coordinate in points:
        counts = np.bincount((coordinate * 8).astype(int), minlength=8)
        assert np.all(np.abs(counts - n / 8) < 4 * np.sqrt(n / 8 * 7 / 8))


def test_estimate_from_replicates():
    est = EstimateWithError.from_replicates(np.array([1.0, 2.0, 3.0, 4.0]), 40, seed=5,
                                            extra={"replicates": 4})
    assert est.mean == 2.5 and est.n_samples == 40 and est.seed == 5
    assert est.stderr == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
    assert est.as_dict()["replicates"] == 4
    with pytest.raises(DomainError):
        EstimateWithError.from_replicates(np.array([1.0]), 1, seed=5)
