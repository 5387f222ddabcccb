import hashlib

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


# sha256 over every batch's labels bytes, then its points bytes, at seed 1
_POINT_DIGESTS = {
    (2, 1, 1 << 16): "ed8f14a53cb0460d668c907655e3308e0769e9b1b5aa634f8c86a7ee1594672e",
    (17, 4, 1 << 16): "dac118fab6becdb4fc757f1b8ba463d9bc5cd22141129173c21706e8d819fb6f",
    (400, 3, 1 << 16): "02d9a69efd6fe4b3ef562682878e4d97cb9db1180c24fe0c4d65d785514dacbe",
    (800, 6, 1 << 16): "561d4da15889786345d775b9752a8f625bd63b31c71818f7495ec1ba5e235f89",
    (5000, 13, 1 << 16): "364af95cd1dde19ecdfd023fe84f9a5fc0a4ac9f6ef788d55045eb20b5f652f9",
    (20_000, 3, 1 << 16): "e05039f1e85cebcf800681d543c0d91f5985b900dc14fdf1227bddf6b8bf3e88",
    (20_000, 6, 1 << 16): "941ea5134d3accaf09cf77d7d2fd5cd3d3bd68abbab16325502a3eed61eefbaa",
    (100_000, 6, 1 << 16): "10f2e88854ac44d8b88f27423dc0eea37831e979755f29f2fd61a8399116db28",
    (1_000_000, 6, 1 << 16): "4f5a60a096906d7e5d4fbdcf9c88561c20e2f416b0b5f16a7d4b97384ac9831a",
    (1000, 5, 64): "058c260dc99d45014f6bed65089230f5c922567521aab05a2a1df3629615968b",
}


@pytest.mark.parametrize("n_points, dims, batch", list(_POINT_DIGESTS))
def test_halton_point_stream_is_pinned(n_points, dims, batch):
    # the RHS payloads depend on every bit of these points: one batch and
    # many (100k and 1e6 points, and batch 64), replicates of equal size
    # and of two sizes (17 and 5000 points)
    digest = hashlib.sha256()
    for labels, points in ScrambledHalton(n_points, dims, batch, 1, 4).batches():
        digest.update(labels.tobytes())
        digest.update(points.tobytes())
    assert digest.hexdigest() == _POINT_DIGESTS[n_points, dims, batch]


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
