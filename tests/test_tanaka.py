import numpy as np

from splitnoise import tanaka
from splitnoise.tanaka import (
    all_increment_patterns,
    identities_hold,
    local_time_positions,
    parity_signs,
    positions,
    x_to_z_increments,
    z_to_x_increments,
)


def test_x_to_z_examples():
    assert np.array_equal(x_to_z_increments(np.array([1, 1])), [1, 1])
    # sgn(X_0)=+1 gives -1; sgn(X_1)=sgn(-1)=-1 times +1 gives -1
    assert np.array_equal(x_to_z_increments(np.array([-1, 1])), [-1, -1])
    assert x_to_z_increments(np.array([], dtype=np.int64)).shape == (0,)


def test_z_to_x_examples():
    x = z_to_x_increments(np.array([-1, -1, 1]))
    assert np.array_equal(positions(x), [0, -1, 0, 1])
    assert np.array_equal(positions(z_to_x_increments(np.array([1, 1]))), [0, 1, 2])


def test_roundtrip_exhaustive_length_12():
    dx = all_increment_patterns(12)
    dz = x_to_z_increments(dx)
    assert np.array_equal(z_to_x_increments(dz), dx)
    assert np.array_equal(x_to_z_increments(z_to_x_increments(dx)), dx)


def test_transform_is_bijection():
    # measure preservation: the image of all patterns is all patterns
    dz = x_to_z_increments(all_increment_patterns(10))
    masks = ((dz < 0) << np.arange(10)).sum(axis=1)
    assert np.unique(masks).size == 1 << 10


def local_time(dx):
    return local_time_positions(positions(np.array(dx)))


def test_local_time_examples():
    assert np.array_equal(local_time([-1, 1]), [0, 1, 2])
    assert np.array_equal(local_time([1, 1]), [0, 0, 0])
    # pair {1,0} is not inside {0,-1}: no increment
    assert np.array_equal(local_time([1, -1]), [0, 0, 0])


def test_local_time_is_counting_process():
    dx = all_increment_patterns(10)
    lt = local_time_positions(positions(dx))
    steps = np.diff(lt, axis=1)
    assert lt[:, 0].max() == 0
    assert steps.min() >= 0 and steps.max() <= 1


def test_identities_hand_example():
    dx = np.array([-1, 1, 1])  # positions 0,-1,0,1; Z = 0,-1,-2,-1
    z_pos = positions(x_to_z_increments(dx))
    assert np.array_equal(z_pos, [0, -1, -2, -1])
    assert abs(1 + 0.5) - 0.5 == z_pos[3] + 2
    assert identities_hold(dx)


def test_identities_exhaustive_length_12():
    assert bool(identities_hold(all_increment_patterns(12)).all())


def test_identities_empty_path():
    assert identities_hold(np.array([], dtype=np.int64))


def test_parity_rule_examples():
    z_pos = positions(np.array([-1, -1, 1]))
    assert parity_signs(z_pos) == 1  # r = 2, X_3 = 1
    assert parity_signs(positions(np.array([], dtype=np.int64))) == 1


def test_parity_rule_exhaustive_length_14():
    dz = all_increment_patterns(14)
    z_pos = positions(dz)
    x_pos = positions(z_to_x_increments(dz))
    for n in range(15):
        got = parity_signs(z_pos[:, : n + 1])
        want = np.where(x_pos[:, n] >= 0, 1, -1)
        assert np.array_equal(got, want), f"parity mismatch at n={n}"
        # the paper's form: the parity of the last running-minimum time
        prefix = z_pos[:, : n + 1]
        at_min = prefix == np.minimum.accumulate(prefix, axis=-1)
        last = np.max(np.where(at_min, np.arange(n + 1), -1), axis=-1)
        assert np.array_equal(got, np.where(last % 2 == 0, 1, -1)), f"last-minimum form at n={n}"


def test_sgn_convention():
    assert tanaka._sgn(0) == 1
    assert tanaka._sgn(-1) == -1
    assert np.array_equal(tanaka._sgn(np.array([-2, 0, 3])), [-1, 1, 1])
