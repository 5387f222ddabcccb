import tracemalloc

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


def array_identities(dx):
    # the array form of the check: every (paths, steps) quantity built in full
    dx = np.asarray(dx, dtype=np.int64)
    x_pos = positions(dx)
    z_pos = positions(x_to_z_increments(dx))
    folded = (np.abs(2 * x_pos + 1) - 1) // 2
    ok_local = np.all(folded == z_pos + local_time_positions(x_pos), axis=-1)
    ok_reflect = np.all(folded == z_pos + np.maximum.accumulate(-z_pos, axis=-1), axis=-1)
    return ok_local & ok_reflect


def test_streamed_identities_match_array_form():
    rng = np.random.default_rng(16)
    walks = 1 - 2 * rng.integers(0, 2, size=(300, 200))
    assert np.array_equal(identities_hold(walks), array_identities(walks))
    assert identities_hold(walks).all()
    # steps of size 2 and 0 break the identities on some paths; a batch
    # spanning several row blocks must flag exactly the same ones
    jumps = rng.integers(-2, 3, size=(2 * tanaka._ROW_BLOCK + 3, 20))
    got = identities_hold(jumps)
    assert np.array_equal(got, array_identities(jumps))
    assert got.any() and not got.all()
    for shape in [(4, 5, 30), (7, 0), (0, 9), (0, 0)]:
        dx = 1 - 2 * rng.integers(0, 2, size=shape)
        got, want = identities_hold(dx), array_identities(dx)
        assert got.shape == want.shape == shape[:-1]
        assert np.array_equal(got, want)
    one = identities_hold(walks[0])
    assert np.ndim(one) == 0 and bool(one) == bool(array_identities(walks[0]))


def test_identities_fail_where_they_should():
    # X = 0, -2 and Z = 0, -2: folded X is 1 but Z + L and Z + max(-Z) are -2 and 0
    assert not identities_hold(np.array([-2]))
    assert not array_identities(np.array([-2]))
    assert np.array_equal(identities_hold(np.array([[1, 1], [-2, 0], [-1, 1]])),
                          [True, False, True])


def traced_peak(fn, *args):
    """Bytes allocated at the peak of one call, as numpy reports them to tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_exhaustive_check_memory():
    dx = all_increment_patterns(16)
    # the streamed check keeps a few integers per path: below the input itself
    assert traced_peak(identities_hold, dx) < dx.nbytes
    # positions cumulates into its output, with no full-size temporary
    out_bytes = dx.shape[0] * (dx.shape[1] + 1) * 8
    assert traced_peak(positions, dx) <= 1.25 * out_bytes


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


def test_parity_signs_match_row_minimum():
    def reference(z):
        return np.where(np.min(z, axis=-1) % 2 == 0, 1, -1)

    rng = np.random.default_rng(17)
    z_pos = positions(1 - 2 * rng.integers(0, 2, size=((1 << 14) + 3, 40)))
    for k in range(41):
        prefix = z_pos[:, : k + 1]  # strided rows; 2^14 + 3 of them leave a short last block
        assert np.array_equal(parity_signs(prefix), reference(prefix)), f"k={k}"
    batched = z_pos[:21].reshape(3, 7, 41)
    assert np.array_equal(parity_signs(batched), reference(batched))
    for row in z_pos[:5]:
        got = parity_signs(row)
        assert np.ndim(got) == 0 and got == reference(row)


def test_sgn_convention():
    assert tanaka._sgn(0) == 1
    assert tanaka._sgn(-1) == -1
    assert np.array_equal(tanaka._sgn(np.array([-2, 0, 3])), [-1, 1, 1])
