"""Exact discrete Tanaka model on the integer lattice.

A walk X with +-1 steps from 0 drives a walk Z through
Z_{k+1} - Z_k = sgn(X_k) (X_{k+1} - X_k) with sgn(a) = +1 for a >= 0,
-1 for a < 0.  Unlike the continuous-time analogue, Z determines X: the
reflection identity |X_n + 1/2| - 1/2 = Z_n + max_{k<=n}(-Z_k) recovers
|X| and the parity of min Z, which is the parity of the last
running-minimum time of Z, recovers the sign.  Everything here is exact
integer arithmetic on (optionally batched) increment arrays, so the
identities can be checked exhaustively.

The exhaustive check streams: `identities_hold` walks X, Z, the local
time and the running maximum of -Z forward one step at a time over
blocks of paths, so its state is a few integers per path, and
`parity_signs` takes its row minima column by column over row blocks
that fit in cache.
"""

from __future__ import annotations

import math

import numpy as np

_ROW_BLOCK = 4096  # paths per block: a block's rows of a 2^16-path table stay in cache


def _sgn(a: np.ndarray | int) -> np.ndarray:
    """Sign with sgn(0) = +1 (the convention the whole model relies on)."""
    return np.where(np.asarray(a) >= 0, 1, -1)


# -- array core (last axis = time; leading axes = batch) -----------------

def x_to_z_increments(dx: np.ndarray) -> np.ndarray:
    """Drive increments dZ_k = sgn(X_k) dX_k from walk increments."""
    dx = np.asarray(dx, dtype=np.int64)
    sign = positions(dx)[..., :-1]
    sign >>= 63  # -1 where X_k < 0, else 0: the walk's table becomes the sign table
    dz = dx ^ sign  # ~dx where X_k < 0
    dz -= sign  # ~dx + 1 = -dx
    return dz

def z_to_x_increments(dz: np.ndarray) -> np.ndarray:
    """The unique walk with dX_k = sgn(X_k) dZ_k; inverse of x_to_z_increments.

    A step recursion, kept independent of the closed form above and of
    the parity rule, so the round trip and the parity check compare two
    separate codes.  Steps along a time-major copy, so each step reads
    and writes one contiguous row; the result is laid out like dz.
    """
    dz = np.asarray(dz, dtype=np.int64)
    dx = np.moveaxis(dz, -1, 0).copy()  # dx[k] = dZ_k, turned into dX_k in place
    steps = dx.reshape(dx.shape[0], math.prod(dz.shape[:-1]))  # a row per step
    x = np.zeros(steps.shape[1], dtype=np.int64)
    for step in steps:
        step *= _sgn(x)
        x += step
    return np.ascontiguousarray(np.moveaxis(dx, 0, -1))

def positions(increments: np.ndarray) -> np.ndarray:
    """Prepend the starting 0 and cumulate increments along the last axis."""
    inc = np.asarray(increments, dtype=np.int64)
    out = np.zeros(inc.shape[:-1] + (inc.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out

def local_time_positions(pos: np.ndarray) -> np.ndarray:
    """L_n = #{k < n : X_k and X_{k+1} both in {0,-1}}, L_0 = 0.

    Counts traversals/touches of the bond between 0 and -1, which is the
    unique reading under which the reflection identity holds pathwise.
    """
    pos = np.asarray(pos, dtype=np.int64)
    near = (pos == 0) | (pos == -1)
    return positions(near[..., :-1] & near[..., 1:])

def identities_hold(dx: np.ndarray) -> np.ndarray:
    """Check the two pathwise reflection identities at every time.

    For each path: folded X equals both Z_n + L_n and
    Z_n + max_{k<=n}(-Z_k), for all n up to the path length.
    Returns a boolean per leading-axis entry (scalar for 1-D input).

    Streams time-major over blocks of _ROW_BLOCK paths, keeping X_k, Z_k,
    L_k and max_{j<=k}(-Z_j) for each path of the block: the state is a
    few integers per path, and no (paths, steps) temporary is built
    beyond the block's own copy of dx.  Z is driven here step by step,
    not by x_to_z_increments or z_to_x_increments, so the round trip
    and this check stay separate codes.
    """
    dx = np.asarray(dx, dtype=np.int64)
    paths = dx.reshape(math.prod(dx.shape[:-1]), dx.shape[-1])
    ok = np.ones(paths.shape[0], dtype=bool)
    for start in range(0, paths.shape[0], _ROW_BLOCK):
        block_ok = ok[start:start + _ROW_BLOCK]
        x = z = local = top = 0  # X_k, Z_k, L_k and max_{j<=k}(-Z_j) at k = 0
        near = True  # X_k in {0, -1}
        for step in paths[start:start + _ROW_BLOCK].T.copy():  # one contiguous row per step
            z = z + _sgn(x) * step
            x = x + step
            now = (x == 0) | (x == -1)
            local = local + (near & now)
            near = now
            top = np.maximum(top, -z)
            folded = x ^ (x >> 63)  # |X + 1/2| - 1/2: x for x >= 0, -x - 1 below
            block_ok &= (folded == z + local) & (folded == z + top)
    return ok.reshape(dx.shape[:-1])[()]

def parity_signs(z_pos: np.ndarray) -> np.ndarray:
    """(-1)^(min_{k<=n} Z_k) along the last axis.

    Recovers sgn(X_n + 1/2) for the walk X reconstructed from Z.  This
    is the parity of the last running-minimum time r, since Z_r = min Z
    and r = Z_r (mod 2).  The minimum is taken column by column over
    blocks of _ROW_BLOCK rows, which stay in cache even when the rows
    are short, strided prefixes of a longer array.
    """
    z = np.asarray(z_pos, dtype=np.int64)
    rows = z.reshape(math.prod(z.shape[:-1]), z.shape[-1])
    low = np.empty(rows.shape[0], dtype=np.int64)
    for start in range(0, rows.shape[0], _ROW_BLOCK):
        block = rows[start:start + _ROW_BLOCK]
        block_low = low[start:start + _ROW_BLOCK]
        block_low[:] = block[:, 0]
        for column in block.T[1:]:
            np.minimum(block_low, column, out=block_low)
    return (1 - 2 * (low & 1)).reshape(z.shape[:-1])


def all_increment_patterns(n: int) -> np.ndarray:
    """All 2**n +-1 increment rows, row i encoding bits of i (bit k set -> step k is -1)."""
    idx = np.arange(1 << n, dtype="<u4")  # little-endian, so byte order is bit order
    bits = np.unpackbits(idx.view(np.uint8).reshape(-1, 4), axis=1, count=n, bitorder="little")
    return np.subtract(1, 2 * bits, dtype=np.int64)
