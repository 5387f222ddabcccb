"""Exact discrete Tanaka model on the integer lattice.

A walk X with +-1 steps from 0 drives a walk Z through
Z_{k+1} - Z_k = sgn(X_k) (X_{k+1} - X_k) with sgn(a) = +1 for a >= 0,
-1 for a < 0.  Unlike the continuous-time analogue, Z determines X: the
reflection identity |X_n + 1/2| - 1/2 = Z_n + max_{k<=n}(-Z_k) recovers
|X| and the parity of min Z, which is the parity of the last
running-minimum time of Z, recovers the sign.  Everything here is exact
integer arithmetic on (optionally batched) increment arrays, so the
identities can be checked exhaustively.
"""

from __future__ import annotations

import numpy as np


def _sgn(a: np.ndarray | int) -> np.ndarray | int:
    """Sign with sgn(0) = +1 (the convention the whole model relies on)."""
    if np.isscalar(a):
        return 1 if a >= 0 else -1
    return np.where(np.asarray(a) >= 0, 1, -1)


# -- array core (last axis = time; leading axes = batch) -----------------

def x_to_z_increments(dx: np.ndarray) -> np.ndarray:
    """Drive increments dZ_k = sgn(X_k) dX_k from walk increments."""
    dx = np.asarray(dx, dtype=np.int64)
    return _sgn(positions(dx)[..., :-1]) * dx

def z_to_x_increments(dz: np.ndarray) -> np.ndarray:
    """The unique walk with dX_k = sgn(X_k) dZ_k; inverse of x_to_z_increments.

    A step recursion, kept independent of the closed form above and of
    the parity rule, so the round trip and the parity check compare two
    separate codes.
    """
    dz = np.asarray(dz, dtype=np.int64)
    dx = np.empty_like(dz)
    x = np.zeros(dz.shape[:-1], dtype=np.int64)
    for k in range(dz.shape[-1]):
        dx[..., k] = _sgn(x) * dz[..., k]
        x = x + dx[..., k]
    return dx

def positions(increments: np.ndarray) -> np.ndarray:
    """Prepend the starting 0 and cumulate increments along the last axis."""
    inc = np.asarray(increments, dtype=np.int64)
    zeros = np.zeros(inc.shape[:-1] + (1,), dtype=np.int64)
    return np.concatenate([zeros, np.cumsum(inc, axis=-1)], axis=-1)

def local_time_positions(pos: np.ndarray) -> np.ndarray:
    """L_n = #{k < n : X_k and X_{k+1} both in {0,-1}}, L_0 = 0.

    Counts traversals/touches of the bond between 0 and -1, which is the
    unique reading under which the reflection identity holds pathwise.
    """
    pos = np.asarray(pos, dtype=np.int64)
    near = (pos == 0) | (pos == -1)
    hits = (near[..., :-1] & near[..., 1:]).astype(np.int64)
    zeros = np.zeros(pos.shape[:-1] + (1,), dtype=np.int64)
    return np.concatenate([zeros, np.cumsum(hits, axis=-1)], axis=-1)

def _running_max_negated(pos: np.ndarray) -> np.ndarray:
    """max_{k<=n}(-Z_k) along the last axis."""
    return np.maximum.accumulate(-np.asarray(pos, dtype=np.int64), axis=-1)

def _folded_positions(pos: np.ndarray) -> np.ndarray:
    """|X_n + 1/2| - 1/2 in exact integers, via doubled quantities."""
    pos = np.asarray(pos, dtype=np.int64)
    return (np.abs(2 * pos + 1) - 1) // 2

def identities_hold(dx: np.ndarray) -> np.ndarray:
    """Check the two pathwise reflection identities at every time.

    For each path: folded X equals both Z_n + L_n and
    Z_n + max_{k<=n}(-Z_k), for all n up to the path length.
    Returns a boolean per leading-axis entry (scalar True for 1-D input).
    """
    dx = np.asarray(dx, dtype=np.int64)
    x_pos = positions(dx)
    z_pos = positions(x_to_z_increments(dx))
    lhs2 = 2 * _folded_positions(x_pos)
    ok_local = np.all(lhs2 == 2 * (z_pos + local_time_positions(x_pos)), axis=-1)
    ok_reflect = np.all(lhs2 == 2 * (z_pos + _running_max_negated(z_pos)), axis=-1)
    return ok_local & ok_reflect

def parity_signs(z_pos: np.ndarray) -> np.ndarray:
    """(-1)^(min_{k<=n} Z_k) along the last axis.

    Recovers sgn(X_n + 1/2) for the walk X reconstructed from Z.  This
    is the parity of the last running-minimum time r, since Z_r = min Z
    and r = Z_r (mod 2).
    """
    return np.where(np.min(z_pos, axis=-1) % 2 == 0, 1, -1)


def all_increment_patterns(n: int) -> np.ndarray:
    """All 2**n +-1 increment rows, row i encoding bits of i (bit k set -> step k is -1)."""
    idx = np.arange(1 << n, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
    return (1 - 2 * bits.astype(np.int64))
