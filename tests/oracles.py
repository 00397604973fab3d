"""Reference implementations the tests compare against.

Everything here goes through a different computational route than the
library: matrix square roots and truncated power series instead of closed
forms, dense eigendecompositions instead of sparse recurrences, einsum and
segment reductions instead of matrix products and slot-wise maxima, a
shift-invert sparse-LU eigensolve instead of plain Lanczos.
"""

import numpy as np
import scipy.sparse.linalg as spla


def _batched_sqrtm(mats: np.ndarray, iters: int = 40) -> np.ndarray:
    """Principal square root by the Denman-Beavers iteration.

    Converges quadratically for matrices with no eigenvalue on the closed
    negative real axis, which covers rotation-like inputs away from angle pi.
    """
    y = mats.astype(float).copy()
    z = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape).copy()
    for _ in range(iters):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        if np.allclose(y_next, y, rtol=0.0, atol=1e-16):
            y, z = y_next, z_next
            break
        y, z = y_next, z_next
    return y


def matrix_log_series(mats: np.ndarray, terms: int = 60, splits: int = 3) -> np.ndarray:
    """Matrix logarithm via inverse scaling and a truncated Mercator series.

    G is square-rooted `splits` times so that ||G^(1/2^s) - I|| is small,
    log(I + X) = sum_{n>=1} (-1)^(n+1) X^n / n is evaluated with `terms`
    terms, and the result is scaled back by 2^splits.
    """
    mats = np.asarray(mats, dtype=float)
    squeeze = mats.ndim == 2
    if squeeze:
        mats = mats[None]
    root = mats
    for _ in range(splits):
        root = _batched_sqrtm(root)
    x = root - np.eye(mats.shape[-1])
    out = np.zeros_like(x)
    power = np.broadcast_to(np.eye(mats.shape[-1]), x.shape).copy()
    for n in range(1, terms + 1):
        power = power @ x
        out += ((-1.0) ** (n + 1) / n) * power
    out *= 2.0 ** splits
    return out[0] if squeeze else out


def matrix_exp_series(alg: np.ndarray, terms: int = 40) -> np.ndarray:
    """Plain power-series matrix exponential (small matrices only)."""
    alg = np.asarray(alg, dtype=float)
    squeeze = alg.ndim == 2
    if squeeze:
        alg = alg[None]
    out = np.broadcast_to(np.eye(alg.shape[-1]), alg.shape).copy()
    term = out.copy()
    for n in range(1, terms + 1):
        term = term @ alg / n
        out = out + term
    return out[0] if squeeze else out


def se2_algebra_matrix(coeffs: np.ndarray) -> np.ndarray:
    """Algebra element for planar coefficients (c1, c2, theta)."""
    c = np.asarray(coeffs, dtype=float)
    squeeze = c.ndim == 1
    if squeeze:
        c = c[None]
    out = np.zeros(c.shape[:-1] + (3, 3))
    out[..., 0, 1] = -c[..., 2]
    out[..., 1, 0] = c[..., 2]
    out[..., 0, 2] = c[..., 0]
    out[..., 1, 2] = c[..., 1]
    return out[0] if squeeze else out


def so3_algebra_matrix(coeffs: np.ndarray) -> np.ndarray:
    """Algebra element for rotation coefficients (c1, c2, c3).

    The slots weight the generators so that c1 pairs with the x-axis, c2
    with the z-axis and c3 with the y-axis, matching the library's
    (spatial, spatial, orientation) coefficient ordering.
    """
    c = np.asarray(coeffs, dtype=float)
    squeeze = c.ndim == 1
    if squeeze:
        c = c[None]
    wx, wz, wy = c[..., 0], c[..., 1], c[..., 2]
    out = np.zeros(c.shape[:-1] + (3, 3))
    out[..., 2, 1] = wx
    out[..., 1, 2] = -wx
    out[..., 1, 0] = wz
    out[..., 0, 1] = -wz
    out[..., 0, 2] = wy
    out[..., 2, 0] = -wy
    return out[0] if squeeze else out


def central_difference(fn, array: np.ndarray, index, step: float = 1e-5) -> float:
    """Two-sided finite difference of a scalar function in one array slot."""
    old = array[index]
    array[index] = old + step
    hi = fn()
    array[index] = old - step
    lo = fn()
    array[index] = old
    return (hi - lo) / (2.0 * step)


def chebconv_einsum(z: np.ndarray, theta: np.ndarray, bias: np.ndarray,
                    gy: np.ndarray, matrix):
    """Chebyshev layer by einsum over the (J, V, B, I) term stack z.

    Returns (y, g_theta, g_bias, gx) for the output gradient gy, with the
    input gradient from the reverse sweep of the three-term recurrence done
    one term at a time.
    """
    y = np.einsum("jvbi,jio->vbo", z, theta) + bias
    g_theta = np.einsum("jvbi,vbo->jio", z, gy)
    g_bias = gy.sum(axis=(0, 1))
    gz = [np.einsum("vbo,io->vbi", gy, theta[j]) for j in range(theta.shape[0])]

    def matvec(x):
        return (matrix @ x.reshape(x.shape[0], -1)).reshape(x.shape)

    for j in range(len(gz) - 1, 1, -1):
        gz[j - 1] += 2.0 * matvec(gz[j])
        gz[j - 2] -= gz[j]
    gx = gz[0]
    if len(gz) > 1:
        gx = gx + matvec(gz[1])
    return y, g_theta, g_bias, gx


def max_pool_reduceat(x: np.ndarray, order: np.ndarray, starts: np.ndarray,
                      cluster: np.ndarray):
    """(top, winner) of cluster max pooling by segment reductions.

    The winner is the lowest fine id attaining the maximum.  NaN inputs
    match no member, so they are outside this reference's domain.
    """
    xs = x[order]
    top = np.maximum.reduceat(xs, starts, axis=0)
    pos = np.arange(xs.shape[0])[:, None, None]
    hit = np.where(xs == top[cluster[order]], pos, xs.shape[0])
    first = np.minimum.reduceat(hit, starts, axis=0)
    return top, order[first]


def eigensystem_shift_invert(matrix, k: int):
    """(values, vectors) of the k smallest eigenpairs by shift-invert Lanczos.

    ARPACK runs on (L + 0.05 I)^-1, factored by SuperLU, so the smallest end
    of the spectrum converges fast; the start vector is a fixed seeded draw
    other than the library's.
    Ascending values, vectors in columns with no sign convention.
    """
    v0 = np.random.Generator(np.random.Philox(1)).uniform(-1.0, 1.0, matrix.shape[0])
    vals, vecs = spla.eigsh(matrix.tocsc(), k=k, sigma=-0.05, which="LM", v0=v0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]
