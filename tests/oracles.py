"""Reference implementations the tests compare against.

Everything here goes through a different computational route than the
library: matrix square roots and truncated power series instead of closed
forms, dense eigendecompositions instead of sparse recurrences, einsum and
segment reductions instead of matrix products and slot-wise maxima, a
shift-invert sparse-LU eigensolve instead of plain Lanczos, the SO(3) log
from the trace and antisymmetric part instead of unit quaternions, and all
three orientation branches of the SE(2) distance instead of the two that
can win.  Some must match the library bit for bit:
`cheb_terms_reference`, the out-of-place Chebyshev recurrence,
`power_lambda_max_loop`, the Lanczos estimate through scipy's tridiagonal
wrapper, and the loops that array forms replaced: `icosphere_loop`
(per-edge subdivision), the per-value CSV writers,
`rotation_permutation_loop` (index arithmetic per vertex) and
`fix_signs_loop` (one eigenvector at a time).  The last few
functions are plain test helpers: SE(2) composition on parameters, vertex
permutations and eigenvalue grouping.
"""

import warnings

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from liegraph.graph import LANCZOS_CHECK
from liegraph.groups import _se2_c12, se2_matrices, wrap_angle
from liegraph.sampling import _ICO_FACES, _ICO_VERTS, PLANAR_KINDS
from liegraph.spectral import SIGN_TOL


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


def cheb_terms_reference(matrix, x: np.ndarray, n_terms: int) -> np.ndarray:
    """T_j(matrix) x for j < n_terms by z_j = 2 (M z_{j-1}) - z_{j-2}, each
    term a fresh array."""
    flat = x.reshape(x.shape[0], -1)
    terms = [flat, matrix @ flat][:n_terms]
    for _ in range(2, n_terms):
        terms.append(2.0 * (matrix @ terms[-1]) - terms[-2])
    return np.stack(terms).reshape((n_terms,) + x.shape)


def icosphere_loop(level: int):
    """icosphere(level) by a dictionary of edge midpoints, filled face by
    face and normalised one vector at a time."""
    points = [tuple(p) for p in _ICO_VERTS]
    faces = list(_ICO_FACES)
    parents = None
    for _ in range(level):
        n_prev = len(points)
        parents = list(range(n_prev))
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = np.array(points[a]) + np.array(points[b])
                p /= np.linalg.norm(p)
                midpoint[key] = len(points)
                points.append(tuple(p))
                parents.append(key[0])
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new_faces
    return np.array(points), (None if parents is None else np.array(parents))


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


def power_lambda_max_loop(matrix, tol: float = 1e-4, max_iter: int = 1000,
                          seed: int = 0) -> float:
    """graph.power_lambda_max's estimate by its list-built Lanczos loop: fresh
    vectors every step and the Ritz pair from scipy's eigh_tridiagonal."""
    n = matrix.shape[0]
    if n == 0 or matrix.nnz == 0:
        return 2.0
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n)
    alphas, betas = [], []
    beta = 0.0
    for step in range(1, max_iter + 1):
        w = matrix @ v
        w -= beta * v_prev
        alphas.append(float(v @ w))
        w -= alphas[-1] * v
        beta = float(np.linalg.norm(w))
        if beta == 0.0 or step % LANCZOS_CHECK == 0 or step == max_iter:
            theta, s = eigh_tridiagonal(alphas, betas, select="i",
                                        select_range=(step - 1, step - 1))
            r = beta * abs(s[-1, 0])
            if beta == 0.0 or r <= tol * theta[0]:
                return float(min(max(theta[0] + r, np.finfo(float).tiny), 2.0))
        betas.append(beta)
        v_prev, v = v, w / beta
    warnings.warn("Lanczos did not converge within the cap; using 2.0")
    return 2.0


# Trace threshold below which so3_log_trace reads the axis off the diagonal
# of (G + I)/2 (rotation angle within ~1e-4 of pi).
NEAR_PI_TRACE = -1.0 + 1e-8
SO3_SMALL_ANGLE = 1e-6


def so3_log_trace(matrices: np.ndarray) -> np.ndarray:
    """SO(3) log (c1, c2, c3) = theta (n_x, n_z, n_y) from the trace and the
    antisymmetric part.

    Near angle pi the axis comes from the dominant diagonal entry of
    (G + I)/2, which drops the (1 + cos theta)/2 I term: the axis is off by
    about (pi - theta)^2 / 4 there, up to 1e-9 relative at the trace cutoff.
    """
    m = np.asarray(matrices, dtype=float)
    tr = np.asarray(m[..., 0, 0] + m[..., 1, 1] + m[..., 2, 2])
    cos_t = np.clip(0.5 * (tr - 1.0), -1.0, 1.0)

    a1 = m[..., 2, 1] - m[..., 1, 2]
    a2 = m[..., 1, 0] - m[..., 0, 1]
    a3 = m[..., 0, 2] - m[..., 2, 0]
    sin_norm = 0.5 * np.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    theta = np.arctan2(sin_norm, cos_t)

    small = np.abs(theta) < SO3_SMALL_ANGLE
    sin_t = np.sin(np.where(small, 1.0, theta))
    factor = np.where(small, 0.5 + theta * theta / 12.0, theta / (2.0 * sin_t))
    c = np.stack([a1, a2, a3], axis=-1) * factor[..., None]

    near_pi = tr <= NEAR_PI_TRACE
    if np.any(near_pi):
        flat = m[near_pi].reshape(-1, 3, 3)
        b = 0.5 * (0.5 * (flat + flat.transpose(0, 2, 1)) + np.eye(3))
        diag = np.clip(np.stack([b[:, 0, 0], b[:, 1, 1], b[:, 2, 2]], axis=1), 0.0, None)
        lead = np.argmax(diag, axis=1)
        rows = np.arange(flat.shape[0])
        axis = np.empty((flat.shape[0], 3))
        axis[rows, lead] = np.sqrt(diag[rows, lead])
        for j in range(3):
            off = lead != j
            axis[off, j] = b[off, j, lead[off]] / axis[off, lead[off]]
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        asym = np.stack([flat[:, 2, 1] - flat[:, 1, 2],
                         flat[:, 1, 0] - flat[:, 0, 1],
                         flat[:, 0, 2] - flat[:, 2, 0]], axis=1)
        perm_axis = axis[:, [0, 2, 1]]
        flip = np.sum(perm_axis * asym, axis=1) < 0.0
        perm_axis[flip] *= -1.0
        c[near_pi] = theta[near_pi][..., None] * perm_axis
    return c


def so3_pair_sq_matrix_log(mats_a, mats_b, weights) -> np.ndarray:
    """Squared SO(3) distances from the relative matrix G_a^T G_b and
    so3_log_trace on it and on its R_z(pi) branch."""
    def weighted(rel):
        c = so3_log_trace(rel)
        return weights[0] * c[..., 0] ** 2 + weights[1] * c[..., 1] ** 2 + weights[2] * c[..., 2] ** 2

    rel = np.einsum("...ji,...jk->...ik", mats_a, mats_b)
    return np.minimum(weighted(rel), weighted(rel * np.array([-1.0, -1.0, 1.0])))


def se2_pair_sq_three_branch(params_a, params_b, weights) -> np.ndarray:
    """Squared SE(2) distances, the minimum over the orientation branches
    dth, dth - pi and dth + pi, each evaluated as the library evaluates one."""
    pa = np.asarray(params_a, dtype=float)
    pb = np.asarray(params_b, dtype=float)
    dx = pb[..., 0] - pa[..., 0]
    dy = pb[..., 1] - pa[..., 1]
    ct, st = np.cos(pa[..., 2]), np.sin(pa[..., 2])
    xr = ct * dx + st * dy
    yr = -st * dx + ct * dy
    dth = wrap_angle(pb[..., 2] - pa[..., 2])
    w0, w1, w2 = weights
    best = None
    for off in (0.0, -np.pi, np.pi):
        th = dth + off
        c1, c2 = _se2_c12(xr, yr, th)
        d2 = w0 * c1 * c1 + w1 * c2 * c2 + w2 * th * th
        best = d2 if best is None else np.minimum(best, d2)
    return best


def so3_pair_sq_mp(mats_a, mats_b, weights, dps: int = 50) -> np.ndarray:
    """Squared SO(3) distances of float rotation-matrix pairs (n, 3, 3),
    evaluated at `dps` significant digits.

    The inputs are read exactly.  For the relative matrix and its R_z(pi)
    branch, theta = atan2(|s|, (tr - 1)/2) with s the axial vector of the
    antisymmetric part; the squared axis components come from s / |s| for
    theta <= pi/2 and from the diagonal of the symmetric part,
    (g_ii - cos theta) / (1 - cos theta), above it, so neither divides by a
    small number.
    """
    import mpmath

    out = np.empty(len(mats_a))
    with mpmath.workdps(dps):
        for p, (a, b) in enumerate(zip(mats_a, mats_b)):
            rel = mpmath.matrix(np.asarray(a).tolist()).T * mpmath.matrix(np.asarray(b).tolist())
            best = None
            for flip in (1, -1):
                g = [[rel[i, j] * (flip if j < 2 else 1) for j in range(3)] for i in range(3)]
                cos_t = (g[0][0] + g[1][1] + g[2][2] - 1) / 2
                s = [(g[2][1] - g[1][2]) / 2, (g[1][0] - g[0][1]) / 2, (g[0][2] - g[2][0]) / 2]
                sin_t = mpmath.sqrt(sum(c * c for c in s))
                theta = mpmath.atan2(sin_t, cos_t)
                if sin_t == 0 and cos_t > 0:
                    d2 = mpmath.mpf(0)
                else:
                    if cos_t >= 0:
                        sq = [c * c for c in s]
                    else:
                        sq = [(g[i][i] - cos_t) / (1 - cos_t) for i in (0, 2, 1)]
                    d2 = theta ** 2 * sum(wk * c for wk, c in zip(weights, sq)) / sum(sq)
                best = d2 if best is None else min(best, d2)
            out[p] = float(best)
    return out


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def write_eigenmaps_csv_loop(path, values: np.ndarray, vectors: np.ndarray) -> None:
    """io.write_eigenmaps_csv, formatting one value at a time."""
    n = vectors.shape[0]
    with open(path, "w", newline="\n") as fh:
        fh.write("k,lambda," + ",".join(f"v{i}" for i in range(n)) + "\n")
        for k in range(values.size):
            row = [str(k), _fmt(values[k])] + [_fmt(x) for x in vectors[:, k]]
            fh.write(",".join(row) + "\n")


def write_field_csv_loop(path, vertices, values: np.ndarray) -> None:
    """io.write_field_csv, formatting one value at a time."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    planar = vertices.spec.kind in PLANAR_KINDS
    names = ("x", "y", "theta") if planar else ("beta", "gamma", "alpha")
    coords = vertices.params if planar else vertices.params[:, (1, 2, 0)]
    vals = "value" if arr.shape[1] == 1 else ",".join(f"value{i}" for i in range(arr.shape[1]))
    with open(path, "w", newline="\n") as fh:
        fh.write("vertex_id," + ",".join(names) + f",{vals}\n")
        for v in range(arr.shape[0]):
            row = [str(v)] + [_fmt(x) for x in coords[v]] + [_fmt(x) for x in arr[v]]
            fh.write(",".join(row) + "\n")


def rotation_permutation_loop(spec, quarter_turns: int) -> np.ndarray:
    """The quarter-turn permutation by index arithmetic: one turn sends
    (ix, iy, k) to (n-1-iy, ix, k + m/2 mod m), composed quarter_turns mod 4
    times."""
    n, ns, m = spec.nx, spec.n_spatial, spec.n_orient
    ids = np.arange(spec.n_vertices)
    ix, iy, k = (ids % ns) % n, (ids % ns) // n, ids // ns
    jk = (k + m // 2) % m if m > 1 else k
    turn = jk * ns + ix * n + (n - 1 - iy)
    perm = np.arange(spec.n_vertices)
    for _ in range(quarter_turns % 4):
        perm = turn[perm]
    return perm


def fix_signs_loop(vectors: np.ndarray) -> np.ndarray:
    """spectral._fix_signs one column at a time: negate a column whose first
    entry above SIGN_TOL times its largest magnitude is negative."""
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        big = np.flatnonzero(np.abs(v) > SIGN_TOL * np.max(np.abs(v)))
        if big.size and v[big[0]] < 0.0:
            vectors[:, col] = -v
    return vectors


def se2_compose(params_a, params_b) -> np.ndarray:
    """Parameters (x, y, theta) of the products g_a g_b, read off the product
    of the homogeneous matrices, theta wrapped into [-pi, pi)."""
    m = se2_matrices(params_a) @ se2_matrices(params_b)
    theta = wrap_angle(np.arctan2(m[..., 1, 0], m[..., 0, 0]))
    return np.stack([m[..., 0, 2], m[..., 1, 2], theta], axis=-1)


def apply_permutation(perm: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Push a vertex signal through the permutation: out[perm[v]] = x[v]."""
    out = np.empty_like(np.asarray(x))
    out[perm] = x
    return out


def eigenvalue_groups(values: np.ndarray, rel_tol: float = 0.05) -> list[np.ndarray]:
    """Split ascending eigenvalues into near-degenerate groups.

    Two consecutive values belong together when their gap is below rel_tol
    relative to the running scale (or absolutely tiny near zero).
    """
    values = np.asarray(values)
    scale = np.maximum(np.maximum(np.abs(values[1:]), np.abs(values[:-1])), 1e-12)
    return np.split(np.arange(values.size), np.flatnonzero(np.diff(values) / scale > rel_tol) + 1)
