"""Spectral operations: Chebyshev filters, heat diffusion, eigenmaps and the
rotation equivariance audit.

Eigenmaps are solved per connected component: Lanczos on every component
larger than ARPACK's basis, a dense solve on the smaller ones."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .graph import Laplacian, rescale
from .sampling import PLANAR_KINDS, GridSpec

# Largest component a dense eigensolve may take.  A bound on memory (a
# 5000^2 float64 matrix is 200 MB), not a speed crossover: a component larger
# than ARPACK's basis takes Lanczos at any size.
DENSE_EIGEN_CAP = 5000
HEAT_ORDER = 30
# Largest error bound heat_coeffs accepts, and the largest order it takes.
HEAT_TOL = 1e-8
HEAT_MAX_ORDER = 1 << 16
SIGN_TOL = 1e-12


def cheb_terms(matrix, x: np.ndarray, n_terms: int) -> np.ndarray:
    """Stack of Chebyshev terms z_j = T_j(matrix) x, shape (n_terms,) + x.shape.

    The matrix, sparse or a dense array, must already be rescaled into
    [-1, 1].  Signals may be (V,) or (V, d).  The recurrence
    z_j = 2 M z_{j-1} - z_{j-2} runs in place on the output stack: each step
    allocates only the product M z_{j-1} and rounds exactly as the
    out-of-place form.  With the identity as x it yields the matrices T_j(M).
    """
    if n_terms < 1:
        raise ValueError("need at least one Chebyshev term")
    flat = x.reshape(x.shape[0], -1)
    out = np.empty((n_terms,) + flat.shape)
    out[0] = flat
    if n_terms > 1:
        out[1] = matrix @ flat
    for j in range(2, n_terms):
        t = matrix @ out[j - 1]
        t *= 2.0
        np.subtract(t, out[j - 2], out=out[j])
    return out.reshape((n_terms,) + x.shape)


def cheb_apply(lap: Laplacian, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply the polynomial filter sum_j coeffs[j] T_j(L) to every channel of
    a signal; coeffs is a (J,) vector.  Channel mixing is ChebConv's job."""
    if not lap.rescaled:
        raise ValueError("cheb_apply needs the rescaled Laplacian")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise ValueError("coefficients must be a (J,) vector")
    return np.tensordot(coeffs, cheb_terms(lap.matrix, np.asarray(x, dtype=float), coeffs.size), 1)


def _heat_series(a: float, orders: int) -> tuple[np.ndarray, np.ndarray]:
    """ive(0, a), then 2 ive(j, a) for j = 1..orders-1 (the Chebyshev
    coefficients of exp(-a (s + 1)) up to sign), and their tails sum_{j >= m}
    for m = 1..orders: exact to rounding (about 1e-15) from sum_j ive(j, a) = 1
    over all integers j, clipped to [0, 1]."""
    # Imported here: scipy.special takes about 40 ms to import, which
    # commands that never diffuse need not pay.
    from scipy.special import ive

    series = np.r_[ive(0, a), 2.0 * ive(np.arange(1, orders), a)]
    return series, np.clip(np.nan_to_num(1.0 - np.cumsum(series), nan=1.0), 0.0, 1.0)


def heat_coeffs(tau: float, lambda_max: float, order: int = HEAT_ORDER) -> np.ndarray:
    """Chebyshev coefficients of exp(-tau * (lambda_max / 2) (s + 1)) on [-1, 1].

    The exact expansion has coefficients 2 (-1)^j ive(j, a), a = tau
    lambda_max / 2 (halved at j = 0); its first `order` are returned, which
    err by at most sum_{j >= order} 2 ive(j, a).  `order` must lie in
    [1, HEAT_MAX_ORDER]; a ValueError names the smallest order that keeps
    this bound within HEAT_TOL when `order` does not.
    """
    if not 0.0 <= tau < np.inf:
        raise ValueError(f"diffusion time must be non-negative and finite, got {tau}")
    if not 1 <= order <= HEAT_MAX_ORDER:
        raise ValueError(f"order must lie in [1, {HEAT_MAX_ORDER}], got {order}")
    a = 0.5 * tau * lambda_max
    coeffs, tails = _heat_series(a, order)
    if (bound := tails[-1]) > HEAT_TOL:
        ok = np.flatnonzero(_heat_series(a, HEAT_MAX_ORDER)[1] <= HEAT_TOL)
        need = f"order {ok[0] + 1}" if ok.size else f"an order above {HEAT_MAX_ORDER}"
        raise ValueError(f"diffusion time {tau:g} at lambda_max {lambda_max:.6g} needs {need} "
                         f"or more: order {order} errs by up to {bound:.1e}, "
                         f"above {HEAT_TOL:g}")
    coeffs[1::2] *= -1.0
    return coeffs


def heat_diffuse(lap: Laplacian, x: np.ndarray, tau: float, order: int = HEAT_ORDER) -> np.ndarray:
    """exp(-tau Delta) x through a Chebyshev expansion of the exponential."""
    if lap.rescaled:
        raise ValueError("heat_diffuse expects the raw Laplacian with lambda_max set")
    if lap.lambda_max is None:
        raise ValueError("estimate lambda_max before diffusing")
    coeffs = heat_coeffs(tau, lap.lambda_max, order)
    return cheb_apply(rescale(lap), x, coeffs)


# ---------------------------------------------------------------------------
# eigensystem


@dataclass
class EigenSystem:
    """Ascending eigenpairs of a Laplacian."""

    values: np.ndarray
    vectors: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """First significant entry of every eigenvector made positive.  A column
    with no entry above SIGN_TOL times its largest magnitude (a zero column,
    or one holding NaN or inf) keeps its signs."""
    mag = np.abs(vectors)
    big = mag > SIGN_TOL * mag.max(axis=0)
    first = vectors[np.argmax(big, axis=0), np.arange(vectors.shape[1])]
    np.multiply(vectors, -1.0, out=vectors, where=big.any(axis=0) & (first < 0.0))
    return vectors


def eigensystem(lap: Laplacian, k: int | None = None,
                dense_cap: int = DENSE_EIGEN_CAP) -> EigenSystem:
    """Smallest-k eigenpairs (all of them by default).

    Eigenvalue 0 has one copy per connected component (von Luxburg, Stat.
    Comput. 17(4), 2007), which one Lanczos run does not resolve, so the
    graph is solved component by component (by the Laplacian's nonzero
    entries); a connected graph is the one-component case.  A component of
    m vertices takes:
    - m = 1: its diagonal entry and unit vector;
    - m > max(2k + 1, 20), larger than ARPACK's default basis: restarted
      Lanczos (ARPACK, which="SA") on its CSR submatrix, only matrix-vector
      products and no factorization, from a fixed seeded start vector
      restricted to it, so repeated calls return identical bases, also
      inside degenerate eigenspaces;
    - otherwise a dense symmetric solve, which needs m <= dense_cap:
      ValueError past it.
    The k smallest pairs are kept, ties in order of each component's lowest
    vertex, with vectors zero outside their component; a zero Laplacian
    gives k zeros and the first k unit vectors.
    """
    if lap.rescaled:
        raise ValueError("eigensystem expects the raw Laplacian")
    n = lap.n
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    # Imported here: about 1 MB that commands without an eigensolve need not map.
    from scipy.sparse.csgraph import connected_components

    matrix = lap.matrix
    v0 = np.random.Generator(np.random.Philox(0)).uniform(-1.0, 1.0, n)
    labels = connected_components(matrix != 0.0, directed=False)[1]
    diag, ids_of, vals, vecs = matrix.diagonal(), [], [], []
    for ids in np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1]):
        if ids.size == 1:
            w, v = diag[ids], np.ones((1, 1))
        elif ids.size > max(2 * k + 1, 20):
            w, v = spla.eigsh(matrix[ids][:, ids], k=k, which="SA", v0=v0[ids])
            order = np.argsort(w)
            w, v = w[order], v[:, order]
        elif ids.size <= dense_cap:
            w, v = eigh(matrix[ids][:, ids].toarray())
        else:
            raise ValueError(f"k={k} needs a dense solve of a {ids.size}-vertex component, "
                             f"above the dense cap of {dense_cap} vertices")
        ids_of.append(ids)
        vals.append(w[:k])
        vecs.append(v[:, :k])
    sizes = [w.size for w in vals]
    owner = np.repeat(np.arange(len(vals)), sizes)
    pick = np.argsort(np.concatenate(vals), kind="stable")[:k]
    column = pick - (np.cumsum(sizes) - sizes)[owner[pick]]
    # Column-major: the eigenvectors are written column by column.
    out = np.zeros((n, k), order="F")
    for j, (p, c) in enumerate(zip(owner[pick], column)):
        out[ids_of[p], j] = vecs[p][:, c]
    return EigenSystem(np.concatenate(vals)[pick], _fix_signs(out))


# ---------------------------------------------------------------------------
# rotation audit


def rotation_permutation(spec: GridSpec, quarter_turns: int = 1) -> np.ndarray:
    """Vertex permutation of a square grid under quarter-turn rotations.

    Returns perm with perm[v] = image of v: the spatial square rotates about
    its centre, (ix, iy) -> (n-1-iy, ix) per turn, and orientation slices
    roll by n_orient/2 per turn.  Rectangular grids and (for lifted grids)
    odd orientation counts have no such automorphism and are rejected.
    """
    if spec.kind not in PLANAR_KINDS:
        raise ValueError("rotation audit applies to planar grids")
    if spec.nx != spec.ny:
        raise ValueError("rotation audit needs a square grid")
    m = spec.n_orient
    if m > 1 and m % 2 != 0:
        raise ValueError("orientation count must be even to roll by a quarter turn")
    ids = np.arange(spec.n_vertices).reshape(m, spec.ny, spec.nx)
    q = quarter_turns % 4
    return np.roll(np.rot90(ids, q, axes=(1, 2)), -q * (m // 2), axis=0).ravel()


def require_full_sampling(vertices, command: str) -> None:
    """Slice layouts and the rotation audit index the full sampling: ValueError
    for a vertex-sampled set."""
    if len(vertices) != (full := vertices.spec.n_vertices):
        raise ValueError(f"{command} needs all {full} vertices of the sampling; "
                         f"this set has {len(vertices)} (vertex-sampled)")


def equivariance_error(matrix: sp.spmatrix, perm: np.ndarray) -> float:
    """Relative Frobenius error || P^T L P - L || / || L ||.

    P^T L P is evaluated sparsely as L[perm][:, perm].
    """
    mat = sp.csr_matrix(matrix)
    conj = mat[perm][:, perm]
    denom = np.linalg.norm(mat.data) if mat.nnz else 1.0
    diff = (conj - mat).tocsr()
    return float(np.linalg.norm(diff.data) / denom) if diff.nnz else 0.0


def slice_anisotropy(vertices, values: np.ndarray) -> list[dict]:
    """Directional spread of a non-negative vertex signal, slice by slice.

    For every orientation slice the value-weighted spatial covariance is
    split along the slice direction (cos theta, sin theta) and its normal;
    the ratio is > 1 when the signal has spread further along the slice
    direction.  Tiny negative values (Chebyshev ringing) are clipped.
    Slices are id ranges of the full sampling (require_full_sampling), and
    params hold (x, y, theta) only on planar samplings: ValueError otherwise.
    """
    spec = vertices.spec
    if spec.kind not in PLANAR_KINDS:
        raise ValueError("slice anisotropy applies to planar grids")
    require_full_sampling(vertices, "slice anisotropy")
    ns = spec.n_spatial
    vals = np.clip(np.asarray(values, dtype=float).reshape(-1), 0.0, None)
    out = []
    for k in range(spec.n_orient):
        w = vals[k * ns:(k + 1) * ns]
        theta = vertices.params[k * ns, 2]
        total = w.sum()
        entry = {"slice": k, "theta": float(theta), "mass": float(total),
                 "var_along": float("nan"), "var_across": float("nan"),
                 "ratio": float("nan")}
        if total > 0.0:
            pts = vertices.params[k * ns:(k + 1) * ns, :2]
            mean = (w[:, None] * pts).sum(axis=0) / total
            d = pts - mean
            cov = (w[:, None, None] * d[:, :, None] * d[:, None, :]).sum(axis=0) / total
            u = np.array([np.cos(theta), np.sin(theta)])
            n_vec = np.array([-u[1], u[0]])
            va = float(u @ cov @ u)
            vc = float(n_vec @ cov @ n_vec)
            entry.update(var_along=va, var_across=vc,
                         ratio=va / vc if vc > 0.0 else float("inf"))
        out.append(entry)
    return out
