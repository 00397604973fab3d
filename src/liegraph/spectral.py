"""Spectral operations: Chebyshev filters, heat diffusion, eigenmaps and the
rotation equivariance audit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import chebyshev as npcheb
from scipy.linalg import eigh

from .graph import Laplacian, rescale
from .sampling import GridKind, GridSpec

DENSE_EIGEN_CAP = 5000
HEAT_ORDER = 30
SIGN_TOL = 1e-12


def cheb_terms(matrix: sp.csr_matrix, x: np.ndarray, n_terms: int) -> np.ndarray:
    """Stack of Chebyshev terms z_j = T_j(matrix) x, shape (n_terms,) + x.shape.

    The matrix must already be rescaled into [-1, 1].  Signals may be (V,) or
    (V, d); the recurrence is z_j = 2 M z_{j-1} - z_{j-2}.
    """
    if n_terms < 1:
        raise ValueError("need at least one Chebyshev term")
    flat = x.reshape(x.shape[0], -1)
    out = np.empty((n_terms,) + flat.shape)
    out[0] = flat
    if n_terms > 1:
        out[1] = matrix @ flat
    for j in range(2, n_terms):
        out[j] = 2.0 * (matrix @ out[j - 1]) - out[j - 2]
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


def heat_coeffs(tau: float, lambda_max: float, order: int = HEAT_ORDER) -> np.ndarray:
    """Chebyshev coefficients of exp(-tau * (lambda_max / 2) (s + 1)) on [-1, 1]."""
    if tau < 0.0:
        raise ValueError("diffusion time must be non-negative")
    if order < 1:
        raise ValueError("order must be at least 1")
    return npcheb.chebinterpolate(lambda s: np.exp(-tau * 0.5 * lambda_max * (s + 1.0)), order - 1)


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
    """Ascending eigenpairs of a Laplacian; full=True means all |V| of them."""

    values: np.ndarray
    vectors: np.ndarray
    full: bool

    @property
    def k(self) -> int:
        return self.values.size


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """First significant entry of every eigenvector made positive."""
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        big = np.flatnonzero(np.abs(v) > SIGN_TOL * np.max(np.abs(v)))
        if big.size and v[big[0]] < 0.0:
            vectors[:, col] = -v
    return vectors


def eigensystem(lap: Laplacian, k: int | None = None,
                dense_cap: int = DENSE_EIGEN_CAP) -> EigenSystem:
    """Smallest-k eigenpairs (all of them by default, when dense is feasible).

    Dense symmetric solve up to dense_cap vertices.  Beyond that, plain
    restarted Lanczos (ARPACK, which="SA") on the CSR Laplacian itself, with
    k required to be well below |V|: only matrix-vector products, no
    factorization.  The start vector is a fixed seeded draw, so repeated
    calls return identical bases, also inside degenerate eigenspaces.
    """
    if lap.rescaled:
        raise ValueError("eigensystem expects the raw Laplacian")
    n = lap.n
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    if n <= dense_cap:
        vals, vecs = eigh(lap.matrix.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        if k > n - 2:
            raise ValueError("iterative eigensolver needs k well below |V|")
        v0 = np.random.Generator(np.random.Philox(0)).uniform(-1.0, 1.0, n)
        vals, vecs = spla.eigsh(lap.matrix, k=k, which="SA", v0=v0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    return EigenSystem(vals, _fix_signs(vecs), k == n)


def gft(eig: EigenSystem, x: np.ndarray) -> np.ndarray:
    """Graph Fourier transform Phi^T x (needs the full basis)."""
    if not eig.full:
        raise ValueError("graph Fourier transform needs the full eigenbasis")
    return eig.vectors.T @ x


def igft(eig: EigenSystem, xh: np.ndarray) -> np.ndarray:
    if not eig.full:
        raise ValueError("inverse transform needs the full eigenbasis")
    return eig.vectors @ xh


def eigenvalue_groups(values: np.ndarray, rel_tol: float = 0.05) -> list[np.ndarray]:
    """Split ascending eigenvalues into near-degenerate groups.

    Two consecutive values belong together when their gap is below rel_tol
    relative to the running scale (or absolutely tiny near zero).
    """
    values = np.asarray(values)
    groups = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size:
            groups.append(np.arange(start, i))
            break
        scale = max(abs(values[i]), abs(values[i - 1]), 1e-12)
        if (values[i] - values[i - 1]) / scale > rel_tol:
            groups.append(np.arange(start, i))
            start = i
    return groups


# ---------------------------------------------------------------------------
# rotation audit


def rotation_permutation(spec: GridSpec, quarter_turns: int = 1) -> np.ndarray:
    """Vertex permutation of a square grid under quarter-turn rotations.

    Returns perm with perm[v] = image of v: the spatial square rotates about
    its centre, (ix, iy) -> (n-1-iy, ix) per turn, and orientation slices
    roll by n_orient/2 per turn.  Rectangular grids and (for lifted grids)
    odd orientation counts have no such automorphism and are rejected.
    """
    if spec.kind not in (GridKind.SE2_GRID, GridKind.R2_GRID):
        raise ValueError("rotation audit applies to planar grids")
    if spec.nx != spec.ny:
        raise ValueError("rotation audit needs a square grid")
    m = spec.n_orient
    if m > 1 and m % 2 != 0:
        raise ValueError("orientation count must be even to roll by a quarter turn")
    n = spec.nx
    ns = spec.n_spatial
    ids = np.arange(spec.n_vertices)
    turn = np.empty_like(ids)
    ix = (ids % ns) % n
    iy = (ids % ns) // n
    k = ids // ns
    jx = n - 1 - iy
    jy = ix
    jk = (k + m // 2) % m if m > 1 else k
    turn[ids] = jk * ns + jy * n + jx
    perm = np.arange(spec.n_vertices)
    for _ in range(quarter_turns % 4):
        perm = turn[perm]
    return perm


def equivariance_error(matrix: sp.spmatrix, perm: np.ndarray) -> float:
    """Relative Frobenius error || P^T L P - L || / || L ||.

    P^T L P is evaluated sparsely as L[perm][:, perm].
    """
    mat = sp.csr_matrix(matrix)
    conj = mat[perm][:, perm]
    denom = np.linalg.norm(mat.data) if mat.nnz else 1.0
    diff = (conj - mat).tocsr()
    return float(np.linalg.norm(diff.data) / denom) if diff.nnz else 0.0


def apply_permutation(perm: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Push a vertex signal through the permutation: out[perm[v]] = x[v]."""
    out = np.empty_like(np.asarray(x))
    out[perm] = x
    return out


def slice_anisotropy(vertices, values: np.ndarray) -> list[dict]:
    """Directional spread of a non-negative vertex signal, slice by slice.

    For every orientation slice the value-weighted spatial covariance is
    split along the slice direction (cos theta, sin theta) and its normal;
    the ratio is > 1 when the signal has spread further along the slice
    direction.  Tiny negative values (Chebyshev ringing) are clipped.
    """
    spec = vertices.spec
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
