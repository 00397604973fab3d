"""Anisotropic K-NN graphs, their Laplacians, and sub-graph sampling.

K-NN selection scores each vertex's candidates with the exact kernel; the
all-pairs scan it replaces on large sets stays as the sequential test
reference, knn_pairs_bruteforce; both take a kernel (_kernel of any points).
Full lifts (SE(2) grids, SO(3) spheres), whose product layout follows from
(spec, kept), find candidates once per point in a cKDTree and bracket them
per pair of orientation slices by quadratic forms of the two points: the
offset on SE(2), whose squared distance is such a form, and the relative
quaternion on SO(3), where 4 Q (1 + s^2/3) <= d^2 <= 4 Q / c^2.  Widened by
BALL_REL times a bound on every term, the brackets hold for every pair, so
few beyond K plus the ties per row reach the kernel (knn_pairs derives them).
Other vertex sets search a cKDTree over a Euclidean embedding whose
distances never exceed the anisotropic ones.  The search uses every CPU in
the process's affinity mask (every CPU on platforms without one): tree
queries run with that many workers, and scoring blocks go through a thread
pool whose order-preserving map keeps the graph byte-identical for any
worker count.  A graph is its undirected edges, pairs i < j each with one
distance; ManifoldGraph mirrors them by a transpose, and weights and
Laplacian entries are elementwise functions of the mirrored distances, so
adjacency and Laplacian are symmetric at the bit level.
"""

from __future__ import annotations

import math
import os
import warnings
import weakref
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .groups import (GroupKind, Metric, _quat_relative, se2_bound_points, se2_pair_sq,
                     so3_matrices, so3_quat_pair_sq, so3_quaternions, sphere_bound_points,
                     sphere_pair_sq, wrap_angle)
from .sampling import (ISOTROPIC_KINDS, GridKind, GridSpec, RuleError, VertexSet,
                       orientation_angles, refuse_flagged)

BANDWIDTH_FRACTION = 0.2
DEFAULT_KNN_LIFTED = 16
DEFAULT_KNN_BASE = 8
ROW_CHUNK = 256
# Entries (rows x candidates) of one K-NN scoring block; one per worker is
# in flight, and a block this size stays in cache.
CANDIDATE_BLOCK = 1 << 14
# Vertex sets with at most this many pairs skip the tree and are scored
# against all vertices in row blocks of about CANDIDATE_BLOCK entries, which
# covers both of the demo network's graphs.  Timed warm on a 2-CPU Xeon, that
# is slower than the product-layout search on se2 8x8x4 (the demo's fine
# graph: 6.4 ms against 2.9 ms; 7.1 ms as one 256 x 256 block) and faster on
# 4x4x4 (its coarse graph: 0.30 ms against 1.5 ms).  What it buys is that
# setting up training never imports scipy.spatial, 80-110 ms and 6 MB per
# process.
WHOLE_SET_PAIRS = 1 << 17
# Bracket values (point pairs x slice-pair columns) per product-layout search
# block: fewer blocks pay less per-call overhead, larger ones leave the cache.
SCREEN_BLOCK = 8 * CANDIDATE_BLOCK
# Slack on the K-NN search's ball radius: relative, and absolute in units of
# the largest embedded coordinate.  The absolute part covers rounding in the
# embedding and in the kernels, which is absolute for near-coincident points.
BALL_REL = 1e-6
BALL_ABS = 1e-6
# Relative slack for K-th-distance ties; far above rounding noise (~1e-15),
# far below the gap between distinct squared distances on any sampling here.
TIE_REL = 1e-9
# Lanczos steps between convergence checks of the lambda_max estimate.
LANCZOS_CHECK = 5


def default_knn(spec: GridSpec) -> int:
    return DEFAULT_KNN_LIFTED if spec.lifted else DEFAULT_KNN_BASE


def xi_from_alpha(alpha: float, spec: GridSpec) -> float:
    """xi^2 = alpha * n_orient / n_spatial balances cross-slice step costs."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return float(np.sqrt(alpha * spec.n_orient / spec.n_spatial))


def alpha_from_xi(xi: float, spec: GridSpec) -> float:
    """In Python floats, so an alpha past the float range is inf, with no warning."""
    return float(xi) * float(xi) * spec.n_spatial / spec.n_orient


def check_metric(spec: GridSpec, metric: Metric) -> None:
    """The one metric rule every graph obeys: r2 and s2 carry exactly the
    isotropic Metric(), and alpha_from_xi(xi, spec) is finite and positive.
    RuleError (field "metric", or "xi" for alpha) if not."""
    if spec.kind in ISOTROPIC_KINDS and metric != Metric():
        raise RuleError(f"{spec.kind.value} graphs use the isotropic metric, got epsilon "
                        f"{metric.epsilon!r} and xi {metric.xi!r}", "metric")
    if not 0.0 < (alpha := alpha_from_xi(metric.xi, spec)) < np.inf:
        raise RuleError(f"xi {metric.xi!r} gives alpha {alpha}, which is not finite and positive",
                        "xi")


def make_metric(spec: GridSpec, epsilon: float = 1.0, alpha: float | None = None,
                xi: float | None = None) -> tuple[Metric, float]:
    """Resolve CLI-style metric parameters for a sampling; returns (metric, alpha).
    Without alpha or xi, r2 and s2 get xi = 1 and the other kinds alpha = 1."""
    if alpha is not None and xi is not None:
        raise ValueError("give either alpha or xi, not both")
    if xi is None:
        isotropic = alpha is None and spec.kind in ISOTROPIC_KINDS
        xi = 1.0 if isotropic else xi_from_alpha(1.0 if alpha is None else alpha, spec)
    metric = Metric(epsilon=epsilon, xi=xi)
    check_metric(spec, metric)
    return metric, alpha_from_xi(xi, spec)


# Per-vertex kernel operands, the squared-distance kernel, its weights, the tree embedding.
_Kernel = namedtuple("_Kernel", "data fn w points")


def _kernel(spec: GridSpec, params: np.ndarray, metric: Metric) -> _Kernel:
    """The distance kernel of points `params` of spec's group (a VertexSet's,
    or any others).  SO(3) points are converted to unit quaternions here,
    once, so scoring gathers 4 floats per candidate."""
    w = metric.weights(spec.group_kind)
    if spec.group_kind is GroupKind.SE2:
        return _Kernel(params, se2_pair_sq, w, se2_bound_points(params, w))
    mats = so3_matrices(params)
    if spec.kind is GridKind.S2_ICOSAHEDRAL:
        return _Kernel(mats, sphere_pair_sq, w, sphere_bound_points(mats, w))
    return _Kernel(so3_quaternions(mats), so3_quat_pair_sq, w, sphere_bound_points(mats, w))


@dataclass(eq=False)
class ManifoldGraph:
    """Weighted K-NN graph over a VertexSet, given by its undirected edges
    (edge_i < edge_j, sorted by (i, j)) and their distances.  The CSR
    adjacency (indptr, indices) of both orientations, its distances and
    weights edge_weights(distances, bandwidth) are derived once, not passed.
    The constructor holds the rules every graph obeys, each a RuleError
    naming its field: the metric passes check_metric; knn lies in
    [min(1, N - 1), N - 1] for the N vertices of the sampling, as
    build_graph keeps it; pairs are 0 <= i < j < n, strictly ascending by
    (i, j); distances are finite and non-negative; the bandwidth is finite,
    at least 0, and 0 only when every distance is.  A graph equals only
    itself."""

    vertices: VertexSet
    metric: Metric
    knn: int
    bandwidth: float
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_distances: np.ndarray
    notes: tuple[str, ...] = ()
    indptr: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)
    distances: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    # The matrix laplacian(graph) assembled, for as long as a caller holds it.
    _laplacian: weakref.ref | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        i, j, d, t = self.edge_i, self.edge_j, self.edge_distances, self.bandwidth
        check_metric(self.vertices.spec, self.metric)
        if not min(1, (n := self.vertices.spec.n_vertices) - 1) <= self.knn <= n - 1:
            raise RuleError(f"knn {self.knn} on a sampling of {n} vertices, outside "
                            f"[{min(1, n - 1)}, {n - 1}]", "knn")
        di = np.diff(i)
        for bad, what in (((i < 0) | (j < 0) | (j >= len(self.vertices)),
                           "row or column index out of range"),
                          (j <= i, "pair not above the diagonal"),
                          (np.concatenate([[False], (di < 0) | ((di == 0) & (np.diff(j) <= 0))]),
                           "pair out of order")):
            refuse_flagged(bad, "edge pairs are not 0 <= i < j < n, strictly ascending by "
                           f"(i, j): {what}", "edge_j")
        refuse_flagged(~np.isfinite(d) | (d < 0.0), "edge distance is negative or not finite",
                       "edge_distances")
        if not 0.0 <= t < np.inf or (t == 0.0 and d.any()):
            raise RuleError(f"bandwidth {t} is < 0, not finite, or 0 with a distance > 0",
                            "bandwidth")
        self.indptr, self.indices, self.distances, self.weights = _mirror(
            len(self.vertices), i, j, d, edge_weights(d, t))

    @property
    def alpha(self) -> float:
        """The grid-relative form of the metric's xi, alpha_from_xi(xi, spec)."""
        return alpha_from_xi(self.metric.xi, self.vertices.spec)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return self.edge_i.size

    def adjacency(self) -> sp.csr_matrix:
        n = self.n_vertices
        return sp.csr_matrix((self.weights, self.indices, self.indptr), shape=(n, n))

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The undirected edges (i < j) with their weights and distances."""
        return (self.edge_i, self.edge_j, edge_weights(self.edge_distances, self.bandwidth),
                self.edge_distances)

    def degrees(self) -> np.ndarray:
        rows = np.repeat(np.arange(self.n_vertices), np.diff(self.indptr))
        return np.bincount(rows, weights=self.weights, minlength=self.n_vertices)


def _mirror(n: int, i: np.ndarray, j: np.ndarray, *values: np.ndarray):
    """CSR (indptr, indices, *values) of pairs i < j sorted by (i, j), in both
    orientations sharing the same floats: row r lists its lower entries,
    then its upper ones.  The lower triangle is the upper one's transpose, a
    CSR-to-CSC counting sort, O(n + nnz) (Gustavson, ACM TOMS 4(3), 1978)."""
    upper_ptr = np.searchsorted(i, np.arange(n + 1))
    by_col = sp.csr_matrix((np.arange(i.size), j, upper_ptr), shape=(n, n)).tocsc()
    upper = np.repeat(np.tile([False, True], n),
                      np.stack([np.diff(by_col.indptr), np.diff(upper_ptr)], axis=1).ravel())
    out = [upper_ptr + by_col.indptr]
    for up, low in ((j, by_col.indices), *((v, v[by_col.data]) for v in values)):
        out.append(np.empty(2 * i.size, dtype=up.dtype))
        out[-1][upper], out[-1][~upper] = up, low
    return out


def _row_sq(kern: _Kernel, rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Squared distances from a block of vertices to all vertices, or, with
    cols of shape (len(rows), m), to each row's own m candidates; each row's
    own entry is set to inf."""
    d2 = kern.fn(kern.data[rows][:, None], kern.data[None] if cols is None else kern.data[cols],
                 kern.w)
    d2[(np.arange(rows.size), rows) if cols is None else cols == rows[:, None]] = np.inf
    return d2


def _select(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's K-th smallest squared distance, and the mask of the entries
    the K-nearest rule selects: those within TIE_REL of it."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    return kth, d2 <= kth[:, None] * (1.0 + TIE_REL)


def _picks(kern: _Kernel, rows: np.ndarray, k: int, cols: np.ndarray | None = None):
    """(row, column) ids the K-nearest rule selects for `rows` among `cols`
    (as in _row_sq)."""
    r, c = np.nonzero(_select(_row_sq(kern, rows, cols), k)[1])
    return rows[r], (c if cols is None else cols[r, c])


def _unique_pairs(n: int, picks: list) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique undirected (low id, high id) pairs from (row, col) picks."""
    i = np.concatenate([p[0] for p in picks])
    j = np.concatenate([p[1] for p in picks])
    lo_id, hi_id = np.minimum(i, j), np.maximum(i, j)
    packed = np.sort(lo_id.astype(np.uint64) * np.uint64(n) + hi_id.astype(np.uint64))
    first = np.ones(packed.size, dtype=bool)
    first[1:] = packed[1:] != packed[:-1]
    packed = packed[first]
    return (packed // np.uint64(n)).astype(np.int64), (packed % np.uint64(n)).astype(np.int64)


def _scan_pairs(kern: _Kernel, k: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """The K-nearest selection scored over all pairs of the kernel's points,
    `step` rows at a time."""
    n = len(kern.data)
    return _unique_pairs(n, [_picks(kern, np.arange(lo, min(lo + step, n)), k)
                             for lo in range(0, n, step)])


def knn_pairs_bruteforce(kern: _Kernel, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The all-pairs scan in blocks of ROW_CHUNK rows: the reference that
    knn_pairs is tested against."""
    return _scan_pairs(kern, k, ROW_CHUNK)


def _product_layout(vertices: VertexSet):
    """(points, theta) of a full lift, which (spec, kept) implies, or None for
    subsets and single slices (r2, s2): vertex a m + p (slice a, point p of
    m) sits at points[p] = (x, y) with angle theta[a], or has slice 0's
    frame at point p, of quaternion points[p], times R_z(theta[a] - theta[0])."""
    spec = vertices.spec
    if not spec.lifted or vertices.kept is not None:
        return None
    base, theta = vertices.params[:spec.n_spatial], orientation_angles(spec.n_orient)
    if spec.group_kind is GroupKind.SE2:
        return base[:, :2], theta
    return so3_quaternions(so3_matrices(base)), theta


# A product-layout search's group-specific parts: tree points, whose squared
# distances times scale lie below d^2; terms(p, q), the (..., F) features of
# point pairs; lower and upper brackets, each a table (F, ..., S, S) and the
# reduction of its middle axes; floor (S, S), below d^2; aniso, w_max / w_min.
_Product = namedtuple("_Product", "points scale terms lower upper floor aniso")


def _min_branch(v: np.ndarray) -> np.ndarray:
    return np.minimum(v[:, 0], v[:, 1])


def _se2_product(kern: _Kernel, xy: np.ndarray, theta: np.ndarray) -> _Product | None:
    """Offsets u = x_q - x_p against brackets of se2_pair_sq, (4, 2, S, S):
    per branch th in (dth, dth - copysign(pi, dth)) and slices a, b, the
    coefficients of (u_x^2, 2 u_x u_y, u_y^2, 1) in |A u|^2 + w2 th^2 (knn_pairs
    derives A) -+ BALL_REL (max(w0, w1) rho^2 |u|^2 + w2 th^2); None unless
    w_min >= BALL_REL w_max keeps the lower form positive semi-definite."""
    w0, w1, w2 = kern.w
    w_min, w_max = min(w0, w1), max(w0, w1)
    if BALL_REL * w_max > w_min:
        return None

    def terms(p, q):
        ux, uy = np.moveaxis(xy[q] - xy[p], -1, 0)
        return np.stack([ux * ux, 2.0 * ux * uy, uy * uy, np.ones_like(ux)], axis=-1)

    dth = wrap_angle(theta[None, :] - theta[:, None])
    th = np.stack([dth, dth - np.copysign(np.pi, dth)])
    half = 0.5 * th
    with np.errstate(invalid="ignore"):
        rho2 = np.where(half == 0.0, 1.0, half / np.sin(half)) ** 2
    phi = theta[:, None] + half
    c, s = np.cos(phi), np.sin(phi)
    form = np.stack([rho2 * (w0 * c * c + w1 * s * s), rho2 * (w0 - w1) * c * s,
                     rho2 * (w0 * s * s + w1 * c * c), w2 * th * th])
    slack = BALL_REL * np.stack([rho2 * w_max, np.zeros_like(th), rho2 * w_max, w2 * th * th])
    return _Product(xy, w_min, terms, (form - slack, _min_branch), (form + slack, _min_branch),
                    (form - slack)[3].min(axis=0), w_max / w_min)


def _so3_product(kern: _Kernel, q0: np.ndarray, theta: np.ndarray) -> _Product:
    """Relative quaternions m = conj(q_p) q_q against brackets of
    so3_quat_pair_sq, each (6, 2, 2, S, S): the coefficients on
    (m0^2, m3^2, 2 m0 m3, m1^2, m2^2, 2 m1 m2) of 4/3 Q (lower) or 4 Q
    (upper) and c^2 per branch and slice pair (knn_pairs derives them),
    Q -+ BALL_REL (w0 + w1 + w2) and c^2 +- BALL_REL through
    m0^2 + m1^2 + m2^2 + m3^2 = 1.  The floor is 0: near the poles the
    frames' gauge brings slices together."""

    def terms(p, q):
        m0, m1, m2, m3 = _quat_relative(np.take(q0, p, axis=0), np.take(q0, q, axis=0))
        return np.stack([m0 * m0, m3 * m3, 2.0 * m0 * m3, m1 * m1, m2 * m2, 2.0 * m1 * m2], -1)

    def upper(v):
        with np.errstate(divide="ignore"):
            return _min_branch(v[:, 0] / np.maximum(v[:, 1], 0.0))

    half = 0.5 * (theta[None, :] - theta[:, None])
    mean = 0.5 * (theta[None, :] + theta[:, None]) - theta[0]
    c, s, cm, sm = np.cos(half), np.sin(half), np.cos(mean), np.sin(mean)
    zero = np.zeros_like(c)
    # The coefficients of (r0^2, r1^2, r2^2, r3^2) on each monomial, [monomial, a, b, r]
    squares = np.stack([np.stack(col, axis=-1) for col in (
        (c * c, zero, zero, s * s), (s * s, zero, zero, c * c), (-c * s, zero, zero, c * s),
        (zero, cm * cm, sm * sm, zero), (zero, sm * sm, cm * cm, zero),
        (zero, cm * sm, -cm * sm, zero))])
    w0, w1, w2 = kern.w
    # Q, then c^2, of each branch on (r0^2, r1^2, r2^2, r3^2), [form, branch, r];
    # the second branch, r R_z(pi), has the components (-r3, r2, -r1, r0).
    weights = np.array([[[0.0, w0, w2, w1], [w1, w2, w0, 0.0]], [[1.0, 0, 0, 0], [0, 0, 0, 1.0]]])
    forms = np.einsum("iabr,fxr->ifxab", squares, weights)
    slack = BALL_REL * np.multiply.outer([1.0, 1, 0, 1, 1, 0], [w0 + w1 + w2, -1.0])
    low, high = forms - slack[..., None, None, None], forms + slack[..., None, None, None]
    low[:, 0] *= 4.0 / 3.0
    high[:, 0] *= 4.0
    return _Product(kern.points[:len(q0)], 1.0, terms,
                    (low, lambda v: _min_branch(v[:, 0] * (4.0 - v[:, 1]))), (high, upper),
                    np.zeros((theta.size, theta.size)), 1.0)


def _bracket(t: np.ndarray, bound, *cols) -> np.ndarray:
    """Values of a bracket (table, reduce) on pair features t (..., F), one
    GEMM against the table's slice-pair columns `cols` (all by default),
    reduced over the forms and branches: shape t.shape[:-1] plus the shape
    of the slice pairs."""
    table, reduce = bound
    table = table[(..., *cols)]
    v = t.reshape(-1, t.shape[-1]) @ table.reshape(table.shape[0], -1)
    v = reduce(v.reshape((-1,) + table.shape[1:]))
    return v.reshape(t.shape[:-1] + v.shape[1:])


def _select_keyed(key: np.ndarray, n_keys: int, d2: np.ndarray, k: int) -> np.ndarray:
    """_select on ragged rows: the mask of the entries the K-nearest rule
    picks, given each entry's row key in [0, n_keys) and squared distance,
    and at least k entries in every row that has any."""
    # A stable argsort of 16-bit keys is a radix sort.
    order = np.argsort(key.astype(np.int16) if n_keys <= 1 << 15 else key, kind="stable")
    counts = np.bincount(key, minlength=n_keys)
    pos = np.empty(key.size, dtype=np.int64)
    pos[order] = np.arange(key.size) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.full((n_keys, counts.max()), np.inf)
    table[key, pos] = d2
    return _select(table, k)[1][key, pos]


def _product_knn_pairs(prod: _Product, kern: _Kernel, k: int, pool, workers: int):
    """knn_pairs on a full lift in the product layout (_product_layout):
    per-row bounds from the nearest points, then one bracketed ball per
    point."""
    # Imported here: the scipy.spatial package import takes about 0.1 s and
    # 6 MB, which commands that build no large graph need not pay.
    from scipy.spatial import cKDTree

    points, terms = prod.points, prod.terms
    m, n_slices = len(points), prod.floor.shape[0]
    per_pair = int(np.prod(prod.lower[0].shape[1:-2]))
    tree = cKDTree(points)
    k_all = min(k + 1, m)
    nearest = tree.query(points, k=k_all, workers=workers)[1].reshape(m, -1)
    # The lowest floor from each row slice to the other slices.
    cross = np.where(np.eye(n_slices, dtype=bool), np.inf, prod.floor).min(axis=1)
    # Own-slice neighbours fill an ellipse of axis ratio sqrt(aniso), whose
    # long axis takes that many times the points.
    k_own = min(int(np.ceil((k + 1) * np.sqrt(prod.aniso))), m)
    step = max(SCREEN_BLOCK // (per_pair * n_slices * max(k_all * n_slices, k_own)), 1)

    def kth_bound(lo: int):
        # The (k + 1)-th smallest upper bracket: each row meets itself.
        pts = np.arange(lo, min(lo + step, m))
        v = _bracket(terms(pts[:, None], nearest[pts]), prod.upper).transpose(0, 2, 1, 3)
        bound = np.partition(v.reshape(pts.size, n_slices, -1), k, axis=-1)[..., k]
        # A bound below every other slice's floor comes from the own slice's
        # K + 1 isotropically nearest points alone, loose by up to aniso:
        # take the own slice's k_own nearest too.
        rows = np.flatnonzero((bound < cross).any(axis=1)) if k_own > k_all else []
        if len(rows):
            # The blocks run side by side, so each queries the tree on one thread.
            q = tree.query(points[pts[rows]], k=k_own)[1]
            v = _bracket(terms(pts[rows, None], q), prod.upper, *np.diag_indices(n_slices))
            bound[rows] = np.minimum(bound[rows], np.partition(v, k, axis=1)[:, k])
        return bound

    limit = np.concatenate(list(pool.map(kth_bound, range(0, m, step)))) * (1.0 + TIE_REL)
    radius = (np.sqrt(limit.max(axis=1) / prod.scale) * (1.0 + BALL_REL)
              + BALL_ABS * (1.0 + np.abs(points).max()))
    balls = tree.query_ball_point(points, radius, workers=workers)
    counts = np.fromiter(map(len, balls), dtype=np.int64, count=m)

    def ball_picks(block: tuple[int, int]):
        lo, hi = block
        p = np.repeat(np.arange(lo, hi), counts[lo:hi])
        q = np.concatenate(balls[lo:hi]).astype(np.int64)
        # A slice pair whose floor exceeds every limit of the block's rows
        # holds none of their picks.
        a, b = np.nonzero(prod.floor <= limit[lo:hi].max(axis=0)[:, None])
        pair, col = np.nonzero(_bracket(terms(p, q), prod.lower, a, b)
                               <= np.take(limit, p, axis=0)[:, a])
        p, a = p[pair], a[col]
        rows, cols = a * m + p, b[col] * m + q[pair]
        keep = rows != cols
        key, rows, cols = ((p - lo) * n_slices + a)[keep], rows[keep], cols[keep]
        d2 = kern.fn(np.take(kern.data, rows, axis=0), np.take(kern.data, cols, axis=0), kern.w)
        chosen = _select_keyed(key, (hi - lo) * n_slices, d2, k)
        return rows[chosen], cols[chosen]

    # Blocks of consecutive points, about SCREEN_BLOCK bracket values each.
    per_block = max(SCREEN_BLOCK // (n_slices * n_slices * per_pair), 1)
    total = np.cumsum(counts)
    cuts = np.searchsorted(total, np.arange(per_block, total[-1], per_block))
    edges = np.unique(np.concatenate([[0], cuts, [m]]))
    picks = pool.map(ball_picks, zip(edges[:-1], edges[1:]))
    return _unique_pairs(m * n_slices, list(picks))


def _tree_knn_pairs(kern: _Kernel, k: int, pool, workers: int):
    """knn_pairs on any vertex set, through its kernel's lower-bound embedding."""
    from scipy.spatial import cKDTree  # deferred, as in _product_knn_pairs

    f = kern.points
    n = len(f)
    tree = cKDTree(f)
    dnear, near = tree.query(f, k=min(2 * (k + 1), n), workers=workers)
    step = max(CANDIDATE_BLOCK // near.shape[1], 1)
    slack = BALL_ABS * (1.0 + np.abs(f).max())

    def first_pass(lo: int):
        rows = np.arange(lo, min(lo + step, n))
        kth, chosen = _select(_row_sq(kern, rows, near[rows]), k)
        radius = np.sqrt(kth * (1.0 + TIE_REL)) * (1.0 + BALL_REL) + slack
        fits = radius < dnear[rows, -1]
        r, c = np.nonzero(chosen & fits[:, None])
        return radius, fits, (rows[r], near[rows[r], c])

    radius, fits, picks = zip(*pool.map(first_pass, range(0, n, step)))
    picks = list(picks)
    rest = np.flatnonzero(~np.concatenate(fits))
    radius = np.concatenate(radius)[rest]
    counts = tree.query_ball_point(f[rest], radius, return_length=True, workers=workers)

    by_count = np.argsort(counts, kind="stable")
    order, ranked = rest[by_count], counts[by_count]
    split = int(np.searchsorted(ranked, n // 2, side="right"))
    blocks = []
    lo = 0
    while lo < split:
        # Size the block on its first ball, then shrink it to fit its last,
        # the largest: balls grow along `order`.
        hi = min(lo + max(CANDIDATE_BLOCK // ranked[lo], 1), split)
        hi = min(lo + max(CANDIDATE_BLOCK // ranked[hi - 1], 1), split)
        blocks.append((lo, hi))
        lo = hi

    # The blocks run side by side, so each queries the tree on one thread.
    def ball_picks(block: tuple[int, int]):
        lo, hi = block
        rows = order[lo:hi]
        return _picks(kern, rows, k, tree.query(f[rows], k=ranked[hi - 1])[1])

    # Balls holding over half the vertices: score those rows against all.
    all_step = max(CANDIDATE_BLOCK // n, 1)
    picks += pool.map(ball_picks, blocks)
    picks += pool.map(lambda lo: _picks(kern, order[lo:lo + all_step], k),
                      range(split, rest.size, all_step))
    return _unique_pairs(n, picks)


def knn_pairs(kern: _Kernel, k: int, layout=None) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected pairs from per-vertex K-nearest selection under
    `kern`, whose points are in the (points, theta) product layout of
    _product_layout when `layout` is given.

    Ties at equal distance resolve to the lower vertex id (stable sort).  A
    tie class that straddles the K-th rank is kept whole: every vertex whose
    squared distance is within TIE_REL of the K-th smallest is selected, so
    the neighbor sets of symmetry-equivalent vertices agree even when
    rounding splits an exact tie across the boundary.  The union of both
    directions is kept.

    The selection is knn_pairs_bruteforce's without scoring all pairs.  A
    vertex set of at most WHOLE_SET_PAIRS pairs is scored against all of its
    vertices, in blocks of max(CANDIDATE_BLOCK // n, 1) rows, so a block's
    squared distances stay in cache.  A larger one is searched in one of two
    ways.  Each finds, for every row, a bound U on its K-th smallest squared
    distance and scores with the kernel a candidate set holding every vertex
    within U (1 + TIE_REL), so the K-th smallest among the candidates is the
    row's K-th and the picks are brute force's.

    Points in a product layout (full lifts: SE(2) grids and SO(3) spheres
    with two or more slices) are bracketed per pair of orientation slices
    (a, b) and branch by quadratic forms in features of the pair's points p
    and q: one GEMM per block of point pairs, no transcendental function.

    SE(2): for u = x_q - x_p, se2_pair_sq's branch th in
    {dth, dth - copysign(pi, dth)} rotates u by -theta_a and applies
    [[h, th/2], [-th/2, h]], h = (th/2) cot(th/2), which is rho R(-th/2) for
    rho = (th/2) / sin(th/2).  So (c1, c2) = rho R(-(theta_a + th/2)) u and
    d^2 = min over th of |A u|^2 + w2 th^2 with
    A = rho diag(sqrt(w0), sqrt(w1)) R(-(theta_a + th/2)), a form in
    (u_x^2, 2 u_x u_y, u_y^2, 1).  The kernel and the form evaluate d^2 from
    the same u and th, and every term either adds is at most
    M = max(w0, w1) rho^2 |u|^2 + w2 th^2, so they differ by a few dozen ulps
    of M; the brackets are the form -+ BALL_REL M.  The tree holds the
    points: d^2 >= w_min |u|^2 (rho >= 1, w_min = min(w0, w1)).

    SO(3): vertex a m + p has the frame G_p R_z(theta_a), so its quaternion
    is +-q_p z_a, z_a = (cos(theta_a/2), 0, 0, sin(theta_a/2)) (angles from
    slice 0, whose frames the layout holds), and a row (a, p) and a column
    (b, q) have the relative quaternion r = conj(z_a) m z_b, m = conj(q_p) q_q:
    r0 + i r3 = e^(i (theta_b - theta_a)/2) (m0 + i m3) and
    (r1, r2) = R(-(theta_a + theta_b)/2) (m1, m2).  A branch of
    so3_quat_pair_sq with scalar part c and vector part v, (r0, (r1, r2, r3))
    or, times R_z(pi), (r3, (r2, -r1, r0)), is 4 Q asin^2(s) / s^2 for
    Q = w0 v_x^2 + w1 v_z^2 + w2 v_y^2 and s = |v|, s^2 = 1 - c^2.  The
    series of asin^2(s) / s^2 starts 1 + s^2/3 with positive terms, and
    asin(s) = atan(s/c) <= s/c, so 4 Q (1 + s^2/3) <= d^2 <= 4 Q / c^2, with
    Q and c^2 forms, even in r, in (m0^2, m3^2, 2 m0 m3, m1^2, m2^2, 2 m1 m2).
    Rounding: each vertex's kernel quaternion is +-q_p z_a within 4 ulps of 1
    per component (tested at levels 0-4 with 1-8 slices), m and r are short
    sums of products of unit-sized numbers, and with |m| = 1 every term the
    forms add is at most w0 + w1 + w2 in Q and 1 in c^2.  An error e in r
    moves Q by at most 2 |e| sqrt(Q (w0 + w1 + w2)) + (w0 + w1 + w2) |e|^2,
    and atan2 and division add ulps of d^2 <= pi^2 Q, so brackets and kernel
    differ by a few dozen ulps of w0 + w1 + w2.  The brackets shift Q by
    -+ BALL_REL (w0 + w1 + w2) and c^2 by +- BALL_REL; c^2 reaching 0 makes
    the upper one inf.  The tree holds sphere_bound_points.

    Both search one cKDTree of the m points, queried per point:

    1. U is a row's (K + 1)-th smallest upper bracket (counting the row
       itself) over its point's K + 1 nearest points in every slice, so K
       vertices lie within U.  On SE(2), a U below every other slice's
       orientation term comes from the own slice alone, loose by up to
       w_max / w_min: U is then also taken over the own slice's
       ceil((K + 1) sqrt(w_max / w_min)) nearest points, as its neighbours
       fill an ellipse of that axis ratio.  SO(3) slices have no such floor.
    2. Every vertex the row selects lies within sqrt(U (1 + TIE_REL)) of its
       point in the tree (scaled by its lower bound), widened by BALL_REL
       and BALL_ABS for rounding; one ball per point takes the largest
       radius over its rows.  The candidates whose lower bracket is within
       U (1 + TIE_REL) are scored: K plus the ties per row, and on SO(3),
       whose U is looser, 6-10 more.  On SE(2), slice pairs whose
       orientation term alone exceeds every U of a block's rows are
       skipped, and w_min >= BALL_REL w_max keeps the lower form positive
       semi-definite.

    Without a layout, a set (a single-slice one too) searches a cKDTree of the
    kernel's lower-bound embedding f, |f(a) - f(b)|^2 <= d^2(a, b).  The K-th
    smallest exact squared distance from vertex i to its 2(K + 1) nearest
    embedded points is U, so every vertex the rule selects lies within
    sqrt(U (1 + TIE_REL)) of f(i), widened by BALL_REL and BALL_ABS for
    rounding.  A row whose ball radius is below the embedded distance of its
    2(K + 1)-th nearest point holds its whole ball among those points, so it
    takes its picks from that first scoring block and is settled.  The
    other rows, ordered by ball size, are scored in blocks of at most
    CANDIDATE_BLOCK entries against as many nearest embedded points as the
    block's largest ball holds; rows whose balls hold over half the vertices
    are scored against all of them.

    Each stage runs on every CPU the process may use: the tree queries take
    that many workers, and the blocks, whose bounds are fixed before any is
    scored, are mapped over a thread pool of that size.  The map returns
    blocks in order and each row's selection depends only on its own
    candidates, so the pairs do not depend on the worker count or the block
    size.
    """
    n = len(kern.data)
    if n * n <= WHOLE_SET_PAIRS:
        return _scan_pairs(kern, k, max(CANDIDATE_BLOCK // n, 1))
    # CPython has no sched_getaffinity on macOS or Windows.
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    with ThreadPoolExecutor(workers) as pool:
        if layout is not None:
            # Points (x, y) are an SE(2) grid's, unit quaternions an SO(3) lift's.
            prod = (_se2_product if layout[0].shape[1] == 2 else _so3_product)(kern, *layout)
            if prod is not None:
                return _product_knn_pairs(prod, kern, k, pool, workers)
        return _tree_knn_pairs(kern, k, pool, workers)


def edge_weights(distances: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian weights exp(-d^2 / (4t)) for bandwidth t > 0, 0 where the
    exponent overflows; all ones at t = 0 (every selected pair coincides)."""
    if bandwidth > 0.0:
        with np.errstate(over="ignore"):
            return np.exp(-(distances ** 2) / (4.0 * bandwidth))
    return np.ones_like(distances)


def build_graph(vertices: VertexSet, metric: Metric, knn: int | None = None, *,
                alpha: float | None = None) -> ManifoldGraph:
    """K-NN graph (pairs from knn_pairs) with Gaussian edge weights.

    The bandwidth t is set to BANDWIDTH_FRACTION times the mean squared edge
    distance, and the weights are edge_weights(d, t).  K is clamped to
    |V| - 1 with a note when the sampling is too small.  ValueError if the
    metric fails check_metric, or if alpha is given and is not the metric's
    own, alpha_from_xi(metric.xi, spec).
    """
    n = len(vertices)
    spec = vertices.spec
    check_metric(spec, metric)
    if knn is None:
        knn = default_knn(spec)
    if knn < 1:
        raise ValueError("knn must be at least 1")
    notes = []
    k = knn
    if k > n - 1:
        k = max(n - 1, 0)
        notes.append(f"knn clamped to {k} on {n} vertices")
    if alpha is not None and alpha != (derived := alpha_from_xi(metric.xi, spec)):
        raise ValueError(f"alpha {alpha!r} contradicts xi, which gives alpha {derived!r}")

    kern = _kernel(spec, vertices.params, metric)
    layout = _product_layout(vertices)
    i, j = knn_pairs(kern, k, layout) if k else (np.zeros(0, dtype=np.int64),) * 2
    # Scored in blocks whose temporaries stay in cache.
    d2 = [kern.fn(np.take(kern.data, i[lo:lo + CANDIDATE_BLOCK], axis=0),
                  np.take(kern.data, j[lo:lo + CANDIDATE_BLOCK], axis=0), kern.w)
          for lo in range(0, i.size, CANDIDATE_BLOCK)]
    dist = np.sqrt(np.concatenate(d2 or [np.zeros(0)]))
    t = BANDWIDTH_FRACTION * float(np.mean(dist ** 2)) if dist.size else 0.0
    return ManifoldGraph(vertices, metric, k, t, i, j, dist, tuple(notes))


def slice_neighbor_fractions(graph: ManifoldGraph) -> tuple[float, float]:
    """(in-slice, cross-slice) fractions of undirected edges."""
    i, j = graph.edge_i, graph.edge_j
    if i.size == 0:
        return 0.0, 0.0
    same = graph.vertices.orientation_index(i) == graph.vertices.orientation_index(j)
    in_frac = float(np.mean(same))
    return in_frac, 1.0 - in_frac


# ---------------------------------------------------------------------------
# Laplacian


@dataclass(frozen=True)
class Laplacian:
    """Symmetric normalized Laplacian; isolated vertices keep zero rows.
    lambda_max, its estimated largest eigenvalue, is None or lies in (0, 2],
    the spectrum's bound; RuleError (field "lambda_max") if not.  Frozen, so
    no assignment gets round that rule."""

    matrix: sp.csr_matrix
    lambda_max: float | None = None
    rescaled: bool = False

    def __post_init__(self):
        if self.lambda_max is not None and not 0.0 < self.lambda_max <= 2.0:
            raise RuleError(f"lambda_max {self.lambda_max} outside (0, 2]", "lambda_max")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def laplacian(graph: ManifoldGraph) -> Laplacian:
    """The graph's raw Laplacian.  Its matrix is assembled once for as long
    as a caller holds it (the graph keeps only a weak reference), so
    write_graph compares the Laplacian it is given instead of assembling it
    again; the matrix is not to be changed in place."""
    matrix = graph._laplacian and graph._laplacian()
    if matrix is None:
        matrix = _assemble_laplacian(graph)
        graph._laplacian = weakref.ref(matrix)
    return Laplacian(matrix)


def _assemble_laplacian(graph: ManifoldGraph) -> sp.csr_matrix:
    """I - D^(-1/2) W D^(-1/2) on the graph's mirrored CSR layout, so
    mirrored entries share the same floats.  A vertex of degree 0, with no
    edges or with only zero-weight ones, gets an empty row and column."""
    n = graph.n_vertices
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    deg = np.bincount(rows, weights=graph.weights, minlength=n)
    scale = np.sqrt(deg[rows] * deg[graph.indices])
    vals = np.divide(-graph.weights, scale, out=np.zeros(scale.size), where=scale > 0.0)
    off = sp.csr_matrix((vals, graph.indices, graph.indptr), shape=(n, n))
    ids = np.arange(n + 1)
    return off + sp.csr_matrix(((deg > 0.0).astype(float), ids[:-1], ids), (n, n))


def power_lambda_max(lap: Laplacian, tol: float = 1e-4, max_iter: int = 1000,
                     seed: int = 0) -> Laplacian:
    """Largest eigenvalue by a three-term Lanczos run from a seeded random start.

    The name stays from the power iteration this replaced, so callers and the
    CLI's `power` choice keep it.  The start is random because a fixed one like
    the all-ones vector can sit in the orthogonal complement of the top
    eigenvector (it is the kernel of a single-edge Laplacian).  Every
    LANCZOS_CHECK steps the top Ritz pair (theta, s) of the tridiagonal gives
    the residual r = beta_k |s_k|; the run stops once r <= tol * theta, or at
    beta = 0, and returns theta + r clamped into (0, 2].  Some eigenvalue lies
    within r of theta, so that bounds lambda_max once theta has reached the
    top, which is not certified.  max_iter steps (matrix-vector products)
    without convergence give 2.0 with a UserWarning.
    """
    a = lap.matrix
    n = a.shape[0]
    if n == 0 or a.nnz == 0:
        return Laplacian(a, 2.0)
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v_prev, scratch = np.zeros(n), np.empty(n)
    alphas, betas = np.empty(max_iter), np.empty(max_iter)
    stebz, stein = get_lapack_funcs(("stebz", "stein"), (alphas,))
    beta = 0.0
    for step in range(1, max_iter + 1):
        w = a @ v
        # Each product is rounded before its subtraction, as w -= c * x does.
        w -= np.multiply(v_prev, beta, out=scratch)
        alphas[step - 1] = v @ w
        w -= np.multiply(v, alphas[step - 1], out=scratch)
        beta = math.sqrt(w @ w)
        if beta == 0.0 or step % LANCZOS_CHECK == 0 or step == max_iter:
            # The top Ritz pair by LAPACK's bisection and inverse iteration,
            # the two calls eigh_tridiagonal(select="i") makes.
            d, e = alphas[:step], betas[:step - 1]
            if step == 1:
                theta, s_last = d[0], 1.0
            else:
                m, top, block, split, info = stebz(d, e, 2, 0.0, 1.0, step, step, 0.0, "B")
                s, info_s = stein(d, e, top[:m], block, split)
                if info or info_s:
                    raise np.linalg.LinAlgError(f"stebz info {info}, stein info {info_s}")
                theta, s_last = top[0], s[-1, 0]
            r = beta * abs(s_last)
            if beta == 0.0 or r <= tol * theta:
                return Laplacian(a, float(min(max(theta + r, np.finfo(float).tiny), 2.0)))
        betas[step - 1] = beta
        np.divide(w, beta, out=v_prev)
        v_prev, v = v, v_prev
    warnings.warn("Lanczos did not converge within the cap; using 2.0")
    return Laplacian(a, 2.0)


def fixed_lambda_max(lap: Laplacian) -> Laplacian:
    """Skip estimation and take the spectral upper bound 2.0."""
    return Laplacian(lap.matrix, 2.0)


def rescale(lap: Laplacian) -> Laplacian:
    """Map the spectrum into [-1, 1]: (2 / lambda_max) Delta - I."""
    if lap.lambda_max is None:
        raise ValueError("estimate lambda_max before rescaling")
    if lap.rescaled:
        raise ValueError("Laplacian is already rescaled")
    n = lap.matrix.shape[0]
    mat = ((2.0 / lap.lambda_max) * lap.matrix - sp.identity(n, format="csr")).tocsr()
    mat.sort_indices()
    return Laplacian(mat, lap.lambda_max, True)


# ---------------------------------------------------------------------------
# sub-graph sampling


def _require_finite(kappa: float) -> None:
    if not np.isfinite(kappa):
        raise ValueError(f"kappa must be a finite number, got {kappa}")


def _keep_probabilities(w: np.ndarray, kappa: float) -> tuple[np.ndarray, float]:
    """Keep probabilities min(1, c w) whose sum is kappa * |E|, and c.

    The expected count is piecewise linear in c: with the m largest weights
    saturated it is m + c * tail[m], tail[m] being the sum of the rest.  c is
    solved exactly at the first m whose solution leaves the m-th largest
    weight unsaturated.  When zero weights cap the count below the target,
    every positive-weight edge is kept (c = inf) and zero weights never are.
    """
    _require_finite(kappa)
    if kappa < 0.0:
        raise ValueError("kappa must be non-negative")
    if kappa >= 1.0:
        return np.ones(w.size), np.inf
    pos = np.sort(w[w > 0.0])[::-1]
    tail = np.cumsum(pos[::-1])[::-1]
    c_m = (kappa * w.size - np.arange(pos.size)) / tail
    valid = np.flatnonzero(c_m * pos <= 1.0)
    if valid.size == 0:
        return (w > 0.0).astype(float), np.inf
    c = float(c_m[valid[0]])
    return np.minimum(1.0, c * w), c


def sample_edges(graph: ManifoldGraph, kappa: float, seed: int) -> ManifoldGraph:
    """Keep each edge with probability min(1, c w), c solved exactly so the
    expected surviving count is kappa * |E|.  Surviving edges keep their
    distances, hence their weights; kappa >= 1 returns the identical graph."""
    i, j, w, dist = graph.edge_pairs()
    p, c = _keep_probabilities(w, kappa)
    if kappa >= 1.0 or i.size == 0:
        return graph
    rng = np.random.Generator(np.random.Philox(seed))
    keep = rng.random(i.size) < p
    note = (f"edge sampling kappa={kappa} kept {int(keep.sum())} of {i.size} "
            f"(expected {p.sum():.1f}, c={c:.6g})",)
    return ManifoldGraph(graph.vertices, graph.metric, graph.knn, graph.bandwidth, i[keep],
                         j[keep], dist[keep], graph.notes + note)


def sample_vertices(graph: ManifoldGraph, kappa: float, seed: int) -> ManifoldGraph:
    """Induced subgraph on a uniform vertex subset of size ceil(kappa |V|).

    The map from new index to original id, composed over repeated
    sampling, lands in `vertices.kept`; distances and the bandwidth are
    inherited, hence the weights too.
    """
    _require_finite(kappa)
    if not 0.0 < kappa <= 1.0:
        raise ValueError("kappa must lie in (0, 1]")
    n = graph.n_vertices
    n_keep = int(np.ceil(kappa * n))
    rng = np.random.Generator(np.random.Philox(seed))
    kept = np.sort(rng.choice(n, size=n_keep, replace=False))
    new_id = np.full(n, -1, dtype=np.int64)
    new_id[kept] = np.arange(n_keep)

    # The relabelling is monotone, so surviving pairs stay sorted.
    i, j, dist = graph.edge_i, graph.edge_j, graph.edge_distances
    alive = (new_id[i] >= 0) & (new_id[j] >= 0)

    verts = graph.vertices
    sub = VertexSet(verts.spec, kept=kept if verts.kept is None else verts.kept[kept])
    note = (f"vertex sampling kappa={kappa} kept {n_keep} of {n} vertices",)
    return ManifoldGraph(sub, graph.metric, graph.knn, graph.bandwidth, new_id[i[alive]],
                         new_id[j[alive]], dist[alive], graph.notes + note)
