"""Anisotropic K-NN graphs, their Laplacians, and sub-graph sampling.

K-NN selection scores each vertex's candidates with the exact kernel; the
all-pairs scan it replaces on large sets stays as the sequential test
reference, knn_pairs_bruteforce.  Full lifted SE(2) grids find candidates
once per spatial point in a 2-D cKDTree and screen them per pair of
orientation slices with the exact squared distance: on each branch th of the
relative angle, se2_pair_sq is |A u|^2 + w2 th^2 for the spatial offset u,
with A = rho diag(sqrt(w0), sqrt(w1)) R(-(theta_a + th/2)) and
rho = (th/2) / sin(th/2).  Shifted down and up by BALL_REL times a bound on
every term, which dwarfs the few ulps by which the form and the kernel can
differ, the form brackets the kernel, so only about K plus the ties per row
reach the kernel (knn_pairs derives the form and the bound).  Other vertex
sets search a cKDTree over a Euclidean embedding whose distances never
exceed the anisotropic ones.  The search uses every CPU in the process's
affinity mask: tree queries run with that many workers, and scoring blocks,
sized from CANDIDATE_BLOCK to stay in cache, go through a thread pool whose
order-preserving map keeps the graph byte-identical for any worker count.
Every undirected edge's distance is computed once in (low id, high id)
orientation and mirrored; weights and Laplacian entries are elementwise
functions of the mirrored distances, so adjacency and Laplacian are
symmetric at the bit level.
"""

from __future__ import annotations

import os
import warnings
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .groups import (GroupKind, Metric, se2_bound_points, se2_pair_sq, so3_quat_pair_sq,
                     so3_quaternions, sphere_bound_points, sphere_pair_sq, wrap_angle)
from .sampling import GridKind, GridSpec, VertexSet

BANDWIDTH_FRACTION = 0.2
DEFAULT_KNN_LIFTED = 16
DEFAULT_KNN_BASE = 8
ROW_CHUNK = 256
# Entries (rows x candidates) of one K-NN scoring block; one per worker is
# in flight, and a block this size stays in cache.
CANDIDATE_BLOCK = 1 << 14
# Vertex sets with at most this many pairs skip the tree and are scored as
# one block; that covers the demo network's graphs.
WHOLE_SET_PAIRS = 1 << 17
# Screen values (offsets x slice-pair columns) per product-layout search block.
SCREEN_BLOCK = 4 * CANDIDATE_BLOCK
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
# Samplings without an orientation axis, whose graphs use the isotropic metric.
ISOTROPIC_KINDS = (GridKind.R2_GRID, GridKind.S2_ICOSAHEDRAL)


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
    ValueError if not."""
    if spec.kind in ISOTROPIC_KINDS and metric != Metric():
        raise ValueError(f"{spec.kind.value} graphs use the isotropic metric, got epsilon "
                         f"{metric.epsilon!r} and xi {metric.xi!r}")
    if not 0.0 < (alpha := alpha_from_xi(metric.xi, spec)) < np.inf:
        raise ValueError(f"xi {metric.xi!r} gives alpha {alpha}, which is not finite and positive")


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


# Per-vertex kernel operands, the squared-distance kernel on them, its weights.
_Kernel = namedtuple("_Kernel", "data fn w")


def _kernel(vertices: VertexSet, metric: Metric) -> _Kernel:
    """The distance kernel of a vertex set.  SO(3) vertices are converted to
    unit quaternions here, once, so scoring gathers 4 floats per candidate."""
    w = metric.weights(vertices.spec.group_kind)
    if vertices.spec.group_kind is GroupKind.SE2:
        return _Kernel(vertices.params, se2_pair_sq, w)
    if vertices.spec.kind is GridKind.S2_ICOSAHEDRAL:
        return _Kernel(vertices.matrices, sphere_pair_sq, w)
    return _Kernel(so3_quaternions(vertices.matrices), so3_quat_pair_sq, w)


@dataclass
class ManifoldGraph:
    """Weighted K-NN graph over a VertexSet, CSR adjacency with cached
    per-edge distances laid out identically to the weights."""

    vertices: VertexSet
    metric: Metric
    knn: int
    bandwidth: float
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    distances: np.ndarray
    notes: tuple[str, ...] = ()

    @property
    def alpha(self) -> float:
        """The grid-relative form of the metric's xi, alpha_from_xi(xi, spec)."""
        return alpha_from_xi(self.metric.xi, self.vertices.spec)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return self.indices.size // 2

    def adjacency(self) -> sp.csr_matrix:
        n = self.n_vertices
        return sp.csr_matrix((self.weights, self.indices, self.indptr), shape=(n, n))

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Undirected edges (i < j) with their weights and distances."""
        rows = np.repeat(np.arange(self.n_vertices), np.diff(self.indptr))
        upper = rows < self.indices
        return rows[upper], self.indices[upper], self.weights[upper], self.distances[upper]

    def degrees(self) -> np.ndarray:
        rows = np.repeat(np.arange(self.n_vertices), np.diff(self.indptr))
        return np.bincount(rows, weights=self.weights, minlength=self.n_vertices)


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


def knn_pairs_bruteforce(vertices: VertexSet, metric: Metric, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The K-nearest selection scored over all vertex pairs, ROW_CHUNK rows at
    a time: the reference that knn_pairs is tested against."""
    n = len(vertices)
    kern = _kernel(vertices, metric)
    return _unique_pairs(n, [_picks(kern, np.arange(lo, min(lo + ROW_CHUNK, n)), k)
                             for lo in range(0, n, ROW_CHUNK)])


def _product_layout(vertices: VertexSet):
    """(xy, theta) of a full lifted SE(2) grid in the canonical product
    layout, or None for any other set.

    The layout holds when vertex a m + p, for slice a and spatial index p of
    m, sits at the point xy[p] and the angle theta[a], bit for bit; full
    grids do.  O(V) to check.  Vertex-sampled subsets, non-grid sets and
    single-slice ones (r2) take the general search.
    """
    spec = vertices.spec
    if (spec.group_kind is not GroupKind.SE2 or not spec.lifted or vertices.kept is not None
            or len(vertices) != spec.n_vertices):
        return None
    params = np.ascontiguousarray(vertices.params, dtype=float)
    bits = params.view(np.uint64).reshape(spec.n_orient, spec.n_spatial, 3)
    if (bits[:, :, :2] != bits[0, :, :2]).any() or (bits[:, :, 2] != bits[:, :1, 2]).any():
        return None
    return params[:spec.n_spatial, :2], params[::spec.n_spatial, 2]


def _screen_tables(theta: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper screens of se2_pair_sq between orientation slices.

    Each is a (4, S, S, 2) array: for row slice a, column slice b and branch
    th in (dth, dth - copysign(pi, dth)), the coefficients of
    (u_x^2, 2 u_x u_y, u_y^2, 1), u the spatial offset, in
    |A u|^2 + w2 th^2 (the knn_pairs docstring derives A), shifted down and
    up by BALL_REL (max(w0, w1) rho^2 |u|^2 + w2 th^2).
    """
    dth = wrap_angle(theta[None, :] - theta[:, None])
    th = np.stack([dth, dth - np.copysign(np.pi, dth)], axis=-1)
    half = 0.5 * th
    with np.errstate(invalid="ignore"):
        rho2 = np.where(half == 0.0, 1.0, half / np.sin(half)) ** 2
    phi = theta[:, None, None] + half
    c, s = np.cos(phi), np.sin(phi)
    w0, w1, w2 = w
    form = np.stack([rho2 * (w0 * c * c + w1 * s * s), rho2 * (w0 - w1) * c * s,
                     rho2 * (w0 * s * s + w1 * c * c), w2 * th * th])
    slack = BALL_REL * np.stack([rho2 * max(w0, w1), np.zeros_like(th), rho2 * max(w0, w1),
                                 w2 * th * th])
    return form - slack, form + slack


def _screen(u: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Screen values of spatial offsets u (..., 2) against a (4, ..., 2)
    table: the smaller branch, shape u.shape[:-1] + table.shape[1:-1]."""
    ux, uy = u[..., 0], u[..., 1]
    terms = np.stack([ux * ux, 2.0 * ux * uy, uy * uy, np.ones_like(ux)], axis=-1)
    v = (terms.reshape(-1, 4) @ table.reshape(4, -1)).reshape(u.shape[:-1] + table.shape[1:])
    return np.minimum(v[..., 0], v[..., 1])


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


def _product_knn_pairs(layout, kern: _Kernel, k: int, pool, workers: int):
    """knn_pairs on a full grid in the product layout (_product_layout):
    per-row bounds from the nearest spatial points, then one screened ball
    per spatial point."""
    # Imported here: the scipy.spatial package import takes about 0.1 s and
    # 6 MB, which commands that build no large graph need not pay.
    from scipy.spatial import cKDTree

    xy, theta = layout
    m, n_slices = xy.shape[0], theta.size
    lower, upper = _screen_tables(theta, kern.w)
    w_min, w_max = min(kern.w[0], kern.w[1]), max(kern.w[0], kern.w[1])
    tree = cKDTree(xy)
    k_all = min(k + 1, m)
    nearest = tree.query(xy, k=k_all, workers=workers)[1].reshape(m, -1)
    # The cheapest orientation term of each slice pair, and of each row
    # slice towards the other slices.
    floor = lower[3].min(axis=-1)
    cross = np.where(np.eye(n_slices, dtype=bool), np.inf, floor).min(axis=1)
    # Own-slice neighbours fill an ellipse of axis ratio sqrt(w_max / w_min),
    # whose long axis takes that many times the points.
    k_own = min(int(np.ceil((k + 1) * np.sqrt(w_max / w_min))), m)
    own_table = upper[:, np.arange(n_slices), np.arange(n_slices)]
    step = max(SCREEN_BLOCK // (2 * n_slices * max(k_all * n_slices, k_own)), 1)

    def kth_bound(lo: int):
        # The (k + 1)-th smallest upper screen: each row meets itself, at 0.
        pts = np.arange(lo, min(lo + step, m))
        q = nearest[pts]
        v = _screen(xy[q] - xy[pts, None], upper).transpose(0, 2, 1, 3)   # [point, a, j, b]
        bound = np.partition(v.reshape(pts.size, n_slices, -1), k, axis=-1)[..., k]
        # A bound below every other slice's orientation term comes from the
        # own slice's K + 1 isotropically nearest points alone, loose by up
        # to w_max / w_min: take the own slice's k_own nearest too.
        rows = np.flatnonzero((bound < cross).any(axis=1)) if k_own > k_all else []
        if len(rows):
            # The blocks run side by side, so each queries the tree on one thread.
            q = tree.query(xy[pts[rows]], k=k_own)[1]
            v = _screen(xy[q] - xy[pts[rows], None], own_table)           # [point, j, a]
            bound[rows] = np.minimum(bound[rows], np.partition(v, k, axis=1)[:, k])
        return bound

    limit = np.concatenate(list(pool.map(kth_bound, range(0, m, step)))) * (1.0 + TIE_REL)
    radius = (np.sqrt(limit.max(axis=1) / w_min) * (1.0 + BALL_REL)
              + BALL_ABS * (1.0 + np.abs(xy).max()))
    balls = tree.query_ball_point(xy, radius, workers=workers)
    counts = np.fromiter(map(len, balls), dtype=np.int64, count=m)

    def ball_picks(block: tuple[int, int]):
        lo, hi = block
        p = np.repeat(np.arange(lo, hi), counts[lo:hi])
        q = np.concatenate(balls[lo:hi]).astype(np.int64)
        # A slice pair whose orientation term alone exceeds every limit of
        # the block's rows holds none of their picks.
        a, b = np.nonzero(floor <= limit[lo:hi].max(axis=0)[:, None])
        pair, col = np.nonzero(_screen(xy[q] - xy[p], lower[:, a, b]) <= limit[p][:, a])
        p, q, a, b = p[pair], q[pair], a[col], b[col]
        rows, cols = a * m + p, b * m + q
        keep = rows != cols
        key, rows, cols = ((p - lo) * n_slices + a)[keep], rows[keep], cols[keep]
        d2 = kern.fn(kern.data[rows], kern.data[cols], kern.w)
        chosen = _select_keyed(key, (hi - lo) * n_slices, d2, k)
        return rows[chosen], cols[chosen]

    # Blocks of consecutive points, about SCREEN_BLOCK screen values each.
    per_block = max(SCREEN_BLOCK // (n_slices * n_slices * 2), 1)
    total = np.cumsum(counts)
    cuts = np.searchsorted(total, np.arange(per_block, total[-1], per_block))
    edges = np.unique(np.concatenate([[0], cuts, [m]]))
    picks = pool.map(ball_picks, zip(edges[:-1], edges[1:]))
    return _unique_pairs(m * n_slices, list(picks))


def _tree_knn_pairs(vertices: VertexSet, kern: _Kernel, k: int, pool, workers: int):
    """knn_pairs on any vertex set, through its kernel's lower-bound embedding."""
    from scipy.spatial import cKDTree  # deferred, as in _product_knn_pairs

    n = len(vertices)
    f = (se2_bound_points(vertices.params, kern.w) if vertices.spec.group_kind is GroupKind.SE2
         else sphere_bound_points(vertices.matrices, kern.w))
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


def knn_pairs(vertices: VertexSet, kern: _Kernel, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected pairs from per-vertex K-nearest selection under `kern`.

    Ties at equal distance resolve to the lower vertex id (stable sort).  A
    tie class that straddles the K-th rank is kept whole: every vertex whose
    squared distance is within TIE_REL of the K-th smallest is selected, so
    the neighbor sets of symmetry-equivalent vertices agree even when
    rounding splits an exact tie across the boundary.  The union of both
    directions is kept.

    The selection is knn_pairs_bruteforce's without scoring all pairs.  A
    vertex set of at most WHOLE_SET_PAIRS pairs is scored as one block.  A
    larger one is searched in one of two ways.  Each finds, for every row, a
    bound U on its K-th smallest squared distance and scores with the kernel
    a candidate set holding every vertex within U (1 + TIE_REL), so the K-th
    smallest among the candidates is the row's K-th and the picks are brute
    force's.

    Full lifted SE(2) grids in the product layout (_product_layout) are
    screened per pair of orientation slices.  For a row in slice a at x_a, a
    column in slice b at x_b and u = x_b - x_a, se2_pair_sq's branch th in
    {dth, dth - copysign(pi, dth)} rotates u by -theta_a and applies
    [[h, th/2], [-th/2, h]] with h = (th/2) cot(th/2), which is rho R(-th/2)
    for rho = (th/2) / sin(th/2).  So (c1, c2) = rho R(-(theta_a + th/2)) u
    and

        d^2 = min over th of |A u|^2 + w2 th^2,
        A = rho diag(sqrt(w0), sqrt(w1)) R(-(theta_a + th/2)).

    With a, b and th fixed this is a quadratic form in u plus a constant, so
    screening a block of offsets is one GEMM of (u_x^2, 2 u_x u_y, u_y^2, 1)
    against a (4, 2 S^2) table (_screen_tables).  Rounding: the kernel and
    the screen evaluate d^2 from the same u and th, and every term either
    adds is at most M = max(w0, w1) rho^2 |u|^2 + w2 th^2 (|(c1, c2)| =
    rho |u|), so they differ by a few dozen ulps of M.  The lower screen
    subtracts BALL_REL M and the upper one adds it: lower <= kernel <= upper
    for every pair, far beyond rounding.  One 2-D cKDTree holds the spatial
    points and is queried once per point, not per vertex:

    1. U is a row's (K + 1)-th smallest upper screen (it meets itself at 0)
       over its point's K + 1 nearest points in every slice.  K vertices lie
       within U of the row.  If U is below every other slice's orientation
       term, it comes from the row's own slice alone, where an isotropic
       neighbourhood makes it loose by up to w_max / w_min.  U is then also
       taken over the ceil((K + 1) sqrt(w_max / w_min)) nearest points in
       the own slice: its neighbours fill an ellipse of that axis ratio.
    2. d^2 >= w_min rho^2 |u|^2 >= w_min |u|^2 with rho >= 1, so every vertex
       the row selects lies within sqrt(U (1 + TIE_REL) / w_min) of its
       point, widened by BALL_REL and BALL_ABS for the tree's rounding.  One
       ball per point takes the largest radius over its rows.  Each ball
       point and slice pair is screened, and the candidates whose lower
       screen is within U (1 + TIE_REL) are scored: about K plus the ties
       per row on a grid.  Slice pairs whose orientation term alone exceeds
       every U of a block's rows are skipped; the lower form's quadratic
       part stays positive semi-definite because the path requires
       w_min >= BALL_REL w_max.  Other metrics take the general search.

    Any other set, and a single-slice one, searches a cKDTree of the
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
    n = len(vertices)
    if n * n <= WHOLE_SET_PAIRS:
        return _unique_pairs(n, [_picks(kern, np.arange(n), k)])
    workers = len(os.sched_getaffinity(0))
    layout = _product_layout(vertices)
    with ThreadPoolExecutor(workers) as pool:
        if layout is not None and BALL_REL * max(kern.w[:2]) <= min(kern.w[:2]):
            return _product_knn_pairs(layout, kern, k, pool, workers)
        return _tree_knn_pairs(vertices, kern, k, pool, workers)


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

    kern = _kernel(vertices, metric)
    if k == 0:
        i = j = np.zeros(0, dtype=np.int64)
    else:
        i, j = knn_pairs(vertices, kern, k)
    dist = np.sqrt(kern.fn(kern.data[i], kern.data[j], kern.w)) if i.size else np.zeros(0)
    t = BANDWIDTH_FRACTION * float(np.mean(dist ** 2)) if dist.size else 0.0
    indptr, indices, dist = _mirrored_csr(n, i, j, dist)
    return ManifoldGraph(vertices, metric, k, t, indptr, indices, edge_weights(dist, t), dist,
                         tuple(notes))


def _mirrored_csr(n: int, i: np.ndarray, j: np.ndarray, values: np.ndarray):
    """CSR structure holding each undirected pair in both orientations; the
    mirrored copies share the exact same floats."""
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    vals = np.concatenate([values, values])
    # (row, col) order: the packed key's stable sort is lexsort's permutation.
    order = np.argsort(rows * n + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    counts = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, cols.astype(np.int64), vals


def slice_neighbor_fractions(graph: ManifoldGraph) -> tuple[float, float]:
    """(in-slice, cross-slice) fractions of undirected edges; ValueError for
    a vertex-sampled set without the `kept` map its slices are read from."""
    if graph.vertices.kept is None and graph.n_vertices < graph.vertices.spec.n_vertices:
        raise ValueError("vertex-sampled graph without a kept-id map")
    i, j, _, _ = graph.edge_pairs()
    if i.size == 0:
        return 0.0, 0.0
    same = graph.vertices.orientation_index(i) == graph.vertices.orientation_index(j)
    in_frac = float(np.mean(same))
    return in_frac, 1.0 - in_frac


# ---------------------------------------------------------------------------
# Laplacian


@dataclass
class Laplacian:
    """Symmetric normalized Laplacian; isolated vertices keep zero rows."""

    matrix: sp.csr_matrix
    lambda_max: float | None = None
    rescaled: bool = False

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def laplacian(graph: ManifoldGraph) -> Laplacian:
    """Assemble I - D^(-1/2) W D^(-1/2) on the graph's mirrored CSR layout,
    so mirrored entries share the same floats.  A vertex of degree 0, with no
    edges or with only zero-weight ones, gets an empty row and column."""
    n = graph.n_vertices
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    deg = np.bincount(rows, weights=graph.weights, minlength=n)
    scale = np.sqrt(deg[rows] * deg[graph.indices])
    vals = np.divide(-graph.weights, scale, out=np.zeros(scale.size), where=scale > 0.0)
    off = sp.csr_matrix((vals, graph.indices, graph.indptr), shape=(n, n))
    ids = np.arange(n + 1)
    return Laplacian(off + sp.csr_matrix(((deg > 0.0).astype(float), ids[:-1], ids), (n, n)))


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
    v_prev = np.zeros(n)
    alphas, betas = [], []
    beta = 0.0
    for step in range(1, max_iter + 1):
        w = a @ v
        w -= beta * v_prev
        alphas.append(float(v @ w))
        w -= alphas[-1] * v
        beta = float(np.linalg.norm(w))
        if beta == 0.0 or step % LANCZOS_CHECK == 0 or step == max_iter:
            theta, s = eigh_tridiagonal(alphas, betas, select="i",
                                        select_range=(step - 1, step - 1))
            r = beta * abs(s[-1, 0])
            if beta == 0.0 or r <= tol * theta[0]:
                return Laplacian(a, float(min(max(theta[0] + r, np.finfo(float).tiny), 2.0)))
        betas.append(beta)
        v_prev, v = v, w / beta
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
    indptr, indices, dist = _mirrored_csr(graph.n_vertices, i[keep], j[keep], dist[keep])
    return ManifoldGraph(graph.vertices, graph.metric, graph.knn, graph.bandwidth, indptr,
                         indices, edge_weights(dist, graph.bandwidth), dist, graph.notes + note)


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

    i, j, _, dist = graph.edge_pairs()
    alive = (new_id[i] >= 0) & (new_id[j] >= 0)
    indptr, indices, dist = _mirrored_csr(n_keep, new_id[i[alive]], new_id[j[alive]], dist[alive])

    verts = graph.vertices
    sub = VertexSet(verts.spec, verts.params[kept],
                    kept=kept if verts.kept is None else verts.kept[kept])
    note = (f"vertex sampling kappa={kappa} kept {n_keep} of {n} vertices",)
    return ManifoldGraph(sub, graph.metric, graph.knn, graph.bandwidth, indptr, indices,
                         edge_weights(dist, graph.bandwidth), dist, graph.notes + note)
