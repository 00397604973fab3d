"""Anisotropic K-NN graphs, their Laplacians, and sub-graph sampling.

K-NN selection searches a cKDTree over a Euclidean embedding whose
distances never exceed the anisotropic ones, then scores each vertex's
candidates with the exact kernel; the all-pairs scan it replaces stays as
the test reference, knn_pairs_bruteforce.  Every undirected edge's
distance, weight and Laplacian entry are computed once in (low id, high id)
orientation and mirrored, so adjacency and Laplacian are symmetric at the
bit level.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .groups import (GroupKind, Metric, se2_bound_points, se2_pair_sq, so3_quat_pair_sq,
                     so3_quaternions, sphere_bound_points, sphere_pair_sq)
from .sampling import GridKind, GridSpec, VertexSet

BANDWIDTH_FRACTION = 0.2
DEFAULT_KNN_LIFTED = 16
DEFAULT_KNN_BASE = 8
ROW_CHUNK = 256
# Entries (rows x candidates) of one K-NN scoring block.
CANDIDATE_BLOCK = 1 << 17
# Slack on the K-NN search's ball radius: relative, and absolute in units of
# the largest embedded coordinate.  The absolute part covers rounding in the
# embedding and in the kernels, which is absolute for near-coincident points.
BALL_REL = 1e-6
BALL_ABS = 1e-6
# Relative slack for K-th-distance ties; far above rounding noise (~1e-15),
# far below the gap between distinct squared distances on any sampling here.
TIE_REL = 1e-9


def default_knn(spec: GridSpec) -> int:
    return DEFAULT_KNN_LIFTED if spec.lifted else DEFAULT_KNN_BASE


def xi_from_alpha(alpha: float, spec: GridSpec) -> float:
    """xi^2 = alpha * n_orient / n_spatial balances cross-slice step costs."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return float(np.sqrt(alpha * spec.n_orient / spec.n_spatial))


def alpha_from_xi(xi: float, spec: GridSpec) -> float:
    return float(xi ** 2 * spec.n_spatial / spec.n_orient)


def make_metric(spec: GridSpec, epsilon: float = 1.0, alpha: float | None = None,
                xi: float | None = None) -> tuple[Metric, float]:
    """Resolve CLI-style metric parameters for a sampling; returns (metric, alpha)."""
    if alpha is not None and xi is not None:
        raise ValueError("give either alpha or xi, not both")
    if spec.kind in (GridKind.R2_GRID, GridKind.S2_ICOSAHEDRAL):
        if epsilon != 1.0 or alpha is not None or xi is not None:
            raise ValueError(f"{spec.kind.value} graphs use the isotropic metric")
        return Metric(), alpha_from_xi(1.0, spec)
    if xi is None:
        a = 1.0 if alpha is None else alpha
        xi = xi_from_alpha(a, spec)
    return Metric(epsilon=epsilon, xi=xi), alpha_from_xi(xi, spec)


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
    alpha: float
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    distances: np.ndarray
    notes: tuple[str, ...] = ()
    id_map: np.ndarray | None = None

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


def pair_distances(vertices: VertexSet, metric: Metric, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances for explicit vertex pairs (elementwise over i, j)."""
    data, fn, w = _kernel(vertices, metric)
    return np.sqrt(fn(data[i], data[j], w))


def _picks(kern: _Kernel, rows: np.ndarray, k: int, cols: np.ndarray | None = None):
    """(row, column) ids the K-nearest rule selects for `rows` among `cols`
    (as in _row_sq)."""
    d2 = _row_sq(kern, rows, cols)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    r, c = np.nonzero(d2 <= kth[:, None] * (1.0 + TIE_REL))
    return rows[r], (c if cols is None else cols[r, c])


def _unique_pairs(n: int, picks: list) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique undirected (low id, high id) pairs from (row, col) picks."""
    i = np.concatenate([p[0] for p in picks])
    j = np.concatenate([p[1] for p in picks])
    lo_id, hi_id = np.minimum(i, j), np.maximum(i, j)
    packed = np.unique(lo_id.astype(np.uint64) * np.uint64(n) + hi_id.astype(np.uint64))
    return (packed // np.uint64(n)).astype(np.int64), (packed % np.uint64(n)).astype(np.int64)


def knn_pairs_bruteforce(vertices: VertexSet, metric: Metric, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The K-nearest selection scored over all vertex pairs, ROW_CHUNK rows at
    a time: the reference that knn_pairs is tested against."""
    n = len(vertices)
    kern = _kernel(vertices, metric)
    return _unique_pairs(n, [_picks(kern, np.arange(lo, min(lo + ROW_CHUNK, n)), k)
                             for lo in range(0, n, ROW_CHUNK)])


def knn_pairs(vertices: VertexSet, kern: _Kernel, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Unique undirected pairs from per-vertex K-nearest selection under `kern`.

    Ties at equal distance resolve to the lower vertex id (stable sort).  A
    tie class that straddles the K-th rank is kept whole: every vertex whose
    squared distance is within TIE_REL of the K-th smallest is selected, so
    the neighbor sets of symmetry-equivalent vertices agree even when
    rounding splits an exact tie across the boundary.  The union of both
    directions is kept.

    The selection is knn_pairs_bruteforce's without scoring all pairs.  A
    cKDTree holds the kernel's lower-bound embedding f, |f(a) - f(b)|^2 <=
    d^2(a, b).  The K-th smallest exact squared distance from vertex i to its
    2(K + 1) nearest embedded points bounds its true K-th from above by U, so
    every vertex the rule selects lies within sqrt(U (1 + TIE_REL)) of f(i),
    widened by BALL_REL and BALL_ABS for rounding.  Rows, ordered by ball
    size, are scored in blocks of at most CANDIDATE_BLOCK entries against as
    many nearest embedded points as the block's largest ball holds; rows
    whose balls hold over half the vertices are scored against all of them.
    A vertex set whose pairs fit in one block is scored as one block.
    """
    n = len(vertices)
    if n * n <= CANDIDATE_BLOCK:
        return _unique_pairs(n, [_picks(kern, np.arange(n), k)])
    # Imported here: the scipy.spatial package import takes about 0.1 s and
    # 6 MB, which commands that build no large graph need not pay.
    from scipy.spatial import cKDTree

    f = (se2_bound_points(vertices.params, kern.w) if vertices.spec.group_kind is GroupKind.SE2
         else sphere_bound_points(vertices.matrices, kern.w))
    tree = cKDTree(f)
    _, near = tree.query(f, k=min(2 * (k + 1), n))
    upper = np.empty(n)
    step = max(CANDIDATE_BLOCK // near.shape[1], 1)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        upper[rows] = np.partition(_row_sq(kern, rows, near[rows]),
                                   k - 1, axis=1)[:, k - 1]
    radius = (np.sqrt(upper * (1.0 + TIE_REL)) * (1.0 + BALL_REL)
              + BALL_ABS * (1.0 + np.abs(f).max()))
    counts = tree.query_ball_point(f, radius, return_length=True)

    order = np.argsort(counts, kind="stable")
    ranked = counts[order]
    split = int(np.searchsorted(ranked, n // 2, side="right"))
    picks = []
    lo = 0
    while lo < split:
        # Size the block on its first ball, then shrink it to fit its last,
        # the largest: balls grow along `order`.
        hi = min(lo + max(CANDIDATE_BLOCK // ranked[lo], 1), split)
        hi = min(lo + max(CANDIDATE_BLOCK // ranked[hi - 1], 1), split)
        rows = order[lo:hi]
        picks.append(_picks(kern, rows, k, tree.query(f[rows], k=ranked[hi - 1])[1]))
        lo = hi
    # Balls holding over half the vertices: score those rows against all.
    step = max(CANDIDATE_BLOCK // n, 1)
    picks += [_picks(kern, order[lo:lo + step], k) for lo in range(split, n, step)]
    return _unique_pairs(n, picks)


def build_graph(vertices: VertexSet, metric: Metric, knn: int | None = None, *,
                alpha: float | None = None) -> ManifoldGraph:
    """K-NN graph (pairs from knn_pairs) with Gaussian edge weights.

    The bandwidth is set to BANDWIDTH_FRACTION times the mean squared edge
    distance and weights are exp(-d^2 / (4t)).  K is clamped to |V| - 1 with
    a note when the sampling is too small.
    """
    n = len(vertices)
    spec = vertices.spec
    if knn is None:
        knn = default_knn(spec)
    if knn < 1:
        raise ValueError("knn must be at least 1")
    notes = []
    k = knn
    if k > n - 1:
        k = max(n - 1, 0)
        notes.append(f"knn clamped to {k} on {n} vertices")
    if alpha is None:
        alpha = alpha_from_xi(metric.xi, spec)

    kern = _kernel(vertices, metric)
    if k == 0:
        i = j = np.zeros(0, dtype=np.int64)
    else:
        i, j = knn_pairs(vertices, kern, k)
    dist = np.sqrt(kern.fn(kern.data[i], kern.data[j], kern.w)) if i.size else np.zeros(0)

    if dist.size:
        t = BANDWIDTH_FRACTION * float(np.mean(dist ** 2))
    else:
        t = 0.0
    if t > 0.0:
        w = np.exp(-(dist ** 2) / (4.0 * t))
    else:
        w = np.ones_like(dist)   # degenerate: all selected pairs coincide

    indptr, indices, data = _mirrored_csr(n, i, j, np.stack([w, dist], axis=-1) if w.size else np.zeros((0, 2)))
    return ManifoldGraph(vertices, metric, k, t, alpha, indptr, indices,
                         data[:, 0].copy(), data[:, 1].copy(), tuple(notes))


def _mirrored_csr(n: int, i: np.ndarray, j: np.ndarray, values: np.ndarray):
    """CSR structure holding each undirected pair in both orientations.

    values may be (m, c); the mirrored copies share the exact same floats.
    """
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    vals = np.concatenate([values, values], axis=0)
    order = np.lexsort((cols, rows))
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
    power_converged: bool = True
    notes: tuple[str, ...] = field(default=())

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def laplacian(graph: ManifoldGraph) -> Laplacian:
    """Assemble I - D^(-1/2) W D^(-1/2) on the graph's mirrored CSR layout,
    so mirrored entries share the same floats.  A vertex of degree 0, with no
    edges or with only zero-weight ones, gets an empty row and column."""
    n = graph.n_vertices
    deg = graph.degrees()
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    scale = np.sqrt(deg[rows] * deg[graph.indices])
    vals = np.divide(-graph.weights, scale, out=np.zeros(scale.size), where=scale > 0.0)
    off = sp.csr_matrix((vals, graph.indices, graph.indptr), shape=(n, n))
    return Laplacian((off + sp.diags((deg > 0.0).astype(float))).tocsr())


def power_lambda_max(lap: Laplacian, tol: float = 1e-6, max_iter: int = 1000,
                     seed: int = 0) -> Laplacian:
    """Largest eigenvalue by power iteration with a seeded random start.

    A deterministic start like the all-ones vector can sit in the orthogonal
    complement of the top eigenvector (it is the kernel of a single-edge
    Laplacian), hence the random draw.  The estimate is clamped into (0, 2];
    non-convergence falls back to the upper bound 2.0 with a note.
    """
    a = lap.matrix
    n = a.shape[0]
    if n == 0 or a.nnz == 0:
        return Laplacian(a, 2.0, False, True, lap.notes)
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    lam = 0.0
    converged = False
    for _ in range(max_iter):
        y = a @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            lam = 0.0
            converged = True
            break
        new_lam = float(x @ y)
        x = y / norm
        if abs(new_lam - lam) <= tol * max(abs(new_lam), 1e-30):
            lam = new_lam
            converged = True
            break
        lam = new_lam
    notes = lap.notes
    if not converged:
        lam = 2.0
        notes = notes + ("power iteration did not converge; using upper bound 2.0",)
        warnings.warn("power iteration did not converge within the cap; using 2.0")
    lam = min(max(lam, np.finfo(float).tiny), 2.0)
    return Laplacian(a, lam, False, converged, notes)


def fixed_lambda_max(lap: Laplacian) -> Laplacian:
    """Skip estimation and take the spectral upper bound 2.0."""
    return Laplacian(lap.matrix, 2.0, False, True, lap.notes)


def rescale(lap: Laplacian) -> Laplacian:
    """Map the spectrum into [-1, 1]: (2 / lambda_max) Delta - I."""
    if lap.lambda_max is None:
        raise ValueError("estimate lambda_max before rescaling")
    if lap.rescaled:
        raise ValueError("Laplacian is already rescaled")
    n = lap.matrix.shape[0]
    mat = ((2.0 / lap.lambda_max) * lap.matrix - sp.identity(n, format="csr")).tocsr()
    mat.sort_indices()
    return Laplacian(mat, lap.lambda_max, True, lap.power_converged, lap.notes)


# ---------------------------------------------------------------------------
# sub-graph sampling


def _keep_probabilities(w: np.ndarray, kappa: float) -> tuple[np.ndarray, float]:
    """Keep probabilities min(1, c w) whose sum is kappa * |E|, and c.

    The expected count is piecewise linear in c: with the m largest weights
    saturated it is m + c * tail[m], tail[m] being the sum of the rest.  c is
    solved exactly at the first m whose solution leaves the m-th largest
    weight unsaturated.  When zero weights cap the count below the target,
    every positive-weight edge is kept (c = inf) and zero weights never are.
    """
    if not 0.0 <= kappa:
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
    expected surviving count is kappa * |E|.  Weights are kept as-is;
    kappa >= 1 returns the identical graph."""
    i, j, w, dist = graph.edge_pairs()
    p, c = _keep_probabilities(w, kappa)
    if kappa >= 1.0 or i.size == 0:
        return graph
    rng = np.random.Generator(np.random.Philox(seed))
    keep = rng.random(i.size) < p
    note = (f"edge sampling kappa={kappa} kept {int(keep.sum())} of {i.size} "
            f"(expected {p.sum():.1f}, c={c:.6g})",)
    data = np.stack([w[keep], dist[keep]], axis=-1) if keep.any() else np.zeros((0, 2))
    indptr, indices, vals = _mirrored_csr(graph.n_vertices, i[keep], j[keep], data)
    return ManifoldGraph(graph.vertices, graph.metric, graph.knn, graph.bandwidth,
                         graph.alpha, indptr, indices, vals[:, 0].copy(), vals[:, 1].copy(),
                         graph.notes + note, graph.id_map)


def edge_keep_probabilities(graph: ManifoldGraph, kappa: float) -> np.ndarray:
    """The per-edge keep probabilities sample_edges would use (for analysis)."""
    return _keep_probabilities(graph.edge_pairs()[2], kappa)[0]


def sample_vertices(graph: ManifoldGraph, kappa: float, seed: int) -> ManifoldGraph:
    """Induced subgraph on a uniform vertex subset of size ceil(kappa |V|).

    The kept-id map lands in `id_map` (new index -> original id); edge
    weights and the bandwidth are inherited, not recomputed.
    """
    if not 0.0 < kappa <= 1.0:
        raise ValueError("kappa must lie in (0, 1]")
    n = graph.n_vertices
    n_keep = int(np.ceil(kappa * n))
    rng = np.random.Generator(np.random.Philox(seed))
    kept = np.sort(rng.choice(n, size=n_keep, replace=False))
    new_id = np.full(n, -1, dtype=np.int64)
    new_id[kept] = np.arange(n_keep)

    i, j, w, dist = graph.edge_pairs()
    alive = (new_id[i] >= 0) & (new_id[j] >= 0)
    data = np.stack([w[alive], dist[alive]], axis=-1) if alive.any() else np.zeros((0, 2))
    indptr, indices, vals = _mirrored_csr(n_keep, new_id[i[alive]], new_id[j[alive]], data)

    verts = graph.vertices
    sub = VertexSet(verts.spec, verts.params[kept].copy(), verts.matrices[kept].copy(),
                    kept if verts.kept is None else verts.kept[kept])
    note = (f"vertex sampling kappa={kappa} kept {n_keep} of {n} vertices",)
    return ManifoldGraph(sub, graph.metric, graph.knn, graph.bandwidth, graph.alpha,
                         indptr, indices, vals[:, 0].copy(), vals[:, 1].copy(),
                         graph.notes + note, kept)
