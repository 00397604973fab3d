"""Graph construction tests: K-NN selection, weights, Laplacian, sampling."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from liegraph import graph as graph_module
from liegraph.graph import (
    Laplacian,
    alpha_from_xi,
    build_graph,
    default_knn,
    edge_keep_probabilities,
    fixed_lambda_max,
    knn_pairs_bruteforce,
    laplacian,
    make_metric,
    pair_distances,
    power_lambda_max,
    rescale,
    sample_edges,
    sample_vertices,
    xi_from_alpha,
)
from liegraph.groups import GroupKind, Metric, distance, se2_matrices, so3_matrices
from liegraph.network import build_demo
from liegraph.sampling import (GridKind, GridSpec, VertexSet, build_vertices, grid_r2,
                               grid_se2, grid_s2)

from conftest import EPS_ANISO, built
from oracles import se2_pair_sq_three_branch, so3_pair_sq_matrix_log


def test_metric_resolution():
    spec = GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4)
    metric, alpha = make_metric(spec, epsilon=0.5, alpha=1.0)
    assert metric.epsilon == 0.5
    assert metric.xi == pytest.approx(np.sqrt(4 / 64))
    assert alpha == pytest.approx(1.0)
    # xi given directly round-trips through alpha
    metric2, alpha2 = make_metric(spec, xi=0.25)
    assert metric2.xi == 0.25
    assert alpha2 == pytest.approx(alpha_from_xi(0.25, spec))
    assert xi_from_alpha(alpha2, spec) == pytest.approx(0.25)

    with pytest.raises(ValueError):
        make_metric(spec, alpha=1.0, xi=0.3)
    with pytest.raises(ValueError):
        xi_from_alpha(0.0, spec)

    flat = GridSpec(GridKind.R2_GRID, nx=8, ny=8)
    m, _ = make_metric(flat)
    assert m.epsilon == 1.0 and m.xi == 1.0
    with pytest.raises(ValueError):
        make_metric(flat, epsilon=0.5)
    with pytest.raises(ValueError):
        make_metric(GridSpec(GridKind.S2_ICOSAHEDRAL, level=1), alpha=2.0)


def test_default_knn():
    assert default_knn(GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2)) == 16
    assert default_knn(GridSpec(GridKind.R2_GRID, nx=4, ny=4)) == 8
    assert default_knn(GridSpec(GridKind.S2_ICOSAHEDRAL, level=1)) == 8


def test_knn_rook_closure():
    """3x3 planar grid at K=2: the axis tie class is kept whole.

    Every interior-adjacent pair sits at distance 1/3 while diagonals are
    farther, so closure over the K-th tie class must produce exactly the
    rook adjacency (12 edges) even though K = 2 would split it.
    """
    g = built(GridKind.R2_GRID, nx=3, ny=3, knn=2)
    i, j, w, d = g.edge_pairs()
    expected = set()
    for iy in range(3):
        for ix in range(3):
            a = iy * 3 + ix
            if ix < 2:
                expected.add((a, a + 1))
            if iy < 2:
                expected.add((a, a + 3))
    assert set(zip(i.tolist(), j.tolist())) == expected
    np.testing.assert_allclose(d, 1 / 3, atol=1e-15)
    # equal distances make every weight exp(-1 / (4 * 0.2)) exactly
    np.testing.assert_allclose(w, np.exp(-1.25), atol=1e-15)
    assert g.bandwidth == pytest.approx(0.2 / 9)


def test_knn_against_bruteforce():
    """Edge set matches a per-pair oracle built from the scalar distance."""
    verts = grid_se2(3, 3, 2)
    metric = Metric(epsilon=EPS_ANISO, xi=0.4)
    g = build_graph(verts, metric, 4)
    n = len(verts)
    d2 = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            d2[a, b] = distance(verts.element(a), verts.element(b), metric) ** 2
    np.fill_diagonal(d2, np.inf)
    expected = set()
    for a in range(n):
        kth = np.partition(d2[a], 3)[3]
        for b in np.nonzero(d2[a] <= kth * (1.0 + 1e-9))[0]:
            expected.add((min(a, b), max(a, b)))
    i, j, _, dist = g.edge_pairs()
    assert set(zip(i.tolist(), j.tolist())) == expected
    # cached distances agree with the scalar path
    np.testing.assert_allclose(dist ** 2, [d2[a, b] for a, b in zip(i, j)],
                               rtol=1e-12)


# A scoring block this small sends every vertex set above 8 vertices through
# the tree search, in blocks of a few rows, as large sets go in production.
SMALL_BLOCK = 64


def assert_knn_exact(g):
    """The graph's edges and stored distances equal the brute-force reference's."""
    i, j, _, d = g.edge_pairs()
    bi, bj = knn_pairs_bruteforce(g.vertices, g.metric, g.knn)
    np.testing.assert_array_equal(i, bi)
    np.testing.assert_array_equal(j, bj)
    np.testing.assert_array_equal(d, pair_distances(g.vertices, g.metric, bi, bj))


LIBRARY_KERNEL = graph_module._kernel


def oracle_kernel(vertices, metric):
    """The library's kernel with the oracles swapped in: all three SE(2)
    branches, and the trace log on SO(3) matrices."""
    kern = LIBRARY_KERNEL(vertices, metric)
    if vertices.spec.group_kind is GroupKind.SE2:
        return kern._replace(fn=se2_pair_sq_three_branch)
    if vertices.spec.kind is GridKind.SO3_ICOSAHEDRAL:
        return kern._replace(data=vertices.matrices, fn=so3_pair_sq_matrix_log)
    return kern


GRAPH_ARRAYS = ("indptr", "indices", "weights", "distances")


@pytest.mark.parametrize("name", ["se2_8x8x4", "se2_16x16x6", "r2_16x16"])
def test_se2_graph_matches_three_branch_oracle(name, request, monkeypatch):
    g = request.getfixturevalue(name)
    monkeypatch.setattr(graph_module, "_kernel", oracle_kernel)
    ref = build_graph(g.vertices, g.metric, g.knn)
    for attr in GRAPH_ARRAYS:
        assert getattr(g, attr).tobytes() == getattr(ref, attr).tobytes(), attr


def test_demo_graphs_match_three_branch_oracle(monkeypatch):
    demo = build_demo(seed=0)
    monkeypatch.setattr(graph_module, "_kernel", oracle_kernel)
    ref = build_demo(seed=0)
    for g, r in ((demo.fine_graph, ref.fine_graph), (demo.coarse_graph, ref.coarse_graph)):
        for attr in GRAPH_ARRAYS:
            assert getattr(g, attr).tobytes() == getattr(r, attr).tobytes(), attr


@pytest.mark.parametrize("alpha", [1.0, 100.0])
def test_so3_graph_matches_matrix_log_oracle(alpha, monkeypatch):
    g = built(GridKind.SO3_ICOSAHEDRAL, level=2, orient=6, epsilon=EPS_ANISO, alpha=alpha)
    monkeypatch.setattr(graph_module, "_kernel", oracle_kernel)
    ref = build_graph(g.vertices, g.metric, g.knn)
    np.testing.assert_array_equal(g.indptr, ref.indptr)
    np.testing.assert_array_equal(g.indices, ref.indices)
    np.testing.assert_allclose(g.distances, ref.distances, rtol=1e-13, atol=0)


@pytest.mark.parametrize("block", [graph_module.CANDIDATE_BLOCK, SMALL_BLOCK])
@pytest.mark.parametrize("name", ["se2_8x8x4", "se2_16x16x6", "r2_16x16", "s2_level2"])
def test_knn_tree_matches_bruteforce(name, block, request, monkeypatch):
    g = request.getfixturevalue(name)
    monkeypatch.setattr(graph_module, "CANDIDATE_BLOCK", block)
    assert_knn_exact(build_graph(g.vertices, g.metric, g.knn))
    assert_knn_exact(built(GridKind.R2_GRID, nx=3, ny=3, knn=2))
    # vertex-sampled subsets are non-grid vertex sets
    for kappa, seed in ((0.5, 1), (0.2, 2)):
        sub = sample_vertices(g, kappa, seed).vertices
        assert_knn_exact(build_graph(sub, g.metric, g.knn))


def test_knn_tree_near_duplicates(monkeypatch):
    """Sphere points 1e-8 rad apart and exact duplicates are still found."""
    monkeypatch.setattr(graph_module, "CANDIDATE_BLOCK", SMALL_BLOCK)
    verts = grid_s2(1)
    rng = np.random.Generator(np.random.Philox(70))
    tilt = np.stack([np.zeros(20), rng.choice([0.0, 1e-12, 1e-8, 3e-8], 20),
                     rng.uniform(-np.pi, np.pi, 20)], axis=1)
    mats = np.concatenate([verts.matrices, verts.matrices[:20] @ so3_matrices(tilt)])
    near = VertexSet(verts.spec, np.zeros((mats.shape[0], 3)), mats)
    for k in (1, 3, 8):
        assert_knn_exact(build_graph(near, Metric(), k))


@st.composite
def vertex_sets(draw):
    """Non-grid SE(2), SO(3) or sphere vertex sets with duplicate and
    near-duplicate points, and optionally lattice coordinates (exact ties)."""
    kind = draw(st.sampled_from(["se2", "so3", "s2"]))
    n = draw(st.integers(2, 48))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2 ** 32 - 1))))
    params = np.column_stack([rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(-np.pi, np.pi, n)])
    if kind != "se2":
        params = np.column_stack([params[:, 2], rng.uniform(0.0, np.pi, n),
                                  rng.uniform(-np.pi, np.pi, n)])
    if draw(st.booleans()):
        params = np.round(params * 4.0) / 4.0
    n_dup = draw(st.integers(0, n // 2))
    src = rng.integers(0, n, n_dup)
    jitter = draw(st.sampled_from([0.0, 1e-12, 1e-8]))
    params = np.concatenate([params, params[src] + jitter * rng.standard_normal((n_dup, 3))])
    knn = draw(st.integers(1, 24))
    if kind == "se2":
        spec = GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=4)
        verts = VertexSet(spec, params, se2_matrices(params))
    else:
        spec = (GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=4) if kind == "so3"
                else GridSpec(GridKind.S2_ICOSAHEDRAL, level=1))
        params[:, 1] = np.clip(params[:, 1], 0.0, np.pi)
        verts = VertexSet(spec, params, so3_matrices(params))
    if kind == "s2":
        return verts, Metric(), knn
    metric, _ = make_metric(spec, epsilon=draw(st.sampled_from([np.sqrt(0.1), 1.0])),
                            alpha=draw(st.sampled_from([0.1, 1.0, 100.0])))
    return verts, metric, knn


@settings(max_examples=120, deadline=None)
@given(vertex_sets())
def test_knn_tree_matches_bruteforce_random(case):
    """Exact equality on random sets, K clamped to |V| - 1 included."""
    verts, metric, knn = case
    with mock.patch.object(graph_module, "CANDIDATE_BLOCK", SMALL_BLOCK):
        g = build_graph(verts, metric, knn)
    assert g.knn == min(knn, len(verts) - 1)
    assert_knn_exact(g)


def test_degree_bounds(se2_8x8x4):
    counts = np.diff(se2_8x8x4.indptr)
    assert counts.min() >= 16
    assert counts.mean() <= 32


def test_bandwidth_and_weights(se2_8x8x4):
    i, j, w, d = se2_8x8x4.edge_pairs()
    assert se2_8x8x4.bandwidth == pytest.approx(0.2 * np.mean(d ** 2), rel=1e-15)
    np.testing.assert_array_equal(w, np.exp(-(d ** 2) / (4 * se2_8x8x4.bandwidth)))


def test_adjacency_exactly_symmetric(se2_8x8x4):
    a = se2_8x8x4.adjacency()
    diff = (a - a.T).tocoo()
    assert diff.nnz == 0 or np.all(diff.data == 0.0)
    lap = laplacian(se2_8x8x4).matrix
    ldiff = (lap - lap.T).tocoo()
    assert ldiff.nnz == 0 or np.all(ldiff.data == 0.0)


def test_pair_distances_match_elements():
    verts = grid_se2(4, 4, 4)
    metric = Metric(epsilon=EPS_ANISO, xi=0.5)
    rng = np.random.Generator(np.random.Philox(3))
    a = rng.integers(0, len(verts), 20)
    b = rng.integers(0, len(verts), 20)
    fast = pair_distances(verts, metric, a, b)
    slow = [distance(verts.element(x), verts.element(y), metric) for x, y in zip(a, b)]
    np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_four_cycle_spectrum():
    """2x2 grid at K=2 is an equal-weight 4-cycle: eigenvalues {0, 1, 1, 2}."""
    g = built(GridKind.R2_GRID, nx=2, ny=2, knn=2)
    assert g.n_edges == 4
    lap = laplacian(g)
    vals = np.linalg.eigvalsh(lap.matrix.toarray())
    np.testing.assert_allclose(vals, [0.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_laplacian_kernel(se2_8x8x4):
    """Connected graph: lambda_0 = 0 with eigenvector proportional to sqrt(deg)."""
    lap = laplacian(se2_8x8x4)
    v = np.sqrt(se2_8x8x4.degrees())
    v /= np.linalg.norm(v)
    assert np.linalg.norm(lap.matrix @ v) <= 1e-12
    dense = lap.matrix.toarray()
    vals = np.linalg.eigvalsh(dense)
    assert vals[0] >= -1e-12
    assert vals[-1] <= 2.0 + 1e-12


def test_laplacian_assembly(se2_8x8x4):
    """Exact symmetry, empty rows at isolated vertices, and the dense formula
    I - D^(-1/2) W D^(-1/2) on every vertex that has degree."""
    sampled = sample_vertices(se2_8x8x4, 0.3, seed=21)
    assert np.any(sampled.degrees() == 0.0)
    for g in (se2_8x8x4, sampled):
        mat = laplacian(g).matrix
        assert (mat - mat.T).nnz == 0
        deg = g.degrees()
        live = deg > 0.0
        assert np.all(np.diff(mat.indptr)[~live] == 0)
        w = g.adjacency().toarray()[np.ix_(live, live)]
        dense = np.eye(w.shape[0]) - w / np.sqrt(np.outer(deg[live], deg[live]))
        np.testing.assert_array_equal(mat.toarray()[np.ix_(live, live)], dense)


def test_laplacian_zero_degree(se2_8x8x4):
    """A vertex whose edges all weigh 0 has degree 0: its row and column are
    empty, not 0/0, and rows with positive degree keep the dense formula."""
    w = se2_8x8x4.weights
    g = dataclasses.replace(se2_8x8x4, weights=np.where(w >= np.quantile(w, 0.99), w, 0.0))
    deg = g.degrees()
    dead = deg == 0.0
    assert dead.sum() > 100 and np.all(np.diff(g.indptr)[dead] > 0)
    mat = laplacian(g).matrix
    assert np.all(np.isfinite(mat.data))
    assert np.all(np.diff(mat.indptr)[dead] == 0)
    assert mat[:, np.flatnonzero(dead)].nnz == 0
    live = ~dead
    a = g.adjacency().toarray()[np.ix_(live, live)]
    dense = np.eye(a.shape[0]) - a / np.sqrt(np.outer(deg[live], deg[live]))
    np.testing.assert_array_equal(mat.toarray()[np.ix_(live, live)], dense)


def test_power_iteration_matches_dense():
    g = built(GridKind.SE2_GRID, nx=3, ny=3, orient=2, epsilon=EPS_ANISO,
              alpha=1.0, knn=6)
    lap = power_lambda_max(laplacian(g), tol=1e-12)
    dense_max = np.linalg.eigvalsh(lap.matrix.toarray())[-1]
    assert lap.lambda_max == pytest.approx(dense_max, rel=1e-6)
    assert lap.power_converged
    assert 0.0 < lap.lambda_max <= 2.0


def test_power_iteration_single_edge():
    """One edge gives L = [[1, -1], [-1, 1]]: top eigenvalue exactly 2."""
    g = built(GridKind.R2_GRID, nx=2, ny=1, knn=1)
    lap = power_lambda_max(laplacian(g), tol=1e-12)
    assert lap.lambda_max == pytest.approx(2.0, abs=1e-9)


def test_power_iteration_edgeless():
    g = built(GridKind.R2_GRID, nx=1, ny=1)
    assert "clamped" in g.notes[0]
    lap = power_lambda_max(laplacian(g))
    assert lap.lambda_max == 2.0
    assert lap.power_converged


def test_power_iteration_cap(se2_8x8x4):
    with pytest.warns(UserWarning, match="did not converge"):
        lap = power_lambda_max(laplacian(se2_8x8x4), tol=0.0, max_iter=2)
    assert lap.lambda_max == 2.0
    assert not lap.power_converged
    assert any("upper bound" in n for n in lap.notes)


def test_rescale(se2_8x8x4_lap):
    # pin lambda_max to the dense value: the power default tol leaves it
    # short by ~3e-4, which would push the rescaled top past 1 by as much
    dense_max = float(np.linalg.eigvalsh(se2_8x8x4_lap.matrix.toarray())[-1])
    r = rescale(Laplacian(se2_8x8x4_lap.matrix, dense_max))
    assert r.rescaled
    vals = np.linalg.eigvalsh(r.matrix.toarray())
    assert vals[0] >= -1.0 - 1e-9
    assert vals[-1] <= 1.0 + 1e-9
    with pytest.raises(ValueError):
        rescale(r)
    with pytest.raises(ValueError):
        rescale(laplacian(built(GridKind.R2_GRID, nx=2, ny=2, knn=2)))


def test_fixed_lambda_max(se2_8x8x4):
    lap = fixed_lambda_max(laplacian(se2_8x8x4))
    assert lap.lambda_max == 2.0 and not lap.rescaled


def test_sample_edges_rate(se2_8x8x4):
    e = se2_8x8x4.n_edges
    for kappa in (0.5, 0.9):
        p = edge_keep_probabilities(se2_8x8x4, kappa)
        assert p.sum() == pytest.approx(kappa * e, abs=1e-6 * e)
        assert np.all(p <= 1.0) and np.all(p >= 0.0)
        sub = sample_edges(se2_8x8x4, kappa, seed=5)
        # binomial-style bound around the expected count
        sigma = np.sqrt(np.sum(p * (1 - p)))
        assert abs(sub.n_edges - kappa * e) <= 5 * sigma
    assert sample_edges(se2_8x8x4, 1.0, seed=0) is se2_8x8x4
    with pytest.raises(ValueError):
        sample_edges(se2_8x8x4, -0.1, seed=0)


def test_keep_probabilities_zero_weights(se2_8x8x4):
    """Zero weights are never kept; a target they put out of reach keeps
    every positive-weight edge, and the note reports the expected count."""
    w = se2_8x8x4.weights
    g = dataclasses.replace(se2_8x8x4, weights=np.where(w >= np.quantile(w, 0.9), w, 0.0))
    _, _, w_pairs, _ = g.edge_pairs()
    n_pos = int(np.count_nonzero(w_pairs))
    p = edge_keep_probabilities(g, 0.5)
    np.testing.assert_array_equal(p, (w_pairs > 0.0).astype(float))
    sub = sample_edges(g, 0.5, seed=0)
    assert sub.n_edges == n_pos
    assert f"(expected {n_pos:.1f}, c=inf)" in sub.notes[-1]
    p = edge_keep_probabilities(g, 0.05)
    assert p.sum() == pytest.approx(0.05 * w_pairs.size, rel=1e-12)
    assert np.all(p[w_pairs == 0.0] == 0.0) and np.all(p <= 1.0)
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            edge_keep_probabilities(se2_8x8x4, bad)


def test_sample_edges_weight_bias(se2_8x8x4):
    """Keep probability is monotone in the edge weight."""
    _, _, w, _ = se2_8x8x4.edge_pairs()
    p = edge_keep_probabilities(se2_8x8x4, 0.5)
    order = np.argsort(w)
    assert np.all(np.diff(p[order]) >= -1e-15)


def test_sample_edges_deterministic(se2_8x8x4):
    a = sample_edges(se2_8x8x4, 0.7, seed=11)
    b = sample_edges(se2_8x8x4, 0.7, seed=11)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.weights, b.weights)
    c = sample_edges(se2_8x8x4, 0.7, seed=12)
    assert a.n_edges != c.n_edges or not np.array_equal(a.indices, c.indices)


def test_sample_vertices(se2_8x8x4):
    sub = sample_vertices(se2_8x8x4, 0.5, seed=3)
    assert sub.n_vertices == 128
    assert sub.id_map.shape == (128,)
    assert np.all(np.diff(sub.id_map) > 0)
    # inherited bandwidth, induced edges only
    assert sub.bandwidth == se2_8x8x4.bandwidth
    i, j, w, _ = sub.edge_pairs()
    orig = {(a, b): ww for a, b, ww, _ in zip(*se2_8x8x4.edge_pairs())}
    for a, b, ww in zip(sub.id_map[i], sub.id_map[j], w):
        assert orig[(min(a, b), max(a, b))] == ww
    np.testing.assert_array_equal(sub.vertices.params,
                                  se2_8x8x4.vertices.params[sub.id_map])
    with pytest.raises(ValueError):
        sample_vertices(se2_8x8x4, 0.0, seed=0)
    with pytest.raises(ValueError):
        sample_vertices(se2_8x8x4, 1.5, seed=0)


def test_slice_fractions(se2_8x8x4, r2_16x16):
    from liegraph.graph import slice_neighbor_fractions

    in_frac, cross = slice_neighbor_fractions(se2_8x8x4)
    assert in_frac + cross == pytest.approx(1.0)
    assert in_frac > 0.0 and cross > 0.0
    in_frac, cross = slice_neighbor_fractions(r2_16x16)
    assert in_frac == 1.0 and cross == 0.0


def test_slice_fractions_vertex_sampled(se2_8x8x4):
    """Slices of a vertex-sampled graph come from the original ids, and agree
    with the orientation angle each kept vertex carries."""
    from liegraph.graph import slice_neighbor_fractions

    ns = se2_8x8x4.vertices.spec.n_spatial
    for seed in (3, 4):
        sub = sample_vertices(se2_8x8x4, 0.5, seed)
        i, j, _, _ = sub.edge_pairs()
        orig = sub.id_map
        expected = float(np.mean(orig[i] // ns == orig[j] // ns))
        assert slice_neighbor_fractions(sub) == pytest.approx((expected, 1.0 - expected))
        theta = sub.vertices.params[:, 2]
        _, by_angle = np.unique(theta, return_inverse=True)
        np.testing.assert_array_equal(sub.vertices.orientation_index(np.arange(len(orig))),
                                      by_angle)
    # without the kept-id map, as read from a file, the slices are unknown
    sub.vertices.kept = None
    with pytest.raises(ValueError):
        slice_neighbor_fractions(sub)
