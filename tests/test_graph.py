"""Graph construction tests: K-NN selection, weights, Laplacian, sampling."""

import dataclasses
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from liegraph import graph as graph_module
from liegraph import io
from liegraph.graph import (
    Laplacian,
    ManifoldGraph,
    _keep_probabilities,
    alpha_from_xi,
    build_graph,
    check_metric,
    default_knn,
    edge_weights,
    fixed_lambda_max,
    knn_pairs_bruteforce,
    laplacian,
    make_metric,
    power_lambda_max,
    rescale,
    sample_edges,
    sample_vertices,
    xi_from_alpha,
)
from liegraph.groups import GroupKind, Metric, so3_matrices, so3_quaternions
from liegraph.network import build_demo
from liegraph.sampling import GridKind, GridSpec, build_vertices, grid_se2

from conftest import EPS_ANISO, built
from oracles import power_lambda_max_loop, se2_pair_sq_three_branch, so3_pair_sq_matrix_log


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


def test_alpha_is_derived_from_xi(tmp_path, se2_8x8x4):
    """alpha is no field but the grid-relative form of xi: build_graph refuses
    any other value, and built, sampled and read graphs report that one."""
    verts, metric = se2_8x8x4.vertices, se2_8x8x4.metric
    derived = alpha_from_xi(metric.xi, verts.spec)
    assert "alpha" not in {f.name for f in dataclasses.fields(se2_8x8x4)}
    for bad in (7.5, float(np.nextafter(derived, np.inf))):
        with pytest.raises(ValueError, match=f"alpha {bad!r} contradicts xi"):
            build_graph(verts, metric, 16, alpha=bad)
    io.write_graph(tmp_path / "g.clgr", se2_8x8x4, power_lambda_max(laplacian(se2_8x8x4)))
    for g in (build_graph(verts, metric, 16, alpha=derived), sample_edges(se2_8x8x4, 0.5, seed=1),
              sample_vertices(se2_8x8x4, 0.5, seed=2), io.read_graph(tmp_path / "g.clgr")[0]):
        assert g.alpha == derived == pytest.approx(1.0)


def test_one_metric_check(r2_16x16, s2_level2):
    """make_metric and build_graph apply check_metric: r2 and s2 take exactly
    Metric(), by kind (an se2 grid with one slice keeps its anisotropy), and
    a xi whose alpha overflows or underflows is refused."""
    for g in (r2_16x16, s2_level2):
        for metric in (Metric(epsilon=0.5), Metric(xi=0.5)):
            with pytest.raises(ValueError, match="graphs use the isotropic metric"):
                build_graph(g.vertices, metric, 4)
    s2 = s2_level2.vertices.spec
    assert make_metric(s2, xi=1.0) == (Metric(), alpha_from_xi(1.0, s2))
    one_slice = grid_se2(4, 4, 1)
    metric, _ = make_metric(one_slice.spec, epsilon=EPS_ANISO, xi=0.3)
    assert build_graph(one_slice, metric, 4).metric == Metric(EPS_ANISO, 0.3)
    se2 = GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4)
    for xi, alpha in ((1e154, "inf"), (1e-170, "0.0")):   # xi^2 * 64 / 4
        with pytest.raises(ValueError, match=f"gives alpha {alpha}, which is not finite"):
            make_metric(se2, epsilon=EPS_ANISO, xi=xi)
        with pytest.raises(ValueError, match=f"gives alpha {alpha}, which is not finite"):
            build_graph(grid_se2(8, 8, 4), Metric(EPS_ANISO, xi), 4)


def test_check_metric_numpy_xi_overflow():
    """alpha_from_xi computes in Python floats, so a numpy float64 xi whose
    alpha overflows gets the ValueError, not an overflow RuntimeWarning
    (an error under the suite's filterwarnings)."""
    spec = GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2)
    with pytest.raises(ValueError, match="gives alpha inf, which is not finite"):
        check_metric(spec, Metric(0.5, np.float64(1e154)))


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
    """Edge set matches a per-pair oracle built from the three-branch distance."""
    verts = grid_se2(3, 3, 2)
    metric = Metric(epsilon=EPS_ANISO, xi=0.4)
    g = build_graph(verts, metric, 4)
    n = len(verts)
    d2 = se2_pair_sq_three_branch(verts.params[:, None], verts.params[None],
                                  metric.weights(GroupKind.SE2))
    np.fill_diagonal(d2, np.inf)
    expected = set()
    for a in range(n):
        kth = np.partition(d2[a], 3)[3]
        for b in np.nonzero(d2[a] <= kth * (1.0 + 1e-9))[0]:
            expected.add((min(a, b), max(a, b)))
    i, j, _, dist = g.edge_pairs()
    assert set(zip(i.tolist(), j.tolist())) == expected
    # cached distances agree with the oracle
    np.testing.assert_allclose(dist ** 2, [d2[a, b] for a, b in zip(i, j)],
                               rtol=1e-12)


# A scoring block this small sends every vertex set above 8 vertices through
# the tree search, in blocks of a few rows, as large sets go in production.
SMALL_BLOCK = 64


def set_blocks(monkeypatch, whole_set_pairs):
    """Score sets above whole_set_pairs pairs through the tree, in blocks no
    larger than that; the default threshold keeps the default sizes."""
    monkeypatch.setattr(graph_module, "WHOLE_SET_PAIRS", whole_set_pairs)
    monkeypatch.setattr(graph_module, "CANDIDATE_BLOCK",
                        min(whole_set_pairs, graph_module.CANDIDATE_BLOCK))


def assert_knn_exact(g):
    """The graph's edges and stored distances equal the brute-force reference's."""
    i, j, _, d = g.edge_pairs()
    kern = graph_module._kernel(g.vertices.spec, g.vertices.params, g.metric)
    bi, bj = knn_pairs_bruteforce(kern, g.knn)
    np.testing.assert_array_equal(i, bi)
    np.testing.assert_array_equal(j, bj)
    np.testing.assert_array_equal(d, np.sqrt(kern.fn(kern.data[bi], kern.data[bj], kern.w)))


def assert_small_set_blocked(g):
    """A vertex set of at most WHOLE_SET_PAIRS pairs is scored in row blocks:
    no kernel call scores more than max(CANDIDATE_BLOCK, n) pairs, and the
    pairs are brute force's."""
    kern = graph_module._kernel(g.vertices.spec, g.vertices.params, g.metric)
    n = len(kern.data)
    assert n * n <= graph_module.WHOLE_SET_PAIRS
    sizes = []

    def counted(a, b, w):
        out = kern.fn(a, b, w)
        sizes.append(out.size)
        return out

    got = graph_module.knn_pairs(kern._replace(fn=counted), g.knn)
    assert sizes and max(sizes) <= max(graph_module.CANDIDATE_BLOCK, n)
    for a, b in zip(got, knn_pairs_bruteforce(kern, g.knn)):
        assert a.tobytes() == b.tobytes()


def assert_pairs_exact(spec, params, metric, k, layout=None):
    """knn_pairs on the kernel of any points of spec's group, in the product
    layout `layout` if given, picks brute force's pairs, bytes included; K is
    clamped to |V| - 1 as build_graph clamps it."""
    kern = graph_module._kernel(spec, params, metric)
    k = min(k, len(params) - 1)
    got, want = graph_module.knn_pairs(kern, k, layout), knn_pairs_bruteforce(kern, k)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


LIBRARY_KERNEL = graph_module._kernel


def oracle_kernel(spec, params, metric):
    """The library's kernel with the oracles swapped in: all three SE(2)
    branches, and the trace log on SO(3) matrices."""
    kern = LIBRARY_KERNEL(spec, params, metric)
    if spec.group_kind is GroupKind.SE2:
        return kern._replace(fn=se2_pair_sq_three_branch)
    if spec.kind is GridKind.SO3_ICOSAHEDRAL:
        return kern._replace(data=so3_matrices(params), fn=so3_pair_sq_matrix_log)
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


@pytest.mark.parametrize("whole_set_pairs", [graph_module.WHOLE_SET_PAIRS, SMALL_BLOCK])
@pytest.mark.parametrize("name", ["se2_8x8x4", "se2_16x16x6", "r2_16x16", "s2_level2"])
def test_knn_tree_matches_bruteforce(name, whole_set_pairs, request, monkeypatch):
    g = request.getfixturevalue(name)
    set_blocks(monkeypatch, whole_set_pairs)
    graphs = [build_graph(g.vertices, g.metric, g.knn),
              built(GridKind.R2_GRID, nx=3, ny=3, knn=2)]
    clamped = built(GridKind.R2_GRID, nx=3, ny=3, knn=24)
    assert clamped.knn == 8
    graphs.append(clamped)
    # vertex-sampled subsets are non-grid vertex sets
    for kappa, seed in ((0.5, 1), (0.2, 2)):
        graphs.append(build_graph(sample_vertices(g, kappa, seed).vertices, g.metric, g.knn))
    for h in graphs:
        assert_knn_exact(h)
        if h.n_vertices ** 2 <= whole_set_pairs:
            assert_small_set_blocked(h)


def test_knn_tree_near_duplicates(monkeypatch):
    """Sphere points 1e-8 rad apart and exact duplicates are still found."""
    set_blocks(monkeypatch, SMALL_BLOCK)
    spec = GridSpec(GridKind.S2_ICOSAHEDRAL, level=1)
    params = build_vertices(spec).params
    rng = np.random.Generator(np.random.Philox(70))
    # colatitude offsets: each copy sits that many radians from its original
    shift = np.stack([np.zeros(20), rng.choice([0.0, 1e-12, 1e-8, 3e-8], 20), np.zeros(20)],
                     axis=1)
    near = np.concatenate([params, params[:20] + shift])
    for k in (1, 3, 8):
        assert_pairs_exact(spec, near, Metric(), k)


@pytest.mark.parametrize("whole_set_pairs", [graph_module.WHOLE_SET_PAIRS, SMALL_BLOCK])
def test_knn_settles_fitting_rows_in_first_pass(whole_set_pairs, monkeypatch):
    """On se2 16x16x2 at K=4 and epsilon=1, in shuffled vertex order (passed
    without a product layout, so the general search runs), most balls fit
    inside the first query's 2(K + 1) nearest points and a few do not: only
    those few are ball-counted, and the pairs still equal brute force's."""
    set_blocks(monkeypatch, whole_set_pairs)
    counted = []

    class Tree(scipy.spatial.cKDTree):
        def query_ball_point(self, x, r, **kwargs):
            counted.append(len(x))
            return super().query_ball_point(x, r, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", Tree)
    spec = GridSpec(GridKind.SE2_GRID, nx=16, ny=16, n_orient=2)
    order = np.random.Generator(np.random.Philox(5)).permutation(spec.n_vertices)
    metric = make_metric(spec, alpha=1.0)[0]
    assert_pairs_exact(spec, build_vertices(spec).params[order], metric, 4)
    assert len(counted) == 1 and 0 < counted[0] < spec.n_vertices // 10


def spy_product_path(monkeypatch):
    """Record each search knn_pairs runs past the whole-set size with its
    thread pool: ("product", points, slices) for the product-layout search,
    ("tree", vertices) for the general one."""
    runs = []
    product, tree = graph_module._product_knn_pairs, graph_module._tree_knn_pairs

    def spy_product(prod, kern, k, pool, workers):
        runs.append((("product", len(prod.points), prod.floor.shape[0]), pool))
        return product(prod, kern, k, pool, workers)

    def spy_tree(kern, k, pool, workers):
        runs.append((("tree", len(kern.data)), pool))
        return tree(kern, k, pool, workers)

    monkeypatch.setattr(graph_module, "_product_knn_pairs", spy_product)
    monkeypatch.setattr(graph_module, "_tree_knn_pairs", spy_tree)
    return runs


def product_runs(runs):
    return [(path, pool) for path, pool in runs if path[0] == "product"]


# se2 grids with nx != ny, over 362 vertices so that the default block sizes
# search them too, and metric settings (epsilon^2, alpha, K) covering each of
# epsilon^2 in {0.01, 0.1, 1}, alpha in {0.1, 1, 100} and K in {1, 4, 16}.
PRODUCT_GRIDS = {2: (16, 13), 3: (13, 11), 6: (9, 7), 8: (8, 6)}
PRODUCT_METRICS = [(0.01, 0.1, 16), (0.1, 1.0, 4), (1.0, 100.0, 1), (0.1, 100.0, 16),
                   (0.01, 1.0, 1), (1.0, 0.1, 4)]


@pytest.mark.parametrize("whole_set_pairs", [graph_module.WHOLE_SET_PAIRS, SMALL_BLOCK])
@pytest.mark.parametrize("n_orient", sorted(PRODUCT_GRIDS))
def test_knn_product_layout_matches_bruteforce(n_orient, whole_set_pairs, monkeypatch):
    """Grids take the product-layout search and their vertex-sampled subsets
    the general one; both give brute force's edges and distances, bytes
    included."""
    set_blocks(monkeypatch, whole_set_pairs)
    runs = spy_product_path(monkeypatch)
    nx, ny = PRODUCT_GRIDS[n_orient]
    spec = GridSpec(GridKind.SE2_GRID, nx=nx, ny=ny, n_orient=n_orient)
    verts = build_vertices(spec)
    searched = 0
    for eps2, alpha, k in PRODUCT_METRICS:
        metric, _ = make_metric(spec, epsilon=float(np.sqrt(eps2)), alpha=alpha)
        g = build_graph(verts, metric, k)
        subsets = [sample_vertices(g, kappa, seed).vertices
                   for kappa, seed in ((0.5, 1), (0.2, 2)) if k == 16]
        for sub in subsets:
            assert_knn_exact(build_graph(sub, metric, k))
        assert_knn_exact(g)
        searched += len(verts) ** 2 > whole_set_pairs
    assert len(product_runs(runs)) == searched > 0


@st.composite
def product_sets(draw):
    """SE(2) point sets in a product layout (xy, theta), returned with it, or
    a random subset of one, returned without: spatial points on a lattice
    (repeats allowed) and slice angles on multiples of pi/8, so that many
    distances tie exactly."""
    nx, ny, n_orient = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(2, 6))
    spec = GridSpec(GridKind.SE2_GRID, nx=nx, ny=ny, n_orient=n_orient)
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2 ** 32 - 1))))
    step = draw(st.sampled_from([0.25, 1.0 / 3.0, 1.0]))
    xy = rng.integers(-3, 4, (spec.n_spatial, 2)) * step
    theta = rng.integers(-8, 8, n_orient) * (np.pi / 8.0)
    params = np.column_stack([np.tile(xy, (n_orient, 1)), np.repeat(theta, spec.n_spatial)])
    layout = (xy, theta)
    if draw(st.booleans()):
        kept = np.flatnonzero(rng.random(spec.n_vertices) < draw(st.sampled_from([0.3, 0.7])))
        if kept.size < 2:
            kept = np.arange(2)
        params, layout = params[kept], None
    metric, _ = make_metric(spec, epsilon=float(np.sqrt(draw(st.sampled_from([0.01, 0.1, 1.0])))),
                            alpha=draw(st.sampled_from([0.1, 1.0, 100.0])))
    return spec, params, layout, metric, draw(st.integers(1, 24))


@settings(max_examples=120, deadline=None)
@given(product_sets())
def test_knn_product_layout_matches_bruteforce_random(case):
    """Exact equality on random product-layout sets: full ones take the
    product-layout search once they are past the whole-set size, and
    subsets the general search."""
    spec, params, layout, metric, knn = case
    with (mock.patch.object(graph_module, "CANDIDATE_BLOCK", SMALL_BLOCK),
          mock.patch.object(graph_module, "WHOLE_SET_PAIRS", SMALL_BLOCK),
          mock.patch.object(graph_module, "_product_knn_pairs",
                            wraps=graph_module._product_knn_pairs) as product):
        assert_pairs_exact(spec, params, metric, knn, layout)
    assert product.call_count == (layout is not None and len(params) ** 2 > SMALL_BLOCK)


def test_knn_product_layout_gate(monkeypatch):
    """A subset keeping half the vertices is no full lift, points with one
    slice angle off by 1e-12 at one vertex are passed without a layout, and
    s2 has a single slice: the general search runs on each and still equals
    brute force, while the full se2 grid and so3 lift take the product
    layout."""
    set_blocks(monkeypatch, SMALL_BLOCK)
    runs = spy_product_path(monkeypatch)
    for spec in (GridSpec(GridKind.SE2_GRID, nx=9, ny=7, n_orient=6),
                 GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=6)):
        grid = build_vertices(spec)
        params = grid.params.copy()
        params[100, 2 if spec.group_kind is GroupKind.SE2 else 0] += 1e-12
        metric, _ = make_metric(spec, epsilon=EPS_ANISO, alpha=1.0)
        g = build_graph(grid, metric, 16)
        assert_knn_exact(g)
        half = sample_vertices(g, 0.5, 1).vertices
        assert graph_module._product_layout(grid) is not None
        assert graph_module._product_layout(half) is None
        assert_pairs_exact(spec, params, metric, 16)
        assert_knn_exact(build_graph(half, metric, 16))
    s2 = build_vertices(GridSpec(GridKind.S2_ICOSAHEDRAL, level=2))
    assert graph_module._product_layout(s2) is None
    assert_knn_exact(build_graph(s2, Metric(), 8))
    assert [path for path, _ in runs] == [("product", 63, 6), ("tree", 378), ("tree", 189),
                                          ("product", 42, 6), ("tree", 252), ("tree", 126),
                                          ("tree", 162)]


# Kernel pairs the product-layout search may score per row beyond those the
# K-nearest rule selects (K plus the ties at the K-th distance).
SCORED_MARGIN = 2


@pytest.mark.parametrize("alpha", [1.0, 100.0])
def test_knn_product_layout_scores_few_pairs(alpha):
    """On se2 16x16x6 at epsilon^2 = 0.1 the search scores each row's
    selected vertices and at most SCORED_MARGIN more with the kernel."""
    spec = GridSpec(GridKind.SE2_GRID, nx=16, ny=16, n_orient=6)
    verts = build_vertices(spec)
    metric, _ = make_metric(spec, epsilon=EPS_ANISO, alpha=alpha)
    kern = graph_module._kernel(spec, verts.params, metric)
    n, k = len(verts), 16
    scored = np.zeros(n, dtype=np.int64)

    def row_ids(p):
        ix, iy = np.rint(p[..., 0] * 16).astype(int), np.rint(p[..., 1] * 16).astype(int)
        slice_ = np.rint((p[..., 2] + np.pi / 2) * 6 / np.pi).astype(int)
        return slice_ * 256 + iy * 16 + ix

    def counting(a, b, w):
        rows = row_ids(np.broadcast_to(a, np.broadcast_shapes(a.shape, b.shape)))
        scored[:] += np.bincount(rows.ravel(), minlength=n)
        return kern.fn(a, b, w)

    np.testing.assert_array_equal(row_ids(verts.params), np.arange(n))
    pairs = graph_module.knn_pairs(kern._replace(fn=counting), k,
                                   graph_module._product_layout(verts))
    # knn_pairs_bruteforce's picks, row by row
    picks = [graph_module._picks(kern, rows, k) for rows in np.array_split(np.arange(n), 6)]
    np.testing.assert_array_equal(pairs, graph_module._unique_pairs(n, picks))
    selected = np.bincount(np.concatenate([rows for rows, _ in picks]), minlength=n)
    assert np.all(scored >= selected)
    assert np.all(scored <= selected + SCORED_MARGIN)


def quat_mul(a, b):
    """Hamilton products of quaternion arrays (..., 4), (w, x, y, z) order."""
    a0, a1, a2, a3 = np.moveaxis(a, -1, 0)
    b0, b1, b2, b3 = np.moveaxis(b, -1, 0)
    return np.stack([a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3, a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                     a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3, a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1],
                    axis=-1)


def z_rotations(angles):
    """Unit quaternions of R_z(angle)."""
    zero = np.zeros_like(angles)
    return np.stack([np.cos(0.5 * angles), zero, zero, np.sin(0.5 * angles)], axis=-1)


# The bound, in ulps of 1 per component, on how far the kernel's quaternion
# of an so3 vertex lies from the product form the SO(3) brackets assume
# (the knn_pairs docstring); 1.5 ulps is the largest seen.
QUAT_ULPS = 4


@pytest.mark.parametrize("level", range(5))
def test_so3_vertex_quaternions_factor(level):
    """Vertex a m + p of an so3 lift has the frame G_p R_z(theta_a): the
    kernel's Shepperd quaternion of each vertex is +-(q_p z_a) for the
    closed-form q_p = R_z(gamma) R_y(beta) and z_a = R_z(theta_a), and
    +-(points[p] R_z(theta_a - theta_0)) for the product layout's slice-0
    quaternions, within QUAT_ULPS ulps of 1 per component."""
    for n_orient in range(1, 9):
        spec = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=level, n_orient=n_orient)
        verts = build_vertices(spec)
        q = graph_module._kernel(spec, verts.params, make_metric(spec)[0]).data
        alpha, beta, gamma = verts.params.T
        tilt = np.stack([np.cos(0.5 * beta), np.zeros_like(beta), np.sin(0.5 * beta),
                         np.zeros_like(beta)], axis=-1)                         # R_y(beta)
        closed = quat_mul(quat_mul(z_rotations(gamma), tilt), z_rotations(alpha))
        m, theta = spec.n_spatial, verts.params[::spec.n_spatial, 0]
        base = so3_quaternions(so3_matrices(verts.params[:m]))
        if spec.lifted:
            layout = graph_module._product_layout(verts)
            assert layout[0].tobytes() == base.tobytes() and layout[1].tobytes() == theta.tobytes()
        product = quat_mul(base[None], z_rotations(theta - theta[0])[:, None]).reshape(-1, 4)
        for want in (closed, product):
            err = np.minimum(np.abs(q - want).max(axis=1), np.abs(q + want).max(axis=1))
            assert err.max() <= QUAT_ULPS * 2.0 ** -52, (n_orient, err.max())


@pytest.mark.parametrize("alpha", [0.1, 1.0, 100.0])
def test_so3_brackets_hold(alpha):
    """On every pair of so3 level 1 x 6 the product layout's lower and
    upper brackets enclose the kernel's squared distance, and the slack
    leaves the lower one positive on every pair of distinct vertices."""
    spec = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=6)
    verts = build_vertices(spec)
    kern = graph_module._kernel(spec, verts.params, make_metric(spec, EPS_ANISO, alpha)[0])
    prod = graph_module._so3_product(kern, *graph_module._product_layout(verts))
    m, n_slices = spec.n_spatial, spec.n_orient
    t = prod.terms(*np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))
    lower = graph_module._bracket(t, prod.lower)                          # [p, q, a, b]
    upper = graph_module._bracket(t, prod.upper)
    d2 = kern.fn(kern.data[:, None], kern.data[None], kern.w)
    d2 = d2.reshape(n_slices, m, n_slices, m).transpose(1, 3, 0, 2)
    assert np.all(lower <= d2) and np.all(d2 <= upper)
    assert np.all((lower > 0.0) == (d2 > 0.0))


# so3 lifts and the (alpha, K) settings they are searched at: level 1 with
# every n_orient from 2 to 8 at all nine settings, level 2 x 3 at three that
# take each alpha and each K once, and the largest lifts at the two extremes.
SO3_SETTINGS = [(alpha, k) for alpha in (0.1, 1.0, 100.0) for k in (1, 4, 16)]
SO3_LIFTS = {**{(1, n): SO3_SETTINGS for n in range(2, 9)}, (2, 3): SO3_SETTINGS[::4],
             **{lift: SO3_SETTINGS[::8] for lift in ((2, 8), (3, 2))}}


@pytest.mark.parametrize("level, n_orient", sorted(SO3_LIFTS))
def test_knn_so3_product_layout_matches_bruteforce(level, n_orient, monkeypatch):
    """Full so3 lifts take the product-layout search at epsilon^2 = 0.1 and
    give brute force's edges and distances, bytes included."""
    set_blocks(monkeypatch, SMALL_BLOCK)
    runs = spy_product_path(monkeypatch)
    spec = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=level, n_orient=n_orient)
    verts, cases = build_vertices(spec), SO3_LIFTS[level, n_orient]
    for alpha, k in cases:
        assert_knn_exact(build_graph(verts, make_metric(spec, EPS_ANISO, alpha)[0], k))
    assert [path for path, _ in runs] == [("product", spec.n_spatial, n_orient)] * len(cases)


@st.composite
def so3_product_sets(draw):
    """SO(3) point sets in a product layout (slice-0 quaternions, theta),
    returned with it, or a random subset of one, returned without: sphere
    and slice angles on multiples of pi/8 (poles and repeats allowed), so
    that many distances tie exactly."""
    m, n_orient = draw(st.integers(1, 12)), draw(st.integers(2, 6))
    spec = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=n_orient)
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2 ** 32 - 1))))
    beta, gamma = rng.integers(0, 9, m) * (np.pi / 8.0), rng.integers(-8, 8, m) * (np.pi / 8.0)
    theta = rng.integers(-8, 8, n_orient) * (np.pi / 8.0)
    params = np.column_stack([np.repeat(theta, m), np.tile(beta, n_orient),
                              np.tile(gamma, n_orient)])
    layout = (so3_quaternions(so3_matrices(params[:m])), theta)
    if draw(st.booleans()):
        kept = np.flatnonzero(rng.random(len(params)) < draw(st.sampled_from([0.3, 0.7])))
        params, layout = params[kept if kept.size >= 2 else np.arange(2)], None
    metric, _ = make_metric(spec, epsilon=float(np.sqrt(draw(st.sampled_from([0.01, 0.1, 1.0])))),
                            alpha=draw(st.sampled_from([0.1, 1.0, 100.0])))
    return spec, params, layout, metric, draw(st.integers(1, 24))


@settings(max_examples=120, deadline=None)
@given(so3_product_sets())
def test_knn_so3_product_layout_matches_bruteforce_random(case):
    """Exact equality on random SO(3) product-layout sets: full ones take the
    product-layout search once they are past the whole-set size, and
    subsets the general search."""
    spec, params, layout, metric, knn = case
    with (mock.patch.object(graph_module, "CANDIDATE_BLOCK", SMALL_BLOCK),
          mock.patch.object(graph_module, "WHOLE_SET_PAIRS", SMALL_BLOCK),
          mock.patch.object(graph_module, "_product_knn_pairs",
                            wraps=graph_module._product_knn_pairs) as product):
        assert_pairs_exact(spec, params, metric, knn, layout)
    assert product.call_count == (layout is not None and len(params) ** 2 > SMALL_BLOCK)


# Kernel pairs the SO(3) product-layout search may score per row beyond
# those the K-nearest rule selects, at most and on average (measured on
# so3 level 2 x 6: at most 23 and 20, on average 9.4 and 5.8, at alpha 1
# and 100).
SO3_SCORED_MARGIN = 24
SO3_SCORED_MEAN_MARGIN = 10


@pytest.mark.parametrize("alpha", [1.0, 100.0])
def test_knn_so3_product_layout_scores_few_pairs(alpha):
    """On so3 level 2 x 6 at epsilon^2 = 0.1 the search scores each row's
    selected vertices and at most SO3_SCORED_MARGIN more with the kernel
    (the general search scored about 113 per row on level 3 x 6)."""
    spec = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=2, n_orient=6)
    verts = build_vertices(spec)
    kern = graph_module._kernel(spec, verts.params, make_metric(spec, EPS_ANISO, alpha)[0])
    n, k = len(verts), 16
    scored = np.zeros(n, dtype=np.int64)

    def counting(a, b, w):
        # The fifth column carries the row's vertex id.
        rows = np.broadcast_to(a[..., 4], np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        scored[:] += np.bincount(rows.ravel().astype(np.int64), minlength=n)
        return kern.fn(a[..., :4], b[..., :4], w)

    tagged = kern._replace(data=np.column_stack([kern.data, np.arange(n)]), fn=counting)
    pairs = graph_module.knn_pairs(tagged, k, graph_module._product_layout(verts))
    # knn_pairs_bruteforce's picks, row by row
    picks = [graph_module._picks(kern, rows, k) for rows in np.array_split(np.arange(n), 6)]
    np.testing.assert_array_equal(pairs, graph_module._unique_pairs(n, picks))
    selected = np.bincount(np.concatenate([rows for rows, _ in picks]), minlength=n)
    assert np.all(scored >= selected)
    assert np.all(scored <= selected + SO3_SCORED_MARGIN)
    assert scored.mean() <= selected.mean() + SO3_SCORED_MEAN_MARGIN


@st.composite
def vertex_sets(draw):
    """Non-grid SE(2), SO(3) or sphere point sets with duplicate and
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
    else:
        spec = (GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=4) if kind == "so3"
                else GridSpec(GridKind.S2_ICOSAHEDRAL, level=1))
        params[:, 1] = np.clip(params[:, 1], 0.0, np.pi)
    if kind == "s2":
        return spec, params, Metric(), knn
    metric, _ = make_metric(spec, epsilon=draw(st.sampled_from([np.sqrt(0.1), 1.0])),
                            alpha=draw(st.sampled_from([0.1, 1.0, 100.0])))
    return spec, params, metric, knn


@settings(max_examples=120, deadline=None)
@given(vertex_sets())
def test_knn_tree_matches_bruteforce_random(case):
    """Exact equality on random sets, K clamped to |V| - 1 included."""
    spec, params, metric, knn = case
    with (mock.patch.object(graph_module, "CANDIDATE_BLOCK", SMALL_BLOCK),
          mock.patch.object(graph_module, "WHOLE_SET_PAIRS", SMALL_BLOCK)):
        assert_pairs_exact(spec, params, metric, knn)


@pytest.mark.parametrize("whole_set_pairs", [graph_module.WHOLE_SET_PAIRS, SMALL_BLOCK])
def test_knn_same_graph_for_any_worker_count(whole_set_pairs, se2_16x16x6, s2_level2,
                                             monkeypatch):
    """One worker and three, more than this machine may have, build
    byte-identical graphs, with threads switching as often as they can."""
    set_blocks(monkeypatch, whole_set_pairs)
    pools = []

    def pool(workers):
        pools.append((workers, ThreadPoolExecutor(workers)))
        return pools[-1][1]

    monkeypatch.setattr(graph_module, "ThreadPoolExecutor", pool)
    runs = spy_product_path(monkeypatch)
    sub = sample_vertices(se2_16x16x6, 0.5, 1).vertices
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for verts, g in ((se2_16x16x6.vertices, se2_16x16x6), (s2_level2.vertices, s2_level2),
                         (sub, se2_16x16x6)):
            built_by = []
            for workers in (1, 3):
                monkeypatch.setattr(graph_module.os, "sched_getaffinity",
                                    lambda pid, n=workers: set(range(n)))
                built_by.append(build_graph(verts, g.metric, g.knn))
            for attr in GRAPH_ARRAYS:
                assert getattr(built_by[0], attr).tobytes() == getattr(built_by[1], attr).tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert {workers for workers, _ in pools} == {1, 3}
    # se2 16x16x6 ran the product-layout search in pools of one worker and of
    # three; s2 and the half subset ran the general one.
    workers_of = {id(executor): workers for workers, executor in pools}
    assert [workers_of[id(pool)] for _, pool in product_runs(runs)] == [1, 3]


def test_knn_without_sched_getaffinity(se2_16x16x6, so3_level2x6, monkeypatch):
    """Where os has no sched_getaffinity (macOS, Windows), the search runs on
    os.cpu_count() workers and builds the same graphs."""
    monkeypatch.delattr(graph_module.os, "sched_getaffinity")
    counted = []
    monkeypatch.setattr(graph_module.os, "cpu_count", lambda: counted.append(2) or 2)
    for g in (se2_16x16x6, so3_level2x6):
        again = build_graph(g.vertices, g.metric, g.knn)
        for attr in GRAPH_ARRAYS:
            assert getattr(again, attr).tobytes() == getattr(g, attr).tobytes()
    assert counted == [2, 2]


def lexsort_csr(n, i, j, *values):
    """The mirrored CSR of pairs (i, j) by a lexsort of both orientations on
    (row, col): the oracle of ManifoldGraph's mirror."""
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((cols, rows))
    return (np.searchsorted(rows[order], np.arange(n + 1)), cols[order],
            *(np.concatenate([v, v])[order] for v in values))


def assert_bits_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("size", [0, 1, 500])
def test_pair_assembly_matches_unique_and_lexsort(size):
    """_unique_pairs equals np.unique over the packed pairs, on inputs with
    repeated pairs, both orientations of a pair, and empty input.  _mirror
    of those sorted unique pairs (self pairs dropped) gives lexsort_csr's
    arrays bit for bit: on one vertex, with no edges, and with isolated
    vertices inside and at the end of the id range (n = 90, even ids only)."""
    rng = np.random.Generator(np.random.Philox(size))
    for n, spread in ((1, 1), (40, 1), (90, 2)):
        i, j = spread * rng.integers(0, min(n, 40), (2, size))
        picks = [(i[:size // 2], j[:size // 2]), (j[size // 2:], i[size // 2:]), (i[:7], j[:7])]
        lo_id, hi_id = graph_module._unique_pairs(n, picks)
        packed = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
        np.testing.assert_array_equal(lo_id, packed // n)
        np.testing.assert_array_equal(hi_id, packed % n)
        assert lo_id.dtype == hi_id.dtype == np.int64

        upper = lo_id < hi_id
        lo_id, hi_id = lo_id[upper], hi_id[upper]
        values = rng.standard_normal(lo_id.size)
        assert_bits_equal(graph_module._mirror(n, lo_id, hi_id, values, -values),
                          lexsort_csr(n, lo_id, hi_id, values, -values))


def test_every_construction_mirrors_as_lexsort(tmp_path, se2_8x8x4, se2_16x16x6,
                                               so3_level2x6):
    """Whatever made a graph, its CSR arrays are lexsort_csr of its own pairs,
    bit for bit, with weights edge_weights of the distances; edge_pairs()
    gives the same weights as the CSR's upper entries."""
    assert se2_8x8x4.n_vertices ** 2 <= graph_module.WHOLE_SET_PAIRS
    assert graph_module._product_layout(se2_16x16x6.vertices) is not None
    assert graph_module._product_layout(so3_level2x6.vertices) is not None
    edges = sample_edges(se2_16x16x6, 0.5, seed=2)
    verts = sample_vertices(se2_16x16x6, 0.5, seed=3)
    tree = build_graph(verts.vertices, verts.metric, verts.knn)
    path = tmp_path / "g.clgr"
    io.write_graph(path, verts, power_lambda_max(laplacian(verts)))
    back, _ = io.read_graph(path)
    # product-layout, tree and whole-set build_graph, both samplers, and a read
    for g in (se2_16x16x6, so3_level2x6, tree, se2_8x8x4, edges, verts, back):
        i, j, w, d = g.edge_pairs()
        assert np.all(i < j) and np.all(np.diff(i * g.n_vertices + j) > 0)
        assert_bits_equal((g.indptr, g.indices, g.distances, g.weights),
                          lexsort_csr(g.n_vertices, i, j, d, edge_weights(d, g.bandwidth)))
        rows = np.repeat(np.arange(g.n_vertices), np.diff(g.indptr))
        assert g.weights[rows < g.indices].tobytes() == w.tobytes()


def test_graph_equals_only_itself(se2_8x8x4):
    """Graph equality is identity: a rebuilt graph is another object, and
    comparing or hashing either raises nothing."""
    again = build_graph(se2_8x8x4.vertices, se2_8x8x4.metric, se2_8x8x4.knn)
    assert again.vertices == se2_8x8x4.vertices
    assert se2_8x8x4 == se2_8x8x4 and again != se2_8x8x4
    assert len({se2_8x8x4, again, se2_8x8x4}) == 2


def test_graph_arrays_are_derived(se2_8x8x4):
    """The CSR arrays and weights are derived from the pairs and cannot be
    passed in; replace() rebuilds them from the new pairs."""
    g = se2_8x8x4
    for name in ("indptr", "indices", "distances", "weights"):
        with pytest.raises(TypeError):
            ManifoldGraph(g.vertices, g.metric, g.knn, g.bandwidth, g.edge_i, g.edge_j,
                          g.edge_distances, **{name: getattr(g, name)})
        with pytest.raises(ValueError):
            dataclasses.replace(g, **{name: getattr(g, name)})
    half = dataclasses.replace(g, edge_i=g.edge_i[::2], edge_j=g.edge_j[::2],
                               edge_distances=g.edge_distances[::2])
    assert half.n_edges == half.indices.size // 2 == (g.n_edges + 1) // 2


def test_graph_refuses_pairs_a_file_cannot_hold(tmp_path):
    """A graph's pairs obey read_graph's rules, 0 <= i < j < n strictly
    ascending by (i, j), or it is not made: on se2 4x4x2, swapped ends, a
    duplicated pair, reversed order, a column past n and a negative row all
    fail at construction, so write_graph never writes a file that
    read_graph refuses.  The valid pairs write and read back."""
    g = built(GridKind.SE2_GRID, nx=4, ny=4, orient=2, knn=6)
    i, j, d = g.edge_i, g.edge_j, g.edge_distances
    dup = np.insert(np.arange(i.size), 3, 3)
    past, negative = j.copy(), i.copy()
    past[-1], negative[0] = g.n_vertices, -1
    for bad in ((j, i, d), (i[dup], j[dup], d[dup]), (i[::-1], j[::-1], d[::-1]), (i, past, d),
                (negative, j, d)):
        with pytest.raises(ValueError, match="edge pairs are not 0 <= i < j < n"):
            dataclasses.replace(g, edge_i=bad[0], edge_j=bad[1], edge_distances=bad[2])
    io.write_graph(tmp_path / "g.clgr", g, power_lambda_max(laplacian(g)))
    assert io.read_graph(tmp_path / "g.clgr")[0].edge_j.tobytes() == j.tobytes()


def test_demo_graphs_skip_the_tree():
    """Importing liegraph loads none of scipy.spatial, scipy.special or
    scipy.sparse.csgraph, and build_demo's graphs are scored as whole sets,
    so a training run never pays those imports either."""
    src = str(Path(graph_module.__file__).resolve().parents[1])
    code = ("import sys; import liegraph; from liegraph.network import train_demo\n"
            "lazy = ('scipy.spatial', 'scipy.special', 'scipy.sparse.csgraph')\n"
            "print([m for m in lazy if m in sys.modules])\n"
            "train_demo(epochs=1, lr=0.2)\n"
            "print([m for m in lazy if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n[]\n"


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


def far_apart(g, q):
    """g with every edge outside the top q quantile of weights moved 1e10
    away, so its weight exp(-d^2 / 4t) underflows to exactly 0."""
    _, _, w, d = g.edge_pairs()
    return dataclasses.replace(g, edge_distances=np.where(w >= np.quantile(w, q), d, 1e10))


def test_laplacian_zero_degree(se2_8x8x4):
    """A vertex whose edges all weigh 0 has degree 0: its row and column are
    empty, not 0/0, and rows with positive degree keep the dense formula."""
    g = far_apart(se2_8x8x4, 0.99)
    assert np.all((g.weights == 0.0) | (g.weights == se2_8x8x4.weights))
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


class CountingCSR(sp.csr_matrix):
    """A CSR matrix that counts its products with vectors."""

    products = 0

    def __matmul__(self, other):
        CountingCSR.products += 1
        return super().__matmul__(other)


@pytest.mark.parametrize("name", ["se2_8x8x4", "se2_16x16x6", "r2_16x16", "s2_level2",
                                  "so3_level2x6"])
def test_lambda_max_estimate_near_dense(name, request):
    """The Lanczos estimate lies within 5e-4 of the dense top eigenvalue, and
    at most 2, for seeds 0-9."""
    lap = laplacian(request.getfixturevalue(name))
    top = float(np.linalg.eigvalsh(lap.matrix.toarray())[-1])
    for seed in range(10):
        est = power_lambda_max(lap, seed=seed).lambda_max
        assert abs(est / top - 1.0) <= 5e-4, seed
        assert est <= 2.0


def test_lambda_max_matrix_products(se2_16x16x6):
    """At the default tolerance the estimate takes at most 200 products with
    the Laplacian on se2 16x16x6, for seeds 0-9."""
    lap = Laplacian(CountingCSR(laplacian(se2_16x16x6).matrix))
    for seed in range(10):
        CountingCSR.products = 0
        power_lambda_max(lap, seed=seed)
        assert 0 < CountingCSR.products <= 200, seed


def test_lambda_max_zero_beta_step():
    """A Laplacian of stored zeros (every weight underflowed) ends the run at
    its first step with beta = 0: no warning, and the estimate stays in (0, 2]."""
    zeros = sp.csr_matrix((np.zeros(3), np.arange(3), np.arange(4)), shape=(3, 3))
    assert zeros.nnz == 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = power_lambda_max(Laplacian(zeros)).lambda_max
    assert 0.0 < lam <= 2.0


def test_power_iteration_cap(se2_8x8x4):
    with pytest.warns(UserWarning, match="did not converge"):
        lap = power_lambda_max(laplacian(se2_8x8x4), tol=0.0, max_iter=2)
    assert lap.lambda_max == 2.0


@pytest.fixture(scope="module")
def build_case_laps():
    """Laplacians of the benchmark's three build cases: se2 32x32x6, so3
    level 3x6 and s2 level 4."""
    return [laplacian(g) for g in (
        built(GridKind.SE2_GRID, nx=32, ny=32, orient=6, epsilon=EPS_ANISO, alpha=1.0, knn=16),
        built(GridKind.SO3_ICOSAHEDRAL, level=3, orient=6, epsilon=EPS_ANISO, alpha=1.0),
        built(GridKind.S2_ICOSAHEDRAL, level=4))]


def test_lambda_max_matches_loop_oracle(r2_16x16, build_case_laps):
    """The estimate has the list-built loop's bits for seeds 0-99 on r2 16x16
    (whose top is near-degenerate) and on the three build cases, and the same
    cap warning and 2.0, and the same 2.0 without edges."""
    for lap in [laplacian(r2_16x16)] + build_case_laps:
        for seed in range(100):
            got = power_lambda_max(lap, seed=seed).lambda_max
            assert got.hex() == power_lambda_max_loop(lap.matrix, seed=seed).hex(), seed
    lap = laplacian(r2_16x16)
    for fn in (lambda: power_lambda_max(lap, tol=0.0, max_iter=7).lambda_max,
               lambda: power_lambda_max_loop(lap.matrix, tol=0.0, max_iter=7)):
        with pytest.warns(UserWarning, match="^Lanczos did not converge within the cap"):
            assert fn() == 2.0
    edgeless = laplacian(built(GridKind.R2_GRID, nx=1, ny=1))
    assert power_lambda_max(edgeless).lambda_max == power_lambda_max_loop(edgeless.matrix) == 2.0


def test_rescale(se2_8x8x4_lap):
    # pin lambda_max to the dense value: the Lanczos estimate carries no
    # certificate, and one that lands below the top (3.6e-4 low on r2 16x16
    # at seed 6) pushes the rescaled top past 1 by twice as much
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
    _, _, w, _ = se2_8x8x4.edge_pairs()
    for kappa in (0.5, 0.9):
        p, _ = _keep_probabilities(w, kappa)
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
    g = far_apart(se2_8x8x4, 0.9)
    _, _, w_pairs, _ = g.edge_pairs()
    assert 0 < np.count_nonzero(w_pairs) < w_pairs.size
    n_pos = int(np.count_nonzero(w_pairs))
    p, _ = _keep_probabilities(w_pairs, 0.5)
    np.testing.assert_array_equal(p, (w_pairs > 0.0).astype(float))
    sub = sample_edges(g, 0.5, seed=0)
    assert sub.n_edges == n_pos
    assert f"(expected {n_pos:.1f}, c=inf)" in sub.notes[-1]
    p, _ = _keep_probabilities(w_pairs, 0.05)
    assert p.sum() == pytest.approx(0.05 * w_pairs.size, rel=1e-12)
    assert np.all(p[w_pairs == 0.0] == 0.0) and np.all(p <= 1.0)
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            _keep_probabilities(w_pairs, bad)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"kappa must be a finite number, got {bad}"):
            _keep_probabilities(w_pairs, bad)


def test_sample_edges_weight_bias(se2_8x8x4):
    """Keep probability is monotone in the edge weight."""
    _, _, w, _ = se2_8x8x4.edge_pairs()
    p, _ = _keep_probabilities(w, 0.5)
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
    assert sub.vertices.kept.shape == (128,)
    assert np.all(np.diff(sub.vertices.kept) > 0)
    # inherited bandwidth, induced edges only
    assert sub.bandwidth == se2_8x8x4.bandwidth
    i, j, w, _ = sub.edge_pairs()
    orig = {(a, b): ww for a, b, ww, _ in zip(*se2_8x8x4.edge_pairs())}
    for a, b, ww in zip(sub.vertices.kept[i], sub.vertices.kept[j], w):
        assert orig[(min(a, b), max(a, b))] == ww
    np.testing.assert_array_equal(sub.vertices.params,
                                  se2_8x8x4.vertices.params[sub.vertices.kept])
    with pytest.raises(ValueError):
        sample_vertices(se2_8x8x4, 0.0, seed=0)
    with pytest.raises(ValueError):
        sample_vertices(se2_8x8x4, 1.5, seed=0)
    with pytest.raises(ValueError, match="kappa must be a finite number, got nan"):
        sample_vertices(se2_8x8x4, float("nan"), seed=0)


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
        orig = sub.vertices.kept
        expected = float(np.mean(orig[i] // ns == orig[j] // ns))
        assert slice_neighbor_fractions(sub) == pytest.approx((expected, 1.0 - expected))
        theta = sub.vertices.params[:, 2]
        _, by_angle = np.unique(theta, return_inverse=True)
        np.testing.assert_array_equal(sub.vertices.orientation_index(np.arange(len(orig))),
                                      by_angle)
