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
    _keep_probabilities,
    alpha_from_xi,
    build_graph,
    check_metric,
    default_knn,
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
from liegraph.groups import GroupKind, Metric
from liegraph.network import build_demo
from liegraph.sampling import GridKind, GridSpec, VertexSet, build_vertices, grid_se2

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
    bi, bj = knn_pairs_bruteforce(g.vertices, g.metric, g.knn)
    np.testing.assert_array_equal(i, bi)
    np.testing.assert_array_equal(j, bj)
    data, fn, w = graph_module._kernel(g.vertices, g.metric)
    np.testing.assert_array_equal(d, np.sqrt(fn(data[bi], data[bj], w)))


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


@pytest.mark.parametrize("whole_set_pairs", [graph_module.WHOLE_SET_PAIRS, SMALL_BLOCK])
@pytest.mark.parametrize("name", ["se2_8x8x4", "se2_16x16x6", "r2_16x16", "s2_level2"])
def test_knn_tree_matches_bruteforce(name, whole_set_pairs, request, monkeypatch):
    g = request.getfixturevalue(name)
    set_blocks(monkeypatch, whole_set_pairs)
    assert_knn_exact(build_graph(g.vertices, g.metric, g.knn))
    assert_knn_exact(built(GridKind.R2_GRID, nx=3, ny=3, knn=2))
    # vertex-sampled subsets are non-grid vertex sets
    for kappa, seed in ((0.5, 1), (0.2, 2)):
        sub = sample_vertices(g, kappa, seed).vertices
        assert_knn_exact(build_graph(sub, g.metric, g.knn))


def test_knn_tree_near_duplicates(monkeypatch):
    """Sphere points 1e-8 rad apart and exact duplicates are still found."""
    set_blocks(monkeypatch, SMALL_BLOCK)
    verts = build_vertices(GridSpec(GridKind.S2_ICOSAHEDRAL, level=1))
    rng = np.random.Generator(np.random.Philox(70))
    # colatitude offsets: each copy sits that many radians from its original
    shift = np.stack([np.zeros(20), rng.choice([0.0, 1e-12, 1e-8, 3e-8], 20), np.zeros(20)],
                     axis=1)
    near = VertexSet(verts.spec, np.concatenate([verts.params, verts.params[:20] + shift]))
    for k in (1, 3, 8):
        assert_knn_exact(build_graph(near, Metric(), k))


@pytest.mark.parametrize("whole_set_pairs", [graph_module.WHOLE_SET_PAIRS, SMALL_BLOCK])
def test_knn_settles_fitting_rows_in_first_pass(whole_set_pairs, monkeypatch):
    """On se2 16x16x2 at K=4 and epsilon=1, in shuffled vertex order (no
    product layout, so the general search runs), most balls fit inside the
    first query's 2(K + 1) nearest points and a few do not: only those few
    are ball-counted, and the graph still equals brute force."""
    set_blocks(monkeypatch, whole_set_pairs)
    counted = []

    class Tree(scipy.spatial.cKDTree):
        def query_ball_point(self, x, r, **kwargs):
            counted.append(len(x))
            return super().query_ball_point(x, r, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", Tree)
    spec = GridSpec(GridKind.SE2_GRID, nx=16, ny=16, n_orient=2)
    grid = build_vertices(spec)
    order = np.random.Generator(np.random.Philox(5)).permutation(len(grid))
    verts = VertexSet(spec, grid.params[order])
    assert graph_module._product_layout(verts) is None
    g = build_graph(verts, make_metric(spec, alpha=1.0)[0], 4)
    assert len(counted) == 1 and 0 < counted[0] < g.n_vertices // 10
    assert_knn_exact(g)


def spy_product_path(monkeypatch):
    """Record the (spatial points, slices) shape and the thread pool of each
    product-layout search knn_pairs runs."""
    runs = []
    product = graph_module._product_knn_pairs

    def spy(layout, kern, k, pool, workers):
        xy, theta = layout
        runs.append(((len(xy), theta.size), pool))
        return product(layout, kern, k, pool, workers)

    monkeypatch.setattr(graph_module, "_product_knn_pairs", spy)
    return runs


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
    assert len(runs) == searched > 0


@st.composite
def product_sets(draw):
    """SE(2) vertex sets in the product layout, optionally vertex-sampled:
    spatial points on a lattice (repeats allowed) and slice angles on
    multiples of pi/8, so that many distances tie exactly."""
    nx, ny, n_orient = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(2, 6))
    spec = GridSpec(GridKind.SE2_GRID, nx=nx, ny=ny, n_orient=n_orient)
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2 ** 32 - 1))))
    step = draw(st.sampled_from([0.25, 1.0 / 3.0, 1.0]))
    xy = rng.integers(-3, 4, (spec.n_spatial, 2)) * step
    theta = rng.integers(-8, 8, n_orient) * (np.pi / 8.0)
    params = np.column_stack([np.tile(xy, (n_orient, 1)), np.repeat(theta, spec.n_spatial)])
    kept = None
    if draw(st.booleans()):
        kept = np.flatnonzero(rng.random(spec.n_vertices) < draw(st.sampled_from([0.3, 0.7])))
        if kept.size < 2:
            kept = np.arange(2)
        params = params[kept]
    verts = VertexSet(spec, params, kept=kept)
    metric, _ = make_metric(spec, epsilon=float(np.sqrt(draw(st.sampled_from([0.01, 0.1, 1.0])))),
                            alpha=draw(st.sampled_from([0.1, 1.0, 100.0])))
    return verts, metric, draw(st.integers(1, 24))


@settings(max_examples=120, deadline=None)
@given(product_sets())
def test_knn_product_layout_matches_bruteforce_random(case):
    """Exact equality on random product-layout sets: full ones take the
    product-layout search once they are past the whole-set size, and
    vertex-sampled ones the general search."""
    verts, metric, knn = case
    with (mock.patch.object(graph_module, "CANDIDATE_BLOCK", SMALL_BLOCK),
          mock.patch.object(graph_module, "WHOLE_SET_PAIRS", SMALL_BLOCK)):
        assert (graph_module._product_layout(verts) is None) == (verts.kept is not None)
        g = build_graph(verts, metric, knn)
    assert_knn_exact(g)


def test_knn_product_layout_gate(monkeypatch):
    """One slice angle off by 1e-12 at one vertex breaks the product layout,
    and a subset keeping half the vertices is no full grid: the general
    search runs on both and still equals brute force."""
    set_blocks(monkeypatch, SMALL_BLOCK)
    runs = spy_product_path(monkeypatch)
    spec = GridSpec(GridKind.SE2_GRID, nx=9, ny=7, n_orient=6)
    grid = build_vertices(spec)
    params = grid.params.copy()
    params[100, 2] += 1e-12
    verts = VertexSet(spec, params)
    metric, _ = make_metric(spec, epsilon=EPS_ANISO, alpha=1.0)
    g = build_graph(grid, metric, 16)
    assert_knn_exact(g)
    assert [shape for shape, _ in runs] == [(spec.n_spatial, 6)]
    half = sample_vertices(g, 0.5, 1).vertices
    assert graph_module._product_layout(grid) is not None
    assert graph_module._product_layout(verts) is None
    assert graph_module._product_layout(half) is None
    assert_knn_exact(build_graph(verts, metric, 16))
    assert_knn_exact(build_graph(half, metric, 16))
    assert len(runs) == 1


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
    kern = graph_module._kernel(verts, metric)
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
    pairs = graph_module.knn_pairs(verts, kern._replace(fn=counting), k)
    # knn_pairs_bruteforce's picks, row by row
    picks = [graph_module._picks(kern, rows, k) for rows in np.array_split(np.arange(n), 6)]
    np.testing.assert_array_equal(pairs, graph_module._unique_pairs(n, picks))
    selected = np.bincount(np.concatenate([rows for rows, _ in picks]), minlength=n)
    assert np.all(scored >= selected)
    assert np.all(scored <= selected + SCORED_MARGIN)


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
    else:
        spec = (GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=4) if kind == "so3"
                else GridSpec(GridKind.S2_ICOSAHEDRAL, level=1))
        params[:, 1] = np.clip(params[:, 1], 0.0, np.pi)
    verts = VertexSet(spec, params)
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
    with (mock.patch.object(graph_module, "CANDIDATE_BLOCK", SMALL_BLOCK),
          mock.patch.object(graph_module, "WHOLE_SET_PAIRS", SMALL_BLOCK)):
        g = build_graph(verts, metric, knn)
    assert g.knn == min(knn, len(verts) - 1)
    assert_knn_exact(g)


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
    assert [workers_of[id(pool)] for _, pool in runs] == [1, 3]


@pytest.mark.parametrize("size", [0, 1, 500])
def test_pair_assembly_matches_unique_and_lexsort(size):
    """_unique_pairs equals np.unique over the packed pairs, and
    _mirrored_csr orders entries as lexsort by (row, col) does, on inputs
    with repeated pairs, both orientations of a pair, and empty input."""
    rng = np.random.Generator(np.random.Philox(size))
    n = 40
    i, j = rng.integers(0, n, (2, size))
    picks = [(i[:size // 2], j[:size // 2]), (j[size // 2:], i[size // 2:]), (i[:7], j[:7])]
    lo_id, hi_id = graph_module._unique_pairs(n, picks)
    packed = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    np.testing.assert_array_equal(lo_id, packed // n)
    np.testing.assert_array_equal(hi_id, packed % n)
    assert lo_id.dtype == hi_id.dtype == np.int64

    values = rng.standard_normal(size)
    indptr, indices, vals = graph_module._mirrored_csr(n, i, j, values)
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((cols, rows))
    np.testing.assert_array_equal(indptr, np.searchsorted(rows[order], np.arange(n + 1)))
    np.testing.assert_array_equal(indices, cols[order])
    np.testing.assert_array_equal(vals, np.concatenate([values, values])[order])


def test_demo_graphs_skip_the_tree():
    """build_demo's graphs are scored as whole sets, so setting up training
    never pays the scipy.spatial import."""
    src = str(Path(graph_module.__file__).resolve().parents[1])
    code = ("import sys; from liegraph.network import build_demo; build_demo(); "
            "print('scipy.spatial' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


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
    w = se2_8x8x4.weights
    g = dataclasses.replace(se2_8x8x4, weights=np.where(w >= np.quantile(w, 0.9), w, 0.0))
    _, _, w_pairs, _ = g.edge_pairs()
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
    # a vertex subset built without the kept-id map has unknown slices
    sub.vertices.kept = None
    with pytest.raises(ValueError):
        slice_neighbor_fractions(sub)
