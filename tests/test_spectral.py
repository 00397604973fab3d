"""Spectral operator tests: Chebyshev filters, heat kernel, eigenmaps, audits."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.sparse.csgraph import connected_components

from liegraph import spectral
from liegraph.graph import (Laplacian, build_graph, laplacian, make_metric, power_lambda_max,
                            rescale, sample_edges, sample_vertices)
from liegraph.sampling import GridKind, GridSpec, build_vertices
from liegraph.spectral import (
    HEAT_MAX_ORDER,
    cheb_apply,
    cheb_terms,
    eigensystem,
    equivariance_error,
    heat_coeffs,
    heat_diffuse,
    rotation_permutation,
    slice_anisotropy,
)

from conftest import EPS_ANISO, built
from oracles import (
    apply_permutation,
    cheb_terms_reference,
    chebconv_einsum,
    eigensystem_shift_invert,
    eigenvalue_groups,
    fix_signs_loop,
    rotation_permutation_loop,
)

LANCZOS_K = 16


@pytest.fixture(scope="module")
def small_lap():
    g = built(GridKind.SE2_GRID, nx=3, ny=3, orient=2, epsilon=EPS_ANISO,
              alpha=1.0, knn=6)
    return power_lambda_max(laplacian(g), tol=1e-10)


def test_cheb_terms_base_cases(small_lap):
    m = rescale(small_lap).matrix
    rng = np.random.Generator(np.random.Philox(0))
    x = rng.standard_normal(m.shape[0])
    z = cheb_terms(m, x, 3)
    np.testing.assert_array_equal(z[0], x)
    np.testing.assert_allclose(z[1], m @ x, atol=1e-14)
    np.testing.assert_allclose(z[2], 2 * (m @ (m @ x)) - x, atol=1e-14)
    with pytest.raises(ValueError):
        cheb_terms(m, x, 0)


@pytest.mark.parametrize("form", ["sparse", "dense"])
@pytest.mark.parametrize("trailing", [(), (3,), (4, 2)])
def test_cheb_terms_bit_identical_to_reference(se2_8x8x4_lap, form, trailing):
    """The in-place recurrence rounds exactly as the out-of-place one."""
    m = rescale(se2_8x8x4_lap).matrix
    if form == "dense":
        m = m.toarray()
    rng = np.random.Generator(np.random.Philox([6, len(trailing)]))
    x = rng.standard_normal((m.shape[0],) + trailing)
    for n_terms in (1, 2, 3, 30):
        z = cheb_terms(m, x, n_terms)
        assert z.shape == (n_terms,) + x.shape
        assert z.tobytes() == cheb_terms_reference(m, x, n_terms).tobytes()


def test_heat_diffuse_bit_identical_to_reference(se2_8x8x4_lap):
    rng = np.random.Generator(np.random.Philox(7))
    x = rng.standard_normal((se2_8x8x4_lap.n, 2))
    coeffs = heat_coeffs(1.0, se2_8x8x4_lap.lambda_max)
    ref = np.tensordot(coeffs, cheb_terms_reference(rescale(se2_8x8x4_lap).matrix, x,
                                                    coeffs.size), 1)
    assert heat_diffuse(se2_8x8x4_lap, x, 1.0).tobytes() == ref.tobytes()


def test_cheb_apply_matches_dense(small_lap):
    """Filter output equals the dense Chebyshev polynomial applied to x."""
    r = rescale(small_lap)
    dense = r.matrix.toarray()
    rng = np.random.Generator(np.random.Philox(1))
    x = rng.standard_normal(dense.shape[0])
    coeffs = rng.standard_normal(8)
    t_prev, t_cur = np.eye(dense.shape[0]), dense.copy()
    poly = coeffs[0] * np.eye(dense.shape[0]) + coeffs[1] * dense
    for j in range(2, 8):
        t_prev, t_cur = t_cur, 2 * dense @ t_cur - t_prev
        poly += coeffs[j] * t_cur
    np.testing.assert_allclose(cheb_apply(r, x, coeffs), poly @ x, rtol=1e-11,
                               atol=1e-13)


def test_cheb_apply_channel_mixing(small_lap):
    """The channel-mixing filter (the einsum oracle of ChebConv) is the sum
    of scalar cheb_apply filters over input channels."""
    r = rescale(small_lap)
    rng = np.random.Generator(np.random.Philox(2))
    n = r.matrix.shape[0]
    x = rng.standard_normal((n, 1, 3))
    coeffs = rng.standard_normal((5, 3, 2))
    out = chebconv_einsum(cheb_terms(r.matrix, x, 5), coeffs, np.zeros(2),
                          np.zeros((n, 1, 2)), r.matrix)[0][:, 0]
    manual = np.zeros((n, 2))
    for ci in range(3):
        for co in range(2):
            manual[:, co] += cheb_apply(r, x[:, 0, ci], coeffs[:, ci, co])
    np.testing.assert_allclose(out, manual, atol=1e-12)


def test_cheb_apply_validation(small_lap):
    x = np.zeros(small_lap.n)
    with pytest.raises(ValueError):
        cheb_apply(small_lap, x, np.ones(3))      # not rescaled
    r = rescale(small_lap)
    with pytest.raises(ValueError):
        cheb_apply(r, np.zeros((small_lap.n, 2)), np.ones((3, 4, 2)))
    with pytest.raises(ValueError):
        cheb_apply(r, x, np.ones((2, 2)))


@pytest.mark.parametrize("tau", [0.1, 1.0, 5.0])
def test_heat_matches_dense_exponential(small_lap, tau):
    dense = small_lap.matrix.toarray()
    vals, vecs = np.linalg.eigh(dense)
    rng = np.random.Generator(np.random.Philox(4))
    x = rng.standard_normal(dense.shape[0])
    exact = vecs @ (np.exp(-tau * vals) * (vecs.T @ x))
    approx = heat_diffuse(small_lap, x, tau)
    assert np.linalg.norm(approx - exact) <= 1e-6 * np.linalg.norm(exact)


def test_heat_zero_time(small_lap):
    rng = np.random.Generator(np.random.Philox(5))
    x = rng.standard_normal(small_lap.n)
    np.testing.assert_allclose(heat_diffuse(small_lap, x, 0.0), x, atol=1e-12)


def test_heat_validation(small_lap):
    x = np.zeros(small_lap.n)
    with pytest.raises(ValueError):
        heat_diffuse(rescale(small_lap), x, 1.0)
    with pytest.raises(ValueError):
        heat_diffuse(Laplacian(small_lap.matrix), x, 1.0)   # no lambda_max
    # a NaN time would fill the field with NaN and an infinite one with zeros
    for tau in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="diffusion time"):
            heat_coeffs(tau, 2.0)
    with pytest.raises(ValueError):
        heat_coeffs(1.0, 2.0, order=0)
    # the truncation bound sum_{j >= order} 2 ive(j, tau lambda_max / 2) caps tau
    heat_coeffs(30.0, 1.3)                                      # bound 3e-10
    for tau, need in ((100.0, "order 48 "), (1e6, "order 4621 "),
                      (1e300, "an order above 65536 ")):
        with pytest.raises(ValueError, match=f"diffusion time .* needs {need}or more"):
            heat_coeffs(tau, 1.3)
    assert heat_coeffs(100.0, 1.3, order=48).size == 48
    with pytest.raises(ValueError, match="order 47 errs by up to"):
        heat_coeffs(100.0, 1.3, order=47)
    # orders above HEAT_MAX_ORDER would make cheb_terms stack that many copies
    assert heat_coeffs(1.0, 1.9, order=HEAT_MAX_ORDER).size == HEAT_MAX_ORDER
    for order in (HEAT_MAX_ORDER + 1, 4 * HEAT_MAX_ORDER):
        with pytest.raises(ValueError, match=f"order must lie in \\[1, {HEAT_MAX_ORDER}\\]"):
            heat_coeffs(1.0, 1.9, order=order)


def test_heat_coeffs_memory():
    """O(order) memory: interpolating through an order x order matrix took 32 MB."""
    heat_coeffs(1.0, 1.3, order=2000)      # imports scipy.special outside the trace
    tracemalloc.start()
    coeffs = heat_coeffs(1.0, 1.3, order=2000)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert coeffs.size == 2000 and peak < 1 << 20


def test_eigensystem_zero_laplacian(se2_8x8x4):
    """No edges, or zero weights only: every vertex is its own component, so
    any dense cap gives k zeros and the first k unit vectors."""
    # every weight exp(-d^2 / 4t) underflows to exactly 0
    zero_w = dataclasses.replace(se2_8x8x4, edge_distances=np.full(se2_8x8x4.n_edges, 1e10))
    assert zero_w.weights.size and not zero_w.weights.any()
    for lap in (laplacian(sample_edges(se2_8x8x4, 0.0, seed=0)), laplacian(zero_w)):
        for k in (1, 16, lap.n):
            dense, sparse = eigensystem(lap, k), eigensystem(lap, k, dense_cap=0)
            assert sparse.values.tobytes() == dense.values.tobytes() == np.zeros(k).tobytes()
            assert sparse.vectors.tobytes() == dense.vectors.tobytes() == np.eye(lap.n, k).tobytes()


def test_eigensystem_invariants(se2_8x8x4_lap):
    eig = eigensystem(se2_8x8x4_lap)
    assert eig.values.size == 256
    assert np.all(np.diff(eig.values) >= -1e-12)
    gram = eig.vectors.T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(256))) <= 1e-8
    resid = se2_8x8x4_lap.matrix @ eig.vectors - eig.vectors * eig.values
    assert np.max(np.abs(resid)) <= 1e-7
    # sign convention: first significant entry non-negative
    for col in range(eig.vectors.shape[1]):
        v = eig.vectors[:, col]
        big = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))
        assert v[big[0]] >= 0.0


def test_eigensystem_partial_and_iterative(se2_8x8x4_lap):
    full = eigensystem(se2_8x8x4_lap)
    part = eigensystem(se2_8x8x4_lap, k=10)
    np.testing.assert_allclose(part.values, full.values[:10], atol=1e-9)
    # one 256-vertex component runs Lanczos at k=5; a cap of 10 bounds only dense solves
    it = eigensystem(se2_8x8x4_lap, k=5, dense_cap=10)
    np.testing.assert_allclose(it.values, full.values[:5], atol=1e-8)
    with pytest.raises(ValueError):
        eigensystem(se2_8x8x4_lap, k=0)
    with pytest.raises(ValueError):
        eigensystem(rescale(se2_8x8x4_lap))


@pytest.fixture(scope="module",
                params=["s2_level2", "r2_16x16", "se2_16x16x6", "so3_level2x6"])
def dense_case(request):
    """(Laplacian, dense ascending eigenpairs) of a fixture graph."""
    if request.param == "so3_level2x6":
        g = built(GridKind.SO3_ICOSAHEDRAL, level=2, orient=6, epsilon=EPS_ANISO,
                  alpha=1.0)
    else:
        g = request.getfixturevalue(request.param)
    lap = laplacian(g)
    return lap, np.linalg.eigh(lap.matrix.toarray())


def test_lanczos_matches_dense_and_shift_invert(dense_case):
    """The sparse branch finds every copy of a repeated eigenvalue: its
    projector onto each eigenvalue group inside k matches the dense one."""
    lap, (dense_vals, dense_vecs) = dense_case
    eig = eigensystem(lap, LANCZOS_K, dense_cap=0)
    si_vals, si_vecs = eigensystem_shift_invert(lap.matrix, LANCZOS_K)
    np.testing.assert_allclose(eig.values, dense_vals[:LANCZOS_K], rtol=0, atol=1e-10)
    np.testing.assert_allclose(eig.values, si_vals, rtol=0, atol=1e-10)
    resid = np.linalg.norm(lap.matrix @ eig.vectors - eig.vectors * eig.values, axis=0)
    assert resid.max() <= 1e-10
    for group in eigenvalue_groups(dense_vals):
        if group[-1] >= LANCZOS_K:
            break
        dense_proj = dense_vecs[:, group] @ dense_vecs[:, group].T
        for vecs in (eig.vectors, si_vecs):
            proj = vecs[:, group] @ vecs[:, group].T
            assert np.max(np.abs(proj - dense_proj)) <= 1e-8


# Edge- and vertex-sampled graphs of every kind that fall apart into
# several connected components: (kind, fields, sampler, kappa).
DISCONNECTED_CASES = {
    "se2_edges": (GridKind.SE2_GRID, dict(nx=8, ny=8, orient=4, epsilon=EPS_ANISO, alpha=1.0),
                  sample_edges, 0.1),
    "so3_edges": (GridKind.SO3_ICOSAHEDRAL, dict(level=1, orient=4, epsilon=EPS_ANISO, alpha=1.0),
                  sample_edges, 0.1),
    "r2_edges": (GridKind.R2_GRID, dict(nx=16, ny=16), sample_edges, 0.3),
    "r2_vertices": (GridKind.R2_GRID, dict(nx=16, ny=16), sample_vertices, 0.3),
    "s2_edges": (GridKind.S2_ICOSAHEDRAL, dict(level=2), sample_edges, 0.3),
    "s2_vertices": (GridKind.S2_ICOSAHEDRAL, dict(level=2), sample_vertices, 0.3),
}


def _check_eigenpairs(lap, eig, atol):
    resid = np.linalg.norm(lap.matrix @ eig.vectors - eig.vectors * eig.values, axis=0)
    assert resid.max() <= atol
    gram = eig.vectors.T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= atol


@pytest.mark.parametrize("case", sorted(DISCONNECTED_CASES))
def test_eigensystem_on_disconnected_graphs(case):
    """Eigenvalue 0 has one copy per connected component: a graph of several
    components is solved per component and matches the dense solve, with a
    zero for every component."""
    kind, fields, sampler, kappa = DISCONNECTED_CASES[case]
    lap = laplacian(sampler(built(kind, **fields), kappa, seed=0))
    n_parts = connected_components(lap.matrix != 0.0, directed=False)[0]
    assert n_parts > 1
    dense_vals = np.linalg.eigvalsh(lap.matrix.toarray())
    for k in (n_parts + 8, lap.n):
        eig = eigensystem(lap, k)
        np.testing.assert_allclose(eig.values, dense_vals[:k], rtol=0, atol=1e-10)
        assert np.count_nonzero(eig.values < 1e-10) == n_parts
        _check_eigenpairs(lap, eig, 1e-8)


@pytest.mark.parametrize("k", [1, 4, LANCZOS_K])
@pytest.mark.parametrize("case", sorted(DISCONNECTED_CASES))
def test_eigensystem_small_k_on_disconnected_graphs(case, k):
    """With k well below every large component, those take Lanczos and the
    small ones dense solves; the merged pairs match the dense solve."""
    kind, fields, sampler, kappa = DISCONNECTED_CASES[case]
    lap = laplacian(sampler(built(kind, **fields), kappa, seed=0))
    _matches_eigvalsh(lap, eigensystem(lap, k), np.linalg.eigvalsh(lap.matrix.toarray()))


@pytest.mark.parametrize("k", [1, 4])
def test_eigensystem_small_k_on_fixture_graphs(dense_case, k):
    """k far below |V| on connected graphs: one Lanczos run."""
    lap, (dense_vals, _) = dense_case
    _matches_eigvalsh(lap, eigensystem(lap, k), dense_vals)


def _matches_eigvalsh(lap, eig, dense_vals):
    k = eig.values.size
    np.testing.assert_allclose(eig.values, dense_vals[:k], rtol=0, atol=1e-10)
    resid = np.linalg.norm(lap.matrix @ eig.vectors - eig.vectors * eig.values, axis=0)
    assert resid.max() <= 1e-10
    assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(k))) <= 1e-8


def _cycle_blocks(sizes) -> Laplacian:
    """Block-diagonal Laplacian of unit-weight cycles, one per size of at
    least 3; a size-1 block is an isolated vertex (a zero block)."""
    blocks = []
    for m in sizes:
        if m == 1:
            blocks.append(sp.csr_matrix((1, 1)))
        else:
            ring = sp.eye(m, k=1) + sp.eye(m, k=1 - m)
            blocks.append(sp.eye(m) - 0.5 * (ring + ring.T))
    return Laplacian(sp.csr_matrix(sp.block_diag(blocks)))


@pytest.mark.parametrize("k, sizes", [
    (1, (1, 3, 4)), (4, (1, 9, 10)), (16, (1, 33, 34)),
    (1, (1, 21, 40)), (4, (1, 21, 40)), (16, (1, 21, 40)),
])
def test_eigensystem_dense_or_lanczos_per_component(k, sizes, monkeypatch):
    """A component takes Lanczos exactly when it has more than max(2k + 1, 20)
    vertices, ARPACK's default basis; a smaller one a dense solve, an
    isolated vertex neither.  Each way matches eigvalsh."""
    lanczos, dense = [], []
    eigsh, eigh = spectral.spla.eigsh, spectral.eigh
    monkeypatch.setattr(spectral.spla, "eigsh",
                        lambda a, **kw: lanczos.append(a.shape[0]) or eigsh(a, **kw))
    monkeypatch.setattr(spectral, "eigh", lambda a: dense.append(a.shape[0]) or eigh(a))
    lap = _cycle_blocks(sizes)
    eig = eigensystem(lap, k)
    basis = max(2 * k + 1, 20)
    assert lanczos == [m for m in sizes if m > basis]
    assert dense == [m for m in sizes if 1 < m <= basis]
    np.testing.assert_allclose(eig.values, np.linalg.eigvalsh(lap.matrix.toarray())[:k],
                               rtol=0, atol=1e-10)
    _check_eigenpairs(lap, eig, 1e-8)


def test_eigensystem_refuses_dense_solves_above_the_cap(se2_8x8x4_lap):
    """k near the size of a component larger than dense_cap needs a dense
    solve the cap forbids: ValueError, whatever the Lanczos cases allow."""
    n = se2_8x8x4_lap.n
    for k in (n // 2, n - 2, n):
        with pytest.raises(ValueError, match="256-vertex component, above the dense cap of 100"):
            eigensystem(se2_8x8x4_lap, k, dense_cap=100)
    assert eigensystem(se2_8x8x4_lap, n // 2 - 1, dense_cap=100).values.size == n // 2 - 1


def test_eigensystem_lanczos_per_component():
    """se2 32x32x6 at epsilon 0.316, edge-sampled at kappa 0.3 (seed 0), has
    a component of 6140 vertices and four isolated ones: Lanczos on the large
    one's submatrix and the four unit vectors give five zeros."""
    spec = GridSpec(GridKind.SE2_GRID, nx=32, ny=32, n_orient=6)
    g = build_graph(build_vertices(spec), make_metric(spec, epsilon=0.316)[0], 16)
    lap = laplacian(sample_edges(g, 0.3, seed=0))
    labels = connected_components(lap.matrix != 0.0, directed=False)[1]
    assert sorted(np.bincount(labels)) == [1] * 4 + [6140]
    eig = eigensystem(lap, 8)
    assert np.all(np.abs(eig.values[:5]) <= 1e-12) and eig.values[5] > 1e-3
    _check_eigenpairs(lap, eig, 1e-8)


def test_lanczos_is_reproducible(se2_8x8x4_lap):
    """A fixed start vector keeps the basis inside degenerate eigenspaces."""
    a = eigensystem(se2_8x8x4_lap, 6, dense_cap=0)
    b = eigensystem(se2_8x8x4_lap, 6, dense_cap=0)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.vectors.tobytes() == b.vectors.tobytes()


def test_eigenvalue_groups():
    vals = np.array([0.0, 1e-14, 1.0, 1.04, 2.0])
    groups = eigenvalue_groups(vals, rel_tol=0.05)
    assert [g.tolist() for g in groups] == [[0, 1], [2, 3], [4]]
    assert [g.tolist() for g in eigenvalue_groups(np.array([3.0]))] == [[0]]


def test_rotation_permutation_hand_enumeration():
    """2x2x2 grid: (ix, iy) -> (1 - iy, ix), slices roll by one."""
    spec = GridSpec(GridKind.SE2_GRID, nx=2, ny=2, n_orient=2)
    perm = rotation_permutation(spec)
    expected = np.empty(8, dtype=int)
    for k in range(2):
        for iy in range(2):
            for ix in range(2):
                v = k * 4 + iy * 2 + ix
                expected[v] = ((k + 1) % 2) * 4 + ix * 2 + (1 - iy)
    np.testing.assert_array_equal(perm, expected)


def test_rotation_permutation_cycles():
    spec = GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4)
    ident = np.arange(spec.n_vertices)
    np.testing.assert_array_equal(rotation_permutation(spec, 0), ident)
    np.testing.assert_array_equal(rotation_permutation(spec, 4), ident)
    p1 = rotation_permutation(spec, 1)
    p2 = rotation_permutation(spec, 2)
    np.testing.assert_array_equal(p1[p1], p2)
    np.testing.assert_array_equal(p1[p1[p1[p1]]], ident)
    assert not np.array_equal(p1, ident)


def test_rotation_permutation_validation():
    with pytest.raises(ValueError):
        rotation_permutation(GridSpec(GridKind.SE2_GRID, nx=4, ny=8, n_orient=2))
    with pytest.raises(ValueError):
        rotation_permutation(GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=3))
    with pytest.raises(ValueError):
        rotation_permutation(GridSpec(GridKind.S2_ICOSAHEDRAL, level=1))
    # single-slice planar grids need no orientation roll
    perm = rotation_permutation(GridSpec(GridKind.R2_GRID, nx=4, ny=4))
    assert perm.shape == (16,)


@pytest.mark.parametrize("spec", [
    GridSpec(GridKind.SE2_GRID, nx=5, ny=5, n_orient=4),
    GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=6),
    GridSpec(GridKind.SE2_GRID, nx=3, ny=3, n_orient=2),
    GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=1),
    GridSpec(GridKind.R2_GRID, nx=7, ny=7),
], ids=["se2_5x5x4", "se2_8x8x6", "se2_3x3x2", "se2_4x4x1", "r2_7x7"])
def test_rotation_permutation_matches_loop(spec):
    """The array form equals the per-vertex index arithmetic for turns -5
    to 8, as int64."""
    for q in range(-5, 9):
        perm = rotation_permutation(spec, q)
        assert perm.dtype == np.int64
        np.testing.assert_array_equal(perm, rotation_permutation_loop(spec, q))


@pytest.mark.parametrize("order", ["C", "F"])
def test_fix_signs_matches_loop(order):
    """One masked multiply flips the same columns as the column loop, bit for
    bit, on blocks with leading sub-tolerance entries of either sign, -0.0
    entries, a zero column, a NaN column and an infinite column."""
    rng = np.random.Generator(np.random.Philox(12))
    for _ in range(50):
        n, k = rng.integers(1, 12), rng.integers(1, 9)
        block = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-300, 300, k)
        block[rng.random((n, k)) < 0.3] = -0.0
        lead = rng.integers(0, n + 1)
        block[:lead] *= spectral.SIGN_TOL * rng.uniform(-1.0, 1.0, (lead, k))
        for col, value in zip(rng.permutation(k)[:3], (0.0, np.nan, np.inf)):
            block[:, col] = value
            block[rng.integers(n), col] = -value
        ref = fix_signs_loop(np.array(block, order=order))
        got = spectral._fix_signs(np.array(block, order=order))
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_laplacian_equivariance(se2_8x8x4_lap):
    spec = GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4)
    for q in (1, 2, 3):
        perm = rotation_permutation(spec, q)
        assert equivariance_error(se2_8x8x4_lap.matrix, perm) <= 1e-9
    rng = np.random.Generator(np.random.Philox(7))
    random_perm = rng.permutation(256)
    assert equivariance_error(se2_8x8x4_lap.matrix, random_perm) >= 1e-2


def test_apply_permutation_moves_impulse():
    spec = GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2)
    perm = rotation_permutation(spec)
    x = np.zeros(spec.n_vertices)
    x[5] = 1.0
    y = apply_permutation(perm, x)
    assert y[perm[5]] == 1.0 and y.sum() == 1.0


def test_heat_commutes_with_rotation(se2_8x8x4, se2_8x8x4_lap):
    spec = se2_8x8x4.vertices.spec
    perm = rotation_permutation(spec)
    rng = np.random.Generator(np.random.Philox(8))
    x = rng.standard_normal(spec.n_vertices)
    a = heat_diffuse(se2_8x8x4_lap, apply_permutation(perm, x), 1.0)
    b = apply_permutation(perm, heat_diffuse(se2_8x8x4_lap, x, 1.0))
    assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


@pytest.mark.parametrize("kappa, counts", [(0.9, [15, 16, 11, 16]), (0.5, [9, 7, 6, 10])])
def test_slice_anisotropy_needs_the_full_sampling(kappa, counts):
    """Slices are id ranges of the full sampling, so a vertex-sampled set is
    refused: on se2 4x4x4 at K=8 a kappa 0.9 sample (slice counts
    15/16/11/16) would read masses 16/16/16/10 from the wrong rows, and a
    kappa 0.5 one would index past its end."""
    g = built(GridKind.SE2_GRID, nx=4, ny=4, orient=4, knn=8)
    sub = sample_vertices(g, kappa, 1)
    slices = sub.vertices.orientation_index(np.arange(sub.n_vertices))
    assert np.bincount(slices).tolist() == counts
    with pytest.raises(ValueError, match="needs all 64 vertices of the sampling"):
        slice_anisotropy(sub.vertices, np.ones(sub.n_vertices))
    assert [r["mass"] for r in slice_anisotropy(g.vertices, np.ones(64))] == [16.0] * 4


@pytest.mark.parametrize("kind, fields", [(GridKind.SO3_ICOSAHEDRAL, dict(level=1, orient=2)),
                                          (GridKind.S2_ICOSAHEDRAL, dict(level=1))])
def test_slice_anisotropy_refuses_sphere_samplings(kind, fields):
    """Sphere params are (alpha, beta, gamma), not (x, y, theta): read as
    planar, both slices of so3 level 1x2 claimed theta 2.1244 and ratio
    2.6180."""
    g = built(kind, **fields)
    with pytest.raises(ValueError, match="slice anisotropy applies to planar grids"):
        slice_anisotropy(g.vertices, np.ones(g.n_vertices))


def test_slice_anisotropy_directions(se2_8x8x4):
    """An x-elongated blob reads ratio > 1 on the theta = 0 slice and < 1 on
    the vertical theta = -pi/2 slice."""
    verts = se2_8x8x4.vertices
    ns = verts.spec.n_spatial
    pts = verts.params[:ns, :2]
    blob = np.exp(-((pts[:, 0] - 0.4) / 0.25) ** 2 - ((pts[:, 1] - 0.4) / 0.05) ** 2)
    values = np.zeros(len(verts))
    values[2 * ns:3 * ns] = blob          # slice 2: theta = 0
    values[0 * ns:1 * ns] = blob          # slice 0: theta = -pi/2
    rows = slice_anisotropy(verts, values)
    assert [r["slice"] for r in rows] == [0, 1, 2, 3]
    assert rows[2]["theta"] == pytest.approx(0.0)
    assert rows[2]["ratio"] > 1.0
    assert rows[0]["ratio"] < 1.0
    assert rows[1]["mass"] == 0.0 and np.isnan(rows[1]["ratio"])
    assert rows[0]["mass"] == pytest.approx(blob.sum())
