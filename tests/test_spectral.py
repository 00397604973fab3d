"""Spectral operator tests: Chebyshev filters, heat kernel, eigenmaps, audits."""

import numpy as np
import pytest

from liegraph.graph import Laplacian, laplacian, power_lambda_max, rescale
from liegraph.sampling import GridKind, GridSpec, grid_se2
from liegraph.spectral import (
    apply_permutation,
    cheb_apply,
    cheb_terms,
    eigensystem,
    eigenvalue_groups,
    equivariance_error,
    gft,
    heat_coeffs,
    heat_diffuse,
    igft,
    rotation_permutation,
    slice_anisotropy,
)

from conftest import EPS_ANISO, built
from oracles import chebconv_einsum, eigensystem_shift_invert

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
    with pytest.raises(ValueError):
        heat_coeffs(-1.0, 2.0)
    with pytest.raises(ValueError):
        heat_coeffs(1.0, 2.0, order=0)


def test_eigensystem_invariants(se2_8x8x4_lap):
    eig = eigensystem(se2_8x8x4_lap)
    assert eig.full and eig.k == 256
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
    assert not part.full
    np.testing.assert_allclose(part.values, full.values[:10], atol=1e-9)
    # force the Lanczos branch with a tiny dense cap
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


def test_lanczos_is_reproducible(se2_8x8x4_lap):
    """A fixed start vector keeps the basis inside degenerate eigenspaces."""
    a = eigensystem(se2_8x8x4_lap, 6, dense_cap=0)
    b = eigensystem(se2_8x8x4_lap, 6, dense_cap=0)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.vectors.tobytes() == b.vectors.tobytes()


def test_gft_roundtrip(se2_8x8x4_lap):
    eig = eigensystem(se2_8x8x4_lap)
    rng = np.random.Generator(np.random.Philox(6))
    x = rng.standard_normal(256)
    xh = gft(eig, x)
    np.testing.assert_allclose(igft(eig, xh), x, atol=1e-10)
    assert np.linalg.norm(xh) == pytest.approx(np.linalg.norm(x), rel=1e-10)
    part = eigensystem(se2_8x8x4_lap, k=4)
    with pytest.raises(ValueError):
        gft(part, x)
    with pytest.raises(ValueError):
        igft(part, x[:4])


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
