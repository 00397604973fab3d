"""Vertex sampling tests: grid layout, icosphere construction, validation."""

import numpy as np
import pytest

from liegraph.groups import GroupKind
from liegraph.sampling import (
    GridKind,
    GridSpec,
    build_vertices,
    grid_se2,
    icosphere,
    orientation_angles,
    sphere_angles,
)

from oracles import icosphere_loop


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(GridKind.SE2_GRID, nx=0, ny=4, n_orient=2)
    with pytest.raises(ValueError):
        GridSpec(GridKind.R2_GRID, nx=4, ny=0)
    with pytest.raises(ValueError):
        GridSpec(GridKind.SO3_ICOSAHEDRAL, level=-1, n_orient=2)
    with pytest.raises(ValueError):
        GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=0)
    # single-slice kinds reject lifted orientation counts
    with pytest.raises(ValueError):
        GridSpec(GridKind.R2_GRID, nx=4, ny=4, n_orient=2)
    with pytest.raises(ValueError):
        GridSpec(GridKind.S2_ICOSAHEDRAL, level=1, n_orient=3)


def test_spec_counts_and_kind():
    s = GridSpec(GridKind.SE2_GRID, nx=5, ny=3, n_orient=4)
    assert s.n_spatial == 15
    assert s.n_vertices == 60
    assert s.group_kind == GroupKind.SE2
    assert s.lifted

    s = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=2, n_orient=6)
    assert s.n_spatial == 162
    assert s.n_vertices == 972
    assert s.group_kind == GroupKind.SO3

    s = GridSpec(GridKind.S2_ICOSAHEDRAL, level=0)
    assert s.n_vertices == 12
    assert not s.lifted


def test_orientation_angles():
    th = orientation_angles(4)
    assert np.allclose(th, [-np.pi / 2, -np.pi / 4, 0.0, np.pi / 4])
    th = orientation_angles(1)
    assert th[0] == -np.pi / 2
    for m in (1, 2, 3, 6):
        th = orientation_angles(m)
        assert np.all(th >= -np.pi / 2) and np.all(th < np.pi / 2)
        if m > 1:
            assert np.allclose(np.diff(th), np.pi / m)


def test_se2_grid_layout():
    """Flat id = orientation * n_spatial + (iy * nx + ix), coords i/n."""
    v = grid_se2(4, 2, 2)
    assert len(v) == 16
    ns = v.spec.n_spatial
    for k in range(2):
        for iy in range(2):
            for ix in range(4):
                i = k * ns + iy * 4 + ix
                assert v.params[i, 0] == ix / 4
                assert v.params[i, 1] == iy / 2
                assert v.params[i, 2] == -np.pi / 2 + k * np.pi / 2
    # the orientation map agrees with the layout
    assert v.orientation_index(ns + 3) == 1
    np.testing.assert_array_equal(v.orientation_index(np.arange(16)),
                                  np.repeat([0, 1], ns))


def test_se2_grid_matrices():
    v = grid_se2(4, 2, 2)
    ns = v.spec.n_spatial
    # slice 1 has theta = 0: pure translation
    i = ns + 0 * 4 + 1
    np.testing.assert_allclose(v.matrices[i],
                               [[1, 0, 0.25], [0, 1, 0], [0, 0, 1]],
                               atol=1e-15)
    # slice 0 has theta = -pi/2
    j = 0 * 4 + 1
    np.testing.assert_allclose(v.matrices[j],
                               [[0, 1, 0.25], [-1, 0, 0], [0, 0, 1]],
                               atol=1e-15)


def test_r2_single_slice():
    v = build_vertices(GridSpec(GridKind.R2_GRID, nx=3, ny=3))
    assert len(v) == 9
    assert np.all(v.params[:, 2] == -np.pi / 2)
    assert v.spec.group_kind == GroupKind.SE2


@pytest.mark.parametrize("level,count", [(0, 12), (1, 42), (2, 162), (3, 642)])
def test_icosphere_counts(level, count):
    pts, _ = icosphere(level)
    assert pts.shape == (count, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_icosphere_nesting():
    """Each level keeps the previous level's points as an id prefix."""
    prev, _ = icosphere(0)
    for level in (1, 2):
        pts, parents = icosphere(level)
        np.testing.assert_array_equal(pts[: prev.shape[0]], prev)
        prev = pts


def test_icosphere_parents():
    pts1, parents = icosphere(1)
    assert parents.shape == (42,)
    # prefix vertices are their own parents
    np.testing.assert_array_equal(parents[:12], np.arange(12))
    # midpoints: parent is the lower edge endpoint, and the midpoint lies on
    # the normalized chord between parent-level vertices
    pts0, _ = icosphere(0)
    # icosahedron edges span 63.4 deg arcs, so a midpoint sits 31.7 deg from
    # its parent: cos = 0.851
    for i in range(12, 42):
        p = parents[i]
        assert p < 12
        assert np.dot(pts1[i], pts0[p]) > 0.85
    assert icosphere(2)[1].shape == (162,)
    assert icosphere(0)[1] is None


@pytest.mark.parametrize("level", range(6))
def test_icosphere_matches_loop(level):
    """The array subdivision gives the per-edge loop's points and parents
    byte for byte."""
    pts, parents = icosphere(level)
    ref_pts, ref_parents = icosphere_loop(level)
    assert pts.dtype == ref_pts.dtype and pts.tobytes() == ref_pts.tobytes()
    if level == 0:
        assert parents is None and ref_parents is None
    else:
        assert parents.dtype == ref_parents.dtype
        assert parents.tobytes() == ref_parents.tobytes()


def test_sphere_angles_roundtrip():
    pts, _ = icosphere(2)
    beta, gamma = sphere_angles(pts)
    rebuilt = np.stack([np.sin(beta) * np.cos(gamma),
                        np.sin(beta) * np.sin(gamma),
                        np.cos(beta)], axis=1)
    np.testing.assert_allclose(rebuilt, pts, atol=1e-12)
    # poles get gauge gamma = 0
    b, g = sphere_angles(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    np.testing.assert_allclose(b, [0.0, np.pi], atol=1e-15)
    assert g[0] == 0.0 and g[1] == 0.0


def test_so3_grid_layout():
    v = build_vertices(GridSpec(GridKind.SO3_ICOSAHEDRAL, level=0, n_orient=3))
    assert len(v) == 36
    ns = 12
    alphas = orientation_angles(3)
    for k in range(3):
        block = v.params[k * ns:(k + 1) * ns]
        assert np.all(block[:, 0] == alphas[k])
    # spatial angles repeat identically across slices
    np.testing.assert_array_equal(v.params[:ns, 1:], v.params[2 * ns:, 1:])


def test_so3_matrices_project_to_sphere():
    """G e_z is the sphere point regardless of the orientation angle."""
    v = build_vertices(GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=4))
    pts, _ = icosphere(1)
    proj = v.matrices @ np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(proj, np.tile(pts, (4, 1)), atol=1e-12)


def test_s2_single_slice():
    v = build_vertices(GridSpec(GridKind.S2_ICOSAHEDRAL, level=1))
    assert len(v) == 42
    assert np.all(v.params[:, 0] == -np.pi / 2)


def test_build_vertices_dispatch():
    a = build_vertices(GridSpec(GridKind.SE2_GRID, nx=3, ny=3, n_orient=2))
    b = grid_se2(3, 3, 2)
    np.testing.assert_array_equal(a.params, b.params)
