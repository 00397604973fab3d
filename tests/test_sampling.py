"""Vertex sampling tests: grid layout, icosphere construction, validation."""

import dataclasses

import numpy as np
import pytest

from liegraph.groups import GroupKind, se2_matrices, so3_matrices
from liegraph.sampling import (
    MAX_LEVEL,
    GridKind,
    GridSpec,
    VertexSet,
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


def test_spec_refuses_unused_fields_and_deep_levels():
    """Grids have no level and spheres no nx or ny; levels above MAX_LEVEL
    are refused before 4 ** level is evaluated, and so is a sampling with
    more vertices than int64 ids number."""
    for kind in (GridKind.SE2_GRID, GridKind.R2_GRID):
        with pytest.raises(ValueError, match="grids have no level"):
            GridSpec(kind, nx=4, ny=4, level=3)
    for fields in ({"nx": 5}, {"ny": 5}, {"nx": 5, "ny": 5}):
        for kind in (GridKind.SO3_ICOSAHEDRAL, GridKind.S2_ICOSAHEDRAL):
            with pytest.raises(ValueError, match="have no nx or ny"):
                GridSpec(kind, level=1, **fields)
    assert GridSpec(GridKind.S2_ICOSAHEDRAL, level=MAX_LEVEL).n_vertices == 10 * 4 ** 8 + 2
    for level in (MAX_LEVEL + 1, 2 ** 20, 2 ** 32 - 1):
        with pytest.raises(ValueError, match=f"level {level} outside"):
            GridSpec(GridKind.SO3_ICOSAHEDRAL, level=level, n_orient=2)
    with pytest.raises(ValueError, match="int64"):
        GridSpec(GridKind.SE2_GRID, nx=2 ** 32 - 1, ny=2 ** 32 - 1, n_orient=2)


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


@pytest.mark.parametrize("level", [0, 1, 3])
def test_icosphere_cached_read_only(level):
    """Each level is built once: later calls, build_vertices and coarsen
    share the same read-only arrays, bit-equal to a fresh construction."""
    from liegraph.network import coarsen

    pts, parents = icosphere(level)
    fresh_pts, fresh_parents = icosphere.__wrapped__(level)
    assert pts.tobytes() == fresh_pts.tobytes() and pts is not fresh_pts
    assert (parents is None) == (fresh_parents is None) == (level == 0)
    for arr in (pts,) if parents is None else (pts, parents):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    if parents is not None:
        assert parents.tobytes() == fresh_parents.tobytes()
    misses = icosphere.cache_info().misses
    build_vertices(GridSpec(GridKind.S2_ICOSAHEDRAL, level=level))
    if level:
        coarsen(GridSpec(GridKind.SO3_ICOSAHEDRAL, level=level, n_orient=2))
    assert icosphere(level)[0] is pts and icosphere.cache_info().misses == misses
    assert icosphere.cache_info().maxsize == MAX_LEVEL + 1


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


def test_vertex_set_derives_matrices():
    """A VertexSet stores spec, params and kept only; its matrices are those
    of its params, and kept is keyword-only, so a three-argument call that
    passes matrices fails."""
    for v in (grid_se2(4, 2, 2), build_vertices(GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1,
                                                         n_orient=3))):
        assert sorted(vars(v)) == ["kept", "params", "spec"]
        to_matrices = se2_matrices if v.spec.group_kind is GroupKind.SE2 else so3_matrices
        assert v.matrices.tobytes() == to_matrices(v.params).tobytes()
        with pytest.raises(TypeError):
            VertexSet(v.spec, v.params, v.matrices)


@pytest.mark.parametrize("spec", [GridSpec(GridKind.SE2_GRID, nx=5, ny=3, n_orient=4),
                                  GridSpec(GridKind.R2_GRID, nx=4, ny=6),
                                  GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=3),
                                  GridSpec(GridKind.S2_ICOSAHEDRAL, level=2)],
                         ids=["se2", "r2", "so3", "s2"])
def test_build_vertices_at_kept_ids(spec):
    """The vertices at kept ids are the full sampling's rows, bit for bit."""
    full = build_vertices(spec)
    rng = np.random.Generator(np.random.Philox(11))
    kept = np.sort(rng.choice(len(full), size=len(full) // 3, replace=False))
    sub = build_vertices(spec, kept)
    assert sub.params.tobytes() == full.params[kept].tobytes()
    assert sub.kept.tobytes() == kept.tobytes() and full.kept is None


def test_vertex_set_is_its_spec_and_kept():
    """A VertexSet is (spec, kept): params are derived, never passed, and
    neither they nor kept can change afterwards.  A kept map that is empty,
    not strictly ascending, or outside the sampling is refused, and
    dataclasses.replace with other kept ids derives their params anew."""
    spec = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=3)
    full = build_vertices(spec)
    with pytest.raises(TypeError):
        VertexSet(spec, full.params)
    with pytest.raises(TypeError):
        VertexSet(spec, params=full.params)
    v = build_vertices(spec, np.array([1, 4, 9]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.kept = None
    for arr in (v.params, v.kept, full.params):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    for bad in ([], [4, 1], [1, 1, 2], [-1, 2], [0, spec.n_vertices]):
        with pytest.raises(ValueError, match="kept must be one or more strictly ascending ids"):
            VertexSet(spec, kept=np.array(bad, dtype=np.int64))
    ids = np.array([0, 2, 7, spec.n_vertices - 1])
    moved = dataclasses.replace(v, kept=ids)
    assert moved.params.tobytes() == build_vertices(spec, ids).params.tobytes()
    assert moved.params.tobytes() == full.params[ids].tobytes()


def test_vertex_set_equality_is_spec_and_kept():
    """Vertex sets compare and hash by (spec, kept ids): two builds of one
    sampling are equal, and so are subsets keeping the same ids in any
    integer dtype; another spec or other kept ids are not."""
    spec = GridSpec(GridKind.SE2_GRID, nx=2, ny=2, n_orient=2)
    full, sub = build_vertices(spec), build_vertices(spec, np.array([1, 3]))
    assert full == build_vertices(spec) and hash(full) == hash(build_vertices(spec))
    same = build_vertices(spec, np.array([1, 3], dtype=np.int32))
    assert sub == same and hash(sub) == hash(same)
    others = [build_vertices(spec, np.array([1, 2])), build_vertices(spec, np.arange(8)),
              grid_se2(2, 2, 4), "vertices"]
    for other in [sub] + others:
        assert full != other
    assert sub not in others
    assert len({full, build_vertices(spec), sub, same}) == 2
