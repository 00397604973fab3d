"""Vertex samplings: SE(2) grids, icosahedral spheres and their SO(3) lifts.

Flat vertex ids follow the canonical layout

    id = orientation_index * n_spatial + spatial_index

with spatial_index = iy * nx + ix on grids and the subdivision order on
spheres.  Orientation samples are theta_k = -pi/2 + k pi / n_orient, so the
single-slice degenerate cases sit at theta = -pi/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .groups import GroupElement, GroupKind, se2_matrices, so3_matrices


class GridKind(Enum):
    SE2_GRID = "se2"
    SO3_ICOSAHEDRAL = "so3"
    R2_GRID = "r2"
    S2_ICOSAHEDRAL = "s2"


LIFTED_KINDS = (GridKind.SE2_GRID, GridKind.SO3_ICOSAHEDRAL)
PLANAR_KINDS = (GridKind.SE2_GRID, GridKind.R2_GRID)


@dataclass(frozen=True)
class GridSpec:
    """Sampling descriptor; unused integer fields stay at zero."""

    kind: GridKind
    nx: int = 0
    ny: int = 0
    level: int = 0
    n_orient: int = 1

    def __post_init__(self):
        if self.kind in PLANAR_KINDS:
            if self.nx < 1 or self.ny < 1:
                raise ValueError("grid dimensions must be at least 1")
        else:
            if self.level < 0:
                raise ValueError("subdivision level must be non-negative")
        if self.n_orient < 1:
            raise ValueError("n_orient must be at least 1")
        if self.kind in (GridKind.R2_GRID, GridKind.S2_ICOSAHEDRAL) and self.n_orient != 1:
            raise ValueError(f"{self.kind.value} sampling has a single orientation slice")

    @property
    def n_spatial(self) -> int:
        if self.kind in PLANAR_KINDS:
            return self.nx * self.ny
        return 10 * 4 ** self.level + 2

    @property
    def n_vertices(self) -> int:
        return self.n_spatial * self.n_orient

    @property
    def group_kind(self) -> GroupKind:
        return GroupKind.SE2 if self.kind in PLANAR_KINDS else GroupKind.SO3

    @property
    def lifted(self) -> bool:
        return self.n_orient > 1


def orientation_angles(n_orient: int) -> np.ndarray:
    return -0.5 * np.pi + np.arange(n_orient) * np.pi / n_orient


@dataclass
class VertexSet:
    """Sampled group elements with the flat id layout of their GridSpec.

    `kept` records original ids after vertex sub-sampling (None for a full
    sampling).
    """

    spec: GridSpec
    params: np.ndarray
    matrices: np.ndarray
    kept: np.ndarray | None = None

    def __len__(self) -> int:
        return self.params.shape[0]

    def element(self, i: int) -> GroupElement:
        p = self.params[i].copy()
        m = self.matrices[i].copy()
        return GroupElement(self.spec.group_kind, p, m)

    def orientation_index(self, ids) -> np.ndarray:
        """Orientation slice of vertex ids, read from original ids after
        vertex sub-sampling."""
        ids = np.asarray(ids)
        if self.kept is not None:
            ids = self.kept[ids]
        return ids // self.spec.n_spatial

    def flat_index(self, spatial, orient) -> np.ndarray:
        return np.asarray(orient) * self.spec.n_spatial + np.asarray(spatial)


def _se2_like(spec: GridSpec) -> VertexSet:
    xs = np.arange(spec.nx) / spec.nx
    ys = np.arange(spec.ny) / spec.ny
    gx, gy = np.meshgrid(xs, ys)            # spatial index iy * nx + ix
    thetas = orientation_angles(spec.n_orient)
    params = np.empty((spec.n_vertices, 3))
    ns = spec.n_spatial
    for k, th in enumerate(thetas):
        params[k * ns:(k + 1) * ns, 0] = gx.ravel()
        params[k * ns:(k + 1) * ns, 1] = gy.ravel()
        params[k * ns:(k + 1) * ns, 2] = th
    return VertexSet(spec, params, se2_matrices(params))


def grid_se2(nx: int, ny: int, n_orient: int) -> VertexSet:
    return _se2_like(GridSpec(GridKind.SE2_GRID, nx=nx, ny=ny, n_orient=n_orient))


def grid_r2(nx: int, ny: int) -> VertexSet:
    return _se2_like(GridSpec(GridKind.R2_GRID, nx=nx, ny=ny))


_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array([
    [-1.0, _GOLDEN, 0.0], [1.0, _GOLDEN, 0.0], [-1.0, -_GOLDEN, 0.0], [1.0, -_GOLDEN, 0.0],
    [0.0, -1.0, _GOLDEN], [0.0, 1.0, _GOLDEN], [0.0, -1.0, -_GOLDEN], [0.0, 1.0, -_GOLDEN],
    [_GOLDEN, 0.0, -1.0], [_GOLDEN, 0.0, 1.0], [-_GOLDEN, 0.0, -1.0], [-_GOLDEN, 0.0, 1.0],
]) / np.sqrt(1.0 + _GOLDEN ** 2)

_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(level: int):
    """Subdivided icosahedron on the unit sphere.

    Returns (points, parents): points is (10*4^level + 2, 3) with every
    coarser level as an id prefix; parents[i] is the parent cluster at the
    previous level (the vertex itself for prefix ids, the lower of the two
    edge endpoints for midpoints).  parents is None at level 0.
    """
    if level < 0:
        raise ValueError("subdivision level must be non-negative")
    points = [tuple(p) for p in _ICO_VERTS]
    faces = list(_ICO_FACES)
    parents = None
    for _ in range(level):
        n_prev = len(points)
        parents = list(range(n_prev))
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = np.array(points[a]) + np.array(points[b])
                p /= np.linalg.norm(p)
                midpoint[key] = len(points)
                points.append(tuple(p))
                parents.append(key[0])
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new_faces
    pts = np.array(points)
    return pts, (None if parents is None else np.array(parents))


def icosphere_parents(level: int) -> np.ndarray:
    """Cluster map from level to level-1 ids (level >= 1)."""
    if level < 1:
        raise ValueError("level 0 has no parent level")
    _, parents = icosphere(level)
    return parents


def sphere_angles(points: np.ndarray) -> np.ndarray:
    """Colatitude/longitude (beta, gamma) of unit vectors, gamma = 0 at poles."""
    beta = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
    gamma = np.arctan2(points[:, 1], points[:, 0])
    polar = np.hypot(points[:, 0], points[:, 1]) < 1e-12
    return beta, np.where(polar, 0.0, gamma)


def _so3_like(spec: GridSpec) -> VertexSet:
    points, _ = icosphere(spec.level)
    beta, gamma = sphere_angles(points)
    alphas = orientation_angles(spec.n_orient)
    params = np.empty((spec.n_vertices, 3))
    ns = spec.n_spatial
    for k, al in enumerate(alphas):
        params[k * ns:(k + 1) * ns, 0] = al
        params[k * ns:(k + 1) * ns, 1] = beta
        params[k * ns:(k + 1) * ns, 2] = gamma
    return VertexSet(spec, params, so3_matrices(params))


def grid_so3(level: int, n_orient: int) -> VertexSet:
    return _so3_like(GridSpec(GridKind.SO3_ICOSAHEDRAL, level=level, n_orient=n_orient))


def grid_s2(level: int) -> VertexSet:
    return _so3_like(GridSpec(GridKind.S2_ICOSAHEDRAL, level=level))


def build_vertices(spec: GridSpec) -> VertexSet:
    if spec.kind in PLANAR_KINDS:
        return _se2_like(spec)
    return _so3_like(spec)
