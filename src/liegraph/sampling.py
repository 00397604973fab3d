"""Vertex samplings: SE(2) grids, icosahedral spheres and their SO(3) lifts.

Flat vertex ids follow the canonical layout

    id = orientation_index * n_spatial + spatial_index

with spatial_index = iy * nx + ix on grids and the subdivision order on
spheres.  Orientation samples are theta_k = -pi/2 + k pi / n_orient, so the
single-slice degenerate cases sit at theta = -pi/2.  A VertexSet is a
GridSpec and optionally the kept ids of a vertex sub-sample: its
coordinates, and so the layout of its ids, follow from (spec, kept) alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .groups import GroupKind, se2_matrices, so3_matrices


class GridKind(Enum):
    SE2_GRID = "se2"
    SO3_ICOSAHEDRAL = "so3"
    R2_GRID = "r2"
    S2_ICOSAHEDRAL = "s2"


PLANAR_KINDS = (GridKind.SE2_GRID, GridKind.R2_GRID)
# Samplings without an orientation axis: one slice, and the isotropic metric.
ISOTROPIC_KINDS = (GridKind.R2_GRID, GridKind.S2_ICOSAHEDRAL)
# Deeper icosahedral levels are refused before 4 ** level is evaluated.
# icosphere(8) (655362 points) takes about 0.6 s and 230 MB: all a level in
# a file header can make a reader build beyond what the file's bytes back.
MAX_LEVEL = 8


@dataclass(frozen=True)
class GridSpec:
    """Sampling descriptor; unused fields (level on grids, nx and ny on spheres) are 0."""

    kind: GridKind
    nx: int = 0
    ny: int = 0
    level: int = 0
    n_orient: int = 1

    def __post_init__(self):
        if self.kind in PLANAR_KINDS:
            if self.nx < 1 or self.ny < 1:
                raise ValueError("grid dimensions must be at least 1")
            if self.level != 0:
                raise ValueError(f"{self.kind.value} grids have no level, got {self.level}")
        else:
            if not 0 <= self.level <= MAX_LEVEL:
                raise ValueError(f"subdivision level {self.level} outside [0, {MAX_LEVEL}]")
            if self.nx != 0 or self.ny != 0:
                raise ValueError(f"{self.kind.value} samplings have no nx or ny, "
                                 f"got {self.nx} and {self.ny}")
        if self.n_orient < 1:
            raise ValueError("n_orient must be at least 1")
        if self.kind in ISOTROPIC_KINDS and self.n_orient != 1:
            raise ValueError(f"{self.kind.value} sampling has a single orientation slice")
        if self.n_vertices >= 2 ** 63:
            raise ValueError(f"{self.n_vertices} vertices, more than int64 ids can number")

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


def orientation_angles(n_orient: int, k=None) -> np.ndarray:
    """theta_k = -pi/2 + k pi / n_orient of slices k, all n_orient by default."""
    return -0.5 * np.pi + (np.arange(n_orient) if k is None else k) * np.pi / n_orient


class RuleError(ValueError):
    """A value that breaks a rule of the object being made, which is where
    each rule lives: `field` names the argument at fault, `entry` the index of
    its first bad entry when it is an array, else None."""

    def __init__(self, message: str, field: str, entry: int | None = None):
        super().__init__(message if entry is None else f"{message} (entry {entry})")
        self.field, self.entry = field, entry


def refuse_flagged(bad: np.ndarray, message: str, field: str) -> None:
    """RuleError at the first flagged entry of an array argument, if any."""
    if bad.any():
        raise RuleError(message, field, int(np.argmax(bad)))


@dataclass(frozen=True)
class VertexSet:
    """spec's sampling, or its vertices at `kept`, the original ids left by
    vertex sub-sampling (None for the full sampling).  params, from which
    `matrices` derive, is computed once from (spec, kept), not passed:
    (ix / nx, iy / ny, theta_k) on grids, (alpha_k, beta, gamma) of the
    icosphere points on spheres.  Both arrays are read-only, kept as int64;
    RuleError (field "kept") unless kept is a non-empty integer vector of
    strictly ascending ids of the sampling.  Equality and hash follow
    (spec, kept ids)."""

    spec: GridSpec
    kept: np.ndarray | None = field(default=None, kw_only=True)
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        spec = self.spec
        ids = np.arange(spec.n_vertices) if self.kept is None else np.array(self.kept)
        if self.kept is not None:
            rule = "kept must be one or more strictly ascending ids of the sampling"
            if ids.ndim != 1 or not ids.size or ids.dtype.kind not in "iu":
                raise RuleError(rule, "kept")
            refuse_flagged(np.concatenate([[False], ids[1:] <= ids[:-1]]) | (ids < 0)
                           | (ids >= spec.n_vertices), rule, "kept")
            ids = ids.astype(np.int64, copy=False)
            ids.flags.writeable = False
            object.__setattr__(self, "kept", ids)
        k, p = np.divmod(ids, spec.n_spatial)
        theta = orientation_angles(spec.n_orient, k)
        if spec.kind in PLANAR_KINDS:
            iy, ix = np.divmod(p, spec.nx)
            params = np.column_stack([ix / spec.nx, iy / spec.ny, theta])
        else:
            beta, gamma = sphere_angles(icosphere(spec.level)[0])
            params = np.column_stack([theta, beta[p], gamma[p]])
        params.flags.writeable = False
        object.__setattr__(self, "params", params)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, VertexSet) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self):
        return self.spec, None if self.kept is None else self.kept.tobytes()

    def __len__(self) -> int:
        return self.params.shape[0]

    @property
    def matrices(self) -> np.ndarray:
        """(V, 3, 3) group matrices of params, computed on each access."""
        if self.spec.group_kind is GroupKind.SE2:
            return se2_matrices(self.params)
        return so3_matrices(self.params)

    def orientation_index(self, ids) -> np.ndarray:
        """Orientation slice of vertex ids, read from original ids after
        vertex sub-sampling."""
        ids = np.asarray(ids)
        return (ids if self.kept is None else self.kept[ids]) // self.spec.n_spatial


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


@functools.lru_cache(maxsize=MAX_LEVEL + 1)
def icosphere(level: int):
    """Subdivided icosahedron on the unit sphere, built once per level: the
    arrays are cached read-only and shared by every caller.

    Returns (points, parents): points is (10*4^level + 2, 3) with every
    coarser level as an id prefix; parents[i] is the parent cluster at the
    previous level (the vertex itself for prefix ids, the lower of the two
    edge endpoints for midpoints).  parents is None at level 0.

    Each level walks the faces' edges ab, bc, ca face by face and gives every
    edge's midpoint the next id the first time the edge is seen; each face
    (a, b, c) becomes (a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca).
    A midpoint is normalised by the square root of its dot product with
    itself, the same float as np.linalg.norm of the single vector.
    """
    if level < 0:
        raise ValueError("subdivision level must be non-negative")
    points = _ICO_VERTS.copy()
    faces = np.array(_ICO_FACES, dtype=np.int64)
    parents = None
    for _ in range(level):
        n_prev = len(points)
        a, b, c = faces.T
        ends = np.stack([a, b, b, c, c, a], 1).reshape(-1, 2)
        lo, hi = ends.min(1), ends.max(1)
        _, first, inverse = np.unique(lo * n_prev + hi, return_index=True, return_inverse=True)
        seen = np.argsort(first)
        rank = np.empty_like(seen)
        rank[seen] = np.arange(seen.size)
        edge = first[seen]                      # one per midpoint, in first-seen order
        mid = points[lo[edge]] + points[hi[edge]]
        mid /= np.sqrt(np.matmul(mid[:, None, :], mid[:, :, None]))[:, 0]
        points = np.concatenate([points, mid])
        parents = np.concatenate([np.arange(n_prev), lo[edge]])
        ab, bc, ca = (n_prev + rank[inverse]).reshape(-1, 3).T
        faces = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], 1).reshape(-1, 3)
    for arr in (points, parents)[:1 if parents is None else 2]:
        arr.flags.writeable = False
    return points, parents


def sphere_angles(points: np.ndarray) -> np.ndarray:
    """Colatitude/longitude (beta, gamma) of unit vectors, gamma = 0 at poles."""
    beta = np.arccos(np.clip(points[:, 2], -1.0, 1.0))
    gamma = np.arctan2(points[:, 1], points[:, 0])
    polar = np.hypot(points[:, 0], points[:, 1]) < 1e-12
    return beta, np.where(polar, 0.0, gamma)


def build_vertices(spec: GridSpec, kept: np.ndarray | None = None) -> VertexSet:
    """VertexSet(spec, kept=kept): the work grows with the vertices returned
    (plus the icosphere, once per level)."""
    return VertexSet(spec, kept=kept)
