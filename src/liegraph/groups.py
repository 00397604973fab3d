"""Group elements, logarithmic maps and anisotropic distances on SE(2) and SO(3).

Both groups are represented by 3x3 matrices: SE(2) as homogeneous planar
transforms, SO(3) as rotation matrices in ZYZ Euler parametrisation
G = R_z(gamma) R_y(beta) R_z(alpha).  Group-algebra coordinates are plain
length-3 numpy arrays (c1, c2, c3); for SE(2) these are the two translation
generators and the rotation generator, for SO(3) the component ordering is
(c1, c2, c3) = theta * (n_x, n_z, n_y) so that c2 always multiplies the
generator of in-place rotations about the reference axis.

Everything numeric is written twice over: a scalar API built on small
dataclasses, and vectorised kernels on parameter / matrix arrays that the
graph builder calls on blocks of vertex pairs, with a Euclidean lower bound
for each kernel that its K-NN search prunes with.  The scalar API delegates
to the kernels so the two cannot drift apart.  SO(3) logs and distances run
on unit quaternions (so3_quaternions): the angle 2 atan2(|v|, |w|) is
accurate over all of [0, pi], so no branch is needed near angle pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# Series switch point of the closed-form SE(2) log.
SMALL_ANGLE = 1e-6
# sin(beta) below this is treated as a pole of the ZYZ chart (gauge gamma = 0).
POLE_TOL = 1e-12

ORTHO_TOL = 1e-9


class GroupKind(Enum):
    SE2 = "se2"
    SO3 = "so3"


def wrap_angle(theta):
    """Wrap angles into [-pi, pi)."""
    return (np.asarray(theta) + np.pi) % (2.0 * np.pi) - np.pi


# ---------------------------------------------------------------------------
# matrix <-> parameter kernels


def se2_matrices(params: np.ndarray) -> np.ndarray:
    """(..., 3) arrays of (x, y, theta) to homogeneous matrices (..., 3, 3)."""
    params = np.asarray(params, dtype=float)
    x, y, theta = params[..., 0], params[..., 1], params[..., 2]
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(params.shape[:-1] + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 0, 2] = x
    out[..., 1, 2] = y
    out[..., 2, 2] = 1.0
    return out


def se2_params(matrices: np.ndarray) -> np.ndarray:
    matrices = np.asarray(matrices, dtype=float)
    theta = wrap_angle(np.arctan2(matrices[..., 1, 0], matrices[..., 0, 0]))
    return np.stack([matrices[..., 0, 2], matrices[..., 1, 2], theta], axis=-1)


def so3_matrices(params: np.ndarray) -> np.ndarray:
    """ZYZ angles (alpha, beta, gamma) to rotation matrices.

    G = R_z(gamma) R_y(beta) R_z(alpha); acting on the reference axis
    (0, 0, 1) this lands on the unit-sphere point with colatitude beta and
    longitude gamma, independent of alpha.
    """
    params = np.asarray(params, dtype=float)
    a, b, g = params[..., 0], params[..., 1], params[..., 2]
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cg, sg = np.cos(g), np.sin(g)
    out = np.empty(params.shape[:-1] + (3, 3))
    out[..., 0, 0] = cg * cb * ca - sg * sa
    out[..., 0, 1] = -cg * cb * sa - sg * ca
    out[..., 0, 2] = cg * sb
    out[..., 1, 0] = sg * cb * ca + cg * sa
    out[..., 1, 1] = -sg * cb * sa + cg * ca
    out[..., 1, 2] = sg * sb
    out[..., 2, 0] = -sb * ca
    out[..., 2, 1] = sb * sa
    out[..., 2, 2] = cb
    return out


def so3_params(matrices: np.ndarray) -> np.ndarray:
    """ZYZ angles from rotation matrices, pole gauge gamma = 0."""
    m = np.asarray(matrices, dtype=float)
    cb = np.clip(m[..., 2, 2], -1.0, 1.0)
    # atan2 keeps full precision at the poles, where arccos(m22) would lose
    # half the significant digits.
    sb = np.hypot(m[..., 0, 2], m[..., 1, 2])
    beta = np.arctan2(sb, cb)
    regular = sb > POLE_TOL

    gamma = np.where(regular, np.arctan2(m[..., 1, 2], m[..., 0, 2]), 0.0)
    alpha = np.where(regular, np.arctan2(m[..., 2, 1], -m[..., 2, 0]), 0.0)

    # Poles: beta ~ 0 gives G = R_z(gamma + alpha), beta ~ pi gives
    # G = R_z(gamma - alpha) R_y(pi); both get gauge gamma = 0.
    north = ~regular & (cb > 0.0)
    south = ~regular & (cb <= 0.0)
    if np.any(north):
        alpha = np.where(north, np.arctan2(m[..., 1, 0], m[..., 0, 0]), alpha)
    if np.any(south):
        alpha = np.where(south, -np.arctan2(-m[..., 1, 0], -m[..., 0, 0]), alpha)
    return np.stack([wrap_angle(alpha), beta, wrap_angle(gamma)], axis=-1)


# ---------------------------------------------------------------------------
# logarithmic maps


def _half_angle_cot(theta: np.ndarray) -> np.ndarray:
    """(theta/2) * cot(theta/2), even in theta, series below the switch point."""
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    exact = 0.5 * safe / np.tan(0.5 * safe)
    series = 1.0 - theta * theta / 12.0
    return np.where(small, series, exact)


def _se2_c12(x, y, theta):
    """Translation part (c1, c2) of the closed-form SE(2) log."""
    h = _half_angle_cot(theta)
    return h * x + 0.5 * theta * y, -0.5 * theta * x + h * y


def se2_log_params(x, y, theta) -> np.ndarray:
    """Closed-form SE(2) log; theta is used as given, without wrapping.

    Callers pass theta outside [-pi, pi) on purpose when probing the
    pi-shifted branches of the orientation coordinate.
    """
    theta = np.asarray(theta, dtype=float)
    c1, c2 = _se2_c12(np.asarray(x, dtype=float), np.asarray(y, dtype=float), theta)
    return np.stack([c1, c2, np.broadcast_to(theta, c1.shape).copy()], axis=-1)


def so3_quaternions(matrices: np.ndarray) -> np.ndarray:
    """Unit quaternions (w, x, y, z), up to sign, of rotation matrices (..., 3, 3).

    Shepperd's method (J. Guidance & Control 1(3), 1978): the symmetric
    matrix 4 q q^T is linear in G, with diagonal 1 + tr and 1 + 2 m_ii - tr.
    Its row with the largest diagonal entry t >= 1 (the four sum to 4),
    divided by 2 sqrt(t), is q, so no component is read off a small divisor.
    """
    m = np.asarray(matrices, dtype=float)
    m00, m11, m22 = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    d = m - np.swapaxes(m, -1, -2)          # 4 w (x, y, z) sit at d21, d02, d10
    s = m + np.swapaxes(m, -1, -2)          # 4 (xy, xz, yz) sit at s01, s02, s12
    k = np.stack([1.0 + m00 + m11 + m22, d[..., 2, 1], d[..., 0, 2], d[..., 1, 0],
                  d[..., 2, 1], 1.0 + m00 - m11 - m22, s[..., 0, 1], s[..., 0, 2],
                  d[..., 0, 2], s[..., 0, 1], 1.0 - m00 + m11 - m22, s[..., 1, 2],
                  d[..., 1, 0], s[..., 0, 2], s[..., 1, 2], 1.0 - m00 - m11 + m22],
                 axis=-1).reshape(m.shape[:-2] + (4, 4))
    lead = np.argmax(np.diagonal(k, axis1=-2, axis2=-1), axis=-1)[..., None, None]
    row = np.take_along_axis(k, lead, axis=-2)[..., 0, :]
    return row / (2.0 * np.sqrt(np.take_along_axis(row, lead[..., 0], axis=-1)))


def so3_log_matrices(matrices: np.ndarray) -> np.ndarray:
    """Principal SO(3) log (c1, c2, c3) = sign(w) (theta / |v|) (v_x, v_z, v_y)
    through the unit quaternion (w, v) of each matrix, and 0 at |v| = 0.
    theta = 2 atan2(|v|, |w|) keeps full relative precision on all of [0, pi].
    """
    q = so3_quaternions(matrices)
    vn = np.linalg.norm(q[..., 1:], axis=-1)
    theta = 2.0 * np.arctan2(vn, np.abs(q[..., 0]))
    scale = np.divide(np.copysign(theta, q[..., 0]), vn, out=np.zeros_like(vn), where=vn > 0.0)
    return q[..., [1, 3, 2]] * scale[..., None]


def _sphere_c13(u: np.ndarray):
    """(c1, c3) of the sphere log from the image point u = G.(0,0,1), shape (..., 3)."""
    sb = np.hypot(u[..., 0], u[..., 1])
    # atan2 keeps full relative precision near the poles, where arccos(u_z)
    # rounds angles below about 1e-8 to 0.
    beta = np.arctan2(sb, u[..., 2])
    regular = sb > POLE_TOL
    safe = np.where(regular, sb, 1.0)
    cg = np.where(regular, u[..., 0] / safe, 1.0)
    sg = np.where(regular, u[..., 1] / safe, 0.0)
    return -beta * sg, beta * cg


def sphere_log_matrices(matrices: np.ndarray) -> np.ndarray:
    """Log of the torsion-free sphere transport R_z(gamma) R_y(beta) R_z(-gamma).

    Only the image point G.(0,0,1) enters, so the result is independent of the
    alpha coordinate and its orientation component c2 vanishes identically.
    """
    c1, c3 = _sphere_c13(np.asarray(matrices, dtype=float)[..., :, 2])
    return np.stack([c1, np.zeros_like(c1), c3], axis=-1)


# ---------------------------------------------------------------------------
# metric


@dataclass(frozen=True)
class Metric:
    """Diagonal left-invariant metric diag(1, epsilon^-2, xi^2).

    The weights are stated in SE(2) component order (two spatial slots, then
    orientation); on SO(3) xi^2 lands on c2, the orientation slot of the
    (c1, c2, c3) = theta*(n_x, n_z, n_y) ordering.
    """

    epsilon: float = 1.0
    xi: float = 1.0

    def __post_init__(self):
        if not (self.epsilon > 0.0 and self.xi > 0.0):
            raise ValueError("metric parameters must be positive")

    def weights(self, kind: GroupKind) -> np.ndarray:
        base = np.array([1.0, self.epsilon ** -2.0, self.xi ** 2.0])
        if kind is GroupKind.SO3:
            return base[[0, 2, 1]]
        return base


def metric_norm(c: np.ndarray, metric: Metric, kind: GroupKind) -> np.ndarray:
    """Weighted norm of algebra coordinates (..., 3)."""
    w = metric.weights(kind)
    c = np.asarray(c, dtype=float)
    return np.sqrt(w[0] * c[..., 0] ** 2 + w[1] * c[..., 1] ** 2 + w[2] * c[..., 2] ** 2)


# ---------------------------------------------------------------------------
# pairwise squared-distance kernels (graph construction hot path)


def se2_pair_sq(params_a, params_b, weights) -> np.ndarray:
    """Squared anisotropic distances between aligned parameter arrays.

    Broadcasting shapes are the caller's business: (A, 1, 3) against (B, 3)
    gives the full block, two (n, 3) arrays give elementwise pairs.  The
    orientation coordinate is pi-periodic: the smallest squared norm over the
    branches dth + pi Z counts, dth the wrapped relative angle, and only dth
    and dth - copysign(pi, dth) can be smallest.  For dth in (0, pi) the
    branches dth +/- pi share cot(th/2) = -tan(dth/2), so (c1, c2) is linear
    in th with the same factor on both: the dth + pi branch has (c1, c2)
    scaled by (dth + pi)/(dth - pi), of modulus above 1, and a larger
    orientation term.  Mirrored for dth < 0; at dth = 0 the two tie.
    """
    pa = np.asarray(params_a, dtype=float)
    pb = np.asarray(params_b, dtype=float)
    dx = pb[..., 0] - pa[..., 0]
    dy = pb[..., 1] - pa[..., 1]
    ct, st = np.cos(pa[..., 2]), np.sin(pa[..., 2])
    xr = ct * dx + st * dy
    yr = -st * dx + ct * dy
    dth = wrap_angle(pb[..., 2] - pa[..., 2])
    w0, w1, w2 = weights
    best = None
    for th in (dth, dth - np.copysign(np.pi, dth)):
        c1, c2 = _se2_c12(xr, yr, th)
        d2 = w0 * c1 * c1 + w1 * c2 * c2 + w2 * th * th
        best = d2 if best is None else np.minimum(best, d2)
    return best


def so3_quat_pair_sq(quats_a, quats_b, weights) -> np.ndarray:
    """Squared distances between unit-quaternion arrays (..., 4), broadcast
    like se2_pair_sq.  The relative rotation conj(q_a) q_b = (w, x, y, z)
    sums each vector component as antisymmetric pairs, so equal inputs give
    exactly 0; its squared log norm is theta^2 (w0 x^2 + w1 z^2 + w2 y^2) /
    |v|^2 with theta = 2 atan2(|v|, |w|), 0 at |v| = 0.  The +/- pi shifts of
    the relative alpha are both the right factor R_z(pi) = (0, 0, 0, 1), which
    maps (w, x, y, z) to (-z, y, -x, w); the smaller branch counts.
    """
    a0, a1, a2, a3 = np.moveaxis(np.asarray(quats_a, dtype=float), -1, 0)
    b0, b1, b2, b3 = np.moveaxis(np.asarray(quats_b, dtype=float), -1, 0)
    w = a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
    x = (a0 * b1 - a1 * b0) + (a3 * b2 - a2 * b3)
    y = (a0 * b2 - a2 * b0) + (a1 * b3 - a3 * b1)
    z = (a0 * b3 - a3 * b0) + (a2 * b1 - a1 * b2)
    sw, sx, sy, sz = w * w, x * x, y * y, z * z
    w0, w1, w2 = weights
    best = None
    # (w, v1^2, v2^2, v3^2) with v in the (c1, c2, c3) = (x, z, y) slot order
    for scalar, s1, s2, s3 in ((w, sx, sz, sy), (z, sy, sw, sx)):
        vv = s1 + s2 + s3
        theta = 2.0 * np.arctan2(np.sqrt(vv), np.abs(scalar))
        d2 = np.divide(theta * theta * (w0 * s1 + w1 * s2 + w2 * s3), vv,
                       out=np.zeros_like(vv), where=vv > 0.0)
        best = d2 if best is None else np.minimum(best, d2)
    return best


def so3_pair_sq(mats_a, mats_b, weights) -> np.ndarray:
    """Squared distances for rotation-matrix arrays (..., 3, 3): each operand
    is converted to unit quaternions once, then so3_quat_pair_sq."""
    return so3_quat_pair_sq(so3_quaternions(mats_a), so3_quaternions(mats_b), weights)


def sphere_pair_sq(mats_a, mats_b, weights) -> np.ndarray:
    """Squared sphere-transport distances; depends only on the image points."""
    u = np.asarray(mats_b, dtype=float)[..., :, 2]
    v = np.einsum("...ji,...j->...i", np.asarray(mats_a, dtype=float), u)
    c1, c3 = _sphere_c13(v)
    w0, _, w2 = weights
    return w0 * c1 * c1 + w2 * c3 * c3


# ---------------------------------------------------------------------------
# Euclidean lower bounds of the kernels (K-NN candidate search)


def se2_bound_points(params, weights) -> np.ndarray:
    """Points f in R^4 with |f(a) - f(b)|^2 <= se2_pair_sq(a, b).

    f = (sqrt(w_s) x, sqrt(w_s) y, sqrt(w2)/2 cos 2theta, sqrt(w2)/2 sin 2theta)
    with w_s = min(w0, w1).  On every branch (c1, c2) is the relative
    translation rotated and scaled by |(th/2) / sin(th/2)| >= 1, and |th| is
    at least the distance from the relative angle to pi Z, which bounds the
    |sin| of that distance that the orientation part of f measures.
    """
    p = np.asarray(params, dtype=float)
    s = np.sqrt(min(weights[0], weights[1]))
    h = 0.5 * np.sqrt(weights[2])
    return np.stack([s * p[..., 0], s * p[..., 1],
                     h * np.cos(2.0 * p[..., 2]), h * np.sin(2.0 * p[..., 2])], axis=-1)


def sphere_bound_points(matrices, weights) -> np.ndarray:
    """Points f = sqrt(min(w0, w2)) G.(0,0,1) with |f(a) - f(b)|^2 below both
    so3_pair_sq and sphere_pair_sq.

    The image point is unchanged by the R_z(pi) branch, and its chord
    2 sin(theta/2) sqrt(1 - n_z^2) is at most sqrt(c1^2 + c3^2) on SO(3), or
    at most beta = sqrt(c1^2 + c3^2) on the sphere.
    """
    return np.sqrt(min(weights[0], weights[2])) * np.asarray(matrices, dtype=float)[..., :, 2]


# ---------------------------------------------------------------------------
# scalar element API


@dataclass(frozen=True, eq=False)
class GroupElement:
    """One group element: canonical parameters plus the matrix they rebuild."""

    kind: GroupKind
    params: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        self.params.setflags(write=False)
        self.matrix.setflags(write=False)


def se2_element(x: float, y: float, theta: float) -> GroupElement:
    p = np.array([float(x), float(y), float(wrap_angle(theta))])
    return GroupElement(GroupKind.SE2, p, se2_matrices(p))


def so3_element(alpha: float, beta: float, gamma: float) -> GroupElement:
    if not 0.0 <= beta <= np.pi:
        raise ValueError(f"beta must lie in [0, pi], got {beta}")
    p = np.array([float(wrap_angle(alpha)), float(beta), float(wrap_angle(gamma))])
    return GroupElement(GroupKind.SO3, p, so3_matrices(p))


def identity(kind: GroupKind) -> GroupElement:
    if kind is GroupKind.SE2:
        return se2_element(0.0, 0.0, 0.0)
    return so3_element(0.0, 0.0, 0.0)


def from_matrix(kind: GroupKind, matrix: np.ndarray) -> GroupElement:
    """Build an element from a 3x3 matrix, validating group membership."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if kind is GroupKind.SE2:
        r = m[:2, :2]
        if not np.allclose(m[2], [0.0, 0.0, 1.0], atol=ORTHO_TOL):
            raise ValueError("last row of an SE(2) matrix must be (0, 0, 1)")
        if not np.allclose(r.T @ r, np.eye(2), atol=ORTHO_TOL) or np.linalg.det(r) < 0.0:
            raise ValueError("rotation block is not special orthogonal")
        p = se2_params(m)
        return GroupElement(kind, p, se2_matrices(p))
    if not np.allclose(m.T @ m, np.eye(3), atol=ORTHO_TOL) or np.linalg.det(m) < 0.0:
        raise ValueError("matrix is not special orthogonal")
    p = so3_params(m)
    return GroupElement(kind, p, so3_matrices(p))


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.kind is not h.kind:
        raise ValueError("cannot compose elements of different groups")
    return from_matrix(g.kind, g.matrix @ h.matrix)


def inverse(g: GroupElement) -> GroupElement:
    if g.kind is GroupKind.SE2:
        r = g.matrix[:2, :2]
        m = np.eye(3)
        m[:2, :2] = r.T
        m[:2, 2] = -r.T @ g.matrix[:2, 2]
        return from_matrix(g.kind, m)
    return from_matrix(g.kind, g.matrix.T)


def group_log(g: GroupElement) -> np.ndarray:
    """Principal logarithm of one element as algebra coordinates."""
    if g.kind is GroupKind.SE2:
        x, y, theta = g.params
        return se2_log_params(x, y, theta)
    return so3_log_matrices(g.matrix)


def sphere_log(g: GroupElement) -> np.ndarray:
    """Torsion-free sphere log of an SO(3) element (orientation slot is zero)."""
    if g.kind is not GroupKind.SO3:
        raise ValueError("sphere_log is defined for SO(3) elements")
    return sphere_log_matrices(g.matrix)


def distance(g: GroupElement, h: GroupElement, metric: Metric) -> float:
    """Approximate left-invariant distance ||log(g^-1 h)||, pi-periodic in
    the orientation coordinate."""
    if g.kind is not h.kind:
        raise ValueError("cannot measure distance between different groups")
    w = metric.weights(g.kind)
    if g.kind is GroupKind.SE2:
        d2 = se2_pair_sq(g.params, h.params, w)
    else:
        d2 = so3_pair_sq(g.matrix, h.matrix, w)
    return float(np.sqrt(d2))


def sphere_distance(g: GroupElement, h: GroupElement, metric: Metric) -> float:
    """Distance through the sphere log; ignores both alpha coordinates."""
    if g.kind is not GroupKind.SO3 or h.kind is not GroupKind.SO3:
        raise ValueError("sphere_distance is defined for SO(3) elements")
    w = metric.weights(GroupKind.SO3)
    return float(np.sqrt(sphere_pair_sq(g.matrix, h.matrix, w)))
