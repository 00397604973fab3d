"""Group elements, closed-form logarithms, and the anisotropic distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegraph import graph, sampling
from liegraph.groups import (
    GroupKind,
    Metric,
    compose,
    distance,
    from_matrix,
    group_log,
    identity,
    inverse,
    metric_norm,
    se2_bound_points,
    se2_element,
    se2_log_params,
    se2_matrices,
    se2_pair_sq,
    so3_element,
    so3_log_matrices,
    so3_matrices,
    so3_pair_sq,
    so3_quaternions,
    sphere_bound_points,
    sphere_distance,
    sphere_log,
    sphere_pair_sq,
    wrap_angle,
)
from oracles import (
    matrix_exp_series,
    matrix_log_series,
    se2_algebra_matrix,
    se2_pair_sq_three_branch,
    so3_algebra_matrix,
    so3_pair_sq_matrix_log,
    so3_pair_sq_mp,
)


def rand_se2(rng, n, max_abs_theta=0.9 * np.pi):
    x, y = rng.uniform(-2.0, 2.0, size=(2, n))
    theta = rng.uniform(-max_abs_theta, max_abs_theta, size=n)
    return [se2_element(*t) for t in zip(x, y, theta)]


def rand_so3(rng, n, max_angle=0.9 * np.pi):
    """Random rotations with total angle bounded away from pi."""
    out = []
    while len(out) < n:
        v = rng.standard_normal(3)
        ang = rng.uniform(0.0, max_angle)
        v *= ang / np.linalg.norm(v)
        c, s = np.cos(ang), np.sin(ang)
        k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]) / max(ang, 1e-300)
        m = np.eye(3) + s * k + (1 - c) * (k @ k)
        out.append(from_matrix(GroupKind.SO3, m))
    return out


def test_wrap_angle_halfopen():
    assert wrap_angle(np.pi) == -np.pi
    assert wrap_angle(-np.pi) == -np.pi
    assert abs(wrap_angle(3 * np.pi + 0.25) - (-np.pi + 0.25)) < 1e-12
    th = np.linspace(-10.0, 10.0, 1001)
    w = wrap_angle(th)
    assert np.all((w >= -np.pi) & (w < np.pi))


def test_compose_identity_and_translations():
    g = se2_element(0.3, -1.2, 0.7)
    e = identity(GroupKind.SE2)
    assert np.allclose(compose(e, g).matrix, g.matrix, atol=1e-15)
    t = compose(se2_element(1, 0, 0), se2_element(0, 1, 0))
    assert np.allclose(t.params, [1.0, 1.0, 0.0], atol=1e-15)


def test_compose_rotation_moves_translation():
    out = compose(se2_element(0, 0, np.pi / 2), se2_element(1, 0, 0))
    assert np.allclose(out.params, [0.0, 1.0, np.pi / 2], atol=1e-12)


def test_compose_kind_mismatch():
    with pytest.raises(ValueError):
        compose(se2_element(0, 0, 0), so3_element(0, 0.3, 0))


def test_inverse():
    assert np.allclose(inverse(identity(GroupKind.SE2)).matrix, np.eye(3), atol=1e-15)
    g = se2_element(0.4, -0.9, 0.0)
    assert np.allclose(inverse(g).params, [-0.4, 0.9, 0.0], atol=1e-14)
    r = so3_element(0.5, 1.1, -0.3)
    assert np.allclose(inverse(r).matrix, r.matrix.T, atol=1e-14)
    rng = np.random.default_rng(0)
    for g in rand_se2(rng, 20) + rand_so3(rng, 20):
        prod = compose(g, inverse(g)).matrix
        assert np.abs(prod - np.eye(3)).max() <= 1e-12


def test_se2_log_trivial_cases():
    assert np.allclose(group_log(se2_element(0, 0, 0)), [0, 0, 0], atol=1e-15)
    # zero rotation leaves the translation untouched (Euclidean case)
    assert np.allclose(group_log(se2_element(0.7, -2.1, 0.0)), [0.7, -2.1, 0.0], atol=1e-15)


def test_se2_log_against_series_oracle():
    rng = np.random.default_rng(1)
    elems = [se2_element(1, 0, np.pi / 2)] + rand_se2(rng, 100)
    mats = np.stack([g.matrix for g in elems])
    oracle = matrix_log_series(mats)
    mine = se2_algebra_matrix(np.stack([group_log(g) for g in elems]))
    assert np.abs(mine - oracle).max() <= 1e-9


def test_so3_log_z_rotation():
    for phi in (0.3, -1.0, 2.5):
        g = so3_element(phi, 0.0, 0.0)
        assert np.allclose(group_log(g), [0.0, phi, 0.0], atol=1e-12)


def test_so3_log_against_series_oracle():
    rng = np.random.default_rng(2)
    mats = np.stack([g.matrix for g in rand_so3(rng, 100)])
    oracle = matrix_log_series(mats)
    mine = so3_algebra_matrix(so3_log_matrices(mats))
    assert np.abs(mine - oracle).max() <= 1e-9


def test_log_exp_roundtrip():
    rng = np.random.default_rng(3)
    se2 = np.stack([g.matrix for g in rand_se2(rng, 50, max_abs_theta=np.pi - 1e-9)])
    back = matrix_exp_series(se2_algebra_matrix(se2_log_params(
        se2[:, 0, 2], se2[:, 1, 2], np.arctan2(se2[:, 1, 0], se2[:, 0, 0]))))
    assert np.abs(back - se2).max() <= 1e-9
    so3 = np.stack([g.matrix for g in rand_so3(rng, 50, max_angle=np.pi - 1e-9)])
    back = matrix_exp_series(so3_algebra_matrix(so3_log_matrices(so3)))
    assert np.abs(back - so3).max() <= 1e-9


def test_so3_log_near_pi_branch():
    """Rotations within 1e-9 to 1e-5 of angle pi round trip."""
    rng = np.random.default_rng(4)
    for _ in range(50):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        ang = np.pi - 10.0 ** rng.uniform(-9.0, -5.0)
        k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
        m = np.eye(3) + np.sin(ang) * k + (1 - np.cos(ang)) * (k @ k)
        back = matrix_exp_series(so3_algebra_matrix(so3_log_matrices(m)))
        assert np.abs(back - m).max() <= 1e-9


def test_small_angle_switch_continuity():
    for theta in (0.9e-6, 1.1e-6):
        a = se2_log_params(np.array(0.5), np.array(-0.25), np.array(theta))
        b = matrix_log_series(se2_matrices(np.array([0.5, -0.25, theta])), splits=0)
        assert np.abs(se2_algebra_matrix(a) - b).max() <= 1e-12


def test_sphere_log_orientation_slot_zero():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = so3_element(rng.uniform(-np.pi, np.pi), rng.uniform(0.0, np.pi),
                        rng.uniform(-np.pi, np.pi))
        c = sphere_log(g)
        assert c[1] == 0.0
    assert np.allclose(sphere_log(identity(GroupKind.SO3)), [0, 0, 0], atol=1e-15)


def test_sphere_log_matches_group_log_at_gauge():
    """With alpha = -gamma the full log and the torsion-free log agree."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        beta = rng.uniform(0.05, np.pi - 0.05)
        gamma = rng.uniform(-np.pi, np.pi)
        g = so3_element(-gamma, beta, gamma)
        assert np.abs(sphere_log(g) - group_log(g)).max() <= 1e-9


def test_metric_norm_unit_examples():
    assert metric_norm(np.array([1.0, 0, 0]), Metric(), GroupKind.SE2) == 1.0
    assert abs(metric_norm(np.array([0, 1.0, 0]), Metric(epsilon=0.5), GroupKind.SE2) - 2.0) < 1e-15
    assert abs(metric_norm(np.array([0, 0, 1.0]), Metric(xi=2.0), GroupKind.SE2) - 2.0) < 1e-15


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric(epsilon=0.0)
    with pytest.raises(ValueError):
        Metric(xi=-1.0)


def test_so3_metric_weight_assignment():
    """xi^2 lands on the orientation slot of the rotation log ordering."""
    w = Metric(epsilon=0.5, xi=3.0).weights(GroupKind.SO3)
    assert np.allclose(w, [1.0, 9.0, 4.0])
    w = Metric(epsilon=0.5, xi=3.0).weights(GroupKind.SE2)
    assert np.allclose(w, [1.0, 4.0, 9.0])


def test_distance_identity_and_symmetry():
    m = Metric(epsilon=0.4, xi=1.7)
    rng = np.random.default_rng(7)
    for g, h in zip(rand_se2(rng, 25), rand_se2(rng, 25)):
        assert distance(g, g, m) == 0.0
        assert abs(distance(g, h, m) - distance(h, g, m)) <= 1e-12
    for g, h in zip(rand_so3(rng, 25), rand_so3(rng, 25)):
        assert distance(g, g, m) == 0.0
        assert abs(distance(g, h, m) - distance(h, g, m)) <= 1e-12


def test_distance_euclidean_case():
    m = Metric()
    g = se2_element(0.2, 0.9, 0.0)
    h = se2_element(-1.0, 0.3, 0.0)
    assert abs(distance(g, h, m) - np.hypot(1.2, 0.6)) <= 1e-12


def test_distance_pi_periodic_orientation():
    m = Metric(epsilon=0.3, xi=2.0)
    g = se2_element(0.4, -0.2, 0.3)
    h = se2_element(0.4, -0.2, 0.3 - np.pi)
    assert distance(g, h, m) <= 1e-12
    r = so3_element(0.5, 1.0, -0.7)
    flip = compose(r, so3_element(np.pi, 0.0, 0.0))
    assert distance(r, flip, m) <= 1e-9


def test_distance_left_invariance_sampled():
    m = Metric(epsilon=0.6, xi=1.3)
    rng = np.random.default_rng(8)
    for group in (rand_se2, rand_so3):
        a, g, h = group(rng, 3 * 40)[0::3], group(rng, 3 * 40)[1::3], group(rng, 3 * 40)[2::3]
        for ai, gi, hi in zip(a, g, h):
            lhs = distance(compose(ai, gi), compose(ai, hi), m)
            rhs = distance(gi, hi, m)
            assert abs(lhs - rhs) <= 1e-9


def test_sphere_distance_ignores_alpha():
    m = Metric()
    g = so3_element(0.3, 1.0, 0.4)
    h = so3_element(-2.0, 1.0, 0.4)
    assert sphere_distance(g, h, m) <= 1e-12


def test_from_matrix_validation():
    with pytest.raises(ValueError):
        from_matrix(GroupKind.SE2, np.eye(2))
    bad = np.eye(3)
    bad[2, 0] = 0.5
    with pytest.raises(ValueError):
        from_matrix(GroupKind.SE2, bad)
    with pytest.raises(ValueError):
        from_matrix(GroupKind.SO3, np.diag([1.0, 2.0, 0.5]))
    with pytest.raises(ValueError):
        so3_element(0.0, -0.1, 0.0)


def test_elements_immutable():
    g = se2_element(1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        g.params[0] = 9.0
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 9.0


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-3, 3), y=st.floats(-3, 3),
       theta=st.floats(-3.1, 3.1),
       ax=st.floats(-3, 3), ay=st.floats(-3, 3), at=st.floats(-3.1, 3.1))
def test_property_left_invariance_se2(x, y, theta, ax, ay, at):
    m = Metric(epsilon=0.5, xi=1.2)
    g = se2_element(x, y, theta)
    a = se2_element(ax, ay, at)
    h = se2_element(y, x, -theta / 2.0)
    assert abs(distance(compose(a, g), compose(a, h), m) - distance(g, h, m)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(-3.1, 3.1), x=st.floats(-2, 2), y=st.floats(-2, 2))
def test_property_log_exp_roundtrip_se2(theta, x, y):
    g = se2_element(x, y, theta)
    back = matrix_exp_series(se2_algebra_matrix(group_log(g)))
    assert np.abs(back - g.matrix).max() <= 1e-9


# Rounding allowance for the bound tests: a tenth of the slack the K-NN
# search adds to its ball radius.  Rounding is absolute, in units of the
# coordinates, so near-coincident pairs need the absolute part.
BOUND_REL = graph.BALL_REL / 10.0
BOUND_ABS = graph.BALL_ABS / 10.0
BOUND_WEIGHTS = [np.array(w) for w in ((1.0, 10.0, 0.05), (1.0, 1.0, 1.0),
                                       (10.0, 1.0, 3.7), (1.0, 0.3, 200.0))]


def assert_bound(f, d2):
    chord = np.linalg.norm(f[0] - f[1], axis=-1)
    slack = np.sqrt(d2) * BOUND_REL + BOUND_ABS * (1.0 + np.abs(f).max())
    assert np.all(chord <= np.sqrt(d2) + slack), np.max(chord - np.sqrt(d2))


def test_se2_bound_points():
    """|f(a) - f(b)|^2 <= se2_pair_sq(a, b), with orientations near +-pi/2
    (relative angles near pi, where the branches switch) and near-duplicates."""
    rng = np.random.Generator(np.random.Philox(60))
    n = 4000
    a = np.column_stack([rng.uniform(-2.0, 2.0, (n, 2)), rng.uniform(-np.pi, np.pi, n)])
    b = a + np.column_stack([rng.normal(0.0, 0.3, (n, 2)), rng.uniform(-np.pi, np.pi, n)])
    edge = np.pi / 2 + rng.choice([0.0, 1e-12, -1e-12, 1e-7, -1e-7, 1e-3], (n, 2))
    a[: n // 2, 2] = edge[: n // 2, 0] * rng.choice([-1.0, 1.0], n // 2)
    b[: n // 2, 2] = edge[: n // 2, 1] * rng.choice([-1.0, 1.0], n // 2)
    b[-100:] = a[-100:] + rng.normal(0.0, 1e-9, (100, 3))
    for w in BOUND_WEIGHTS:
        assert_bound(se2_bound_points(np.stack([a, b]), w), se2_pair_sq(a, b, w))


def axis_rotations(axes, angles):
    k = np.zeros((axes.shape[0], 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -axes[:, 2], axes[:, 1], -axes[:, 0]
    k -= k.transpose(0, 2, 1)
    s, c = np.sin(angles)[:, None, None], np.cos(angles)[:, None, None]
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def test_sphere_bound_points():
    """|f(a) - f(b)|^2 <= so3_pair_sq(a, b) and sphere_pair_sq(a, b), with
    relative rotations near pi, near the identity and about the reference axis."""
    rng = np.random.Generator(np.random.Philox(61))
    n = 4000
    a = so3_matrices(np.column_stack([rng.uniform(-np.pi, np.pi, n), rng.uniform(0.0, np.pi, n),
                                      rng.uniform(-np.pi, np.pi, n)]))
    axes = rng.normal(size=(n, 3))
    axes[:500] = [0.0, 0.0, 1.0]
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0.0, np.pi, n)
    angles[500:2500] = np.pi - rng.choice([0.0, 1e-12, 1e-8, 1e-5, 1e-2], 2000)
    angles[-200:] = rng.choice([0.0, 1e-12, 1e-8], 200)
    b = a @ axis_rotations(axes, angles)
    for w in BOUND_WEIGHTS:
        f = sphere_bound_points(np.stack([a, b]), w)
        assert_bound(f, so3_pair_sq(a, b, w))
        assert_bound(f, sphere_pair_sq(a, b, w))


def test_sphere_pair_sq_small_angles():
    """Image points 1e-8 and 1e-6 rad apart keep their full relative
    precision: the squared distance is theta^2 at unit sphere weights."""
    rng = np.random.Generator(np.random.Philox(62))
    n = 200
    phi = rng.uniform(-np.pi, np.pi, n)
    tilt_axes = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(n)])
    # a turns about the reference axis only, so a^T b is formed without
    # absolute rounding in the tiny components of the image point
    a = axis_rotations(np.tile([0.0, 0.0, 1.0], (n, 1)), rng.uniform(-np.pi, np.pi, n))
    for theta in (1e-8, 1e-6):
        b = a @ axis_rotations(tilt_axes, np.full(n, theta))
        d2 = sphere_pair_sq(a, b, np.array([1.0, 10.0, 1.0]))
        np.testing.assert_allclose(d2, theta * theta, rtol=1e-10, atol=0.0)


def quaternion_matrices(q):
    """Rotation matrices of unit quaternions (w, x, y, z), shape (n, 4)."""
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=-2)


def test_so3_quaternions_rebuild_matrices():
    """Unit quaternions that rebuild their matrix, on all four of Shepperd's
    branches: random rotations, and angles near pi about axes near x, y, z."""
    rng = np.random.Generator(np.random.Philox(63))
    q = rng.normal(size=(4000, 4))
    q[1000:, 0] *= 1e-6                        # angles near pi
    for lead in (1, 2, 3):
        q[1000 * lead:1000 * (lead + 1), 1:] *= np.where(np.arange(1, 4) == lead, 1.0, 1e-3)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    mats = quaternion_matrices(q)
    got = so3_quaternions(mats)
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(quaternion_matrices(got), mats, rtol=0, atol=1e-15)
    sign = np.sign(np.sum(got * q, axis=1))
    np.testing.assert_allclose(got * sign[:, None], q, rtol=0, atol=1e-15)
    assert so3_quaternions(mats[0]).shape == (4,)


def test_so3_pair_sq_high_precision():
    """so3_pair_sq is within 1e-11 relative of a 50-digit evaluation of the
    same float matrices: on random pairs, relative angles pi - 10^u for u in
    [-9, -3], angles 1e-8 to 1e-6, and the so3 level 3 x 6 pair (167, 1137).
    Equal inputs give exactly 0.  The trace / antisymmetric-part log misses
    the bound near pi, where its axis drops the (1 + cos theta)/2 I term."""
    rng = np.random.Generator(np.random.Philox(64))
    n = 60

    def zyz(k):
        return so3_matrices(np.column_stack([rng.uniform(-np.pi, np.pi, k), rng.uniform(0.0, np.pi, k),
                                             rng.uniform(-np.pi, np.pi, k)]))

    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    near_pi = zyz(n)
    # Tiny angles: a turns about the reference axis and b tilts it about a
    # horizontal axis, so G_a^T G_b is formed without absolute rounding in
    # its small components.
    turn = axis_rotations(np.tile([0.0, 0.0, 1.0], (n, 1)), rng.uniform(-np.pi, np.pi, n))
    psi = rng.uniform(-np.pi, np.pi, n)
    tilt = np.column_stack([np.cos(psi), np.sin(psi), np.zeros(n)])
    level3 = sampling.grid_so3(3, 6)
    a = np.concatenate([zyz(n), near_pi, turn, level3.matrices[[167]]])
    b = np.concatenate([zyz(n), near_pi @ axis_rotations(axes, np.pi - 10.0 ** rng.uniform(-9.0, -3.0, n)),
                        turn @ axis_rotations(tilt, 10.0 ** rng.uniform(-8.0, -6.0, n)),
                        level3.matrices[[1137]]])
    metric = Metric(epsilon=np.sqrt(0.1), xi=graph.xi_from_alpha(1.0, level3.spec))
    oracle_err = 0.0
    for w in BOUND_WEIGHTS + [metric.weights(GroupKind.SO3)]:
        ref = so3_pair_sq_mp(a, b, w)
        err = np.abs(so3_pair_sq(a, b, w) - ref) / ref
        assert err.max() <= 1e-11, (np.argmax(err), err.max())
        oracle_err = max(oracle_err, np.max(np.abs(so3_pair_sq_matrix_log(a, b, w) - ref) / ref))
        np.testing.assert_array_equal(so3_pair_sq(a, a, w), 0.0)
    assert oracle_err > 1e-11


ANGLE = st.floats(-4.0, 4.0)
COORD = st.floats(-3.0, 3.0)
# Relative angles above this size put the dropped branch ((pi + |dth|) /
# (pi - |dth|))^2 >= 1 + 1e-9 above the kept one, far beyond rounding.
BRANCH_EXACT = 1e-9


@settings(max_examples=300, deadline=None)
@given(pa=st.tuples(COORD, COORD, ANGLE), pb=st.tuples(COORD, COORD, ANGLE),
       same_angle=st.booleans(), eps_sq=st.floats(0.1, 1.0), xi=st.floats(0.05, 10.0))
def test_se2_pair_sq_matches_three_branches(pa, pb, same_angle, eps_sq, xi):
    """The two branches se2_pair_sq evaluates give the three-branch minimum
    bit for bit; where dth + pi and dth - pi tie up to rounding (|dth| below
    BRANCH_EXACT, dth = 0 included) within 1e-15 relative."""
    a = np.array(pa)
    b = np.array([pb[0], pb[1], pa[2] if same_angle else pb[2]])
    w = Metric(epsilon=np.sqrt(eps_sq), xi=xi).weights(GroupKind.SE2)
    got, ref = se2_pair_sq(a, b, w), se2_pair_sq_three_branch(a, b, w)
    if abs(wrap_angle(b[2] - a[2])) > BRANCH_EXACT:
        assert got.tobytes() == ref.tobytes()
    else:
        assert abs(got - ref) <= 1e-15 * ref


def test_se2_pair_sq_matches_three_branches_blocks():
    """Bit for bit on blocks, with relative angles near 0, +-pi/2 and +-pi."""
    rng = np.random.Generator(np.random.Philox(65))
    n = 20000
    a = np.column_stack([rng.uniform(-2.0, 2.0, (n, 2)), rng.uniform(-np.pi, np.pi, n)])
    near = rng.choice([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi], n) + rng.choice(
        [1e-8, -1e-8, 1e-3, -1e-3, 0.5], n)
    b = np.column_stack([a[:, :2] + rng.normal(0.0, 0.5, (n, 2)), a[:, 2] + near])
    for w in BOUND_WEIGHTS:
        got, ref = se2_pair_sq(a, b, w), se2_pair_sq_three_branch(a, b, w)
        assert got.tobytes() == ref.tobytes()
