"""Network layer tests: hand-written gradients, pooling plans, the demo task.

Every layer's backward pass is checked against central differences through
its own forward, and the linear layers against exact adjointness."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from liegraph.graph import laplacian, power_lambda_max, rescale
from liegraph.network import (
    DENSE_FILL,
    ChebConv,
    ChebTerms,
    Dense,
    GlobalMaxPool,
    LogSoftmax,
    Model,
    Pool,
    PoolPlan,
    ReLU,
    TrainingDiverged,
    Unpool,
    build_demo,
    coarsen,
    lift_images,
    nll_loss,
    oriented_bars,
    train_demo,
    _add_row,
)
from liegraph.sampling import GridKind, GridSpec, RuleError, icosphere
from liegraph.spectral import cheb_terms, rotation_permutation

from conftest import DEMO_CALL, EPS_ANISO, built
from oracles import apply_permutation, central_difference, chebconv_einsum, max_pool_reduceat

TRAIN_DEMO_ROWS = Path(__file__).parent / "data" / "train_demo_rows.json"


@pytest.fixture(scope="module")
def small_rescaled():
    g = built(GridKind.SE2_GRID, nx=4, ny=4, orient=2, epsilon=EPS_ANISO,
              alpha=1.0, knn=8)
    return rescale(power_lambda_max(laplacian(g)))


@pytest.fixture(scope="module")
def demo_setup():
    return build_demo(seed=3)


@pytest.fixture(scope="module")
def operator_laps(se2_8x8x4_lap):
    """One rescaled Laplacian on each side of the DENSE_FILL rule, with its
    sampling: se2 8x8x4 (sparse) and the demo's coarse se2 4x4x4, K=16
    (dense)."""
    coarse = built(GridKind.SE2_GRID, nx=4, ny=4, orient=4, epsilon=EPS_ANISO,
                   alpha=1.0, knn=16)
    return {"sparse": (rescale(se2_8x8x4_lap), GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4)),
            "dense": (rescale(power_lambda_max(laplacian(coarse))), coarse.vertices.spec)}


def operator_conv(operator_laps, form, n_in, n_out, order, rng):
    """A ChebConv on the `form` Laplacian, checked to take that path."""
    lap, spec = operator_laps[form]
    conv = ChebConv(lap, n_in, n_out, order, rng)
    assert conv.dense == (form == "dense")
    assert conv.dense == (lap.matrix.nnz * DENSE_FILL >= lap.n ** 2)
    return conv, spec


def probe_indices(rng, shape, count):
    flat = rng.choice(int(np.prod(shape)), size=min(count, int(np.prod(shape))),
                      replace=False)
    return [np.unravel_index(i, shape) for i in flat]


def check_input_gradient(layer, x, rng, rel=1e-5, count=6):
    c = rng.standard_normal(layer.forward(x).shape)

    def loss():
        return float(np.sum(c * layer.forward(x)))

    layer.forward(x)
    gx = layer.backward(c)
    for idx in probe_indices(rng, x.shape, count):
        fd = central_difference(loss, x, idx)
        assert abs(gx[idx] - fd) <= rel * max(1.0, abs(fd)), idx
    return c


def check_param_gradients(layer, x, c, rng, rel=1e-5, count=6):
    def loss():
        return float(np.sum(c * layer.forward(x)))

    for _, g in layer.params():
        g[...] = 0.0
    layer.forward(x)
    layer.backward(c)
    for p, g in layer.params():
        for idx in probe_indices(rng, p.shape, count):
            fd = central_difference(loss, p, idx)
            assert abs(g[idx] - fd) <= rel * max(1.0, abs(fd)), (p.shape, idx)


def test_chebconv_gradients(small_rescaled):
    rng = np.random.Generator(np.random.Philox(10))
    conv = ChebConv(small_rescaled, 2, 3, order=4, rng=rng)
    x = rng.standard_normal((small_rescaled.n, 5, 2))
    c = check_input_gradient(conv, x, rng)
    check_param_gradients(conv, x, c, rng)


def test_chebconv_validation(small_rescaled, se2_8x8x4_lap):
    rng = np.random.Generator(np.random.Philox(11))
    with pytest.raises(ValueError):
        ChebConv(se2_8x8x4_lap, 1, 1, 3, rng)     # not rescaled
    with pytest.raises(ValueError):
        ChebConv(small_rescaled, 1, 1, 0, rng)


def test_relu_gradient():
    rng = np.random.Generator(np.random.Philox(12))
    relu = ReLU()
    x = rng.standard_normal((30, 4, 2))
    x += 0.2 * np.sign(x)      # keep probes away from the kink
    check_input_gradient(relu, x, rng)


def test_relu_matches_where_oracle():
    """On finite inputs, signed zeros included, forward equals the np.where
    form bit for bit and backward in value."""
    rng = np.random.Generator(np.random.Philox(34))
    x = rng.standard_normal((64, 5, 3))
    x[::4] = 0.0
    x[1::4] = -0.0
    gy = rng.standard_normal(x.shape)
    relu = ReLU()
    assert relu.forward(x).tobytes() == np.where(x > 0.0, x, 0.0).tobytes()
    np.testing.assert_array_equal(relu.backward(gy), np.where(x > 0.0, gy, 0.0))


def test_relu_propagates_nan():
    """A NaN pre-activation stays NaN; its gradient is zeroed."""
    relu = ReLU()
    y = relu.forward(np.array([np.nan, -1.0, 2.0]))
    assert np.isnan(y[0]) and y[1] == 0.0 and y[2] == 2.0
    np.testing.assert_array_equal(relu.backward(np.full(3, 5.0)), [0.0, 0.0, 5.0])


def test_dense_gradients():
    rng = np.random.Generator(np.random.Philox(13))
    layer = Dense(6, 4, rng)
    x = rng.standard_normal((9, 6))
    c = check_input_gradient(layer, x, rng)
    check_param_gradients(layer, x, c, rng)


def test_logsoftmax_gradient_and_rows():
    rng = np.random.Generator(np.random.Philox(14))
    layer = LogSoftmax()
    x = rng.standard_normal((7, 5))
    check_input_gradient(layer, x, rng)
    out = layer.forward(x)
    np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)


def test_nll_loss_gradient():
    rng = np.random.Generator(np.random.Philox(15))
    lp = rng.standard_normal((8, 4))
    labels = rng.integers(0, 4, 8)
    loss, grad = nll_loss(lp, labels)
    assert loss == pytest.approx(-np.mean(lp[np.arange(8), labels]))
    for idx in probe_indices(rng, lp.shape, 8):
        fd = central_difference(lambda: nll_loss(lp, labels)[0], lp, idx)
        assert abs(grad[idx] - fd) <= 1e-8


def test_r2_pool_gradients():
    rng = np.random.Generator(np.random.Philox(16))
    spec = GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2)
    plan = coarsen(spec)[1]
    pool = Pool(plan)
    x = rng.standard_normal((spec.n_vertices, 3, 2))
    # strict winners so the finite-difference step cannot flip them
    xs = x[plan.order].reshape(plan.n_coarse, 4, -1)
    gap = np.sort(xs, axis=1)[:, -1] - np.sort(xs, axis=1)[:, -2]
    assert gap.min() > 1e-3
    check_input_gradient(pool, x, rng)


def test_s2_pool_gradients():
    rng = np.random.Generator(np.random.Philox(17))
    spec = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=2)
    plan = coarsen(spec)[1]
    pool = Pool(plan)
    x = rng.standard_normal((spec.n_vertices, 2, 3))
    check_input_gradient(pool, x, rng)


def test_unpool_gradients():
    rng = np.random.Generator(np.random.Philox(18))
    spec = GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2)
    plan = coarsen(spec)[1]
    layer = Unpool(plan)
    y = rng.standard_normal((plan.n_coarse, 3, 2))
    check_input_gradient(layer, y, rng)


def test_global_max_gradient_routes_to_argmax():
    rng = np.random.Generator(np.random.Philox(19))
    layer = GlobalMaxPool()
    x = rng.standard_normal((20, 4, 3))
    check_input_gradient(layer, x, rng)
    layer.forward(x)
    gy = rng.standard_normal((4, 3))
    gx = layer.backward(gy)
    for b in range(4):
        for ch in range(3):
            v = np.argmax(x[:, b, ch])
            assert gx[v, b, ch] == gy[b, ch]
    assert np.count_nonzero(gx) == 12


def test_global_max_permutation_invariant():
    rng = np.random.Generator(np.random.Philox(20))
    x = rng.standard_normal((24, 3, 2))
    perm = rng.permutation(24)
    a = GlobalMaxPool().forward(x)
    b = GlobalMaxPool().forward(x[perm])
    np.testing.assert_array_equal(a, b)


def test_pool_backward_is_adjoint():
    """<layer(x), y> = <x, backward(y)> at a base point, for max pooling on
    both plan kinds and for unpooling (which is linear)."""
    rng = np.random.Generator(np.random.Philox(21))
    s2_plan = coarsen(GridSpec(GridKind.S2_ICOSAHEDRAL, level=1))[1]
    cases = [(Pool(coarsen(GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2))[1]), 32),
             (Pool(s2_plan), 42),
             (Unpool(s2_plan), 12)]
    for layer, n in cases:
        x = rng.standard_normal((n, 2, 2))
        out = layer.forward(x)
        y = rng.standard_normal(out.shape)
        lhs = float(np.sum(out * y))
        rhs = float(np.sum(x * layer.backward(y)))
        assert lhs == pytest.approx(rhs, rel=1e-12), type(layer).__name__


def test_max_pool_tie_routes_lowest_id():
    plan = coarsen(GridSpec(GridKind.R2_GRID, nx=4, ny=4))[1]
    x = np.zeros((16, 1, 1))
    # cluster 0 holds fine ids {0, 1, 4, 5}; tie the max between 0 and 5
    x[0] = x[5] = 3.0
    pool = Pool(plan)
    out = pool.forward(x)
    assert out[0, 0, 0] == 3.0
    gx = pool.backward(np.ones((4, 1, 1)))
    assert gx[0, 0, 0] == 1.0 and gx[5, 0, 0] == 0.0


def test_icosahedral_parent_keeps_value():
    """A level-1 parent vertex that holds the cluster max pools to itself."""
    spec = GridSpec(GridKind.S2_ICOSAHEDRAL, level=1)
    plan = coarsen(spec)[1]
    x = np.full((42, 1, 1), -1.0)
    x[:12, 0, 0] = np.arange(12) + 10.0
    out = Pool(plan).forward(x)
    np.testing.assert_array_equal(out[:, 0, 0], np.arange(12) + 10.0)


def test_pool_plan_layout():
    spec = GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4)
    plan = coarsen(spec)[1]
    assert plan.n_coarse == 64
    assert np.all(plan.sizes == 4)
    assert np.all(plan.cluster >= 0)
    assert coarsen(spec)[0].nx == 4
    # icosahedral: prefix vertices stay in their own cluster
    so3 = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=2)
    splan = coarsen(so3)[1]
    assert splan.n_coarse == 24
    for k in range(2):
        for s in range(12):
            assert splan.cluster[k * 42 + s] == k * 12 + s
    assert coarsen(so3)[0].level == 0
    # a plan from a cluster map: members by cluster then id, -1 dropped
    plan = PoolPlan(np.array([1, -1, 0, 1]), 2)
    np.testing.assert_array_equal(plan.order, [2, 0, 3])
    np.testing.assert_array_equal(plan.starts, [0, 1])
    np.testing.assert_array_equal(plan.sizes, [1, 2])


def test_odd_grid_drops_trailing():
    spec = GridSpec(GridKind.R2_GRID, nx=5, ny=5)
    plan = coarsen(spec)[1]
    ids = np.arange(25)
    dropped = (ids % 5 == 4) | (ids // 5 == 4)
    assert np.all(plan.cluster[dropped] == -1)
    assert np.all(plan.cluster[~dropped] >= 0)
    x = np.arange(25.0).reshape(25, 1, 1)
    pool = Pool(plan)
    pool.forward(x)
    gx = pool.backward(np.ones((4, 1, 1)))
    assert np.all(gx[dropped] == 0.0)


def test_pool_plan_validation():
    with pytest.raises(ValueError, match="grid too small to pool"):
        coarsen(GridSpec(GridKind.R2_GRID, nx=1, ny=1))
    with pytest.raises(ValueError, match="level 0 cannot be pooled"):
        coarsen(GridSpec(GridKind.S2_ICOSAHEDRAL, level=0))


@pytest.mark.parametrize("cluster, n_coarse, field, entry, message", [
    ([0, 0, 1], 0, "n_coarse", None, "0 coarse vertices for 3 fine ones$"),
    ([0, 0, 1], 4, "n_coarse", None, "4 coarse vertices for 3 fine ones$"),
    ([0, 2, 1], 2, "cluster", 1, r"cluster id 2 outside \[-1, 2\) \(entry 1\)$"),
    ([0, -1, -5], 2, "cluster", 2, r"cluster id -5 outside \[-1, 2\) \(entry 2\)$"),
    ([0, -1, 0], 2, "cluster", None, "coarse vertex 1 has no fine member$"),
], ids=["n_coarse_0", "n_coarse_above_v_fine", "id_n_coarse", "id_minus_5", "empty_cluster"])
def test_pool_plan_checks(cluster, n_coarse, field, entry, message):
    """PoolPlan checks the count, then every id, then that no cluster is
    empty, and names the first cluster entry at fault only for a bad id."""
    with pytest.raises(RuleError, match=message) as exc:
        PoolPlan(np.array(cluster), n_coarse)
    assert exc.value.entry == entry
    assert exc.value.field == field


@pytest.mark.parametrize("kind, nx, ny, n_orient", [
    (GridKind.R2_GRID, 2, 3, 1), (GridKind.R2_GRID, 5, 5, 1), (GridKind.R2_GRID, 16, 16, 1),
    (GridKind.SE2_GRID, 2, 2, 1), (GridKind.SE2_GRID, 4, 4, 2), (GridKind.SE2_GRID, 5, 6, 3),
    (GridKind.SE2_GRID, 9, 7, 4), (GridKind.SE2_GRID, 8, 8, 5), (GridKind.SE2_GRID, 7, 3, 6),
])
def test_coarsen_grid_matches_loop(kind, nx, ny, n_orient):
    """Every grid cluster id, by a loop over (ix, iy, slice): 2x2 blocks per
    slice, an odd trailing row or column dropped."""
    spec = GridSpec(kind, nx=nx, ny=ny, n_orient=n_orient)
    coarse, plan = coarsen(spec)
    cnx, cny = nx // 2, ny // 2
    assert coarse == GridSpec(kind, nx=cnx, ny=cny, n_orient=n_orient)
    assert plan.n_coarse == coarse.n_vertices == cnx * cny * n_orient
    expected = []
    for k in range(n_orient):
        for iy in range(ny):
            for ix in range(nx):
                inside = ix < 2 * cnx and iy < 2 * cny
                expected.append(k * cnx * cny + (iy // 2) * cnx + ix // 2 if inside else -1)
    assert plan.cluster.tolist() == expected


@pytest.mark.parametrize("kind, n_orient", [(GridKind.S2_ICOSAHEDRAL, 1),
                                            (GridKind.SO3_ICOSAHEDRAL, 2)])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_coarsen_sphere_matches_midpoints(kind, n_orient, level):
    """A midpoint folds into the lower id of the two level-(l-1) points whose
    normalised sum it is (the closest such pair, the edge it splits), a
    prefix point into itself, on every slice."""
    coarse, plan = coarsen(GridSpec(kind, level=level, n_orient=n_orient))
    assert coarse == GridSpec(kind, level=level - 1, n_orient=n_orient)
    fine_pts, coarse_pts = icosphere(level)[0], icosphere(level - 1)[0]
    ns_c = len(coarse_pts)
    assert plan.n_coarse == coarse.n_vertices == ns_c * n_orient
    np.testing.assert_array_equal(fine_pts[:ns_c], coarse_pts)
    a, b = np.triu_indices(ns_c, 1)
    sums = coarse_pts[a] + coarse_pts[b]
    norms = np.linalg.norm(sums, axis=1)
    a, b, sums = a[norms > 0], b[norms > 0], sums[norms > 0] / norms[norms > 0, None]
    chord = np.linalg.norm(coarse_pts[a] - coarse_pts[b], axis=1)
    spatial = list(range(ns_c))
    for m in fine_pts[ns_c:]:
        hits = np.flatnonzero(np.abs(sums - m).max(axis=1) <= 1e-12)
        edge = hits[np.argmin(chord[hits])]
        spatial.append(min(a[edge], b[edge]))
    expected = [k * ns_c + s for k in range(n_orient) for s in spatial]
    assert plan.cluster.tolist() == expected


def test_coarsen_twice():
    """so3 level 3 x 6 coarsens to level 2, then level 1, every plan's
    n_coarse the next level's vertex count."""
    spec = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=3, n_orient=6)
    mid, first = coarsen(spec)
    last, second = coarsen(mid)
    assert last == GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=6)
    assert first.cluster.size == spec.n_vertices
    assert first.n_coarse == second.cluster.size == mid.n_vertices
    assert second.n_coarse == last.n_vertices == 42 * 6


def test_pool_plan_frozen():
    """A plan is its cluster map: the layout is derived, never passed, and
    neither the fields nor the arrays can change."""
    plan = PoolPlan(np.array([1, -1, 0, 1]), 2)
    with pytest.raises(TypeError):
        PoolPlan(np.array([0, 1]), 2, order=np.array([1, 0]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.n_coarse = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.order = np.array([0, 2, 3])
    for name in ("cluster", "order", "starts", "sizes"):
        arr = getattr(plan, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_chebconv_equivariance(operator_laps):
    check_chebconv_equivariance(operator_laps, "sparse")


def test_chebconv_equivariance_dense(operator_laps):
    check_chebconv_equivariance(operator_laps, "dense")


def check_chebconv_equivariance(operator_laps, form):
    rng = np.random.Generator(np.random.Philox(23))
    conv, spec = operator_conv(operator_laps, form, 2, 3, 4, rng)
    perm = rotation_permutation(spec)
    x = rng.standard_normal((spec.n_vertices, 5, 2))
    a = conv.forward(apply_permutation(perm, x))
    b = apply_permutation(perm, conv.forward(x))
    assert np.max(np.abs(a - b)) <= 1e-8
    # the layer is the channel-mixing Chebyshev filter, batch column by column
    y = conv.forward(x)
    for col in range(x.shape[1]):
        xc = x[:, col:col + 1]
        ref = chebconv_einsum(cheb_terms(conv.lap.matrix, xc, conv.order), conv.theta, conv.bias,
                              np.zeros(xc.shape[:2] + (conv.n_out,)), conv.lap.matrix)[0]
        np.testing.assert_allclose(y[:, col], ref[:, 0], rtol=0, atol=1e-12)


def test_pool_equivariance():
    """Max pooling commutes with the quarter turn via the coarse-grid turn."""
    spec = GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4)
    coarse_spec, plan = coarsen(spec)
    fine_perm = rotation_permutation(spec)
    coarse_perm = rotation_permutation(coarse_spec)
    rng = np.random.Generator(np.random.Philox(24))
    x = rng.standard_normal((spec.n_vertices, 3, 2))
    a = Pool(plan).forward(apply_permutation(fine_perm, x))
    b = apply_permutation(coarse_perm, Pool(plan).forward(x))
    np.testing.assert_array_equal(a, b)


def test_model_end_to_end_gradient(demo_setup):
    rng = np.random.Generator(np.random.Philox(25))
    model = demo_setup.model
    x = rng.standard_normal((256, 3, 1))
    labels = rng.integers(0, 4, 3)

    def loss():
        return nll_loss(model.forward(x), labels)[0]

    model.zero_grads()
    lp = model.forward(x)
    _, grad = nll_loss(lp, labels)
    gx = model.backward(grad)
    theta, g_theta = model.params()[0]
    for idx in probe_indices(rng, theta.shape, 5):
        fd = central_difference(loss, theta, idx)
        assert abs(g_theta[idx] - fd) <= 1e-5 * max(1.0, abs(fd))
    for idx in probe_indices(rng, x.shape, 5):
        fd = central_difference(loss, x, idx)
        assert abs(gx[idx] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_model_rotation_invariant_logits(demo_setup):
    rng = np.random.Generator(np.random.Philox(26))
    x = rng.standard_normal((256, 6, 1))
    base = demo_setup.model.forward(x)
    rotated = demo_setup.model.forward(apply_permutation(demo_setup.perm, x))
    assert np.max(np.abs(base - rotated)) <= 1e-10
    np.testing.assert_array_equal(np.argmax(base, axis=1), np.argmax(rotated, axis=1))


def test_oriented_bars_dataset():
    images, labels = oriented_bars(64, 8, 8, seed=4)
    assert images.shape == (64, 8, 8)
    counts = np.bincount(labels, minlength=4)
    np.testing.assert_array_equal(counts, [16, 16, 16, 16])
    for s in range(64):
        assert np.count_nonzero(images[s] == 1.0) >= 4
    again, labels2 = oriented_bars(64, 8, 8, seed=4)
    np.testing.assert_array_equal(images, again)
    np.testing.assert_array_equal(labels, labels2)


def test_lift_images():
    images = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
    sig = lift_images(images, 3)
    assert sig.shape == (36, 2, 1)
    for k in range(3):
        np.testing.assert_array_equal(sig[k * 12:(k + 1) * 12, 0, 0],
                                      images[0].ravel())


def test_untrained_accuracy_near_chance(demo_setup):
    rows, _ = train_demo(epochs=0, setup=demo_setup)
    assert len(rows) == 1
    assert rows[0]["epoch"] == 0
    assert 0.15 <= rows[0]["accuracy"] <= 0.40


def assert_close_scaled(actual, expected, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(actual - expected)) <= tol * scale


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("batch", [1, 32, 128])
@pytest.mark.parametrize("n_in", [1, 8])
def test_chebconv_matches_einsum_oracle(operator_laps, n_in, batch, order):
    check_chebconv_against_einsum(operator_laps, "sparse", n_in, batch, order)


@pytest.mark.parametrize("order", [1, 2, 4])
@pytest.mark.parametrize("batch", [1, 32, 128])
@pytest.mark.parametrize("n_in", [1, 8])
def test_chebconv_dense_matches_einsum_oracle(operator_laps, n_in, batch, order):
    check_chebconv_against_einsum(operator_laps, "dense", n_in, batch, order)


def check_chebconv_against_einsum(operator_laps, form, n_in, batch, order):
    """Either operator form with the GEMM contraction computes what the
    recurrence and the per-term einsum do."""
    rng = np.random.Generator(np.random.Philox([27, n_in, batch, order]))
    conv, _ = operator_conv(operator_laps, form, n_in, 5, order, rng)
    lap = conv.lap
    conv.bias[:] = rng.standard_normal(5)
    x = rng.standard_normal((lap.n, batch, n_in))
    gy = rng.standard_normal((lap.n, batch, 5))
    z = cheb_terms(lap.matrix, x, order)
    y_ref, g_theta_ref, g_bias_ref, gx_ref = chebconv_einsum(z, conv.theta, conv.bias, gy,
                                                             lap.matrix)
    assert_close_scaled(conv.forward(x), y_ref)
    gx = conv.backward(gy)
    assert_close_scaled(conv.g_theta, g_theta_ref)
    assert_close_scaled(conv.g_bias, g_bias_ref)
    assert_close_scaled(gx, gx_ref)


@pytest.mark.parametrize("batch", [1, 32, 128])
@pytest.mark.parametrize("k", [0, 3], ids=["L0_sparse", "L3_dense"])
def test_chebconv_terms_input_matches_signal(demo_setup, k, batch):
    """On either operator form, a forward on the layer's own terms of x gives
    the signal path's output, g_theta and g_bias bit for bit, and backward
    after terms returns no input gradient.  The terms are (V, B, J, I), a
    permuted subset of columns taken on axis 1 has the bits of that subset's
    own terms, and stacks with the wrong J or V are refused."""
    like = demo_setup.model.layers[k]
    rng = np.random.Generator(np.random.Philox([37, k, batch]))
    conv = ChebConv(like.lap, like.n_in, like.n_out, like.order, rng)
    assert conv.dense == (k == 3)
    conv.bias[:] = rng.standard_normal(conv.n_out)
    x = rng.standard_normal((conv.lap.n, batch, conv.n_in))
    gy = rng.standard_normal((conv.lap.n, batch, conv.n_out))
    y = conv.forward(x)
    assert conv.backward(gy).shape == x.shape
    g_theta, g_bias = conv.g_theta.copy(), conv.g_bias.copy()
    conv.g_theta[...] = 0.0
    conv.g_bias[...] = 0.0
    terms = conv.terms(x)
    assert terms.z.shape == (conv.lap.n, batch, conv.order, conv.n_in)
    assert_same_bits(conv.forward(terms), y)
    assert conv.backward(gy) is None
    assert_same_bits(conv.g_theta, g_theta)
    assert_same_bits(conv.g_bias, g_bias)
    sel = rng.permutation(batch)[:max(1, batch // 2)]
    assert_same_bits(np.take(terms.z, sel, axis=1), conv.terms(x[:, sel]).z)
    for wrong in (terms.z[:, :, 1:], terms.z[1:]):
        with pytest.raises(ValueError, match="terms of shape"):
            conv.forward(ChebTerms(wrong))


def max_plans():
    """An odd planar grid (trailing column dropped) and so3 level 2 x 2,
    whose icosahedral clusters have unequal sizes."""
    return [coarsen(GridSpec(GridKind.SE2_GRID, nx=5, ny=6, n_orient=3))[1],
            coarsen(GridSpec(GridKind.SO3_ICOSAHEDRAL, level=2, n_orient=2))[1]]


def test_max_pool_matches_reduceat_oracle():
    """Slot-wise maxima give the same top and the same (lowest-id) winner."""
    rng = np.random.Generator(np.random.Philox(28))
    plans = max_plans()
    assert len(np.unique(plans[1].sizes)) > 1
    # integers in a narrow range so most clusters hold ties
    cases = [(plan, np.round(2.0 * rng.standard_normal((plan.cluster.size, 4, 3))))
             for plan in plans]
    # the demo's fine pool at its batch sizes on post-ReLU input, tied at 0
    demo = coarsen(GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4))[1]
    cases += [(demo, np.maximum(rng.standard_normal((256, batch, 8)), 0.0))
              for batch in (32, 128)]
    for plan, x in cases:
        pool = Pool(plan)
        top_ref, winner_ref = max_pool_reduceat(x, plan.order, plan.starts, plan.cluster)
        np.testing.assert_array_equal(pool.forward(x), top_ref)
        np.testing.assert_array_equal(pool._winner, winner_ref)


def test_max_pool_nan_stays_in_cluster():
    """A NaN member makes the cluster max NaN and hands the win to the
    cluster's last member, wherever the NaN sits (singleton clusters keep
    themselves), so backward never writes into another cluster."""
    rng = np.random.Generator(np.random.Philox(29))
    for plan in max_plans() + [PoolPlan(np.arange(6), 6)]:
        pool = Pool(plan)
        x = rng.standard_normal((plan.cluster.size, 4, 3))
        x[rng.random(x.shape) < 0.2] = np.nan
        top = pool.forward(x)
        has_nan = np.logical_or.reduceat(np.isnan(x[plan.order]), plan.starts, axis=0)
        assert has_nan.any() and not has_nan.all()
        np.testing.assert_array_equal(np.isnan(top), has_nan)
        ids = np.arange(plan.n_coarse)[:, None, None]
        np.testing.assert_array_equal(plan.cluster[pool._winner], np.broadcast_to(ids, top.shape))
        last = np.broadcast_to(plan.order[plan.starts + plan.sizes - 1][:, None, None], top.shape)
        np.testing.assert_array_equal(pool._winner[has_nan], last[has_nan])
        gx = pool.backward(np.ones(top.shape))
        np.testing.assert_array_equal(gx.sum(axis=0), np.full((4, 3), plan.n_coarse))
        assert np.all(gx[plan.cluster < 0] == 0.0)


def test_global_max_nan_wins():
    x = np.zeros((6, 2, 1))
    x[4, 1, 0] = np.nan
    layer = GlobalMaxPool()
    out = layer.forward(x)
    assert out[0, 0] == 0.0 and np.isnan(out[1, 0])
    gx = layer.backward(np.ones((2, 1)))
    assert gx[0, 0, 0] == 1.0 and gx[4, 1, 0] == 1.0 and np.count_nonzero(gx) == 2


@pytest.mark.parametrize("rows, width", [(1, 3), (63, 1), (65, 8), (200, 1), (8197, 16)])
def test_add_row_matches_broadcast(rows, width):
    """The tiled bias add gives the broadcast sums bit for bit, on row counts
    below, above and off a multiple of its 64-row tile."""
    rng = np.random.Generator(np.random.Philox([38, rows, width]))
    y = rng.standard_normal((rows, width))
    row = rng.standard_normal(width)
    expected = y + row
    _add_row(y, row)
    assert_same_bits(y, expected)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("k, n_out", [(0, 1), (3, 16)], ids=["L0_one_out", "L3"])
def test_chebconv_bias_matches_broadcast(demo_setup, k, n_out, batch):
    """ChebConv's output is its product plus the broadcast bias, bit for bit,
    with one output channel and with one batch column."""
    like = demo_setup.model.layers[k]
    rng = np.random.Generator(np.random.Philox([39, k, batch]))
    conv = ChebConv(like.lap, like.n_in, n_out, like.order, rng)
    conv.bias[:] = rng.standard_normal(n_out)
    terms = conv.terms(rng.standard_normal((conv.lap.n, batch, conv.n_in)))
    v, b, j, i = terms.z.shape
    expected = terms.z.reshape(v * b, j * i) @ conv.theta.reshape(j * i, n_out) + conv.bias
    assert_same_bits(conv.forward(terms, train=False), expected.reshape(v, b, n_out))


def test_flat_scatters_match_put_along_axis():
    """Pool's and GlobalMaxPool's backward scatters through flat indices give
    what np.put_along_axis gives, bit for bit, and GlobalMaxPool's training
    forward, read at its argmax, gives the reduction's maximum on post-ReLU
    input with ties."""
    rng = np.random.Generator(np.random.Philox(40))
    for plan in max_plans():
        pool = Pool(plan)
        pool.forward(np.round(2.0 * rng.standard_normal((plan.cluster.size, 4, 3))))
        gy = rng.standard_normal((plan.n_coarse, 4, 3))
        expected = np.zeros((plan.cluster.size, 4, 3))
        np.put_along_axis(expected, pool._winner, gy, axis=0)
        assert_same_bits(pool.backward(gy), expected)
    for shape in [(64, 1, 16), (64, 32, 16), (7, 5, 1)]:
        x = np.maximum(np.round(2.0 * rng.standard_normal(shape)), 0.0)
        layer = GlobalMaxPool()
        assert_same_bits(layer.forward(x), x.max(axis=0))
        gy = rng.standard_normal(shape[1:])
        expected = np.zeros(shape)
        np.put_along_axis(expected, np.argmax(x, axis=0)[None], gy[None], axis=0)
        assert_same_bits(layer.backward(gy), expected)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64))


def cached_arrays(model):
    return {(k, name): value for k, layer in enumerate(model.layers)
            for name, value in vars(layer).items()
            if name.startswith("_") and isinstance(value, np.ndarray)}


def test_eval_forward_matches_training_forward():
    """forward(x, train=False) gives the training forward's output bit for bit:
    on the demo model (its dense layer's operator built for the call and
    cached), and on an S2 pool-unpool stack with ties and NaNs."""
    model = build_demo(seed=4).model
    rng = np.random.Generator(np.random.Philox(35))
    for batch in (3, 32):
        x = rng.standard_normal((256, batch, 1))
        first = model.forward(x, train=False)
        assert_same_bits(model.forward(x), first)
        assert_same_bits(model.forward(x, train=False), first)
        model.release()
    plan = coarsen(GridSpec(GridKind.S2_ICOSAHEDRAL, level=2))[1]
    stack = Model([Pool(plan), Unpool(plan)])
    x = np.round(rng.standard_normal((plan.cluster.size, 5, 2)))
    x[rng.random(x.shape) < 0.05] = np.nan
    assert_same_bits(stack.forward(x, train=False), stack.forward(x))


def test_eval_forward_caches_nothing():
    """After a release an evaluation forward stores no array on any layer,
    and after a training forward it leaves that forward's caches in place."""
    model = build_demo(seed=4).model
    x = np.random.Generator(np.random.Philox(36)).standard_normal((256, 4, 1))
    model.release()
    model.forward(x, train=False)
    assert not cached_arrays(model)
    model.forward(x)
    cached = cached_arrays(model)
    assert {type(model.layers[k]).__name__ for k, _ in cached} >= {
        "ChebConv", "ReLU", "Pool", "GlobalMaxPool", "Dense", "LogSoftmax"}
    model.forward(x[:, :2], train=False)
    after = cached_arrays(model)
    assert after.keys() == cached.keys()
    assert all(after[key] is cached[key] for key in cached)


def wrap_forwards(model):
    """Wrap each layer's forward through an instance attribute, as the
    benchmark's tracer does; returns {layer index: [(train, columns), ...]},
    filled as forwards run.  Columns are a signal's or terms' batch axis, or
    the rows of a (B, C) array."""
    calls = {}

    def counted(k, forward):
        def wrapper(x, *args, **kwargs):
            arr = x.z if isinstance(x, ChebTerms) else x
            cols = arr.shape[0] if arr.ndim == 2 else arr.shape[1]
            calls.setdefault(k, []).append(
                (args[0] if args else kwargs.get("train", True), cols))
            return forward(x, *args, **kwargs)
        return wrapper

    for k, layer in enumerate(model.layers):
        layer.forward = counted(k, layer.forward)
    return calls


def test_train_demo_forward_calls_per_layer():
    """Each layer's forward, wrapped through an instance attribute as the
    benchmark's tracer does, runs 32 times in one epoch at batch 32: the
    untrained loss over 256 training columns and the test and rotated test
    passes over 128 columns each, in 8 + 4 + 4 evaluation slices, then 8
    training batches, then the two test passes again in 4 + 4 slices."""
    setup = build_demo(seed=0)
    calls = wrap_forwards(setup.model)
    train_demo(epochs=1, lr=0.2, seed=0, setup=setup)
    assert sorted(calls) == list(range(len(setup.model.layers)))
    for k, seen in calls.items():
        train = [t for t, _ in seen]
        assert train == [False] * 16 + [True] * 8 + [False] * 8, k


def slices(n, batch):
    return [min(batch, n - lo) for lo in range(0, n, batch)]


@pytest.mark.parametrize("batch", [32, 50])
def test_train_demo_evaluates_in_batch_slices(batch):
    """No layer's forward sees more than `batch` columns: every evaluation
    runs over consecutive slices of its set, the last one shorter, and
    training over the batches."""
    setup = build_demo(seed=0)
    calls = wrap_forwards(setup.model)
    train_demo(epochs=1, lr=0.2, seed=0, batch=batch, n_train=100, n_test=70, setup=setup)
    train, test = slices(100, batch), slices(70, batch)
    want = ([(False, c) for c in train + test + test] + [(True, c) for c in train]
            + [(False, c) for c in test + test])
    assert sorted(calls) == list(range(len(setup.model.layers)))
    for k, seen in calls.items():
        assert seen == want, k
        assert max(c for _, c in seen) <= batch


@pytest.mark.parametrize("cols", [1, 31, 32, 33, 100, 256])
def test_eval_forward_is_column_independent(cols):
    """On the demo model, an evaluation forward over `cols` columns of the
    bar images' terms equals, bit for bit, the concatenated forwards over
    its 32-column slices: the rule that lets train_demo evaluate in slices
    with the same numbers."""
    model = build_demo(seed=0).model
    images, _ = oriented_bars(cols, 8, 8, seed=cols)
    z = model.layers[0].terms(lift_images(images, 4)).z
    whole = model.forward(ChebTerms(z), train=False)
    parts = [model.forward(ChebTerms(z[:, lo:lo + 32]), train=False) for lo in range(0, cols, 32)]
    assert_same_bits(np.concatenate(parts), whole)


@pytest.mark.parametrize("epochs", [1, 2])
def test_train_demo_computes_input_terms_once(epochs):
    """The first layer's Chebyshev terms are computed once each for the train,
    test and rotated test sets, however many epochs run (a forward on a
    signal would compute them in every one of its 10 * epochs + 3 calls)."""
    setup = build_demo(seed=0)
    first = setup.model.layers[0]
    shapes = []

    def counted(x, train):
        shapes.append(x.shape)
        return ChebConv._terms(first, x, train)

    first._terms = counted
    train_demo(epochs=epochs, lr=0.2, seed=0, setup=setup)
    assert shapes == [(256, 256, 1), (256, 128, 1), (256, 128, 1)]


@pytest.mark.parametrize("arg, value", [("epochs", -1), ("batch", 0), ("batch", -1),
                                        ("n_train", 0), ("n_test", 0)])
def test_train_demo_refuses_bad_sizes(demo_setup, arg, value):
    """Sizes that would train nothing or fail deep inside are refused up
    front, with the argument's name."""
    with pytest.raises(ValueError, match=f"^{arg} must be"):
        train_demo(**{"epochs": 1, arg: value}, setup=demo_setup)


def test_train_demo_nan_lr_diverges():
    with pytest.raises(TrainingDiverged):
        train_demo(epochs=1, lr=float("nan"), seed=0)


def test_train_demo_releases_forward_caches():
    """A trained model keeps only parameters and plans, the dense layer's
    stacked operator and the input layer's term stacks included; it still
    runs."""
    rows, setup = train_demo(epochs=1, lr=0.2, seed=1)
    model = setup.model
    assert [layer.dense for layer in model.layers if isinstance(layer, ChebConv)] == [False, True]
    for layer in model.layers:
        cached = [name for name, value in vars(layer).items()
                  if name.startswith("_") and isinstance(value, (np.ndarray, ChebTerms))]
        assert not cached, (type(layer).__name__, cached)
    rng = np.random.Generator(np.random.Philox(30))
    x = rng.standard_normal((256, 3, 1))
    labels = rng.integers(0, 4, 3)
    model.zero_grads()
    _, grad = nll_loss(model.forward(x), labels)
    gx = model.backward(grad)
    assert gx.shape == x.shape and np.all(np.isfinite(gx))
    assert any(np.any(g != 0.0) for _, g in model.params())


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_train_demo_trajectory_locked(seed, demo_runs):
    """train_demo trains as when the rows in data/train_demo_rows.json were
    recorded, all five seeds with build_demo's lambda_max from the Lanczos
    estimate of power_lambda_max at its default tol 1e-4: accuracy and
    rotation consistency exactly, losses to 1e-12 relative, in every epoch.
    The rows come from the session's shared demo_runs, which make the
    recorded call."""
    with open(TRAIN_DEMO_ROWS) as fh:
        recorded = json.load(fh)
    assert recorded["call"] == DEMO_CALL
    rows, _ = demo_runs[0][seed]
    expected = recorded["rows"][str(seed)]
    assert [r["epoch"] for r in rows] == [r["epoch"] for r in expected]
    for got, want in zip(rows, expected):
        assert got["accuracy"] == want["accuracy"], got["epoch"]
        assert got["rotation_consistency"] == want["rotation_consistency"], got["epoch"]
        assert got["loss"] == pytest.approx(want["loss"], rel=1e-12, abs=0.0), got["epoch"]
