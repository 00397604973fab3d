"""Network layer tests: hand-written gradients, pooling plans, the demo task.

Every layer's backward pass is checked against central differences through
its own forward, and the linear layers against exact adjointness."""

import numpy as np
import pytest

from liegraph.graph import laplacian, power_lambda_max, rescale
from liegraph.network import (
    ChebConv,
    Dense,
    GlobalMaxPool,
    LogSoftmax,
    Model,
    Pool,
    PoolMode,
    TrainingDiverged,
    Unpool,
    build_demo,
    coarse_spec_r2,
    coarse_spec_s2,
    lift_images,
    nll_loss,
    oriented_bars,
    r2_pool_plan,
    rotation_consistency,
    s2_pool_plan,
    train_demo,
)
from liegraph.sampling import GridKind, GridSpec
from liegraph.spectral import apply_permutation, cheb_terms, rotation_permutation

from conftest import EPS_ANISO, built
from oracles import central_difference, chebconv_einsum, max_pool_reduceat


@pytest.fixture(scope="module")
def small_rescaled():
    g = built(GridKind.SE2_GRID, nx=4, ny=4, orient=2, epsilon=EPS_ANISO,
              alpha=1.0, knn=8)
    return rescale(power_lambda_max(laplacian(g)))


@pytest.fixture(scope="module")
def demo_setup():
    return build_demo(seed=3)


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
    from liegraph.network import ReLU
    relu = ReLU()
    x = rng.standard_normal((30, 4, 2))
    x += 0.2 * np.sign(x)      # keep probes away from the kink
    check_input_gradient(relu, x, rng)


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


@pytest.mark.parametrize("mode", [PoolMode.R2_MAX, PoolMode.R2_RAND])
def test_r2_pool_gradients(mode):
    rng = np.random.Generator(np.random.Philox(16))
    spec = GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2)
    plan = r2_pool_plan(spec, mode)
    pool = Pool(plan)
    x = rng.standard_normal((spec.n_vertices, 3, 2))
    if mode is PoolMode.R2_MAX:
        # strict winners so the finite-difference step cannot flip them
        xs = x[plan.order].reshape(plan.n_coarse, 4, -1)
        gap = np.sort(xs, axis=1)[:, -1] - np.sort(xs, axis=1)[:, -2]
        assert gap.min() > 1e-3
    check_input_gradient(pool, x, rng)


@pytest.mark.parametrize("mode", [PoolMode.S2_MAX, PoolMode.S2_AVG])
def test_s2_pool_gradients(mode):
    rng = np.random.Generator(np.random.Philox(17))
    spec = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=2)
    plan = s2_pool_plan(spec, mode)
    pool = Pool(plan)
    x = rng.standard_normal((spec.n_vertices, 2, 3))
    check_input_gradient(pool, x, rng)


@pytest.mark.parametrize("unpool_mode", ["avg", "rand"])
def test_unpool_gradients(unpool_mode):
    rng = np.random.Generator(np.random.Philox(18))
    spec = GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2)
    plan = r2_pool_plan(spec, PoolMode.R2_RAND)
    layer = Unpool(plan, unpool_mode)
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
    """<pool(x), y> = <x, backward(y)> for every pooling mode at a base point."""
    rng = np.random.Generator(np.random.Philox(21))
    cases = [
        (Pool(r2_pool_plan(GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2), m)), 32)
        for m in (PoolMode.R2_MAX, PoolMode.R2_RAND)
    ] + [
        (Pool(s2_pool_plan(GridSpec(GridKind.S2_ICOSAHEDRAL, level=1), m)), 42)
        for m in (PoolMode.S2_MAX, PoolMode.S2_AVG)
    ]
    for pool, n in cases:
        x = rng.standard_normal((n, 2, 2))
        out = pool.forward(x)
        y = rng.standard_normal(out.shape)
        lhs = float(np.sum(out * y))
        rhs = float(np.sum(x * pool.backward(y)))
        assert lhs == pytest.approx(rhs, rel=1e-12), pool.plan.mode


def test_avg_pool_unpool_pairing():
    """Replicating unpool is the size-weighted adjoint of average pooling."""
    rng = np.random.Generator(np.random.Philox(22))
    plan = s2_pool_plan(GridSpec(GridKind.S2_ICOSAHEDRAL, level=1), PoolMode.S2_AVG)
    pool, unpool = Pool(plan), Unpool(plan, "avg")
    x = rng.standard_normal((42, 2, 2))
    y = rng.standard_normal((12, 2, 2))
    lhs = float(np.sum(pool.forward(x) * y))
    rhs = float(np.sum(x * unpool.forward(y / plan.sizes[:, None, None])))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_max_pool_tie_routes_lowest_id():
    plan = r2_pool_plan(GridSpec(GridKind.R2_GRID, nx=4, ny=4), PoolMode.R2_MAX)
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
    plan = s2_pool_plan(spec, PoolMode.S2_MAX)
    x = np.full((42, 1, 1), -1.0)
    x[:12, 0, 0] = np.arange(12) + 10.0
    out = Pool(plan).forward(x)
    np.testing.assert_array_equal(out[:, 0, 0], np.arange(12) + 10.0)


def test_pool_plan_layout():
    spec = GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4)
    plan = r2_pool_plan(spec, PoolMode.R2_MAX)
    assert plan.n_coarse == 64
    assert np.all(plan.sizes == 4)
    assert np.all(plan.cluster >= 0)
    assert coarse_spec_r2(spec).nx == 4
    # icosahedral: prefix vertices stay in their own cluster
    so3 = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=2)
    splan = s2_pool_plan(so3, PoolMode.S2_MAX)
    assert splan.n_coarse == 24
    for k in range(2):
        for s in range(12):
            assert splan.cluster[k * 42 + s] == k * 12 + s
    assert coarse_spec_s2(so3).level == 0


def test_odd_grid_drops_trailing():
    spec = GridSpec(GridKind.R2_GRID, nx=5, ny=5)
    plan = r2_pool_plan(spec, PoolMode.R2_MAX)
    assert plan.notes and "dropped" in plan.notes[0]
    ids = np.arange(25)
    dropped = (ids % 5 == 4) | (ids // 5 == 4)
    assert np.all(plan.cluster[dropped] == -1)
    assert np.all(plan.cluster[~dropped] >= 0)
    x = np.arange(25.0).reshape(25, 1, 1)
    pool = Pool(plan)
    pool.forward(x)
    gx = pool.backward(np.ones((4, 1, 1)))
    assert np.all(gx[dropped] == 0.0)


def test_redraw_deterministic():
    spec = GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2)
    plan = r2_pool_plan(spec, PoolMode.R2_RAND)
    plan.redraw(9)
    first = plan.chosen.copy()
    plan.redraw(9)
    np.testing.assert_array_equal(plan.chosen, first)
    # the drawn member really belongs to its cluster
    np.testing.assert_array_equal(plan.cluster[plan.chosen], np.arange(plan.n_coarse))


def test_pool_plan_validation():
    with pytest.raises(ValueError):
        r2_pool_plan(GridSpec(GridKind.S2_ICOSAHEDRAL, level=1), PoolMode.R2_MAX)
    with pytest.raises(ValueError):
        r2_pool_plan(GridSpec(GridKind.R2_GRID, nx=4, ny=4), PoolMode.S2_AVG)
    with pytest.raises(ValueError):
        r2_pool_plan(GridSpec(GridKind.R2_GRID, nx=1, ny=1), PoolMode.R2_MAX)
    with pytest.raises(ValueError):
        s2_pool_plan(GridSpec(GridKind.S2_ICOSAHEDRAL, level=0), PoolMode.S2_MAX)
    with pytest.raises(ValueError):
        s2_pool_plan(GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2), PoolMode.S2_MAX)
    plan = r2_pool_plan(GridSpec(GridKind.R2_GRID, nx=4, ny=4), PoolMode.R2_MAX)
    with pytest.raises(ValueError):
        Unpool(plan, "nearest")
    with pytest.raises(ValueError):
        Unpool(plan, "rand")       # no drawn member on a Max plan


def test_chebconv_equivariance(se2_8x8x4_lap):
    spec = GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4)
    perm = rotation_permutation(spec)
    rng = np.random.Generator(np.random.Philox(23))
    conv = ChebConv(rescale(se2_8x8x4_lap), 2, 3, order=4, rng=rng)
    x = rng.standard_normal((256, 5, 2))
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
    plan = r2_pool_plan(spec, PoolMode.R2_MAX)
    fine_perm = rotation_permutation(spec)
    coarse_perm = rotation_permutation(coarse_spec_r2(spec))
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
    assert rotation_consistency(demo_setup.model, x, demo_setup.perm) == 1.0


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
def test_chebconv_matches_einsum_oracle(se2_8x8x4_lap, n_in, batch, order):
    """The GEMM contraction computes what the per-term einsum does."""
    rng = np.random.Generator(np.random.Philox([27, n_in, batch, order]))
    lap = rescale(se2_8x8x4_lap)
    conv = ChebConv(lap, n_in, 5, order, rng)
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


def max_plans():
    """An odd planar grid (trailing column dropped) and so3 level 2 x 2,
    whose icosahedral clusters have unequal sizes."""
    return [r2_pool_plan(GridSpec(GridKind.SE2_GRID, nx=5, ny=6, n_orient=3), PoolMode.R2_MAX),
            s2_pool_plan(GridSpec(GridKind.SO3_ICOSAHEDRAL, level=2, n_orient=2),
                         PoolMode.S2_MAX)]


def test_max_pool_matches_reduceat_oracle():
    """Slot-wise maxima give the same top and the same (lowest-id) winner."""
    rng = np.random.Generator(np.random.Philox(28))
    plans = max_plans()
    assert len(np.unique(plans[1].sizes)) > 1
    for plan in plans:
        pool = Pool(plan)
        # integers in a narrow range so most clusters hold ties
        x = np.round(2.0 * rng.standard_normal((plan.cluster.size, 4, 3)))
        top_ref, winner_ref = max_pool_reduceat(x, plan.order, plan.starts, plan.cluster)
        np.testing.assert_array_equal(pool.forward(x), top_ref)
        np.testing.assert_array_equal(pool._winner, winner_ref)


def test_max_pool_nan_stays_in_cluster():
    """A NaN member makes the cluster max NaN and takes the win inside its own
    cluster, so backward never writes into another cluster."""
    rng = np.random.Generator(np.random.Philox(29))
    for plan in max_plans():
        pool = Pool(plan)
        x = rng.standard_normal((plan.cluster.size, 4, 3))
        x[rng.random(x.shape) < 0.2] = np.nan
        top = pool.forward(x)
        has_nan = np.logical_or.reduceat(np.isnan(x[plan.order]), plan.starts, axis=0)
        assert has_nan.any() and not has_nan.all()
        np.testing.assert_array_equal(np.isnan(top), has_nan)
        ids = np.arange(plan.n_coarse)[:, None, None]
        np.testing.assert_array_equal(plan.cluster[pool._winner], np.broadcast_to(ids, top.shape))
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


def test_train_demo_nan_lr_diverges():
    with pytest.raises(TrainingDiverged):
        train_demo(epochs=1, lr=float("nan"), seed=0)


def test_train_demo_releases_forward_caches():
    """A trained model keeps only parameters and plans; it still runs."""
    rows, setup = train_demo(epochs=1, lr=0.2, seed=1)
    model = setup.model
    for layer in model.layers:
        cached = [name for name, value in vars(layer).items()
                  if name.startswith("_") and isinstance(value, np.ndarray)]
        assert not cached, (type(layer).__name__, cached)
    rng = np.random.Generator(np.random.Philox(30))
    x = rng.standard_normal((256, 3, 1))
    labels = rng.integers(0, 4, 3)
    model.zero_grads()
    _, grad = nll_loss(model.forward(x), labels)
    gx = model.backward(grad)
    assert gx.shape == x.shape and np.all(np.isfinite(gx))
    assert any(np.any(g != 0.0) for _, g in model.params())
