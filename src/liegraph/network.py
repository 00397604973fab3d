"""Hand-differentiated layers on manifold graphs and the oriented-bar demo.

Vertex signals are (V, B, C) arrays (batch in the middle so sparse matvecs
can flatten the trailing axes); after global pooling they become (B, C).
Every layer caches what its analytic backward needs, accumulates parameter
gradients in-place, and returns the input gradient.  The caches live until
`Model.release`, which `train_demo` calls before it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import Laplacian, ManifoldGraph, build_graph, laplacian, make_metric, \
    power_lambda_max, rescale
from .sampling import GridKind, GridSpec, grid_se2, icosphere_parents
from .spectral import cheb_terms, rotation_permutation


class TrainingDiverged(RuntimeError):
    pass


def _matvec(matrix, x: np.ndarray) -> np.ndarray:
    v = x.shape[0]
    return np.asarray(matrix @ x.reshape(v, -1)).reshape(x.shape)


class ChebConv:
    """Chebyshev polynomial convolution y = sum_j T_j(L) x theta_j + bias."""

    def __init__(self, lap: Laplacian, n_in: int, n_out: int, order: int,
                 rng: np.random.Generator):
        if not lap.rescaled:
            raise ValueError("ChebConv needs the rescaled Laplacian")
        if order < 1:
            raise ValueError("order must be at least 1")
        self.lap = lap
        self.n_in, self.n_out, self.order = n_in, n_out, order
        bound = np.sqrt(6.0 / (order * n_in + n_out))
        self.theta = rng.uniform(-bound, bound, size=(order, n_in, n_out))
        self.bias = np.zeros(n_out)
        self.g_theta = np.zeros_like(self.theta)
        self.g_bias = np.zeros_like(self.bias)
        self._z = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        z = cheb_terms(self.lap.matrix, x, self.order)
        j, v, b, i = z.shape
        # One (V*B, J*I) @ (J*I, O) product contracts terms and channels.
        self._z = z.transpose(1, 2, 0, 3).reshape(v * b, j * i)
        y = self._z @ self.theta.reshape(j * i, self.n_out)
        return y.reshape(v, b, self.n_out) + self.bias

    def backward(self, gy: np.ndarray) -> np.ndarray:
        v, b, o = gy.shape
        gy2 = gy.reshape(v * b, o)
        self.g_theta += (self._z.T @ gy2).reshape(self.theta.shape)
        self.g_bias += gy2.sum(axis=0)
        # gz[j] = gy theta_j^T for every term at once, as (J, V, B, I).
        gz = gy2 @ self.theta.reshape(-1, o).T
        gz = np.ascontiguousarray(gz.reshape(v, b, self.order, self.n_in).transpose(2, 0, 1, 3))
        # Reverse sweep of the three-term recurrence; costs the same J - 1
        # matvecs as the forward pass.
        for j in range(self.order - 1, 1, -1):
            gz[j - 1] += 2.0 * _matvec(self.lap.matrix, gz[j])
            gz[j - 2] -= gz[j]
        gx = gz[0]
        if self.order > 1:
            gx = gx + _matvec(self.lap.matrix, gz[1])
        return gx

    def params(self):
        return [(self.theta, self.g_theta), (self.bias, self.g_bias)]


class ReLU:
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return np.where(self._mask, x, 0.0)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        return np.where(self._mask, gy, 0.0)

    def params(self):
        return []


class PoolMode(Enum):
    R2_RAND = "r2rand"
    R2_MAX = "r2max"
    S2_MAX = "s2max"
    S2_AVG = "s2avg"


MAX_MODES = (PoolMode.R2_MAX, PoolMode.S2_MAX)


@dataclass
class PoolPlan:
    """Fine-to-coarse cluster assignment with a precomputed segment layout.

    cluster[v] is the coarse id of fine vertex v (-1 drops the vertex, which
    happens for the trailing row/column of odd grids).  order lists the kept
    fine ids sorted by cluster then id; starts are the segment offsets.
    """

    mode: PoolMode
    cluster: np.ndarray
    n_coarse: int
    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    chosen: np.ndarray | None = None
    notes: tuple[str, ...] = ()

    def redraw(self, seed: int) -> None:
        """Pick one member per cluster for the Rand modes."""
        rng = np.random.Generator(np.random.Philox(seed))
        pick = np.floor(rng.random(self.n_coarse) * self.sizes).astype(np.int64)
        pick = np.minimum(pick, self.sizes - 1)
        self.chosen = self.order[self.starts + pick]


def _plan_from_cluster(mode: PoolMode, cluster: np.ndarray, n_coarse: int,
                       notes: tuple[str, ...] = ()) -> PoolPlan:
    kept = np.flatnonzero(cluster >= 0)
    order = kept[np.argsort(cluster[kept], kind="stable")]
    sizes = np.bincount(cluster[kept], minlength=n_coarse)
    if np.any(sizes == 0):
        raise ValueError("every coarse vertex needs at least one fine member")
    starts = np.zeros(n_coarse, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    plan = PoolPlan(mode, cluster, n_coarse, order, starts, sizes, None, notes)
    if mode in (PoolMode.R2_RAND,):
        plan.redraw(0)
    return plan


def r2_pool_plan(spec: GridSpec, mode: PoolMode) -> PoolPlan:
    """Non-overlapping 2x2 spatial blocks inside every orientation slice."""
    if spec.kind not in (GridKind.SE2_GRID, GridKind.R2_GRID):
        raise ValueError("r2 pooling applies to planar grids")
    if mode not in (PoolMode.R2_MAX, PoolMode.R2_RAND):
        raise ValueError("planar pooling supports the R2 modes")
    cnx, cny = spec.nx // 2, spec.ny // 2
    if cnx < 1 or cny < 1:
        raise ValueError("grid too small to pool")
    notes = ()
    if spec.nx % 2 or spec.ny % 2:
        notes = (f"odd grid {spec.nx}x{spec.ny}: trailing row/column dropped",)
    ids = np.arange(spec.n_vertices)
    ns = spec.n_spatial
    ix, iy, k = (ids % ns) % spec.nx, (ids % ns) // spec.nx, ids // ns
    inside = (ix < 2 * cnx) & (iy < 2 * cny)
    cluster = np.where(inside, k * (cnx * cny) + (iy // 2) * cnx + (ix // 2), -1)
    return _plan_from_cluster(mode, cluster, cnx * cny * spec.n_orient, notes)


def coarse_spec_r2(spec: GridSpec) -> GridSpec:
    return GridSpec(spec.kind, nx=spec.nx // 2, ny=spec.ny // 2, n_orient=spec.n_orient)


def s2_pool_plan(spec: GridSpec, mode: PoolMode) -> PoolPlan:
    """Icosahedral level drop: prefix vertices keep themselves, midpoints fold
    into the lower endpoint of their parent edge."""
    if spec.kind not in (GridKind.SO3_ICOSAHEDRAL, GridKind.S2_ICOSAHEDRAL):
        raise ValueError("s2 pooling applies to icosahedral samplings")
    if mode not in (PoolMode.S2_MAX, PoolMode.S2_AVG):
        raise ValueError("icosahedral pooling supports the S2 modes")
    if spec.level < 1:
        raise ValueError("level 0 cannot be pooled")
    parents = icosphere_parents(spec.level)
    ns_f = spec.n_spatial
    ns_c = parents.max() + 1
    ids = np.arange(spec.n_vertices)
    s, k = ids % ns_f, ids // ns_f
    cluster = k * ns_c + parents[s]
    return _plan_from_cluster(mode, cluster, ns_c * spec.n_orient)


def coarse_spec_s2(spec: GridSpec) -> GridSpec:
    return GridSpec(spec.kind, level=spec.level - 1, n_orient=spec.n_orient)


class Pool:
    """Cluster pooling; Max modes route gradients to the winning member,
    Rand to the pre-drawn one, Avg spreads them uniformly.

    Max modes read clusters through `members`, an (n_coarse, max_size) table
    of fine ids in ascending order per cluster.  Slots past a cluster's size
    repeat its last member, which can neither raise the maximum nor move the
    winner off a finite value."""

    def __init__(self, plan: PoolPlan):
        self.plan = plan
        slot = np.minimum(np.arange(plan.sizes.max()), plan.sizes[:, None] - 1)
        self.members = plan.order[plan.starts[:, None] + slot]

    def forward(self, x: np.ndarray) -> np.ndarray:
        plan = self.plan
        self._shape = x.shape
        if plan.mode in (PoolMode.R2_RAND,):
            return x[plan.chosen]
        if plan.mode is PoolMode.S2_AVG:
            return np.add.reduceat(x[plan.order], plan.starts, axis=0) / \
                plan.sizes[:, None, None]
        top = x[self.members[:, 0]]
        winner = np.empty(top.shape, dtype=np.int64)
        winner[...] = self.members[:, 0, None, None]
        for ids in self.members.T[1:]:
            new = np.maximum(top, x[ids])
            # Strict change only, so ties keep the lowest id; a NaN member
            # compares unequal and takes the win, inside its own cluster.
            np.copyto(winner, ids[:, None, None], where=new != top)
            top = new
        self._winner = winner
        return top

    def backward(self, gy: np.ndarray) -> np.ndarray:
        plan = self.plan
        gx = np.zeros(self._shape)
        if plan.mode in (PoolMode.R2_RAND,):
            gx[plan.chosen] = gy
        elif plan.mode is PoolMode.S2_AVG:
            gx[plan.order] = (gy / plan.sizes[:, None, None])[plan.cluster[plan.order]]
        else:
            # Clusters are disjoint, so winners never collide per (b, c).
            np.put_along_axis(gx, self._winner, gy, axis=0)
        return gx

    def params(self):
        return []


class Unpool:
    """Adjoint-style upsampling: Avg replicates the coarse value across the
    cluster, Rand places it on the drawn member and zeros elsewhere."""

    def __init__(self, plan: PoolPlan, mode: str = "avg"):
        if mode not in ("avg", "rand"):
            raise ValueError("unpool mode must be 'avg' or 'rand'")
        if mode == "rand" and plan.chosen is None:
            raise ValueError("rand unpooling needs a drawn plan")
        self.plan = plan
        self.mode = mode

    def forward(self, y: np.ndarray) -> np.ndarray:
        plan = self.plan
        shape = (plan.cluster.size,) + y.shape[1:]
        out = np.zeros(shape)
        if self.mode == "rand":
            out[plan.chosen] = y
        else:
            kept = plan.cluster >= 0
            out[kept] = y[plan.cluster[kept]]
        return out

    def backward(self, gx: np.ndarray) -> np.ndarray:
        plan = self.plan
        if self.mode == "rand":
            return gx[plan.chosen]
        return np.add.reduceat(gx[plan.order], plan.starts, axis=0)

    def params(self):
        return []


class GlobalMaxPool:
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._arg = np.argmax(x, axis=0)[None]
        self._shape = x.shape
        return np.take_along_axis(x, self._arg, axis=0)[0]

    def backward(self, gy: np.ndarray) -> np.ndarray:
        gx = np.zeros(self._shape)
        np.put_along_axis(gx, self._arg, gy[None], axis=0)
        return gx

    def params(self):
        return []


class Dense:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        bound = np.sqrt(6.0 / (n_in + n_out))
        self.weight = rng.uniform(-bound, bound, size=(n_in, n_out))
        self.bias = np.zeros(n_out)
        self.g_weight = np.zeros_like(self.weight)
        self.g_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, gy: np.ndarray) -> np.ndarray:
        self.g_weight += self._x.T @ gy
        self.g_bias += gy.sum(axis=0)
        return gy @ self.weight.T

    def params(self):
        return [(self.weight, self.g_weight), (self.bias, self.g_bias)]


class LogSoftmax:
    def forward(self, x: np.ndarray) -> np.ndarray:
        shift = x - x.max(axis=-1, keepdims=True)
        self._out = shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))
        return self._out

    def backward(self, gy: np.ndarray) -> np.ndarray:
        return gy - np.exp(self._out) * gy.sum(axis=-1, keepdims=True)

    def params(self):
        return []


class Model:
    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, gy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            gy = layer.backward(gy)
        return gy

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def zero_grads(self):
        for _, g in self.params():
            g[...] = 0.0

    def sgd_step(self, lr: float):
        for p, g in self.params():
            p -= lr * g

    def release(self):
        """Drop every layer's forward cache (the `_`-prefixed arrays); the
        next forward rebuilds them."""
        for layer in self.layers:
            for name, value in list(vars(layer).items()):
                if name.startswith("_") and isinstance(value, np.ndarray):
                    setattr(layer, name, None)


def nll_loss(log_probs: np.ndarray, labels: np.ndarray):
    """Mean negative log likelihood and its gradient wrt the log-probs."""
    b = labels.size
    loss = -float(np.mean(log_probs[np.arange(b), labels]))
    grad = np.zeros_like(log_probs)
    grad[np.arange(b), labels] = -1.0 / b
    return loss, grad


# ---------------------------------------------------------------------------
# oriented-bar demo


def oriented_bars(n: int, nx: int, ny: int, seed: int, noise: float = 0.1):
    """Balanced 4-class dataset of one-pixel-wide bars at 0/11.25/22.5/33.75 deg.

    The class angles all sit inside [0, 45], the fundamental domain of the
    square grid's symmetries acting on undirected orientations (phi ~ phi+90
    and phi ~ -phi).  Spectral filters commute with every automorphism of the
    graph, so classes related by those symmetries (e.g. 0 vs 90, or 22.5 vs
    67.5 under the diagonal mirror) would be indistinguishable by design.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    labels = np.tile(np.arange(4), (n + 3) // 4)[:n]
    rng.shuffle(labels)
    images = rng.normal(0.0, noise, size=(n, ny, nx))
    half = min(nx, ny) // 2 - 1
    steps = np.arange(-half, half + 1)
    for s in range(n):
        phi = labels[s] * np.pi / 16.0
        cx = rng.integers(nx // 2 - 1, nx // 2 + 1)
        cy = rng.integers(ny // 2 - 1, ny // 2 + 1)
        px = np.clip(np.round(cx + steps * np.cos(phi)).astype(int), 0, nx - 1)
        py = np.clip(np.round(cy + steps * np.sin(phi)).astype(int), 0, ny - 1)
        images[s, py, px] = 1.0
    return images, labels


def lift_images(images: np.ndarray, n_orient: int) -> np.ndarray:
    """Copy a (B, ny, nx) image stack to every orientation slice: (V, B, 1)."""
    b = images.shape[0]
    flat = images.reshape(b, -1).T          # (n_spatial, B)
    return np.tile(flat, (n_orient, 1))[:, :, None]


@dataclass
class DemoSetup:
    fine_graph: ManifoldGraph
    coarse_graph: ManifoldGraph
    fine_lap: Laplacian
    coarse_lap: Laplacian
    model: Model
    plan: PoolPlan
    perm: np.ndarray


def build_demo(seed: int = 0, nx: int = 8, n_orient: int = 4, epsilon_sq: float = 0.1,
               alpha: float = 1.0, knn: int = 16, order: int = 4,
               channels: tuple[int, int] = (8, 16)) -> DemoSetup:
    rng = np.random.Generator(np.random.Philox([seed, 1]))
    fine = grid_se2(nx, nx, n_orient)
    metric, _ = make_metric(fine.spec, epsilon=float(np.sqrt(epsilon_sq)), alpha=alpha)
    fine_graph = build_graph(fine, metric, knn)
    fine_lap = power_lambda_max(laplacian(fine_graph))

    coarse = grid_se2(nx // 2, nx // 2, n_orient)
    c_metric, _ = make_metric(coarse.spec, epsilon=float(np.sqrt(epsilon_sq)), alpha=alpha)
    coarse_graph = build_graph(coarse, c_metric, knn)
    coarse_lap = power_lambda_max(laplacian(coarse_graph))

    plan = r2_pool_plan(fine.spec, PoolMode.R2_MAX)
    lf, lc = rescale(fine_lap), rescale(coarse_lap)
    model = Model([
        ChebConv(lf, 1, channels[0], order, rng),
        ReLU(),
        Pool(plan),
        ChebConv(lc, channels[0], channels[1], order, rng),
        ReLU(),
        GlobalMaxPool(),
        Dense(channels[1], 4, rng),
        LogSoftmax(),
    ])
    perm = rotation_permutation(fine.spec, 1)
    return DemoSetup(fine_graph, coarse_graph, fine_lap, coarse_lap, model, plan, perm)


def _predict(model: Model, x: np.ndarray) -> np.ndarray:
    return np.argmax(model.forward(x), axis=1)


def rotation_consistency(model: Model, x: np.ndarray, perm: np.ndarray) -> float:
    return float(np.mean(_predict(model, x) == _predict(model, x[perm])))


def train_demo(epochs: int = 30, lr: float = 1e-2, seed: int = 0, batch: int = 32,
               n_train: int = 256, n_test: int = 128, setup: DemoSetup | None = None):
    """Train the two-level SE(2) classifier; returns (metric rows, setup).

    Metric rows are dicts with epoch, loss (mean train loss; epoch 0 is the
    untrained evaluation), test accuracy, and rotation consistency.  NaN loss
    aborts with TrainingDiverged.  The model's forward caches are released
    on return, so a trained model holds only its parameters.
    """
    if setup is None:
        setup = build_demo(seed)
    n_orient = setup.fine_graph.vertices.spec.n_orient
    nx = setup.fine_graph.vertices.spec.nx
    train_x, train_y = oriented_bars(n_train, nx, nx, seed=seed * 7919 + 1)
    test_x, test_y = oriented_bars(n_test, nx, nx, seed=seed * 7919 + 2)
    train_sig = lift_images(train_x, n_orient)
    test_sig = lift_images(test_x, n_orient)
    test_rot = test_sig[setup.perm]

    rng = np.random.Generator(np.random.Philox([seed, 2]))
    model = setup.model

    def test_metrics():
        # one forward of the test set gives accuracy and the rotation base
        pred = _predict(model, test_sig)
        return {"accuracy": float(np.mean(pred == test_y)),
                "rotation_consistency": float(np.mean(pred == _predict(model, test_rot)))}

    loss0, _ = nll_loss(model.forward(train_sig), train_y)
    rows = [{"epoch": 0, "loss": loss0, **test_metrics()}]

    n = train_y.size
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, batch):
            sel = order[lo:lo + batch]
            x = train_sig[:, sel]
            log_probs = model.forward(x)
            loss, grad = nll_loss(log_probs, train_y[sel])
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss became {loss} in epoch {epoch} (lr={lr}, seed={seed})")
            model.zero_grads()
            model.backward(grad)
            model.sgd_step(lr)
            losses.append(loss)
        rows.append({"epoch": epoch, "loss": float(np.mean(losses)), **test_metrics()})
    model.release()
    return rows, setup
