"""Hand-differentiated layers on manifold graphs and the oriented-bar demo.

Vertex signals are (V, B, C) arrays (batch in the middle so sparse matvecs
can flatten the trailing axes); after global pooling they become (B, C).
Chebyshev terms are vertex-major too: a layer's stack for a batch is
(V, B, J, I), so a batch of a dataset's terms is `np.take(z, sel, axis=1)`
and the layer's one (V*B, J*I) product reads the stack without a copy.
A training forward (`train=True`, the default) caches what the analytic
backward needs, which accumulates parameter gradients in-place and returns
the input gradient; an evaluation forward stores no `_`-prefixed array.  The
caches live until `Model.release`, which `train_demo` calls before it returns.

`ChebConv` applies T_j(L) in one of two forms, picked by the fill of L
alone: a sparse L runs the three-term recurrence (J - 1 sparse products per
pass), a dense one the stacked operator [T_1(L); ...; T_{J-1}(L)] as one
BLAS product per pass.  That operator is a forward cache too.  A first layer
filters data that no parameter touches, so `train_demo` computes its terms
once per dataset (`ChebConv.terms`, a plain (V, B, J, I) array) and feeds
the model batches of them, which skips the recurrence forward and the input
gradient backward (`Model.backward` then returns None).  A layer fed a
signal still copies its (J, V, B, I) recurrence stack to (V*B, J*I) for its
product.  Every layer computes each column of a batch on its own, so
`train_demo` also evaluates its datasets in slices of at most `batch`
columns: the log-probabilities are the whole forward's bit for bit, and no
activation outgrows a training step's.

A `PoolPlan` is a cluster map of fine vertices, which derives its segment
layout.  `coarsen(spec)` gives a sampling's next coarser level and the plan
onto it, on grids and spheres alike.  `Pool` takes each cluster's maximum;
`Unpool` copies each coarse value back to its members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Laplacian, build_graph, laplacian, make_metric, power_lambda_max, rescale
from .sampling import PLANAR_KINDS, GridKind, GridSpec, RuleError, build_vertices, icosphere
from .spectral import cheb_terms, rotation_permutation


# A Laplacian with nnz >= V^2 / DENSE_FILL runs ChebConv as dense products.
DENSE_FILL = 8


class TrainingDiverged(RuntimeError):
    pass


def _matvec(matrix, x: np.ndarray) -> np.ndarray:
    v = x.shape[0]
    return np.asarray(matrix @ x.reshape(v, -1)).reshape(x.shape)


def _add_row(y: np.ndarray, row: np.ndarray) -> None:
    """y += row on a C-contiguous (N, O) array, with the same sums.  A
    broadcast add loops over only O entries at a time; whole blocks of 64
    rows take one add of the row tiled 64 times instead."""
    n, o = y.shape
    bulk = n - n % 64
    head = y[:bulk].reshape(-1, 64 * o)
    np.add(head, np.tile(row, 64), out=head)
    y[bulk:] += row


def _flat_index(ids: np.ndarray) -> np.ndarray:
    """Flat indices, into a C-ordered (V, *T) array, of entry (ids[k, t], t)
    for each k and trailing position t of a (K, *T) array of vertex ids."""
    tail = ids.shape[1:]
    size = math.prod(tail)
    return ids * size + np.arange(size).reshape(tail)


class ChebConv:
    """Chebyshev polynomial convolution y = sum_j T_j(L) x theta_j + bias.

    `forward` takes a 3-D (V, B, I) signal x, whose (V, B, J, I) stack it
    builds, or any other array as such a stack; after one shape check it
    reads the stack as (V*B, J*I) rows of one product (a signal's stack by
    one transposed copy).  `terms` gives the stack for a whole dataset, so
    `layer.forward(layer.terms(x))` equals `layer.forward(x)`, and a batch
    takes its columns with `np.take(z, sel, axis=1)`.  After a signal,
    `backward` returns gx, (V, B, I), by the operator's reverse sweep; after
    terms, which no parameter precedes, it only accumulates the parameter
    gradients and returns None.

    The terms z_j = T_j(L) x come from one of two operator forms, picked
    once from the fill of L: `dense` when nnz >= V^2 / DENSE_FILL.
    - Sparse: the recurrence z_j = 2 L z_{j-1} - z_{j-2} on the CSR matrix,
      and backward its reverse sweep, J - 1 sparse products each way.
    - Dense: P = [T_1(L); ...; T_{J-1}(L)], a ((J-1)V, V) array built on
      the first forward by the same recurrence on the dense L.  Forward is
      one product P X, backward gx = gz_0 + P^T gz_{1..J-1}.
    Both give the same terms to rounding.  Measured with 2 BLAS threads, the
    dense form took 0.18-0.65 of the sparse time at V=64 and fill 0.31,
    0.49-0.77 at V=256 and 0.077, 0.65-1.74 at V=512 and 0.038, and
    1.18-3.35 at V=1024 and 0.019.  DENSE_FILL = 8 keeps V=256 at 0.077
    sparse, where whole training runs showed no consistent gain from the
    dense form; on K-NN graphs it admits only a few hundred vertices.  P is a
    forward cache, so `Model.release` drops it and the next forward
    rebuilds it.
    """

    def __init__(self, lap: Laplacian, n_in: int, n_out: int, order: int,
                 rng: np.random.Generator):
        if not lap.rescaled:
            raise ValueError("ChebConv needs the rescaled Laplacian")
        if order < 1:
            raise ValueError("order must be at least 1")
        self.lap = lap
        self.n_in, self.n_out, self.order = n_in, n_out, order
        self.dense = lap.matrix.nnz * DENSE_FILL >= lap.n ** 2
        bound = np.sqrt(6.0 / (order * n_in + n_out))
        self.theta = rng.uniform(-bound, bound, size=(order, n_in, n_out))
        self.bias = np.zeros(n_out)
        self.g_theta = np.zeros_like(self.theta)
        self.g_bias = np.zeros_like(self.bias)
        self._p = None

    def _terms(self, x: np.ndarray, train: bool) -> np.ndarray:
        """The terms of a (V, B, I) signal as a (V, B, J, I) view of the
        (J, V, B, I) stack either operator form builds."""
        if not self.dense:
            return cheb_terms(self.lap.matrix, x, self.order).transpose(1, 2, 0, 3)
        v = x.shape[0]
        p = self._p
        if p is None:
            p = cheb_terms(self.lap.matrix.toarray(), np.eye(v), self.order)[1:].reshape(-1, v)
            self._p = p if train else None
        z = np.empty((self.order,) + x.shape)
        z[0] = x
        # Z_{1..J-1} = P Z_0, written into the stack by one product.
        flat = z.reshape(self.order * v, -1)
        np.matmul(p, flat[:v], out=flat[v:])
        return z.transpose(1, 2, 0, 3)

    def terms(self, x: np.ndarray) -> np.ndarray:
        """The contiguous (V, B, J, I) terms z[:, :, j] = T_j(L) x by this
        layer's operator form, caching nothing.  Column b holds the terms of
        x[:, b] alone, so `np.take(z, sel, axis=1)` are the terms of x[:, sel]."""
        return np.ascontiguousarray(self._terms(x, train=False))

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        sweep = x.ndim == 3
        z = self._terms(x, train) if sweep else x
        if z.shape[:1] + z.shape[2:] != (self.lap.n, self.order, self.n_in):
            raise ValueError(f"terms of shape {z.shape} for a layer with V={self.lap.n}, "
                             f"J={self.order}, I={self.n_in}")
        # One (V*B, J*I) @ (J*I, O) product contracts terms and channels.
        v, b, j, i = z.shape
        z = z.reshape(v * b, j * i)
        if train:
            self._z, self._sweep = z, sweep
        y = z @ self.theta.reshape(j * i, self.n_out)
        _add_row(y, self.bias)
        return y.reshape(v, b, self.n_out)

    def backward(self, gy: np.ndarray) -> np.ndarray | None:
        """Accumulate g_theta and g_bias from gy, (V, B, O).  After a signal,
        return gx, (V, B, I): one batched product gives every term gradient
        gz_j = gy theta_j^T, and the operator's reverse sweep folds them."""
        v, b, o = gy.shape
        gy2 = gy.reshape(v * b, o)
        self.g_theta += (self._z.T @ gy2).reshape(self.theta.shape)
        self.g_bias += np.ones(v * b) @ gy2
        if not self._sweep:
            return None
        gz = np.matmul(gy2, self.theta.transpose(0, 2, 1)).reshape(self.order, v, b, self.n_in)
        if self.dense:
            flat = gz.reshape(self.order * v, -1)
            flat[:v] += self._p.T @ flat[v:]
            return gz[0]
        # Reverse sweep of the three-term recurrence; costs the same J - 1
        # matvecs as the forward pass.
        for j in range(self.order - 1, 1, -1):
            t = _matvec(self.lap.matrix, gz[j])
            t *= 2.0
            gz[j - 1] += t
            gz[j - 2] -= gz[j]
        gx = gz[0]
        if self.order > 1:
            gx += _matvec(self.lap.matrix, gz[1])
        return gx

    def params(self):
        return [(self.theta, self.g_theta), (self.bias, self.g_bias)]


class _Stateless:
    """A layer without parameters."""

    def params(self):
        return []


class ReLU(_Stateless):
    """max(x, 0).  A NaN pre-activation propagates as NaN; its gradient, like
    that of every x <= 0, is zero."""

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            self._mask = x > 0.0
        return np.maximum(x, 0.0)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        return gy * self._mask


@dataclass(frozen=True, eq=False)
class PoolPlan:
    """A fine-to-coarse cluster map and the segment layout derived from it.

    cluster[v] is the coarse id of fine vertex v (-1 drops the vertex, which
    happens for the trailing row/column of odd grids).  order lists the kept
    fine ids sorted by cluster then id; starts are the segment offsets and
    sizes the cluster sizes.  All four arrays are read-only.  RuleError
    unless 1 <= n_coarse <= cluster.size (field "n_coarse"), every id lies in
    [-1, n_coarse) (field "cluster", entry the first bad vertex) and no
    cluster is empty (field "cluster", no entry).
    """

    cluster: np.ndarray
    n_coarse: int
    order: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cluster, n_coarse = np.array(self.cluster, dtype=np.int64), self.n_coarse
        if not 1 <= n_coarse <= cluster.size:
            raise RuleError(f"{n_coarse} coarse vertices for {cluster.size} fine ones", "n_coarse")
        bad = (cluster < -1) | (cluster >= n_coarse)
        if bad.any():
            v = int(np.argmax(bad))
            raise RuleError(f"cluster id {cluster[v]} outside [-1, {n_coarse})", "cluster", v)
        kept = np.flatnonzero(cluster >= 0)
        sizes = np.bincount(cluster[kept], minlength=n_coarse)
        if not sizes.all():
            raise RuleError(f"coarse vertex {int(np.argmin(sizes))} has no fine member", "cluster")
        arrays = {"cluster": cluster, "order": kept[np.argsort(cluster[kept], kind="stable")],
                  "starts": np.concatenate([[0], np.cumsum(sizes[:-1])]), "sizes": sizes}
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def coarsen(spec: GridSpec) -> tuple[GridSpec, PoolPlan]:
    """The next coarser level of a sampling and the plan that pools onto it.

    The spatial map pools non-overlapping 2x2 blocks of a grid (an odd
    grid's trailing row and column are dropped) or folds an icosphere's
    midpoints into the lower endpoint of their parent edge (prefix points
    keep themselves); every orientation slice k maps onto coarse slice k.
    ValueError for a grid under 2x2 or a level-0 sphere."""
    if spec.kind in PLANAR_KINDS:
        if spec.nx < 2 or spec.ny < 2:
            raise ValueError("grid too small to pool")
        coarse = replace(spec, nx=spec.nx // 2, ny=spec.ny // 2)
        iy, ix = np.divmod(np.arange(spec.n_spatial), spec.nx)
        inside = (ix < 2 * coarse.nx) & (iy < 2 * coarse.ny)
        spatial = np.where(inside, (iy // 2) * coarse.nx + ix // 2, -1)
    else:
        if spec.level < 1:
            raise ValueError("level 0 cannot be pooled")
        coarse = replace(spec, level=spec.level - 1)
        spatial = icosphere(spec.level)[1]
    slices = np.arange(spec.n_orient)[:, None] * coarse.n_spatial
    cluster = np.where(spatial >= 0, slices + spatial, -1).ravel()
    return coarse, PoolPlan(cluster, coarse.n_vertices)


class Pool(_Stateless):
    """Max pooling over the clusters of a plan; backward routes each gradient
    to its cluster's winning member.

    Clusters are read through `members`, an (n_coarse, max_size >= 2) table
    of fine ids in ascending order per cluster; slots past a cluster's size
    repeat its last member.  The winner sits in the first slot that holds the
    maximum, so ties go to the lowest id.  Its slot counts the leading slots,
    all but the last, that miss, so a cluster holding a NaN picks its last."""

    def __init__(self, plan: PoolPlan):
        self.plan = plan
        slot = np.minimum(np.arange(max(plan.sizes.max(), 2)), plan.sizes[:, None] - 1)
        self.members = plan.order[plan.starts[:, None] + slot]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        top = x[self.members[:, 0]]
        for ids in self.members.T[1:]:
            np.maximum(top, x[ids], out=top)
        if not train:
            return top
        miss = x[self.members[:, 0]] != top
        slot = miss.astype(np.intp)
        for ids in self.members.T[1:-1]:
            miss &= x[ids] != top
            slot += miss
        rows = np.arange(self.members.shape[0])[:, None, None] * self.members.shape[1]
        self._winner = np.take(self.members, rows + slot)
        return top

    def backward(self, gy: np.ndarray) -> np.ndarray:
        gx = np.zeros((self.plan.cluster.size,) + gy.shape[1:])
        # Clusters are disjoint, so winners never collide per (b, c).
        np.put(gx, _flat_index(self._winner), gy)
        return gx


class Unpool(_Stateless):
    """Copies each coarse value to every member of its cluster (dropped fine
    vertices get 0); backward sums the gradient over each cluster."""

    def __init__(self, plan: PoolPlan):
        self.plan = plan

    def forward(self, y: np.ndarray, train: bool = True) -> np.ndarray:
        cluster = self.plan.cluster
        out = np.zeros((cluster.size,) + y.shape[1:])
        out[cluster >= 0] = y[cluster[cluster >= 0]]
        return out

    def backward(self, gx: np.ndarray) -> np.ndarray:
        return np.add.reduceat(gx[self.plan.order], self.plan.starts, axis=0)


class GlobalMaxPool(_Stateless):
    """Maximum over the vertices; a NaN wins.  A training forward reads the
    maximum at its first argmax, where backward routes the gradient (a tie of
    -0.0 and 0.0 keeps that entry's sign, which ReLU output never holds)."""

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if not train:
            return x.max(axis=0)
        self._arg = _flat_index(np.argmax(x, axis=0)[None])[0]
        self._shape = x.shape
        return np.take(x, self._arg)

    def backward(self, gy: np.ndarray) -> np.ndarray:
        gx = np.zeros(self._shape)
        np.put(gx, self._arg, gy)
        return gx


class Dense:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        bound = np.sqrt(6.0 / (n_in + n_out))
        self.weight = rng.uniform(-bound, bound, size=(n_in, n_out))
        self.bias = np.zeros(n_out)
        self.g_weight = np.zeros_like(self.weight)
        self.g_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            self._x = x
        return x @ self.weight + self.bias

    def backward(self, gy: np.ndarray) -> np.ndarray:
        self.g_weight += self._x.T @ gy
        self.g_bias += np.ones(gy.shape[0]) @ gy
        return gy @ self.weight.T

    def params(self):
        return [(self.weight, self.g_weight), (self.bias, self.g_bias)]


class LogSoftmax(_Stateless):
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        shift = x - x.max(axis=-1, keepdims=True)
        out = shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))
        if train:
            self._out = out
        return out

    def backward(self, gy: np.ndarray) -> np.ndarray:
        return gy - np.exp(self._out) * gy.sum(axis=-1, keepdims=True)


class Model:
    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, gy: np.ndarray) -> np.ndarray | None:
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
    """What `train_demo` reads of the demo: its fine sampling's spec, which
    also gives the quarter-turn permutation, and its model.  The model's
    layers hold the rescaled Laplacians and the pool plan; the graphs are
    not kept."""

    spec: GridSpec
    model: Model


def build_demo(seed: int = 0, epsilon_sq: float = 0.1, alpha: float = 1.0) -> DemoSetup:
    """The demo's two-level SE(2) classifier on an 8x8 grid of 4 orientation
    slices and its 2x2-pooled coarse level, each a K = 16 graph under the
    metric of epsilon_sq and alpha: ChebConv (order 4, 1 -> 8 channels),
    ReLU, Pool, ChebConv (8 -> 16), ReLU, GlobalMaxPool, Dense (16 -> 4) and
    LogSoftmax, with parameters drawn from the seed.  Each graph lives only
    until its rescaled Laplacian is made."""
    rng = np.random.Generator(np.random.Philox([seed, 1]))
    fine_spec = GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4)
    coarse_spec, plan = coarsen(fine_spec)
    laps = []
    for spec in (fine_spec, coarse_spec):
        metric, _ = make_metric(spec, epsilon=float(np.sqrt(epsilon_sq)), alpha=alpha)
        graph = build_graph(build_vertices(spec), metric, 16)
        laps.append(rescale(power_lambda_max(laplacian(graph))))
    model = Model([
        ChebConv(laps[0], 1, 8, 4, rng),
        ReLU(),
        Pool(plan),
        ChebConv(laps[1], 8, 16, 4, rng),
        ReLU(),
        GlobalMaxPool(),
        Dense(16, 4, rng),
        LogSoftmax(),
    ])
    return DemoSetup(fine_spec, model)


def train_demo(epochs: int = 30, lr: float = 1e-2, seed: int = 0, batch: int = 32,
               n_train: int = 256, n_test: int = 128, setup: DemoSetup | None = None):
    """Train the two-level SE(2) classifier; returns (metric rows, setup).

    Metric rows are dicts with epoch, loss (mean train loss; epoch 0 is the
    untrained evaluation), test accuracy, and rotation consistency.  NaN loss
    aborts with TrainingDiverged; epochs < 0, and batch, n_train or n_test
    below 1, raise ValueError.  The images take their size and orientation
    count from `setup.spec`.  The first layer's Chebyshev terms of the
    train, test and rotated test sets are computed once per call, as
    (V, B, J, I) arrays, and every forward takes its batch's columns of
    them, which gives the signal path's numbers bit for bit (each column's
    terms are computed alone).  The evaluations (the untrained loss over the
    training set, and the test and rotated test passes after each epoch) run
    in consecutive slices of at most `batch` columns, so no forward holds
    more than a training step's activations.  The terms live only during
    the call, and the model's forward caches are released on return, so a
    trained model holds only its parameters.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    for name, value in (("batch", batch), ("n_train", n_train), ("n_test", n_test)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if setup is None:
        setup = build_demo(seed)
    n_orient, nx = setup.spec.n_orient, setup.spec.nx
    train_x, train_y = oriented_bars(n_train, nx, nx, seed=seed * 7919 + 1)
    test_x, test_y = oriented_bars(n_test, nx, nx, seed=seed * 7919 + 2)
    rng = np.random.Generator(np.random.Philox([seed, 2]))
    model = setup.model
    first = model.layers[0]
    test_sig = lift_images(test_x, n_orient)
    train_z = first.terms(lift_images(train_x, n_orient))
    test_z = first.terms(test_sig)
    rot_z = first.terms(test_sig[rotation_permutation(setup.spec, 1)])

    def evaluate(z: np.ndarray) -> np.ndarray:
        # The log-probabilities of a dataset, forwarded batch columns at a time.
        return np.concatenate([model.forward(z[:, lo:lo + batch], train=False)
                               for lo in range(0, z.shape[1], batch)])

    def test_metrics():
        # one evaluation of the test set gives accuracy and the rotation base
        pred, rot = (np.argmax(evaluate(z), axis=1) for z in (test_z, rot_z))
        return {"accuracy": float(np.mean(pred == test_y)),
                "rotation_consistency": float(np.mean(pred == rot))}

    loss0, _ = nll_loss(evaluate(train_z), train_y)
    rows = [{"epoch": 0, "loss": loss0, **test_metrics()}]

    n = train_y.size
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, batch):
            sel = order[lo:lo + batch]
            log_probs = model.forward(np.take(train_z, sel, axis=1))
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
