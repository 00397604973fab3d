"""Binary containers (CLGR graphs, CLSG signals, CLMD models) and CSV export.

All integers and floats are little-endian; arrays are C-order.  Readers
validate as they go and raise FormatError carrying the byte offset of the
first bad field, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.sparse as sp

from .graph import Laplacian, ManifoldGraph
from .groups import GroupKind, Metric, se2_matrices, so3_matrices
from .sampling import GridKind, GridSpec, VertexSet
from . import network

GRAPH_MAGIC = b"CLGR"
SIGNAL_MAGIC = b"CLSG"
MODEL_MAGIC = b"CLMD"
FORMAT_VERSION = 1

KIND_CODES = {
    GridKind.SE2_GRID: 0,
    GridKind.SO3_ICOSAHEDRAL: 1,
    GridKind.R2_GRID: 2,
    GridKind.S2_ICOSAHEDRAL: 3,
}
KIND_FROM_CODE = {v: k for k, v in KIND_CODES.items()}

_POOL_MODE_CODES = {
    network.PoolMode.R2_RAND: 0,
    network.PoolMode.R2_MAX: 1,
    network.PoolMode.S2_MAX: 2,
    network.PoolMode.S2_AVG: 3,
}
_POOL_MODE_FROM_CODE = {v: k for k, v in _POOL_MODE_CODES.items()}


class FormatError(Exception):
    """A malformed container; offset points at the offending field."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class _Reader:
    def __init__(self, data: bytes, label: str):
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated {self.label}: wanted {n} more bytes", self.pos)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def scalar(self, fmt: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))[0]

    def array(self, dtype: str, count: int) -> np.ndarray:
        size = np.dtype(dtype).itemsize * count
        return np.frombuffer(self.take(size), dtype=dtype).copy()

    def expect_magic(self, magic: bytes):
        got = self.take(4)
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}", 0)
        version = self.scalar("<I")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported version {version}", 4)


def _u32(v) -> bytes:
    return struct.pack("<I", int(v))


def _u64(v) -> bytes:
    return struct.pack("<Q", int(v))


def _f64(v) -> bytes:
    return struct.pack("<d", float(v))


def _u64s(a) -> bytes:
    return np.ascontiguousarray(a, dtype="<u8").tobytes()


def _f64s(a) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


# ---------------------------------------------------------------------------
# CLGR graphs


def write_graph(path, graph: ManifoldGraph, lap: Laplacian | None = None) -> None:
    if lap is not None and lap.rescaled:
        raise ValueError("store the raw Laplacian, not the rescaled one")
    if lap is not None and lap.lambda_max is None:
        raise ValueError("stored Laplacians carry lambda_max; estimate it first")
    spec = graph.vertices.spec
    parts = [GRAPH_MAGIC, _u32(FORMAT_VERSION),
             struct.pack("<B", KIND_CODES[spec.kind]),
             _u32(spec.nx), _u32(spec.ny), _u32(spec.level), _u32(spec.n_orient),
             _f64(graph.metric.epsilon), _f64(graph.metric.xi), _f64(graph.alpha),
             _u32(graph.knn), _f64(graph.bandwidth),
             _u64(len(graph.vertices)), _f64s(graph.vertices.params),
             _u64s(graph.indptr), _u64(graph.indices.size), _u64s(graph.indices),
             _f64s(graph.weights), _f64s(graph.distances)]
    if lap is None:
        parts.append(struct.pack("<B", 0))
    else:
        m = lap.matrix
        parts += [struct.pack("<B", 1), _u64s(m.indptr), _u64(m.indices.size),
                  _u64s(m.indices), _f64s(m.data), _f64(lap.lambda_max)]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _reject(bad: np.ndarray, message: str, pos: int) -> None:
    """Raise at the first flagged 8-byte entry of the array stored at pos."""
    if bad.any():
        first = int(np.argmax(bad))
        raise FormatError(f"{message} (entry {first})", pos + 8 * first)


def read_graph(path) -> tuple[ManifoldGraph, Laplacian | None]:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), "graph file")
    r.expect_magic(GRAPH_MAGIC)

    kind_pos = r.pos
    kind_code = r.scalar("<B")
    if kind_code not in KIND_FROM_CODE:
        raise FormatError(f"unknown sampling kind {kind_code}", kind_pos)
    kind = KIND_FROM_CODE[kind_code]
    nx, ny = r.scalar("<I"), r.scalar("<I")
    level, n_orient = r.scalar("<I"), r.scalar("<I")
    try:
        spec = GridSpec(kind, nx=nx, ny=ny, level=level, n_orient=n_orient)
    except ValueError as exc:
        raise FormatError(f"inconsistent sampling fields: {exc}", kind_pos) from exc

    metric_pos = r.pos
    eps, xi, alpha = r.scalar("<d"), r.scalar("<d"), r.scalar("<d")
    knn = r.scalar("<I")
    bandwidth = r.scalar("<d")
    if not (eps > 0.0 and xi > 0.0):
        raise FormatError("metric parameters must be positive", metric_pos)

    nv_pos = r.pos
    n = r.scalar("<Q")
    if n > spec.n_vertices:
        raise FormatError(f"vertex count {n} exceeds the sampling size "
                          f"{spec.n_vertices}", nv_pos)
    params = r.array("<f8", n * 3).reshape(n, 3)

    indptr_pos = r.pos
    indptr = r.array("<u8", n + 1).astype(np.int64)
    if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise FormatError("adjacency row pointers are not monotone", indptr_pos)
    nnz_pos = r.pos
    nnz = r.scalar("<Q")
    if nnz != indptr[-1]:
        raise FormatError(f"edge count {nnz} contradicts row pointers "
                          f"({indptr[-1]})", nnz_pos)
    idx_pos = r.pos
    indices = r.array("<u8", nnz).astype(np.int64)
    if nnz and indices.max() >= n:
        raise FormatError("adjacency column index out of range", idx_pos)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    _reject(rows == indices, "adjacency has a self-loop", idx_pos)
    _reject(np.concatenate([[False], (np.diff(indices) <= 0) & (np.diff(rows) == 0)]),
            "adjacency row is not strictly ascending", idx_pos)
    w_pos = r.pos
    weights = r.array("<f8", nnz)
    d_pos = r.pos
    distances = r.array("<f8", nnz)
    # With strictly ascending rows, a symmetric adjacency has the same layout
    # by columns as by rows, and the entry permutation one CSR-to-CSC
    # conversion carries maps weights and distances onto themselves.
    by_col = sp.csr_matrix((np.arange(nnz), indices, indptr), shape=(n, n)).tocsc()
    _reject(by_col.indptr != indptr, "adjacency is not symmetric: row and column counts differ",
            indptr_pos)
    _reject(by_col.indices != indices, "adjacency is not symmetric", idx_pos)
    for values, name, pos in ((weights, "weight", w_pos), (distances, "distance", d_pos)):
        _reject(~np.isfinite(values) | (values < 0.0), f"edge {name} is negative or not finite", pos)
        _reject(values[by_col.data].view(np.uint64) != values.view(np.uint64),
                f"edge {name}s are not symmetric", pos)

    matrices = se2_matrices(params) if spec.group_kind is GroupKind.SE2 else so3_matrices(params)
    verts = VertexSet(spec, params, matrices)
    metric = Metric(epsilon=eps, xi=xi)
    graph = ManifoldGraph(verts, metric, knn, bandwidth, alpha, indptr,
                          indices, weights, distances)

    has_lap = r.scalar("<B")
    lap = None
    if has_lap == 1:
        lp_pos = r.pos
        lap_indptr = r.array("<u8", n + 1).astype(np.int64)
        if lap_indptr[0] != 0 or np.any(np.diff(lap_indptr) < 0):
            raise FormatError("Laplacian row pointers are not monotone", lp_pos)
        lnnz_pos = r.pos
        lap_nnz = r.scalar("<Q")
        if lap_nnz != lap_indptr[-1]:
            raise FormatError(f"Laplacian entry count {lap_nnz} contradicts row "
                              f"pointers ({lap_indptr[-1]})", lnnz_pos)
        li_pos = r.pos
        lap_indices = r.array("<u8", lap_nnz).astype(np.int64)
        if lap_nnz and lap_indices.max() >= n:
            raise FormatError("Laplacian column index out of range", li_pos)
        lap_data = r.array("<f8", lap_nnz)
        lam_pos = r.pos
        lam = r.scalar("<d")
        if not 0.0 < lam <= 2.0:
            raise FormatError(f"lambda_max {lam} outside (0, 2]", lam_pos)
        mat = sp.csr_matrix((lap_data, lap_indices, lap_indptr), shape=(n, n))
        lap = Laplacian(mat, lam)
    elif has_lap != 0:
        raise FormatError(f"Laplacian flag must be 0 or 1, got {has_lap}", r.pos - 1)
    if r.pos != len(r.data):
        raise FormatError(f"{len(r.data) - r.pos} trailing bytes", r.pos)
    return graph, lap


# ---------------------------------------------------------------------------
# CLSG signals


def write_signal(path, values: np.ndarray) -> None:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("signals are (V,) or (V, d)")
    with open(path, "wb") as fh:
        fh.write(b"".join([SIGNAL_MAGIC, _u32(FORMAT_VERSION),
                           _u64(arr.shape[0]), _u32(arr.shape[1]), _f64s(arr)]))


def read_signal(path) -> np.ndarray:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), "signal file")
    r.expect_magic(SIGNAL_MAGIC)
    n = r.scalar("<Q")
    d_pos = r.pos
    d = r.scalar("<I")
    if d == 0:
        raise FormatError("signal channel count must be positive", d_pos)
    data = r.array("<f8", n * d).reshape(n, d)
    if r.pos != len(r.data):
        raise FormatError(f"{len(r.data) - r.pos} trailing bytes", r.pos)
    return data


# ---------------------------------------------------------------------------
# CLMD model checkpoints


def _write_plan(parts: list, plan: network.PoolPlan) -> None:
    parts += [struct.pack("<B", _POOL_MODE_CODES[plan.mode]),
              _u64(plan.cluster.size), _u64(plan.n_coarse),
              np.ascontiguousarray(plan.cluster, dtype="<i8").tobytes()]
    if plan.chosen is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts += [struct.pack("<B", 1), _u64s(plan.chosen)]


def _read_plan(r: _Reader) -> network.PoolPlan:
    mode_pos = r.pos
    mode_code = r.scalar("<B")
    if mode_code not in _POOL_MODE_FROM_CODE:
        raise FormatError(f"unknown pool mode {mode_code}", mode_pos)
    v_fine = r.scalar("<Q")
    n_coarse = r.scalar("<Q")
    cluster = np.frombuffer(r.take(8 * v_fine), dtype="<i8").astype(np.int64)
    plan = network._plan_from_cluster(_POOL_MODE_FROM_CODE[mode_code], cluster, n_coarse)
    if r.scalar("<B") == 1:
        plan.chosen = r.array("<u8", n_coarse).astype(np.int64)
    return plan


def write_model(path, model: network.Model) -> None:
    parts = [MODEL_MAGIC, _u32(FORMAT_VERSION), _u32(len(model.layers))]
    for layer in model.layers:
        if isinstance(layer, network.ChebConv):
            parts += [struct.pack("<B", 0), _u32(layer.order), _u32(layer.n_in),
                      _u32(layer.n_out), _f64s(layer.theta), _f64s(layer.bias)]
        elif isinstance(layer, network.ReLU):
            parts.append(struct.pack("<B", 1))
        elif isinstance(layer, network.Pool):
            parts.append(struct.pack("<B", 2))
            _write_plan(parts, layer.plan)
        elif isinstance(layer, network.Unpool):
            parts += [struct.pack("<B", 3),
                      struct.pack("<B", 1 if layer.mode == "rand" else 0)]
            _write_plan(parts, layer.plan)
        elif isinstance(layer, network.GlobalMaxPool):
            parts.append(struct.pack("<B", 4))
        elif isinstance(layer, network.Dense):
            parts += [struct.pack("<B", 5), _u32(layer.weight.shape[0]),
                      _u32(layer.weight.shape[1]), _f64s(layer.weight), _f64s(layer.bias)]
        elif isinstance(layer, network.LogSoftmax):
            parts.append(struct.pack("<B", 6))
        else:
            raise ValueError(f"cannot serialize layer {type(layer).__name__}")
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_model(path, laplacians: list | None = None) -> network.Model:
    """Rebuild a checkpointed model.

    ChebConv layers are rebound to `laplacians` in file order (they are not
    stored in the checkpoint); pass the rescaled Laplacians of the graphs the
    model was trained on.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), "model file")
    r.expect_magic(MODEL_MAGIC)
    n_layers = r.scalar("<I")
    laps = list(laplacians or [])
    layers = []
    rng = np.random.Generator(np.random.Philox(0))
    for _ in range(n_layers):
        code_pos = r.pos
        code = r.scalar("<B")
        if code == 0:
            order, n_in, n_out = r.scalar("<I"), r.scalar("<I"), r.scalar("<I")
            if not laps:
                raise ValueError("not enough Laplacians to rebind ChebConv layers")
            layer = network.ChebConv(laps.pop(0), n_in, n_out, order, rng)
            layer.theta = r.array("<f8", order * n_in * n_out).reshape(order, n_in, n_out)
            layer.bias = r.array("<f8", n_out)
            layer.g_theta = np.zeros_like(layer.theta)
            layer.g_bias = np.zeros_like(layer.bias)
            layers.append(layer)
        elif code == 1:
            layers.append(network.ReLU())
        elif code == 2:
            layers.append(network.Pool(_read_plan(r)))
        elif code == 3:
            mode = "rand" if r.scalar("<B") == 1 else "avg"
            layers.append(network.Unpool(_read_plan(r), mode))
        elif code == 4:
            layers.append(network.GlobalMaxPool())
        elif code == 5:
            n_in, n_out = r.scalar("<I"), r.scalar("<I")
            layer = network.Dense(n_in, n_out, rng)
            layer.weight = r.array("<f8", n_in * n_out).reshape(n_in, n_out)
            layer.bias = r.array("<f8", n_out)
            layer.g_weight = np.zeros_like(layer.weight)
            layer.g_bias = np.zeros_like(layer.bias)
            layers.append(layer)
        elif code == 6:
            layers.append(network.LogSoftmax())
        else:
            raise FormatError(f"unknown layer code {code}", code_pos)
    if r.pos != len(r.data):
        raise FormatError(f"{len(r.data) - r.pos} trailing bytes", r.pos)
    return network.Model(layers)


# ---------------------------------------------------------------------------
# CSV export (17 significant digits, '.' decimal separator, '\n' endings)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def write_eigenmaps_csv(path, values: np.ndarray, vectors: np.ndarray) -> None:
    """One row per eigenpair: index, eigenvalue, then the vertex values."""
    n = vectors.shape[0]
    with open(path, "w", newline="\n") as fh:
        fh.write("k,lambda," + ",".join(f"v{i}" for i in range(n)) + "\n")
        for k in range(values.size):
            row = [str(k), _fmt(values[k])] + [_fmt(x) for x in vectors[:, k]]
            fh.write(",".join(row) + "\n")


def write_signal_csv(path, values: np.ndarray) -> None:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    cols = ",".join(f"c{i}" for i in range(arr.shape[1]))
    with open(path, "w", newline="\n") as fh:
        fh.write(f"vertex,{cols}\n")
        for v in range(arr.shape[0]):
            fh.write(",".join([str(v)] + [_fmt(x) for x in arr[v]]) + "\n")


def write_field_csv(path, vertices, values: np.ndarray) -> None:
    """Signal CSV joined with vertex coordinates, for external plotting.

    Planar samplings get columns vertex_id,x,y,theta,value; spherical ones
    vertex_id,beta,gamma,alpha,value.  Multi-channel signals widen `value`
    to value0..value{d-1}.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    params = vertices.params
    if vertices.spec.kind in (GridKind.SE2_GRID, GridKind.R2_GRID):
        names = ("x", "y", "theta")
        coords = params
    else:
        names = ("beta", "gamma", "alpha")
        coords = params[:, (1, 2, 0)]
    if arr.shape[1] == 1:
        vals = "value"
    else:
        vals = ",".join(f"value{i}" for i in range(arr.shape[1]))
    with open(path, "w", newline="\n") as fh:
        fh.write("vertex_id," + ",".join(names) + f",{vals}\n")
        for v in range(arr.shape[0]):
            row = [str(v)] + [_fmt(x) for x in coords[v]] + [_fmt(x) for x in arr[v]]
            fh.write(",".join(row) + "\n")
