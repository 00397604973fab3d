"""Binary containers (CLGR graphs, CLSG signals, CLMD models) and CSV export.

All integers and floats are little-endian; arrays are C-order.  Each
container opens with a 4-byte magic and its own u32 version (CLGR 2, CLSG
and CLMD 1); other versions are rejected.  Readers validate as they go and
raise FormatError carrying the byte offset of the first bad field, which
the CLI maps to exit code 2.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.sparse as sp

from .graph import Laplacian, ManifoldGraph, edge_weights, laplacian
from .groups import GroupKind, Metric, se2_matrices, so3_matrices
from .sampling import GridKind, GridSpec, VertexSet
from . import network

GRAPH_MAGIC = b"CLGR"
SIGNAL_MAGIC = b"CLSG"
MODEL_MAGIC = b"CLMD"
GRAPH_VERSION = 2
SIGNAL_VERSION = 1
MODEL_VERSION = 1

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

    def expect_magic(self, magic: bytes, version: int):
        got = self.take(4)
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}", 0)
        if (got := self.scalar("<I")) != version:
            raise FormatError(f"unsupported version {got}", 4)


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
    """Store a graph and, optionally, the lambda_max of its raw Laplacian.

    Layout after magic and version: kind u8; nx, ny, level, n_orient u32;
    epsilon, xi, alpha f64 (offsets 25, 33, 41); knn u32 (offset 49);
    bandwidth f64 (offset 53); n u64; params n x 3 f64; kept flag u8, then
    n u64 original ids if set;
    indptr (n + 1) u64, edge count u64, indices u64, distances f64;
    Laplacian flag u8, then lambda_max f64 if set.  read_graph rebuilds
    weights and Laplacian; ValueError if they would differ from the graph's
    and lap's, if a vertex-sampled set has no kept-id map, or if alpha or
    knn would not read back (see _header_error).
    """
    if lap is not None and (lap.rescaled or lap.lambda_max is None):
        raise ValueError("store the raw Laplacian with its estimated lambda_max")
    verts, spec = graph.vertices, graph.vertices.spec
    if (bad := _header_error(spec, graph.alpha, graph.knn)) is not None:
        raise ValueError(bad[0])
    if verts.kept is None and len(verts) < spec.n_vertices:
        raise ValueError("a vertex-sampled graph needs its kept-id map")
    if not _bit_equal(graph.weights, edge_weights(graph.distances, graph.bandwidth)):
        raise ValueError("weights are not edge_weights(distances, bandwidth)")
    if lap is not None and not _bit_equal(lap.matrix, laplacian(graph).matrix):
        raise ValueError("the Laplacian is not laplacian(graph)")
    parts = [GRAPH_MAGIC, _u32(GRAPH_VERSION), struct.pack("<B", KIND_CODES[spec.kind]),
             _u32(spec.nx), _u32(spec.ny), _u32(spec.level), _u32(spec.n_orient),
             _f64(graph.metric.epsilon), _f64(graph.metric.xi), _f64(graph.alpha),
             _u32(graph.knn), _f64(graph.bandwidth), _u64(len(verts)), _f64s(verts.params),
             b"\x00" if verts.kept is None else b"\x01" + _u64s(verts.kept),
             _u64s(graph.indptr), _u64(graph.indices.size), _u64s(graph.indices),
             _f64s(graph.distances), b"\x00" if lap is None else b"\x01" + _f64(lap.lambda_max)]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _bit_equal(a, b) -> bool:
    """True when two arrays, or the arrays of two CSR matrices, hold the same bits."""
    if sp.issparse(a):
        return all(_bit_equal(getattr(a, f), getattr(b, f)) for f in ("indptr", "indices", "data"))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _reject(bad: np.ndarray, message: str, pos: int) -> None:
    """Raise at the first flagged 8-byte entry of the array stored at pos."""
    if bad.any():
        first = int(np.argmax(bad))
        raise FormatError(f"{message} (entry {first})", pos + 8 * first)


def _header_error(spec: GridSpec, alpha: float, knn: int) -> tuple[str, int] | None:
    """(message, offset) for an alpha that is not finite and positive, or a
    knn of 0 on a sampling with at least two vertices; None when both hold."""
    if not 0.0 < alpha < np.inf:
        return f"alpha {alpha} is not finite and positive", 41
    if knn == 0 and spec.n_vertices > 1:
        return f"knn 0 on a sampling of {spec.n_vertices} vertices", 49
    return None


def _flag(r: _Reader, name: str) -> bool:
    flag = r.scalar("<B")
    if flag > 1:
        raise FormatError(f"{name} flag must be 0 or 1, got {flag}", r.pos - 1)
    return flag == 1


def read_graph(path) -> tuple[ManifoldGraph, Laplacian | None]:
    """Read a CLGR file (layout in write_graph), rebuilding weights and Laplacian."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), "graph file")
    r.expect_magic(GRAPH_MAGIC, GRAPH_VERSION)

    kind_pos = r.pos
    kind_code = r.scalar("<B")
    if kind_code not in KIND_FROM_CODE:
        raise FormatError(f"unknown sampling kind {kind_code}", kind_pos)
    nx, ny = r.scalar("<I"), r.scalar("<I")
    level, n_orient = r.scalar("<I"), r.scalar("<I")
    try:
        spec = GridSpec(KIND_FROM_CODE[kind_code], nx=nx, ny=ny, level=level, n_orient=n_orient)
    except ValueError as exc:
        raise FormatError(f"inconsistent sampling fields: {exc}", kind_pos) from exc

    metric_pos = r.pos
    eps, xi, alpha = r.scalar("<d"), r.scalar("<d"), r.scalar("<d")
    try:
        metric = Metric(epsilon=eps, xi=xi)
    except ValueError as exc:
        raise FormatError(str(exc), metric_pos) from exc
    knn, t_pos = r.scalar("<I"), r.pos
    if (bad := _header_error(spec, alpha, knn)) is not None:
        raise FormatError(*bad)
    t = r.scalar("<d")

    nv_pos = r.pos
    n = r.scalar("<Q")
    if n > spec.n_vertices:
        raise FormatError(f"vertex count {n} exceeds the sampling size "
                          f"{spec.n_vertices}", nv_pos)
    params = r.array("<f8", n * 3).reshape(n, 3)
    kept_pos = r.pos
    kept = r.array("<u8", n) if _flag(r, "kept-id map") else None
    if kept is not None:
        _reject(np.concatenate([[False], kept[1:] <= kept[:-1]]) | (kept >= spec.n_vertices),
                "kept ids are not strictly ascending ids of the sampling", kept_pos + 1)
        kept = kept.astype(np.int64)
    elif n < spec.n_vertices:
        raise FormatError(f"{n} of {spec.n_vertices} vertices but no kept-id map", kept_pos)

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
    indices = r.array("<u8", nnz)
    if nnz and indices.max() >= n:
        raise FormatError("adjacency column index out of range", idx_pos)
    indices = indices.astype(np.int64)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    _reject(rows == indices, "adjacency has a self-loop", idx_pos)
    _reject(np.concatenate([[False], (np.diff(indices) <= 0) & (np.diff(rows) == 0)]),
            "adjacency row is not strictly ascending", idx_pos)
    d_pos = r.pos
    distances = r.array("<f8", nnz)
    # With strictly ascending rows, a symmetric adjacency has the same layout
    # by columns as by rows, and the entry permutation one CSR-to-CSC
    # conversion carries maps the distances onto themselves.
    by_col = sp.csr_matrix((np.arange(nnz), indices, indptr), shape=(n, n)).tocsc()
    _reject(by_col.indptr != indptr, "adjacency is not symmetric: row and column counts differ",
            indptr_pos)
    _reject(by_col.indices != indices, "adjacency is not symmetric", idx_pos)
    _reject(~np.isfinite(distances) | (distances < 0.0), "edge distance is negative or not finite",
            d_pos)
    _reject(distances[by_col.data].view(np.uint64) != distances.view(np.uint64),
            "edge distances are not symmetric", d_pos)
    if not 0.0 <= t < np.inf or (t == 0.0 and distances.any()):
        raise FormatError(f"bandwidth {t} is < 0, not finite, or 0 with a distance > 0", t_pos)

    matrices = se2_matrices(params) if spec.group_kind is GroupKind.SE2 else so3_matrices(params)
    graph = ManifoldGraph(VertexSet(spec, params, matrices, kept), metric, knn, t, alpha,
                          indptr, indices, edge_weights(distances, t), distances)
    lap = None
    if _flag(r, "Laplacian"):
        lam_pos, lam = r.pos, r.scalar("<d")
        if not 0.0 < lam <= 2.0:
            raise FormatError(f"lambda_max {lam} outside (0, 2]", lam_pos)
        lap = Laplacian(laplacian(graph).matrix, lam)
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
        fh.write(b"".join([SIGNAL_MAGIC, _u32(SIGNAL_VERSION),
                           _u64(arr.shape[0]), _u32(arr.shape[1]), _f64s(arr)]))


def read_signal(path) -> np.ndarray:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), "signal file")
    r.expect_magic(SIGNAL_MAGIC, SIGNAL_VERSION)
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
    if _flag(r, "chosen-ids"):
        plan.chosen = r.array("<u8", n_coarse).astype(np.int64)
    return plan


def write_model(path, model: network.Model) -> None:
    parts = [MODEL_MAGIC, _u32(MODEL_VERSION), _u32(len(model.layers))]
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
    r.expect_magic(MODEL_MAGIC, MODEL_VERSION)
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
            mode = "rand" if _flag(r, "unpool rand-mode") else "avg"
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
