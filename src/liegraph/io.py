"""Binary containers (CLGR graphs, CLSG signals, CLMD models) and CSV export.

All integers and floats are little-endian; arrays are C-order.  Each
container opens with a 4-byte magic and its own u32 version (CLGR 4, CLSG
1 and CLMD 2); other versions are rejected.  Readers validate as they go and
raise FormatError carrying the byte offset of the first bad field, which
the CLI maps to exit code 2.  Files hold primary data only: readers rebuild
edge weights, Laplacians, pool plans and vertex coordinates from what is
stored, and derive alpha and the edge and vertex counts.  A CLGR file has
one fixed layout (see write_graph), ending in the lambda_max of its Laplacian.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.sparse as sp

from .graph import (ISOTROPIC_KINDS, Laplacian, ManifoldGraph, check_metric, edge_weights,
                    laplacian)
from .groups import Metric
from .sampling import GridKind, GridSpec, build_vertices
from . import network

GRAPH_MAGIC = b"CLGR"
SIGNAL_MAGIC = b"CLSG"
MODEL_MAGIC = b"CLMD"
GRAPH_VERSION = 4
SIGNAL_VERSION = 1
MODEL_VERSION = 2

KIND_CODES = {
    GridKind.SE2_GRID: 0,
    GridKind.SO3_ICOSAHEDRAL: 1,
    GridKind.R2_GRID: 2,
    GridKind.S2_ICOSAHEDRAL: 3,
}
KIND_FROM_CODE = {v: k for k, v in KIND_CODES.items()}


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


def write_graph(path, graph: ManifoldGraph, lap: Laplacian) -> None:
    """Store a graph and the lambda_max of its raw Laplacian.

    Layout after magic and version: kind u8; nx, ny, level, n_orient u32;
    epsilon, xi f64 (offsets 25, 33); knn u32 (offset 41); bandwidth f64
    (offset 45); kept flag u8 (offset 53), then if set the kept count n u64
    and n u64 original ids, else n is spec.n_vertices; indptr (n + 1) u64;
    indices u64 and distances f64, indptr[-1] of each; lambda_max f64, the
    last 8 bytes.  read_graph rebuilds vertices (build_vertices of spec and
    kept), weights and Laplacian; ValueError if they would differ from the
    graph's and lap's, or if the metric, knn or kept ids would not read back
    (check_metric, _knn_error, _bad_kept).
    """
    if lap.rescaled or lap.lambda_max is None:
        raise ValueError("store the raw Laplacian with its estimated lambda_max")
    verts, spec = graph.vertices, graph.vertices.spec
    check_metric(spec, graph.metric)
    if (bad := _knn_error(spec, graph.knn)) is not None:
        raise ValueError(bad)
    if verts.kept is not None and _bad_kept(spec, verts.kept).any():
        raise ValueError("kept ids are not strictly ascending ids of the sampling")
    if not _bit_equal(verts.params, build_vertices(spec, verts.kept).params):
        raise ValueError("vertex params are not build_vertices(spec, kept)'s, which files store")
    if not _bit_equal(graph.weights, edge_weights(graph.distances, graph.bandwidth)):
        raise ValueError("weights are not edge_weights(distances, bandwidth)")
    if not _bit_equal(lap.matrix, laplacian(graph).matrix):
        raise ValueError("the Laplacian is not laplacian(graph)")
    parts = [GRAPH_MAGIC, _u32(GRAPH_VERSION), struct.pack("<B", KIND_CODES[spec.kind]),
             _u32(spec.nx), _u32(spec.ny), _u32(spec.level), _u32(spec.n_orient),
             _f64(graph.metric.epsilon), _f64(graph.metric.xi), _u32(graph.knn),
             _f64(graph.bandwidth),
             b"\x00" if verts.kept is None else b"\x01" + _u64(len(verts)) + _u64s(verts.kept),
             _u64s(graph.indptr), _u64s(graph.indices), _f64s(graph.distances),
             _f64(lap.lambda_max)]
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


def _knn_error(spec: GridSpec, knn: int) -> str | None:
    """Why knn cannot be a graph's on spec; build_graph keeps K in [min(1, N - 1), N - 1]."""
    n = spec.n_vertices
    if not min(1, n - 1) <= knn <= n - 1:
        return f"knn {knn} on a sampling of {n} vertices, outside [{min(1, n - 1)}, {n - 1}]"
    return None


def _bad_kept(spec: GridSpec, kept: np.ndarray) -> np.ndarray:
    """Flags the entries of kept that break strictly ascending ids of spec's sampling."""
    return (np.concatenate([[False], kept[1:] <= kept[:-1]]) | (kept < 0)
            | (kept >= spec.n_vertices))


def read_graph(path) -> tuple[ManifoldGraph, Laplacian]:
    """Read a CLGR file (layout in write_graph), rebuilding weights and Laplacian."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), "graph file")
    r.expect_magic(GRAPH_MAGIC, GRAPH_VERSION)

    kind_pos = r.pos
    kind_code = r.scalar("<B")
    if kind_code not in KIND_FROM_CODE:
        raise FormatError(f"unknown sampling kind {kind_code}", kind_pos)
    nx, ny, level, n_orient = struct.unpack("<4I", r.take(16))
    try:
        spec = GridSpec(KIND_FROM_CODE[kind_code], nx=nx, ny=ny, level=level, n_orient=n_orient)
    except ValueError as exc:
        raise FormatError(f"inconsistent sampling fields: {exc}", kind_pos) from exc

    metric_pos = r.pos
    eps, xi = r.scalar("<d"), r.scalar("<d")
    try:
        metric = Metric(epsilon=eps, xi=xi)
    except ValueError as exc:
        raise FormatError(str(exc), metric_pos) from exc
    try:
        check_metric(spec, metric)
    except ValueError as exc:   # r2 and s2 fail on isotropy, the others on alpha(xi)
        at = metric_pos if spec.kind in ISOTROPIC_KINDS else metric_pos + 8
        raise FormatError(str(exc), at) from exc
    knn_pos, knn = r.pos, r.scalar("<I")
    if (bad := _knn_error(spec, knn)) is not None:
        raise FormatError(bad, knn_pos)
    t_pos, t = r.pos, r.scalar("<d")

    kept_pos = r.pos
    if (flag := r.scalar("<B")) > 1:
        raise FormatError(f"kept-id map flag must be 0 or 1, got {flag}", kept_pos)
    n, kept = spec.n_vertices, None
    if flag:
        n = r.scalar("<Q")
        kept = r.array("<u8", n)
        _reject(_bad_kept(spec, kept), "kept ids are not strictly ascending ids of the sampling",
                kept_pos + 9)
        kept = kept.astype(np.int64)

    indptr_pos = r.pos
    indptr = r.array("<u8", n + 1).astype(np.int64)
    if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise FormatError("adjacency row pointers are not monotone", indptr_pos)
    nnz = int(indptr[-1])
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
    lam_pos, lam = r.pos, r.scalar("<d")
    if not 0.0 < lam <= 2.0:
        raise FormatError(f"lambda_max {lam} outside (0, 2]", lam_pos)
    if r.pos != len(r.data):
        raise FormatError(f"{len(r.data) - r.pos} trailing bytes", r.pos)

    # Built last: n is now backed by the file's arrays, the icosphere by MAX_LEVEL.
    graph = ManifoldGraph(build_vertices(spec, kept), metric, knn, t, indptr, indices,
                          edge_weights(distances, t), distances)
    return graph, Laplacian(laplacian(graph).matrix, lam)


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


_LAYER_CODES = {network.ChebConv: 0, network.ReLU: 1, network.Pool: 2, network.Unpool: 3,
                network.GlobalMaxPool: 4, network.Dense: 5, network.LogSoftmax: 6}
_LAYER_FROM_CODE = {v: k for k, v in _LAYER_CODES.items()}


def write_model(path, model: network.Model) -> None:
    """Store a layer stack (layout in read_model)."""
    parts = [MODEL_MAGIC, _u32(MODEL_VERSION), _u32(len(model.layers))]
    for layer in model.layers:
        cls = type(layer)
        if cls not in _LAYER_CODES:
            raise ValueError(f"cannot serialize layer {cls.__name__}")
        parts.append(struct.pack("<B", _LAYER_CODES[cls]))
        if cls is network.ChebConv:
            parts += [_u32(layer.order), _u32(layer.n_in), _u32(layer.n_out)]
        elif cls is network.Dense:
            parts += [_u32(n) for n in layer.weight.shape]
        elif cls in (network.Pool, network.Unpool):
            cluster = np.ascontiguousarray(layer.plan.cluster, dtype="<i8")
            parts += [_u64(cluster.size), _u64(layer.plan.n_coarse), cluster.tobytes()]
        parts += [_f64s(p) for p, _ in layer.params()]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _sizes(r: _Reader, *names: str) -> list[int]:
    """One u32 per name, each at least 1."""
    at = r.pos
    sizes = [r.scalar("<I") for _ in names]
    if 0 in sizes:
        bad = sizes.index(0)
        raise FormatError(f"{names[bad]} must be at least 1, got 0", at + 4 * bad)
    return sizes


def _read_plan(r: _Reader) -> network.PoolPlan:
    v_fine, n_pos = r.scalar("<Q"), r.pos
    n_coarse, cluster_pos = r.scalar("<Q"), r.pos
    try:
        return network.pool_plan(r.array("<i8", v_fine), n_coarse)
    except network.PoolPlanError as exc:
        at = n_pos if exc.entry is None else cluster_pos + 8 * exc.entry
        raise FormatError(str(exc), at) from exc


def read_model(path, laplacians: list | None = None) -> network.Model:
    """Rebuild a checkpointed model.

    Layout after magic and version: layer count u32, then per layer a code
    u8 and its fields.  ChebConv (0): order, n_in, n_out u32, theta f64,
    bias f64.  Dense (5): n_in, n_out u32, weight f64, bias f64.  Pool (2)
    and Unpool (3): v_fine u64, n_coarse u64, cluster i64 x v_fine.  ReLU
    (1), GlobalMaxPool (4) and LogSoftmax (6) have no fields.  A size below
    1, or a cluster map that network.pool_plan refuses, is a FormatError at
    its field; a size the file cannot back fails as truncation before any
    layer is built.

    ChebConv layers are rebound to `laplacians` in file order (they are not
    stored in the checkpoint); pass the rescaled Laplacians of the graphs the
    model was trained on.  A Laplacian whose size differs from the vertex
    count a Pool or Unpool layer fixes around it is a ValueError.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), "model file")
    r.expect_magic(MODEL_MAGIC, MODEL_VERSION)
    n_layers = r.scalar("<I")
    laps = list(laplacians or [])
    layers = []
    n = source = None  # vertex count the layers so far give, and who fixed it
    rng = np.random.Generator(np.random.Philox(0))
    for k in range(n_layers):
        code_pos = r.pos
        code = r.scalar("<B")
        cls = _LAYER_FROM_CODE.get(code)
        if cls is None:
            raise FormatError(f"unknown layer code {code}", code_pos)
        values, counts = [], None
        if cls is network.ChebConv:
            order, n_in, n_out = _sizes(r, "order", "n_in", "n_out")
            values = [r.array("<f8", order * n_in * n_out), r.array("<f8", n_out)]
            if not laps:
                raise ValueError("not enough Laplacians to rebind ChebConv layers")
            layer = cls(laps.pop(0), n_in, n_out, order, rng)
            counts = (layer.lap.n, layer.lap.n)
        elif cls is network.Dense:
            n_in, n_out = _sizes(r, "n_in", "n_out")
            values = [r.array("<f8", n_in * n_out), r.array("<f8", n_out)]
            layer = cls(n_in, n_out, rng)
        elif cls in (network.Pool, network.Unpool):
            layer = cls(_read_plan(r))
            counts = layer.plan.cluster.size, layer.plan.n_coarse
            counts = counts if cls is network.Pool else counts[::-1]
        else:
            layer = cls()
        if counts:
            if n not in (None, counts[0]):
                raise ValueError(f"layer {k} ({cls.__name__}) takes {counts[0]} vertices, "
                                 f"layer {source} gives {n}: Laplacians out of order?")
            n, source = counts[1], f"{k} ({cls.__name__})"
        for (p, _), v in zip(layer.params(), values):
            p[...] = v.reshape(p.shape)
        layers.append(layer)
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
