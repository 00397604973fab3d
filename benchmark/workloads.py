"""Workloads: set-up, one timed operation each, and the correctness gates.

Every call into liegraph that an operation makes goes through
`tr.call("<module>.<function>", ...)`, so a traced run attributes the
operation's wall time to the library's modules.  Inputs that depend on the
seed are drawn before the operation starts, outside the timed region.
"""

from __future__ import annotations

import os
import time

import numpy as np
import scipy.sparse.linalg as spla

from liegraph import graph as lg
from liegraph import groups, io, network, sampling, spectral
from liegraph.groups import GroupKind
from liegraph.sampling import GridKind, GridSpec

from spans import Tracer

EPSILON = float(np.sqrt(0.1))      # epsilon^2 = 0.1, the paper's anisotropic setting
EIGEN_K = 16
HEAT_TAU = 1.0
HEAT_ORDER = 30
SAMPLE_KAPPA = 0.5
KNN_CHECK_ROWS = 8
EIGEN_RESIDUAL_TOL = 1e-8
EQUIVARIANCE_TOL = 1e-9
HEAT_MASS_TOL = 1e-9
# Edge counts of the full-size graphs at the commit that introduced the
# benchmark; a K-NN change that alters the edge set fails the gate.
EXPECTED_EDGES = {"se2": 57188, "so3": 32946, "s2": 10860}


def se2_spec(n: int, n_orient: int) -> GridSpec:
    return GridSpec(GridKind.SE2_GRID, nx=n, ny=n, n_orient=n_orient)


# name -> (full spec, tiny spec, metric kwargs, K)
BUILD_CASES = {
    "se2": (se2_spec(32, 6), se2_spec(8, 4), {"epsilon": EPSILON, "alpha": 1.0}, 16),
    "so3": (GridSpec(GridKind.SO3_ICOSAHEDRAL, level=3, n_orient=6),
            GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=4),
            {"epsilon": EPSILON, "alpha": 1.0}, 16),
    "s2": (GridSpec(GridKind.S2_ICOSAHEDRAL, level=4),
           GridSpec(GridKind.S2_ICOSAHEDRAL, level=2), {}, 8),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox([seed % 2 ** 32, stream]))


def _build_pipeline(tr: Tracer, spec: GridSpec, metric_kw: dict, knn: int,
                    power_seed: int, path: str, case: str = ""):
    """The build-graph command: sample, K-NN graph, Laplacian, lambda_max, write.
    Span names carry `:case`, so each sampling's layers are reported apart."""
    tag = f":{case}" if case else ""
    verts = tr.call(f"sampling.build_vertices{tag}", sampling.build_vertices, spec)
    metric, alpha = tr.call(f"graph.make_metric{tag}", lg.make_metric, spec, **metric_kw)
    g = tr.call(f"graph.build_graph{tag}", lg.build_graph, verts, metric, knn, alpha=alpha)
    lap = tr.call(f"graph.laplacian{tag}", lg.laplacian, g)
    lap = tr.call(f"graph.power_lambda_max{tag}", lg.power_lambda_max, lap, seed=power_seed)
    tr.call(f"io.write_graph{tag}", io.write_graph, path, g, lap)
    return g, lap


def _graph_counts(g, lap) -> dict:
    return {"graph.n_vertices": g.n_vertices, "graph.n_edges": g.n_edges,
            "spectral.lap_nnz": lap.matrix.nnz}


# Lanczos basis size for lambda_max_gap.  The top of the s2 spectrum is a
# triple eigenvalue 1e-4 (relative) above the next triple; with ARPACK's
# default basis of 20 a few start vectors in a hundred fail to converge.
GAP_NCV = 48


def lambda_max_gap(lap, seed: int) -> float:
    """(Lanczos lambda_max - stored lambda_max) / Lanczos lambda_max, from a
    start vector drawn from `seed` so the same seed gives the same number."""
    m = lap.matrix
    v0 = _rng(seed, 1).uniform(-1.0, 1.0, m.shape[0])
    top = float(spla.eigsh(m, k=1, which="LA", v0=v0, ncv=min(GAP_NCV, m.shape[0] - 1),
                           return_eigenvectors=False)[0])
    return (top - lap.lambda_max) / top


# ---------------------------------------------------------------------------
# correctness gates; each returns a list of failure messages


def _mirror_equal(rows, cols, vals) -> bool:
    """True when the (row, col, value) triples equal their transpose bit for bit."""
    fwd = np.lexsort((cols, rows))
    bwd = np.lexsort((rows, cols))
    return (np.array_equal(rows[fwd], cols[bwd]) and np.array_equal(cols[fwd], rows[bwd])
            and np.array_equal(vals[fwd].view(np.uint64), vals[bwd].view(np.uint64)))


def _kernel(verts):
    """The vertex data and public groups kernel build_graph uses for this sampling."""
    spec = verts.spec
    if spec.group_kind is GroupKind.SE2:
        return verts.params, groups.se2_pair_sq
    if spec.kind is GridKind.S2_ICOSAHEDRAL:
        return verts.matrices, groups.sphere_pair_sq
    return verts.matrices, groups.so3_pair_sq


def _sq_from(g, r: int) -> np.ndarray:
    """Squared distances from vertex r to every vertex (build_graph's row direction)."""
    data, kernel = _kernel(g.vertices)
    return kernel(data[r], data, g.metric.weights(g.vertices.spec.group_kind))


def _sq_to(g, r: int) -> np.ndarray:
    """Squared distances from every vertex to vertex r."""
    data, kernel = _kernel(g.vertices)
    return kernel(data, data[r], g.metric.weights(g.vertices.spec.group_kind))


def _knn_of(g, r: int) -> set:
    d2 = _sq_from(g, r)
    d2[r] = np.inf
    kth = np.partition(d2, g.knn - 1)[g.knn - 1]
    return set(np.flatnonzero(d2 <= kth * (1.0 + lg.TIE_REL)).tolist())


def knn_failures(g, rows) -> list[str]:
    """Neighbour sets of `rows` against brute force: row(r) must equal
    knn(r) plus every j with r in knn(j), tie classes kept whole."""
    bad = []
    n = g.n_vertices
    row_of = np.repeat(np.arange(n), np.diff(g.indptr))
    # K-th smallest stored distance per vertex, to shortlist the j that
    # could hold r among their K nearest.
    by_dist = np.lexsort((g.distances, row_of))
    kth_sq = g.distances[by_dist][g.indptr[:-1] + g.knn - 1] ** 2
    for r in rows:
        nbrs = set(g.indices[g.indptr[r]:g.indptr[r + 1]].tolist())
        own = _knn_of(g, r)
        if not own <= nbrs:
            bad.append(f"vertex {r}: K-nearest {sorted(own - nbrs)} missing from its row")
        for j in nbrs - own:
            if r not in _knn_of(g, j):
                bad.append(f"vertex {r}: neighbour {j} is in neither K-nearest set")
        d2_in = _sq_to(g, r)
        shortlist = np.flatnonzero(d2_in <= kth_sq * (1.0 + 1e-6))
        for j in shortlist.tolist():
            if j != r and j not in nbrs and r in _knn_of(g, j):
                bad.append(f"vertex {r}: {j} has it among its K nearest but is not a neighbour")
    return bad


def readback_failures(path: str, g, lap) -> list[str]:
    g2, lap2 = io.read_graph(path)
    same = (np.array_equal(g.vertices.params, g2.vertices.params)
            and g.vertices.spec == g2.vertices.spec
            and all(np.array_equal(getattr(g, a), getattr(g2, a))
                    for a in ("indptr", "indices", "weights", "distances"))
            and (g.knn, g.bandwidth, g.alpha, g.metric.epsilon, g.metric.xi)
            == (g2.knn, g2.bandwidth, g2.alpha, g2.metric.epsilon, g2.metric.xi))
    if lap2 is None:
        return ["stored Laplacian missing on read-back"]
    m, m2 = lap.matrix, lap2.matrix
    same = same and lap.lambda_max == lap2.lambda_max and all(
        np.array_equal(getattr(m, a), getattr(m2, a)) for a in ("indptr", "indices", "data"))
    return [] if same else [f"{path} does not read back equal to the graph written"]


def graph_failures(g, lap, min_degree: int) -> list[str]:
    """Invariants shared by built and sampled graphs."""
    bad = []
    row_of = np.repeat(np.arange(g.n_vertices), np.diff(g.indptr))
    if not _mirror_equal(row_of, g.indices, g.weights):
        bad.append("adjacency weights are not bit-symmetric")
    if not _mirror_equal(row_of, g.indices, g.distances):
        bad.append("edge distances are not bit-symmetric")
    if np.any(row_of == g.indices):
        bad.append("adjacency has self-loops")
    if g.n_vertices and np.diff(g.indptr).min() < min_degree:
        bad.append(f"a vertex has fewer than {min_degree} neighbours")
    if not 0.0 < lap.lambda_max <= 2.0:
        bad.append(f"lambda_max {lap.lambda_max} outside (0, 2]")
    return bad


def build_gate(g, lap, path: str, expected_edges: int | None, rows) -> list[str]:
    bad = graph_failures(g, lap, g.knn)
    if expected_edges is not None and g.n_edges != expected_edges:
        bad.append(f"{g.n_edges} edges, expected {expected_edges}")
    bad += knn_failures(g, rows)
    bad += readback_failures(path, g, lap)
    return bad


def eigen_gate(lap, eig) -> list[str]:
    bad = []
    vals, vecs = eig.values, eig.vectors
    if np.any(np.diff(vals) < 0.0):
        bad.append("eigenvalues do not ascend")
    if abs(vals[0]) > 1e-8:
        bad.append(f"smallest eigenvalue {vals[0]:.3e} is not 0")
    resid = np.linalg.norm(lap.matrix @ vecs - vecs * vals, axis=0)
    if resid.max() > EIGEN_RESIDUAL_TOL:
        bad.append(f"eigenpair residual {resid.max():.3e} > {EIGEN_RESIDUAL_TOL:.0e}")
    return bad


def heat_gate(g, x, y, aniso, impulse: int) -> list[str]:
    bad = []
    if not np.all(np.isfinite(y)):
        return ["heat output is not finite"]
    # sqrt(deg) spans the kernel of the normalized Laplacian, so exp(-tau L)
    # leaves the signal's component along it unchanged.
    root = np.sqrt(g.degrees())
    before, after = root @ x, root @ y
    if abs(after - before) > HEAT_MASS_TOL * abs(before):
        bad.append(f"heat changed the sqrt(deg) component from {before:.12g} to {after:.12g}")
    ratio = aniso[impulse // g.vertices.spec.n_spatial]["ratio"]
    if not ratio > 1.0:
        bad.append(f"impulse slice anisotropy ratio {ratio} is not above 1")
    return bad


def sample_gate(g, sub, lap, path: str, kappa: float) -> list[str]:
    bad = graph_failures(sub, lap, 0)
    gi, gj, gw, gd = g.edge_pairs()
    si, sj, sw, sd = sub.edge_pairs()
    n = g.n_vertices
    pos = np.searchsorted(gi * n + gj, si * n + sj)
    pos = np.minimum(pos, gi.size - 1)
    if not (np.array_equal(gi[pos], si) and np.array_equal(gj[pos], sj)
            and np.array_equal(gw[pos], sw) and np.array_equal(gd[pos], sd)):
        bad.append("sampled edges are not a subset of the graph's edges with equal weights")
    sigma = np.sqrt(gi.size * kappa * (1.0 - kappa))
    if abs(si.size - kappa * gi.size) > 6.0 * sigma:
        bad.append(f"kept {si.size} of {gi.size} edges, far from kappa={kappa}")
    return bad + readback_failures(path, sub, lap)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up, one timed operation, its gate and (traced runs) layer numbers."""

    setup_repeats = 1

    def setup(self, tr: Tracer) -> None:
        pass

    def inputs(self, i: int, tr: Tracer | None):
        """Seeded inputs of operation i, or None when the workload has no more.
        tr is the tracer when operation i is traced."""
        raise NotImplementedError

    def op(self, tr: Tracer, inp) -> dict:
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def layer_numbers(self, inp, out) -> dict:
        return {}


class BuildWorkload(Workload):
    """The build-graph command on each sampling in turn; one operation
    builds all of BUILD_CASES, so a gain for one group that costs another
    shows in the same operation time."""

    setup_repeats = 3

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.seed = seed
        self.cases = {}
        for case, (full, small, metric_kw, knn) in BUILD_CASES.items():
            self.cases[case] = {"spec": small if tiny else full, "warm_spec": small,
                                "metric_kw": metric_kw, "knn": knn,
                                "expected_edges": None if tiny else EXPECTED_EDGES[case],
                                "path": os.path.join(workdir, f"build_{case}.clgr")}

    def setup(self, tr):
        # Warm-up: the same command on each tiny sampling, untraced.
        for c in self.cases.values():
            _build_pipeline(Tracer(), c["warm_spec"], c["metric_kw"], c["knn"], 0, c["path"])

    def inputs(self, i, tr):
        out = {}
        for k, (case, c) in enumerate(self.cases.items()):
            rng = _rng(self.seed, len(self.cases) * i + k)
            n = c["spec"].n_vertices
            out[case] = {"power_seed": int(rng.integers(2 ** 31)),
                         "rows": rng.choice(n, size=KNN_CHECK_ROWS, replace=False),
                         "block": int(rng.integers(n))}
        return out

    def op(self, tr, inp):
        out = {"times": {}}
        for case, c in self.cases.items():
            t = time.perf_counter()
            out[case] = _build_pipeline(tr, c["spec"], c["metric_kw"], c["knn"],
                                        inp[case]["power_seed"], c["path"], case)
            out["times"][f"build_{case}"] = time.perf_counter() - t
        return out

    def check(self, inp, out):
        bad = []
        for case, c in self.cases.items():
            g, lap = out[case]
            bad += [f"{case}: {msg}" for msg in
                    build_gate(g, lap, c["path"], c["expected_edges"], inp[case]["rows"])]
        return bad

    def layer_numbers(self, inp, out):
        numbers = {}
        for case, c in self.cases.items():
            g, lap = out[case]
            n = g.n_vertices
            lo = min(inp[case]["block"], max(n - lg.ROW_CHUNK, 0))
            rows = np.arange(lo, min(lo + lg.ROW_CHUNK, n))
            # One ROW_CHUNK-row block against all vertices, as build_graph computes it.
            data, kernel = _kernel(g.vertices)
            a, b = data[rows][:, None], data[None]
            w = g.metric.weights(g.vertices.spec.group_kind)
            t = time.perf_counter()
            kernel(a, b, w)
            dt = time.perf_counter() - t
            found = {**_graph_counts(g, lap),
                     "groups.pair_sq_ns": dt * 1e9 / (rows.size * n),
                     "graph.lambda_max_gap": lambda_max_gap(lap, inp[case]["power_seed"]),
                     "io.graph_bytes": os.path.getsize(c["path"])}
            numbers.update({f"{key}.{case}": value for key, value in found.items()})
        return numbers


def _write_input_graph(spec: GridSpec, path: str) -> None:
    verts = sampling.build_vertices(spec)
    metric, alpha = lg.make_metric(spec, epsilon=EPSILON, alpha=1.0)
    g = lg.build_graph(verts, metric, 16, alpha=alpha)
    io.write_graph(path, g, lg.power_lambda_max(lg.laplacian(g)))


def _eigenmaps(tr: Tracer, path: str, out_path: str):
    """The eigenmaps command: read, smallest-k eigenpairs, write the vectors."""
    g, lap = tr.call("io.read_graph", io.read_graph, path)
    eig = tr.call("spectral.eigensystem", spectral.eigensystem, lap, EIGEN_K)
    tr.call("io.write_signal", io.write_signal, out_path, eig.vectors)
    return g, lap, eig


class EigenWorkload(Workload):
    """The eigenmaps command on a graph below DENSE_EIGEN_CAP (dense solve)."""

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.spec = se2_spec(6, 4) if tiny else se2_spec(24, 6)
        self.path = os.path.join(workdir, "eigen.clgr")
        self.warm_path = os.path.join(workdir, "eigen_warm.clgr")
        self.out_path = os.path.join(workdir, "eigen.clsg")

    def setup(self, tr):
        _write_input_graph(self.spec, self.path)
        _write_input_graph(se2_spec(6, 4), self.warm_path)
        _eigenmaps(Tracer(), self.warm_path, self.out_path)

    def inputs(self, i, tr):
        return {}

    def op(self, tr, inp):
        g, lap, eig = _eigenmaps(tr, self.path, self.out_path)
        return {"graph": g, "lap": lap, "eig": eig}

    def check(self, inp, out):
        return eigen_gate(out["lap"], out["eig"])


class AnalyzeWorkload(Workload):
    """The read side of the command line on a graph above DENSE_EIGEN_CAP:
    eigenmaps (Lanczos), diffuse, check-equivariance and sample --edges,
    each starting from read_graph."""

    COMMANDS = ("eigenmaps", "diffuse", "equivariance", "sample")

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.spec = se2_spec(8, 4) if tiny else se2_spec(32, 6)
        self.seed = seed
        self.path = os.path.join(workdir, "analyze.clgr")
        self.warm_path = os.path.join(workdir, "analyze_warm.clgr")
        self.sig_path = os.path.join(workdir, "analyze.clsg")
        self.sub_path = os.path.join(workdir, "analyze_sampled.clgr")

    def setup(self, tr):
        _write_input_graph(self.spec, self.path)
        # Warm-up: every command once on a tiny graph, plus one Lanczos solve.
        _write_input_graph(se2_spec(8, 4), self.warm_path)
        warm = self.inputs(0, None, se2_spec(8, 4))
        self._run(Tracer(), warm, self.warm_path)
        _, lap = io.read_graph(self.warm_path)
        spectral.eigensystem(lap, EIGEN_K, dense_cap=0)

    def inputs(self, i, tr, spec=None):
        spec = spec or self.spec
        rng = _rng(self.seed, i)
        margin = spec.nx // 4
        ix, iy = rng.integers(margin, spec.nx - margin, size=2)
        impulse = int(rng.integers(spec.n_orient)) * spec.n_spatial + int(iy) * spec.nx + int(ix)
        x = np.zeros(spec.n_vertices)
        x[impulse] = 1.0
        return {"impulse": impulse, "x": x, "turns": int(rng.integers(1, 4)),
                "sample_seed": int(rng.integers(2 ** 31)), "power_seed": int(rng.integers(2 ** 31))}

    def _run(self, tr, inp, path):
        out = {"times": {}}
        t = time.perf_counter()
        out["graph"], out["lap"], out["eig"] = _eigenmaps(tr, path, self.sig_path)
        out["times"]["eigenmaps"] = time.perf_counter() - t

        t = time.perf_counter()
        g, lap = tr.call("io.read_graph", io.read_graph, path)
        out["heat"] = tr.call("spectral.heat_diffuse", spectral.heat_diffuse, lap, inp["x"],
                              HEAT_TAU, HEAT_ORDER)
        out["aniso"] = tr.call("spectral.slice_anisotropy", spectral.slice_anisotropy,
                               g.vertices, out["heat"])
        out["times"]["diffuse"] = time.perf_counter() - t

        t = time.perf_counter()
        g, lap = tr.call("io.read_graph", io.read_graph, path)
        perm = tr.call("spectral.rotation_permutation", spectral.rotation_permutation,
                       g.vertices.spec, inp["turns"])
        out["equivariance"] = tr.call("spectral.equivariance_error",
                                      spectral.equivariance_error, lap.matrix, perm)
        out["times"]["equivariance"] = time.perf_counter() - t

        t = time.perf_counter()
        g, _ = tr.call("io.read_graph", io.read_graph, path)
        sub = tr.call("graph.sample_edges", lg.sample_edges, g, SAMPLE_KAPPA, inp["sample_seed"])
        sub_lap = tr.call("graph.laplacian:sampled", lg.laplacian, sub)
        sub_lap = tr.call("graph.power_lambda_max:sampled", lg.power_lambda_max, sub_lap,
                          seed=inp["power_seed"])
        tr.call("io.write_graph:sampled", io.write_graph, self.sub_path, sub, sub_lap)
        out["sub"], out["sub_lap"] = sub, sub_lap
        out["times"]["sample"] = time.perf_counter() - t
        return out

    def op(self, tr, inp):
        return self._run(tr, inp, self.path)

    def check(self, inp, out):
        g = out["graph"]
        bad = eigen_gate(out["lap"], out["eig"])
        bad += heat_gate(g, inp["x"], out["heat"], out["aniso"], inp["impulse"])
        if not out["equivariance"] <= EQUIVARIANCE_TOL:
            bad.append(f"equivariance error {out['equivariance']:.3e} > {EQUIVARIANCE_TOL:.0e}")
        bad += sample_gate(g, out["sub"], out["sub_lap"], self.sub_path, SAMPLE_KAPPA)
        return bad

    def layer_numbers(self, inp, out):
        # Bytes one CSR matvec of the rescaled Laplacian reads and writes:
        # values, column indices, row pointers, the input and output vectors.
        m = lg.rescale(out["lap"]).matrix
        spmv_bytes = (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                      + 2 * m.shape[0] * inp["x"].itemsize)
        counts = _graph_counts(out["graph"], out["lap"])
        return {**{f"{key}.v6144": value for key, value in counts.items()},
                "spectral.heat_spmv": HEAT_ORDER - 1,
                "spectral.heat_bytes_computed": (HEAT_ORDER - 1) * spmv_bytes,
                "graph.lambda_max_gap.sampled": lambda_max_gap(out["sub_lap"], inp["power_seed"]),
                "io.graph_bytes.sampled": os.path.getsize(self.sub_path)}


class TrainWorkload(Workload):
    """train_demo at the acceptance-criterion-9 setting, on fresh models
    built in set-up so every call trains the same trajectory."""

    def __init__(self, seed: int, seconds: float, tiny: bool):
        self.seed = seed % 2 ** 31
        self.epochs = 2 if tiny else 30
        # One fresh model per call, enough for calls of a second or longer;
        # the run ends early if they run out.
        self.n_models = int(np.ceil(seconds)) + 4
        self.models = []

    def setup(self, tr):
        self.models = [tr.call("network.build_demo", network.build_demo, self.seed)
                       for _ in range(self.n_models)]
        # Warm-up: one epoch on a model of its own.
        network.train_demo(epochs=1, lr=0.2, seed=self.seed, setup=network.build_demo(self.seed))

    def inputs(self, i, tr):
        if i >= len(self.models):
            return None
        setup = self.models[i]
        counts = {"forward": 0, "backward": 0}
        if tr is not None:
            model = setup.model
            for k, layer in enumerate(model.layers):
                name = f"network.L{k}_{type(layer).__name__}"
                layer.forward = tr.wrap(f"{name}.forward", layer.forward)
                layer.backward = tr.wrap(f"{name}.backward", layer.backward)
            for kind in counts:
                setattr(model, kind, _counted(counts, kind, getattr(model, kind)))
        return {"setup": setup, "counts": counts}

    def op(self, tr, inp):
        rows, _ = tr.call("network.train_demo", network.train_demo, epochs=self.epochs,
                          lr=0.2, seed=self.seed, batch=32, n_train=256, n_test=128,
                          setup=inp["setup"])
        return {"rows": rows}

    def check(self, inp, out):
        bad = []
        rows = out["rows"]
        if not all(np.isfinite(r["loss"]) for r in rows):
            bad.append("loss is not finite in every epoch")
        if not all(r["rotation_consistency"] == 1.0 for r in rows):
            bad.append("rotation consistency below 1.0 in some epoch")
        return bad

    def layer_numbers(self, inp, out):
        return {"network.forward_calls": inp["counts"]["forward"],
                "network.backward_calls": inp["counts"]["backward"],
                "network.final_accuracy": out["rows"][-1]["accuracy"]}


def _counted(counts: dict, key: str, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def make(name: str, seed: int, seconds: float, workdir: str, tiny: bool = False) -> Workload:
    if name == "build":
        return BuildWorkload(seed, workdir, tiny)
    if name == "eigen_v3456":
        return EigenWorkload(seed, workdir, tiny)
    if name == "analyze_v6144":
        return AnalyzeWorkload(seed, workdir, tiny)
    if name == "train":
        return TrainWorkload(seed, seconds, tiny)
    raise ValueError(f"unknown workload {name}")
