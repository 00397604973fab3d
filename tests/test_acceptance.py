"""Acceptance suite: eleven verified properties, one reported line each.

Each test prints `criterion N: PASS/FAIL - measured values` through the
terminal reporter so the lines stay visible under output capture."""

import time

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from liegraph import io
from liegraph.cli import main as cli_main
from liegraph.graph import (
    laplacian,
    power_lambda_max,
    rescale,
    sample_edges,
    sample_vertices,
)
from liegraph.groups import (
    GroupKind,
    Metric,
    se2_log_params,
    se2_matrices,
    se2_pair_sq,
    so3_log_matrices,
    so3_pair_sq,
)
from liegraph.network import (
    ChebConv,
    Dense,
    GlobalMaxPool,
    LogSoftmax,
    Pool,
    ReLU,
    Unpool,
    build_demo,
    coarsen,
    nll_loss,
)
from liegraph.sampling import GridKind, GridSpec
from liegraph.spectral import (
    cheb_apply,
    eigensystem,
    equivariance_error,
    heat_diffuse,
    rotation_permutation,
    slice_anisotropy,
)

from conftest import DEMO_CALL, EPS_ANISO, built
from oracles import (
    apply_permutation,
    central_difference,
    matrix_log_series,
    se2_algebra_matrix,
    se2_compose,
    so3_algebra_matrix,
)


@pytest.fixture(scope="session")
def report(request):
    tr = request.config.pluginmanager.getplugin("terminalreporter")

    def _report(num: int, ok: bool, detail: str):
        line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
        if tr is not None:
            tr.write_line("")
            tr.write_line(line)
        else:
            print(line)
        assert ok, line

    return _report


def rand_se2_params(rng, n):
    return np.stack([rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n),
                     rng.uniform(-0.98 * np.pi, 0.98 * np.pi, n)], axis=1)


def rand_so3_mats(rng, n, max_angle=0.98 * np.pi):
    axis = rng.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    angle = rng.uniform(1e-6, max_angle, n)
    k = np.zeros((n, 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -axis[:, 2], axis[:, 1]
    k[:, 1, 0], k[:, 1, 2] = axis[:, 2], -axis[:, 0]
    k[:, 2, 0], k[:, 2, 1] = -axis[:, 1], axis[:, 0]
    return (np.eye(3) + np.sin(angle)[:, None, None] * k
            + (1.0 - np.cos(angle))[:, None, None] * (k @ k))


def test_criterion_01_log_maps(report):
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(101))

    params = rand_se2_params(rng, 1000)
    coords = se2_log_params(params[:, 0], params[:, 1], params[:, 2])
    lib = np.stack([se2_algebra_matrix(c) for c in coords])
    oracle = matrix_log_series(se2_matrices(params))
    err_se2 = float(np.max(np.abs(lib - oracle)))

    mats = rand_so3_mats(rng, 1000)
    coords = so3_log_matrices(mats)
    lib = np.stack([so3_algebra_matrix(c) for c in coords])
    oracle = matrix_log_series(mats)
    err_so3 = float(np.max(np.abs(lib - oracle)))

    elapsed = time.perf_counter() - start
    ok = err_se2 <= 1e-9 and err_so3 <= 1e-9 and elapsed < 5.0
    report(1, ok, f"log vs series oracle: se2 {err_se2:.2e}, so3 {err_so3:.2e} "
                  f"(tol 1e-9), {elapsed:.1f}s")


def test_criterion_02_left_invariance(report):
    rng = np.random.Generator(np.random.Philox(102))
    worst = {}

    w = Metric(epsilon=0.6, xi=1.3).weights(GroupKind.SE2)
    a, g, h = rand_se2_params(rng, 3000).reshape(1000, 3, 3).transpose(1, 0, 2)
    d0 = np.sqrt(se2_pair_sq(g, h, w))
    d1 = np.sqrt(se2_pair_sq(se2_compose(a, g), se2_compose(a, h), w))
    worst["se2"] = float(np.max(np.abs(d1 - d0)))

    w = Metric(epsilon=0.7, xi=0.8).weights(GroupKind.SO3)
    a, g, h = rand_so3_mats(rng, 3000).reshape(1000, 3, 3, 3).transpose(1, 0, 2, 3)
    d0 = np.sqrt(so3_pair_sq(g, h, w))
    d1 = np.sqrt(so3_pair_sq(a @ g, a @ h, w))
    worst["so3"] = float(np.max(np.abs(d1 - d0)))

    ok = worst["se2"] <= 1e-9 and worst["so3"] <= 1e-9
    report(2, ok, f"|d(ag,ah) - d(g,h)| over 1000 triples: se2 {worst['se2']:.2e}, "
                  f"so3 {worst['so3']:.2e} (tol 1e-9)")


def spectrum_check(graph):
    """Dense eigenvalues, kernel bound, sqrt-degree kernel vector if connected."""
    lap = laplacian(graph)
    vals = np.linalg.eigvalsh(lap.matrix.toarray())
    lo, hi = float(vals[0]), float(vals[-1])
    n_comp, _ = csgraph.connected_components(graph.adjacency(), directed=False)
    deg_resid = None
    if n_comp == 1:
        v = np.sqrt(graph.degrees())
        deg_resid = float(np.linalg.norm(lap.matrix @ v) / np.linalg.norm(v))
    return lo, hi, float(vals[0]), deg_resid


def test_criterion_03_spectrum_bounds(report, se2_8x8x4, r2_16x16, s2_level2):
    graphs = {
        "se2 8x8x4": se2_8x8x4,
        "se2 4x4x4": built(GridKind.SE2_GRID, nx=4, ny=4, orient=4,
                           epsilon=EPS_ANISO, alpha=1.0, knn=10),
        "se2 5x5x2 odd": built(GridKind.SE2_GRID, nx=5, ny=5, orient=2,
                               epsilon=0.5, alpha=2.0, knn=8),
        "r2 16x16": r2_16x16,
        "r2 3x3": built(GridKind.R2_GRID, nx=3, ny=3, knn=2),
        "single edge": built(GridKind.R2_GRID, nx=2, ny=1, knn=1),
        "s2 level1": built(GridKind.S2_ICOSAHEDRAL, level=1),
        "s2 level2": s2_level2,
        "so3 level0 x4": built(GridKind.SO3_ICOSAHEDRAL, level=0, orient=4,
                               epsilon=0.6, alpha=1.0, knn=8),
        "so3 level1 x2": built(GridKind.SO3_ICOSAHEDRAL, level=1, orient=2,
                               epsilon=0.8, alpha=1.5, knn=8),
        "edge sampled": sample_edges(se2_8x8x4, 0.5, seed=0),
        "vertex sampled": sample_vertices(se2_8x8x4, 0.5, seed=0),
    }
    worst_lo, worst_hi, worst_l0, worst_deg = 0.0, 2.0, 0.0, 0.0
    for name, g in graphs.items():
        assert g.n_vertices <= 400, name
        lo, hi, l0, deg_resid = spectrum_check(g)
        worst_lo = min(worst_lo, lo)
        worst_hi = max(worst_hi, hi)
        worst_l0 = max(worst_l0, abs(l0))
        if deg_resid is not None:
            worst_deg = max(worst_deg, deg_resid)
    ok = (worst_lo >= -1e-9 and worst_hi <= 2.0 + 1e-9
          and worst_l0 <= 1e-9 and worst_deg <= 1e-9)
    report(3, ok, f"{len(graphs)} graphs: spectrum [{worst_lo:.1e}, {worst_hi:.6f}], "
                  f"|lambda_0| <= {worst_l0:.1e}, sqrt-deg residual {worst_deg:.1e}")


def test_criterion_04_equivariance(report, se2_8x8x4_lap, se2_16x16x6):
    lap16 = power_lambda_max(laplacian(se2_16x16x6))
    worst = 0.0
    for lap, spec in ((se2_8x8x4_lap, GridSpec(GridKind.SE2_GRID, nx=8, ny=8, n_orient=4)),
                      (lap16, se2_16x16x6.vertices.spec)):
        for q in (1, 2, 3):
            perm = rotation_permutation(spec, q)
            worst = max(worst, equivariance_error(lap.matrix, perm))
    rng = np.random.Generator(np.random.Philox(104))
    contrast = equivariance_error(se2_8x8x4_lap.matrix, rng.permutation(256))
    ok = worst <= 1e-9 and contrast >= 1e-2
    report(4, ok, f"rotation audit 8x8x4 + 16x16x6: worst {worst:.2e} (tol 1e-9); "
                  f"random permutation contrast {contrast:.2e} (>= 1e-2)")


SPECTRAL_GRAPHS = [
    ("se2", dict(nx=4, ny=4, orient=4, epsilon=EPS_ANISO, alpha=1.0, knn=8)),
    ("se2", dict(nx=5, ny=5, orient=4, epsilon=0.5, alpha=2.0, knn=10)),
    ("se2", dict(nx=6, ny=6, orient=4, epsilon=0.8, alpha=0.5, knn=12)),
    ("se2", dict(nx=7, ny=7, orient=4, epsilon=EPS_ANISO, alpha=1.0, knn=16)),
    ("se2", dict(nx=4, ny=4, orient=2, epsilon=1.0, alpha=1.0, knn=6)),
    ("se2", dict(nx=6, ny=6, orient=2, epsilon=0.4, alpha=1.5, knn=8)),
    ("se2", dict(nx=8, ny=8, orient=2, epsilon=0.9, alpha=3.0, knn=12)),
    ("se2", dict(nx=3, ny=3, orient=6, epsilon=0.5, alpha=1.0, knn=8)),
    ("se2", dict(nx=4, ny=6, orient=4, epsilon=0.7, alpha=1.0, knn=9)),
    ("se2", dict(nx=5, ny=3, orient=2, epsilon=0.6, alpha=0.8, knn=5)),
    ("r2", dict(nx=8, ny=8, knn=8)),
    ("r2", dict(nx=10, ny=10, knn=8)),
    ("r2", dict(nx=14, ny=14, knn=8)),
    ("r2", dict(nx=5, ny=5, knn=4)),
    ("r2", dict(nx=12, ny=12, knn=6)),
    ("s2", dict(level=1, knn=6)),
    ("s2", dict(level=2, knn=8)),
    ("so3", dict(level=0, orient=4, epsilon=0.6, alpha=1.0, knn=8)),
    ("so3", dict(level=0, orient=6, epsilon=0.5, alpha=2.0, knn=10)),
    ("so3", dict(level=1, orient=2, epsilon=0.7, alpha=1.0, knn=8)),
]

_KINDS = {"se2": GridKind.SE2_GRID, "r2": GridKind.R2_GRID,
          "s2": GridKind.S2_ICOSAHEDRAL, "so3": GridKind.SO3_ICOSAHEDRAL}


def test_criterion_05_spectral_oracle(report):
    worst_cheb, worst_heat = 0.0, 0.0
    for i, (kind, kwargs) in enumerate(SPECTRAL_GRAPHS):
        g = built(_KINDS[kind], **kwargs)
        assert g.n_vertices <= 200
        lap = power_lambda_max(laplacian(g))
        dense = lap.matrix.toarray()
        vals, vecs = np.linalg.eigh(dense)
        rng = np.random.Generator(np.random.Philox(500 + i))
        x = rng.standard_normal(g.n_vertices)

        n_terms = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(n_terms)
        lam_tilde = 2.0 * vals / lap.lambda_max - 1.0
        ref = vecs @ (np.polynomial.chebyshev.chebval(lam_tilde, coeffs)
                      * (vecs.T @ x))
        got = cheb_apply(rescale(lap), x, coeffs)
        denom = max(np.linalg.norm(ref), 1e-30)
        worst_cheb = max(worst_cheb, np.linalg.norm(got - ref) / denom)

        for tau in (0.1, 1.0, 5.0):
            ref = vecs @ (np.exp(-tau * vals) * (vecs.T @ x))
            got = heat_diffuse(lap, x, tau, order=30)
            rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            worst_heat = max(worst_heat, rel)
    ok = worst_cheb <= 1e-8 and worst_heat <= 1e-6
    report(5, ok, f"20 graphs: cheb vs dense {worst_cheb:.2e} (tol 1e-8), "
                  f"heat tau in {{0.1,1,5}} {worst_heat:.2e} (tol 1e-6)")


def fd_max_rel_err(layer, x, rng, probes=50, arrays=None):
    """Worst relative backward-vs-central-difference error over random slots."""
    c = rng.standard_normal(layer.forward(x).shape)

    def loss():
        return float(np.sum(c * layer.forward(x)))

    for _, g in layer.params():
        g[...] = 0.0
    layer.forward(x)
    gx = layer.backward(c)
    targets = [(x, gx)] + (arrays if arrays is not None else
                           [(p, g) for p, g in layer.params()])
    worst = 0.0
    for arr, grad in targets:
        count = min(probes, arr.size)
        flat = rng.choice(arr.size, size=count, replace=False)
        for f in flat:
            idx = np.unravel_index(f, arr.shape)
            fd = central_difference(loss, arr, idx)
            worst = max(worst, abs(grad[idx] - fd) / max(1.0, abs(fd)))
    return worst


def smooth_pool_input(rng, plan, shape):
    """Cluster values with top-two gaps safely above the probe step."""
    for _ in range(20):
        x = rng.standard_normal(shape)
        xs = x[plan.order]
        ok = True
        for c in range(plan.n_coarse):
            seg = xs[plan.starts[c]:plan.starts[c] + plan.sizes[c]].reshape(plan.sizes[c], -1)
            if plan.sizes[c] > 1:
                top2 = np.sort(seg, axis=0)[-2:]
                if np.min(top2[1] - top2[0]) <= 1e-3:
                    ok = False
                    break
        if ok:
            return x
    raise AssertionError("no gap-safe pooling input found")


def test_criterion_06_gradient_suite(report, se2_8x8x4_lap):
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(106))
    worst = 0.0
    r = rescale(se2_8x8x4_lap)

    conv = ChebConv(r, 2, 3, order=4, rng=rng)
    worst = max(worst, fd_max_rel_err(conv, rng.standard_normal((256, 2, 2)), rng))

    relu = ReLU()
    x = rng.standard_normal((64, 3, 2))
    x += 0.2 * np.sign(x)
    worst = max(worst, fd_max_rel_err(relu, x, rng))

    se2_spec = GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2)
    s2_spec = GridSpec(GridKind.S2_ICOSAHEDRAL, level=1)
    for plan in (coarsen(se2_spec)[1], coarsen(s2_spec)[1]):
        x = smooth_pool_input(rng, plan, (plan.cluster.size, 2, 2))
        worst = max(worst, fd_max_rel_err(Pool(plan), x, rng))
        y = rng.standard_normal((plan.n_coarse, 2, 2))
        worst = max(worst, fd_max_rel_err(Unpool(plan), y, rng))

    x = rng.standard_normal((40, 3, 2))
    while True:
        top2 = np.sort(x, axis=0)[-2:]
        if np.min(top2[1] - top2[0]) > 1e-3:
            break
        x = rng.standard_normal((40, 3, 2))
    worst = max(worst, fd_max_rel_err(GlobalMaxPool(), x, rng))

    dense = Dense(6, 4, rng)
    worst = max(worst, fd_max_rel_err(dense, rng.standard_normal((10, 6)), rng))
    worst = max(worst, fd_max_rel_err(LogSoftmax(), rng.standard_normal((12, 5)), rng))

    lp = rng.standard_normal((10, 4))
    labels = rng.integers(0, 4, 10)
    _, grad = nll_loss(lp, labels)
    for f in rng.choice(lp.size, size=40, replace=False):
        idx = np.unravel_index(f, lp.shape)
        fd = central_difference(lambda: nll_loss(lp, labels)[0], lp, idx)
        worst = max(worst, abs(grad[idx] - fd) / max(1.0, abs(fd)))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 30.0
    report(6, ok, f"all layers, 50 probes each: max rel err {worst:.2e} "
                  f"(tol 1e-5), {elapsed:.2f}s")


def spread(vals):
    return float((vals.max() - vals.min()) / vals.mean())


def test_criterion_07_eigenmap_structure(report, s2_level2, r2_16x16):
    eig = eigensystem(power_lambda_max(laplacian(s2_level2)), k=9)
    s1 = abs(float(eig.values[0]))
    s3 = spread(eig.values[1:4])
    s5 = spread(eig.values[4:9])
    sphere_ok = s1 <= 1e-9 and s3 <= 0.05 and s5 <= 0.05

    vals = eigensystem(power_lambda_max(laplacian(r2_16x16)), k=6).values
    pair12 = (vals[2] - vals[1]) / np.mean(vals[1:3])
    pair45 = (vals[5] - vals[4]) / np.mean(vals[4:6])
    r31 = vals[3] / vals[1]
    r41 = vals[4] / vals[1]
    grid_ok = (pair12 <= 0.05 and pair45 <= 0.05
               and 1.9 <= r31 <= 2.2 and 3.8 <= r41 <= 4.2)

    ok = sphere_ok and grid_ok
    report(7, ok, f"sphere multiplets 1/3/5 spreads {s1:.1e}/{s3:.1e}/{s5:.1e} "
                  f"(tol 5%); grid pairs at indices (1,2) gap {pair12:.1e} and "
                  f"(4,5) gap {pair45:.1e} with ratios {r31:.2f}/{r41:.2f} "
                  f"[deviation: the literal pairing among eigenvalues 1-4 is "
                  f"unattainable on this non-periodic grid, whose Neumann "
                  f"spectrum doubles at index 3; the adjacent pairs above are "
                  f"the substantive check]")


def test_criterion_08_anisotropic_diffusion(report, se2_16x16x6, r2_16x16):
    lap = power_lambda_max(laplacian(se2_16x16x6))
    x = np.zeros(se2_16x16x6.n_vertices)
    x[8 * 16 + 8] = 1.0                      # slice-0 centre
    y = heat_diffuse(lap, x, 1.0, order=30)
    aniso = slice_anisotropy(se2_16x16x6.vertices, y)[0]["ratio"]

    lap_iso = power_lambda_max(laplacian(r2_16x16))
    x = np.zeros(256)
    x[8 * 16 + 8] = 1.0
    y = heat_diffuse(lap_iso, x, 1.0, order=30)
    iso = slice_anisotropy(r2_16x16.vertices, y)[0]["ratio"]

    ok = aniso > 1.5 and 0.9 <= iso <= 1.1
    report(8, ok, f"impulse diffusion: anisotropic slice ratio {aniso:.1f} "
                  f"(> 1.5), isotropic ratio {iso:.3f} (in [0.9, 1.1])")


def test_criterion_09_demo_training(report, demo_runs):
    """The five seeds train in the session's shared demo_runs; their wall
    time, recorded by the fixture, counts in the elapsed time."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(109))
    x = rng.standard_normal((256, 100, 1))

    setup = build_demo(seed=0)
    before = setup.model.forward(x)
    after = setup.model.forward(apply_permutation(rotation_permutation(setup.spec, 1), x))
    untrained_inv = float(np.max(np.abs(before - after)))

    runs, train_s = demo_runs
    assert sorted(runs) == [0, 1, 2, 3, 4] and DEMO_CALL == {"epochs": 30, "lr": 0.2}
    finals = [rows[-1]["accuracy"] for rows, _ in runs.values()]
    trained = runs[0][1]
    a = trained.model.forward(x)
    b = trained.model.forward(apply_permutation(rotation_permutation(trained.spec, 1), x))
    trained_inv = float(np.max(np.abs(a - b)))
    hits = sum(acc >= 0.9 for acc in finals)
    elapsed = time.perf_counter() - start + train_s

    ok = (untrained_inv <= 1e-6 and trained_inv <= 1e-6
          and hits >= 4 and elapsed < 600.0)
    report(9, ok, f"logit invariance untrained {untrained_inv:.1e} / trained "
                  f"{trained_inv:.1e} (tol 1e-6); accuracy >= 90% in {hits}/5 "
                  f"seeds (finals {', '.join(f'{a:.2f}' for a in finals)}), "
                  f"{elapsed:.0f}s")


def test_criterion_10_subgraph_robustness(report, se2_8x8x4):
    worst_z = 0.0
    worst_eig = 0.0
    for kappa in (0.5, 0.9):
        n = se2_8x8x4.n_edges
        target = kappa * n
        sigma = float(np.sqrt(n * kappa * (1.0 - kappa)))
        for seed in range(100):
            sub = sample_edges(se2_8x8x4, kappa, seed)
            z = abs(sub.n_edges - target) / sigma
            worst_z = max(worst_z, z)
            vals = np.linalg.eigvalsh(laplacian(sub).matrix.toarray())
            worst_eig = min(worst_eig, float(vals[0]))
    ok = worst_z <= 3.0 and worst_eig >= -1e-9
    report(10, ok, f"edge sampling kappa in {{0.5, 0.9}}, 100 seeds: worst "
                   f"|z| {worst_z:.2f} (<= 3 binomial sigma), min eigenvalue "
                   f"{worst_eig:.1e} (PSD)")


def test_criterion_11_serialization(report, tmp_path, se2_8x8x4, se2_8x8x4_lap):
    a, b = tmp_path / "a.clgr", tmp_path / "b.clgr"
    io.write_graph(a, se2_8x8x4, se2_8x8x4_lap)
    g, lap = io.read_graph(a)
    io.write_graph(b, g, lap)
    graph_ok = a.read_bytes() == b.read_bytes()

    s1, s2 = tmp_path / "a.clsg", tmp_path / "b.clsg"
    rng = np.random.Generator(np.random.Philox(111))
    io.write_signal(s1, rng.standard_normal((64, 3)))
    io.write_signal(s2, io.read_signal(s1))
    signal_ok = s1.read_bytes() == s2.read_bytes()

    setup = build_demo(seed=0)
    m1, m2 = tmp_path / "a.clmd", tmp_path / "b.clmd"
    io.write_model(m1, setup.model)
    model = io.read_model(m1, [layer.lap for layer in setup.model.layers if hasattr(layer, "lap")])
    io.write_model(m2, model)
    model_ok = m1.read_bytes() == m2.read_bytes()

    data = bytearray(a.read_bytes())
    data[0] = ord("X")
    bad = tmp_path / "bad.clgr"
    bad.write_bytes(bytes(data))
    try:
        io.read_graph(bad)
        corrupt_ok = False
    except io.FormatError as exc:
        corrupt_ok = exc.offset == 0 and "bad magic" in str(exc)
    exit_ok = cli_main(["info", str(bad)]) == 2

    truncated = tmp_path / "short.clgr"
    truncated.write_bytes(a.read_bytes()[:50])
    try:
        io.read_graph(truncated)
        trunc_ok = False
    except io.FormatError:
        trunc_ok = True

    ok = graph_ok and signal_ok and model_ok and corrupt_ok and exit_ok and trunc_ok
    report(11, ok, f"round trips bit-identical: graph {graph_ok}, signal "
                   f"{signal_ok}, model {model_ok}; corrupted header raises "
                   f"with offset and exits 2: {corrupt_ok and exit_ok}")
