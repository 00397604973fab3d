import time

import numpy as np
import pytest

from liegraph.graph import build_graph, laplacian, make_metric, power_lambda_max
from liegraph.network import train_demo
from liegraph.sampling import GridKind, GridSpec, build_vertices

EPS_ANISO = float(np.sqrt(0.1))
# The demo training run that criterion 9 checks and data/train_demo_rows.json
# records, on seeds 0-4.
DEMO_CALL = {"epochs": 30, "lr": 0.2}


def built(kind, *, nx=None, ny=None, level=None, orient=1, epsilon=1.0, alpha=None, knn=None):
    fields = {k: v for k, v in dict(nx=nx, ny=ny, level=level).items() if v is not None}
    spec = GridSpec(kind=kind, n_orient=orient, **fields)
    metric, _ = make_metric(spec, epsilon=epsilon, alpha=alpha)
    return build_graph(build_vertices(spec), metric, knn)


@pytest.fixture(scope="session")
def se2_8x8x4():
    return built(GridKind.SE2_GRID, nx=8, ny=8, orient=4, epsilon=EPS_ANISO, alpha=1.0, knn=16)


@pytest.fixture(scope="session")
def se2_8x8x4_lap(se2_8x8x4):
    return power_lambda_max(laplacian(se2_8x8x4))


@pytest.fixture(scope="session")
def se2_16x16x6():
    return built(GridKind.SE2_GRID, nx=16, ny=16, orient=6, epsilon=EPS_ANISO, alpha=1.0, knn=16)


@pytest.fixture(scope="session")
def r2_16x16():
    return built(GridKind.R2_GRID, nx=16, ny=16)


@pytest.fixture(scope="session")
def s2_level2():
    return built(GridKind.S2_ICOSAHEDRAL, level=2)


@pytest.fixture(scope="session")
def so3_level2x6():
    return built(GridKind.SO3_ICOSAHEDRAL, level=2, orient=6, epsilon=EPS_ANISO, alpha=1.0)


@pytest.fixture(scope="session")
def demo_runs():
    """train_demo(seed=seed, **DEMO_CALL) for seeds 0-4, trained once per
    session: ({seed: (rows, trained setup)}, wall time of the runs in s)."""
    start = time.perf_counter()
    runs = {seed: train_demo(seed=seed, **DEMO_CALL) for seed in range(5)}
    return runs, time.perf_counter() - start
