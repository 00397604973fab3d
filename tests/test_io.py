"""Serialization tests: byte-identical round trips and corruption reporting."""

import numpy as np
import pytest

from liegraph import io
from liegraph.graph import laplacian, power_lambda_max, rescale
from liegraph.network import Model, PoolMode, Unpool, build_demo, r2_pool_plan
from liegraph.sampling import GridKind, GridSpec

from conftest import built


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_graph_roundtrip_bytes(tmp_path, se2_8x8x4, se2_8x8x4_lap):
    first = tmp_path / "a.clgr"
    second = tmp_path / "b.clgr"
    io.write_graph(first, se2_8x8x4, se2_8x8x4_lap)
    graph, lap = io.read_graph(first)
    io.write_graph(second, graph, lap)
    assert read_bytes(first) == read_bytes(second)

    np.testing.assert_array_equal(graph.vertices.params, se2_8x8x4.vertices.params)
    np.testing.assert_array_equal(graph.indptr, se2_8x8x4.indptr)
    np.testing.assert_array_equal(graph.indices, se2_8x8x4.indices)
    np.testing.assert_array_equal(graph.weights, se2_8x8x4.weights)
    np.testing.assert_array_equal(graph.distances, se2_8x8x4.distances)
    assert graph.metric.epsilon == se2_8x8x4.metric.epsilon
    assert graph.metric.xi == se2_8x8x4.metric.xi
    assert graph.knn == se2_8x8x4.knn
    assert graph.bandwidth == se2_8x8x4.bandwidth
    assert graph.alpha == se2_8x8x4.alpha
    assert lap.lambda_max == se2_8x8x4_lap.lambda_max
    diff = (lap.matrix - se2_8x8x4_lap.matrix).tocoo()
    assert diff.nnz == 0 or np.all(diff.data == 0.0)


def test_graph_roundtrip_without_laplacian(tmp_path, s2_level2):
    path = tmp_path / "s2.clgr"
    io.write_graph(path, s2_level2)
    graph, lap = io.read_graph(path)
    assert lap is None
    assert graph.vertices.spec.kind == GridKind.S2_ICOSAHEDRAL
    np.testing.assert_array_equal(graph.weights, s2_level2.weights)


def test_write_graph_validation(tmp_path, se2_8x8x4, se2_8x8x4_lap):
    with pytest.raises(ValueError):
        io.write_graph(tmp_path / "x.clgr", se2_8x8x4, rescale(se2_8x8x4_lap))
    with pytest.raises(ValueError):
        io.write_graph(tmp_path / "x.clgr", se2_8x8x4, laplacian(se2_8x8x4))


def test_signal_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.Philox(30))
    path = tmp_path / "s.clsg"
    one = rng.standard_normal(40)
    io.write_signal(path, one)
    back = io.read_signal(path)
    assert back.shape == (40, 1)
    np.testing.assert_array_equal(back[:, 0], one)

    multi = rng.standard_normal((17, 3))
    io.write_signal(path, multi)
    np.testing.assert_array_equal(io.read_signal(path), multi)
    again = tmp_path / "s2.clsg"
    io.write_signal(again, io.read_signal(path))
    assert read_bytes(path) == read_bytes(again)
    with pytest.raises(ValueError):
        io.write_signal(path, np.zeros((2, 2, 2)))


def test_model_roundtrip(tmp_path):
    setup = build_demo(seed=5)
    path = tmp_path / "m.clmd"
    io.write_model(path, setup.model)
    laps = [rescale(setup.fine_lap), rescale(setup.coarse_lap)]
    model = io.read_model(path, laps)
    rng = np.random.Generator(np.random.Philox(31))
    x = rng.standard_normal((256, 4, 1))
    np.testing.assert_array_equal(model.forward(x), setup.model.forward(x))
    second = tmp_path / "m2.clmd"
    io.write_model(second, model)
    assert read_bytes(path) == read_bytes(second)


def test_model_roundtrip_with_unpool_and_rand(tmp_path):
    plan = r2_pool_plan(GridSpec(GridKind.R2_GRID, nx=4, ny=4), PoolMode.R2_RAND)
    plan.redraw(7)
    model = Model([Unpool(plan, "rand")])
    path = tmp_path / "u.clmd"
    io.write_model(path, model)
    back = io.read_model(path)
    assert back.layers[0].mode == "rand"
    np.testing.assert_array_equal(back.layers[0].plan.chosen, plan.chosen)
    rng = np.random.Generator(np.random.Philox(32))
    y = rng.standard_normal((4, 2, 2))
    np.testing.assert_array_equal(back.layers[0].forward(y), model.layers[0].forward(y))


def test_model_needs_laplacians(tmp_path):
    setup = build_demo(seed=5)
    path = tmp_path / "m.clmd"
    io.write_model(path, setup.model)
    with pytest.raises(ValueError, match="Laplacians"):
        io.read_model(path)


def corrupt(data: bytes, offset: int, value: int) -> bytes:
    out = bytearray(data)
    out[offset] = value
    return bytes(out)


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    g = built(GridKind.SE2_GRID, nx=4, ny=4, orient=2, knn=6)
    lap = power_lambda_max(laplacian(g))
    path = tmp_path_factory.mktemp("io") / "g.clgr"
    io.write_graph(path, g, lap)
    return path, read_bytes(path)


def write_tmp(tmp_path, data: bytes):
    path = tmp_path / "bad.bin"
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def test_bad_magic(tmp_path, graph_file):
    _, data = graph_file
    path = write_tmp(tmp_path, corrupt(data, 0, ord("X")))
    with pytest.raises(io.FormatError, match="bad magic") as exc:
        io.read_graph(path)
    assert exc.value.offset == 0
    assert "offset 0" in str(exc.value)


def test_bad_version(tmp_path, graph_file):
    _, data = graph_file
    path = write_tmp(tmp_path, corrupt(data, 4, 9))
    with pytest.raises(io.FormatError, match="version") as exc:
        io.read_graph(path)
    assert exc.value.offset == 4


def test_unknown_kind(tmp_path, graph_file):
    _, data = graph_file
    path = write_tmp(tmp_path, corrupt(data, 8, 250))
    with pytest.raises(io.FormatError, match="unknown sampling kind") as exc:
        io.read_graph(path)
    assert exc.value.offset == 8


def test_truncated_file(tmp_path, graph_file):
    _, data = graph_file
    path = write_tmp(tmp_path, data[: len(data) // 2])
    with pytest.raises(io.FormatError, match="truncated"):
        io.read_graph(path)


def test_trailing_bytes(tmp_path, graph_file):
    _, data = graph_file
    path = write_tmp(tmp_path, data + b"\x00\x01")
    with pytest.raises(io.FormatError, match="trailing") as exc:
        io.read_graph(path)
    assert exc.value.offset == len(data)


def test_non_monotone_indptr(tmp_path, graph_file):
    _, data = graph_file
    # header is 61 bytes, then the vertex count (8) and params (n * 24); the
    # second indptr entry sits 8 bytes into the indptr block
    n = 32
    indptr_pos = 61 + 8 + n * 24
    bad = bytearray(data)
    bad[indptr_pos + 8:indptr_pos + 16] = (2 ** 40).to_bytes(8, "little")
    path = write_tmp(tmp_path, bytes(bad))
    with pytest.raises(io.FormatError, match="monotone") as exc:
        io.read_graph(path)
    assert exc.value.offset == indptr_pos


def graph_layout(data: bytes) -> dict:
    """Byte offsets of the adjacency arrays in a CLGR file with a Laplacian."""
    n = int.from_bytes(data[61:69], "little")
    indptr = 69 + 24 * n
    nnz = int.from_bytes(data[indptr + 8 * (n + 1):indptr + 8 * (n + 2)], "little")
    indices = indptr + 8 * (n + 2)
    return {"n": n, "nnz": nnz, "indptr": indptr, "indices": indices,
            "weights": indices + 8 * nnz, "distances": indices + 16 * nnz}


def put(data: bytes, offset: int, raw: bytes) -> bytes:
    out = bytearray(data)
    out[offset:offset + len(raw)] = raw
    return bytes(out)


@pytest.mark.parametrize("field", ["weights", "distances"])
@pytest.mark.parametrize("value", [-0.5, np.nan, np.inf])
def test_bad_edge_values(tmp_path, graph_file, field, value):
    _, data = graph_file
    at = graph_layout(data)[field] + 8 * 5
    path = write_tmp(tmp_path, put(data, at, np.float64(value).tobytes()))
    with pytest.raises(io.FormatError, match="negative or not finite") as exc:
        io.read_graph(path)
    assert exc.value.offset == at


def test_self_loop(tmp_path, graph_file):
    _, data = graph_file
    lay = graph_layout(data)
    # the first entry of row 0 points back at vertex 0
    path = write_tmp(tmp_path, put(data, lay["indices"], (0).to_bytes(8, "little")))
    with pytest.raises(io.FormatError, match="self-loop") as exc:
        io.read_graph(path)
    assert exc.value.offset == lay["indices"]


def test_unsorted_row(tmp_path, graph_file):
    _, data = graph_file
    lay = graph_layout(data)
    first, second = data[lay["indices"]:lay["indices"] + 8], data[lay["indices"] + 8:lay["indices"] + 16]
    path = write_tmp(tmp_path, put(data, lay["indices"], second + first))
    with pytest.raises(io.FormatError, match="ascending") as exc:
        io.read_graph(path)
    assert exc.value.offset == lay["indices"] + 8


def test_asymmetric_adjacency(tmp_path, graph_file):
    _, data = graph_file
    lay = graph_layout(data)
    # a weight that differs from its mirror by one ulp
    at = lay["weights"] + 8 * 3
    w = np.frombuffer(data[at:at + 8], dtype="<f8")[0]
    path = write_tmp(tmp_path, put(data, at, np.nextafter(w, 2.0).tobytes()))
    with pytest.raises(io.FormatError, match="weights are not symmetric") as exc:
        io.read_graph(path)
    assert exc.value.offset == at      # row 0 comes before the mirror's row
    # row 0's last column moved up: column counts no longer match row counts,
    # first at the old column's pointer
    g, _ = io.read_graph(graph_file[0])
    last = int(g.indices[g.indptr[1] - 1])
    free = int(np.setdiff1d(np.arange(last + 1, g.n_vertices), g.indices[:g.indptr[1]])[0])
    path = write_tmp(tmp_path, put(data, lay["indices"] + 8 * (g.indptr[1] - 1),
                                   free.to_bytes(8, "little")))
    with pytest.raises(io.FormatError, match="row and column counts differ") as exc:
        io.read_graph(path)
    assert exc.value.offset == lay["indptr"] + 8 * (last + 1)


def test_bad_lambda_max(tmp_path, graph_file):
    _, data = graph_file
    bad = bytearray(data)
    bad[-8:] = np.float64(5.0).tobytes()
    path = write_tmp(tmp_path, bytes(bad))
    with pytest.raises(io.FormatError, match="outside") as exc:
        io.read_graph(path)
    assert exc.value.offset == len(data) - 8


def test_signal_zero_channels(tmp_path):
    path = tmp_path / "s.clsg"
    io.write_signal(path, np.ones(5))
    bad = bytearray(read_bytes(path))
    bad[16:20] = (0).to_bytes(4, "little")
    path2 = write_tmp(tmp_path, bytes(bad))
    with pytest.raises(io.FormatError, match="channel count") as exc:
        io.read_signal(path2)
    assert exc.value.offset == 16


def test_signal_wrong_magic(tmp_path, graph_file):
    path, _ = graph_file
    with pytest.raises(io.FormatError, match="bad magic"):
        io.read_signal(path)


def test_model_unknown_layer_code(tmp_path):
    data = io.MODEL_MAGIC + (1).to_bytes(4, "little") + (1).to_bytes(4, "little") + bytes([99])
    path = write_tmp(tmp_path, data)
    with pytest.raises(io.FormatError, match="unknown layer code") as exc:
        io.read_model(path)
    assert exc.value.offset == 12


def test_eigenmaps_csv(tmp_path):
    rng = np.random.Generator(np.random.Philox(33))
    vals = np.sort(rng.random(3))
    vecs = rng.standard_normal((5, 3))
    path = tmp_path / "e.csv"
    io.write_eigenmaps_csv(path, vals, vecs)
    lines = open(path).read().split("\n")
    assert lines[0] == "k,lambda," + ",".join(f"v{i}" for i in range(5))
    assert lines[-1] == ""
    for k in range(3):
        cells = lines[1 + k].split(",")
        assert int(cells[0]) == k
        assert float(cells[1]) == vals[k]          # %.17g round-trips exactly
        np.testing.assert_array_equal([float(c) for c in cells[2:]], vecs[:, k])


def test_field_csv_headers(tmp_path, se2_8x8x4, s2_level2):
    path = tmp_path / "f.csv"
    values = np.arange(256.0)
    io.write_field_csv(path, se2_8x8x4.vertices, values)
    lines = open(path).read().split("\n")
    assert lines[0] == "vertex_id,x,y,theta,value"
    assert len(lines) == 258                      # header + 256 rows + ''
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert float(cells[4]) == 0.0

    io.write_field_csv(path, s2_level2.vertices, np.ones((162, 2)))
    lines = open(path).read().split("\n")
    assert lines[0] == "vertex_id,beta,gamma,alpha,value0,value1"
    # coordinate columns come from the (alpha, beta, gamma) params reordered
    cells = lines[1].split(",")
    assert float(cells[1]) == s2_level2.vertices.params[0, 1]
    assert float(cells[3]) == s2_level2.vertices.params[0, 0]


def test_signal_csv(tmp_path):
    path = tmp_path / "s.csv"
    io.write_signal_csv(path, np.array([[1.5, -2.0], [0.25, 3.0]]))
    lines = open(path).read().split("\n")
    assert lines[0] == "vertex,c0,c1"
    assert lines[1] == "0,1.5,-2"
    assert lines[2] == "1,0.25,3"
