"""Serialization tests: byte-identical round trips and corruption reporting."""

import dataclasses

import numpy as np
import pytest

from liegraph import graph as graph_module
from liegraph import io
from liegraph.cli import main
from liegraph.graph import (laplacian, power_lambda_max, rescale, sample_edges,
                            sample_vertices)
from liegraph.groups import Metric
from liegraph.network import Model, Pool, Unpool, build_demo, coarsen
from liegraph.sampling import GridKind, GridSpec, RuleError, VertexSet

from conftest import EPS_ANISO, built
from oracles import write_eigenmaps_csv_loop, write_field_csv_loop


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
    assert lap.lambda_max == se2_8x8x4_lap.lambda_max
    diff = (lap.matrix - se2_8x8x4_lap.matrix).tocoo()
    assert diff.nnz == 0 or np.all(diff.data == 0.0)


def test_write_graph_validation(tmp_path, se2_8x8x4, se2_8x8x4_lap):
    with pytest.raises(ValueError):
        io.write_graph(tmp_path / "x.clgr", se2_8x8x4, rescale(se2_8x8x4_lap))
    with pytest.raises(ValueError):
        io.write_graph(tmp_path / "x.clgr", se2_8x8x4, laplacian(se2_8x8x4))


def test_write_graph_rejects_what_it_cannot_rebuild(tmp_path, se2_8x8x4, se2_8x8x4_lap):
    """The file keeps distances and lambda_max only, so a Laplacian of another
    graph raises; so does a metric that check_metric refuses.  Weights are
    derived from the distances and cannot disagree with them."""
    path, lap = tmp_path / "x.clgr", se2_8x8x4_lap
    other = sample_edges(se2_8x8x4, 0.5, seed=1)
    with pytest.raises(ValueError, match="laplacian"):
        io.write_graph(path, se2_8x8x4, power_lambda_max(laplacian(other)))
    for xi, alpha in ((1e154, "inf"), (1e-170, "0.0")):   # xi^2 n_spatial / n_orient
        with pytest.raises(ValueError, match=f"gives alpha {alpha}, which is not finite"):
            io.write_graph(path, dataclasses.replace(se2_8x8x4, metric=Metric(EPS_ANISO, xi)), lap)
    with pytest.raises(ValueError, match="knn 0"):
        io.write_graph(path, dataclasses.replace(se2_8x8x4, knn=0), lap)
    assert not path.exists()


def test_write_graph_refuses_params_not_of_the_sampling(tmp_path, se2_8x8x4):
    """A file stores the sampling and the kept ids, not the coordinates, and
    a VertexSet derives its params from those two, so every graph holds the
    params a read gives back: with another sample's kept ids swapped in, the
    params follow them and survive write -> read bit for bit.  Kept ids out
    of order are refused when the vertex set is made, before any write."""
    path, g = tmp_path / "x.clgr", se2_8x8x4
    sub = sample_vertices(g, 0.5, seed=3)
    other_ids = sample_vertices(g, 0.5, seed=4).vertices.kept
    assert not np.array_equal(other_ids, sub.vertices.kept)
    other = dataclasses.replace(sub, vertices=dataclasses.replace(sub.vertices, kept=other_ids))
    assert other.vertices.params.tobytes() == g.vertices.params[other_ids].tobytes()
    io.write_graph(path, other, power_lambda_max(laplacian(other)))
    assert io.read_graph(path)[0].vertices.params.tobytes() == other.vertices.params.tobytes()
    with pytest.raises(ValueError, match="kept must be one or more strictly ascending ids"):
        dataclasses.replace(sub.vertices, kept=sub.vertices.kept[::-1])


def test_write_graph_refuses_anisotropic_r2_and_s2(tmp_path, r2_16x16, s2_level2):
    """r2 and s2 graphs carry exactly Metric(); whatever built them, another
    metric is refused before a byte is written."""
    path = tmp_path / "x.clgr"
    for g, metric in ((r2_16x16, Metric(epsilon=0.5)), (s2_level2, Metric(epsilon=0.25)),
                      (s2_level2, Metric(xi=2.0))):
        with pytest.raises(ValueError, match="graphs use the isotropic metric"):
            io.write_graph(path, dataclasses.replace(g, metric=metric),
                           power_lambda_max(laplacian(g)))
    assert not path.exists()


def test_unreadable_graphs_are_refused_at_construction(tmp_path):
    """A bandwidth of -1 or NaN, a negative or NaN distance, and a lambda_max
    of 5, 0, -1 or NaN break rules read_graph applies: each is refused when
    the graph or Laplacian is made, naming its rule, and no file appears.
    A Laplacian is frozen, so its lambda_max cannot be set afterwards."""
    g = built(GridKind.SE2_GRID, nx=4, ny=4, orient=2, knn=6)
    lap, path = power_lambda_max(laplacian(g)), tmp_path / "x.clgr"
    for t in (-1.0, np.nan):
        with pytest.raises(RuleError, match="bandwidth .* is < 0, not finite") as exc:
            io.write_graph(path, dataclasses.replace(g, bandwidth=t), lap)
        assert exc.value.field == "bandwidth"
    for value in (-0.5, np.nan):
        d = g.edge_distances.copy()
        d[3] = value
        with pytest.raises(RuleError, match=r"distance is negative or not finite \(entry 3\)"):
            io.write_graph(path, dataclasses.replace(g, edge_distances=d), lap)
    for lam in (5.0, 0.0, -1.0, np.nan):
        with pytest.raises(RuleError, match=r"lambda_max \S+ outside \(0, 2\]") as exc:
            io.write_graph(path, g, dataclasses.replace(lap, lambda_max=lam))
        assert exc.value.field == "lambda_max"
    with pytest.raises(dataclasses.FrozenInstanceError):
        lap.lambda_max = 5.0
    assert not path.exists()


@pytest.mark.parametrize("kind, fields", [
    (GridKind.SE2_GRID, dict(nx=8, ny=8, orient=4, epsilon=EPS_ANISO, alpha=1.0)),
    (GridKind.SO3_ICOSAHEDRAL, dict(level=1, orient=4, epsilon=EPS_ANISO, alpha=1.0)),
    (GridKind.R2_GRID, dict(nx=8, ny=8)),
    (GridKind.S2_ICOSAHEDRAL, dict(level=2))])
def test_constructed_graphs_round_trip(tmp_path, kind, fields):
    """Built, edge-sampled (kappa 0.3) and vertex-sampled (kappa 0.5) graphs
    write, read back and rewrite to the same bytes."""
    g = built(kind, **fields)
    for name, graph in (("full", g), ("edges", sample_edges(g, 0.3, seed=1)),
                        ("vertices", sample_vertices(g, 0.5, seed=1))):
        first, second = tmp_path / f"{name}.clgr", tmp_path / f"{name}2.clgr"
        io.write_graph(first, graph, power_lambda_max(laplacian(graph)))
        io.write_graph(second, *io.read_graph(first))
        assert read_bytes(first) == read_bytes(second), name


def test_laplacian_assembled_once_per_graph(tmp_path, monkeypatch):
    """laplacian(graph) assembles the matrix once while a caller holds it:
    the Laplacian, its lambda_max and the write take one assembly, and so do
    a read and a rewrite.  The graph does not keep the matrix alive."""
    calls = []
    assemble = graph_module._assemble_laplacian
    monkeypatch.setattr(graph_module, "_assemble_laplacian",
                        lambda graph: calls.append(graph) or assemble(graph))
    g = built(GridKind.SE2_GRID, nx=4, ny=4, orient=2, knn=6)
    lap = laplacian(g)
    io.write_graph(tmp_path / "g.clgr", g, power_lambda_max(laplacian(g)))
    assert calls == [g] and laplacian(g).matrix is lap.matrix
    back, back_lap = io.read_graph(tmp_path / "g.clgr")
    io.write_graph(tmp_path / "h.clgr", back, back_lap)
    assert calls == [g, back]
    del lap
    laplacian(g)
    assert calls == [g, back, g]


def test_single_vertex_graph_keeps_knn_zero(tmp_path):
    """build_graph clamps K to 0 on one vertex, and that file reads back."""
    g = built(GridKind.R2_GRID, nx=1, ny=1)
    assert g.knn == 0
    io.write_graph(tmp_path / "one.clgr", g, power_lambda_max(laplacian(g)))
    back, _ = io.read_graph(tmp_path / "one.clgr")
    assert back.knn == 0 and back.n_vertices == 1


def _sampled(kind, **fields):
    g = built(kind, **fields)
    return {"full": g, "edges": sample_edges(g, 0.5, seed=4),
            "vertices": sample_vertices(g, 0.5, seed=5)}


ROUNDTRIP_CASES = {
    "se2_16x16x6": dict(kind=GridKind.SE2_GRID, nx=16, ny=16, orient=6, epsilon=EPS_ANISO,
                        alpha=1.0, knn=16),
    "so3_2x6": dict(kind=GridKind.SO3_ICOSAHEDRAL, level=2, orient=6, epsilon=EPS_ANISO,
                    alpha=1.0, knn=16),
    "s2_3": dict(kind=GridKind.S2_ICOSAHEDRAL, level=3),
}


@pytest.mark.parametrize("case", sorted(ROUNDTRIP_CASES))
def test_graph_roundtrip_rebuilds_bit_identical(tmp_path, case):
    """Weights and the Laplacian come back bit for bit although the file
    holds neither, and write -> read -> write gives identical bytes."""
    for name, g in _sampled(**ROUNDTRIP_CASES[case]).items():
        lap = power_lambda_max(laplacian(g))
        first, second = tmp_path / f"{name}.clgr", tmp_path / f"{name}2.clgr"
        io.write_graph(first, g, lap)
        back, back_lap = io.read_graph(first)
        for attr in ("indptr", "indices", "weights", "distances"):
            assert getattr(back, attr).tobytes() == getattr(g, attr).tobytes(), name
        for attr in ("indptr", "indices", "data"):
            assert (getattr(back_lap.matrix, attr).tobytes()
                    == getattr(lap.matrix, attr).tobytes()), name
        assert back_lap.lambda_max == lap.lambda_max
        if g.vertices.kept is None:
            assert back.vertices.kept is None
        else:
            np.testing.assert_array_equal(back.vertices.kept, g.vertices.kept)
        io.write_graph(second, back, back_lap)
        data = read_bytes(first)
        assert data == read_bytes(second), name
        # after the distances comes only lambda_max
        lay = graph_layout(data)
        assert len(data) == lay["distances"] + 8 * lay["nnz"] + 8 == lay["lambda_max"] + 8


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
    model = io.read_model(path, [layer.lap for layer in setup.model.layers if hasattr(layer, "lap")])
    rng = np.random.Generator(np.random.Philox(31))
    x = rng.standard_normal((256, 4, 1))
    np.testing.assert_array_equal(model.forward(x), setup.model.forward(x))
    second = tmp_path / "m2.clmd"
    io.write_model(second, model)
    assert read_bytes(path) == read_bytes(second)


def test_model_roundtrip_with_unpool(tmp_path):
    """Pool and Unpool layers store their cluster map and nothing else; an
    icosahedral plan and an odd planar one (with dropped vertices) come back
    bit for bit."""
    rng = np.random.Generator(np.random.Philox(32))
    for plan in (coarsen(GridSpec(GridKind.S2_ICOSAHEDRAL, level=1))[1],
                 coarsen(GridSpec(GridKind.R2_GRID, nx=5, ny=5))[1]):
        model = Model([Unpool(plan), Pool(plan)])
        path, again = tmp_path / "u.clmd", tmp_path / "u2.clmd"
        io.write_model(path, model)
        data = read_bytes(path)
        lay = model_layout(data)
        assert len(data) == lay[1]["cluster"] + 8 * plan.cluster.size
        back = io.read_model(path)
        for layer in back.layers:
            for attr in ("cluster", "order", "starts", "sizes"):
                np.testing.assert_array_equal(getattr(layer.plan, attr), getattr(plan, attr))
        y = rng.standard_normal((plan.n_coarse, 2, 2))
        np.testing.assert_array_equal(back.forward(y), model.forward(y))
        io.write_model(again, back)
        assert read_bytes(again) == data


def test_model_needs_laplacians(tmp_path):
    setup = build_demo(seed=5)
    path = tmp_path / "m.clmd"
    io.write_model(path, setup.model)
    with pytest.raises(ValueError, match="Laplacians"):
        io.read_model(path)


def test_model_rejects_swapped_laplacians(tmp_path, model_file):
    """The Pool layer's v_fine and n_coarse fix the vertex counts of the
    ChebConv layers around it, so a Laplacian of the wrong size is named
    when the model is read, not at its first forward."""
    data, laps = model_file
    path = write_tmp(tmp_path, data)
    with pytest.raises(ValueError, match=r"layer 2 \(Pool\) takes 256 vertices, "
                                         r"layer 0 \(ChebConv\) gives 64") as exc:
        io.read_model(path, laps[::-1])
    assert not isinstance(exc.value, io.FormatError)
    with pytest.raises(ValueError, match=r"layer 3 \(ChebConv\) takes 256 vertices, "
                                         r"layer 2 \(Pool\) gives 64"):
        io.read_model(path, [laps[0], laps[0]])
    model = io.read_model(path, laps)
    assert [layer.lap.n for layer in model.layers if hasattr(layer, "lap")] == [256, 64]


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """The demo checkpoint, its bytes, and the Laplacians it binds to."""
    setup = build_demo(seed=5)
    path = tmp_path_factory.mktemp("io") / "m.clmd"
    io.write_model(path, setup.model)
    return read_bytes(path), [layer.lap for layer in setup.model.layers if hasattr(layer, "lap")]


def test_model_version_1_rejected(tmp_path, model_file):
    data, laps = model_file
    path = write_tmp(tmp_path, put(data, 4, (1).to_bytes(4, "little")))
    with pytest.raises(io.FormatError, match="unsupported version 1") as exc:
        io.read_model(path, laps)
    assert exc.value.offset == 4


@pytest.mark.parametrize("field, entry, value, message, reported", [
    ("cluster", 5, 64, r"cluster id 64 outside \[-1, 64\) \(entry 5\)", "cluster"),
    ("cluster", 7, -5, r"cluster id -5 outside \[-1, 64\) \(entry 7\)", "cluster"),
    ("n_coarse", 0, 2 ** 62, f"{2 ** 62} coarse vertices for 256 fine ones", "n_coarse"),
    ("n_coarse", 0, 0, "0 coarse vertices for 256 fine ones", "n_coarse"),
    ("n_coarse", 0, 65, r"coarse vertex 64 has no fine member \(at byte", "cluster"),
], ids=["id_n_coarse", "id_minus_5", "n_coarse_2_62", "n_coarse_0", "empty_cluster"])
def test_model_bad_pool_plan(tmp_path, model_file, field, entry, value, message, reported):
    """A stored cluster map is checked by PoolPlan; a bad count or id is a
    format error at that field, an empty cluster one at the map's start."""
    data, laps = model_file
    pool = model_layout(data)[2]
    assert data[pool["code"]] == 2
    path = write_tmp(tmp_path, put(data, pool[field] + 8 * entry,
                                   np.int64(value).astype("<i8").tobytes()))
    with pytest.raises(io.FormatError, match=message) as exc:
        io.read_model(path, laps)
    assert exc.value.offset == pool[reported] + 8 * entry


@pytest.mark.parametrize("layer, zeroed, bad", [
    (0, ["order"], "order"),
    (0, ["n_in"], "n_in"),
    (0, ["n_out"], "n_out"),
    (0, ["n_in", "n_out"], "n_in"),
    (6, ["n_in", "n_out"], "n_in"),
    (6, ["n_out"], "n_out"),
], ids=["cheb_order", "cheb_n_in", "cheb_n_out", "cheb_0x0", "dense_0x0", "dense_n_out"])
def test_model_bad_layer_size(tmp_path, model_file, layer, zeroed, bad):
    """ChebConv and Dense sizes below 1 are format errors at that u32."""
    data, laps = model_file
    fields = model_layout(data)[layer]
    for name in zeroed:
        data = put(data, fields[name], (0).to_bytes(4, "little"))
    with pytest.raises(io.FormatError, match=f"{bad} must be at least 1, got 0") as exc:
        io.read_model(write_tmp(tmp_path, data), laps)
    assert exc.value.offset == fields[bad]


def test_model_sizes_beyond_the_file(tmp_path, model_file):
    """Parameters are read before a layer is built, so sizes the file cannot
    back fail as truncation instead of allocating 4096^3 weights."""
    data, laps = model_file
    cheb = model_layout(data)[0]
    data = put(data, cheb["order"], np.array([4096] * 3, dtype="<u4").tobytes())
    with pytest.raises(io.FormatError, match="truncated model file") as exc:
        io.read_model(write_tmp(tmp_path, data), laps)
    assert exc.value.offset == cheb["params"]


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
    at = graph_layout(data)["kind"]
    path = write_tmp(tmp_path, corrupt(data, at, 250))
    with pytest.raises(io.FormatError, match="unknown sampling kind") as exc:
        io.read_graph(path)
    assert exc.value.offset == at


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


def test_version_1_rejected(tmp_path, graph_file):
    _, data = graph_file
    path = write_tmp(tmp_path, put(data, 4, (1).to_bytes(4, "little")))
    with pytest.raises(io.FormatError, match="unsupported version 1") as exc:
        io.read_graph(path)
    assert exc.value.offset == 4


def test_version_2_rejected(tmp_path, graph_file):
    """CLGR 2 stored alpha, the edge count and a Laplacian flag; such files
    are refused at the version field, not misread."""
    _, data = graph_file
    path = write_tmp(tmp_path, put(data, 4, (2).to_bytes(4, "little")))
    with pytest.raises(io.FormatError, match="unsupported version 2") as exc:
        io.read_graph(path)
    assert exc.value.offset == 4


def test_version_3_rejected(tmp_path, graph_file):
    """CLGR 3 stored the vertex count and every vertex's coordinates; such
    files are refused at the version field, not misread."""
    _, data = graph_file
    path = write_tmp(tmp_path, put(data, 4, (3).to_bytes(4, "little")))
    with pytest.raises(io.FormatError, match="unsupported version 3") as exc:
        io.read_graph(path)
    assert exc.value.offset == 4


def test_version_4_rejected(tmp_path, graph_file):
    """CLGR 4 stored both orientations of every edge; such files are refused
    at the version field, not misread as an upper triangle."""
    _, data = graph_file
    path = write_tmp(tmp_path, put(data, 4, (4).to_bytes(4, "little")))
    with pytest.raises(io.FormatError, match="unsupported version 4") as exc:
        io.read_graph(path)
    assert exc.value.offset == 4


def test_truncated_before_lambda_max(tmp_path, graph_file):
    """lambda_max is required: a file that ends right after the distances
    is truncated at the lambda_max offset."""
    _, data = graph_file
    at = graph_layout(data)["lambda_max"]
    assert at == len(data) - 8
    with pytest.raises(io.FormatError, match="truncated graph file") as exc:
        io.read_graph(write_tmp(tmp_path, data[:at]))
    assert exc.value.offset == at


def test_non_monotone_indptr(tmp_path, graph_file):
    _, data = graph_file
    # the second indptr entry sits 8 bytes into the indptr block
    indptr_pos = graph_layout(data)["indptr"]
    bad = bytearray(data)
    bad[indptr_pos + 8:indptr_pos + 16] = (2 ** 40).to_bytes(8, "little")
    path = write_tmp(tmp_path, bytes(bad))
    with pytest.raises(io.FormatError, match="monotone") as exc:
        io.read_graph(path)
    assert exc.value.offset == indptr_pos


# CLGR 5 header fields the tests patch: offset and size in bytes.  The kept
# count is present only when the kept flag is set.
HEADER_FIELDS = {"kind": (8, 1), "nx": (9, 4), "ny": (13, 4), "level": (17, 4),
                 "n_orient": (21, 4), "epsilon": (25, 8), "xi": (33, 8), "knn": (41, 4),
                 "bandwidth": (45, 8), "kept_flag": (53, 1), "kept_count": (54, 8)}


def graph_layout(data: bytes) -> dict:
    """Byte offsets of the fields of a CLGR 5 file, the one table the tests
    patch by: HEADER_FIELDS, then the kept ids if the kept flag is set, the
    upper triangle's CSR arrays (nnz, the edge count, is indptr[-1]) and
    lambda_max.  The vertex count n is the kept count, or else the size of
    the sampling the header describes."""
    def uint(field):
        at, size = HEADER_FIELDS[field]
        return int.from_bytes(data[at:at + size], "little")

    lay = {field: at for field, (at, _) in HEADER_FIELDS.items()}
    if uint("kept_flag") == 1:
        n, lay["kept"] = uint("kept_count"), 62
        indptr = 62 + 8 * n
    else:
        spec = GridSpec(io.KIND_FROM_CODE[uint("kind")], nx=uint("nx"), ny=uint("ny"),
                        level=uint("level"), n_orient=uint("n_orient"))
        n, lay["kept"], lay["kept_count"], indptr = spec.n_vertices, None, None, 54
    indices = indptr + 8 * (n + 1)
    nnz = int.from_bytes(data[indices - 8:indices], "little")
    return {**lay, "n": n, "nnz": nnz, "indptr": indptr, "indices": indices,
            "distances": indices + 8 * nnz, "lambda_max": indices + 16 * nnz}


def model_layout(data: bytes) -> list[dict]:
    """Byte offsets of the fields of a CLMD file, one dict per layer: the
    layer code, then the size u32s of ChebConv (order, n_in, n_out) and Dense
    (n_in, n_out) followed by their parameters, or the v_fine, n_coarse and
    cluster fields of Pool and Unpool."""
    def uint(at, size):
        return int.from_bytes(data[at:at + size], "little")

    layers, at = [], 12
    for _ in range(uint(8, 4)):
        layer = {"code": at}
        code, at = data[at], at + 1
        if code in (0, 5):
            sizes = {}
            for name in ("order", "n_in", "n_out") if code == 0 else ("n_in", "n_out"):
                layer[name], sizes[name], at = at, uint(at, 4), at + 4
            layer["params"] = at
            at += 8 * (int(np.prod(list(sizes.values()))) + sizes["n_out"])
        elif code in (2, 3):
            layer.update(v_fine=at, n_coarse=at + 8, cluster=at + 16)
            at += 16 + 8 * uint(at, 8)
        layers.append(layer)
    assert at == len(data)
    return layers


def put(data: bytes, offset: int, raw: bytes) -> bytes:
    out = bytearray(data)
    out[offset:offset + len(raw)] = raw
    return bytes(out)


@pytest.mark.parametrize("field", ["distances"])
@pytest.mark.parametrize("value", [-0.5, np.nan, np.inf])
def test_bad_edge_values(tmp_path, graph_file, field, value):
    _, data = graph_file
    at = graph_layout(data)[field] + 8 * 5
    path = write_tmp(tmp_path, put(data, at, np.float64(value).tobytes()))
    with pytest.raises(io.FormatError, match="negative or not finite") as exc:
        io.read_graph(path)
    assert exc.value.offset == at


def test_self_loop(tmp_path, graph_file):
    """The file holds the upper triangle: a self-loop (row 0's first entry
    set to 0) and a lower-triangle entry (row 1's first entry set to 0) are
    both entries not above the diagonal, reported at the entry."""
    _, data = graph_file
    lay = graph_layout(data)
    row1 = int.from_bytes(data[lay["indptr"] + 8:lay["indptr"] + 16], "little")
    assert int.from_bytes(data[lay["indptr"] + 16:lay["indptr"] + 24], "little") > row1
    for at in (lay["indices"], lay["indices"] + 8 * row1):
        path = write_tmp(tmp_path, put(data, at, (0).to_bytes(8, "little")))
        with pytest.raises(io.FormatError, match="not above the diagonal") as exc:
            io.read_graph(path)
        assert exc.value.offset == at


@pytest.mark.parametrize("index", [32, 2 ** 64 - 1])
def test_column_index_out_of_range(tmp_path, graph_file, index):
    """Checked on the stored u64, before any cast could wrap it negative."""
    _, data = graph_file
    lay = graph_layout(data)
    path = write_tmp(tmp_path, put(data, lay["indices"], index.to_bytes(8, "little")))
    with pytest.raises(io.FormatError, match="column index out of range") as exc:
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -1e-3, 0.0])
def test_bad_bandwidth(tmp_path, graph_file, value):
    """Weights derive from the bandwidth: it must be finite and non-negative,
    and 0 only when every edge distance is 0."""
    _, data = graph_file
    at = graph_layout(data)["bandwidth"]
    path = write_tmp(tmp_path, put(data, at, np.float64(value).tobytes()))
    with pytest.raises(io.FormatError, match="bandwidth") as exc:
        io.read_graph(path)
    assert exc.value.offset == at


@pytest.mark.parametrize("at", [25, 33])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_bad_metric(tmp_path, graph_file, at, value):
    _, data = graph_file
    path = write_tmp(tmp_path, put(data, at, np.float64(value).tobytes()))
    with pytest.raises(io.FormatError, match="metric parameters must be positive") as exc:
        io.read_graph(path)
    assert exc.value.offset == graph_layout(data)["epsilon"]


@pytest.mark.parametrize("at,value", [(25, 1e-160), (33, 1e200)])
def test_bad_metric_weights(tmp_path, graph_file, at, value):
    """An epsilon or xi whose weight epsilon^-2 or xi^2 overflows is a
    header error at the metric's offset."""
    _, data = graph_file
    path = write_tmp(tmp_path, put(data, at, np.float64(value).tobytes()))
    with pytest.raises(io.FormatError, match="finite weights") as exc:
        io.read_graph(path)
    assert exc.value.offset == graph_layout(data)["epsilon"]


@pytest.mark.parametrize("alpha", [np.inf, 0.0])
def test_bad_alpha(tmp_path, graph_file, alpha):
    """alpha is not stored but derived, xi^2 n_spatial / n_orient: a finite
    positive xi whose alpha overflows (1e154 on 16 points and 2 slices) or
    underflows (1e-170) is refused at the xi offset."""
    _, data = graph_file
    at = graph_layout(data)["xi"]
    xi = 1e154 if alpha == np.inf else 1e-170
    path = write_tmp(tmp_path, put(data, at, np.float64(xi).tobytes()))
    with pytest.raises(io.FormatError, match=f"gives alpha {alpha}, which is not finite") as exc:
        io.read_graph(path)
    assert exc.value.offset == at


@pytest.mark.parametrize("field, value", [("epsilon", 0.25), ("xi", 2.0)])
def test_anisotropic_s2_file_rejected(tmp_path, field, value):
    """An s2 file patched to claim epsilon 0.25 (or xi 2) contradicts the
    isotropic metric every s2 graph carries: refused at the metric's offset."""
    g = built(GridKind.S2_ICOSAHEDRAL, level=1)
    path = tmp_path / "s2.clgr"
    io.write_graph(path, g, power_lambda_max(laplacian(g)))
    good = read_bytes(path)
    data = put(good, graph_layout(good)[field], np.float64(value).tobytes())
    with pytest.raises(io.FormatError, match="s2 graphs use the isotropic metric") as exc:
        io.read_graph(write_tmp(tmp_path, data))
    assert exc.value.offset == graph_layout(data)["epsilon"]


def test_knn_zero(tmp_path, graph_file):
    _, data = graph_file
    at = graph_layout(data)["knn"]
    path = write_tmp(tmp_path, put(data, at, (0).to_bytes(4, "little")))
    with pytest.raises(io.FormatError, match="knn 0 on a sampling of 32 vertices") as exc:
        io.read_graph(path)
    assert exc.value.offset == at


@pytest.mark.parametrize("field", ["kept_flag"])
def test_bad_flag(tmp_path, graph_file, field):
    _, data = graph_file
    at = graph_layout(data)[field]
    path = write_tmp(tmp_path, corrupt(data, at, 2))
    with pytest.raises(io.FormatError, match="flag must be 0 or 1") as exc:
        io.read_graph(path)
    assert exc.value.offset == at


@pytest.fixture(scope="module")
def s2_file(tmp_path_factory):
    g = built(GridKind.S2_ICOSAHEDRAL, level=1)
    path = tmp_path_factory.mktemp("io") / "s2.clgr"
    io.write_graph(path, g, power_lambda_max(laplacian(g)))
    return read_bytes(path)


# The file each header field is patched in: one where neither 0 nor the
# field's maximum is the stored value, and where the field exists.
FIELD_BASES = {"kind": "s2", "nx": "se2", "ny": "se2", "level": "s2", "n_orient": "se2",
               "knn": "se2", "kept_flag": "sampled", "kept_count": "sampled"}


@pytest.mark.parametrize("extreme", ["zero", "max"])
@pytest.mark.parametrize("field", list(FIELD_BASES))
def test_header_field_extremes(tmp_path, graph_file, s2_file, sampled_file, capsys, field,
                               extreme):
    """Every integer header field at 0 and at its type's maximum ends in a
    FormatError, no other exception, and info exits 2 with one error line."""
    data = {"se2": graph_file[1], "s2": s2_file, "sampled": sampled_file[1]}[FIELD_BASES[field]]
    at, size = HEADER_FIELDS[field]
    raw = (0 if extreme == "zero" else 2 ** (8 * size) - 1).to_bytes(size, "little")
    assert data[at:at + size] != raw
    path = write_tmp(tmp_path, put(data, at, raw))
    with pytest.raises(io.FormatError):
        io.read_graph(path)
    assert main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("base,field,value", [("se2", "level", 5), ("s2", "nx", 7),
                                              ("s2", "ny", 7), ("s2", "level", 2 ** 20),
                                              ("s2", "level", 9)])
def test_sampling_fields_the_kind_does_not_use(tmp_path, graph_file, s2_file, capsys, base,
                                               field, value):
    """A level on an se2 grid, nx or ny on a sphere, and a level above
    MAX_LEVEL are refused at the kind's offset, 8, before the vertex count
    10 * 4^level + 2 is evaluated; info exits 2."""
    data = graph_file[1] if base == "se2" else s2_file
    path = write_tmp(tmp_path, put(data, HEADER_FIELDS[field][0], value.to_bytes(4, "little")))
    with pytest.raises(io.FormatError, match="inconsistent sampling fields") as exc:
        io.read_graph(path)
    assert exc.value.offset == 8
    assert main(["info", str(path)]) == 2


@pytest.fixture(scope="module")
def sampled_file(tmp_path_factory):
    g = sample_vertices(built(GridKind.SE2_GRID, nx=4, ny=4, orient=2, knn=6), 0.5, seed=3)
    path = tmp_path_factory.mktemp("io") / "s.clgr"
    io.write_graph(path, g, power_lambda_max(laplacian(g)))
    return g, read_bytes(path)


def test_kept_ids_stored(tmp_path, sampled_file):
    g, data = sampled_file
    lay = graph_layout(data)
    assert lay["kept"] is not None
    stored = np.frombuffer(data[lay["kept"]:lay["kept"] + 8 * lay["n"]], dtype="<u8")
    np.testing.assert_array_equal(stored, g.vertices.kept)
    back, _ = io.read_graph(write_tmp(tmp_path, data))
    np.testing.assert_array_equal(back.vertices.kept, g.vertices.kept)
    np.testing.assert_array_equal(back.vertices.orientation_index(np.arange(back.n_vertices)),
                                  g.vertices.orientation_index(np.arange(g.n_vertices)))


def test_bad_kept_ids(tmp_path, sampled_file):
    g, data = sampled_file
    lay = graph_layout(data)
    kept = g.vertices.kept
    # out of the sampling's range, then not strictly ascending
    at = lay["kept"] + 8 * (lay["n"] - 1)
    path = write_tmp(tmp_path, put(data, at, (2 ** 63 + 1).to_bytes(8, "little")))
    with pytest.raises(io.FormatError, match="ascending ids of the sampling") as exc:
        io.read_graph(path)
    assert exc.value.offset == at
    at = lay["kept"] + 8 * 2
    path = write_tmp(tmp_path, put(data, at, int(kept[1]).to_bytes(8, "little")))
    with pytest.raises(io.FormatError, match="ascending ids of the sampling") as exc:
        io.read_graph(path)
    assert exc.value.offset == at
    # a vertex-sampled file without the map is read as the full sampling, whose
    # 33 row pointers run into the column indices
    stripped = (data[:lay["kept_flag"]] + b"\x00"
                + data[lay["kept"] + 8 * lay["n"]:])
    with pytest.raises(io.FormatError, match="row pointers are not monotone") as exc:
        io.read_graph(write_tmp(tmp_path, stripped))
    assert exc.value.offset == graph_layout(stripped)["indptr"] == lay["kept_flag"] + 1


def test_empty_kept_map(tmp_path, sampled_file, se2_8x8x4, capsys):
    """A vertex-sampled graph keeps at least one vertex: a file whose kept
    count is 0 (no ids, one row pointer, no edges) is refused at the count,
    info exits 2 with one error line, and no such vertex set can be made for
    write_graph to store."""
    _, data = sampled_file
    at = graph_layout(data)["kept_count"]
    empty = data[:at] + (0).to_bytes(8, "little") * 2 + data[-8:]
    path = write_tmp(tmp_path, empty)
    with pytest.raises(io.FormatError, match="the kept-id map is empty") as exc:
        io.read_graph(path)
    assert exc.value.offset == at == 54
    assert main(["info", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    with pytest.raises(ValueError, match="kept must be one or more strictly ascending ids"):
        VertexSet(se2_8x8x4.vertices.spec, kept=np.zeros(0, dtype=np.int64))


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
    data = (io.MODEL_MAGIC + io.MODEL_VERSION.to_bytes(4, "little") + (1).to_bytes(4, "little")
            + bytes([99]))
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


CSV_SPECIALS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300, 1.0 / 3.0]


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("sampling", ["se2_8x8x4", "s2_level2"])
def test_csv_writers_match_loop(tmp_path, request, sampling, channels):
    """Both CSV writers give the per-value loop's bytes, on planar and
    spherical coordinates, one and three channels, and rows holding -0.0,
    NaN, +-inf, the smallest subnormal and +-1e300."""
    vertices = request.getfixturevalue(sampling).vertices
    rng = np.random.Generator(np.random.Philox(34))
    values = rng.standard_normal((len(vertices), channels))
    values.flat[rng.permutation(values.size)[:len(CSV_SPECIALS)]] = CSV_SPECIALS
    signal = values[:, 0] if channels == 1 else values
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    io.write_field_csv(got, vertices, signal)
    write_field_csv_loop(ref, vertices, signal)
    assert got.read_bytes() == ref.read_bytes()
    eigenvalues = np.array(CSV_SPECIALS[:channels])
    io.write_eigenmaps_csv(got, eigenvalues, values)
    write_eigenmaps_csv_loop(ref, eigenvalues, values)
    assert got.read_bytes() == ref.read_bytes()
