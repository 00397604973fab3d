"""Command line tests, run in-process through main(argv)."""

import numpy as np
import pytest

from liegraph import cli, io
from liegraph.cli import main
from liegraph.graph import laplacian
from liegraph.sampling import GridKind
from liegraph.spectral import eigensystem

from conftest import EPS_ANISO, built


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.clgr"
    code = main(["build-graph", "--kind", "se2", "--nx", "4", "--orient", "2",
                 "--epsilon", "0.3162277660168379", "--alpha", "1.0",
                 "--knn", "6", "--out", str(path)])
    assert code == 0
    return path


def test_build_graph_output(graph_path, capsys):
    code = main(["info", str(graph_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("config: command=info")
    assert "vertices: 32" in out
    assert "kind: se2" in out
    assert "lambda_max:" in out
    assert "knn: 6" in out


def test_build_graph_config_echo(tmp_path, capsys):
    path = tmp_path / "g.clgr"
    main(["build-graph", "--kind", "r2", "--nx", "3", "--out", str(path)])
    out = capsys.readouterr().out
    first = out.splitlines()[0]
    assert first.startswith("config: command=build-graph")
    for token in ("kind=r2", "nx=3", "ny=3", "knn=8", "epsilon=1", "alpha="):
        assert token in first, token


def test_build_graph_default_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["build-graph", "--kind", "r2", "--nx", "3"])
    assert code == 0
    assert (tmp_path / "graph.clgr").exists()


def test_build_graph_reruns_identical(tmp_path):
    a, b = tmp_path / "a.clgr", tmp_path / "b.clgr"
    argv = ["build-graph", "--kind", "se2", "--nx", "4", "--orient", "2",
            "--knn", "6"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_graph_fixed_lambda(tmp_path):
    path = tmp_path / "g.clgr"
    code = main(["build-graph", "--kind", "s2", "--level", "1",
                 "--lambda-max", "fixed2", "--out", str(path)])
    assert code == 0
    _, lap = io.read_graph(path)
    assert lap.lambda_max == 2.0


def test_build_graph_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "g.clgr")
    # conflicting metric flags
    assert main(["build-graph", "--kind", "se2", "--nx", "4", "--orient", "2",
                 "--alpha", "1.0", "--xi", "0.5", "--out", out]) == 2
    # non-positive metric parameters
    assert main(["build-graph", "--kind", "se2", "--nx", "4", "--orient", "2",
                 "--epsilon", "0", "--out", out]) == 2
    assert main(["build-graph", "--kind", "se2", "--nx", "4", "--orient", "2",
                 "--alpha", "0", "--out", out]) == 2
    # isotropic kinds reject non-isotropic metric values
    assert main(["build-graph", "--kind", "r2", "--nx", "4",
                 "--epsilon", "0.5", "--out", out]) == 2
    assert main(["build-graph", "--kind", "s2", "--level", "1",
                 "--alpha", "1.0", "--out", out]) == 2
    # missing sampling parameters
    assert main(["build-graph", "--kind", "se2", "--nx", "4", "--out", out]) == 2
    assert main(["build-graph", "--kind", "so3", "--orient", "2", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_info_missing_and_corrupt(tmp_path, capsys):
    assert main(["info", str(tmp_path / "absent.clgr")]) == 2
    bad = tmp_path / "bad.clgr"
    bad.write_bytes(b"XXXX" + bytes(60))
    assert main(["info", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_eigenmaps(graph_path, tmp_path, capsys):
    out = tmp_path / "eig.csv"
    code = main(["eigenmaps", "--graph", str(graph_path), "--k", "5",
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "eigenvalues:" in printed
    lines = out.read_text().splitlines()
    assert lines[0].startswith("k,lambda,v0")
    assert len(lines) == 6
    sidecar = io.read_signal(tmp_path / "eig.clsg")
    assert sidecar.shape == (32, 5)
    # first eigenvalue of a connected graph is numerically zero
    assert abs(float(lines[1].split(",")[1])) <= 1e-9


def test_eigenmaps_without_stored_laplacian(tmp_path, capsys, monkeypatch):
    """A file with no Laplacian needs no lambda_max estimate for eigenmaps."""
    g = built(GridKind.SE2_GRID, nx=4, ny=4, orient=2, epsilon=EPS_ANISO,
              alpha=1.0, knn=6)
    path = tmp_path / "bare.clgr"
    io.write_graph(path, g)

    def refuse(*args, **kwargs):
        raise AssertionError("eigenmaps estimated lambda_max")

    monkeypatch.setattr(cli, "power_lambda_max", refuse)
    code = main(["eigenmaps", "--graph", str(path), "--k", "5",
                 "--out", str(tmp_path / "eig.csv")])
    assert code == 0
    expected = eigensystem(laplacian(g), 5).values
    assert f"eigenvalues: {' '.join(f'{v:.6g}' for v in expected)}" in capsys.readouterr().out


def test_diffuse_impulse(graph_path, tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main(["diffuse", "--graph", str(graph_path), "--impulse", "5",
                 "--tau", "0.0", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "slice 0" in printed and "slice 1" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "vertex_id,x,y,theta,value"
    assert len(lines) == 33
    values = np.array([float(l.split(",")[4]) for l in lines[1:]])
    assert values[5] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.delete(values, 5), 0.0, atol=1e-12)
    side = io.read_signal(tmp_path / "d.clsg")
    np.testing.assert_allclose(side[:, 0], values, atol=1e-15)


def test_diffuse_signal_input(graph_path, tmp_path):
    sig = tmp_path / "in.clsg"
    rng = np.random.Generator(np.random.Philox(40))
    io.write_signal(sig, rng.random(32))
    out = tmp_path / "d.csv"
    code = main(["diffuse", "--graph", str(graph_path), "--signal", str(sig),
                 "--tau", "0.5", "--out", str(out)])
    assert code == 0
    assert io.read_signal(tmp_path / "d.clsg").shape == (32, 1)


def test_diffuse_usage_errors(graph_path, tmp_path):
    out = str(tmp_path / "d.csv")
    base = ["diffuse", "--graph", str(graph_path), "--tau", "0.1", "--out", out]
    assert main(base) == 2                                     # neither input
    assert main(base + ["--impulse", "0", "--signal", "x"]) == 2
    assert main(base + ["--impulse", "99"]) == 2               # out of range
    short = tmp_path / "short.clsg"
    io.write_signal(short, np.ones(7))
    assert main(base + ["--signal", str(short)]) == 2          # length mismatch


def test_check_equivariance_pass(graph_path, capsys):
    code = main(["check-equivariance", "--graph", str(graph_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "equivariance error:" in out


def test_check_equivariance_zero_turns(graph_path, capsys):
    code = main(["check-equivariance", "--graph", str(graph_path),
                 "--quarter-turns", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.000000e+00" in out


def test_check_equivariance_rectangular(tmp_path, capsys):
    path = tmp_path / "rect.clgr"
    assert main(["build-graph", "--kind", "se2", "--nx", "4", "--ny", "6",
                 "--orient", "2", "--knn", "6", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["check-equivariance", "--graph", str(path)]) == 2
    assert "square" in capsys.readouterr().err


def test_check_equivariance_fail_on_sampled(graph_path, tmp_path, capsys):
    """Random edge removal breaks the quarter-turn symmetry: exit code 1."""
    sub = tmp_path / "sub.clgr"
    assert main(["sample", "--graph", str(graph_path), "--edges", "0.5",
                 "--seed", "1", "--out", str(sub)]) == 0
    capsys.readouterr()
    code = main(["check-equivariance", "--graph", str(sub)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_sample_edges(graph_path, tmp_path, capsys):
    out = tmp_path / "sub.clgr"
    code = main(["sample", "--graph", str(graph_path), "--edges", "0.6",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    assert "note: edge sampling" in capsys.readouterr().out
    full, _ = io.read_graph(graph_path)
    sub, _ = io.read_graph(out)
    assert 0 < sub.n_edges < full.n_edges
    # kappa >= 1 keeps everything
    out2 = tmp_path / "same.clgr"
    assert main(["sample", "--graph", str(graph_path), "--edges", "1.0",
                 "--out", str(out2)]) == 0
    assert io.read_graph(out2)[0].n_edges == full.n_edges


def test_sample_vertices(graph_path, tmp_path):
    out = tmp_path / "vs.clgr"
    code = main(["sample", "--graph", str(graph_path), "--vertices", "0.5",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    sub, lap = io.read_graph(out)
    assert sub.n_vertices == 16
    assert lap is not None


def test_vertex_sampled_graph_rejected(graph_path, tmp_path, capsys):
    """check-equivariance and diffuse index the full sampling: a vertex-sampled
    file ends in exit 2 with a one-line message, not a traceback."""
    sub = tmp_path / "vs.clgr"
    assert main(["sample", "--graph", str(graph_path), "--vertices", "0.5",
                 "--seed", "3", "--out", str(sub)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "d.csv")
    for argv in (["check-equivariance", "--graph", str(sub)],
                 ["diffuse", "--graph", str(sub), "--impulse", "0", "--tau", "0.5",
                  "--out", out]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "needs all 32 vertices" in err and "has 16" in err
    assert not (tmp_path / "d.csv").exists()


def test_info_on_vertex_sampled_file(tmp_path, capsys):
    """A stored vertex-sampled graph keeps no id map, so info reports its
    slice fractions as unknown instead of reading slices off the new ids."""
    full = tmp_path / "g.clgr"
    sub = tmp_path / "s.clgr"
    assert main(["build-graph", "--kind", "se2", "--nx", "8", "--orient", "4",
                 "--epsilon", "0.316", "--alpha", "1", "--knn", "16", "--out", str(full)]) == 0
    assert main(["sample", "--graph", str(full), "--vertices", "0.5", "--seed", "3",
                 "--out", str(sub)]) == 0
    assert "neighbors: 0.374 in-slice / 0.626 cross-slice" in capsys.readouterr().out
    assert main(["info", str(sub)]) == 0
    out = capsys.readouterr().out
    assert "neighbors: unknown (vertex-sampled file stores no id map)" in out
    assert "vertices: 128" in out


def test_sample_usage_errors(graph_path, tmp_path):
    out = str(tmp_path / "x.clgr")
    assert main(["sample", "--graph", str(graph_path), "--out", out]) == 2
    assert main(["sample", "--graph", str(graph_path), "--edges", "0.5",
                 "--vertices", "0.5", "--out", out]) == 2


def test_train_demo_epoch_zero(tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    ckpt = tmp_path / "c.clmd"
    code = main(["train-demo", "--epochs", "0", "--metrics", str(metrics),
                 "--checkpoint", str(ckpt)])
    assert code == 0
    out = capsys.readouterr().out
    assert "epoch   0:" in out
    lines = metrics.read_text().splitlines()
    assert lines[0] == "epoch,loss,accuracy,rotation_consistency"
    assert len(lines) == 2
    assert ckpt.read_bytes()[:4] == io.MODEL_MAGIC


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
