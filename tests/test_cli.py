"""Command line tests, run in-process through main(argv)."""

import argparse
import functools
import re

import numpy as np
import pytest

from liegraph import cli, io
from liegraph.cli import main
from liegraph.graph import default_knn, make_metric
from liegraph.sampling import GridKind, GridSpec
from liegraph.spectral import eigensystem


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


def config_of(out: str) -> tuple[str, dict]:
    """The command and the key=value pairs of a run's config line."""
    first = out.splitlines()[0]
    assert first.startswith("config: command=")
    command, *pairs = first.removeprefix("config: command=").split(" ")
    return command, dict(pair.split("=", 1) for pair in pairs)


def test_config_line_names_every_parser_destination(graph_path, tmp_path, capsys):
    """Each command, run with every flag it takes (over two runs where flags
    exclude each other), echoes every destination of its parser: the values
    given, and for build-graph the resolved ones."""
    g, d = str(graph_path), str(tmp_path)
    runs = [
        ["build-graph", "--kind", "se2", "--nx", "4", "--ny", "4", "--orient", "2",
         "--epsilon", "0.5", "--alpha", "2", "--knn", "6", "--lambda-max", "fixed2",
         "--out", f"{d}/a.clgr"],
        ["build-graph", "--kind", "so3", "--level", "1", "--orient", "2", "--epsilon", "0.5",
         "--xi", "0.25", "--out", f"{d}/b.clgr"],
        ["info", g],
        ["eigenmaps", "--graph", g, "--k", "5", "--out", f"{d}/e.csv"],
        ["diffuse", "--graph", g, "--impulse", "3", "--tau", "0.5", "--order", "20",
         "--out", f"{d}/d.csv"],
        ["diffuse", "--graph", g, "--signal", f"{d}/e.clsg", "--tau", "0.5", "--out", f"{d}/d.csv"],
        ["check-equivariance", "--graph", g, "--quarter-turns", "3"],
        ["sample", "--graph", g, "--edges", "0.5", "--seed", "3", "--out", f"{d}/s.clgr"],
        ["sample", "--graph", g, "--vertices", "0.5", "--out", f"{d}/s.clgr"],
        ["train-demo", "--epochs", "0", "--lr", "0.5", "--seed", "2", "--metrics", f"{d}/m.csv",
         "--checkpoint", f"{d}/m.clmd"],
    ]
    se2 = GridSpec(GridKind.SE2_GRID, nx=4, ny=4, n_orient=2)
    so3 = GridSpec(GridKind.SO3_ICOSAHEDRAL, level=1, n_orient=2)
    resolved = [
        {"kind": "se2", "nx": "4", "ny": "4", "orient": "2", "epsilon": "0.5", "alpha": "2",
         "xi": f"{make_metric(se2, epsilon=0.5, alpha=2.0)[0].xi:.12g}", "knn": "6",
         "lambda_max": "fixed2", "out": f"{d}/a.clgr"},
        {"kind": "so3", "level": "1", "orient": "2", "epsilon": "0.5", "xi": "0.25",
         "alpha": f"{make_metric(so3, epsilon=0.5, xi=0.25)[1]:.12g}",
         "knn": str(default_knn(so3)), "lambda_max": "power", "out": f"{d}/b.clgr"},
    ]
    shown = {}
    for argv in runs:
        assert main(argv) == 0, argv
        command, values = config_of(capsys.readouterr().out)
        assert command == argv[0]
        if command == "build-graph":
            assert values == resolved.pop(0)
        else:
            given = {a[2:].replace("-", "_"): v for a, v in zip(argv, argv[1:]) if a[:2] == "--"}
            assert given.items() <= values.items(), argv
        shown.setdefault(command, set()).update(values)
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert shown == {name: {a.dest for a in sub._actions} - {"help"}
                     for name, sub in subparsers.choices.items()}


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


def test_build_graph_refuses_flags_the_kind_does_not_use(tmp_path, capsys):
    """Every sampling flag reaches GridSpec: a level or a second slice on r2,
    nx or a second slice on s2, a level on se2 and levels above MAX_LEVEL
    end in one error line and exit 2, with no file written."""
    out = tmp_path / "g.clgr"
    for argv in (["--kind", "r2", "--nx", "4", "--orient", "6", "--level", "3"],
                 ["--kind", "r2", "--nx", "4", "--level", "3"],
                 ["--kind", "r2", "--nx", "4", "--orient", "6"],
                 ["--kind", "se2", "--nx", "4", "--orient", "2", "--level", "1"],
                 ["--kind", "s2", "--level", "1", "--orient", "6", "--nx", "5"],
                 ["--kind", "s2", "--level", "1", "--nx", "5"],
                 ["--kind", "so3", "--level", "1", "--orient", "2", "--ny", "5"],
                 ["--kind", "s2", "--level", "9"],
                 ["--kind", "s2", "--level", "4294967295"]):
        assert main(["build-graph", *argv, "--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_build_graph_rejects_infinite_metric(tmp_path, capsys):
    """An infinite epsilon, xi or alpha would zero a weight term, and an
    epsilon or xi whose weight epsilon^-2 or xi^2 overflows would make one
    infinite: one error line, exit 2, no file."""
    out = tmp_path / "g.clgr"
    for flag, value in (("--epsilon", "inf"), ("--xi", "inf"), ("--alpha", "inf"),
                        ("--epsilon", "1e-160"), ("--xi", "1e200")):
        assert main(["build-graph", "--kind", "se2", "--nx", "4", "--orient", "2",
                     flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "finite" in err and err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_info_rejects_metric_the_sampling_forbids(graph_path, tmp_path, capsys):
    """info refuses, with one error line and exit 2, an s2 file patched to
    claim epsilon 0.25 (bytes 25-32) and an se2 file whose xi gives an
    infinite alpha (bytes 33-40)."""
    s2 = tmp_path / "s2.clgr"
    assert main(["build-graph", "--kind", "s2", "--level", "1", "--out", str(s2)]) == 0
    capsys.readouterr()
    for path, at, value, message in ((s2, 25, 0.25, "isotropic metric"),
                                     (graph_path, 33, 1e154, "gives alpha inf")):
        data = bytearray(path.read_bytes())
        data[at:at + 8] = np.float64(value).tobytes()
        bad = tmp_path / "bad.clgr"
        bad.write_bytes(bytes(data))
        assert main(["info", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err and f"offset {at})" in err


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


@pytest.mark.parametrize("k", [1, 30, 31, 32])
def test_eigenmaps_every_k(graph_path, tmp_path, k):
    """k from 1 (Lanczos on the V=32 graph) to all 32 (dense) eigenpairs."""
    out = tmp_path / "eig.csv"
    assert main(["eigenmaps", "--graph", str(graph_path), "--k", str(k),
                 "--out", str(out)]) == 0
    lap = io.read_graph(graph_path)[1]
    values = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]])
    vectors = io.read_signal(tmp_path / "eig.clsg")
    np.testing.assert_allclose(values, np.linalg.eigvalsh(lap.matrix.toarray())[:k],
                               rtol=0, atol=1e-10)
    assert np.abs(lap.matrix @ vectors - vectors * values).max() <= 1e-10
    assert np.abs(vectors.T @ vectors - np.eye(k)).max() <= 1e-8


def test_eigenmaps_above_the_dense_cap(graph_path, tmp_path, capsys, monkeypatch):
    """k near the size of a component past the dense cap: one error line and
    exit 2, never a dense solve; small k still takes Lanczos."""
    monkeypatch.setattr(cli, "eigensystem", functools.partial(eigensystem, dense_cap=16))
    argv = ["eigenmaps", "--graph", str(graph_path), "--out", str(tmp_path / "eig.csv")]
    assert main(argv + ["--k", "30"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: k=30 needs a dense solve of a 32-vertex component, "
                   "above the dense cap of 16 vertices\n")
    assert main(argv + ["--k", "5"]) == 0


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


@pytest.mark.parametrize("kind", [["so3", "--orient", "2"], ["s2"]])
def test_diffuse_on_sphere_samplings(kind, tmp_path, capsys):
    """Slice ratios read (x, y, theta) params, which sphere samplings lack:
    the field and sidecar are written and no slice line is printed."""
    path = str(tmp_path / "g.clgr")
    assert main(["build-graph", "--kind", *kind, "--level", "1", "--out", path]) == 0
    capsys.readouterr()
    out = tmp_path / "d.csv"
    assert main(["diffuse", "--graph", path, "--impulse", "3", "--tau", "1",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "slice" not in printed and f"wrote {out}" in printed
    values = io.read_signal(tmp_path / "d.clsg")[:, 0]
    assert len(out.read_text().splitlines()) == values.size + 1
    assert values[3] > 0.0


def test_diffuse_signal_input(graph_path, tmp_path):
    sig = tmp_path / "in.clsg"
    rng = np.random.Generator(np.random.Philox(40))
    io.write_signal(sig, rng.random(32))
    out = tmp_path / "d.csv"
    code = main(["diffuse", "--graph", str(graph_path), "--signal", str(sig),
                 "--tau", "0.5", "--out", str(out)])
    assert code == 0
    assert io.read_signal(tmp_path / "d.clsg").shape == (32, 1)


def test_diffuse_usage_errors(graph_path, tmp_path, capsys):
    out = str(tmp_path / "d.csv")
    base = ["diffuse", "--graph", str(graph_path), "--tau", "0.1", "--out", out]
    assert main(base) == 2                                     # neither input
    assert main(base + ["--impulse", "0", "--signal", "x"]) == 2
    assert main(base + ["--impulse", "99"]) == 2               # out of range
    short = tmp_path / "short.clsg"
    io.write_signal(short, np.ones(7))
    assert main(base + ["--signal", str(short)]) == 2          # length mismatch
    capsys.readouterr()
    for tau in ("nan", "inf"):                                 # the last --tau counts
        assert main(base + ["--impulse", "0", "--tau", tau]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: diffusion time") and err.count("\n") == 1
    # beyond the default order's accuracy: one line naming the order that suffices
    for tau in ("1e6", "1000"):
        assert main(base + ["--impulse", "0", "--tau", tau]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: diffusion time") and err.count("\n") == 1
        assert "needs order" in err
    assert not (tmp_path / "d.csv").exists()
    need = re.search(r"needs order (\d+) or more", err).group(1)
    assert main(base + ["--impulse", "0", "--tau", "1000", "--order", need]) == 0


def test_diffuse_order_above_cap(graph_path, tmp_path, capsys):
    """--order above HEAT_MAX_ORDER (65536) would stack that many terms of
    the signal: one error line and exit 2, before any term is computed."""
    out = tmp_path / "d.csv"
    assert main(["diffuse", "--graph", str(graph_path), "--impulse", "0", "--tau", "0.5",
                 "--order", "65537", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: order must lie in [1, 65536], got 65537\n"
    assert not out.exists()


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
    """A stored vertex-sampled graph keeps its kept-id map, so info reads the
    slice fractions off the original ids, as for the in-memory graph."""
    full = tmp_path / "g.clgr"
    sub = tmp_path / "s.clgr"
    assert main(["build-graph", "--kind", "se2", "--nx", "8", "--orient", "4",
                 "--epsilon", "0.316", "--alpha", "1", "--knn", "16", "--out", str(full)]) == 0
    assert main(["sample", "--graph", str(full), "--vertices", "0.5", "--seed", "3",
                 "--out", str(sub)]) == 0
    assert "neighbors: 0.374 in-slice / 0.626 cross-slice" in capsys.readouterr().out
    assert main(["info", str(sub)]) == 0
    out = capsys.readouterr().out
    assert "neighbors: 0.374 in-slice / 0.626 cross-slice" in out
    assert "vertices: 128" in out


def test_info_on_version_1_file(graph_path, tmp_path, capsys):
    """Graph files of version 1 are not read: one error line, exit 2."""
    old = tmp_path / "v1.clgr"
    old.write_bytes(io.GRAPH_MAGIC + (1).to_bytes(4, "little") + graph_path.read_bytes()[8:])
    assert main(["info", str(old)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unsupported version 1" in err


@pytest.mark.parametrize("argv", [
    ["info", "{dir}"],
    ["build-graph", "--kind", "r2", "--nx", "3", "--out", "{dir}"],
    ["train-demo", "--epochs", "0", "--metrics", "{dir}"],
])
def test_os_errors_exit_2(tmp_path, capsys, argv):
    """A path that cannot be read or written (here a directory) ends in one
    error line and exit 2, not a traceback."""
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")


def test_sample_usage_errors(graph_path, tmp_path, capsys):
    out = str(tmp_path / "x.clgr")
    assert main(["sample", "--graph", str(graph_path), "--out", out]) == 2
    assert main(["sample", "--graph", str(graph_path), "--edges", "0.5",
                 "--vertices", "0.5", "--out", out]) == 2
    capsys.readouterr()
    for flag in ("--edges", "--vertices"):
        assert main(["sample", "--graph", str(graph_path), flag, "nan", "--out", out]) == 2
        assert capsys.readouterr().err == "error: kappa must be a finite number, got nan\n"


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


def test_train_demo_negative_epochs(capsys):
    """--epochs -1 trains nothing: one error line and exit 2."""
    assert main(["train-demo", "--epochs", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: epochs must be non-negative, got -1\n"


def usage_error(argv, capsys) -> str:
    """The one `error:` line argparse prints for argv, which must exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("lr", [["--lr", "inf"], ["--lr", "-1"], ["--lr", "nan"],
                                ["--lr", "0"], ["--lr=-inf"], ["--lr", "fast"]],
                         ids=["inf", "-1", "nan", "0", "-inf", "fast"])
def test_train_demo_rejects_bad_lr(lr, capsys):
    """An --lr that is not a finite positive number stops before training
    (no config line, no overflow warning) with one error line naming the
    flag, and exit 2."""
    line = usage_error(["train-demo", "--epochs", "1", *lr], capsys)
    assert line.startswith("liegraph train-demo: error: argument --lr: "
                           "must be a finite positive number, got")


@pytest.mark.parametrize("command", [
    ["sample", "--graph", "{graph}", "--edges", "0.5", "--out", "{out}"],
    ["train-demo", "--epochs", "0"],
])
def test_negative_seed_names_the_flag(command, graph_path, tmp_path, capsys):
    """Both commands that take --seed reject a negative one through the same
    argparse type, naming the flag, with exit 2."""
    argv = [a.format(graph=graph_path, out=tmp_path / "s.clgr") for a in command]
    line = usage_error(argv + ["--seed", "-1"], capsys)
    assert line == (f"liegraph {command[0]}: error: argument --seed: "
                    "must be a non-negative integer, got '-1'")
    assert not (tmp_path / "s.clgr").exists()


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
