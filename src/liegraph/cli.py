"""Command line front end.

Every command prints its effective configuration as a single sorted
`config:` line before doing anything, so runs are reproducible from logs
alone.  Exit codes: 0 success / check passed, 1 failing check or diverged
training, 2 usage, file-format or file-system (OSError) errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .graph import (ManifoldGraph, build_graph, default_knn, fixed_lambda_max,
                    laplacian, make_metric, power_lambda_max, sample_edges,
                    sample_vertices, slice_neighbor_fractions)
from .network import TrainingDiverged, train_demo
from .sampling import PLANAR_KINDS, GridKind, GridSpec, build_vertices
from .spectral import (eigensystem, equivariance_error, heat_diffuse, require_full_sampling,
                       rotation_permutation, slice_anisotropy)

EQUIVARIANCE_TOL = 1e-9

def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _rate(text: str) -> float:
    """argparse type of --lr: a finite positive number."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _print_config(args, values: dict | None = None) -> None:
    """The sorted config line of a command: its parsed arguments, or the
    resolved values given in their place; None values are left out."""
    if values is None:
        values = {k: v for k, v in vars(args).items() if k not in ("command", "fn")}
    pairs = " ".join(f"{k}={v}" for k, v in sorted(values.items()) if v is not None)
    print(f"config: command={args.command} {pairs}")


def _graph_summary(graph: ManifoldGraph, lambda_max: float) -> None:
    spec = graph.vertices.spec
    print(f"kind: {spec.kind.value}")
    if spec.kind in PLANAR_KINDS:
        print(f"sampling: {spec.nx}x{spec.ny} grid, {spec.n_orient} orientation slice(s)")
    else:
        print(f"sampling: icosahedral level {spec.level}, {spec.n_orient} orientation slice(s)")
    print(f"vertices: {graph.n_vertices}")
    print(f"edges: {graph.n_edges}")
    print(f"knn: {graph.knn}")
    print(f"metric: epsilon={graph.metric.epsilon:.12g} xi={graph.metric.xi:.12g} "
          f"alpha={graph.alpha:.12g}")
    print(f"bandwidth: {graph.bandwidth:.12g}")
    print(f"lambda_max: {lambda_max:.12g}")
    in_f, cross_f = slice_neighbor_fractions(graph)
    print(f"neighbors: {in_f:.3f} in-slice / {cross_f:.3f} cross-slice")
    for note in graph.notes:
        print(f"note: {note}")


def cmd_build_graph(args) -> int:
    kind = GridKind(args.kind)
    planar = kind in PLANAR_KINDS
    for flag, needed in (("nx", planar), ("level", not planar),
                         ("orient", kind in (GridKind.SE2_GRID, GridKind.SO3_ICOSAHEDRAL))):
        if needed and getattr(args, flag) is None:
            raise ValueError(f"{args.kind} samplings need --{flag}")
    # Every flag given reaches GridSpec, which refuses those the kind does not use.
    nx = args.nx or 0
    spec = GridSpec(kind, nx=nx, ny=nx if args.ny is None else args.ny, level=args.level or 0,
                    n_orient=1 if args.orient is None else args.orient)

    metric, alpha = make_metric(spec, epsilon=args.epsilon, alpha=args.alpha, xi=args.xi)
    knn = args.knn if args.knn is not None else default_knn(spec)

    _print_config(args, {
        "kind": args.kind, "nx": spec.nx or None, "ny": spec.ny or None,
        "level": None if planar else spec.level,
        "orient": spec.n_orient, "epsilon": f"{metric.epsilon:.12g}",
        "xi": f"{metric.xi:.12g}", "alpha": f"{alpha:.12g}", "knn": knn,
        "lambda_max": args.lambda_max, "out": args.out,
    })

    vertices = build_vertices(spec)
    graph = build_graph(vertices, metric, knn)
    lap = laplacian(graph)
    lap = fixed_lambda_max(lap) if args.lambda_max == "fixed2" else power_lambda_max(lap)
    io.write_graph(args.out, graph, lap)
    _graph_summary(graph, lap.lambda_max)
    print(f"wrote {args.out}")
    return 0


def cmd_info(args) -> int:
    _print_config(args)
    graph, lap = io.read_graph(args.graph)
    _graph_summary(graph, lap.lambda_max)
    return 0


def cmd_eigenmaps(args) -> int:
    _print_config(args)
    _, lap = io.read_graph(args.graph)
    eig = eigensystem(lap, args.k)
    io.write_eigenmaps_csv(args.out, eig.values, eig.vectors)
    sidecar = _sidecar(args.out)
    io.write_signal(sidecar, eig.vectors)
    print(f"eigenvalues: {' '.join(f'{v:.6g}' for v in eig.values)}")
    print(f"wrote {args.out} and {sidecar}")
    return 0


def _sidecar(csv_path: str) -> str:
    base = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return base + ".clsg"


def cmd_diffuse(args) -> int:
    _print_config(args)
    graph, lap = io.read_graph(args.graph)
    require_full_sampling(graph.vertices, "diffuse")
    if (args.impulse is None) == (args.signal is None):
        raise ValueError("give exactly one of --impulse or --signal")
    if args.impulse is not None:
        if not 0 <= args.impulse < graph.n_vertices:
            raise ValueError(f"impulse vertex {args.impulse} out of range")
        x = np.zeros(graph.n_vertices)
        x[args.impulse] = 1.0
    else:
        x = io.read_signal(args.signal)
        if x.shape[0] != graph.n_vertices:
            raise ValueError("signal length does not match the graph")
    y = heat_diffuse(lap, x, args.tau, args.order)
    io.write_field_csv(args.out, graph.vertices, y)
    sidecar = _sidecar(args.out)
    io.write_signal(sidecar, y)
    if graph.vertices.spec.kind in PLANAR_KINDS:
        for entry in slice_anisotropy(graph.vertices, y if y.ndim == 1 else y[:, 0]):
            print(f"slice {entry['slice']} (theta={entry['theta']:.4f}): "
                  f"mass={entry['mass']:.6g} along={entry['var_along']:.6g} "
                  f"across={entry['var_across']:.6g} ratio={entry['ratio']:.4f}")
    print(f"wrote {args.out} and {sidecar}")
    return 0


def cmd_check_equivariance(args) -> int:
    _print_config(args)
    graph, lap = io.read_graph(args.graph)
    require_full_sampling(graph.vertices, "check-equivariance")
    perm = rotation_permutation(graph.vertices.spec, args.quarter_turns)
    err = equivariance_error(lap.matrix, perm)
    print(f"equivariance error: {err:.6e} (tolerance {EQUIVARIANCE_TOL:.0e})")
    if err <= EQUIVARIANCE_TOL:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def cmd_sample(args) -> int:
    if (args.edges is None) == (args.vertices is None):
        raise ValueError("give exactly one of --edges or --vertices")
    _print_config(args)
    graph, _ = io.read_graph(args.graph)
    if args.edges is not None:
        sub = sample_edges(graph, args.edges, args.seed)
    else:
        sub = sample_vertices(graph, args.vertices, args.seed)
    lap = power_lambda_max(laplacian(sub))
    io.write_graph(args.out, sub, lap)
    _graph_summary(sub, lap.lambda_max)
    print(f"wrote {args.out}")
    return 0


def cmd_train_demo(args) -> int:
    _print_config(args)
    rows, setup = train_demo(epochs=args.epochs, lr=args.lr, seed=args.seed)
    if args.metrics:
        with open(args.metrics, "w", newline="\n") as fh:
            fh.write("epoch,loss,accuracy,rotation_consistency\n")
            for row in rows:
                fh.write(f"{row['epoch']},{row['loss']:.17g},{row['accuracy']:.17g},"
                         f"{row['rotation_consistency']:.17g}\n")
    if args.checkpoint:
        io.write_model(args.checkpoint, setup.model)
    for row in rows:
        print(f"epoch {row['epoch']:3d}: loss={row['loss']:.4f} "
              f"accuracy={row['accuracy']:.4f} "
              f"rotation_consistency={row['rotation_consistency']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="liegraph",
                                description="Anisotropic manifold graphs on SE(2) and SO(3)")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-graph", help="sample a grid and build its K-NN graph")
    b.add_argument("--kind", choices=sorted(k.value for k in GridKind), required=True)
    b.add_argument("--nx", type=int)
    b.add_argument("--ny", type=int)
    b.add_argument("--level", type=int)
    b.add_argument("--orient", type=int)
    b.add_argument("--epsilon", type=float, default=1.0)
    b.add_argument("--alpha", type=float)
    b.add_argument("--xi", type=float)
    b.add_argument("--knn", type=int)
    b.add_argument("--lambda-max", choices=["power", "fixed2"], default="power")
    b.add_argument("--out", default="graph.clgr")
    b.set_defaults(fn=cmd_build_graph)

    i = sub.add_parser("info", help="summarize a stored graph")
    i.add_argument("graph")
    i.set_defaults(fn=cmd_info)

    e = sub.add_parser("eigenmaps", help="export the smallest eigenpairs")
    e.add_argument("--graph", required=True)
    e.add_argument("--k", type=int, default=16)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_eigenmaps)

    d = sub.add_parser("diffuse", help="heat diffusion of an impulse or signal")
    d.add_argument("--graph", required=True)
    d.add_argument("--impulse", type=int)
    d.add_argument("--signal")
    d.add_argument("--tau", type=float, required=True)
    d.add_argument("--order", type=int, default=30)
    d.add_argument("--out", required=True)
    d.set_defaults(fn=cmd_diffuse)

    c = sub.add_parser("check-equivariance", help="audit the quarter-turn symmetry")
    c.add_argument("--graph", required=True)
    c.add_argument("--quarter-turns", type=int, default=1)
    c.set_defaults(fn=cmd_check_equivariance)

    s = sub.add_parser("sample", help="random sub-graph (edge or vertex sampling)")
    s.add_argument("--graph", required=True)
    s.add_argument("--edges", type=float)
    s.add_argument("--vertices", type=float)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sample)

    t = sub.add_parser("train-demo", help="train the oriented-bar classifier")
    t.add_argument("--epochs", type=int, default=30)
    t.add_argument("--lr", type=_rate, default=1e-2)
    t.add_argument("--seed", type=_seed, default=0)
    t.add_argument("--metrics")
    t.add_argument("--checkpoint")
    t.set_defaults(fn=cmd_train_demo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (io.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
