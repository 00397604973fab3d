"""liegraph benchmark: one workload in a closed loop for a fixed time.

    python3 benchmark/run.py --workload build --seed 1 --seconds 30 --trace 0

Each operation starts when the previous one returns.  With --trace 0 the
last stdout line is a JSON object with the end-to-end metrics; with
--trace 1 operations alternate between untraced and traced, and the object
carries the per-layer metrics derived from the traced spans.  Run records
and spans land in .bench_out/ at the checkout root.  `--workload all` runs
every workload in turn and prints one summary under per-command names.
See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# The workloads BENCHMARK.json lists; eigen_v3456 (the dense eigensolve) runs
# only when named, or in `--workload all`.
WORKLOADS = ("build", "analyze_v6144", "train")
EXTRA_WORKLOADS = ("eigen_v3456",)

# name -> unit; every one is emitted by every untraced run.
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

BUILD_CASES = ("se2", "so3", "s2")
NETWORK_LAYERS = ("L0_ChebConv", "L1_ReLU", "L2_Pool", "L3_ChebConv", "L4_ReLU",
                  "L5_GlobalMaxPool", "L6_Dense", "L7_LogSoftmax")
# Spans whose self time is reported, median per call.  A span "<name>:<case>"
# is reported as <name>_s.<case>, any other as <name>_s.
SPAN_TIMES = (*(f"{name}:{case}" for name in ("sampling.build_vertices", "graph.build_graph")
                for case in BUILD_CASES),
              *(f"{name}:{case}" for name in ("graph.laplacian", "graph.power_lambda_max",
                                              "io.write_graph")
                for case in BUILD_CASES + ("sampled",)),
              "graph.sample_edges", "io.read_graph", "io.write_signal", "spectral.eigensystem",
              "spectral.heat_diffuse", "spectral.slice_anisotropy",
              "spectral.rotation_permutation", "spectral.equivariance_error",
              "network.build_demo", "network.train_demo")
# Layer spans, reported as <span>_s summed over one train_demo call.
LAYER_SPANS = tuple(f"network.{layer}.{d}" for layer in NETWORK_LAYERS
                    for d in ("forward", "backward"))
NUMBERS = {**{f"{name}.{case}": unit for name, unit in (
               ("groups.pair_sq_ns", "ns"), ("graph.n_vertices", "count"),
               ("graph.n_edges", "count"), ("spectral.lap_nnz", "count"),
               ("graph.lambda_max_gap", "ratio"), ("io.graph_bytes", "B"))
              for case in BUILD_CASES},
           "graph.n_vertices.v6144": "count", "graph.n_edges.v6144": "count",
           "spectral.lap_nnz.v6144": "count", "graph.lambda_max_gap.sampled": "ratio",
           "io.graph_bytes.sampled": "B", "spectral.heat_spmv": "count",
           "spectral.heat_bytes_computed": "B", "network.forward_calls": "count",
           "network.backward_calls": "count", "network.final_accuracy": "ratio",
           "trace.overhead_frac": "ratio", "trace.coverage": "ratio"}


def span_metric(span: str) -> str:
    name, _, case = span.partition(":")
    return f"{name}_s.{case}" if case else f"{name}_s"


# name -> unit; every one is emitted by every traced run, 0 where the
# workload does not reach that layer.
PER_LAYER = {**{span_metric(s): "s" for s in SPAN_TIMES + LAYER_SPANS}, **NUMBERS}


def cap_blas_threads() -> int:
    """Limit BLAS/OpenMP pools to the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(nproc, int(cur)) if cur.isdigit() and int(cur) > 0 else nproc)
    return nproc


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by its file name."""
    import numpy
    import scipy
    out = {}
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            cdll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(cdll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[lib.name] = fn()
                    break
    return out


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy
    return {"git_commit": _git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
            "blas_threads": _blas_threads(), "nproc": nproc,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 tiny: bool = False) -> dict:
    """Set up, then run operations until `seconds` have passed (at least one
    cycle).  A traced run alternates untraced and traced operations."""
    import workloads
    from spans import Tracer

    tr = Tracer()
    wl = workloads.make(name, seed, seconds, str(workdir), tiny)
    setup_times = []
    for _ in range(wl.setup_repeats):
        tr.enabled = trace
        t = time.perf_counter()
        wl.setup(tr)
        setup_times.append(time.perf_counter() - t)
    tr.enabled = False

    res = {"attempted": 0, "failed": 0, "failures": [], "setup_times": setup_times,
           "op_times": {False: [], True: []}, "cmd_times": defaultdict(list),
           "numbers": defaultdict(list), "op_spans": [], "tracer": tr}
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    i = 0
    while True:
        for traced in (modes if i % 2 == 0 else modes[::-1]):
            inp = wl.inputs(i, tr if traced else None)
            if inp is None:
                return res
            _one_op(wl, tr, inp, traced, i, res)
            i += 1
        if time.perf_counter() - start >= seconds:
            return res


def _one_op(wl, tr, inp, traced: bool, i: int, res: dict) -> None:
    res["attempted"] += 1
    tr.op_id = i
    tr.enabled = traced
    span = tr.begin("op") if traced else None
    t = time.perf_counter()
    try:
        out = wl.op(tr, inp)
        problems = None
    except Exception as exc:      # a failed operation is counted, not fatal
        problems = [f"operation raised {exc!r}"]
    finally:
        res["op_times"][traced].append(time.perf_counter() - t)
        if span is not None:
            tr.end(span)
            res["op_spans"].append(span)
        tr.enabled = False
    if problems is None:
        for cmd, dt in out.get("times", {}).items():
            res["cmd_times"][cmd].append(dt)
        try:
            problems = wl.check(inp, out)
            if traced:
                for key, value in wl.layer_numbers(inp, out).items():
                    res["numbers"][key].append(value)
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"check raised {exc!r}"]
    if problems:
        res["failed"] += 1
        res["failures"].append(f"op {i}: " + "; ".join(problems))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss() -> dict:
    return _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")


def end_to_end(res: dict, import_s: float) -> dict:
    return {"op_s": _metric(statistics.median(res["op_times"][False]), "s"),
            "setup_s": _metric(import_s + statistics.median(res["setup_times"]), "s"),
            "peak_rss_mb": _peak_rss()}


def per_layer(res: dict) -> dict:
    from spans import child_coverage, self_times

    spans = res["tracer"].spans
    per_call = defaultdict(list)
    per_op = defaultdict(lambda: defaultdict(float))
    for s, st in zip(spans, self_times(spans)):
        per_call[s[0]].append(st)
        per_op[s[0]][s[4]] += st
    values = {name: 0.0 for name in PER_LAYER}
    for name in SPAN_TIMES:
        if per_call[name]:
            values[span_metric(name)] = statistics.median(per_call[name])
    for name in LAYER_SPANS:
        if per_op[name]:
            values[span_metric(name)] = statistics.median(per_op[name].values())
    for key, vals in res["numbers"].items():
        values[key] = statistics.median(vals)
    plain = statistics.median(res["op_times"][False])
    values["trace.overhead_frac"] = (statistics.median(res["op_times"][True]) - plain) / plain
    values["trace.coverage"] = min(child_coverage(spans, idx) for idx in res["op_spans"])
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def run_all(seed: int, seconds: float, import_s: float, workdir: Path) -> dict:
    """Every workload in turn; metrics under per-command names."""
    res = {"attempted": 0, "failed": 0, "failures": [], "metrics": {}}
    metrics = res["metrics"]
    setup_s = import_s
    for name in WORKLOADS + EXTRA_WORKLOADS:
        one = run_workload(name, seed, seconds, False, workdir)
        for key in ("attempted", "failed", "failures"):
            res[key] += one[key]
        setup_s += statistics.median(one["setup_times"])
        op_s = _metric(statistics.median(one["op_times"][False]), "s")
        if name == "eigen_v3456":
            metrics["eigenmaps_v3456_s"] = op_s
        elif name == "train":
            metrics["train_s"] = op_s
        else:
            for cmd, times in one["cmd_times"].items():
                label = "eigenmaps_v6144" if cmd == "eigenmaps" else cmd
                metrics[f"{label}_s"] = _metric(statistics.median(times), "s")
    metrics["setup_s"] = _metric(setup_s, "s")
    metrics["peak_rss_mb"] = _peak_rss()
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all" and args.trace:
        p.error("--workload all reports untraced metrics only")

    nproc = cap_blas_threads()
    t = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # noqa: F401  (numpy, scipy and liegraph load here)
    import_s = time.perf_counter() - t

    workdir = OUT_DIR / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "all":
            res = run_all(args.seed, args.seconds, import_s, workdir)
            metrics = res["metrics"]
        else:
            res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
            metrics = per_layer(res) if args.trace else end_to_end(res, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": res["failed"] == 0 and res["attempted"] > 0,
              "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}

    env = environment(args, nproc)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, **result, "failures": res["failures"],
              "op_times_s": res.get("op_times", {}).get(False)}
    if "cmd_times" in res:
        record["command_median_s"] = {c: statistics.median(v) for c, v in res["cmd_times"].items()}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        res["tracer"].write(OUT_DIR / f"spans-{stem}.json")
    for line in res["failures"][:20]:
        print(f"failed: {line}", file=sys.stderr)
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
