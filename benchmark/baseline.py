"""Run the benchmark on several seeds per workload and record the spread.

    python3 benchmark/baseline.py --out benchmark/baseline.json
    python3 benchmark/baseline.py --seeds 5 --workloads build_se2 train --out /tmp/b.json

For every workload: --seeds untraced runs with seeds first-seed, first-seed+1, ...,
then (unless --no-trace) one traced run with the first seed.  For each
end-to-end metric it records the ten values, their median, first and third
quartile (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
Runs are sequential; each is a child process that is waited for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(ln[5:]) for ln in lines if ln.startswith("env: ")), None)
    return {"result": json.loads(lines[-1]), "env": env, "wall_s": wall}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--no-trace", action="store_true")
    args = p.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "seeds": list(range(args.first_seed,
                                                          args.first_seed + args.seeds)),
              "env": None, "workloads": {}}
    for w in args.workloads:
        runs = [run_once(w, s, seconds, 0) for s in report["seeds"]]
        report["env"] = report["env"] or runs[0]["env"]
        entry = {"attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "wall_s": summarize([r["wall_s"] for r in runs]), "end_to_end": {}}
        for name in bounds:
            entry["end_to_end"][name] = summarize(
                [r["result"]["metrics"][name]["value"] for r in runs])
        if not args.no_trace:
            traced = run_once(w, args.first_seed, seconds, 1)
            entry["traced_seed"] = args.first_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        report["workloads"][w] = entry
        line = "  ".join(f"{n}={s['median']:.4g} spread={s['spread']:.3f} (bound {bounds[n]})"
                         for n, s in entry["end_to_end"].items())
        print(f"{w}: failed {entry['failed']}/{entry['attempted']}  {line}", flush=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
