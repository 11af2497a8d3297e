"""Run the benchmark over many seeds and summarise its spread.

    python3 perfbench/collect.py --seeds 0-9 [--workloads verify,sweep]
        [--seconds 20] [--traced] [--out perfbench/BENCH_baseline.json]

For each workload and seed it runs ``run.py`` untraced, then reports per
end-to-end metric the median of the per-run values, their quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to a third of the metric's bound.  ``--traced`` adds one traced run
per workload at the first seed for the per-layer numbers.  ``--out``
writes everything, with the environment of the first run, as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": args.seeds, "run_seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        runs = []
        for seed in args.seeds:
            res, env = run(workload, seed, args.seconds, 0)
            summary.setdefault("environment", env)
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"], "inputs": env["inputs"],
                         "loadavg_1min": env["loadavg_1min"]})
            ok = ok and res["correct"]
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{workload} seed={seed} correct={res['correct']} "
                  + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        stats = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds[name], "values": vals}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {workload:10s} {name:14s} median={med:.5g} spread={spread:.4f} "
                  f"bound/3={bounds[name] / 3:.4f} {flag}", flush=True)
        entry = {"end_to_end": stats, "runs": runs}
        if args.traced:
            res, _ = run(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
            entry["per_layer_seed"] = args.seeds[0]
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
