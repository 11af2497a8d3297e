"""deltagrid benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-expander --seed 0 --seconds 50 --trace 0

Workloads (see workloads.py for inputs and why each exists):
verify-expander and sweep-marstrand.  Each is a closed loop with one
client: a fresh Python process (worker.py) generates the seeded inputs, then
repeats the workload's CLI commands in-process through
``deltagrid.cli.main`` for ``--seconds`` (at least three repetitions),
and checks every output.

``--trace 0`` prints the end-to-end metrics of an untraced process.
``--trace 1`` runs an untraced and a traced process for half the time
each and prints the per-layer metrics of the traced one, plus the
tracing overhead.  Metric names and units come from BENCHMARK.json.
Timings are medians over the repetitions of the run, scaled by the host's
measured speed to a reference core (see ``host_factor``); the summary lines
also give the highest percentile with at least ten repetitions beyond it,
the repetition count, and the unscaled times.  The last line of standard
output is the JSON result.  Exit status is non-zero, with no result
printed, when the workload cannot be run at all.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from worker import CALIB_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
UNATTRIBUTED_MAX = 0.05  # share of traced wall time no span may leave uncovered


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_worker(args, mode: str, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    # BLAS would start one spinning thread per core next to the program's own
    # two expander threads; held to one, the process stays within nproc
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def host_factor(calib) -> float:
    """Reference kernel time over the median kernel time of these samples.

    The shared host runs this process at a speed that drifts by a quarter or
    more over minutes, in CPU time as well as in wall time, so a plain median
    over one run follows the host rather than the program.  ``calibrate``
    (worker.py) times a fixed kernel after every command and every set-up;
    scaling a time by this factor gives the time on a core that runs the
    kernel in ``CALIB_REF_S``.
    """
    return CALIB_REF_S / statistics.median(calib)


def end_to_end(res: dict) -> dict:
    f = host_factor(res["calib"])
    walls = [w * f for w in res["walls"]]
    return {
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(res["ops_per_rep"] / w for w in walls),
        "cpu_s": statistics.median(res["cpus"]) * f,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": ((res["import_s"] + statistics.median(res["setup_times"]))
                    * host_factor(res["setup_calib"])),
        "ok_ops_ratio": 1.0 - res["failed"] / res["attempted"],
    }


def describe(name: str, unit: str, value, samples=None) -> str:
    line = f"  {name:28s} {value:.6g} {unit}"
    if samples is not None:
        t = tail(samples)
        extra = (f"p{t[0]:.0f}={t[1]:.6g}" if t else "no percentile has 10 runs beyond it")
        line += f"  (median of n={len(samples)}; {extra})"
    return line


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's self-tests")
    args = p.parse_args(argv)
    # on SIGTERM, subprocess.run kills and reaps the worker before exiting
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "deltagrid", "__init__.py")):
        print(f"error: no deltagrid sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace == 0:
            runs = [run_worker(args, "plain", args.seconds, deadline)]
        else:
            runs = [run_worker(args, "plain", args.seconds / 2, deadline),
                    run_worker(args, "traced", args.seconds / 2, deadline)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"reps={[len(r['walls']) for r in runs]} ops_per_rep={plain['ops_per_rep']} "
          f"attempted={attempted} failed={failed} "
          f"reference_checked={plain['checked_against_reference']}")

    e2e = end_to_end(plain)
    print("end-to-end (untraced):")
    f = host_factor(plain["calib"])
    samples = {"wall_s": [w * f for w in plain["walls"]],
               "cpu_s": [c * f for c in plain["cpus"]],
               "ops_per_s": [plain["ops_per_rep"] / (w * f) for w in plain["walls"]]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for m in spec["end_to_end"]:
        print(describe(m["name"], m["unit"], e2e[m["name"]], samples.get(m["name"])))
    print(f"  failed_ops_ratio             {failed / attempted:.6g}")
    print(f"host: calibration kernel median {statistics.median(plain['calib']) * 1e3:.4g} ms"
          f" (reference {CALIB_REF_S * 1e3:.4g} ms), factor {f:.4g}; unscaled medians"
          f" wall {statistics.median(plain['walls']):.6g} s, cpu"
          f" {statistics.median(plain['cpus']):.6g} s, set-up"
          f" {plain['import_s'] + statistics.median(plain['setup_times']):.6g} s")
    print("per-command median wall (untraced, unscaled): " + ", ".join(
        f"{k}={statistics.median(v):.4g} s" for k, v in plain["per_command"].items()))

    if args.trace == 0:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    else:
        traced = runs[1]
        layers = dict(traced["layers"])
        check = layers.pop("_check")
        layers["trace.overhead_s"] = (statistics.median(traced["walls"])
                                      * host_factor(traced["calib"]) - e2e["wall_s"])
        wall = layers["trace.wall_s"]
        identity_ok = check["identity_error_s"] <= 1e-6 * max(wall, 1.0)
        covered_ok = -1e-6 <= layers["trace.unattributed_s"] <= UNATTRIBUTED_MAX * wall
        correct = correct and identity_ok and covered_ok
        print("per-layer (traced, mean per repetition):")
        for m in spec["per_layer"]:
            print(describe(m["name"], m["unit"], layers[m["name"]]))
        print(f"trace check: submitting-thread self {check['main_thread_self_s']:.6g} s"
              f" + unattributed {layers['trace.unattributed_s']:.6g} s"
              f" = traced wall {wall:.6g} s (error {check['identity_error_s']:.2g} s,"
              f" {'ok' if identity_ok else 'FAILED'}); uncovered share"
              f" {'ok' if covered_ok else 'FAILED'}; worker-thread self"
              f" {check['worker_thread_self_s']:.6g} s; traced outputs failed"
              f" {traced['failed']} of {traced['attempted']} ops")
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}

    print("env " + json.dumps(plain["env"], sort_keys=True))
    for value in metrics.values():
        if not math.isfinite(value):
            correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
