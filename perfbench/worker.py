"""One benchmark process: set up a workload, repeat it, check its outputs.

Run by ``run.py`` as a fresh process per mode, so tracing wrappers never
touch the untraced numbers:

    python3 perfbench/worker.py --workload sweep --seed 3 --seconds 10 --mode plain

Prints one JSON object (raw samples, counts, environment) as the last
line of standard output.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference")

SETUP_REPS = 5   # set-ups per run; setup_s is import time plus their median
CALIB_REF_S = 0.020  # time of calibrate() on the reference core timings are scaled to
CALIB_EVERY_S = 0.5  # timed seconds per calibration sample
MIN_REPS = 3     # timed repetitions per run, even past --seconds


def import_deltagrid() -> float:
    """Import the package from this checkout's ``src``; returns the import time."""
    if not os.path.isfile(os.path.join(SRC, "deltagrid", "__init__.py")):
        raise SystemExit(f"deltagrid sources not found under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import deltagrid.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    import deltagrid
    if os.path.dirname(os.path.dirname(os.path.abspath(deltagrid.__file__))) != SRC:
        raise SystemExit(f"imported deltagrid from {deltagrid.__file__}, not from {SRC}")
    return elapsed


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(inputs) -> dict:
    import numpy

    try:
        with open("/proc/loadavg") as fh:
            load1 = float(fh.read().split()[0])
    except OSError:
        load1 = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "loadavg_1min": load1,
        "inputs": inputs.sizes,
        "flags": inputs.flags,
    }


def run_command(main, cmd):
    """Exit code, printed text and CSV report bytes of one command.

    An exception escaping ``main`` is a crash: it is reported with its
    traceback and counted as exit code -1, so its ops fail.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(cmd.argv))
    except Exception:
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def read_csv(cmd):
    if cmd.csv is None or not os.path.exists(cmd.csv):
        return None
    with open(cmd.csv, "rb") as fh:
        return fh.read()


def load_reference(workload: str, tiny: bool, seed: int):
    from workloads import DEFAULT_SEED

    path = os.path.join(REFERENCE, f"{workload}.json")
    if tiny or seed != DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["plain", "traced", "record"], default="plain")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    import_s = import_deltagrid()
    sys.path.insert(0, HERE)
    import outcheck
    from workloads import BUILDERS, DEFAULT_SEED

    if args.workload not in BUILDERS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        raise SystemExit("--seed must be non-negative")
    if args.mode == "record" and (args.tiny or args.seed != DEFAULT_SEED):
        raise SystemExit(f"references are recorded at full size with --seed {DEFAULT_SEED}")
    build = BUILDERS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        setup_times, setup_calib = [], []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            inputs, commands = build(args.seed, workdir, tiny=args.tiny)
            setup_times.append(time.perf_counter() - t0)
            setup_calib += calibrate_after(setup_times[-1])

        reference = (None if args.mode == "record"
                     else load_reference(args.workload, args.tiny, args.seed))
        tracer = None
        if args.mode == "traced":
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        import deltagrid.cli as cli

        walls, cpus, calib, first, per_command = [], [], [], None, {}
        attempted = failed = 0
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if (args.mode == "record" and walls) or (
                    len(walls) >= MIN_REPS
                    and elapsed + statistics.median(walls) > args.seconds):
                break
            outputs, wall, cpu = [], 0.0, 0.0
            for cmd in commands:
                r0 = resource.getrusage(resource.RUSAGE_SELF)
                t0 = time.perf_counter()
                outputs.append(run_command(cli.main, cmd))
                t1 = time.perf_counter()
                r1 = resource.getrusage(resource.RUSAGE_SELF)
                calib += calibrate_after(t1 - t0)
                per_command.setdefault(cmd.key, []).append(t1 - t0)
                wall += t1 - t0
                cpu += (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
            walls.append(wall)
            cpus.append(cpu)

            raw = [(code, text, read_csv(c)) for c, (code, text) in zip(commands, outputs)]
            got = {c.key: outcheck.capture(*r) for c, r in zip(commands, raw)}
            if first is None:
                first = raw
                # one pass of every command, as a user running them one by one
                # would see it; later repetitions only add the allocator's
                # retained heap, which varies with the seed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            twins_differ = thread_mismatches(commands, got)
            for c, now, then in zip(commands, raw, first):
                attempted += c.ops
                bad = c.ops if (now != then or now[0] != 0 or c.key in twins_differ) else 0
                if reference is not None and not bad:
                    bad = outcheck.failed_ops(got[c.key], reference[c.key], c.ops, c.rows_are_ops)
                failed += bad

        if args.mode == "record":
            with open(os.path.join(REFERENCE, f"{args.workload}.json"), "w") as fh:
                json.dump(got, fh, indent=0, sort_keys=True)
                fh.write("\n")
        result = {
            "mode": args.mode,
            "walls": walls,
            "cpus": cpus,
            "per_command": per_command,
            "calib": calib,
            "ops_per_rep": sum(c.ops for c in commands),
            "attempted": attempted,
            "failed": failed,
            "checked_against_reference": reference is not None,
            "peak_rss_mb": peak_rss_mb,
            "import_s": import_s,
            "setup_times": setup_times,
            "setup_calib": setup_calib,
            "env": environment(inputs),
        }
        if tracer is not None:
            tracer.uninstall()
            from tracing import layer_metrics
            result["layers"] = layer_metrics(tracer.spans, threading.get_ident(),
                                             sum(walls), len(walls))
            tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.tsv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def calibrate() -> float:
    """Seconds this process takes for a fixed kernel of about 20 ms.

    The kernel mixes the two kinds of work the workloads do, an interpreted
    integer loop with big-int masks and a numpy distance-power block, and
    touches nothing of deltagrid, so no change to the program can move it.
    It runs after every timed command and set-up (``calibrate_after``); its
    time tracks how fast the shared host runs this process at that moment.
    """
    import numpy as np

    t0 = time.perf_counter()
    x = 0
    for i in range(60_000):
        x = (x * 31 + i) % 1_000_003
    mask, full = (1 << 2048) - 1, (1 << 4096) - 1
    for _ in range(300):
        mask = (mask << 1 | mask) & full
    grid = np.arange(1024, dtype=np.float64)
    d = np.hypot(grid[:512, None] - grid[None, :], 0.5 * grid[None, :])
    np.maximum(d, 1.0, out=d)
    float(np.sum(d ** -0.5))
    return time.perf_counter() - t0


def calibrate_after(seconds: float) -> list:
    """Kernel times taken after a step of ``seconds``: one per CALIB_EVERY_S
    of it, at least one, so the samples weigh the host's speed by where the
    timed work spends its time."""
    return [calibrate() for _ in range(max(1, round(seconds / CALIB_EVERY_S)))]


def thread_mismatches(commands, got) -> set:
    """Keys of ``..._t2`` commands whose report differs from their ``..._t1``
    twin: expander reports must not depend on the thread count."""
    differ = set()
    for c in commands:
        if c.key.endswith("_t2"):
            one, two = got[c.key[:-3] + "_t1"], got[c.key]
            if (one["csv"], one["stdout"]) != (two["csv"], two["stdout"]):
                differ.add(c.key)
    return differ


if __name__ == "__main__":
    sys.exit(main())
