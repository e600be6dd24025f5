"""Seeded end-to-end and per-stage benchmark for defsort.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-rev --seed 1 --seconds 25 --trace 0

It generates the workload's `.vdmsl` files from the seed, times how long a
fresh interpreter takes to import `defsort.cli` and resolve its
configuration, then starts `worker.py` in a fresh interpreter to run the
commands and check their outputs.  Timings are rescaled to a reference
speed (see `refloop.py`); the raw wall-time medians are printed beside
them.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, where the
metrics are the end-to-end ones with `--trace 0` and the per-layer ones
with `--trace 1`.  `--workload all` runs every workload in turn.

Scratch files go under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from statistics import median

import refloop
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
SETUP_SPAWNS = 25
RUN_LIMIT_S = 170  # every run ends within 180 seconds

# The work every CLI call pays before any command runs; then, untimed, the
# reference loop on the same processor.
SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
import defsort.cli as cli
cli.resolve_config(cli.build_arg_parser().parse_args(["check", "x.vdmsl"]))
sys.stdout.write("ready\\n")
sys.stdout.flush()
sys.path.insert(0, {here!r})
import refloop
sys.stdout.write(repr(refloop.warm_reference(12)) + "\\n")
"""

E2E_UNITS = {"sort_s": "s", "sort_dot_s": "s", "check_s": "s", "order_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    """The caller's environment without defsort settings, which would
    change what the commands do."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DEFSORT_")}


def measure_setup(workdir: str):
    """Seconds from starting an interpreter until the CLI is imported and
    configured, rescaled by the reference loop; returns (median, median
    wall seconds, failures)."""
    code = SETUP_CODE.format(src=SRC, here=HERE)
    samples, failures = [], 0
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              cwd=workdir, env=_child_env()) as p:
            ready = p.stdout.readline() == b"ready\n"
            elapsed = time.perf_counter() - t0
            ref = p.stdout.read()
            p.wait(timeout=60)
        if not ready or p.returncode != 0:
            failures += 1
        elif i > 0:  # the first spawn writes the bytecode caches
            samples.append((elapsed, float(ref)))
    if not samples:
        return 0.0, 0.0, failures
    return (median(wall * refloop.REF_S / ref for wall, ref in samples),
            median(wall for wall, _ in samples), failures)


def run_worker(workdir: str, seconds: int, trace: bool, trace_out: str, deadline: float):
    """Run worker.py to completion; returns (result dict or None, peak RSS in MB)."""
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
           "--src", SRC, "--workdir", workdir, "--seconds", str(seconds),
           "--trace", str(int(trace)), "--trace-out", trace_out, "--result", result_path]
    with subprocess.Popen(cmd, cwd=workdir, env=_child_env(), stdout=sys.stderr) as p:
        while True:
            pid, status, usage = os.wait4(p.pid, os.WNOHANG)
            if pid:
                p.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                p.kill()
                p.wait()
                print(f"worker killed after exceeding the {RUN_LIMIT_S} s limit", file=sys.stderr)
                return None, 0.0
            time.sleep(0.05)
    if p.returncode != 0 or not os.path.exists(result_path):
        print(f"worker exited with {p.returncode}", file=sys.stderr)
        return None, 0.0
    with open(result_path, encoding="utf-8") as f:
        return json.load(f), usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _write_json(path: str, value):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(value, f)


def run_one(name: str, seed: int, seconds: int, trace: bool):
    """One workload; returns the result object, or None when the run broke."""
    started = time.monotonic()
    workdir = os.path.join(SCRATCH, f"{name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        w = workloads.generate(name, seed)
        w.write(os.path.join(workdir, "in"))
        _write_json(os.path.join(workdir, "expected.json"), w.expected())
        setup = (0.0, 0.0, 0) if trace else measure_setup(workdir)
        trace_out = os.path.join(SCRATCH, "traces", f"{name}-seed{seed}.jsonl")
        res, rss_mb = run_worker(workdir, seconds, trace, trace_out, started + RUN_LIMIT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res is None:
        return None
    for message, times in Counter(res["wrong"]).items():
        print(f"{name}: wrong output ({times}x): {message}", file=sys.stderr)
    if trace:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in res["per_layer"].items()}
        print(f"{name}: {res['reps']} traced repetitions")
    else:
        t = res["timings"]
        _write_json(os.path.join(SCRATCH, "samples", f"{name}-seed{seed}.json"),
                    {c: t[c].pop("samples") for c in t})
        values = {f"{c}_s": t[c]["median"] for c in ("sort", "sort_dot", "check", "order")}
        values.update(setup_s=setup[0], peak_rss_mb=rss_mb)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        for c, s in t.items():
            tail = [f"{k} {v:.4f} s" for k, v in s.items() if k[0] == "p" and k[1:].isdigit()]
            print(f"{name}: {c}: median {s['median']:.4f} s over {s['n']} runs"
                  + (f", {tail[0]}" if tail else ", no percentile has ten runs beyond it")
                  + f"; raw wall median {s['wall_median']:.4f} s,"
                  f" reference loop median {s['ref_median'] * 1000:.3f} ms")
        print(f"{name}: setup: median {setup[0]:.4f} s; raw wall median {setup[1]:.4f} s")
        res["attempted"] += SETUP_SPAWNS + 1
        res["failed"] += setup[2]
    attempted, failed = res["attempted"], res["failed"]
    print(f"{name}: failed_ratio {failed / attempted:.4f}, wrong_outputs {len(res['wrong'])}")
    return {"correct": not res["wrong"] and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="defsort benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "defsort", "cli.py")):
        print(f"no defsort sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = sorted(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        res = run_one(name, args.seed, args.seconds, bool(args.trace))
        if res is None:
            return 1
        print(json.dumps(res))
        ok = ok and res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
