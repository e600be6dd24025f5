"""One benchmark process: drives defsort in-process on one workload.

`run.py` starts this file in a fresh, single-threaded interpreter and reads
the JSON it writes.  It calls the public CLI entry point `defsort.cli.run`
for `sort`, `sort --dot`, `check` and `order`, checks every output with
`oracle.py`, and then either

* times each command over and over with tracing off (`--trace 0`), with
  the reference loop of `refloop.py` timed right before and after each
  call, or
* runs each command once more per repetition through the CLI, then
  re-enacts it stage by stage through the layers' public functions with a
  span around every call (`--trace 1`).  The re-enacted results must equal
  the CLI's output and `sort_module`'s, so the trace cannot drift from the
  program unnoticed.

Spans are kept in memory and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import shutil
import sys
import time
import traceback
from statistics import median

import oracle
import refloop

COMMANDS = ("sort", "sort_dot", "check", "order")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _read_dir(directory: str) -> dict:
    return {name: _read(os.path.join(directory, name)) for name in sorted(os.listdir(directory))}


def _fresh_dir(path: str):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


@dataclasses.dataclass(frozen=True)
class Outcome:
    """Everything one CLI invocation produced."""

    code: object  # exit code, or the name of the exception it raised
    stdout: str
    stderr: str
    outputs: tuple  # ((file name, text), ...) written to --output
    dots: tuple  # ((file name, text), ...) written to --dot


class Bench:
    def __init__(self, args, cli):
        self.cli = cli
        self.indir = os.path.join(args.workdir, "in")
        with open(os.path.join(args.workdir, "expected.json"), encoding="utf-8") as f:
            self.exp = json.load(f)
        self.paths = [os.path.join(self.indir, name) for name in self.exp["files"]]
        self.out = {c: os.path.join(args.workdir, f"out-{c}") for c in ("sort", "sort_dot", "resort")}
        self.dot_dir = os.path.join(args.workdir, "dot")
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []
        self.first: dict = {}  # command -> Outcome of its first run

    # ── invoking the CLI ──────────────────────────────────────────────────

    def argv(self, command: str) -> list:
        if command == "sort":
            return ["sort", "--output", self.out["sort"]] + self.paths
        if command == "sort_dot":
            return ["sort", "--output", self.out["sort_dot"], "--dot", self.dot_dir] + self.paths
        return [command] + self.paths

    def invoke(self, argv: list, out_dir=None, dot_dir=None):
        """Run the CLI once; returns (Outcome, wall seconds, reference loop
        seconds around the call)."""
        for d in (out_dir, dot_dir):
            if d is not None:
                _fresh_dir(d)
        stdout, stderr = io.StringIO(), io.StringIO()
        self.attempted += 1
        gc.collect()
        ref = refloop.reference_seconds()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.run(argv)
        except (Exception, SystemExit) as exc:  # counted, and the run carries on
            code = type(exc).__name__
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        gc.collect()  # the call's garbage must not be collected inside the loop
        ref = (ref + refloop.reference_seconds()) / 2
        if code != 0:
            self.failed += 1
        outcome = Outcome(
            code, stdout.getvalue(), stderr.getvalue(),
            tuple(_read_dir(out_dir).items()) if out_dir else (),
            tuple(_read_dir(dot_dir).items()) if dot_dir else (),
        )
        return outcome, elapsed, ref

    def run_command(self, command: str):
        dot_dir = self.dot_dir if command == "sort_dot" else None
        out_dir = self.out.get(command)
        outcome, elapsed, ref = self.invoke(self.argv(command), out_dir, dot_dir)
        if command not in self.first:
            self.first[command] = outcome
            self.wrong += self.check_outcome(command, outcome)
        elif outcome != self.first[command]:
            self.wrong.append(f"{command}: output differs from its first run")
        return outcome, elapsed, ref

    def check_outcome(self, command: str, o: Outcome) -> list:
        exp = self.exp
        if command in ("sort", "sort_dot"):
            errs = oracle.check_sort(exp, o.code, o.stdout, dict(o.outputs))
            if command == "sort_dot":
                errs += oracle.check_dot(exp, dict(o.dots))
            return errs
        if command == "check":
            return oracle.check_diagnostics(exp, self.indir, o.code, o.stdout)
        return oracle.check_order(exp, o.code, o.stdout, o.stderr)

    def check_once(self):
        """Oracle checks that need extra, untimed invocations."""
        o = self.invoke(["sort", "--debug", "--check"] + self.paths)[0]
        self.wrong += oracle.check_debug_trace(self.exp, o.stdout)
        # sorting the output again reports nothing; an untouched module is
        # its own output
        written = dict(self.first["sort"].outputs)
        resort = []
        for name, path in zip(self.exp["files"], self.paths):
            if name in written:
                resort.append(os.path.join(self.out["resort"], name))
                with open(resort[-1], "w", encoding="utf-8") as f:
                    f.write(written[name])
            else:
                resort.append(path)
        o = self.invoke(["sort", "--debug", "--check"] + resort)[0]
        self.wrong += oracle.check_resorted(o.stdout, len(self.exp["modules"]))

    def warm_up(self):
        """One untimed run of every command; its outputs are checked."""
        os.makedirs(self.out["resort"], exist_ok=True)
        refloop.warm_reference()
        for command in COMMANDS:
            self.run_command(command)
        self.check_once()

    # ── tracing off: end-to-end timings ───────────────────────────────────

    def timed(self, seconds: float) -> dict:
        """command -> [(wall seconds, reference loop seconds)]"""
        samples: dict = {c: [] for c in COMMANDS}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(samples["sort"]) < 3:
            for command in COMMANDS:
                samples[command].append(self.run_command(command)[1:])
        return samples

    # ── tracing on: re-enacted stages ─────────────────────────────────────

    def traced(self, seconds: float, tracer) -> list:
        from reenact import Reenactor

        r = Reenactor(self, tracer, COMMANDS)
        reps = []
        deadline = time.perf_counter() + seconds
        gc.disable()  # invoke() and Reenactor.rep() collect between commands
        try:
            while time.perf_counter() < deadline or len(reps) < 3:
                tracer.rep = len(reps)
                reps.append(r.rep())
        finally:
            gc.enable()
        self.wrong += r.errors
        counts = [rep["counts"] for rep in reps]
        if any(c != counts[0] for c in counts):
            self.wrong.append("size counts differ between repetitions")
        return reps

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong}


def summary(samples: list) -> dict:
    """Median of the rescaled timings, the highest percentile with at least
    ten samples beyond it, the sample count, and the raw medians."""
    rescaled = [wall * refloop.REF_S / ref for wall, ref in samples]
    ordered = sorted(rescaled)
    n = len(ordered)
    out = {"median": median(ordered), "n": n,
           "wall_median": median(wall for wall, _ in samples),
           "ref_median": median(ref for _, ref in samples), "samples": samples}
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = ordered[min(n - 1, int(n * p / 100))]
            break
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory that holds the defsort package")
    ap.add_argument("--workdir", required=True, help="holds in/*.vdmsl and expected.json")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-out", required=True, help="JSON-lines file for the spans")
    ap.add_argument("--result", required=True, help="where to write the JSON result")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import defsort.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.exit(f"defsort was imported from {cli.__file__}, not from {args.src}")
    bench = Bench(args, cli)
    bench.warm_up()
    result = {}
    if args.trace:
        from reenact import Tracer, per_layer

        tracer = Tracer(bench.exp["workload"])
        reps = bench.traced(args.seconds, tracer)
        result["per_layer"] = per_layer(reps)
        result["reps"] = len(reps)
        tracer.write(args.trace_out)
    else:
        samples = bench.timed(args.seconds)
        result["timings"] = {c: summary(v) for c, v in samples.items()}
    result.update(bench.result())
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
