#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload compile-mix --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The first run configures and builds the ALF
libraries plus the benchmark driver (Release) under .bench_build/perfbench;
later runs rebuild incrementally. Scratch files of a run (JIT kernel cache,
compiler temporaries, the server socket) live under .bench_out/ and are
removed when it ends; a traced run also leaves its spans in
.bench_out/trace-<workload>-seed<N>.json.

With --trace 0 the last line of stdout holds the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics. A traced run
first repeats the untraced run so it can report the tracing overhead
(trace.overhead_pct: traced op_ms.geomean over untraced, minus one).
Lines starting with "#" before it are the human-readable report.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = ".bench_out"
WORKLOADS = ("compile-mix", "steady-run", "serve-churn")
CHILD_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "driver", "Pipeline.h")):
        die("the ALF sources (src/) are missing; nothing to benchmark")
    if shutil.which("cmake") is None:
        die("cmake not found")
    # The compiler's temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, env=env,
                          stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, cwd=ROOT, env=env,
                      stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(BUILD_DIR, "alf_perfbench")


def run_child(binary, args, trace):
    """Runs one benchmark process; returns its parsed result object."""
    workdir = os.path.join(OUT_DIR, "%s-%d-%d" % (args.workload, os.getpid(),
                                                    trace))
    cmd = [os.path.join(".", binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--workdir", workdir]
    if trace:
        cmd += ["--trace-file", os.path.join(
            OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALF_")}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, preexec_fn=os.setsid)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # alf_perfbench may have kernel compiles running as children.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
        die("%s timed out after %d s" % (args.workload, CHILD_TIMEOUT_S))
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("%s exited with %d without a result" % (args.workload,
                                                     proc.returncode))
    if proc.returncode not in (0, 1):
        die("%s exited with %d" % (args.workload, proc.returncode))
    return result


def declared(key):
    """Name -> unit of the metrics BENCHMARK.json declares under key."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def select(reported, key, fill_missing):
    """Attaches the declared units. An undeclared name is an error; so is a
    missing one, unless fill_missing (a layer the workload never calls
    reports 0)."""
    units = declared(key)
    extra = sorted(n for n in reported if n not in units)
    missing = sorted(n for n in units if n not in reported)
    if extra or (missing and not fill_missing):
        die("metrics do not match BENCHMARK.json: missing %s, undeclared %s"
            % (missing, extra))
    return {n: {"value": reported.get(n, 0), "unit": u}
            for n, u in units.items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)

    base = run_child(binary, args, 0)
    attempted, failed = base["attempted"], base["failed"]
    if args.trace:
        traced = run_child(binary, args, 1)
        attempted += traced["attempted"]
        failed += traced["failed"]
        layer = dict(traced["layer"])
        overhead = (traced["e2e"]["op_ms.geomean"] /
                    base["e2e"]["op_ms.geomean"] - 1.0) * 100.0
        layer["trace.overhead_pct"] = overhead
        print("# tracing overhead on op_ms.geomean: %.2f %%" % overhead)
        metrics = select(layer, "per_layer", True)
        host = traced["host"]
    else:
        metrics = select(base["e2e"], "end_to_end", False)
        host = base["host"]
    print("# host " + json.dumps(host))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
