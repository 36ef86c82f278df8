#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare <A> <B>
    python3 perfbench/run.py --self-test

A run builds the perfbench binary under .bench_build/ (incrementally; the
first build compiles the library sources, about a minute on four cores),
runs the workload in its own process, and prints as its last stdout line one
JSON object with the keys correct, attempted, failed and metrics. Each run
also prints a line of noise diagnostics (host fingerprint, steal, load
average, CPU seconds) and appends both to .bench_out/perfbench/runs.jsonl. A
traced run (--trace 1) writes its spans and metrics to
.bench_out/perfbench/<workload>-seed<n>.trace.json; --compare reads two such
files (or two directories of them) and prints each workload's end-to-end
deltas beside its per-layer deltas. See README.md beside this file.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("wide_round", "service_1c")
# A run must end within 180 s; leave the rest for start-up and teardown.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds perfbench; returns the binary's path."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), *generator,
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], "configure")
    jobs = str(len(os.sched_getaffinity(0)))
    step(["cmake", "--build", str(BUILD_DIR), "-j", jobs], "build")
    binary = BUILD_DIR / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def step(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"{what} failed (exit {proc.returncode})")


def cpu_times():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def load_average():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def host_fingerprint():
    cache = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
    }


def expected_metrics(trace):
    """The metric names and units BENCHMARK.json declares for this mode."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    binary = build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]

    # Noise diagnostics: for reading runs only, never to drop or repeat one.
    steal0, total0 = cpu_times()
    load0 = load_average()
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    finally:
        # Never leave the workload running: on a timeout, or when this
        # script is interrupted or terminated, stop it and wait for it.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    steal1, total1 = cpu_times()
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    diagnostics = {
        **host_fingerprint(),
        "steal_pct": 100.0 * (steal1 - steal0) / max(total1 - total0, 1),
        "load_avg_start": load0,
        "load_avg_end": load_average(),
        "cpu_s": child.ru_utime + child.ru_stime - cpu0.ru_utime - cpu0.ru_stime,
        "wall_s": time.monotonic() - wall0,
    }

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} printed no result (exit {proc.returncode})", 1)
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
             f"unexpected {sorted(set(got) - set(expected))}, "
             f"units {sorted(k for k in got if k in expected and got[k] != expected[k])}", 4)

    if args.trace and trace_path.is_file():
        doc = json.loads(trace_path.read_text())
        doc["diagnostics"] = diagnostics
        trace_path.write_text(json.dumps(doc))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "exit": proc.returncode, "diagnostics": diagnostics,
              "result": result}
    with open(OUT_DIR / "runs.jsonl", "a") as log:
        log.write(json.dumps(record) + "\n")

    print("diagnostics " + json.dumps(diagnostics))
    if args.trace:
        print(f"trace {trace_path}")
    print(json.dumps(result))
    return proc.returncode


def load_traces(path):
    """workload -> list of traced-run documents, from a file or a directory."""
    path = Path(path)
    files = sorted(path.glob("*.trace.json")) if path.is_dir() else [path]
    by_workload = {}
    for f in files:
        doc = json.loads(f.read_text())
        by_workload.setdefault(doc["workload"], []).append(doc)
    if not by_workload:
        fail(f"no traced outputs in {path}")
    return by_workload


def compare(a_path, b_path):
    """Prints each workload's end-to-end and per-layer medians of A and B."""
    a, b = load_traces(a_path), load_traces(b_path)
    spec_path = ROOT / "BENCHMARK.json"
    bounds = {}
    if spec_path.is_file():
        for m in json.loads(spec_path.read_text())["end_to_end"]:
            bounds[m["name"]] = (m["better"], m["bound"])

    def median(docs, section, name):
        return statistics.median(d[section][name]["value"] for d in docs)

    for workload in [w for w in WORKLOADS if w in a and w in b]:
        print(f"== {workload}  (traced runs: A {len(a[workload])}, B {len(b[workload])})")
        for section in ("end_to_end", "per_layer"):
            print(f"  {section:34s} {'A':>14s} {'B':>14s} {'delta':>9s}")
            for name, metric in a[workload][0][section].items():
                if name not in b[workload][0][section]:
                    continue
                va = median(a[workload], section, name)
                vb = median(b[workload], section, name)
                delta = f"{(vb - va) / abs(va) * 100.0:+8.1f}%" if va else f"{'n/a':>9s}"
                flag = ""
                if name in bounds and va:
                    better, bound = bounds[name]
                    worse = (va - vb if better == "higher" else vb - va) / abs(va)
                    if worse > bound:
                        flag = f"  worse than its {bound:.0%} bound"
                print(f"  {name:34s} {va:14.6g} {vb:14.6g} {delta} {metric['unit']}{flag}")
        print()


def main():
    # SIGTERM unwinds like Ctrl-C, so the workload process is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    if args.self_test:
        return subprocess.run([str(build()), "--self-test"]).returncode
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
