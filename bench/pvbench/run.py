#!/usr/bin/env python3
"""pvbench: the rerunnable benchmark of pverify_serve and the library.

Builds the repository (library + pverify_serve) and the pvbench driver from
source with bench/pvbench/CMakeLists.txt, runs the driver once per selected
workload, prints every metric with its unit and sample count, writes one
results JSON, and prints a one-line JSON summary as the last line of stdout.

  python3 bench/pvbench/run.py --seed N [--workload W] [--trace [0|1]]
                               [--build DIR] [--out DIR]
  python3 bench/pvbench/run.py --smoke     # short phases, small pools
  python3 bench/pvbench/run.py --check     # smoke both modes, validate names

Untraced runs report the end-to-end metrics, traced runs the per-layer
metrics (see README.md). A run measures BENCHMARK.json's run_seconds per
workload (--smoke: SMOKE_SECONDS). --seconds exists because BENCHMARK.json's
command is run with --seconds <run_seconds> appended; the
results file records the length, and compare.py refuses to pool different
ones. Exit status: 0 when every answer was correct, 1 when a run failed,
2 when the tree cannot be built or run.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ["uniform_point", "zipf_cached", "mixed_sharded", "batch_inproc"]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
SMOKE_SECONDS = 4
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"pvbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per workload run (default: "
                        "BENCHMARK.json's run_seconds; smoke "
                        f"{SMOKE_SECONDS})")
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"],
                   help="1 (or bare --trace): per-layer traced run")
    p.add_argument("--build", default=None,
                   help="build directory (default: .bench_build in the tree)")
    p.add_argument("--out", default=None,
                   help="output directory (default: BUILD/pvbench-out)")
    p.add_argument("--results", default=None, help="results JSON path")
    p.add_argument("--smoke", action="store_true",
                   help="short phases and small pools")
    p.add_argument("--check", action="store_true",
                   help="smoke-run both modes and check every declared "
                        "metric is reported under a valid name")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if (args.smoke or args.check) \
            else benchmark_spec()["run_seconds"]
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        fail(f"{path} not found")
    return json.loads(path.read_text())


# ----------------------------------------------------------------- build --

def build(build_dir):
    """Configures (once) and builds pvbench_driver and pverify_serve."""
    for needed in ("CMakeLists.txt", "src", "tools/pverify_serve.cc"):
        if not (ROOT / needed).exists():
            fail(f"{ROOT} is not a pverify source tree ({needed} missing)")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "pvbench-build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "pvbench_driver", "pverify_serve", "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def read_cmake_cache(build_dir):
    cache = {}
    path = build_dir / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text().splitlines():
            m = re.match(r"([A-Za-z0-9_]+):[A-Z]+=(.*)", line)
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def host_facts(build_dir):
    cache = read_cmake_cache(build_dir)
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([cxx, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = cxx
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "compiler": compiler,
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE"),
        "pverify_simd": cache.get("PVERIFY_SIMD"),
        "pverify_multiarch": cache.get("PVERIFY_MULTIARCH"),
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else None,
        "source_sha256": source_digest(),
    }


# ------------------------------------------------------------------- run --

def run_workload(args, workload, trace, build_dir, out_dir):
    """Runs the driver for one workload; returns (driver JSON, exit code)."""
    mode = "traced" if trace == "1" else "untraced"
    result_path = out_dir / f"driver-{workload}-{mode}.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [str(build_dir / "pvbench_driver"), f"--workload={workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={trace}",
           f"--serve={build_dir / 'pverify' / 'pverify_serve'}",
           f"--out={out_dir}"]
    if args.smoke or args.check:
        cmd.append("--smoke")
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s", 1)
    if not result_path.exists():
        fail(f"{workload}: driver exited {code} without a result", 1)
    return json.loads(result_path.read_text()), code


def print_workload(workload, r):
    print(f"== {workload}  mode={r['mode']} seed={r['seed']} "
          f"correct={r['correct']} valid={r['valid']} "
          f"attempted={r['attempted']} failed={r['failed']} "
          f"error_rate={r['error_rate']:.6g} "
          f"answers_digest={r['answers_digest']} "
          f"kernel={r['kernel_flavor']}")
    host = r.get("host_speed")
    if host:
        print(f"  host reference {host['reference_ns']:.6g} ns/iteration "
              f"(scale {host['scale']:.4g}; raw = value / scale for times)")
    raw = r.get("raw_metrics", {})
    for title, metrics in (("", r["metrics"]),
                           ("  not gated:", r.get("extras", {}))):
        if title and metrics:
            print(title)
        for name, m in metrics.items():
            extra = f", p999={m['p999']:.6g}" if "p999" in m else ""
            if name in raw:
                extra += f", raw {raw[name]['value']:.6g}"
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} "
                  f"(n={m['samples']}{extra})")


def declared_metrics():
    bench = benchmark_spec()
    return {"0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in bench["per_layer"]}}


def check_names(results, trace, declared):
    """Problems with one mode's results: a declared metric missing or with
    another unit, or a reported name outside [A-Za-z0-9_.-]+."""
    problems = []
    for workload, r in results.items():
        for name in list(r["metrics"]) + list(r.get("extras", {})):
            if not NAME_RE.match(name):
                problems.append(f"{workload}: bad metric name {name!r}")
        for name, unit in (declared or {}).get(trace, {}).items():
            got = r["metrics"].get(name)
            if got is None:
                problems.append(f"{workload}: {name} missing")
            elif got["unit"] != unit:
                problems.append(f"{workload}: {name} unit {got['unit']} "
                                f"!= declared {unit}")
    return problems


def run_mode(args, trace, workloads, build_dir, out_dir):
    results, codes = {}, {}
    for w in workloads:
        results[w], codes[w] = run_workload(args, w, trace, build_dir,
                                            out_dir)
        print_workload(w, results[w])
    return results, codes


def summary_line(results, single):
    metrics = {}
    for w, r in results.items():
        for name, m in r["metrics"].items():
            key = name if single else f"{w}.{name}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(int(r["attempted"]) for r in results.values()),
        "failed": sum(int(r["failed"]) for r in results.values()),
        "metrics": metrics,
    })


def main(argv):
    args = parse_args(argv)
    build_dir = Path(args.build).resolve() if args.build \
        else ROOT / ".bench_build"
    out_dir = Path(args.out).resolve() if args.out \
        else build_dir / "pvbench-out"
    build(build_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    host = host_facts(build_dir)

    if args.check:
        declared = declared_metrics()
        problems, ok = [], True
        for trace in ("0", "1"):
            results, codes = run_mode(args, trace, workloads, build_dir,
                                      out_dir)
            problems += check_names(results, trace, declared)
            ok = ok and all(c == 0 for c in codes.values())
        for p in problems:
            print(f"pvbench check: {p}", file=sys.stderr)
        print("pvbench check: " + ("ok" if ok and not problems else "FAILED"))
        return 0 if ok and not problems else 1

    started = time.time()
    results, codes = run_mode(args, args.trace, workloads, build_dir, out_dir)
    mode = "traced" if args.trace == "1" else "untraced"
    results_path = Path(args.results) if args.results else \
        out_dir / f"results-{args.workload}-s{args.seed}-{mode}.json"
    results_path.write_text(json.dumps({
        "benchmark": "pvbench",
        "mode": mode,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "started_unix": started,
        "wall_s": time.time() - started,
        "host": host,
        "workloads": results,
    }, indent=1) + "\n")
    print(f"results: {results_path}")
    print(summary_line(results, len(workloads) == 1))
    return 0 if all(c == 0 for c in codes.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
