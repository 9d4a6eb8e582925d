#!/usr/bin/env python3
"""End-to-end benchmark of the SDL runtime.

Builds the sdl_perfbench binary (perfbench/CMakeLists.txt, which compiles
the SDL libraries from ../src) in an optimised build, runs one seeded workload
and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Earlier lines carry the host
fingerprint and a readable table of the same metrics.

    python3 perfbench/run.py --workload sort_views --seed 1 --trace 0
    python3 perfbench/run.py --self-test

--seconds defaults to BENCHMARK.json's run_seconds. The measured run must
end within --seconds plus RUN_MARGIN_S (set-up, drains, the last
repetition); the build before it has no time limit.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; scratch files (WAL directories, span dumps) go to a
per-run directory inside it that is removed when the run ends. The span
dump of a traced run is kept in perfbench-spans/ beside it.
"""

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["sort_views", "sum3_replicated", "kv_durable"]
BUILD_TYPE = "RelWithDebInfo"  # sdl_perfbench refuses an unoptimised build
RUN_MARGIN_S = 60  # allowed beyond --seconds for one measured run


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configures (once) and builds sdl_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("SDL sources (src/CMakeLists.txt) not found")
    cache = bdir / "CMakeCache.txt"
    if cache.is_file():
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
        if not m or m.group(1) != BUILD_TYPE:
            shutil.rmtree(bdir)
    if not cache.is_file():
        run_build(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    run_build(["cmake", "--build", str(bdir), "--target", "sdl_perfbench",
               "-j", str(os.cpu_count() or 1)])
    return bdir / "sdl_perfbench"


def run_build(cmd):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        log(p.stdout[-4000:])
        raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def read_file(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def host_fingerprint(build_info):
    cpuinfo = read_file("/proc/cpuinfo")
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    mhz = re.search(r"^cpu MHz\s*:\s*(.*)$", cpuinfo, re.M)
    l3 = ""
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    if cache_dir.is_dir():
        for idx in sorted(cache_dir.glob("index*")):
            if read_file(idx / "level").strip() == "3":
                l3 = read_file(idx / "size").strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model.group(1).strip() if model else platform.processor(),
        "l3": l3,
        "mhz": float(mhz.group(1)) if mhz else None,
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("type"),
        "kernel": platform.release(),
    }


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(trace):
    spec = benchmark_spec()
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_bench(binary, workload, seed, seconds, trace, work, extra=()):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work), *extra]
    timeout = seconds + RUN_MARGIN_S
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"sdl_perfbench did not finish within {timeout:g} s "
                           f"(--seconds {seconds:g} + {RUN_MARGIN_S} s)")
    if p.stderr:
        log(p.stderr.rstrip())
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"sdl_perfbench exited with {p.returncode}")
    return json.loads(lines[-1])


def measure(args):
    broot = build_root()
    binary = build(broot / "perfbench")
    work = (broot / "perfbench-work"
            / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        res = run_bench(binary, args.workload, args.seed, args.seconds,
                        args.trace, work)
        spans = work / f"spans-{args.workload}-{args.seed}.json"
        if spans.is_file():
            kept = broot / "perfbench-spans"
            kept.mkdir(parents=True, exist_ok=True)
            shutil.copy(spans, kept / spans.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = expected_metrics(args.trace)
    if sorted(res["metrics"]) != sorted(names):
        raise RuntimeError(f"metrics {sorted(res['metrics'])} "
                           f"do not match BENCHMARK.json {sorted(names)}")
    print("# host " + json.dumps(host_fingerprint(res["build"])))
    print(f"# workload {args.workload} seed {args.seed} "
          f"trace {int(args.trace)} seconds {args.seconds}")
    for name in names:
        m = res["metrics"][name]
        print(f"#   {name:36s} {m['value']:>16.6g} {m['unit']}")
    out = {k: res[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = {n: res["metrics"][n] for n in names}
    print(json.dumps(out), flush=True)
    return 0


def self_test():
    """A deliberately wrong expected value must show as failed operations."""
    broot = build_root()
    binary = build(broot / "perfbench")
    ok = True
    for w in WORKLOADS:
        work = broot / "perfbench-work" / f"selftest-{w}-{os.getpid()}"
        try:
            good = run_bench(binary, w, 7, 0.1, False, work)
            bad = run_bench(binary, w, 7, 0.1, False, work,
                            ["--wrong-expect"])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        passed = (good["correct"] and good["failed"] == 0
                  and not bad["correct"] and bad["attempted"] > 0
                  and bad["failed"] == bad["attempted"])
        ok = ok and passed
        print(f"{w:16s} right expectation: correct={good['correct']} "
              f"failed={good['failed']}; wrong expectation: "
              f"correct={bad['correct']} failed={bad['failed']}/"
              f"{bad['attempted']} -> {'ok' if passed else 'FAIL'}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured time (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that a wrong expected value fails the run")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        if args.seconds is None:
            args.seconds = float(benchmark_spec()["run_seconds"])
        if args.seconds <= 0:
            ap.error("--seconds must be positive")
        return measure(args)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
