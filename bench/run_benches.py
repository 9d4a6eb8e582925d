#!/usr/bin/env python3
"""Runs the bench_e* experiments: a full sweep, or the regression gates.

Usage: bench/run_benches.py [--check] [--filter RE] [build-dir] [benchmark args...]
  bench/run_benches.py build --benchmark_min_time=0.05   # sweep -> BENCH_<date>.json
  bench/run_benches.py --check build                     # every gate in GATES
  bench/run_benches.py --check --filter 'e1[35]' build   # only matching benches

The sweep runs every built bench_e* binary, in experiment order, and writes
BENCH_<date>.json: one object mapping bench name to Google Benchmark's own
JSON report (or {"error": ...}), so each change leaves a machine-readable
perf trajectory.

--check runs each gate in GATES and exits 1 if any check fails. Per gate:
  * the bench must be built, run cleanly and print JSON;
  * a gate with a baseline needs it committed, and its rows must match the
    current rows both ways (a lost row or a new row both fail);
  * error rows, required columns and exact invariants fail outright;
  * the absolute band: a row's metric may not be worse than the baseline by
    more than SDL_BENCH_TOLERANCE (default 0.5, i.e. a 50% band). It applies
    only when the baseline's host fingerprint (Google Benchmark's context:
    num_cpus, mhz_per_cpu, caches) equals this run's; otherwise it prints
    SKIPPED (host mismatch ...);
  * the self-relative ratio gates, which hold on any host. A ratio gate that
    needs more cores than the run's context.num_cpus prints SKIPPED.
A gate excluded by --filter prints SKIPPED: a filtered or skipped check is
visibly partial, never silently green.
"""
import datetime
import glob
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Ratio:
    """Self-relative gate: `col` on every current row matching `rows` (divided
    by `col` on row `over`, if given) must be >= `floor`.

    `cores` = (lo, extra) gates only rows whose first argument a has a >= lo
    and a + extra <= nproc: below that the row cannot show parallelism.
    `required` fails the gate when no row matches."""
    rows: str
    col: str
    floor: float
    why: str
    over: str | None = None
    cores: tuple[int, int] | None = None
    required: bool = False


@dataclass(frozen=True)
class Gate:
    bench: str
    baseline: str | None = None          # file under bench/, or no baseline
    band: tuple[str, bool] | None = None  # (metric, higher is better)
    columns: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (rows, cols)
    equal: tuple[tuple[str, str], ...] = ()  # exact invariants a == b
    ratios: tuple[Ratio, ...] = ()


E20_2X = r"/200(/|$)"  # offered load at 200% of saturation
FOLLOWERS = r"/[1-9]"  # E21 rows with followers attached

# The gates, in run order. E13's columns are ablations (its naive full scan
# is bimodal under cache pressure), so its signal is the ratio, not a band.
GATES = (
    Gate("bench_e15_read_mostly", "BENCH_e15_baseline.json",
         band=("ops_per_sec", True),
         columns=(("Sharded", ("scaling_eff", "vs_global_t1")),),
         # Read-only transactions never publish.
         equal=(("version", "writes"),),
         # T threads need T cores.
         ratios=(Ratio("Sharded", "scaling_eff", 0.25, cores=(2, 0),
                       why="sharded engine stopped scaling"),)),
    Gate("bench_e20_overload",
         columns=((E20_2X, ("goodput_vs_peak", "sheds_total")),),
         ratios=(Ratio(E20_2X, "goodput_vs_peak", 0.7, required=True,
                       why="degradation curve is a cliff, not a plateau"),
                 Ratio(E20_2X, "sheds_total", 1, required=True,
                       why="admission never shed at 2x, plateau untested"))),
    Gate("bench_e13_planner", "BENCH_e13_baseline.json",
         ratios=(Ratio("^BM_GuardHeavyInterpreted/16384$", "real_time", 2.0,
                       over="BM_GuardHeavyCompiled/16384", required=True,
                       why="compiled tier lost its lead"),)),
    Gate("bench_e5_dataspace", "BENCH_e5_baseline.json",
         band=("real_time", False)),
    Gate("bench_e21_replication", "BENCH_e21_baseline.json",
         band=("real_time", False),
         columns=(("", ("ops_per_sec", "lag_records", "lag_ms", "applied")),
                  (FOLLOWERS, ("vs_0f",))),
         # F followers need F cores beside the leader's.
         ratios=(Ratio(FOLLOWERS, "applied", 1, why="replication never ran"),
                 Ratio(FOLLOWERS, "vs_0f", 0.90, cores=(1, 1),
                       why="shipping is on the commit path"))),
)


def rows(doc):
    return {b["name"]: b for b in doc.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"}


def fingerprint(doc):
    c = doc.get("context", {})
    return (c.get("num_cpus"), c.get("mhz_per_cpu"),
            tuple(sorted(json.dumps(x, sort_keys=True)
                         for x in c.get("caches", []))))


def describe(doc):
    c = doc.get("context", {})
    caches = "/".join(f"L{x.get('level')}{x.get('type', '?')[0]}"
                      f"={x.get('size', 0) // 1024}K"
                      for x in c.get("caches", []))
    return (f"num_cpus={c.get('num_cpus')} mhz={c.get('mhz_per_cpu')} "
            f"caches={caches or '?'}")


def first_arg(name):
    m = re.search(r"/(\d+)", name)
    return int(m.group(1)) if m else None


def check_ratio(r, cur, nproc, out):
    hits = {n: row for n, row in cur.items() if re.search(r.rows, n)}
    label = f"{r.col} / {r.over}" if r.over else r.col
    fits = gated = 0
    for name, row in sorted(hits.items()):
        if r.cores:
            a = first_arg(name)
            if a is None:
                out.append(f"FAIL: {name}: no thread/follower argument")
                continue
            if a < r.cores[0] or a + r.cores[1] > nproc:
                continue
        fits += 1
        if r.col not in row:
            continue  # a required column: reported by the column check
        value = row[r.col]
        if r.over:
            if r.over not in cur:
                out.append(f"FAIL: {r.over}: row missing, {label} cannot run")
                return
            value /= max(cur[r.over][r.col], 1e-9)
        gated += 1
        if value < r.floor:
            out.append(f"FAIL: {name}: {label} {value:.3f} below gate "
                       f"{r.floor:g} ({r.why})")
    if r.required and not hits:
        out.append(f"FAIL: no row matches '{r.rows}', {label} gate cannot run")
    elif hits and not fits:
        out.append(f"SKIPPED: {label} >= {r.floor:g} (nproc={nproc}: no row "
                   "has the cores it needs, its threads would time-share)")
    else:
        out.append(f"{label} >= {r.floor:g}: {gated} rows checked "
                   f"(nproc={nproc})")


def compare(gate, cur_doc, base_doc, tol):
    """The checks of one gate on a parsed current run and (optional) parsed
    baseline. Returns (status, report lines); status 1 means a FAIL line."""
    out = []
    cur = rows(cur_doc)
    nproc = cur_doc.get("context", {}).get("num_cpus", 1)
    if base_doc is not None:
        base = rows(base_doc)
        for name in sorted(set(cur) - set(base)):
            out.append(f"FAIL: {name}: row not in committed baseline; "
                       f"regenerate bench/{gate.baseline} to cover it")
        for name in sorted(set(base) - set(cur)):
            out.append(f"FAIL: {name}: row missing from current run")
    for name, row in sorted(cur.items()):
        if row.get("error_occurred"):
            out.append(f"FAIL: {name}: {row.get('error_message', 'bench error')}")
    cur = {n: row for n, row in cur.items() if not row.get("error_occurred")}
    for name, row in sorted(cur.items()):
        for pattern, cols in gate.columns:
            if re.search(pattern, name):
                out.extend(f"FAIL: {name}: column '{c}' missing"
                           for c in cols if c not in row)
        for a, b in gate.equal:
            if row.get(a) != row.get(b):
                out.append(f"FAIL: {name}: {a} {row.get(a)} != {b} {row.get(b)}")
    if gate.band and base_doc is not None:
        if fingerprint(base_doc) != fingerprint(cur_doc):
            out.append(f"SKIPPED: {gate.band[0]} band (host mismatch: baseline "
                       f"{describe(base_doc)}, this host {describe(cur_doc)})")
        else:
            out.extend(check_band(gate, base, cur, tol))
    for r in gate.ratios:
        check_ratio(r, cur, nproc, out)
    return int(any(line.startswith("FAIL") for line in out)), out


def check_band(gate, base, cur, tol):
    col, higher = gate.band
    out = []
    for name in sorted(set(base) & set(cur)):
        b, c = base[name].get(col), cur[name].get(col)
        if not b or not c:
            continue
        r = c / b
        worse, better = ((r < 1.0 - tol, r > 1.0 + tol) if higher
                         else (r > 1.0 + tol, r < 1.0 - tol))
        if worse:
            out.append(f"FAIL: {name}: {col} {'fell' if higher else 'grew'} to "
                       f"{r:.2f}x of baseline ({c:.2f} vs {b:.2f}, band "
                       f"{1.0 - tol if higher else 1.0 + tol:.2f})")
        elif better:
            out.append(f"note: {name}: {r if higher else 1.0 / r:.2f}x faster "
                       f"than baseline; consider refreshing bench/{gate.baseline}")
    out.append(f"{col} band ±{tol * 100:.0f}%: {len(set(base) & set(cur))} "
               "rows compared")
    return out


def parse(text, what):
    """(parsed JSON, None) or (None, why it failed)."""
    try:
        return json.loads(text), None
    except ValueError as e:
        return None, f"{what} is not readable JSON ({e})"


def run_bench(binary, args):
    print(f"running {os.path.basename(binary)} ...", file=sys.stderr)
    p = subprocess.run([binary, "--benchmark_format=json", *args],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        return None, f"exited {p.returncode}"
    return parse(p.stdout, "its output")


def wanted(name, pattern, what):
    if pattern and not re.search(pattern, name):
        print(f"SKIPPED: {name}{what} (excluded by --filter '{pattern}')")
        return False
    return True


def check(build_dir, pattern, args):
    tol = float(os.environ.get("SDL_BENCH_TOLERANCE", "0.5"))
    status = 0
    for gate in GATES:
        if not wanted(gate.bench, pattern, " gate"):
            continue
        print(f"== {gate.bench}")
        binary = os.path.join(build_dir, "bench", gate.bench)
        baseline = gate.baseline and os.path.join(HERE, gate.baseline)
        cur, base, err = None, None, None
        if not os.access(binary, os.X_OK):
            err = f"{binary} not built, the gate cannot run"
        elif baseline and not os.path.isfile(baseline):
            err = (f"{gate.bench} is built but {baseline} is not committed; "
                   f"generate it with: {binary} --benchmark_format=json > "
                   f"{baseline}")
        elif baseline:
            with open(baseline) as f:
                base, err = parse(f.read(), baseline)
        if not err:
            cur, err = run_bench(binary, args)
        if err:
            gate_status, lines = 1, [f"FAIL: {gate.bench}: {err}"]
        else:
            gate_status, lines = compare(gate, cur, base, tol)
        print("\n".join(lines))
        print(f"{gate.bench}: {'FAIL' if gate_status else 'pass'}")
        status |= gate_status
    return status


def sweep(build_dir, pattern, args):
    found = {}
    for path in glob.glob(os.path.join(build_dir, "bench", "bench_e*")):
        m = re.match(r"bench_e(\d+)_", os.path.basename(path))
        if m and os.path.isfile(path) and os.access(path, os.X_OK):
            found[path] = int(m.group(1))
    binaries = [p for p in sorted(found, key=found.get)
                if wanted(os.path.basename(p), pattern, "")]
    if not binaries:
        print(f"error: no bench_e* binaries under {build_dir}/bench", file=sys.stderr)
        return 1
    results = {}
    for binary in binaries:
        doc, err = run_bench(binary, args)
        results[os.path.basename(binary)] = doc if err is None else {"error": err}
    out = f"BENCH_{datetime.date.today():%Y%m%d}.json"
    with open(out, "w") as f:
        json.dump({"generated": datetime.datetime.now(datetime.timezone.utc)
                   .strftime("%Y-%m-%dT%H:%M:%SZ"),
                   "host_nproc": os.cpu_count(), "results": results}, f, indent=1)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def main(argv):
    check_mode, pattern = False, ""
    while argv and argv[0] in ("--check", "--filter"):
        if argv[0] == "--check":
            check_mode, argv = True, argv[1:]
        elif len(argv) < 2:
            sys.exit("error: --filter needs a regex argument")
        else:
            pattern, argv = argv[1], argv[2:]
    build_dir, args = (argv[0], argv[1:]) if argv else ("build", [])
    if not os.path.isdir(os.path.join(build_dir, "bench")):
        sys.exit(f"error: '{build_dir}/bench' not found; build first:\n"
                 f"  cmake -B {build_dir} -S . && cmake --build {build_dir} -j")
    return (check if check_mode else sweep)(build_dir, pattern, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
