// E17 (deterministic simulation): cost and coverage of the schedule
// machinery from ISSUE 3.
//
// Three questions:
//   1. Sweep throughput and coverage — deterministic runs (seeds) per
//      second over a contended-counter society, and how many *distinct*
//      interleavings a block of seeds actually buys (distinct trace
//      hashes per 1k seeds, reported as a counter).
//   2. Checker overhead — the same threaded society with the event log
//      armed + serializability replay on vs off; the delta is what
//      `arm_log()` costs a test suite.
//   3. Exploration rate — schedules per second of the exhaustive DFS on
//      a small society, with the DPOR-lite pruning ratio as a counter.
#include <benchmark/benchmark.h>

#include <memory>

#include "sim/explore.hpp"

namespace {

using namespace sdl;

ProcessDef incrementer_def() {
  ProcessDef def;
  def.name = "Inc";
  def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .exists({"x"})
                           .match(pat({A("c"), V("x")}), true)
                           .assert_tuple({lit(Value::atom("c")),
                                          add(evar("x"), lit(1))})
                           .build())});
  return def;
}

sim::BuildFn counter_society(int procs, bool history) {
  return [procs, history](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    rt->seed(tup("c", 0));
    rt->define(incrementer_def());
    for (int i = 0; i < procs; ++i) rt->spawn("Inc");
    if (history) rt->arm_log();
    return rt;
  };
}

/// Seeds/s of the sweep driver; range(0) toggles the serializability
/// checker. counters: distinct interleavings per 1k seeds.
void BM_SeedSweep(benchmark::State& state) {
  const bool with_checker = state.range(0) != 0;
  state.SetLabel(with_checker ? "checker-on" : "checker-off");
  constexpr std::size_t kSeedsPerIter = 64;
  const sim::BuildFn build = counter_society(8, with_checker);
  std::uint64_t first_seed = 0;
  std::uint64_t distinct = 0;
  std::uint64_t runs = 0;

  for (auto _ : state) {
    sim::SweepOptions opts;
    opts.seeds = kSeedsPerIter;
    opts.first_seed = first_seed;
    opts.check_serializability = with_checker;
    const sim::SweepResult r = sim::sweep_seeds(build, opts);
    if (!r.ok()) {
      state.SkipWithError("sweep found a violation in a correct program");
      break;
    }
    first_seed += kSeedsPerIter;
    distinct += r.distinct_traces;
    runs += r.runs;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
  if (runs > 0) {
    state.counters["distinct_per_1k_seeds"] = benchmark::Counter(
        1000.0 * static_cast<double>(distinct) / static_cast<double>(runs));
  }
}

/// Threaded (non-deterministic) society with history recording and the
/// final serializability replay on vs off — the checker's price.
void BM_CheckerOverheadThreaded(benchmark::State& state) {
  const bool with_checker = state.range(0) != 0;
  state.SetLabel(with_checker ? "history+check" : "baseline");
  constexpr int kProcs = 48;
  std::uint64_t commits_checked = 0;

  for (auto _ : state) {
    state.PauseTiming();
    RuntimeOptions o;
    o.scheduler.workers = 4;
    Runtime rt(o);
    rt.seed(tup("c", 0));
    rt.define(incrementer_def());
    for (int i = 0; i < kProcs; ++i) rt.spawn("Inc");
    if (with_checker) rt.arm_log();
    state.ResumeTiming();

    const RunReport report = rt.run();
    CheckReport check;
    if (with_checker) check = rt.check_history();

    state.PauseTiming();
    if (!report.clean() || !check.ok() ||
        rt.space().count(tup("c", kProcs)) != 1) {
      state.SkipWithError("correct program failed under instrumentation");
      state.ResumeTiming();
      break;
    }
    commits_checked += check.commits_checked;
    state.ResumeTiming();
  }

  state.SetItemsProcessed(state.iterations() * kProcs);
  state.counters["commits_checked"] =
      benchmark::Counter(static_cast<double>(commits_checked));
}

/// Exhaustive DFS rate on a small society; range(0) toggles pruning.
void BM_ExploreSchedules(benchmark::State& state) {
  const bool prune = state.range(0) != 0;
  state.SetLabel(prune ? "dpor-pruned" : "full-dfs");
  const sim::BuildFn build = counter_society(3, true);
  std::uint64_t schedules = 0;
  std::uint64_t pruned = 0;

  for (auto _ : state) {
    sim::ExploreOptions opts;
    opts.prune_commuting = prune;
    opts.max_schedules = 512;
    const sim::ExploreResult r = sim::explore_schedules(build, opts);
    if (!r.ok()) {
      state.SkipWithError("explorer found a violation in a correct program");
      break;
    }
    schedules += r.schedules_run;
    pruned += r.schedules_pruned;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(schedules));
  state.counters["schedules_pruned"] =
      benchmark::Counter(static_cast<double>(pruned));
}

}  // namespace

BENCHMARK(BM_SeedSweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CheckerOverheadThreaded)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_ExploreSchedules)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
