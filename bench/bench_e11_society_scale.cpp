// E11 (§1, §2.4): "programs involving many thousands of concurrent
// processes" — per-process overhead of the society at scale.
//
// Logical processes are frame-stack tasks, not OS threads, so a society
// of 16k processes must spawn, schedule, execute and retire on a fixed
// worker pool. Two shapes:
//   Emit:   P independent one-transaction processes (pure churn).
//   Blocked: P processes park on delayed transactions, then one commit
//            releases them all (park/wake machinery at scale).
#include <benchmark/benchmark.h>

#include "workloads.hpp"

namespace {

using namespace sdl;
using namespace sdl::bench;

void BM_SocietyEmit(benchmark::State& state) {
  const int processes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    RuntimeOptions o;
    o.scheduler.workers = 4;
    Runtime rt(o);
    ProcessDef def;
    def.name = "Emit";
    def.params = {"k"};
    def.body = seq({stmt(
        TxnBuilder().assert_tuple({lit(Value::atom("out")), evar("k")}).build())});
    rt.define(std::move(def));
    for (int p = 0; p < processes; ++p) rt.spawn("Emit", {Value(p)});
    const RunReport report = rt.run();
    if (report.completed != static_cast<std::size_t>(processes)) {
      state.SkipWithError("not all processes completed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * processes);
}

void BM_SocietyParkWakeAll(benchmark::State& state) {
  const int processes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    RuntimeOptions o;
    o.scheduler.workers = 4;
    Runtime rt(o);
    ProcessDef def;
    def.name = "Blocked";
    def.params = {"k"};
    // All waiters read (don't consume) the same broadcast tuple.
    def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                             .match(pat({A("go")}))
                             .assert_tuple({lit(Value::atom("woke")), evar("k")})
                             .build())});
    rt.define(std::move(def));
    for (int p = 0; p < processes; ++p) rt.spawn("Blocked", {Value(p)});
    // First run: everything parks.
    rt.run();
    // Release and drain.
    rt.seed(tup("go"));
    const RunReport report = rt.run();
    if (report.deadlocked()) {
      state.SkipWithError("waiters stuck");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * processes);
}

BENCHMARK(BM_SocietyEmit)->RangeMultiplier(4)->Range(1000, 16000)->Unit(benchmark::kMillisecond);
// The 10^5 row: the first run ends with every process parked, and its
// report explains each one — the row that shows whether that report
// stays linear in the society size.
BENCHMARK(BM_SocietyParkWakeAll)
    ->RangeMultiplier(4)
    ->Range(1000, 16000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
