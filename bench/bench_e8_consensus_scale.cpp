// E8 (§2.2): consensus detection at scale — "Determination that
// consensus has been reached is very similar to the quiescence detection
// problem."
//
// Workload: P processes split into C communities by view (community c
// imports only <c, *> tuples). Every process issues one consensus
// transaction. Detection latency, detection passes and nodes visited per
// fire are measured as P and C vary; each community should fire exactly
// once, independently, and the nodes a fire costs should follow the
// community's size (P / C), not the society's (P). The scheduler keeps 4
// worker threads at every P.
#include <benchmark/benchmark.h>

#include "workloads.hpp"

namespace {

using namespace sdl;
using namespace sdl::bench;

ProcessDef member_def() {
  ProcessDef def;
  def.name = "Member";
  def.params = {"c"};
  def.view.import(pat({V("c"), W()}));
  def.view.export_(pat({V("c"), W()}));
  def.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                           .match(pat({E(evar("c")), W()}))
                           .build())});
  return def;
}

void BM_ConsensusCommunities(benchmark::State& state) {
  const int processes = static_cast<int>(state.range(0));
  const int communities = static_cast<int>(state.range(1));
  std::uint64_t sweeps = 0;
  std::uint64_t fires = 0;
  std::uint64_t visited = 0;
  for (auto _ : state) {
    RuntimeOptions o;
    o.scheduler.workers = 4;
    Runtime rt(o);
    rt.define(member_def());
    for (int c = 0; c < communities; ++c) rt.seed(tup(c, 0));
    for (int p = 0; p < processes; ++p) {
      rt.spawn("Member", {Value(p % communities)});
    }
    const RunReport report = rt.run();
    if (!report.clean()) {
      state.SkipWithError("consensus did not fire");
      break;
    }
    if (rt.consensus().fires() != static_cast<std::uint64_t>(communities)) {
      state.SkipWithError("wrong number of consensus fires");
      break;
    }
    sweeps += rt.consensus().sweeps();
    fires += rt.consensus().fires();
    visited += rt.consensus().nodes_visited();
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["sweeps"] = benchmark::Counter(static_cast<double>(sweeps) / iters);
  state.counters["fires"] = benchmark::Counter(static_cast<double>(fires) / iters);
  state.counters["nodes_visited_per_fire"] = benchmark::Counter(
      fires == 0 ? 0.0 : static_cast<double>(visited) / static_cast<double>(fires));
  state.SetItemsProcessed(state.iterations() * processes);
}

BENCHMARK(BM_ConsensusCommunities)
    ->ArgsProduct({{16, 64, 256, 1024, 4096}, {1, 4, 16}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
