// E21: the price of replication (this PR's tentpole).
//
// Claim under test: WAL shipping is off the commit path. The leader's
// tailer reads durable bytes from the segment files and streams them to
// follower sessions on their own threads — a committer never waits on a
// follower (only the explicit max_lag_bytes backpressure dial couples
// them, and it is off here). So leader commit throughput with followers
// attached must stay within 10% of the same runtime with replication
// off (run_benches.py --check).
//
// Shape: the E5/E18 read-modify-write commit (∃x : <job,x>! → (job,x+1)),
// durability on at fsync_every=8 (the group-commit dial), arg0 = number
// of loopback followers (0 = replication off, the reference row).
//
// Reported per row:
//   * ops_per_sec  — leader commit rate from our own wall clock;
//   * vs_0f        — rate relative to the 0-follower row (the gate input);
//   * lag_records  — shippable_seq minus the slowest follower's applied
//                    watermark at the instant the timed section ended;
//   * lag_ms       — how long that follower took to drain to the leader's
//                    final durable watermark after the last commit;
//   * applied      — commits applied by all followers (sanity: replication
//                    actually ran; never 0 when followers > 0).
//
// Follower runtimes here skip their own WAL (persist off) so the row
// isolates shipping+apply cost; the repl tests cover re-logging.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "process/runtime.hpp"
#include "repl/repl.hpp"
#include "workloads.hpp"

namespace {

using namespace sdl;
namespace fs = std::filesystem;

constexpr int kCommitsPerIter = 2000;

struct CommitWorkload {
  SymbolTable st;
  Env env;
  Transaction txn;

  CommitWorkload() {
    txn = TxnBuilder()
              .exists({"x"})
              .match(pat({A("job"), V("x")}), /*retract=*/true)
              .assert_tuple({lit(Value::atom("job")), add(evar("x"), lit(1))})
              .build();
    txn.resolve(st);
    env.resize(static_cast<std::size_t>(st.size()));
  }
};

// 0-follower reference rate, recorded before the follower rows run
// (registration order guarantees it; absent under --benchmark_filter the
// derived column is simply omitted, the E15 registry discipline).
std::map<int, double>& rate_registry() {
  static std::map<int, double> registry;
  return registry;
}

void BM_ReplicatedCommit(benchmark::State& state) {
  const int followers = static_cast<int>(state.range(0));
  const std::string dir = fs::temp_directory_path().string() +
                          "/sdl_e21_leader_" + std::to_string(followers);
  fs::remove_all(dir);

  RuntimeOptions lo;
  lo.persist.dir = dir;
  lo.persist.fsync_every = 8;
  if (followers > 0) {
    lo.repl.role = repl::Role::Leader;
    lo.repl.node_id = 1;
    lo.repl.poll_interval_ms = 1;
  }
  Runtime leader(lo);
  leader.seed(tup("job", 0));

  std::vector<std::unique_ptr<Runtime>> replicas;
  for (int i = 0; i < followers; ++i) {
    RuntimeOptions fo;
    fo.repl.role = repl::Role::Follower;
    fo.repl.node_id = static_cast<std::uint64_t>(2 + i);
    fo.repl.poll_interval_ms = 1;
    replicas.push_back(std::make_unique<Runtime>(fo));
    auto [a, b] = repl::make_loopback_pair();
    leader.repl_leader()->add_follower(std::move(a));
    replicas.back()->repl_follower()->attach(std::move(b));
  }

  CommitWorkload w;
  // Warm-up: allocator, WAL segment prealloc, session handshakes.
  for (int i = 0; i < 256; ++i) {
    benchmark::DoNotOptimize(leader.execute(w.txn, w.env).success);
  }

  double busy_seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kCommitsPerIter; ++i) {
      benchmark::DoNotOptimize(leader.execute(w.txn, w.env).success);
    }
    busy_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }

  // Lag at the instant the timed section ended, then the drain time to
  // the final durable watermark (both 0 by construction for 0 followers).
  std::uint64_t lag_records = 0;
  double lag_ms = 0.0;
  std::uint64_t applied = 0;
  if (followers > 0) {
    const std::uint64_t shipped = leader.persist()->shippable_seq();
    std::uint64_t min_applied = shipped;
    for (const auto& r : replicas) {
      min_applied = std::min(min_applied, r->repl_follower()->applied_seq());
    }
    lag_records = shipped - min_applied;

    leader.persist()->sync();  // flush the group-commit tail
    const std::uint64_t target = leader.persist()->shippable_seq();
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline = t0 + std::chrono::seconds(30);
    for (const auto& r : replicas) {
      while (r->repl_follower()->applied_seq() < target &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    lag_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
    for (const auto& r : replicas) {
      const repl::ReplFollowerStats s = r->repl_follower()->stats();
      applied += s.applied_commits;
      if (s.applied_seq < target) {
        state.SkipWithError("follower failed to drain to the leader");
      }
      if (s.missing_retracts != 0) {
        state.SkipWithError("follower diverged (missing retracts)");
      }
    }
  }

  state.SetItemsProcessed(state.iterations() * kCommitsPerIter);
  const double ops = static_cast<double>(state.iterations()) * kCommitsPerIter;
  const double rate = busy_seconds > 0.0 ? ops / busy_seconds : 0.0;
  rate_registry()[followers] = rate;
  state.counters["ops_per_sec"] = rate;
  state.counters["lag_records"] = static_cast<double>(lag_records);
  state.counters["lag_ms"] = lag_ms;
  state.counters["applied"] = static_cast<double>(applied);
  if (followers > 0) {
    if (const auto base = rate_registry().find(0);
        base != rate_registry().end() && base->second > 0.0) {
      state.counters["vs_0f"] = rate / base->second;
    }
  }

  replicas.clear();
  fs::remove_all(dir);
}

BENCHMARK(BM_ReplicatedCommit)
    ->Arg(0)  // replication off: the reference row
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
