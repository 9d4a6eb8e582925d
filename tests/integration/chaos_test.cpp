// Chaos suite: the shipped paper programs run under deterministic fault
// injection at every point. Masked faults (delays, spurious wakes,
// budgeted transient commit failures) must leave the documented results
// exactly intact; fail-stop faults (kills) must end in a crash-safe
// report — no hang, no leaked subscriptions, no wedged constructs.
// ISSUE 2's acceptance gate: "with every point enabled, paper societies
// run to completion or a correctly-diagnosed RunReport".
// ISSUE 4 extends the suite with durability chaos: kills at the WAL
// append and snapshot write points across ≥64 deterministic seeds, with
// recovery required to reproduce exactly the acknowledged commit prefix
// (verified through the ISSUE 3 serializability checker).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>

#include "lang/compile.hpp"
#include "persist/recovery.hpp"
#include "sim/explore.hpp"

namespace sdl {
namespace {

Runtime make_runtime() {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  return Runtime(o);
}

std::string script(const char* name) {
  return std::string(SDL_EXAMPLES_DIR) + "/" + name;
}

void expect_dining_result(Runtime& rt) {
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rt.space().count(tup("sated", i)), 1u) << "philosopher " << i;
    EXPECT_EQ(rt.space().count(tup("chopstick", i)), 1u) << "chopstick " << i;
  }
}

void expect_bounded_buffer_result(Runtime& rt) {
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(rt.space().count(tup("consumed", i)), 1u) << "item " << i;
  }
  EXPECT_EQ(rt.space().count(tup("slot")), 3u) << "capacity restored";
}

/// Masked-fault run: the injected fault may reorder and slow everything,
/// but the program's documented output must be bit-for-bit intact.
void run_masked(const char* name, FaultPoint point, FaultAction action,
                std::uint32_t permille, std::uint64_t max_fires,
                std::uint64_t seed, void (*check)(Runtime&)) {
  Runtime rt = make_runtime();
  rt.enable_faults(seed).arm(point, action, permille, max_fires);
  lang::load_path(rt, script(name));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean())
      << name << " under " << fault_point_name(point) << "/"
      << fault_action_name(action) << ": "
      << (report.parked.empty()
              ? (report.timed_out.empty() ? "" : report.timed_out[0])
              : report.parked[0]);
  check(rt);
  EXPECT_EQ(rt.waits().subscriber_count(), 0u) << "leaked subscription";
  EXPECT_EQ(rt.scheduler().live_count(), 0u);
}

TEST(ChaosTest, DiningSurvivesEveryMaskedPoint) {
  std::uint64_t seed = 100;
  for (const FaultPoint point :
       {FaultPoint::EngineCommit, FaultPoint::WaitSetPublish,
        FaultPoint::WakeDeliver, FaultPoint::SchedulerDispatch}) {
    run_masked("dining.sdl", point, FaultAction::Delay, 300, 0, seed++,
               expect_dining_result);
  }
  run_masked("dining.sdl", FaultPoint::EngineCommit, FaultAction::FailCommit,
             250, 0, seed++, expect_dining_result);
  run_masked("dining.sdl", FaultPoint::WaitSetPublish,
             FaultAction::SpuriousWake, 400, 0, seed++, expect_dining_result);
}

TEST(ChaosTest, BoundedBufferSurvivesEveryMaskedPoint) {
  std::uint64_t seed = 200;
  for (const FaultPoint point :
       {FaultPoint::EngineCommit, FaultPoint::WaitSetPublish,
        FaultPoint::WakeDeliver, FaultPoint::SchedulerDispatch}) {
    run_masked("bounded_buffer.sdl", point, FaultAction::Delay, 300, 0, seed++,
               expect_bounded_buffer_result);
  }
  run_masked("bounded_buffer.sdl", FaultPoint::EngineCommit,
             FaultAction::FailCommit, 250, 0, seed++,
             expect_bounded_buffer_result);
  run_masked("bounded_buffer.sdl", FaultPoint::SchedulerDispatch,
             FaultAction::SpuriousWake, 300, 0, seed++,
             expect_bounded_buffer_result);
}

TEST(ChaosTest, ConsensusProgramSurvivesBudgetedAborts) {
  // sum1.sdl synchronizes phases with consensus barriers; budgeted claim
  // and commit aborts must only delay the fires, never corrupt the sum.
  std::uint64_t seed = 300;
  for (const FaultPoint point :
       {FaultPoint::ConsensusClaim, FaultPoint::ConsensusCommit}) {
    Runtime rt = make_runtime();
    rt.enable_faults(seed++).arm(point, FaultAction::FailCommit, 500, 6);
    lang::load_path(rt, script("sum1.sdl"));
    const RunReport report = rt.run();
    EXPECT_TRUE(report.clean()) << "point " << fault_point_name(point);
    EXPECT_EQ(
        rt.space().count(tup(8, 11 + 22 + 33 + 44 + 55 + 66 + 77 + 88)), 1u);
    EXPECT_GE(rt.consensus().fires(), 3u);
    EXPECT_EQ(rt.waits().subscriber_count(), 0u);
  }
}

TEST(ChaosTest, AllMaskedPointsArmedAtOnce) {
  // Everything at once: commit failures, publish delays, late wake
  // delivery, dispatch delays, spurious wakes, consensus aborts. Still
  // the exact documented result.
  Runtime rt = make_runtime();
  FaultInjector& f = rt.enable_faults(777);
  f.arm(FaultPoint::EngineCommit, FaultAction::FailCommit, 150, 0);
  f.arm(FaultPoint::WaitSetPublish, FaultAction::Delay, 200, 0);
  f.arm(FaultPoint::WakeDeliver, FaultAction::Delay, 200, 0);
  f.arm(FaultPoint::SchedulerDispatch, FaultAction::SpuriousWake, 200, 0);
  f.arm(FaultPoint::ConsensusClaim, FaultAction::FailCommit, 300, 4);
  f.arm(FaultPoint::ConsensusCommit, FaultAction::FailCommit, 300, 4);
  lang::load_path(rt, script("dining.sdl"));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean())
      << (report.parked.empty() ? "" : report.parked[0]);
  expect_dining_result(rt);
  EXPECT_EQ(rt.waits().subscriber_count(), 0u);
  EXPECT_GT(f.total_fired(), 0u) << "the storm must actually have fired";
}

TEST(ChaosTest, DispatchKillsEndInCrashSafeReport) {
  // Fail-stop chaos: random kills tear philosophers down mid-protocol.
  // The run may not produce dinner, but it must terminate, report every
  // kill, leak nothing, and never invent errors.
  for (const std::uint64_t seed : {401u, 402u, 403u}) {
    Runtime rt = make_runtime();
    rt.enable_faults(seed).arm(FaultPoint::SchedulerDispatch,
                               FaultAction::Kill, 60, 3);
    lang::load_path(rt, script("dining.sdl"));
    const RunReport report = rt.run();
    EXPECT_TRUE(report.errors.empty())
        << "seed " << seed << ": " << report.errors[0];
    EXPECT_EQ(report.killed.size(), rt.scheduler().total_killed());
    EXPECT_EQ(rt.scheduler().live_count(), 0u) << "seed " << seed;
    EXPECT_LE(rt.waits().subscriber_count(), report.still_parked)
        << "seed " << seed << ": dead process left a subscription";
    if (report.clean()) expect_dining_result(rt);
  }
}

TEST(ChaosTest, KillsPlusDeadlinesAlwaysConclude) {
  // A kill can strand survivors waiting for a dead peer's tuple — the
  // deadline layer must then conclude the run with diagnosed timeouts
  // rather than a quiescent-but-wedged report.
  for (const std::uint64_t seed : {501u, 502u}) {
    RuntimeOptions o;
    o.scheduler.workers = 4;
    o.scheduler.replication_width = 4;
    o.scheduler.delayed_txn_timeout_ms = 300;
    o.scheduler.consensus_timeout_ms = 300;
    Runtime rt(o);
    rt.enable_faults(seed).arm(FaultPoint::SchedulerDispatch,
                               FaultAction::Kill, 80, 4);
    lang::load_path(rt, script("bounded_buffer.sdl"));
    const RunReport report = rt.run();
    EXPECT_TRUE(report.errors.empty()) << "seed " << seed;
    EXPECT_EQ(report.still_parked, 0u)
        << "seed " << seed << ": parked past its deadline";
    EXPECT_EQ(rt.scheduler().live_count(), 0u);
    EXPECT_EQ(rt.waits().subscriber_count(), 0u);
    if (report.clean()) expect_bounded_buffer_result(rt);
  }
}

// ----------------------- deterministic-scheduler sweeps (ISSUE 3)
//
// The same chaos programs, re-run under the deterministic coordinator
// across 64 seeded schedules each, with the serializability checker
// armed. A failure here prints the reproducing seed and the minimized
// decision prefix (SweepResult::first_failure).

std::string classify_unclean(const RunReport& report) {
  if (report.clean()) return {};
  if (!report.errors.empty()) return "error: " + report.errors[0];
  if (!report.timed_out.empty()) return "timeout: " + report.timed_out[0];
  if (!report.parked.empty()) return "parked: " + report.parked[0];
  return "unclean report";
}

TEST(ChaosTest, DeterministicSweepDiningUnderCommitFaults) {
  // Masked transient commit failures under 64 deterministic schedules:
  // every seed must still produce dinner, serializably.
  const sim::BuildFn build = [](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    rt->enable_faults(static_cast<std::uint64_t>(seed) + 1)
        .arm(FaultPoint::EngineCommit, FaultAction::FailCommit, 250, 0);
    lang::load_path(*rt, script("dining.sdl"));
    rt->arm_log();
    return rt;
  };
  const sim::CheckFn check = [](Runtime& rt, const RunReport& report) {
    if (std::string bad = classify_unclean(report); !bad.empty()) return bad;
    for (int i = 0; i < 5; ++i) {
      if (rt.space().count(tup("sated", i)) != 1) {
        return "philosopher " + std::to_string(i) + " starved";
      }
    }
    if (rt.waits().subscriber_count() != 0) return std::string("leaked subscription");
    return std::string();
  };
  const sim::SweepResult r = sim::sweep_seeds(build, {.seeds = 64}, check);
  ASSERT_TRUE(r.ok()) << r.first_failure;
  EXPECT_GT(r.distinct_traces, 1u);
}

TEST(ChaosTest, DeterministicSweepBoundedBufferUnderSpuriousWakes) {
  const sim::BuildFn build = [](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    rt->enable_faults(static_cast<std::uint64_t>(seed) + 1)
        .arm(FaultPoint::WaitSetPublish, FaultAction::SpuriousWake, 400, 0);
    lang::load_path(*rt, script("bounded_buffer.sdl"));
    rt->arm_log();
    return rt;
  };
  const sim::CheckFn check = [](Runtime& rt, const RunReport& report) {
    if (std::string bad = classify_unclean(report); !bad.empty()) return bad;
    for (int i = 1; i <= 10; ++i) {
      if (rt.space().count(tup("consumed", i)) != 1) {
        return "item " + std::to_string(i) + " not consumed exactly once";
      }
    }
    if (rt.space().count(tup("slot")) != 3) return std::string("capacity lost");
    return std::string();
  };
  const sim::SweepResult r = sim::sweep_seeds(build, {.seeds = 64}, check);
  ASSERT_TRUE(r.ok()) << r.first_failure;
  EXPECT_GT(r.distinct_traces, 1u);
}

// ----------------------- durability chaos sweeps (ISSUE 4)
//
// The paper programs run with the WAL armed and a kill injected at a
// durability fault point, across 64 deterministic fault seeds each. The
// schedule is free-running, but the recovery invariants are
// schedule-independent: replay(dir) must end at EXACTLY the last
// acknowledged WAL sequence (no acked commit lost, no torn commit
// resurrected), the recovered state must pass the ISSUE 3 checker's
// final-state-equivalence proof, and a reopened runtime must load that
// state bit-for-bit.

namespace fs = std::filesystem;

struct DurableRun {
  std::uint64_t acked_last_seq = 0;
  std::uint64_t fault_fires = 0;
  bool wal_alive = true;
};

/// Runs `name` with durability into `dir` and one armed kill point, then
/// tears the runtime down (the "crash": only the directory survives).
DurableRun run_durable(const std::string& dir, const char* name,
                       std::uint64_t seed, FaultPoint point,
                       std::uint32_t permille, std::uint64_t snapshot_every) {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  o.persist.dir = dir;
  o.persist.snapshot_every = snapshot_every;
  Runtime rt(o);
  FaultInjector& f = rt.enable_faults(seed);
  f.arm(point, FaultAction::Kill, permille, 1);
  lang::load_path(rt, script(name));
  (void)rt.run();  // the society may finish or not; the disk is the truth
  DurableRun out;
  out.acked_last_seq = rt.persist()->stats().last_seq;
  out.fault_fires = f.total_fired();
  out.wal_alive = rt.persist()->wal_alive();
  return out;
}

/// Recovery invariants for one crashed directory.
void verify_durable_dir(const std::string& dir, std::uint64_t acked_last_seq,
                        std::uint64_t seed) {
  const persist::RecoveredState state = persist::replay(dir);
  ASSERT_EQ(state.last_seq, acked_last_seq)
      << "seed " << seed << ": recovery must end exactly at the last "
      << "acknowledged commit — earlier loses an acked commit, later "
      << "resurrects a torn one";
  const CheckReport report = persist::verify_recovery(state);
  ASSERT_TRUE(report.ok()) << "seed " << seed << ": " << report.to_string();

  // Reopen: the recovered state loads into a fresh runtime exactly.
  RuntimeOptions o;
  o.persist.dir = dir;
  Runtime rt(o);
  std::set<std::uint64_t> recovered;
  for (const auto& [id, t] : state.live) recovered.insert(id.bits());
  const std::vector<Record> loaded = rt.space().snapshot();
  ASSERT_EQ(loaded.size(), recovered.size()) << "seed " << seed;
  for (const Record& r : loaded) {
    ASSERT_TRUE(recovered.count(r.id.bits()))
        << "seed " << seed << ": reopened state holds an id recovery never saw";
  }
}

TEST(ChaosTest, KillDuringWalAppendRecoversAckedPrefixAcross64Seeds) {
  const std::string base = ::testing::TempDir() + "sdl_chaos_walkill";
  std::uint64_t total_fires = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const std::string dir = base + std::to_string(seed);
    fs::remove_all(dir);
    const DurableRun run =
        run_durable(dir, "dining.sdl", seed, FaultPoint::WalAppend,
                    /*permille=*/60, /*snapshot_every=*/0);
    total_fires += run.fault_fires;
    ASSERT_NO_FATAL_FAILURE(verify_durable_dir(dir, run.acked_last_seq, seed));
    fs::remove_all(dir);
  }
  EXPECT_GT(total_fires, 0u) << "the sweep must actually tear some appends";
}

TEST(ChaosTest, KillDuringSnapshotWriteRecoversAcross64Seeds) {
  // Snapshots every 4 commits, one of the writes killed: the WAL must
  // stay alive (no acked commit depends on the snapshot), recovery falls
  // back to an older chain, and nothing acknowledged is lost.
  const std::string base = ::testing::TempDir() + "sdl_chaos_snapkill";
  std::uint64_t total_fires = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const std::string dir = base + std::to_string(seed);
    fs::remove_all(dir);
    const DurableRun run =
        run_durable(dir, "bounded_buffer.sdl", seed, FaultPoint::SnapshotWrite,
                    /*permille=*/500, /*snapshot_every=*/4);
    total_fires += run.fault_fires;
    ASSERT_TRUE(run.wal_alive)
        << "seed " << seed << ": a crashed snapshot must never kill the WAL";
    ASSERT_NO_FATAL_FAILURE(verify_durable_dir(dir, run.acked_last_seq, seed));
    fs::remove_all(dir);
  }
  EXPECT_GT(total_fires, 0u) << "the sweep must actually tear some snapshots";
}

}  // namespace
}  // namespace sdl
