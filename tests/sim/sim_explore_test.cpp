// Exhaustive small-bound schedule exploration (ISSUE 3 tentpole): the
// DFS must drain every non-equivalent interleaving of a small society,
// the DPOR-lite commutation pruning must cut schedules without losing
// outcomes, and a recorded failing schedule must replay exactly.
#include <gtest/gtest.h>

#include <memory>

#include "sim/explore.hpp"

namespace sdl {
namespace {

/// Two processes touching disjoint buckets — every interleaving is
/// equivalent, the pruner's best case.
sim::BuildFn independent_pair() {
  return [](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    ProcessDef a;
    a.name = "AssertA";
    a.body = seq({stmt(TxnBuilder().assert_tuple({lit(Value::atom("a"))}).build()),
                  stmt(TxnBuilder().assert_tuple({lit(Value::atom("a2"))}).build())});
    ProcessDef b;
    b.name = "AssertB";
    b.body = seq({stmt(TxnBuilder().assert_tuple({lit(Value::atom("b"))}).build()),
                  stmt(TxnBuilder().assert_tuple({lit(Value::atom("b2"))}).build())});
    rt->define(std::move(a));
    rt->define(std::move(b));
    rt->spawn("AssertA");
    rt->spawn("AssertB");
    rt->arm_log();
    return rt;
  };
}

/// Two processes racing to consume the single token; the loser parks
/// forever (reported, not an error). Which banner appears is decided
/// purely by the schedule.
sim::BuildFn token_race() {
  return [](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    rt->seed(tup("token"));
    ProcessDef a;
    a.name = "TakerA";
    a.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("token")}), true)
                           .assert_tuple({lit(Value::atom("a_won"))})
                           .build())});
    ProcessDef b;
    b.name = "TakerB";
    b.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("token")}), true)
                           .assert_tuple({lit(Value::atom("b_won"))})
                           .build())});
    rt->define(std::move(a));
    rt->define(std::move(b));
    rt->spawn("TakerA");
    rt->spawn("TakerB");
    rt->arm_log();
    return rt;
  };
}

TEST(SimExploreTest, ExhaustsIndependentPairAndPrunes) {
  sim::ExploreOptions with_pruning;
  const sim::ExploreResult pruned =
      sim::explore_schedules(independent_pair(), with_pruning);
  EXPECT_TRUE(pruned.exhausted);
  EXPECT_TRUE(pruned.ok()) << pruned.first_failure;
  EXPECT_GT(pruned.schedules_run, 0u);
  EXPECT_GT(pruned.schedules_pruned, 0u)
      << "disjoint-bucket steps must be recognized as commuting";

  sim::ExploreOptions no_pruning;
  no_pruning.prune_commuting = false;
  const sim::ExploreResult full =
      sim::explore_schedules(independent_pair(), no_pruning);
  EXPECT_TRUE(full.exhausted);
  EXPECT_TRUE(full.ok()) << full.first_failure;
  EXPECT_LT(pruned.schedules_run, full.schedules_run)
      << "pruning must actually reduce the schedule count";
}

TEST(SimExploreTest, FindsBothOutcomesOfOrderDependentRace) {
  // An invariant that holds only when TakerA wins: exploration must find
  // the schedule that breaks it AND schedules that keep it.
  const sim::CheckFn a_must_win = [](Runtime& rt, const RunReport&) {
    if (rt.space().count(tup("b_won")) != 0) return std::string("B took the token");
    return std::string();
  };
  const sim::ExploreResult r =
      sim::explore_schedules(token_race(), {}, a_must_win);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.failures, 0u) << "the B-wins schedule was never explored";
  EXPECT_LT(r.failures, r.schedules_run) << "the A-wins schedule vanished";
  EXPECT_NE(r.first_failure.find("B took the token"), std::string::npos)
      << r.first_failure;
  EXPECT_NE(r.first_failure.find("schedule:"), std::string::npos)
      << r.first_failure;
  EXPECT_FALSE(r.failing_choices.empty());

  // The recorded failing schedule replays to the same outcome, and the
  // run itself is serializable (losing a race is not an anomaly).
  const sim::ReplayResult replay =
      sim::replay_trace(token_race(), r.failing_choices);
  EXPECT_EQ(replay.report.errors.size(), 0u);
  EXPECT_TRUE(replay.check.ok()) << replay.check.to_string();
}

TEST(SimExploreTest, RaceStaysSerializableUnderEverySchedule) {
  // Without the program-level invariant the explorer finds nothing: both
  // orders are valid serial executions.
  const sim::ExploreResult r = sim::explore_schedules(token_race());
  EXPECT_TRUE(r.exhausted);
  EXPECT_TRUE(r.ok()) << r.first_failure;
}

TEST(SimExploreTest, PruningPreservesDetectedOutcomes) {
  const sim::CheckFn a_must_win = [](Runtime& rt, const RunReport&) {
    if (rt.space().count(tup("b_won")) != 0) return std::string("B took the token");
    return std::string();
  };
  sim::ExploreOptions no_pruning;
  no_pruning.prune_commuting = false;
  const sim::ExploreResult full =
      sim::explore_schedules(token_race(), no_pruning, a_must_win);
  const sim::ExploreResult pruned =
      sim::explore_schedules(token_race(), {}, a_must_win);
  EXPECT_TRUE(full.exhausted);
  EXPECT_TRUE(pruned.exhausted);
  EXPECT_GT(full.failures, 0u);
  EXPECT_GT(pruned.failures, 0u)
      << "pruning dropped the only failing interleaving";
  EXPECT_LE(pruned.schedules_run, full.schedules_run);
}

TEST(SimExploreTest, ScheduleCapStopsWithoutExhaustion) {
  // Pruning off so the schedule space is certainly larger than the cap.
  sim::ExploreOptions opts;
  opts.max_schedules = 2;
  opts.prune_commuting = false;
  const sim::ExploreResult r = sim::explore_schedules(independent_pair(), opts);
  EXPECT_EQ(r.schedules_run, 2u);
  EXPECT_FALSE(r.exhausted);
}

TEST(SimExploreTest, ReplayIsBitStable) {
  // The same forced schedule replayed twice produces the same decision
  // log and the same dataspace.
  const sim::ReplayResult first = sim::replay_trace(token_race(), {1, 1, 1});
  const sim::ReplayResult second = sim::replay_trace(token_race(), {1, 1, 1});
  EXPECT_EQ(first.choices, second.choices);
  EXPECT_EQ(first.report.completed, second.report.completed);
  EXPECT_EQ(first.report.still_parked, second.report.still_parked);
}

}  // namespace
}  // namespace sdl
