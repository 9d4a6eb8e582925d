// Mutation self-test (ISSUE 3 satellite): deliberately break the
// engine's atomicity contract through the test-only EngineSabotage hooks
// and assert the serializability checker convicts the mutant — while
// byte-identical unmutated runs stay clean. A checker nobody has ever
// seen fail is a checker nobody should trust.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "process/runtime.hpp"

namespace sdl {
namespace {

/// Threaded engine-level harness: `threads` workers each run `ops`
/// blocking increments of the single shared counter instance — maximum
/// contention on one bucket, so a broken 2PL window races almost surely.
CheckReport run_contended(bool split_2pl, int threads, int ops) {
  Dataspace space(16);
  WaitSet waits;
  FunctionRegistry fns;
  ShardedEngine engine(space, waits, &fns);
  EventLog log;
  engine.set_event_log(&log);
  EngineSabotage sab;
  sab.split_2pl.store(split_2pl);
  engine.set_sabotage(&sab);
  Event seed;
  seed.kind = EventKind::Seed;
  seed.asserts.push_back(space.insert(tup("c", 0), kEnvironmentProcess));
  log.record(std::move(seed));

  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < ops; ++i) {
          Transaction txn = TxnBuilder(TxnType::Delayed)
                                .exists({"x"})
                                .match(pat({A("c"), V("x")}), true)
                                .assert_tuple({lit(Value::atom("c")),
                                               add(evar("x"), lit(1))})
                                .build();
          SymbolTable st;
          txn.resolve(st);
          Env env(static_cast<std::size_t>(st.size()));
          ASSERT_TRUE(execute_blocking(engine, txn, env,
                                       static_cast<ProcessId>(t + 1))
                          .success);
        }
      });
    }
  }
  return check_serializability(log, space);
}

TEST(SimMutationTest, Split2plConvictedUnderContention) {
  // With the lock window split, racing commits consume each other's
  // matches: the checker must report lost updates / double retracts.
  // The race is probabilistic per run (the sleep in the gap makes it
  // near-certain), so allow a few attempts before declaring the checker
  // blind.
  bool convicted = false;
  std::string last;
  for (int attempt = 0; attempt < 5 && !convicted; ++attempt) {
    const CheckReport r =
        run_contended(/*split_2pl=*/true, /*threads=*/4, /*ops=*/40);
    last = r.to_string();
    convicted = !r.ok();
  }
  EXPECT_TRUE(convicted)
      << "checker never flagged the broken 2PL window; last report: " << last;
}

TEST(SimMutationTest, UnmutatedContentionPasses) {
  const CheckReport r =
      run_contended(/*split_2pl=*/false, /*threads=*/4, /*ops=*/40);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

// ----------------------------------------------- runtime-level mutants

ProcessDef one_shot_incrementer() {
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

std::unique_ptr<Runtime> det_society(std::int64_t seed, int procs) {
  RuntimeOptions o;
  o.scheduler.deterministic_seed = seed;
  auto rt = std::make_unique<Runtime>(o);
  rt->seed(tup("c", 0));
  rt->define(one_shot_incrementer());
  for (int i = 0; i < procs; ++i) rt->spawn("Inc");
  rt->arm_log();
  return rt;
}

TEST(SimMutationTest, DropEffectsConvictedDeterministically) {
  // The engine reports success and records the commit but applies
  // nothing — a torn/lost commit. Deterministic, so one run convicts:
  // every later read sees an instance the witness already retracted,
  // and the final dataspace diverges from the model.
  auto rt = det_society(/*seed=*/13, /*procs=*/4);
  EngineSabotage sab;
  sab.drop_effects.store(true);
  rt->engine().set_sabotage(&sab);
  const RunReport report = rt->run();
  EXPECT_TRUE(report.errors.empty());
  const CheckReport r = rt->check_history();
  ASSERT_FALSE(r.ok()) << "checker missed dropped effects";
  bool lost_or_torn = false;
  for (const HistoryViolation& v : r.violations) {
    if (v.kind == HistoryViolation::Kind::LostUpdate ||
        v.kind == HistoryViolation::Kind::DoubleRetract ||
        v.kind == HistoryViolation::Kind::FinalStateDivergence) {
      lost_or_torn = true;
    }
  }
  EXPECT_TRUE(lost_or_torn) << r.to_string();
  EXPECT_EQ(rt->space().count(tup("c", 0)), 1u)
      << "drop_effects must actually leave the space untouched";
}

TEST(SimMutationTest, DisarmedSabotageStructIsHarmless) {
  // The hooks cost nothing while both flags are false: the identical
  // society with a wired-but-disarmed sabotage struct replays clean.
  auto rt = det_society(/*seed=*/13, /*procs=*/4);
  EngineSabotage sab;
  rt->engine().set_sabotage(&sab);
  ASSERT_TRUE(rt->run().clean());
  const CheckReport r = rt->check_history();
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(rt->space().count(tup("c", 4)), 1u);
}

TEST(SimMutationTest, Split2plHarmlessWithoutConcurrency) {
  // The checker flags actual anomalies, not the presence of the mutant:
  // with a single deterministic coordinator nothing races into the split
  // window, so the same mutation produces a clean, serializable history.
  auto rt = det_society(/*seed=*/13, /*procs=*/4);
  EngineSabotage sab;
  sab.split_2pl.store(true);
  rt->engine().set_sabotage(&sab);
  ASSERT_TRUE(rt->run().clean());
  const CheckReport r = rt->check_history();
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(rt->space().count(tup("c", 4)), 1u);
}

}  // namespace
}  // namespace sdl
