// Consensus-set membership edge cases: the paper's fire condition is
// "whenever ALL processes in the consensus set are ready" — overlapping
// processes that are NOT at a consensus offer must block the fire. The
// MissedSeed tests pin each rule by which detection learns that a set may
// have become fireable: each fails if its rule is dropped.
#include <gtest/gtest.h>

#include "oracle/consensus_reference.hpp"
#include "process/runtime.hpp"
#include "sim/decision.hpp"

namespace sdl {
namespace {

RuntimeOptions small_opts() {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  return o;
}

TEST(ConsensusMembershipTest, DelayedParkedOverlapBlocksFire) {
  // Two consensus members + one delayed-parked process, all importing the
  // same tuple: the delayed process is in the consensus set but never
  // ready, so the set must not fire — the run deadlocks with all three.
  Runtime rt(small_opts());
  rt.seed(tup("shared", 0));
  ProcessDef member;
  member.name = "Member";
  member.view.import(pat({A("shared"), W()}));
  member.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                              .match(pat({A("shared"), W()}))
                              .build())});
  rt.define(std::move(member));
  ProcessDef blocker;
  blocker.name = "Blocker";
  blocker.view.import(pat({A("shared"), W()}));
  blocker.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                               .match(pat({A("shared"), C(99)}))
                               .build())});
  rt.define(std::move(blocker));
  rt.spawn("Member");
  rt.spawn("Member");
  rt.spawn("Blocker");
  const RunReport report = rt.run();
  EXPECT_EQ(report.still_parked, 3u);
  EXPECT_EQ(rt.consensus().fires(), 0u);
}

TEST(ConsensusMembershipTest, FireProceedsOnceBlockerSatisfied) {
  // Same setup, but the blocker's delayed transaction becomes satisfiable
  // between runs; once it completes, the consensus set is all-ready.
  Runtime rt(small_opts());
  rt.seed(tup("shared", 0));
  ProcessDef member;
  member.name = "Member";
  member.view.import(pat({A("shared"), W()}));
  member.view.export_(pat({A("fired"), W()}));
  member.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                              .match(pat({A("shared"), W()}))
                              .assert_tuple({lit(Value::atom("fired")), lit(1)})
                              .build())});
  rt.define(std::move(member));
  ProcessDef blocker;
  blocker.name = "Blocker";
  blocker.view.import(pat({A("shared"), W()}));
  blocker.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                               .match(pat({A("shared"), C(99)}), true)
                               .build())});
  rt.define(std::move(blocker));
  rt.spawn("Member");
  rt.spawn("Member");
  rt.spawn("Blocker");
  ASSERT_TRUE(rt.run().deadlocked());
  ASSERT_EQ(rt.consensus().fires(), 0u);

  rt.seed(tup("shared", 99));  // satisfies the blocker, which terminates
  const RunReport second = rt.run();
  EXPECT_TRUE(second.clean()) << (second.parked.empty() ? "" : second.parked[0]);
  EXPECT_EQ(rt.consensus().fires(), 1u);
  EXPECT_EQ(rt.space().count(tup("fired", 1)), 2u);
}

TEST(ConsensusMembershipTest, EmptyImportIsSingleton) {
  // A process whose import matches nothing in D overlaps nobody: its
  // consensus fires alone even while unrelated processes stay parked.
  Runtime rt(small_opts());
  rt.seed(tup("other", 1));
  ProcessDef solo;
  solo.name = "Solo";
  solo.view.import(pat({A("mine"), W()}));
  solo.view.export_(pat({A("solo-done")}));
  solo.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                            .none({pat({A("mine"), W()})})
                            .assert_tuple({lit(Value::atom("solo-done"))})
                            .build())});
  rt.define(std::move(solo));
  ProcessDef stuck;
  stuck.name = "Stuck";
  stuck.view.import(pat({A("other"), W()}));
  stuck.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                             .match(pat({A("other"), C(2)}))
                             .build())});
  rt.define(std::move(stuck));
  rt.spawn("Solo");
  rt.spawn("Stuck");
  const RunReport report = rt.run();
  EXPECT_EQ(report.still_parked, 1u) << "only Stuck remains";
  EXPECT_EQ(rt.space().count(tup("solo-done")), 1u);
}

TEST(ConsensusMembershipTest, TerminationShrinksTheSet) {
  // A member that terminates (rather than offering consensus) leaves the
  // set; the remaining members then fire.
  Runtime rt(small_opts());
  rt.seed(tup("shared", 0));
  ProcessDef member;
  member.name = "Member";
  member.view.import(pat({A("shared"), W()}));
  member.view.export_(pat({A("fired"), W()}));
  member.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                              .match(pat({A("shared"), W()}))
                              .assert_tuple({lit(Value::atom("fired")), lit(1)})
                              .build())});
  rt.define(std::move(member));
  ProcessDef transient;
  transient.name = "Transient";
  transient.view.import(pat({A("shared"), W()}));
  // Reads the shared tuple a few times, then simply finishes.
  transient.body = seq({
      stmt(TxnBuilder().match(pat({A("shared"), W()})).build()),
      stmt(TxnBuilder().match(pat({A("shared"), W()})).build()),
  });
  rt.define(std::move(transient));
  rt.spawn("Member");
  rt.spawn("Member");
  rt.spawn("Transient");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.consensus().fires(), 1u);
  EXPECT_EQ(rt.space().count(tup("fired", 1)), 2u);
}

TEST(ConsensusMembershipTest, DeadlockReportNamesConsensusWaiters) {
  Runtime rt(small_opts());
  rt.seed(tup("shared", 0));
  ProcessDef member;
  member.name = "Lonely";
  member.view.import(pat({A("shared"), W()}));
  member.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                              .match(pat({A("absent")}))
                              .build())});
  rt.define(std::move(member));
  rt.spawn("Lonely");
  const RunReport report = rt.run();
  ASSERT_EQ(report.parked.size(), 1u);
  EXPECT_NE(report.parked[0].find("Lonely"), std::string::npos);
  EXPECT_NE(report.parked[0].find("waiting on"), std::string::npos);
  EXPECT_NE(report.parked[0].find("[absent]"), std::string::npos)
      << "report should show the unsatisfiable query: " << report.parked[0];
}

/// Deterministic runtime whose scheduler always runs the first ready
/// process, so the order of parks follows the spawn order; the
/// whole-society reference sweep checks every fire and quiet point.
struct InOrder {
  InOrder() : rt(opts()) {
    rt.scheduler().set_decision_source(&first);
    reference.attach(rt);
  }
  ~InOrder() {
    EXPECT_EQ(reference.divergence(), "");
    EXPECT_GT(reference.quiet_checked(), 0u);
  }
  static RuntimeOptions opts() {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = 0;
    return o;
  }
  sim::RecordingDecisionSource first;  // empty prefix, no fallback: pick 0
  oracle::ConsensusOracle reference;   // outlives rt
  Runtime rt;
};

/// Import `imports`, offer one consensus transaction that reads
/// `reads` and asserts [fired, tag].
ProcessDef ready_def(const std::string& name, std::vector<TuplePattern> imports,
                     TuplePattern reads, const std::string& tag) {
  ProcessDef def;
  def.name = name;
  for (TuplePattern& p : imports) def.view.import(std::move(p));
  def.view.export_(pat({A("fired"), W()}));
  def.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                           .match(std::move(reads))
                           .assert_tuple({lit(Value::atom("fired")),
                                          lit(Value::atom(tag))})
                           .build())});
  return def;
}

TEST(ConsensusMembershipTest, MissedSeedCommitRetractingSharedTuple) {
  // Commit rule: a commit seeds the processes whose summary covers a
  // touched bucket. Ready R and parked Blocker share only [shared, 0]. A
  // host commit retracts it and wakes nobody; the next detection comes
  // from an unrelated process's retire, whose neighbours exclude R.
  InOrder s;
  Runtime& rt = s.rt;
  rt.seed(tup("shared", 0));
  rt.seed(tup("mine", 1));
  rt.define(ready_def("R", {pat({A("shared"), W()}), pat({A("mine"), W()})},
                      pat({A("mine"), W()}), "r"));
  ProcessDef blocker;
  blocker.name = "Blocker";
  blocker.view.import(pat({A("shared"), W()}));
  blocker.view.import(pat({A("go")}));
  blocker.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                               .match(pat({A("go")}))
                               .build())});
  rt.define(std::move(blocker));
  ProcessDef bystander;
  bystander.name = "Bystander";
  bystander.view.import(pat({A("elsewhere"), W()}));
  bystander.body =
      seq({stmt(TxnBuilder().assert_tuple({lit(Value::atom("elsewhere")),
                                           lit(1)}).build())});
  rt.define(std::move(bystander));
  rt.spawn("R");
  rt.spawn("Blocker");
  ASSERT_TRUE(rt.run().deadlocked());
  ASSERT_EQ(rt.consensus().fires(), 0u) << "Blocker shares [shared, 0]";

  SymbolTable st;
  Transaction take = TxnBuilder().match(pat({A("shared"), C(0)}), true).build();
  take.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));
  ASSERT_TRUE(rt.execute(take, env).success);

  rt.spawn("Bystander");
  const RunReport report = rt.run();
  EXPECT_EQ(rt.consensus().fires(), 1u);
  EXPECT_EQ(rt.space().count(tup("fired", "r")), 1u);
  EXPECT_EQ(report.still_parked, 1u) << "only Blocker remains";
}

TEST(ConsensusMembershipTest, MissedSeedParkWithoutOffersSplitsTheSet) {
  // Park rule: a park seeds the parker's old neighbours. Q's bucket
  // summary (key k) covers R's import [k, 1] while Q runs, so R waits;
  // once Q parks without offers its exact import is [k, 2] only, and R's
  // set shrinks to R alone — Q's park must fire it.
  InOrder s;
  Runtime& rt = s.rt;
  rt.seed(tup("k", 1));
  rt.seed(tup("k", 2));
  rt.define(ready_def("R", {pat({A("k"), C(1)})}, pat({A("k"), C(1)}), "r"));
  ProcessDef q;
  q.name = "Q";
  q.view.import(pat({A("k"), C(2)}));
  q.view.import(pat({A("q"), W()}));
  q.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                         .match(pat({A("q"), A("go")}))
                         .build())});
  rt.define(std::move(q));
  rt.spawn("R");  // parks first: Q is still runnable and blocks it
  rt.spawn("Q");
  const RunReport report = rt.run();
  EXPECT_EQ(rt.consensus().fires(), 1u);
  EXPECT_EQ(rt.space().count(tup("fired", "r")), 1u);
  EXPECT_EQ(report.still_parked, 1u) << "only Q remains";
}

/// Import-all process: two commits, then a record of whether any
/// consensus had fired by its last step.
ProcessDef import_all_def() {
  ProcessDef e;
  e.name = "E";
  e.body = seq({
      stmt(TxnBuilder().assert_tuple({lit(Value::atom("e")), lit(1)}).build()),
      stmt(TxnBuilder().assert_tuple({lit(Value::atom("e")), lit(2)}).build()),
      stmt(TxnBuilder()
               .none({pat({A("fired"), W()})})
               .assert_tuple({lit(Value::atom("clean"))})
               .build()),
  });
  return e;
}

TEST(ConsensusMembershipTest, MissedSeedImportAllRetireReleasesEverySet) {
  // Retire rule for import-all processes: their old neighbours are every
  // process. While import-all E runs and D is nonempty it needs every
  // process with a nonempty import, so two otherwise independent sets
  // wait; E's retire must release both.
  InOrder s;
  Runtime& rt = s.rt;
  rt.seed(tup("a", 0));
  rt.seed(tup("b", 0));
  rt.define(ready_def("RA", {pat({A("a"), W()})}, pat({A("a"), W()}), "a"));
  rt.define(ready_def("RB", {pat({A("b"), W()})}, pat({A("b"), W()}), "b"));
  rt.define(import_all_def());
  rt.spawn("RA");
  rt.spawn("RB");
  rt.spawn("E");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("clean")), 1u) << "a set fired while E ran";
  EXPECT_EQ(rt.consensus().fires(), 2u) << "the sets fire separately";
  EXPECT_EQ(rt.space().count(tup("fired", "a")), 1u);
  EXPECT_EQ(rt.space().count(tup("fired", "b")), 1u);
}

TEST(ConsensusMembershipTest, ImportAllParkWithOfferJoinsEverySet) {
  // The park side: once import-all E parks with an offer of its own, it
  // and both waiting sets form one all-ready set and fire together.
  InOrder s;
  Runtime& rt = s.rt;
  rt.seed(tup("a", 0));
  rt.seed(tup("b", 0));
  rt.define(ready_def("RA", {pat({A("a"), W()})}, pat({A("a"), W()}), "a"));
  rt.define(ready_def("RB", {pat({A("b"), W()})}, pat({A("b"), W()}), "b"));
  ProcessDef e = import_all_def();
  e.body->children.push_back(
      stmt(TxnBuilder(TxnType::Consensus)
               .assert_tuple({lit(Value::atom("fired")), lit(Value::atom("e"))})
               .build()));
  rt.define(std::move(e));
  rt.spawn("RA");
  rt.spawn("RB");
  rt.spawn("E");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("clean")), 1u) << "a set fired while E ran";
  EXPECT_EQ(rt.consensus().fires(), 1u) << "one set holds all three";
  EXPECT_EQ(rt.space().count(tup("fired", "e")), 1u);
  EXPECT_EQ(rt.space().count(tup("fired", "a")), 1u);
  EXPECT_EQ(rt.space().count(tup("fired", "b")), 1u);
}

TEST(ConsensusMembershipTest, IndependentSetFiresWhileAnotherProcessCommits) {
  // Liveness: a set with no overlap fires while an unrelated process
  // keeps committing — detection does not wait for the society to go
  // idle. U counts until it sees the fire; reaching the limit means the
  // fire waited for U to stop.
  constexpr int kLimit = 200000;
  Runtime rt(small_opts());
  rt.seed(tup("c", 0));
  rt.seed(tup("u", 0));
  rt.define(ready_def("Member", {pat({A("c"), W()})}, pat({A("c"), W()}), "m"));
  ProcessDef u;
  u.name = "U";
  u.view.import(pat({A("u"), W()}));
  u.view.import(pat({A("fired"), W()}));
  u.body = seq({repeat({
      branch(TxnBuilder()
                 .exists({"n"})
                 .match(pat({A("u"), V("n")}), true)
                 .where(lt(evar("n"), lit(kLimit)))
                 .none({pat({A("fired"), W()})})
                 .assert_tuple({lit(Value::atom("u")), add(evar("n"), lit(1))})
                 .build()),
      branch(TxnBuilder().match(pat({A("fired"), W()})).exit_().build()),
  })});
  rt.define(std::move(u));
  rt.spawn("U");
  rt.spawn("Member");
  rt.spawn("Member");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean()) << (report.parked.empty() ? "" : report.parked[0]);
  EXPECT_EQ(rt.consensus().fires(), 1u);
  EXPECT_EQ(rt.space().count(tup("fired", "m")), 2u);
  EXPECT_EQ(rt.space().count(tup("u", kLimit)), 0u)
      << "the set fired only once U had stopped committing";
}

}  // namespace
}  // namespace sdl
