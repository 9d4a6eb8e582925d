#include "process/runtime.hpp"

#include <gtest/gtest.h>

namespace sdl {
namespace {

RuntimeOptions small_opts(EngineKind kind = EngineKind::Sharded) {
  RuntimeOptions o;
  o.engine = kind;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  return o;
}

Transaction assert_txn(const char* head, int v) {
  return TxnBuilder().assert_tuple({lit(Value::atom(head)), lit(v)}).build();
}

TEST(RuntimeTest, SeedAndSnapshot) {
  Runtime rt(small_opts());
  rt.seed(tup("year", 87));
  rt.seed(tup("year", 88));
  EXPECT_EQ(rt.space().size(), 2u);
  EXPECT_EQ(rt.space().count(tup("year", 87)), 1u);
}

TEST(RuntimeTest, SingleProcessAssertsAndTerminates) {
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "Hello";
  def.body = seq({stmt(assert_txn("hello", 1))});
  rt.define(std::move(def));
  rt.spawn("Hello");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(rt.space().count(tup("hello", 1)), 1u);
}

TEST(RuntimeTest, SequenceRunsInOrder) {
  // Second transaction consumes what the first asserted — order matters.
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "Seq";
  def.body = seq({
      stmt(assert_txn("step", 1)),
      stmt(TxnBuilder()
               .match(pat({A("step"), C(1)}), true)
               .assert_tuple({lit(Value::atom("step")), lit(2)})
               .build()),
  });
  rt.define(std::move(def));
  rt.spawn("Seq");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("step", 2)), 1u);
  EXPECT_EQ(rt.space().size(), 1u);
}

TEST(RuntimeTest, ParamsReachTransactions) {
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "Emit";
  def.params = {"k"};
  def.body = seq({stmt(
      TxnBuilder().assert_tuple({lit(Value::atom("got")), evar("k")}).build())});
  rt.define(std::move(def));
  rt.spawn("Emit", {Value(99)});
  rt.run();
  EXPECT_EQ(rt.space().count(tup("got", 99)), 1u);
}

TEST(RuntimeTest, FailedImmediateActsAsSkip) {
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "Skip";
  def.body = seq({
      stmt(TxnBuilder().match(pat({A("missing")}), true).build()),
      stmt(assert_txn("after", 1)),
  });
  rt.define(std::move(def));
  rt.spawn("Skip");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("after", 1)), 1u);
}

TEST(RuntimeTest, DelayedProducerConsumer) {
  Runtime rt(small_opts());
  ProcessDef consumer;
  consumer.name = "Consumer";
  consumer.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                                .exists({"v"})
                                .match(pat({A("item"), V("v")}), true)
                                .assert_tuple({lit(Value::atom("eaten")), evar("v")})
                                .build())});
  rt.define(std::move(consumer));

  ProcessDef producer;
  producer.name = "Producer";
  producer.body = seq({stmt(assert_txn("item", 7))});
  rt.define(std::move(producer));

  rt.spawn("Consumer");  // spawned first: must park, then be woken
  rt.spawn("Producer");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("eaten", 7)), 1u);
  EXPECT_EQ(rt.space().count(tup("item", 7)), 0u);
}

TEST(RuntimeTest, DeadlockReported) {
  Runtime rt(small_opts());
  ProcessDef waiter;
  waiter.name = "Waiter";
  waiter.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                              .match(pat({A("never")}), true)
                              .build())});
  rt.define(std::move(waiter));
  rt.spawn("Waiter");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.deadlocked());
  ASSERT_EQ(report.parked.size(), 1u);
  EXPECT_NE(report.parked[0].find("Waiter"), std::string::npos);
  EXPECT_NE(report.parked[0].find("delayed"), std::string::npos);
}

TEST(RuntimeTest, LetCarriesValuesAcrossTransactions) {
  // The §2.3 sequence: pick an index, pick a value, pair them.
  Runtime rt(small_opts());
  rt.seed(tup("index", 3));
  rt.seed(tup("value", 30));
  ProcessDef def;
  def.name = "Pair";
  def.body = seq({
      stmt(TxnBuilder()
               .exists({"p"})
               .match(pat({A("index"), V("p")}), true)
               .let_("X", evar("p"))
               .build()),
      stmt(TxnBuilder()
               .exists({"v"})
               .match(pat({A("value"), V("v")}), true)
               .let_("Y", evar("v"))
               .build()),
      stmt(TxnBuilder().assert_tuple({evar("X"), evar("Y")}).build()),
  });
  rt.define(std::move(def));
  rt.spawn("Pair");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup(3, 30)), 1u);
}

TEST(RuntimeTest, SpawnActionCreatesProcesses) {
  // Recursive search via dynamic creation (§3.2 Search style).
  Runtime rt(small_opts());
  ProcessDef counter;
  counter.name = "Count";
  counter.params = {"n"};
  counter.body = seq({select({
      branch(TxnBuilder()
                 .where(gt(evar("n"), lit(0)))
                 .assert_tuple({lit(Value::atom("tick")), evar("n")})
                 .spawn("Count", {sub(evar("n"), lit(1))})
                 .build()),
  })});
  rt.define(std::move(counter));
  rt.spawn("Count", {Value(5)});
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.completed, 6u);  // Count(5)..Count(0)
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(rt.space().count(tup("tick", i)), 1u);
  }
}

TEST(RuntimeTest, SelectionPicksExactlyOneBranch) {
  Runtime rt(small_opts());
  rt.seed(tup("a", 1));
  rt.seed(tup("b", 2));
  ProcessDef def;
  def.name = "Pick";
  def.body = seq({select({
      branch(TxnBuilder().match(pat({A("a"), W()}), true).build(),
             {stmt(assert_txn("picked", 1))}),
      branch(TxnBuilder().match(pat({A("b"), W()}), true).build(),
             {stmt(assert_txn("picked", 2))}),
  })});
  rt.define(std::move(def));
  rt.spawn("Pick");
  rt.run();
  const std::size_t picked =
      rt.space().count(tup("picked", 1)) + rt.space().count(tup("picked", 2));
  EXPECT_EQ(picked, 1u) << "exactly one guarded sequence commits";
  EXPECT_EQ(rt.space().size(), 2u);  // one of a/b consumed, one picked marker
}

TEST(RuntimeTest, SelectionFailureIsSkip) {
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "SkipSel";
  def.body = seq({
      select({branch(TxnBuilder().match(pat({A("no")}), true).build(),
                     {stmt(assert_txn("not-this", 1))})}),
      stmt(assert_txn("after", 1)),
  });
  rt.define(std::move(def));
  rt.spawn("SkipSel");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("after", 1)), 1u);
  EXPECT_EQ(rt.space().count(tup("not-this", 1)), 0u);
}

TEST(RuntimeTest, SelectionWithDelayedGuardBlocksUntilEnabled) {
  Runtime rt(small_opts());
  ProcessDef waiter;
  waiter.name = "Sel";
  waiter.body = seq({select({
      branch(TxnBuilder(TxnType::Delayed).match(pat({A("go")}), true).build(),
             {stmt(assert_txn("went", 1))}),
  })});
  rt.define(std::move(waiter));
  ProcessDef starter;
  starter.name = "Starter";
  starter.body = seq({stmt(TxnBuilder().assert_tuple({lit(Value::atom("go"))}).build())});
  rt.define(std::move(starter));
  rt.spawn("Sel");
  rt.spawn("Starter");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("went", 1)), 1u);
}

TEST(RuntimeTest, RepetitionDrainsMatchingTuples) {
  // The §2.3 repetition: pair positive indices with values, drop
  // non-positive indices, exit when no index tuples remain.
  Runtime rt(small_opts());
  rt.seed(tup("index", 1));
  rt.seed(tup("index", 2));
  rt.seed(tup("index", -3));
  rt.seed(tup("value", 10));
  rt.seed(tup("value", 20));
  ProcessDef def;
  def.name = "Drain";
  def.body = seq({repeat({
      branch(TxnBuilder()
                 .exists({"p", "v"})
                 .match(pat({A("index"), V("p")}), true)
                 .match(pat({A("value"), V("v")}), true)
                 .where(gt(evar("p"), lit(0)))
                 .assert_tuple({evar("p"), evar("v")})
                 .build()),
      branch(TxnBuilder()
                 .exists({"p"})
                 .match(pat({A("index"), V("p")}), true)
                 .where(le(evar("p"), lit(0)))
                 .build()),
      branch(TxnBuilder()
                 .none({pat({A("index"), W()})})
                 .exit_()
                 .build()),
  })});
  rt.define(std::move(def));
  rt.spawn("Drain");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("index", 1)) + rt.space().count(tup("index", 2)) +
                rt.space().count(tup("index", -3)),
            0u);
  // Two pairs were made (indices 1, 2 with values in some order).
  std::size_t pairs = 0;
  for (const Record& r : rt.space().snapshot()) {
    if (r.tuple.arity() == 2 && r.tuple[0].is_int()) ++pairs;
  }
  EXPECT_EQ(pairs, 2u);
}

TEST(RuntimeTest, RepetitionTerminatesWhenNoGuardFires) {
  Runtime rt(small_opts());
  rt.seed(tup("n", 3));
  ProcessDef def;
  def.name = "Countdown";
  def.body = seq({
      repeat({branch(TxnBuilder()
                         .exists({"x"})
                         .match(pat({A("n"), V("x")}), true)
                         .where(gt(evar("x"), lit(0)))
                         .assert_tuple({lit(Value::atom("n")),
                                        sub(evar("x"), lit(1))})
                         .build())}),
      stmt(assert_txn("done", 1)),
  });
  rt.define(std::move(def));
  rt.spawn("Countdown");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("n", 0)), 1u);
  EXPECT_EQ(rt.space().count(tup("done", 1)), 1u);
}

TEST(RuntimeTest, AbortTerminatesProcessImmediately) {
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "Aborter";
  def.body = seq({
      stmt(TxnBuilder().abort_().build()),
      stmt(assert_txn("unreachable", 1)),
  });
  rt.define(std::move(def));
  rt.spawn("Aborter");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("unreachable", 1)), 0u);
}

TEST(RuntimeTest, ExitInsideRepetitionContinuesAfterLoop) {
  Runtime rt(small_opts());
  rt.seed(tup("stop", 1));
  ProcessDef def;
  def.name = "Loop";
  def.body = seq({
      repeat({branch(TxnBuilder().match(pat({A("stop"), W()}), true).exit_().build(),
                     {stmt(assert_txn("inside-after-exit", 1))})}),
      stmt(assert_txn("after-loop", 1)),
  });
  rt.define(std::move(def));
  rt.spawn("Loop");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("after-loop", 1)), 1u);
  EXPECT_EQ(rt.space().count(tup("inside-after-exit", 1)), 0u)
      << "exit terminates the guarded sequence too";
}

TEST(RuntimeTest, UnknownSpawnTypeReportsError) {
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "Bad";
  def.body = seq({stmt(TxnBuilder().spawn("NoSuchType").build())});
  rt.define(std::move(def));
  rt.spawn("Bad");
  const RunReport report = rt.run();
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("NoSuchType"), std::string::npos);
}

TEST(RuntimeTest, ViewConfinesProcessQueries) {
  Runtime rt(small_opts());
  rt.seed(tup("year", 90));
  rt.seed(tup("month", 5));
  ProcessDef def;
  def.name = "Viewer";
  def.view.import(pat({A("year"), W()}));
  def.view.export_(pat({A("seen"), W()}));
  def.body = seq({
      // Can see year...
      stmt(TxnBuilder()
               .exists({"y"})
               .match(pat({A("year"), V("y")}))
               .assert_tuple({lit(Value::atom("seen")), evar("y")})
               .build()),
      // ...cannot see month (fails, acts as skip)...
      stmt(TxnBuilder()
               .exists({"m"})
               .match(pat({A("month"), V("m")}))
               .assert_tuple({lit(Value::atom("seen")), lit(-1)})
               .build()),
      // ...and non-exported assertions are dropped.
      stmt(assert_txn("leak", 1)),
  });
  rt.define(std::move(def));
  rt.spawn("Viewer");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("seen", 90)), 1u);
  EXPECT_EQ(rt.space().count(tup("seen", -1)), 0u);
  EXPECT_EQ(rt.space().count(tup("leak", 1)), 0u);
}

TEST(RuntimeTest, TraceRecordsLifecycle) {
  Runtime rt(small_opts());
  rt.arm_log();
  ProcessDef def;
  def.name = "Traced";
  def.body = seq({stmt(assert_txn("t", 1))});
  rt.define(std::move(def));
  rt.spawn("Traced");
  rt.run();
  bool saw_spawn = false;
  bool saw_commit = false;
  bool saw_terminate = false;
  for (const Event& ev : rt.event_log()->events()) {
    saw_spawn |= ev.kind == EventKind::Spawn;
    saw_commit |= ev.kind == EventKind::Commit;
    saw_terminate |= ev.kind == EventKind::Terminate;
  }
  EXPECT_TRUE(saw_spawn);
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_terminate);
}

TEST(RuntimeTest, ManyProcessesCompleteOnGlobalEngineToo) {
  for (const EngineKind kind : {EngineKind::GlobalLock, EngineKind::Sharded}) {
    Runtime rt(small_opts(kind));
    ProcessDef def;
    def.name = "Emit";
    def.params = {"k"};
    def.body = seq({stmt(
        TxnBuilder().assert_tuple({lit(Value::atom("id")), evar("k")}).build())});
    rt.define(std::move(def));
    constexpr int kProcs = 200;
    for (int i = 0; i < kProcs; ++i) rt.spawn("Emit", {Value(i)});
    const RunReport report = rt.run();
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.completed, static_cast<std::size_t>(kProcs));
    EXPECT_EQ(rt.space().size(), static_cast<std::size_t>(kProcs));
  }
}

TEST(RuntimeTest, PipelineOfDelayedProcesses) {
  // A chain: process i waits for <token,i>, asserts <token,i+1>.
  Runtime rt(small_opts());
  ProcessDef def;
  def.name = "Stage";
  def.params = {"i"};
  def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("token"), E(evar("i"))}), true)
                           .assert_tuple({lit(Value::atom("token")),
                                          add(evar("i"), lit(1))})
                           .build())});
  rt.define(std::move(def));
  constexpr int kStages = 50;
  for (int i = kStages - 1; i >= 0; --i) rt.spawn("Stage", {Value(i)});
  rt.seed(tup("token", 0));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("token", kStages)), 1u);
}

TEST(RuntimeTest, ThreadedEqualityReadersParkUntilWritersAgree) {
  // Threaded society on the default recheck path: writers keep a==b by
  // consuming both counters and asserting both bumped; readers park on
  // the a==b guard, so every writer commit wakes them to probe again.
  for (const EngineKind kind : {EngineKind::GlobalLock, EngineKind::Sharded}) {
    Runtime rt(small_opts(kind));
    rt.seed(tup("a", 0));
    rt.seed(tup("b", 0));
    ProcessDef w;
    w.name = "Inc2";
    w.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .exists({"x", "y"})
                           .match(pat({A("a"), V("x")}), true)
                           .match(pat({A("b"), V("y")}), true)
                           .assert_tuple({lit(Value::atom("a")),
                                          add(evar("x"), lit(1))})
                           .assert_tuple({lit(Value::atom("b")),
                                          add(evar("y"), lit(1))})
                           .build())});
    ProcessDef r;
    r.name = "ReadBoth";
    r.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .exists({"x", "y"})
                           .match(pat({A("a"), V("x")}))
                           .match(pat({A("b"), V("y")}))
                           .where(eq(evar("x"), evar("y")))
                           .build())});
    rt.define(std::move(w));
    rt.define(std::move(r));
    for (int i = 0; i < 4; ++i) {
      rt.spawn("Inc2");
      rt.spawn("ReadBoth");
    }
    const RunReport report = rt.run();
    EXPECT_TRUE(report.clean()) << report.still_parked << " parked";
    EXPECT_EQ(rt.space().count(tup("a", 4)), 1u);
    EXPECT_EQ(rt.space().count(tup("b", 4)), 1u);
    EXPECT_EQ(rt.waits().subscriber_count(), 0u);
  }
}

}  // namespace
}  // namespace sdl
