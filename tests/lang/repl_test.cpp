#include "lang/repl.hpp"

#include <gtest/gtest.h>

namespace sdl::lang {
namespace {

RuntimeOptions small_opts() {
  RuntimeOptions o;
  o.scheduler.workers = 2;
  return o;
}

TEST(ReplTest, AssertAndQuery) {
  ReplSession repl(small_opts());
  EXPECT_NE(repl.eval("-> [year, 87]").find("committed"), std::string::npos);
  EXPECT_EQ(repl.runtime().space().count(tup("year", 87)), 1u);
  const std::string out =
      repl.eval("exists a : [year, a]! when a > 80 -> let N = a, [found, a]");
  EXPECT_NE(out.find("committed"), std::string::npos);
  EXPECT_NE(out.find("a = 87"), std::string::npos);
  EXPECT_NE(out.find("N = 87"), std::string::npos);
  EXPECT_EQ(repl.runtime().space().count(tup("found", 87)), 1u);
}

TEST(ReplTest, LetsPersistAcrossInputs) {
  ReplSession repl(small_opts());
  repl.eval("-> let X = 42");
  const std::string out = repl.eval("-> [stored, X]");
  EXPECT_NE(out.find("committed"), std::string::npos);
  EXPECT_EQ(repl.runtime().space().count(tup("stored", 42)), 1u);
}

TEST(ReplTest, FailedImmediateReportsFailed) {
  ReplSession repl(small_opts());
  EXPECT_EQ(repl.eval("[missing] -> skip"), "failed");
}

TEST(ReplTest, DelayedEvaluatedOnceNotBlocking) {
  ReplSession repl(small_opts());
  const std::string out = repl.eval("[missing] => skip");
  EXPECT_NE(out.find("not enabled"), std::string::npos);
}

TEST(ReplTest, ConsensusRejectedWithExplanation) {
  ReplSession repl(small_opts());
  EXPECT_NE(repl.eval("^ skip").find("error"), std::string::npos);
}

TEST(ReplTest, ParseErrorsAreReportedNotThrown) {
  ReplSession repl(small_opts());
  EXPECT_NE(repl.eval("[oops").find("parse error"), std::string::npos);
  EXPECT_NE(repl.eval(":nosuch").find("unknown command"), std::string::npos);
}

TEST(ReplTest, DumpAndStats) {
  ReplSession repl(small_opts());
  repl.eval("-> [a, 1]");
  const std::string dump = repl.eval(":dump");
  EXPECT_NE(dump.find("[a, 1]"), std::string::npos);
  EXPECT_NE(dump.find("(1 tuples)"), std::string::npos);
  EXPECT_NE(repl.eval(":stats").find("tuples:"), std::string::npos);
}

TEST(ReplTest, CheckpointOutputReloads) {
  ReplSession repl(small_opts());
  repl.eval("-> [k, 1], [k, 2]");
  const std::string ck = repl.eval(":checkpoint");
  EXPECT_NE(ck.find("init {"), std::string::npos);
  EXPECT_NE(ck.find("[k, 1];"), std::string::npos);
}

TEST(ReplTest, SpawnAndRun) {
  ReplSession repl(small_opts());
  // Define a process through the program grammar via eval of :load? No
  // file here — drive the runtime directly, then :spawn/:run.
  ProcessDef def;
  def.name = "Emit";
  def.params = {"k"};
  def.body = seq({stmt(
      TxnBuilder().assert_tuple({lit(Value::atom("e")), evar("k")}).build())});
  repl.runtime().define(std::move(def));
  EXPECT_NE(repl.eval(":spawn Emit(7)").find("spawned Emit#"), std::string::npos);
  EXPECT_NE(repl.eval(":run").find("quiescent: 1 completed"), std::string::npos);
  EXPECT_EQ(repl.runtime().space().count(tup("e", 7)), 1u);
}

TEST(ReplTest, TimelineShowsHostCommitsThenEachRun) {
  ReplSession repl(small_opts());
  ProcessDef def;
  def.name = "Emit";
  def.params = {"k"};
  def.body = seq({stmt(
      TxnBuilder().assert_tuple({lit(Value::atom("e")), evar("k")}).build())});
  repl.runtime().define(std::move(def));

  // A one-liner is a host commit: counted, no pid0 lane.
  repl.eval("-> [year, 87]");
  std::string tl = repl.eval(":timeline");
  EXPECT_NE(tl.find("0 processes"), std::string::npos) << tl;
  EXPECT_NE(tl.find("1 host commits"), std::string::npos) << tl;
  EXPECT_EQ(tl.find("pid0"), std::string::npos) << tl;

  // :run starts a fresh log; the process spawned before it keeps its lane.
  std::string spawned = repl.eval(":spawn Emit(1)");
  const std::string first = spawned.substr(spawned.find("Emit#"));
  repl.eval(":run");
  tl = repl.eval(":timeline");
  EXPECT_NE(tl.find("1 processes"), std::string::npos) << tl;
  EXPECT_NE(tl.find(first), std::string::npos) << tl;
  EXPECT_NE(tl.find("commits=1"), std::string::npos) << tl;
  EXPECT_EQ(tl.find("host commits"), std::string::npos) << tl;

  // A second :run shows only itself.
  spawned = repl.eval(":spawn Emit(2)");
  const std::string second = spawned.substr(spawned.find("Emit#"));
  repl.eval(":run");
  tl = repl.eval(":timeline");
  EXPECT_NE(tl.find("1 processes"), std::string::npos) << tl;
  EXPECT_NE(tl.find(second), std::string::npos) << tl;
  EXPECT_EQ(tl.find(first), std::string::npos) << tl;
}

TEST(ReplTest, QuitSetsDone) {
  ReplSession repl(small_opts());
  EXPECT_FALSE(repl.done());
  repl.eval(":quit");
  EXPECT_TRUE(repl.done());
}

TEST(ReplTest, HelpAndEmptyLines) {
  ReplSession repl(small_opts());
  EXPECT_NE(repl.eval(":help").find(":load"), std::string::npos);
  EXPECT_EQ(repl.eval(""), "");
  EXPECT_EQ(repl.eval("   "), "");
}

TEST(ReplTest, ForAllReportsMatchCount) {
  ReplSession repl(small_opts());
  repl.eval("-> [n, 1], [n, 2], [n, 3]");
  const std::string out = repl.eval("forall x : [n, x]! -> skip");
  EXPECT_NE(out.find("3 matches"), std::string::npos);
  EXPECT_EQ(repl.runtime().space().size(), 0u);
}

}  // namespace
}  // namespace sdl::lang
