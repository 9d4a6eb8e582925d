// Transaction deadlines and wait-for diagnosis: parked processes expire
// into a diagnosed Timeout outcome instead of wedging the society, and
// the report classifies parks (data / consensus / replication) so callers
// can tell a deadlock from an incomplete consensus set.
#include <gtest/gtest.h>

#include <atomic>
#include <span>

#include "process/runtime.hpp"

namespace sdl {
namespace {

RuntimeOptions small_opts() {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  return o;
}

/// Waits forever for a tuple no one asserts.
ProcessDef lonely_def(std::int64_t timeout_ms) {
  ProcessDef def;
  def.name = "Lonely";
  def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("never")}), true)
                           .timeout(timeout_ms)
                           .build())});
  return def;
}

TEST(DeadlineTest, PerTransactionTimeoutExpiresWithDiagnosis) {
  Runtime rt(small_opts());
  rt.define(lonely_def(/*timeout_ms=*/30));
  rt.spawn("Lonely");
  const RunReport report = rt.run();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.still_parked, 0u) << "timed-out process must not stay parked";
  ASSERT_EQ(report.timed_out.size(), 1u);
  const std::string& note = report.timed_out[0];
  EXPECT_NE(note.find("Lonely"), std::string::npos) << note;
  EXPECT_NE(note.find("deadline expired"), std::string::npos) << note;
  EXPECT_NE(note.find("waiting on"), std::string::npos) << note;
  EXPECT_NE(note.find("no live process can assert a matching tuple"),
            std::string::npos)
      << note;
  EXPECT_EQ(rt.scheduler().total_timed_out(), 1u);
  EXPECT_EQ(rt.scheduler().live_count(), 0u);
  EXPECT_EQ(rt.waits().subscriber_count(), 0u) << "subscription leaked";
}

TEST(DeadlineTest, SchedulerDefaultAppliesWhenTxnSaysDefault) {
  RuntimeOptions o = small_opts();
  o.scheduler.delayed_txn_timeout_ms = 30;
  Runtime rt(o);
  rt.define(lonely_def(/*timeout_ms=*/0));  // 0 = use scheduler default
  rt.spawn("Lonely");
  const RunReport report = rt.run();
  EXPECT_EQ(report.timed_out.size(), 1u);
  EXPECT_EQ(report.still_parked, 0u);
}

TEST(DeadlineTest, NegativeTimeoutOverridesSchedulerDefault) {
  // timeout(-1) pins "never" even when the scheduler has a default — the
  // run quiesces with the process still parked (a diagnosed deadlock).
  RuntimeOptions o = small_opts();
  o.scheduler.delayed_txn_timeout_ms = 20;
  Runtime rt(o);
  rt.define(lonely_def(/*timeout_ms=*/-1));
  rt.spawn("Lonely");
  const RunReport report = rt.run();
  EXPECT_TRUE(report.timed_out.empty());
  EXPECT_TRUE(report.deadlocked());
  EXPECT_EQ(report.still_parked, 1u);
  EXPECT_EQ(report.parked_on_data, 1u);
  ASSERT_EQ(report.parked.size(), 1u);
  EXPECT_NE(report.parked[0].find("waiting on"), std::string::npos);
}

TEST(DeadlineTest, CircularWaitDiagnosisNamesSuppliers) {
  // A waits for "b" then would assert "a"; B waits for "a" then would
  // assert "b" — the classic two-cycle. Each expiry note must name the
  // other process as the candidate supplier.
  RuntimeOptions o = small_opts();
  o.scheduler.delayed_txn_timeout_ms = 40;
  Runtime rt(o);
  ProcessDef a;
  a.name = "Alpha";
  a.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                         .match(pat({A("b")}), true)
                         .build()),
                stmt(TxnBuilder().assert_tuple({lit(Value::atom("a"))}).build())});
  ProcessDef b;
  b.name = "Beta";
  b.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                         .match(pat({A("a")}), true)
                         .build()),
                stmt(TxnBuilder().assert_tuple({lit(Value::atom("b"))}).build())});
  rt.define(std::move(a));
  rt.define(std::move(b));
  rt.spawn("Alpha");
  rt.spawn("Beta");
  const RunReport report = rt.run();
  ASSERT_EQ(report.timed_out.size(), 2u);
  std::string alpha_note, beta_note;
  for (const std::string& n : report.timed_out) {
    if (n.find("Alpha") == 0) alpha_note = n;
    if (n.find("Beta") == 0) beta_note = n;
  }
  EXPECT_NE(alpha_note.find("may be supplied by"), std::string::npos)
      << alpha_note;
  EXPECT_NE(alpha_note.find("Beta"), std::string::npos) << alpha_note;
  EXPECT_NE(beta_note.find("Alpha"), std::string::npos) << beta_note;
  EXPECT_EQ(report.still_parked, 0u);
  EXPECT_EQ(rt.waits().subscriber_count(), 0u);
}

/// `n` waiters that park on [go] (read, never asserted); each body also
/// holds an unreached assert whose head `probe(k)` counts every write-set
/// evaluation the wait-for diagnosis makes. probe returns `go`, so every
/// waiter is a candidate supplier of every other.
void define_probed_waiters(Runtime& rt, int n, std::int64_t timeout_ms,
                           std::atomic<int>& probes) {
  rt.functions().register_function("probe", [&probes](std::span<const Value>) {
    probes.fetch_add(1);
    return Value::atom("go");
  });
  ProcessDef def;
  def.name = "Waiter";
  def.params = {"k"};
  def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("go")}))
                           .timeout(timeout_ms)
                           .build()),
                  stmt(TxnBuilder()
                           .assert_tuple({call_fn("probe", {evar("k")})})
                           .build())});
  rt.define(std::move(def));
  for (int k = 0; k < n; ++k) rt.spawn("Waiter", {Value(k)});
}

TEST(DeadlineTest, ParkReportEvaluatesEachWriteSetOnce) {
  // The report explains every parked process from one supplier index:
  // each live process's write sets are evaluated once per report, not
  // once per parked process (which made a report O(P²)).
  constexpr int kWaiters = 24;
  std::atomic<int> probes{0};
  Runtime rt(small_opts());
  define_probed_waiters(rt, kWaiters, /*timeout_ms=*/-1, probes);
  const RunReport report = rt.run();
  ASSERT_EQ(report.still_parked, static_cast<std::size_t>(kWaiters));
  ASSERT_EQ(report.parked.size(), static_cast<std::size_t>(kWaiters));
  EXPECT_EQ(probes.load(), kWaiters);
  // Every other waiter is a supplier: eight named, the rest counted.
  for (const std::string& note : report.parked) {
    EXPECT_NE(note.find("may be supplied by: Waiter#"), std::string::npos)
        << note;
    EXPECT_NE(note.find("(+15 more)"), std::string::npos) << note;
  }
}

TEST(DeadlineTest, TimeoutStormEvaluatesEachWriteSetOnce) {
  // Deterministic mode: every waiter parks before virtual time advances,
  // so all deadlines expire in one pass, which shares one supplier index.
  constexpr int kWaiters = 24;
  std::atomic<int> probes{0};
  RuntimeOptions o = small_opts();
  o.scheduler.deterministic_seed = 7;
  Runtime rt(o);
  define_probed_waiters(rt, kWaiters, /*timeout_ms=*/50, probes);
  const RunReport report = rt.run();
  ASSERT_EQ(report.timed_out.size(), static_cast<std::size_t>(kWaiters));
  EXPECT_EQ(probes.load(), kWaiters);
  for (const std::string& note : report.timed_out) {
    EXPECT_NE(note.find("(+15 more)"), std::string::npos) << note;
  }
}

TEST(DeadlineTest, ConsensusOfferTimesOutWithoutWedging) {
  // A consensus offer whose query never holds parks forever (its
  // singleton set keeps evaluating false): the offer must expire into a
  // Timeout instead of blocking the run, and the consensus manager must
  // survive the member vanishing mid-offer.
  RuntimeOptions o = small_opts();
  o.scheduler.consensus_timeout_ms = 40;
  Runtime rt(o);
  rt.seed(tup("present", 1));
  ProcessDef def;
  def.name = "Member";
  def.view.import(pat({A("present"), W()}));
  def.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                           .match(pat({A("absent")}))
                           .assert_tuple({lit(Value::atom("arrived"))})
                           .build())});
  ProcessDef loner;
  loner.name = "Bystander";
  loner.view.import(pat({A("elsewhere"), W()}));
  loner.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                             .match(pat({A("elsewhere"), W()}), true)
                             .build())});
  rt.define(std::move(def));
  rt.define(std::move(loner));
  rt.spawn("Member");
  const RunReport report = rt.run();
  ASSERT_EQ(report.timed_out.size(), 1u);
  EXPECT_NE(report.timed_out[0].find("consensus"), std::string::npos)
      << report.timed_out[0];
  EXPECT_EQ(report.still_parked, 0u);
  EXPECT_EQ(rt.space().count(tup("arrived")), 0u) << "no partial fire";
  EXPECT_EQ(rt.waits().subscriber_count(), 0u);

  // The manager is still healthy: a fresh singleton set fires normally.
  rt.seed(tup("elsewhere", 1));
  rt.spawn("Bystander");
  const RunReport second = rt.run();
  EXPECT_TRUE(second.clean());
  EXPECT_EQ(rt.space().count(tup("elsewhere", 1)), 0u);
}

TEST(DeadlineTest, ReportClassifiesParkReasons) {
  // One data-parked waiter + one consensus offer, no timeouts: the report
  // separates them so awaiting_consensus() cannot be confused with a
  // data deadlock (and vice versa).
  Runtime rt(small_opts());
  rt.seed(tup("shared", 0));
  ProcessDef waiter = lonely_def(/*timeout_ms=*/-1);
  ProcessDef member;
  member.name = "Member";
  member.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                              .match(pat({A("shared"), W()}))
                              .build())});
  rt.define(std::move(waiter));
  rt.define(std::move(member));
  rt.spawn("Lonely");
  rt.spawn("Member");
  const RunReport report = rt.run();
  EXPECT_EQ(report.still_parked, 2u);
  EXPECT_EQ(report.parked_on_data, 1u);
  EXPECT_EQ(report.parked_on_consensus, 1u);
  EXPECT_FALSE(report.awaiting_consensus()) << "data park must veto it";
  EXPECT_TRUE(report.deadlocked());

  // Consensus-only park: classification flips to awaiting_consensus.
  Runtime rt2(small_opts());
  rt2.seed(tup("present", 1));
  ProcessDef member2;
  member2.name = "Member";
  member2.view.import(pat({A("present"), W()}));
  member2.body = seq({stmt(TxnBuilder(TxnType::Consensus)
                               .match(pat({A("absent")}))
                               .build())});
  rt2.define(std::move(member2));
  rt2.spawn("Member");
  const RunReport solo = rt2.run();
  EXPECT_EQ(solo.parked_on_consensus, 1u);
  EXPECT_EQ(solo.parked_on_data, 0u);
  EXPECT_TRUE(solo.awaiting_consensus());
}

TEST(DeadlineTest, TimeoutRacesProducerWithoutLostEffects) {
  // A producer asserts the awaited tuple right around the deadline. The
  // waiter either consumed it (clean) or timed out (tuple survives) —
  // never both, never neither.
  for (int round = 0; round < 6; ++round) {
    Runtime rt(small_opts());
    ProcessDef waiter;
    waiter.name = "Waiter";
    waiter.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                                .match(pat({A("tick")}), true)
                                .timeout(2 + round)
                                .assert_tuple({lit(Value::atom("got"))})
                                .build())});
    ProcessDef producer;
    producer.name = "Producer";
    producer.body =
        seq({stmt(TxnBuilder().assert_tuple({lit(Value::atom("tick"))}).build())});
    rt.define(std::move(waiter));
    rt.define(std::move(producer));
    rt.spawn("Waiter");
    rt.spawn("Producer");
    const RunReport report = rt.run();
    const bool got = rt.space().count(tup("got")) == 1;
    const bool tick_left = rt.space().count(tup("tick")) == 1;
    EXPECT_TRUE(report.errors.empty());
    EXPECT_EQ(report.still_parked, 0u);
    if (report.timed_out.empty()) {
      EXPECT_TRUE(got) << "round " << round;
      EXPECT_FALSE(tick_left) << "round " << round;
    } else {
      EXPECT_FALSE(got) << "round " << round;
      EXPECT_TRUE(tick_left) << "round " << round;
    }
    EXPECT_EQ(rt.waits().subscriber_count(), 0u);
  }
}

}  // namespace
}  // namespace sdl
