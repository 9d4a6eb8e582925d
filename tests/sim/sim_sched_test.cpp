// Deterministic scheduler mode (ISSUE 3 tentpole): a single coordinator
// picks every dispatch from a seeded walk, so the same seed must replay
// the same schedule bit-for-bit — including the event-log sequence — and park deadlines expire on a virtual clock instead of
// wall time. Kill and fault-injected teardown must stay deterministic.
#include <gtest/gtest.h>

#include <chrono>

#include "process/runtime.hpp"

namespace sdl {
namespace {

RuntimeOptions det_opts(std::int64_t seed) {
  RuntimeOptions o;
  o.scheduler.deterministic_seed = seed;
  return o;
}

/// One blocking increment of the shared counter ("c", x) -> ("c", x+1).
ProcessDef incrementer_def() {
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

/// The §2.3 exchange sort as a replication construct — spawns replicant
/// tasks internally, so fault kills can land on replicants too.
ProcessDef sorter_def() {
  ProcessDef def;
  def.name = "SortRep";
  def.body = seq({replicate({branch(
      TxnBuilder()
          .exists({"i", "j", "v1", "v2"})
          .match(pat({V("i"), V("v1")}), true)
          .match(pat({V("j"), V("v2")}), true)
          .where(land(lt(evar("i"), evar("j")), gt(evar("v1"), evar("v2"))))
          .assert_tuple({evar("i"), evar("v2")})
          .assert_tuple({evar("j"), evar("v1")})
          .build())})});
  return def;
}

void build_mixed_society(Runtime& rt) {
  rt.seed(tup("c", 0));
  rt.define(incrementer_def());
  for (int i = 0; i < 8; ++i) rt.spawn("Inc");
  for (int i = 1; i <= 6; ++i) rt.seed(tup(i, 7 - i));  // reversed
  rt.define(sorter_def());
  rt.spawn("SortRep");
}

/// (kind, pid, label) fingerprint of a whole event log.
std::vector<std::string> trace_fingerprint(const EventLog& log) {
  std::vector<std::string> out;
  for (const Event& e : log.events()) {
    out.push_back(std::string(to_string(e.kind)) + "|" +
                  std::to_string(e.pid) + "|" + e.label);
  }
  return out;
}

TEST(SimSchedTest, SameSeedReplaysIdenticalTraceSequence) {
  // Satellite 3's acceptance: two runs with the same deterministic seed
  // record byte-identical trace event sequences.
  std::vector<std::string> first;
  std::size_t first_completed = 0;
  for (int round = 0; round < 2; ++round) {
    Runtime rt(det_opts(/*seed=*/42));
    rt.arm_log();
    build_mixed_society(rt);
    const RunReport report = rt.run();
    ASSERT_TRUE(report.clean())
        << (report.parked.empty() ? "" : report.parked[0]);
    EXPECT_EQ(rt.space().count(tup("c", 8)), 1u);
    for (int i = 1; i <= 6; ++i) EXPECT_EQ(rt.space().count(tup(i, i)), 1u);
    const std::vector<std::string> fp = trace_fingerprint(*rt.event_log());
    ASSERT_FALSE(fp.empty());
    if (round == 0) {
      first = fp;
      first_completed = report.completed;
    } else {
      EXPECT_EQ(report.completed, first_completed);
      ASSERT_EQ(fp.size(), first.size()) << "trace lengths diverged";
      for (std::size_t i = 0; i < fp.size(); ++i) {
        ASSERT_EQ(fp[i], first[i]) << "trace diverged at event " << i;
      }
    }
  }
}

TEST(SimSchedTest, DifferentSeedsReachDifferentSchedules) {
  // The seeded walk must actually vary the interleaving: across 8 seeds
  // at least two distinct trace sequences appear (the same program, the
  // same result, different schedules).
  std::vector<std::vector<std::string>> traces;
  for (std::int64_t seed = 0; seed < 8; ++seed) {
    Runtime rt(det_opts(seed));
    rt.arm_log();
    build_mixed_society(rt);
    ASSERT_TRUE(rt.run().clean()) << "seed " << seed;
    EXPECT_EQ(rt.space().count(tup("c", 8)), 1u) << "seed " << seed;
    traces.push_back(trace_fingerprint(*rt.event_log()));
  }
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (traces[j] == traces[i]) seen = true;
    }
    if (!seen) ++distinct;
  }
  EXPECT_GE(distinct, 2u) << "every seed produced the same schedule";
}

TEST(SimSchedTest, VirtualClockExpiresDeadlinesWithoutWaiting) {
  // A 60-second park deadline must expire on the virtual clock the
  // moment the society has nothing else runnable — not after 60 wall
  // seconds — with the full wait-for diagnosis intact (satellite 4).
  const auto started = std::chrono::steady_clock::now();
  Runtime rt(det_opts(/*seed=*/3));
  ProcessDef def;
  def.name = "Lonely";
  def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("never")}), true)
                           .timeout(60'000)
                           .build())});
  rt.define(std::move(def));
  rt.spawn("Lonely");
  const RunReport report = rt.run();
  const auto wall = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(wall).count(), 30)
      << "deadline waited on wall time, not the virtual clock";
  EXPECT_EQ(report.still_parked, 0u);
  ASSERT_EQ(report.timed_out.size(), 1u);
  const std::string& note = report.timed_out[0];
  EXPECT_NE(note.find("deadline expired"), std::string::npos) << note;
  EXPECT_NE(note.find("waiting on"), std::string::npos) << note;
  EXPECT_NE(note.find("no live process can assert a matching tuple"),
            std::string::npos)
      << note;
  EXPECT_EQ(rt.scheduler().total_timed_out(), 1u);
  EXPECT_EQ(rt.waits().subscriber_count(), 0u);
}

TEST(SimSchedTest, CircularWaitTimesOutDeterministically) {
  // The two-cycle from the deadline suite, under the virtual clock: both
  // processes expire, each note names the other as candidate supplier,
  // and the note set is identical across two same-seed runs (expired
  // pids are sorted before re-enqueue — hash-map order must not leak).
  std::vector<std::string> first_notes;
  for (int round = 0; round < 2; ++round) {
    RuntimeOptions o = det_opts(/*seed=*/11);
    o.scheduler.delayed_txn_timeout_ms = 40;
    Runtime rt(o);
    ProcessDef a;
    a.name = "Alpha";
    a.body =
        seq({stmt(TxnBuilder(TxnType::Delayed).match(pat({A("b")}), true).build()),
             stmt(TxnBuilder().assert_tuple({lit(Value::atom("a"))}).build())});
    ProcessDef b;
    b.name = "Beta";
    b.body =
        seq({stmt(TxnBuilder(TxnType::Delayed).match(pat({A("a")}), true).build()),
             stmt(TxnBuilder().assert_tuple({lit(Value::atom("b"))}).build())});
    rt.define(std::move(a));
    rt.define(std::move(b));
    rt.spawn("Alpha");
    rt.spawn("Beta");
    const RunReport report = rt.run();
    ASSERT_EQ(report.timed_out.size(), 2u);
    EXPECT_EQ(report.still_parked, 0u);
    for (const std::string& n : report.timed_out) {
      EXPECT_NE(n.find("may be supplied by"), std::string::npos) << n;
    }
    if (round == 0) {
      first_notes = report.timed_out;
    } else {
      EXPECT_EQ(report.timed_out, first_notes)
          << "timeout diagnosis not deterministic";
    }
  }
}

TEST(SimSchedTest, KillBeforeRunTearsDownUnderDeterministicMode) {
  // Satellite 4: kill() issued during quiescence takes effect as the
  // deterministic run starts — crash-safe, reported, nothing leaked.
  Runtime rt(det_opts(/*seed=*/5));
  ProcessDef def;
  def.name = "Lonely";
  def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .match(pat({A("never")}), true)
                           .build())});
  rt.define(std::move(def));
  rt.seed(tup("c", 0));
  rt.define(incrementer_def());
  const ProcessId victim = rt.spawn("Lonely");
  rt.spawn("Inc");
  EXPECT_TRUE(rt.scheduler().kill(victim));
  const RunReport report = rt.run();
  ASSERT_EQ(report.killed.size(), 1u);
  EXPECT_NE(report.killed[0].find("Lonely"), std::string::npos)
      << report.killed[0];
  EXPECT_EQ(report.still_parked, 0u);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_EQ(rt.space().count(tup("c", 1)), 1u) << "survivor must finish";
  EXPECT_EQ(rt.scheduler().live_count(), 0u);
  EXPECT_EQ(rt.waits().subscriber_count(), 0u);
  EXPECT_FALSE(rt.scheduler().kill(victim)) << "unknown pid must return false";
}

TEST(SimSchedTest, FaultInjectedKillsAreDeterministic) {
  // Fail-stop chaos under the deterministic scheduler: the same fault
  // seed plus the same schedule seed must kill the same victims (possibly
  // replicants — the sorter spawns them internally) and record the same
  // trace, run after run.
  std::vector<std::string> first_killed;
  std::vector<std::string> first_trace;
  for (int round = 0; round < 2; ++round) {
    Runtime rt(det_opts(/*seed=*/9));
    rt.arm_log();
    rt.enable_faults(/*seed=*/77).arm(FaultPoint::SchedulerDispatch,
                                      FaultAction::Kill, 120, 3);
    build_mixed_society(rt);
    const RunReport report = rt.run();
    EXPECT_TRUE(report.errors.empty())
        << (report.errors.empty() ? "" : report.errors[0]);
    EXPECT_EQ(rt.scheduler().live_count(), 0u);
    const std::vector<std::string> fp = trace_fingerprint(*rt.event_log());
    if (round == 0) {
      first_killed = report.killed;
      first_trace = fp;
      EXPECT_FALSE(report.killed.empty())
          << "permille 120 over this society should fire at least once";
    } else {
      EXPECT_EQ(report.killed, first_killed) << "kill victims diverged";
      EXPECT_EQ(fp, first_trace) << "trace diverged under fault kills";
    }
  }
}

}  // namespace
}  // namespace sdl
