#include "trace/event_log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "process/runtime.hpp"

namespace sdl {
namespace {

Event commit(ProcessId pid, std::string label = "",
             std::vector<TupleId> asserts = {}) {
  Event e;
  e.pid = pid;
  e.label = std::move(label);
  e.asserts = std::move(asserts);
  return e;
}

TEST(TraceTest, RecordsInOrder) {
  EventLog log;
  log.record(EventKind::Spawn, 1, "A");
  log.record(commit(1, "B", {TupleId(1, 1)}));
  const auto events = log.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::Spawn);
  EXPECT_EQ(events[1].kind, EventKind::Commit);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_EQ(events[1].asserts, std::vector<TupleId>{TupleId(1, 1)});
}

TEST(TraceTest, DisabledRecordsNothing) {
  // Disarmed means no log pointer at all: commits pay one null branch
  // and record nothing. A fresh runtime starts disarmed, and disarming
  // detaches the engine.
  Runtime rt;
  EXPECT_EQ(rt.event_log(), nullptr);
  rt.arm_log();
  EXPECT_EQ(rt.engine().event_log(), rt.event_log());
  rt.disarm_log();
  EXPECT_EQ(rt.event_log(), nullptr);
  EXPECT_EQ(rt.engine().event_log(), nullptr);

  Dataspace space(4);
  WaitSet waits;
  FunctionRegistry fns;
  ShardedEngine engine(space, waits, &fns);
  EventLog log;
  engine.set_event_log(&log);
  engine.set_event_log(nullptr);
  Transaction txn = TxnBuilder().assert_tuple({lit(1)}).build();
  SymbolTable st;
  txn.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));
  ASSERT_TRUE(engine.execute(txn, env, 1).success);
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceTest, ClearResets) {
  EventLog log;
  log.record(commit(1));
  log.reset({TupleId(0, 1)});
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.initial(), std::vector<TupleId>{TupleId(0, 1)});
  log.record(EventKind::Park, 2, "");
  EXPECT_EQ(log.events().front().seq, 0u) << "reset restarts the sequence";
}

TEST(TraceTest, TextDumpFormat) {
  EventLog log;
  log.record(EventKind::Park, 3, "waiting");
  Event member = commit(2, "txn", {TupleId(2, 1)});
  member.consensus_fire = 1;
  member.reads = {TupleId(0, 1)};
  member.retracts = {TupleId(0, 1)};
  log.record_fire({member});
  std::ostringstream os;
  log.dump_text(os);
  EXPECT_EQ(os.str(),
            "#0 park pid=3 waiting\n"
            "#1 commit pid=2 txn fire=1 read=#0.1 retract=#0.1 assert=#2.1\n");
}

TEST(TraceTest, ConcurrentRecordingIsSafe) {
  EventLog log;
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&log, w] {
        const auto pid = static_cast<ProcessId>(w + 1);
        for (int i = 0; i < 50; ++i) {
          log.record(EventKind::Wake, pid, "");
          log.record(commit(pid));
        }
      });
    }
  }
  const std::vector<Event> events = log.events();
  ASSERT_EQ(events.size(), 400u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i) << "one sequence, no gaps or repeats";
  }
}

TEST(TraceTest, KindNames) {
  EXPECT_STREQ(to_string(EventKind::Spawn), "spawn");
  EXPECT_STREQ(to_string(EventKind::Commit), "commit");
  EXPECT_STREQ(to_string(EventKind::Seed), "seed");
}

}  // namespace
}  // namespace sdl
