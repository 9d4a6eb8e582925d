// The lock-free optimistic read path (ISSUE 6): version-validated unlocked
// evaluation, bounded fallback to the shared-lock path, the commutative
// blind-assert fast path, and the EBR plumbing underneath. The
// multi-threaded cases are TSan/ASan targets: readers race assert/retract
// storms and must never observe a freed tuple or a torn (half-committed)
// snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>

#include "core/epoch.hpp"
#include "obs/metrics.hpp"
#include "process/runtime.hpp"
#include "txn/engine.hpp"

namespace sdl {
namespace {

Transaction prep(TxnBuilder b, SymbolTable& st, Env& env) {
  Transaction t = b.build();
  t.resolve(st);
  env.resize(static_cast<std::size_t>(st.size()));
  return t;
}

class OptimisticReadTest : public ::testing::Test {
 protected:
  Dataspace space{8};
  WaitSet waits;
  FunctionRegistry fns;
  ShardedEngine engine{space, waits, &fns};
};

TEST_F(OptimisticReadTest, UncontendedReadValidatesFirstTry) {
  space.insert(tup("a", 42), 0);
  SymbolTable st;
  Env env;
  Transaction read =
      prep(TxnBuilder().exists({"v"}).match(pat({A("a"), V("v")})), st, env);
  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(engine.execute(read, env, 1).success);
  }
  EXPECT_EQ(engine.stats().read_optimistic.load(), kN);
  EXPECT_EQ(engine.stats().read_retries.load(), 0u);
  EXPECT_EQ(engine.stats().read_fallbacks.load(), 0u);
}

TEST_F(OptimisticReadTest, OptimisticReadsAreNotCountedAsSharedAcquires) {
  // The EngineStats/obs audit: the lock-free path must leave the lock
  // instrumentation untouched — its footprint is the read_* counters.
  obs::MetricsRegistry registry;
  obs::RuntimeMetrics metrics(registry);
  const bool was_enabled = obs::enabled();
  const std::uint32_t period = obs::span_sample_period();
  obs::set_enabled(true);
  obs::set_span_sample_period(1);  // sample every txn: no thinning excuse
  engine.set_metrics(&metrics);

  space.insert(tup("a", 1), 0);
  SymbolTable st;
  Env env;
  Transaction read =
      prep(TxnBuilder().exists({"v"}).match(pat({A("a"), V("v")})), st, env);
  constexpr int kN = 50;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(engine.execute(read, env, 1).success);
  }
  EXPECT_EQ(metrics.lock_shared_acquired->load(), 0u)
      << "optimistic reads took (or were counted as) shared locks";
  EXPECT_EQ(metrics.lock_exclusive_acquired->load(), 0u);
  EXPECT_EQ(metrics.read_optimistic_ok->load(), kN);
  EXPECT_EQ(metrics.read_lock_fallback->load(), 0u);

  engine.set_metrics(nullptr);
  obs::set_span_sample_period(period);
  obs::set_enabled(was_enabled);
}

TEST_F(OptimisticReadTest, OddVersionPoisonsAttemptAndFallsBack) {
  // Hold every shard's seqlock odd (a writer mid-commit, frozen): the
  // optimistic attempts must all reject their samples, and the engine
  // must fall back to the shared-lock path — which succeeds, because the
  // "writer" holds no actual lock here.
  space.insert(tup("a", 7), 0);
  for (std::size_t si = 0; si < space.shard_count(); ++si) {
    space.begin_shard_write(si);
  }
  SymbolTable st;
  Env env;
  Transaction read =
      prep(TxnBuilder().exists({"v"}).match(pat({A("a"), V("v")})), st, env);
  const TxnResult r = engine.execute(read, env, 1);
  EXPECT_TRUE(r.success) << "fallback path must still answer";
  EXPECT_EQ(engine.stats().read_fallbacks.load(), 1u);
  EXPECT_EQ(engine.stats().read_retries.load(),
            static_cast<std::uint64_t>(ShardedEngine::kOptimisticAttempts));
  EXPECT_EQ(engine.stats().read_optimistic.load(), 0u);
  for (std::size_t si = 0; si < space.shard_count(); ++si) {
    space.end_shard_write(si);
  }
  // World quiet again: back on the lock-free path.
  ASSERT_TRUE(engine.execute(read, env, 1).success);
  EXPECT_EQ(engine.stats().read_optimistic.load(), 1u);
}

TEST_F(OptimisticReadTest, ProbeUsesOptimisticPath) {
  space.insert(tup("year", 90), 0);
  SymbolTable st;
  Env env;
  Transaction take = prep(TxnBuilder(TxnType::Delayed)
                              .exists({"a"})
                              .match(pat({A("year"), V("a")}), true)
                              .assert_tuple({lit(Value::atom("found")),
                                             evar("a")}),
                          st, env);
  EXPECT_TRUE(engine.probe(take, env, nullptr));
  EXPECT_EQ(engine.stats().probes.load(), 1u);
  EXPECT_EQ(engine.stats().read_optimistic.load(), 1u)
      << "probe should answer from the lock-free path";
}

TEST_F(OptimisticReadTest, BlindAssertCommitsAndPublishes) {
  SymbolTable st;
  Env env;
  // Pure-guard assert: reads nothing, targets one bucket.
  Transaction blind = prep(
      TxnBuilder().where(lit(true)).assert_tuple({lit(Value::atom("log")),
                                                  lit(1)}),
      st, env);
  int woken = 0;
  WaitSet::Interest everything;
  everything.everything = true;
  const auto ticket = waits.subscribe(everything, [&] { ++woken; });
  ASSERT_TRUE(engine.execute(blind, env, 1).success);
  EXPECT_EQ(space.count(tup("log", 1)), 1u);
  EXPECT_EQ(engine.stats().blind_asserts.load(), 1u);
  EXPECT_EQ(woken, 1) << "blind asserts must still publish wakeups";
  waits.unsubscribe(ticket);

  // A false guard fails without committing (and without the fast-path
  // counter moving).
  SymbolTable st2;
  Env env2;
  Transaction gated = prep(
      TxnBuilder().where(lit(false)).assert_tuple({lit(Value::atom("log")),
                                                   lit(2)}),
      st2, env2);
  EXPECT_FALSE(engine.execute(gated, env2, 1).success);
  EXPECT_EQ(engine.stats().blind_asserts.load(), 1u);
  EXPECT_EQ(space.count(tup("log", 2)), 0u);
}

// ------------------------------------------------------------ TSan stress

TEST_F(OptimisticReadTest, ReadersNeverObserveTornCommits) {
  // Writers keep the invariant "[p, n] and [q, n] always carry the same
  // n" by retracting and re-asserting BOTH in one transaction. A reader
  // joins [p, x], [q, x] on a shared variable: any torn observation —
  // half a commit, a mid-rebuild bucket, a half-linked node — makes the
  // join fail. Every read must succeed and must see n monotonically
  // non-decreasing.
  space.insert(tup("p", 0), 0);
  space.insert(tup("q", 0), 0);
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kPerWriter = 300;
  constexpr int kPerReader = 600;
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < kWriters; ++w) {
      workers.emplace_back([&, w] {
        SymbolTable st;
        Env env;
        Transaction step = prep(TxnBuilder(TxnType::Delayed)
                                    .exists({"n"})
                                    .match(pat({A("p"), V("n")}), true)
                                    .match(pat({A("q"), V("n")}), true)
                                    .assert_tuple({lit(Value::atom("p")),
                                                   add(evar("n"), lit(1))})
                                    .assert_tuple({lit(Value::atom("q")),
                                                   add(evar("n"), lit(1))}),
                                st, env);
        for (int i = 0; i < kPerWriter; ++i) {
          ASSERT_TRUE(execute_blocking(engine, step, env,
                                       static_cast<ProcessId>(w + 1))
                          .success);
        }
      });
    }
    for (int t = 0; t < kReaders; ++t) {
      workers.emplace_back([&, t] {
        SymbolTable st;
        Env env;
        Transaction read = prep(TxnBuilder()
                                    .exists({"x"})
                                    .match(pat({A("p"), V("x")}))
                                    .match(pat({A("q"), V("x")})),
                                st, env);
        const int slot = *st.lookup("x");
        std::int64_t last = -1;
        for (int i = 0; i < kPerReader; ++i) {
          const TxnResult r = engine.execute(
              read, env, static_cast<ProcessId>(kWriters + t + 1));
          ASSERT_TRUE(r.success) << "torn snapshot: [p] and [q] disagreed";
          const std::int64_t seen =
              env[static_cast<std::size_t>(slot)].as_int();
          ASSERT_GE(seen, last) << "reader observed a rollback";
          last = seen;
        }
      });
    }
  }
  EXPECT_EQ(space.count(tup("p", kWriters * kPerWriter)), 1u);
  EXPECT_EQ(space.count(tup("q", kWriters * kPerWriter)), 1u);
  // Reads under contention either validated or fell back — both fine —
  // but the counters must account for every read attempt's outcome.
  EXPECT_GT(engine.stats().read_optimistic.load() +
                engine.stats().read_fallbacks.load(),
            0u);
}

TEST_F(OptimisticReadTest, ScanStormOverChurningBucketIsMemorySafe) {
  // Readers full-scan a bucket (ForAll collects every match) while
  // writers churn it with inserts and retracts of short-lived tuples —
  // nodes are constantly unlinked and EBR-retired mid-scan. ASan/TSan
  // judge this test: a premature free or a torn pointer is a crash or a
  // race report, not an assertion failure.
  space.insert(tup("item", -1), 0);  // one permanent resident
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kChurn = 400;
  constexpr int kScans = 500;
  std::atomic<bool> stop{false};
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < kWriters; ++w) {
      workers.emplace_back([&, w] {
        SymbolTable st;
        Env env;
        Transaction put = prep(TxnBuilder().assert_tuple(
                                   {lit(Value::atom("item")), lit(w)}),
                               st, env);
        Transaction take = prep(TxnBuilder(TxnType::Delayed)
                                    .exists({"v"})
                                    .match(pat({A("item"), V("v")}), true)
                                    .where(eq(evar("v"), lit(w))),
                                st, env);
        for (int i = 0; i < kChurn; ++i) {
          ASSERT_TRUE(engine.execute(put, env, 1).success);
          ASSERT_TRUE(
              execute_blocking(engine, take, env, static_cast<ProcessId>(w + 1))
                  .success);
        }
        stop.store(true, std::memory_order_relaxed);
      });
    }
    for (int t = 0; t < kReaders; ++t) {
      workers.emplace_back([&, t] {
        SymbolTable st;
        Env env;
        Transaction scan = prep(
            TxnBuilder().forall({"v"}).match(pat({A("item"), V("v")})), st,
            env);
        for (int i = 0; i < kScans && !stop.load(std::memory_order_relaxed);
             ++i) {
          const TxnResult r = engine.execute(
              scan, env, static_cast<ProcessId>(kWriters + t + 1));
          ASSERT_TRUE(r.success) << "ForAll is vacuous-true at minimum";
          ASSERT_GE(r.matches.size(), 1u)
              << "the permanent resident must always be visible";
          for (const QueryMatch& match : r.matches) {
            (void)match;  // bindings are deep copies; touching them is the test
          }
        }
      });
    }
  }
  // Retract storm over: grace periods expire once the threads quiesce.
  epoch::drain();
  EXPECT_EQ(epoch::backlog(), 0u);
}

TEST_F(OptimisticReadTest, ArityScanOverFlippingBucketsIsConsistent) {
  // Each writer owns a ring of distinct-head cells [c, v] holding ONE
  // token, and moves it one cell on per transaction (retract [c, v] and
  // assert [c+1, v] in one commit): every move empties one bucket and
  // fills another, so buckets keep leaving and re-entering their shard's
  // occupancy list under concurrent head-blind readers. A read-only
  // ForAll over [c, v] is an arity-wide scan on the optimistic path;
  // every read that validates (or falls back) must see every token
  // exactly once.
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kCells = 24;
  constexpr int kStatic = 256;
  constexpr int kMoves = 2000;
  constexpr int kMinScans = 200;
  for (int i = 0; i < kStatic; ++i) space.insert(tup(-1 - i, 0), 0);
  std::int64_t total = 0;
  for (int w = 0; w < kWriters; ++w) {
    space.insert(tup(1000 * (w + 1), 7 * (w + 1)), 0);
    total += 7 * (w + 1);
  }
  std::atomic<int> writers_done{0};
  std::latch start(kWriters + kReaders);
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < kWriters; ++w) {
      workers.emplace_back([&, w] {
        SymbolTable st;
        Env env;
        std::vector<Transaction> hop;
        for (int c = 0; c < kCells; ++c) {
          const std::int64_t from = 1000 * (w + 1) + c;
          const std::int64_t to = 1000 * (w + 1) + (c + 1) % kCells;
          hop.push_back(prep(TxnBuilder(TxnType::Delayed)
                                 .exists({"v"})
                                 .match(pat({C(Value(from)), V("v")}), true)
                                 .assert_tuple({lit(Value(to)), evar("v")}),
                             st, env));
        }
        start.arrive_and_wait();
        for (int i = 0; i < kMoves; ++i) {
          ASSERT_TRUE(execute_blocking(engine,
                                       hop[static_cast<std::size_t>(i % kCells)],
                                       env, static_cast<ProcessId>(w + 1))
                          .success);
        }
        writers_done.fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (int t = 0; t < kReaders; ++t) {
      workers.emplace_back([&, t] {
        SymbolTable st;
        Env env;
        Transaction scan = prep(
            TxnBuilder().forall({"c", "v"}).match(pat({V("c"), V("v")})), st,
            env);
        const auto slot = static_cast<std::size_t>(*st.lookup("v"));
        start.arrive_and_wait();
        // Scan for as long as writers run (and at least kMinScans times).
        for (int i = 0;
             i < kMinScans ||
             writers_done.load(std::memory_order_relaxed) < kWriters;
             ++i) {
          const TxnResult r = engine.execute(
              scan, env, static_cast<ProcessId>(kWriters + t + 1));
          ASSERT_TRUE(r.success);
          ASSERT_EQ(r.matches.size(),
                    static_cast<std::size_t>(kWriters + kStatic))
              << "a scan missed or repeated a bucket";
          std::int64_t sum = 0;
          for (const QueryMatch& m : r.matches) sum += m.binding[slot].as_int();
          ASSERT_EQ(sum, total) << "a scan saw an inconsistent token total";
        }
      });
    }
  }
  EXPECT_GT(engine.stats().read_optimistic.load(), 0u)
      << "no read validated on the lock-free path";
  EXPECT_EQ(space.size(), static_cast<std::size_t>(kWriters + kStatic));
}

TEST_F(OptimisticReadTest, TeardownDrainsRetiredNodes) {
  epoch::drain();
  {
    Dataspace local(4);
    WaitSet w2;
    ShardedEngine e2(local, w2, &fns);
    SymbolTable st;
    Env env;
    Transaction put = prep(
        TxnBuilder().assert_tuple({lit(Value::atom("x")), lit(1)}), st, env);
    Transaction take = prep(TxnBuilder(TxnType::Delayed)
                                .exists({"v"})
                                .match(pat({A("x"), V("v")}), true),
                            st, env);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(e2.execute(put, env, 1).success);
      ASSERT_TRUE(execute_blocking(e2, take, env, 1).success);
    }
    // ~Dataspace drains what the retract storm retired.
  }
  EXPECT_EQ(epoch::backlog(), 0u);
}

TEST(EpochTeardown, SchedulerKillTeardownDrainsRetiredNodes) {
  // Scheduler::kill is the abnormal-teardown path: a run that reaps a
  // killed process must still leave the epoch backlog empty when run()
  // returns — the scheduler drains at exit, kills included.
  RuntimeOptions o;
  o.scheduler.workers = 2;
  Runtime rt(o);
  rt.seed(tup("c", 0));
  ProcessDef inc;
  inc.name = "Inc";
  inc.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .exists({"x"})
                           .match(pat({A("c"), V("x")}), true)
                           .assert_tuple({lit(Value::atom("c")),
                                          add(evar("x"), lit(1))})
                           .build())});
  ProcessDef waiter;
  waiter.name = "Waiter";
  waiter.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                              .match(pat({A("never")}), true)
                              .build())});
  rt.define(std::move(inc));
  rt.define(std::move(waiter));
  for (int i = 0; i < 16; ++i) rt.spawn("Inc");
  const ProcessId victim = rt.spawn("Waiter");
  const RunReport first = rt.run();  // retract storm; waiter parks forever
  EXPECT_TRUE(rt.scheduler().kill(victim));
  const RunReport second = rt.run();  // reaps the kill, then drains
  EXPECT_EQ(second.killed.size(), 1u);
  EXPECT_EQ(rt.space().count(tup("c", 16)), 1u) << first.errors.size();
  EXPECT_EQ(epoch::backlog(), 0u)
      << "run() with a killed process left retired nodes undrained";
}

}  // namespace
}  // namespace sdl
