// End-to-end admission control through the Runtime: the gate sheds host
// transactions with a RetryAfter hint, and its decisions are visible in
// the unified obs export.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "process/runtime.hpp"

namespace sdl {
namespace {

RuntimeOptions small_opts() {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  return o;
}

TEST(OverloadRuntime, DisabledByDefaultAndGaugesAbsent) {
  Runtime rt(small_opts());
  EXPECT_EQ(rt.admission(), nullptr);
  const std::string json = rt.metrics().to_json();
  EXPECT_EQ(json.find("sdl_admission_shed_total"), std::string::npos)
      << "admission gauges must not register when the gate is off";
}

TEST(OverloadRuntime, AdmissionShedsPastInflightLimit) {
  RuntimeOptions o = small_opts();
  o.max_inflight = 1;
  Runtime rt(o);
  ASSERT_NE(rt.admission(), nullptr);
  rt.seed(tup("c", 0));

  // Occupy the single in-flight slot: a delayed transaction blocked on a
  // tuple nobody has asserted yet.
  std::atomic<bool> blocked_done{false};
  std::thread blocker([&] {
    SymbolTable st;
    Transaction wait = TxnBuilder(TxnType::Delayed)
                           .match(pat({A("go")}), true)
                           .build();
    wait.resolve(st);
    Env env(static_cast<std::size_t>(st.size()));
    const TxnResult r = rt.execute(wait, env);
    EXPECT_TRUE(r.success);
    blocked_done.store(true);
  });
  while (rt.admission()->inflight() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Second host transaction: shed at the gate, nothing evaluated.
  SymbolTable st;
  Transaction read = TxnBuilder()
                         .exists({"v"})
                         .match(pat({A("c"), V("v")}))
                         .build();
  read.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));
  const TxnResult shed = rt.execute(read, env);
  EXPECT_FALSE(shed.success);
  EXPECT_TRUE(shed.shed);
  EXPECT_GE(shed.retry_after_us, control::AdmissionGate::kRetryAfterUs);
  EXPECT_TRUE(shed.matches.empty());
  EXPECT_GE(rt.admission()->stats().sheds.load(), 1u);

  // Unblock, then the gate admits again.
  rt.seed(tup("go"));
  blocker.join();
  EXPECT_TRUE(blocked_done.load());
  const TxnResult ok = rt.execute(read, env);
  EXPECT_TRUE(ok.success);
  EXPECT_FALSE(ok.shed);
  EXPECT_EQ(rt.admission()->inflight(), 0u) << "admission slot leaked";
}

TEST(OverloadRuntime, OverloadGaugesInUnifiedExport) {
  RuntimeOptions o = small_opts();
  o.max_inflight = 8;
  Runtime rt(o);
  const std::string json = rt.metrics().to_json();
  for (const char* name : {"sdl_admission_inflight", "sdl_admitted_total",
                           "sdl_admission_shed_total"}) {
    EXPECT_NE(json.find(name), std::string::npos)
        << name << " missing from obs export";
  }
  // And the prometheus rendering carries them too.
  EXPECT_NE(rt.metrics().to_prometheus().find("sdl_admission_shed_total"),
            std::string::npos);
}

TEST(OverloadRuntime, FaultForcedShedIsDeterministicPerSeed) {
  const auto shed_pattern = [](std::uint64_t seed) {
    RuntimeOptions o = small_opts();
    o.max_inflight = 64;  // never organically shed
    Runtime rt(o);
    rt.seed(tup("c", 0));
    FaultInjector& faults = rt.enable_faults(seed);
    faults.arm(FaultPoint::AdmissionShed, FaultAction::FailCommit, 250);
    SymbolTable st;
    Transaction read = TxnBuilder()
                           .exists({"v"})
                           .match(pat({A("c"), V("v")}))
                           .build();
    read.resolve(st);
    Env env(static_cast<std::size_t>(st.size()));
    std::string pattern;
    for (int i = 0; i < 100; ++i) {
      pattern += rt.execute(read, env).shed ? '1' : '0';
    }
    return pattern;
  };
  EXPECT_EQ(shed_pattern(99), shed_pattern(99));
  EXPECT_NE(shed_pattern(99), shed_pattern(100));
}

}  // namespace
}  // namespace sdl
