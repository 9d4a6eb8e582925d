// AdmissionGate unit tests: the in-flight limit, the RetryAfter hint and
// the deterministic AdmissionShed fault point — the gate
// docs/IMPLEMENTATION.md §15 documents, tested in isolation from the
// runtime.
#include "control/admission.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace sdl::control {
namespace {

// ---- admission gate --------------------------------------------------------

TEST(AdmissionGate, UnlimitedWhenZero) {
  AdmissionGate ctl(0);
  std::int64_t ra = 0;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ctl.try_admit(&ra));
  EXPECT_EQ(ctl.stats().sheds.load(), 0u);
  EXPECT_EQ(ctl.stats().admitted.load(), 100u);
}

TEST(AdmissionGate, ShedsAtLimitAndRecoversOnRelease) {
  AdmissionGate ctl(2);
  std::int64_t ra = 0;
  ASSERT_TRUE(ctl.try_admit(&ra));
  ASSERT_TRUE(ctl.try_admit(&ra));
  EXPECT_EQ(ctl.inflight(), 2u);
  EXPECT_FALSE(ctl.try_admit(&ra));
  EXPECT_GT(ra, 0);  // RetryAfter hint always set on a shed
  EXPECT_EQ(ctl.inflight(), 2u);  // failed claim fully undone
  EXPECT_EQ(ctl.stats().sheds.load(), 1u);
  ctl.release();
  EXPECT_TRUE(ctl.try_admit(&ra));
  EXPECT_EQ(ctl.stats().admitted.load(), 3u);
}

TEST(AdmissionGate, RetryAfterScalesWithExcess) {
  AdmissionGate ctl(1);
  std::int64_t ra = 0;
  ASSERT_TRUE(ctl.try_admit(&ra));
  ASSERT_FALSE(ctl.try_admit(&ra));
  const std::int64_t first = ra;
  EXPECT_GE(first, AdmissionGate::kRetryAfterUs);
  // Pile on more demand without releasing: the hint must not shrink, and
  // with racing claimants it grows with queue depth.
  std::vector<std::jthread> threads;
  std::atomic<std::int64_t> max_hint{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      std::int64_t hint = 0;
      for (int i = 0; i < 64; ++i) {
        if (!ctl.try_admit(&hint)) {
          std::int64_t cur = max_hint.load();
          while (hint > cur && !max_hint.compare_exchange_weak(cur, hint)) {
          }
        } else {
          ctl.release();
        }
      }
    });
  }
  threads.clear();
  EXPECT_GE(max_hint.load(), first);
  EXPECT_EQ(ctl.inflight(), 1u);  // every transient claim undone or released
}

TEST(AdmissionGate, ConcurrentClaimsNeverExceedLimitSteadyState) {
  AdmissionGate ctl(4);
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  std::atomic<std::uint64_t> admitted{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        std::int64_t ra = 0;
        for (int i = 0; i < 2000; ++i) {
          if (ctl.try_admit(&ra)) {
            const int now = active.fetch_add(1) + 1;
            int p = peak.load();
            while (now > p && !peak.compare_exchange_weak(p, now)) {
            }
            admitted.fetch_add(1);
            active.fetch_sub(1);
            ctl.release();
          }
        }
      });
    }
  }
  EXPECT_EQ(ctl.inflight(), 0u);
  EXPECT_GT(admitted.load(), 0u);
  // The claim is optimistic (fetch_add then undo), so the *admitted*
  // concurrency never exceeds the cap even though the raw counter may
  // transiently overshoot.
  EXPECT_LE(peak.load(), 4);
}

// ---- fault points ----------------------------------------------------------

TEST(OverloadFaults, ArmedAdmissionShedForcesSheds) {
  AdmissionGate ctl(100);
  FaultInjector faults(42);
  ctl.set_fault_injector(&faults);
  faults.arm(FaultPoint::AdmissionShed, FaultAction::FailCommit, 1000,
             /*max_fires=*/3);
  std::int64_t ra = 0;
  int sheds = 0;
  for (int i = 0; i < 10; ++i) {
    if (!ctl.try_admit(&ra)) {
      ++sheds;
      EXPECT_EQ(ra, AdmissionGate::kRetryAfterUs);
    } else {
      ctl.release();
    }
  }
  EXPECT_EQ(sheds, 3);  // max_fires bounds the forced sheds exactly
  EXPECT_EQ(ctl.stats().sheds.load(), 3u);
}

TEST(OverloadFaults, DecisionStreamIsSeedDeterministic) {
  // Same seed, same permille: the shed pattern across crossings must be
  // bit-identical run to run (the sim-mode contract for new points).
  const auto pattern = [](std::uint64_t seed) {
    AdmissionGate ctl(100);
    FaultInjector faults(seed);
    ctl.set_fault_injector(&faults);
    faults.arm(FaultPoint::AdmissionShed, FaultAction::FailCommit, 300);
    std::vector<bool> shed;
    std::int64_t ra = 0;
    for (int i = 0; i < 200; ++i) {
      const bool ok = ctl.try_admit(&ra);
      shed.push_back(!ok);
      if (ok) ctl.release();
    }
    return shed;
  };
  EXPECT_EQ(pattern(7), pattern(7));
  EXPECT_NE(pattern(7), pattern(8));  // and the seed actually matters
}

TEST(OverloadFaults, DetachRestoresNormalDecisions) {
  AdmissionGate ctl(100);
  FaultInjector faults(1);
  ctl.set_fault_injector(&faults);
  faults.arm(FaultPoint::AdmissionShed, FaultAction::FailCommit, 1000);
  std::int64_t ra = 0;
  EXPECT_FALSE(ctl.try_admit(&ra));
  ctl.set_fault_injector(nullptr);
  EXPECT_TRUE(ctl.try_admit(&ra));
  ctl.release();
}

}  // namespace
}  // namespace sdl::control
