#include "fault/fault.hpp"

#include <chrono>
#include <thread>

namespace sdl {
namespace {

/// splitmix64 — the decision stream's mixer. Statistical quality is ample
/// for firing decisions, and it is a pure function, which is the property
/// that makes the stream deterministic under any thread interleaving.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* fault_point_name(FaultPoint p) {
  switch (p) {
    case FaultPoint::EngineCommit: return "engine-commit";
    case FaultPoint::WaitSetPublish: return "waitset-publish";
    case FaultPoint::WakeDeliver: return "wake-deliver";
    case FaultPoint::SchedulerDispatch: return "scheduler-dispatch";
    case FaultPoint::ConsensusClaim: return "consensus-claim";
    case FaultPoint::ConsensusCommit: return "consensus-commit";
    case FaultPoint::WalAppend: return "wal-append";
    case FaultPoint::SnapshotWrite: return "snapshot-write";
    case FaultPoint::AdmissionShed: return "admission-shed";
    case FaultPoint::ReplSend: return "repl-send";
    case FaultPoint::ReplApply: return "repl-apply";
  }
  return "?";
}

const char* fault_action_name(FaultAction a) {
  switch (a) {
    case FaultAction::None: return "none";
    case FaultAction::Delay: return "delay";
    case FaultAction::SpuriousWake: return "spurious-wake";
    case FaultAction::FailCommit: return "fail-commit";
    case FaultAction::Kill: return "kill";
  }
  return "?";
}

void FaultInjector::arm(FaultPoint point, FaultAction action,
                        std::uint32_t permille, std::uint64_t max_fires) {
  Point& pt = points_[static_cast<std::size_t>(point)];
  // Quiesce the point before replacing its configuration so a concurrent
  // decide() never fires the new action against the old budget.
  pt.action.store(static_cast<std::uint8_t>(FaultAction::None),
                  std::memory_order_release);
  pt.permille.store(permille > 1000 ? 1000 : permille, std::memory_order_relaxed);
  pt.remaining.store(max_fires == 0 ? -1 : static_cast<std::int64_t>(max_fires),
                     std::memory_order_relaxed);
  pt.ordinal.store(0, std::memory_order_relaxed);
  pt.fired.store(0, std::memory_order_relaxed);
  pt.action.store(static_cast<std::uint8_t>(action), std::memory_order_release);
}

void FaultInjector::disarm(FaultPoint point) {
  points_[static_cast<std::size_t>(point)].action.store(
      static_cast<std::uint8_t>(FaultAction::None), std::memory_order_release);
}

FaultAction FaultInjector::decide(FaultPoint point) {
  Point& pt = points_[static_cast<std::size_t>(point)];
  const auto action =
      static_cast<FaultAction>(pt.action.load(std::memory_order_acquire));
  if (action == FaultAction::None) return FaultAction::None;
  const std::uint64_t ord = pt.ordinal.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h =
      mix(seed_ ^ (static_cast<std::uint64_t>(point) << 56) ^ ord);
  if (h % 1000 >= pt.permille.load(std::memory_order_relaxed)) {
    return FaultAction::None;
  }
  // Bounded budget: claim one fire; losers of the last slot see None.
  if (pt.remaining.load(std::memory_order_relaxed) >= 0) {
    if (pt.remaining.fetch_sub(1, std::memory_order_acq_rel) <= 0) {
      pt.remaining.store(0, std::memory_order_relaxed);
      return FaultAction::None;
    }
  }
  pt.fired.fetch_add(1, std::memory_order_relaxed);
  return action;
}

void FaultInjector::delay() {
  const std::uint64_t us = jitter_us(99);
  std::this_thread::yield();
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

std::uint64_t FaultInjector::jitter_us(std::uint64_t max_us) {
  if (max_us == 0) return 0;
  const std::uint64_t ord =
      jitter_ordinal_.fetch_add(1, std::memory_order_relaxed);
  return mix(seed_ ^ 0xfa017ull ^ ord) % (max_us + 1);
}

std::uint64_t FaultInjector::crossings(FaultPoint point) const {
  return points_[static_cast<std::size_t>(point)].ordinal.load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::fired(FaultPoint point) const {
  return points_[static_cast<std::size_t>(point)].fired.load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::total_fired() const {
  std::uint64_t total = 0;
  for (const Point& pt : points_) {
    total += pt.fired.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace sdl
