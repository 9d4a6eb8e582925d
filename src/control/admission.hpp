// Admission control for host-submitted transactions (Runtime::execute).
//
// Under overload, work that is queued costs capacity exactly when capacity
// is gone ("Tuple spaces implementations and their efficiency" documents
// the resulting cliff in comparable runtimes). The gate bounds the number
// of host transactions in flight: at the limit a transaction is rejected
// immediately with TxnResult::shed and a load-scaled RetryAfter hint
// instead of queueing — rejecting early is the only move that costs less
// than the work being rejected. State diagram: docs/IMPLEMENTATION.md §15.
//
// The Runtime creates a gate only when RuntimeOptions::max_inflight is
// set, so a default runtime pays nothing and registers no admission
// gauges. Every decision is counted in Stats (exported as obs gauges by
// the Runtime) and a shed can be forced deterministically through the
// FaultInjector's AdmissionShed point.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "fault/fault.hpp"

namespace sdl::control {

class AdmissionGate {
 public:
  /// Base RetryAfter hint on a shed, µs; scaled up with excess load.
  static constexpr std::int64_t kRetryAfterUs = 100;

  /// Decision counters — relaxed atomics, always exact (one crossing per
  /// host transaction, not a per-op hot-path sample).
  struct Stats {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> sheds{0};
  };

  /// `max_inflight` = 0 admits everything (the AdmissionShed point still
  /// applies).
  explicit AdmissionGate(std::size_t max_inflight)
      : max_inflight_(max_inflight) {}
  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Claims one in-flight slot. Returns false (a shed) when the gate is at
  /// its limit or the AdmissionShed fault point forces one; then
  /// `*retry_after_us` carries the backoff hint, scaled by how far over
  /// the limit demand currently is. Callers MUST pair a true return with
  /// exactly one release().
  [[nodiscard]] bool try_admit(std::int64_t* retry_after_us);
  void release();
  [[nodiscard]] std::size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Arms the AdmissionShed point (null disables).
  void set_fault_injector(FaultInjector* f) {
    faults_.store(f, std::memory_order_release);
  }

  [[nodiscard]] Stats& stats() { return stats_; }

 private:
  const std::size_t max_inflight_;
  Stats stats_;
  std::atomic<FaultInjector*> faults_{nullptr};
  std::atomic<std::size_t> inflight_{0};
};

}  // namespace sdl::control
