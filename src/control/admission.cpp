#include "control/admission.hpp"

namespace sdl::control {

bool AdmissionGate::try_admit(std::int64_t* retry_after_us) {
  if (FaultInjector* f = faults_.load(std::memory_order_acquire);
      f != nullptr) {
    if (f->decide(FaultPoint::AdmissionShed) != FaultAction::None) {
      stats_.sheds.fetch_add(1, std::memory_order_relaxed);
      if (retry_after_us != nullptr) *retry_after_us = kRetryAfterUs;
      return false;
    }
  }
  if (max_inflight_ == 0) {
    stats_.admitted.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // Optimistic claim + undo on overflow: the gate is crossed once per
  // host transaction, so one fetch_add beats a CAS loop; momentary
  // overshoot by the number of racing claimants is harmless (they all
  // undo).
  const std::size_t prev = inflight_.fetch_add(1, std::memory_order_acquire);
  if (prev >= max_inflight_) {
    inflight_.fetch_sub(1, std::memory_order_release);
    stats_.sheds.fetch_add(1, std::memory_order_relaxed);
    if (retry_after_us != nullptr) {
      // Load-scaled hint: the further past the limit demand is, the longer
      // the caller should stay away. `prev` counts the claimants ahead of
      // us, so (prev - limit + 1) is our queue-depth-equivalent.
      const std::size_t excess = prev - max_inflight_ + 1;
      *retry_after_us =
          kRetryAfterUs * static_cast<std::int64_t>(excess < 64 ? excess : 64);
    }
    return false;
  }
  stats_.admitted.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AdmissionGate::release() {
  inflight_.fetch_sub(1, std::memory_order_release);
}

}  // namespace sdl::control
