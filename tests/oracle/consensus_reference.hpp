// The whole-society consensus sweep, kept as the differential reference
// for the runtime's event-local detection (src/consensus).
//
// The reference re-derives the needs-graph of the entire society on
// every call: it reads every live process's state, collects every parked
// process's exact import set, and union-finds all overlaps — exact
// (tuple-level) between parked processes, bucket-level against runnable
// processes' frozen summaries, and through the import-all group when D is
// nonempty. A component may fire when every member is parked with a
// consensus offer and every member has a satisfiable offer. That is slow
// and obviously faithful to §2.2, which is the point of an oracle.
//
// ConsensusOracle hangs the reference on a Runtime's ConsensusManager:
// every set the detection fires must be exactly a reference component,
// and at every quiet point of the detection loop the reference must find
// nothing left to fire.
#pragma once

#include <string>
#include <vector>

#include "consensus/consensus.hpp"
#include "process/runtime.hpp"
#include "sim/explore.hpp"

namespace sdl::oracle {

/// Every needs-graph component of `society` whose members are all parked
/// with consensus offers; each sorted by pid, the list by first pid.
/// Caller holds total exclusion and the society lock.
[[nodiscard]] std::vector<std::vector<ProcessId>> ready_components(
    const Dataspace& space, const FunctionRegistry* fns,
    const Scheduler::Society& society);

/// Would the sweep fire `members` (an all-ready component) now — does
/// every member have an offer satisfiable against D through its window?
[[nodiscard]] bool satisfiable(const Dataspace& space,
                               const FunctionRegistry* fns,
                               const Scheduler::Society& society,
                               const std::vector<ProcessId>& members);

class ConsensusOracle final : public ConsensusManager::Observer {
 public:
  /// Observes `rt`'s consensus manager from now on, starting a fresh
  /// record. The oracle must outlive every run of `rt` (declare it before
  /// the Runtime); attaching to another runtime drops the old one.
  /// Quiet points are checked only under the deterministic scheduler:
  /// with worker threads a process may park with offers while the check
  /// runs, before its own notify, and the reference would count it early.
  void attach(Runtime& rt);

  void on_fire(const Scheduler::Society& society,
               const std::vector<Process*>& members) override;
  void on_quiet(const Scheduler::Society& society) override;

  /// For a quiescent runtime (after run()): the reference must find
  /// nothing left to fire.
  void check_quiescent();

  /// The first divergence seen, or empty.
  [[nodiscard]] const std::string& divergence() const { return divergence_; }
  /// Fires and quiet points compared so far.
  [[nodiscard]] std::size_t fires_checked() const { return fires_checked_; }
  [[nodiscard]] std::size_t quiet_checked() const { return quiet_checked_; }

 private:
  void check_nothing_fireable(const Scheduler::Society& society,
                              const char* where);
  void diverge(std::string what);

  Runtime* rt_ = nullptr;
  std::string divergence_;
  std::size_t fires_checked_ = 0;
  std::size_t quiet_checked_ = 0;
};

/// A ConsensusOracle for seed sweeps: attached to every runtime the
/// wrapped build makes; the wrapped check fails a schedule on the first
/// divergence before running the sweep's own check.
class SweepOracle {
 public:
  [[nodiscard]] sim::BuildFn build(sim::BuildFn inner);
  [[nodiscard]] sim::CheckFn check(sim::CheckFn inner);

  /// Fires and quiet points compared over every checked run.
  [[nodiscard]] std::size_t fires_checked() const { return fires_checked_; }
  [[nodiscard]] std::size_t quiet_checked() const { return quiet_checked_; }

 private:
  ConsensusOracle oracle_;
  std::size_t fires_checked_ = 0;
  std::size_t quiet_checked_ = 0;
};

}  // namespace sdl::oracle
