// Consensus transactions (§2.2, "Consensus Transactions").
//
// "A consensus set is defined as a set of processes closed under the
//  transitive closure of the relation
//      p needs q ≡ (Import(p) ∩ Import(q) ∩ D ≠ ∅).
//  A consensus transaction is executed whenever all processes in the
//  consensus set are ready to execute consensus transactions.
//  Determination that consensus has been reached is very similar to the
//  quiescence detection problem. The composite effect on the dataspace is
//  computed by first performing the retractions associated with each of
//  the participating transactions and then the corresponding additions."
//
// Implementation: detection is local to what changed. Between detection
// passes the manager records *seeds* — processes whose consensus set may
// have become fireable:
//   * a process that parked with offers;
//   * the old neighbours of a process that parked or retired (its
//     departure from the runnable set may have split a set);
//   * ready processes whose import summary covers a bucket a commit
//     touched (a retraction may have removed the tuple that tied them to
//     a process that is not ready, or made an unsatisfiable offer
//     satisfiable).
// Seeds are recorded only while some process is parked with offers: a
// set that becomes fireable later contains a process that parks later,
// which seeds itself. An unpark seeds nothing — a runnable process's
// edges are a superset of its parked ones, so it can only block a set.
//
// A pass, under total exclusion, grows each ready seed's consensus set
// and stops at the first member that is not ready; a set whose members
// are all ready fires (claim → evaluate → composite commit).
//
// Neighbours are found through a keyed index of every live process's
// frozen ImportSummary (bucket key → pids, arity → pids, import-all
// list), maintained at spawn and retire, so a lookup costs one probe per
// imported tuple instead of a scan of the society.
//
// Import sets: for parked processes (stable environments) the overlap is
// exact — tuple-level, per the paper. For runnable processes (whose
// environments cannot be read safely) the summary over-approximates the
// import set; an over-approximation can only delay a fire, never produce
// a wrong one.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "process/scheduler.hpp"

namespace sdl {

class ConsensusManager final : public WaitSet::CommitListener {
 public:
  /// Differential-testing hook: sees every fire and every quiet point of
  /// the detection loop. Both calls run under total exclusion with the
  /// society locked, so the observer may inspect every process and D.
  class Observer {
   public:
    /// A pass found `members` (sorted by pid) all ready and is about to
    /// claim and fire them; called for every such set of the pass before
    /// the first fire, so all see the pass's pre-state.
    virtual void on_fire(const Scheduler::Society& society,
                         const std::vector<Process*>& members) = 0;
    /// A detection loop ended with nothing more to fire.
    virtual void on_quiet(const Scheduler::Society& society) = 0;

   protected:
    ~Observer() = default;
  };

  /// Registers with the engine's WaitSet for commit seeds.
  ConsensusManager(Engine& engine, Scheduler& scheduler);
  ~ConsensusManager();

  ConsensusManager(const ConsensusManager&) = delete;
  ConsensusManager& operator=(const ConsensusManager&) = delete;

  /// Something consensus-relevant happened; run detection passes until
  /// none fires. Reentrant and thread-safe: concurrent callers collapse
  /// into one detecting thread.
  void notify();

  // ---- Seeds and the neighbour index (scheduler hooks) ----

  /// Indexes a new process's summary. Caller holds the society lock.
  void on_spawn(Process& p);
  /// Unindexes a retiring process and seeds its old neighbours. Caller
  /// holds the society lock, and erases `p` in the same critical section.
  void on_retire(const Process& p);
  /// `p` just became Parked: seeds it if it offers, and its old
  /// neighbours. Caller holds p.state_mutex.
  void on_park(const Process& p);
  /// WaitSet::CommitListener: seeds the processes whose summary covers a
  /// touched bucket.
  void on_commit(const std::vector<IndexKey>& touched) override;

  /// Arms the ConsensusClaim / ConsensusCommit injection points (null
  /// disables). FailCommit at either point aborts the fire attempt via
  /// the claim-revert path — every member returns to Parked with its
  /// offers intact and is seeded again, so an injected abort can delay a
  /// consensus but never wedge or corrupt it. (Arming FailCommit at
  /// permille 1000 with unlimited fires is a livelock by construction —
  /// chaos tests bound the fire budget instead.)
  void set_fault_injector(FaultInjector* f) { faults_ = f; }

  /// Arms the claim-to-fire latency instrument (null disables; also
  /// re-gated on the SDL_OBS runtime flag, once per fired component).
  void set_metrics(obs::RuntimeMetrics* m) { metrics_ = m; }

  /// Installs the differential-testing observer (null removes it). Set
  /// between runs, never during.
  void set_observer(Observer* o) { observer_ = o; }

  /// Consensus sets fired so far.
  [[nodiscard]] std::uint64_t fires() const {
    return fires_.load(std::memory_order_relaxed);
  }
  /// Detection passes performed, one or more per collapsed notify (E8
  /// instrumentation: detection work vs fires).
  [[nodiscard]] std::uint64_t sweeps() const {
    return sweeps_.load(std::memory_order_relaxed);
  }
  /// Processes expanded while growing consensus sets (E8: the work a
  /// pass does, which follows set size rather than society size).
  [[nodiscard]] std::uint64_t nodes_visited() const {
    return nodes_visited_.load(std::memory_order_relaxed);
  }
  /// Fire attempts aborted by an injected claim/commit fault (E16).
  [[nodiscard]] std::uint64_t injected_aborts() const {
    return injected_aborts_.load(std::memory_order_relaxed);
  }

 private:
  class Pass;
  enum class FireResult { Fired, Reverted, Aborted };

  /// Summaries by bucket. Written under both the society lock and
  /// mutex_; read under either.
  struct NeighbourIndex {
    std::unordered_map<IndexKey, std::vector<Process*>, IndexKeyHash> by_key;
    /// Arity-wide summary entries.
    std::unordered_map<std::uint32_t, std::vector<Process*>> by_arity;
    /// Processes with an exact summary key of this arity (what an
    /// arity-wide summary overlaps).
    std::unordered_map<std::uint32_t, std::vector<Process*>> keyed_arity;
    std::vector<Process*> everything;
  };

  /// One detection pass; returns true if it fired a set (or an injected
  /// fault aborted a fireable one) — the caller then runs another.
  bool detect_once();
  /// Claims, evaluates and commits one all-ready set (members sorted by
  /// pid), appending the touched keys. Caller holds total exclusion and
  /// the society lock.
  FireResult fire(const std::vector<Process*>& members,
                  std::vector<IndexKey>& touched);
  /// Takes the recorded seeds, resolved against `society`, sorted by pid.
  std::vector<Process*> take_seeds(const Scheduler::Society& society);
  void push_seed_locked(ProcessId pid);
  /// Seeds every process whose summary overlaps `summary` (mutex_ held).
  void seed_neighbours_locked(const ImportSummary& summary);
  /// Seeds the processes whose summary may cover `key` (mutex_ held).
  void seed_covering_locked(const IndexKey& key);
  [[nodiscard]] bool seeding() const {
    return scheduler_.consensus_waiters() > 0;
  }

  Engine& engine_;
  Scheduler& scheduler_;
  FaultInjector* faults_ = nullptr;
  obs::RuntimeMetrics* metrics_ = nullptr;
  Observer* observer_ = nullptr;

  std::mutex mutex_;  // guards the seeds and index_ writes
  NeighbourIndex index_;
  std::vector<ProcessId> seeds_;
  /// seeds_ is deduplicated when it reaches this size, so a long run of
  /// commits between passes keeps it within twice the society.
  std::size_t compact_at_ = 64;
  /// Seed every import-all process (a commit touched D).
  bool seed_everything_ = false;
  /// Seed every live process (an import-all process parked or retired).
  bool seed_all_ = false;

  std::atomic<bool> dirty_{false};
  std::atomic<bool> sweeping_{false};
  std::atomic<std::uint64_t> fires_{0};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> nodes_visited_{0};
  std::atomic<std::uint64_t> injected_aborts_{0};
};

}  // namespace sdl
