// The run's event log (S10): one append-only record of what the society
// did — spawns, commits, parks, wakes, terminations and environment
// seeds — that every debugging surface reads. The paper gives tuples
// identifiers so that "the owner may be determined" during "debugging and
// testing" (§2), and §4 calls for environments that let humans
// "assimilate voluminous information about the continuously changing
// program state"; the log serves both, and it is also the serialization
// witness the checker (check/check.hpp) replays.
//
// Commit events carry the tuple *instances* the query bound (reads), the
// instances erased (retracts) and the instances created (asserts), plus
// the consensus-fire ordinal (0 for an independent transaction; members
// of one fire share a nonzero ordinal and form one contiguous block). A
// commit's sequence number is assigned WHILE THE COMMIT'S LOCKS ARE HELD:
// under correct strict 2PL any two conflicting commits hold a common
// lock, so sequence order is a valid serialization witness.
//
// The log speaks only TupleId/ProcessId, so the engine can depend on it
// without a cycle. It is armed by handing the engine a pointer to it
// (Runtime::arm_log); disarmed, every recording site is one null-pointer
// branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "core/tuple.hpp"

namespace sdl {

enum class EventKind {
  Spawn,      // process created (label: definition name)
  Commit,     // transaction committed (label: the transaction rendered)
  Park,       // process blocked
  Wake,       // process unblocked
  Terminate,  // process finished
  Seed,       // environment asserted a tuple (asserts: its instance)
};

const char* to_string(EventKind k);

struct Event {
  std::uint64_t seq = 0;  // global recording order; for commits, the witness
  EventKind kind = EventKind::Commit;
  ProcessId pid = 0;
  std::string label;
  // Commit (and Seed) payload. Id vectors may contain duplicates (ForAll
  // matches); the checker dedupes.
  std::uint64_t consensus_fire = 0;  // 0 = independent transaction
  std::vector<TupleId> reads;
  std::vector<TupleId> retracts;
  std::vector<TupleId> asserts;
};

/// Thread-safe, append-only event log. Reset against the quiescent
/// dataspace, run, then read. The sequence counter is atomic so
/// concurrent read-only commits (which hold only shared locks) order
/// themselves; their relative order is free precisely because they do not
/// conflict.
class EventLog {
 public:
  /// Forgets every event and takes `initial` as the instances live before
  /// the first recorded event. Call while quiescent.
  void reset(std::vector<TupleId> initial);

  /// Appends `e`, assigning its sequence number. A Commit MUST be
  /// recorded with the commit's engine locks still held: the number
  /// assigned here is the serialization witness the checker validates.
  void record(Event e);
  /// Appends a lifecycle event (Spawn, Park, Wake, Terminate).
  void record(EventKind kind, ProcessId pid, std::string label);

  /// Appends the members of one consensus fire as one contiguous block of
  /// Commit events (their `seq` is assigned here; `consensus_fire` must be
  /// set). MUST be called under the composite's total exclusion.
  void record_fire(std::vector<Event> members);

  /// Every event, in sequence order.
  [[nodiscard]] std::vector<Event> events() const;
  /// Instances live when the log was reset.
  [[nodiscard]] std::vector<TupleId> initial() const;
  [[nodiscard]] std::uint64_t size() const;

  /// One line per event: "#42 commit pid=3 <label>", commits followed by
  /// their fire ordinal and instance sets.
  void dump_text(std::ostream& os) const;

 private:
  std::atomic<std::uint64_t> next_seq_{0};
  mutable std::mutex mutex_;  // guards events_ and initial_
  std::vector<Event> events_;
  std::vector<TupleId> initial_;
};

}  // namespace sdl
