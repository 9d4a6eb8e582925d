// The serializability checker (ISSUE 3 tentpole, part 2).
//
// Replays the Commit events of a recorded event log (trace/event_log.hpp),
// in sequence order, against a single-threaded reference model of the
// dataspace (a set of live instance ids seeded from the initial snapshot
// and the environment's seeds) and verifies that every observation is
// explained by that serial execution:
//
//   * a commit reads an instance the serial order says was already
//     retracted            → lost update
//   * a commit reads an instance a LATER commit creates (or one that
//     never existed)       → dirty read / broken witness order
//   * a commit retracts an instance already gone → double retract
//   * a commit creates an id that already exists → duplicate assert
//   * commits of one consensus fire are not contiguous in the witness
//     order                → broken consensus atomicity
//   * the model's final state differs from the real dataspace
//                          → final-state divergence (a torn or lost commit)
//
// Commits sharing a nonzero consensus_fire are replayed as ONE atomic
// composite: all reads against the common pre-state, then all
// retractions (deduped, §2.2's composite rule), then all additions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "space/dataspace.hpp"
#include "trace/event_log.hpp"

namespace sdl {

struct HistoryViolation {
  enum class Kind {
    LostUpdate,
    DirtyRead,
    DoubleRetract,
    DuplicateAssert,
    ConsensusAtomicity,
    FinalStateDivergence,
  };
  Kind kind = Kind::LostUpdate;
  std::uint64_t seq = 0;  // witness position (0 for final-state checks)
  std::string detail;
};

const char* to_string(HistoryViolation::Kind k);

struct CheckReport {
  std::vector<HistoryViolation> violations;
  std::size_t commits_checked = 0;
  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// One line per violation, prefixed with the commit count.
  [[nodiscard]] std::string to_string() const;
};

/// Pure replay — unit-testable without a runtime. `events` may be in any
/// order (Commit events are replayed by seq; Seed events extend the
/// initial state; lifecycle events are ignored); `final_ids` is the real
/// dataspace's live ids after the run.
CheckReport check_history(std::vector<TupleId> initial,
                          std::vector<Event> events,
                          const std::vector<TupleId>& final_ids);

/// Convenience over a log and the live dataspace. Call while quiescent
/// (after run()); snapshots `space` for the final-state check.
CheckReport check_serializability(const EventLog& log, const Dataspace& space);

}  // namespace sdl
