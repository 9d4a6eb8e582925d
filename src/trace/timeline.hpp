// Timeline visualization (S10, §4): "there is no other way for humans to
// assimilate voluminous information about the continuously changing
// program state" — the paper motivates SDL partly by programmer-defined
// visualization. This module turns an event log into per-process
// timelines and renders them as an ASCII chart (one row per process,
// event-time on the x-axis), the text-mode stand-in for the graphical
// environment the paper envisions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/event_log.hpp"

namespace sdl {

/// One event on a process lane. A commit with a nonzero consensus_fire is
/// that process's part of a consensus fire.
struct TimelineMark {
  std::uint64_t seq = 0;
  EventKind kind = EventKind::Commit;
  std::uint64_t consensus_fire = 0;
};

/// Aggregated per-process view of an event log.
struct ProcessTimeline {
  ProcessId pid = 0;
  std::string name;
  std::uint64_t spawned_at = 0;      // event sequence of the Spawn event
  bool terminated = false;
  std::uint64_t terminated_at = 0;   // valid when terminated
  std::uint64_t commits = 0;
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;
  /// Every event attributed to this process, in order.
  std::vector<TimelineMark> events;
};

struct TimelineSummary {
  std::vector<ProcessTimeline> processes;  // in spawn (first-seen) order
  std::uint64_t first_sequence = 0;
  std::uint64_t last_sequence = 0;
  std::uint64_t total_events = 0;
  std::uint64_t consensus_fires = 0;
  std::uint64_t seeds = 0;
  /// Commits the environment (pid 0, Runtime::execute) made; like seeds,
  /// they are counted, not drawn as a lane.
  std::uint64_t host_commits = 0;
};

/// Builds a summary from logged events (as returned by EventLog::events():
/// in sequence order). A process first seen through a non-Spawn event is
/// included with spawned_at = its first event.
TimelineSummary summarize(const std::vector<Event>& events);

/// Renders one row per process:
///
///   Sort#3       |--C-C--P.w-C---T |  commits=3 parks=1
///
/// '-' alive, 'C' commit, 'P' park, 'w' wake, '@' consensus commit, 'T'
/// terminate; the x-axis is event-sequence time compressed to `width`
/// columns (the densest event in a column wins).
void render_ascii(const TimelineSummary& summary, std::ostream& os,
                  int width = 64);

/// Renders a self-contained HTML page with an SVG timeline: one lane per
/// process (lifespan bar + event ticks, hover titles with event details),
/// plus the run's headline counters. This is the paper's §4 "programmer-
/// defined visualization" in its minimal, dependency-free form — open the
/// file in any browser.
void render_html(const TimelineSummary& summary, std::ostream& os);

}  // namespace sdl
