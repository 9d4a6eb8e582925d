#include "trace/event_log.hpp"

#include <algorithm>
#include <ostream>

namespace sdl {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::Spawn: return "spawn";
    case EventKind::Commit: return "commit";
    case EventKind::Park: return "park";
    case EventKind::Wake: return "wake";
    case EventKind::Terminate: return "terminate";
    case EventKind::Seed: return "seed";
  }
  return "?";
}

void EventLog::reset(std::vector<TupleId> initial) {
  std::scoped_lock lock(mutex_);
  events_.clear();
  initial_ = std::move(initial);
  next_seq_.store(0, std::memory_order_relaxed);
}

void EventLog::record(Event e) {
  e.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  std::scoped_lock lock(mutex_);
  events_.push_back(std::move(e));
}

void EventLog::record(EventKind kind, ProcessId pid, std::string label) {
  Event e;
  e.kind = kind;
  e.pid = pid;
  e.label = std::move(label);
  record(std::move(e));
}

void EventLog::record_fire(std::vector<Event> members) {
  std::uint64_t seq = next_seq_.fetch_add(members.size(),
                                          std::memory_order_relaxed);
  std::scoped_lock lock(mutex_);
  for (Event& e : members) {
    e.seq = seq++;
    events_.push_back(std::move(e));
  }
}

std::vector<Event> EventLog::events() const {
  std::vector<Event> out;
  {
    std::scoped_lock lock(mutex_);
    out = events_;
  }
  // Append order can differ from sequence order when events recorded
  // outside a common lock race each other; the witness is the seq order.
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return out;
}

std::vector<TupleId> EventLog::initial() const {
  std::scoped_lock lock(mutex_);
  return initial_;
}

std::uint64_t EventLog::size() const {
  std::scoped_lock lock(mutex_);
  return events_.size();
}

namespace {
void dump_ids(std::ostream& os, const char* tag,
              const std::vector<TupleId>& ids) {
  if (ids.empty()) return;
  os << " " << tag << "=";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    os << (i == 0 ? "" : ",") << ids[i].to_string();
  }
}
}  // namespace

void EventLog::dump_text(std::ostream& os) const {
  for (const Event& ev : events()) {
    os << "#" << ev.seq << " " << to_string(ev.kind) << " pid=" << ev.pid
       << " " << ev.label;
    if (ev.consensus_fire != 0) os << " fire=" << ev.consensus_fire;
    dump_ids(os, "read", ev.reads);
    dump_ids(os, "retract", ev.retracts);
    dump_ids(os, "assert", ev.asserts);
    os << "\n";
  }
}

}  // namespace sdl
