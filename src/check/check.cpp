#include "check/check.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace sdl {

const char* to_string(HistoryViolation::Kind k) {
  switch (k) {
    case HistoryViolation::Kind::LostUpdate: return "lost-update";
    case HistoryViolation::Kind::DirtyRead: return "dirty-read";
    case HistoryViolation::Kind::DoubleRetract: return "double-retract";
    case HistoryViolation::Kind::DuplicateAssert: return "duplicate-assert";
    case HistoryViolation::Kind::ConsensusAtomicity:
      return "consensus-atomicity";
    case HistoryViolation::Kind::FinalStateDivergence:
      return "final-state-divergence";
  }
  return "?";
}

std::string CheckReport::to_string() const {
  std::string out = std::to_string(commits_checked) + " commits checked, " +
                    std::to_string(violations.size()) + " violations";
  for (const HistoryViolation& v : violations) {
    out += "\n  [" + std::string(sdl::to_string(v.kind)) + "] seq " +
           std::to_string(v.seq) + ": " + v.detail;
  }
  return out;
}

namespace {

std::string entry_tag(const Event& e) {
  std::string t = "pid " + std::to_string(e.pid);
  if (!e.label.empty()) t += " (" + e.label + ")";
  return t;
}

}  // namespace

CheckReport check_history(std::vector<TupleId> initial,
                          std::vector<Event> events,
                          const std::vector<TupleId>& final_ids) {
  CheckReport report;
  std::vector<Event> entries;
  for (Event& e : events) {
    if (e.kind == EventKind::Commit) {
      entries.push_back(std::move(e));
    } else if (e.kind == EventKind::Seed) {
      initial.insert(initial.end(), e.asserts.begin(), e.asserts.end());
    }
  }
  report.commits_checked = entries.size();
  std::sort(entries.begin(), entries.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });

  // Pre-passes: where each id is asserted (classifies a failed read as
  // dirty vs unknown) and how many entries each consensus fire has (the
  // contiguity check needs the total).
  std::unordered_map<TupleId, std::uint64_t> assert_seq;
  std::unordered_map<std::uint64_t, std::size_t> fire_sizes;
  for (const Event& e : entries) {
    for (TupleId id : e.asserts) {
      // First assert wins; a duplicate is reported during replay.
      assert_seq.emplace(id, e.seq);
    }
    if (e.consensus_fire != 0) ++fire_sizes[e.consensus_fire];
  }

  std::unordered_set<TupleId> model(initial.begin(), initial.end());
  std::unordered_map<TupleId, std::uint64_t> retracted_at;
  std::unordered_set<TupleId> ever_existed(initial.begin(), initial.end());

  auto flag = [&](HistoryViolation::Kind kind, std::uint64_t seq,
                  std::string detail) {
    report.violations.push_back({kind, seq, std::move(detail)});
  };

  auto check_read = [&](const Event& e, TupleId id) {
    if (model.count(id) != 0) return;
    auto rit = retracted_at.find(id);
    if (rit != retracted_at.end()) {
      flag(HistoryViolation::Kind::LostUpdate, e.seq,
           entry_tag(e) + " read instance " + id.to_string() +
               " already retracted at seq " + std::to_string(rit->second));
      return;
    }
    auto ait = assert_seq.find(id);
    if (ait != assert_seq.end() && ait->second > e.seq) {
      flag(HistoryViolation::Kind::DirtyRead, e.seq,
           entry_tag(e) + " read instance " + id.to_string() +
               " before its creating commit at seq " +
               std::to_string(ait->second));
    } else {
      flag(HistoryViolation::Kind::DirtyRead, e.seq,
           entry_tag(e) + " read instance " + id.to_string() +
               " that no serial execution produces");
    }
  };

  // Replay. Entries sharing a nonzero consensus_fire form one atomic
  // composite: reads against the common pre-state, then retractions
  // (deduped across members), then additions.
  std::size_t i = 0;
  while (i < entries.size()) {
    std::size_t j = i + 1;
    const std::uint64_t fire = entries[i].consensus_fire;
    if (fire != 0) {
      while (j < entries.size() && entries[j].consensus_fire == fire) ++j;
      if (j - i != fire_sizes[fire]) {
        flag(HistoryViolation::Kind::ConsensusAtomicity, entries[i].seq,
             "consensus fire " + std::to_string(fire) +
                 " interleaved with other commits (" + std::to_string(j - i) +
                 " of " + std::to_string(fire_sizes[fire]) +
                 " members contiguous)");
        fire_sizes[fire] -= (j - i);  // count the rest once, not twice
      }
    }

    for (std::size_t k = i; k < j; ++k) {
      for (TupleId id : entries[k].reads) check_read(entries[k], id);
    }
    std::unordered_set<TupleId> group_retracted;
    for (std::size_t k = i; k < j; ++k) {
      const Event& e = entries[k];
      for (TupleId id : e.retracts) {
        if (!group_retracted.insert(id).second) continue;  // composite dedupe
        if (model.erase(id) != 0) {
          retracted_at[id] = e.seq;
          continue;
        }
        auto rit = retracted_at.find(id);
        if (rit != retracted_at.end()) {
          flag(HistoryViolation::Kind::DoubleRetract, e.seq,
               entry_tag(e) + " retracted instance " + id.to_string() +
                   " already retracted at seq " + std::to_string(rit->second));
        } else {
          flag(HistoryViolation::Kind::DoubleRetract, e.seq,
               entry_tag(e) + " retracted instance " + id.to_string() +
                   " that no serial execution produces");
        }
      }
    }
    for (std::size_t k = i; k < j; ++k) {
      const Event& e = entries[k];
      for (TupleId id : e.asserts) {
        if (!ever_existed.insert(id).second) {
          flag(HistoryViolation::Kind::DuplicateAssert, e.seq,
               entry_tag(e) + " asserted instance " + id.to_string() +
                   " whose id already existed");
          continue;
        }
        model.insert(id);
      }
    }
    i = j;
  }

  // Final state: the model after the serial replay must be exactly the
  // real dataspace. A divergence means a commit was torn (reported
  // success, effects missing) or an unrecorded mutation happened.
  std::unordered_set<TupleId> real(final_ids.begin(), final_ids.end());
  std::vector<TupleId> missing, extra;
  for (TupleId id : model) {
    if (real.count(id) == 0) missing.push_back(id);
  }
  for (TupleId id : real) {
    if (model.count(id) == 0) extra.push_back(id);
  }
  if (!missing.empty() || !extra.empty()) {
    std::sort(missing.begin(), missing.end());
    std::sort(extra.begin(), extra.end());
    std::string detail = "model vs dataspace: " +
                         std::to_string(missing.size()) +
                         " instances missing from the dataspace, " +
                         std::to_string(extra.size()) + " unexplained";
    auto sample = [&](const char* tag, const std::vector<TupleId>& ids) {
      if (ids.empty()) return;
      detail += std::string("; ") + tag + ":";
      for (std::size_t s = 0; s < std::min<std::size_t>(ids.size(), 4); ++s) {
        detail += " " + ids[s].to_string();
      }
    };
    sample("missing", missing);
    sample("unexplained", extra);
    flag(HistoryViolation::Kind::FinalStateDivergence, 0, std::move(detail));
  }
  return report;
}

CheckReport check_serializability(const EventLog& log, const Dataspace& space) {
  std::vector<TupleId> final_ids;
  for (const Record& r : space.snapshot()) final_ids.push_back(r.id);
  return check_history(log.initial(), log.events(), final_ids);
}

}  // namespace sdl
