#include "trace/timeline.hpp"

#include <algorithm>
#include <ostream>
#include <unordered_map>

namespace sdl {
namespace {

/// Rendering priority when several events share a column: show the most
/// informative one. A consensus commit outranks the member's termination
/// that usually follows it (the lane's end still shows where it stops).
int glyph_priority(const TimelineMark& m) {
  switch (m.kind) {
    case EventKind::Terminate: return 5;
    case EventKind::Spawn: return 4;
    case EventKind::Commit: return m.consensus_fire != 0 ? 6 : 3;
    case EventKind::Park: return 2;
    case EventKind::Wake: return 1;
    case EventKind::Seed: return 0;
  }
  return 0;
}

const char* mark_name(const TimelineMark& m) {
  return m.consensus_fire != 0 ? "consensus" : to_string(m.kind);
}

char glyph(const TimelineMark& m) {
  switch (m.kind) {
    case EventKind::Spawn: return 'S';
    case EventKind::Commit: return m.consensus_fire != 0 ? '@' : 'C';
    case EventKind::Park: return 'P';
    case EventKind::Wake: return 'w';
    case EventKind::Terminate: return 'T';
    case EventKind::Seed: return '+';
  }
  return '?';
}

}  // namespace

TimelineSummary summarize(const std::vector<Event>& events) {
  TimelineSummary summary;
  if (events.empty()) return summary;
  summary.first_sequence = events.front().seq;
  summary.last_sequence = events.back().seq;
  summary.total_events = events.size();

  std::unordered_map<ProcessId, std::size_t> index;
  auto row_for = [&](const Event& ev) -> ProcessTimeline& {
    auto it = index.find(ev.pid);
    if (it == index.end()) {
      it = index.emplace(ev.pid, summary.processes.size()).first;
      ProcessTimeline tl;
      tl.pid = ev.pid;
      tl.name = ev.label.empty() ? ("pid" + std::to_string(ev.pid)) : ev.label;
      tl.spawned_at = ev.seq;
      summary.processes.push_back(std::move(tl));
    }
    return summary.processes[it->second];
  };

  // A fire's commits are one contiguous block, so each new nonzero
  // ordinal is one more fire.
  std::uint64_t last_fire = 0;
  for (const Event& ev : events) {
    if (ev.kind == EventKind::Seed) {
      ++summary.seeds;
      continue;
    }
    if (ev.kind == EventKind::Commit && ev.pid == kEnvironmentProcess) {
      ++summary.host_commits;
      continue;
    }
    if (ev.consensus_fire != 0 && ev.consensus_fire != last_fire) {
      ++summary.consensus_fires;
      last_fire = ev.consensus_fire;
    }
    ProcessTimeline& row = row_for(ev);
    row.events.push_back({ev.seq, ev.kind, ev.consensus_fire});
    switch (ev.kind) {
      case EventKind::Spawn:
        row.spawned_at = ev.seq;
        if (!ev.label.empty()) row.name = ev.label;
        break;
      case EventKind::Commit: ++row.commits; break;
      case EventKind::Park: ++row.parks; break;
      case EventKind::Wake: ++row.wakes; break;
      case EventKind::Terminate:
        row.terminated = true;
        row.terminated_at = ev.seq;
        break;
      case EventKind::Seed:
        break;
    }
  }
  return summary;
}

void render_ascii(const TimelineSummary& summary, std::ostream& os, int width) {
  if (width < 8) width = 8;
  const std::uint64_t span =
      summary.last_sequence >= summary.first_sequence
          ? summary.last_sequence - summary.first_sequence + 1
          : 1;
  auto column = [&](std::uint64_t seq) -> int {
    const std::uint64_t offset = seq - summary.first_sequence;
    return static_cast<int>(offset * static_cast<std::uint64_t>(width) / span);
  };

  std::size_t label_width = 8;
  for (const ProcessTimeline& row : summary.processes) {
    label_width = std::max(label_width,
                           row.name.size() + 1 + std::to_string(row.pid).size() + 1);
  }

  os << "timeline: " << summary.processes.size() << " processes, "
     << summary.total_events << " events";
  if (summary.consensus_fires > 0) {
    os << ", " << summary.consensus_fires << " consensus fires";
  }
  if (summary.host_commits > 0) {
    os << ", " << summary.host_commits << " host commits";
  }
  os << "\n";

  for (const ProcessTimeline& row : summary.processes) {
    std::string lane(static_cast<std::size_t>(width), ' ');
    const int from = column(row.spawned_at);
    const int to =
        row.terminated ? column(row.terminated_at) : width - 1;
    for (int c = from; c <= to && c < width; ++c) {
      lane[static_cast<std::size_t>(c)] = '-';
    }
    std::vector<int> priority(static_cast<std::size_t>(width), -1);
    for (const TimelineMark& mark : row.events) {
      const int c = column(mark.seq);
      if (c < 0 || c >= width) continue;
      const int p = glyph_priority(mark);
      if (p > priority[static_cast<std::size_t>(c)]) {
        priority[static_cast<std::size_t>(c)] = p;
        lane[static_cast<std::size_t>(c)] = glyph(mark);
      }
    }
    std::string label = row.name + "#" + std::to_string(row.pid);
    label.resize(label_width, ' ');
    os << label << "|" << lane << "|  commits=" << row.commits
       << " parks=" << row.parks;
    if (!row.terminated) os << " (live)";
    os << "\n";
  }
}

namespace {

void html_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '<': os << "&lt;"; break;
      case '>': os << "&gt;"; break;
      case '&': os << "&amp;"; break;
      case '"': os << "&quot;"; break;
      default: os << c;
    }
  }
}

const char* event_color(const TimelineMark& m) {
  switch (m.kind) {
    case EventKind::Spawn: return "#2b8a3e";  // green
    case EventKind::Commit:
      return m.consensus_fire != 0 ? "#9c36b5" : "#1971c2";  // purple : blue
    case EventKind::Park: return "#e8590c";       // orange
    case EventKind::Wake: return "#f59f00";       // amber
    case EventKind::Terminate: return "#495057";  // gray
    case EventKind::Seed: return "#868e96";
  }
  return "#000";
}

}  // namespace

void render_html(const TimelineSummary& summary, std::ostream& os) {
  constexpr int kLaneHeight = 22;
  constexpr int kLabelWidth = 180;
  constexpr int kPlotWidth = 900;
  constexpr int kHeader = 56;
  const int height =
      kHeader + kLaneHeight * static_cast<int>(summary.processes.size()) + 24;
  const std::uint64_t span =
      summary.last_sequence >= summary.first_sequence
          ? summary.last_sequence - summary.first_sequence + 1
          : 1;
  auto x_of = [&](std::uint64_t seq) -> double {
    return kLabelWidth +
           static_cast<double>(seq - summary.first_sequence) /
               static_cast<double>(span) * kPlotWidth;
  };

  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
     << "<title>SDL run timeline</title><style>\n"
     << "body{font:13px/1.4 system-ui,sans-serif;margin:16px;}\n"
     << "text{font:11px monospace;}\n"
     << ".legend span{margin-right:14px;}\n"
     << ".dot{display:inline-block;width:9px;height:9px;border-radius:2px;"
     << "margin-right:4px;vertical-align:-1px;}\n"
     << "</style></head><body>\n";
  os << "<h3>SDL run timeline</h3>\n<p>" << summary.processes.size()
     << " processes, " << summary.total_events << " events";
  if (summary.consensus_fires > 0) {
    os << ", " << summary.consensus_fires << " consensus fires";
  }
  if (summary.seeds > 0) os << ", " << summary.seeds << " seeded tuples";
  if (summary.host_commits > 0) {
    os << ", " << summary.host_commits << " host commits";
  }
  os << "</p>\n<p class=\"legend\">";
  const TimelineMark legend[] = {
      {0, EventKind::Spawn, 0}, {0, EventKind::Commit, 0},
      {0, EventKind::Park, 0},  {0, EventKind::Wake, 0},
      {0, EventKind::Commit, 1}, {0, EventKind::Terminate, 0},
  };
  for (const TimelineMark& mark : legend) {
    os << "<span><span class=\"dot\" style=\"background:" << event_color(mark)
       << "\"></span>" << mark_name(mark) << "</span>";
  }
  os << "</p>\n";

  os << "<svg width=\"" << kLabelWidth + kPlotWidth + 20 << "\" height=\""
     << height << "\">\n";
  int lane = 0;
  for (const ProcessTimeline& row : summary.processes) {
    const int y = kHeader + lane * kLaneHeight;
    const int mid = y + kLaneHeight / 2;
    os << "<text x=\"4\" y=\"" << mid + 4 << "\">";
    html_escape(os, row.name + "#" + std::to_string(row.pid));
    os << "</text>\n";
    // Lifespan bar.
    const double x0 = x_of(row.spawned_at);
    const double x1 = row.terminated ? x_of(row.terminated_at)
                                     : kLabelWidth + kPlotWidth;
    os << "<rect x=\"" << x0 << "\" y=\"" << mid - 2 << "\" width=\""
       << std::max(1.0, x1 - x0) << "\" height=\"4\" fill=\"#dee2e6\"/>\n";
    // Event ticks with hover titles.
    for (const TimelineMark& mark : row.events) {
      os << "<rect x=\"" << x_of(mark.seq) - 1.5 << "\" y=\"" << mid - 6
         << "\" width=\"3\" height=\"12\" fill=\"" << event_color(mark)
         << "\"><title>#" << mark.seq << " " << mark_name(mark)
         << "</title></rect>\n";
    }
    ++lane;
  }
  os << "</svg>\n</body></html>\n";
}

}  // namespace sdl
