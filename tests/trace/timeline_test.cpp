#include "trace/timeline.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace sdl {
namespace {

Event ev(std::uint64_t seq, EventKind kind, ProcessId pid,
         std::string label = "", std::uint64_t consensus_fire = 0) {
  Event e;
  e.seq = seq;
  e.kind = kind;
  e.pid = pid;
  e.label = std::move(label);
  e.consensus_fire = consensus_fire;
  return e;
}

std::vector<Event> sample_events() {
  std::vector<Event> events;
  std::uint64_t seq = 0;
  auto add = [&](EventKind kind, ProcessId pid, const char* label = "") {
    events.push_back(ev(seq++, kind, pid, label));
  };
  add(EventKind::Seed, 0);
  add(EventKind::Spawn, 1, "Producer");
  add(EventKind::Spawn, 2, "Consumer");
  add(EventKind::Park, 2, "Consumer");
  add(EventKind::Commit, 1, "[item, 7]");
  add(EventKind::Wake, 2, "Consumer");
  add(EventKind::Commit, 2, "[eaten, 7]");
  add(EventKind::Terminate, 1, "Producer");
  add(EventKind::Terminate, 2, "Consumer");
  return events;
}

TEST(TimelineTest, SummarizeCountsPerProcess) {
  const TimelineSummary s = summarize(sample_events());
  ASSERT_EQ(s.processes.size(), 2u);
  EXPECT_EQ(s.seeds, 1u);
  EXPECT_EQ(s.total_events, 9u);

  const ProcessTimeline& producer = s.processes[0];
  EXPECT_EQ(producer.pid, 1u);
  EXPECT_EQ(producer.name, "Producer");
  EXPECT_EQ(producer.commits, 1u);
  EXPECT_EQ(producer.parks, 0u);
  EXPECT_TRUE(producer.terminated);

  const ProcessTimeline& consumer = s.processes[1];
  EXPECT_EQ(consumer.commits, 1u);
  EXPECT_EQ(consumer.parks, 1u);
  EXPECT_EQ(consumer.wakes, 1u);
}

TEST(TimelineTest, EmptyTrace) {
  const TimelineSummary s = summarize({});
  EXPECT_TRUE(s.processes.empty());
  std::ostringstream os;
  render_ascii(s, os);
  EXPECT_NE(os.str().find("0 processes"), std::string::npos);
}

TEST(TimelineTest, ProcessWithoutSpawnEventStillAppears) {
  // The log was armed after the spawn: first-seen event anchors the row.
  std::vector<Event> events = {
      ev(10, EventKind::Commit, 5, "[x]"),
      ev(11, EventKind::Terminate, 5, "Worker"),
  };
  const TimelineSummary s = summarize(events);
  ASSERT_EQ(s.processes.size(), 1u);
  EXPECT_EQ(s.processes[0].spawned_at, 10u);
  EXPECT_TRUE(s.processes[0].terminated);
}

TEST(TimelineTest, RenderShowsGlyphsAndCounts) {
  std::ostringstream os;
  render_ascii(summarize(sample_events()), os, 32);
  const std::string out = os.str();
  EXPECT_NE(out.find("Producer#1"), std::string::npos);
  EXPECT_NE(out.find("Consumer#2"), std::string::npos);
  EXPECT_NE(out.find("commits=1"), std::string::npos);
  EXPECT_NE(out.find('T'), std::string::npos) << "terminate glyph missing";
  EXPECT_NE(out.find('C'), std::string::npos) << "commit glyph missing";
  EXPECT_NE(out.find('P'), std::string::npos) << "park glyph missing";
}

TEST(TimelineTest, LiveProcessMarked) {
  std::vector<Event> events = {
      ev(0, EventKind::Spawn, 1, "Stuck"),
      ev(1, EventKind::Park, 1, "Stuck"),
  };
  std::ostringstream os;
  render_ascii(summarize(events), os, 16);
  EXPECT_NE(os.str().find("(live)"), std::string::npos);
}

TEST(TimelineTest, ConsensusFiresCounted) {
  std::vector<Event> events = {
      ev(0, EventKind::Spawn, 1, "A"),
      ev(1, EventKind::Spawn, 2, "B"),
      // One fire: both members' commits share its ordinal.
      ev(2, EventKind::Commit, 1, "[done]", /*consensus_fire=*/1),
      ev(3, EventKind::Commit, 2, "[done]", /*consensus_fire=*/1),
  };
  const TimelineSummary s = summarize(events);
  EXPECT_EQ(s.consensus_fires, 1u);
  EXPECT_EQ(s.processes[0].commits, 1u);
  std::ostringstream os;
  render_ascii(s, os, 16);
  EXPECT_NE(os.str().find("1 consensus fires"), std::string::npos);
  EXPECT_NE(os.str().find('@'), std::string::npos) << "consensus glyph missing";
}

TEST(TimelineTest, HostCommitsCountedWithoutLane) {
  // Environment commits (Runtime::execute, pid 0) are counted like seeds
  // and open no lane.
  std::vector<Event> events = {
      ev(0, EventKind::Seed, 0, "[x]"),
      ev(1, EventKind::Commit, 0, "-> [y]"),
      ev(2, EventKind::Commit, 0, "-> [z]"),
  };
  const TimelineSummary s = summarize(events);
  EXPECT_TRUE(s.processes.empty());
  EXPECT_EQ(s.seeds, 1u);
  EXPECT_EQ(s.host_commits, 2u);
  std::ostringstream os;
  render_ascii(s, os, 16);
  EXPECT_NE(os.str().find("2 host commits"), std::string::npos);
  EXPECT_EQ(os.str().find("pid0"), std::string::npos);
}

TEST(TimelineTest, HtmlRenderIsWellFormedEnough) {
  std::ostringstream os;
  render_html(summarize(sample_events()), os);
  const std::string html = os.str();
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("Producer#1"), std::string::npos);
  EXPECT_NE(html.find("consensus"), std::string::npos);  // legend
  EXPECT_NE(html.find("</html>"), std::string::npos);
  // Every opened rect is closed (title-carrying form).
  std::size_t opens = 0;
  std::size_t pos = 0;
  while ((pos = html.find("<rect", pos)) != std::string::npos) {
    ++opens;
    pos += 5;
  }
  EXPECT_GT(opens, 4u);
}

TEST(TimelineTest, HtmlEscapesProcessNames) {
  std::vector<Event> events = {
      ev(0, EventKind::Spawn, 1, "Evil<script>\"&"),
  };
  std::ostringstream os;
  render_html(summarize(events), os);
  const std::string html = os.str();
  EXPECT_EQ(html.find("<script>"), std::string::npos);
  EXPECT_NE(html.find("Evil&lt;script&gt;&quot;&amp;"), std::string::npos);
}

TEST(TimelineTest, ColumnsStayInBounds) {
  // Large sequence numbers must not index outside the lane.
  std::vector<Event> events = {
      ev(1000000, EventKind::Spawn, 1, "A"),
      ev(2000000, EventKind::Terminate, 1, "A"),
  };
  std::ostringstream os;
  render_ascii(summarize(events), os, 24);
  SUCCEED();
}

}  // namespace
}  // namespace sdl
