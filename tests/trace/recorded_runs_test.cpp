// Paper programs run through src/lang with the event log armed: the log
// is the one record the checker, the timeline and the text dump read, so
// a run's consensus fires, seeds and lifecycle must all land in it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "lang/compile.hpp"
#include "trace/timeline.hpp"

namespace sdl {
namespace {

std::string script(const std::string& name) {
  return std::string(SDL_EXAMPLES_DIR) + "/" + name;
}

/// The host functions sdl_run registers (a 16-wide pixel grid), so every
/// shipped example loads as it does there.
void register_grid_functions(Runtime& rt) {
  constexpr std::int64_t kWidth = 16;
  rt.functions().register_function("neighbor", [](std::span<const Value> a) -> Value {
    const std::int64_t dx = a[0].as_int() % kWidth - a[1].as_int() % kWidth;
    const std::int64_t dy = a[0].as_int() / kWidth - a[1].as_int() / kWidth;
    return (dx == 0 || dx == 1 || dx == -1) && (dy == 0 || dy == 1 || dy == -1) &&
           (dx != 0) != (dy != 0);
  });
  rt.functions().register_function("T", [](std::span<const Value> a) -> Value {
    return a[0].as_int() >= 128 ? 1 : 0;
  });
}

TEST(RecordedRunTest, SortConsensusExitIsOneContiguousFire) {
  // §3.2's sort ends with a consensus exit of all four Sort processes.
  Runtime rt;
  EventLog& log = rt.arm_log();
  lang::load_path(rt, script("sort.sdl"));
  const RunReport report = rt.run();
  ASSERT_TRUE(report.clean());
  ASSERT_EQ(rt.consensus().fires(), 1u);

  const std::vector<Event> events = log.events();
  std::vector<const Event*> fire;
  for (const Event& e : events) {
    if (e.consensus_fire != 0) fire.push_back(&e);
  }
  ASSERT_EQ(fire.size(), 4u) << "one exit commit per Sort process";
  std::vector<ProcessId> members;
  for (std::size_t i = 0; i < fire.size(); ++i) {
    EXPECT_EQ(fire[i]->kind, EventKind::Commit);
    EXPECT_EQ(fire[i]->consensus_fire, fire[0]->consensus_fire);
    EXPECT_EQ(fire[i]->seq, fire[0]->seq + i) << "fire block not contiguous";
    members.push_back(fire[i]->pid);
  }
  std::sort(members.begin(), members.end());
  EXPECT_EQ(std::unique(members.begin(), members.end()), members.end());

  const TimelineSummary summary = summarize(events);
  EXPECT_EQ(summary.consensus_fires, 1u);
  ASSERT_EQ(summary.processes.size(), 4u);
  std::ostringstream os;
  render_ascii(summary, os);
  std::istringstream lines(os.str());
  std::string line;
  std::getline(lines, line);  // header
  int lanes_with_fire = 0;
  while (std::getline(lines, line)) {
    if (line.find('@') != std::string::npos) ++lanes_with_fire;
  }
  EXPECT_EQ(lanes_with_fire, 4) << os.str();
  EXPECT_TRUE(rt.check_history().ok());
}

TEST(RecordedRunTest, EveryExampleRunsCleanAndSerializable) {
  std::vector<std::filesystem::path> programs;
  for (const auto& entry : std::filesystem::directory_iterator(SDL_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".sdl") programs.push_back(entry.path());
  }
  std::sort(programs.begin(), programs.end());
  ASSERT_GE(programs.size(), 10u);
  for (const std::filesystem::path& path : programs) {
    SCOPED_TRACE(path.filename().string());
    Runtime rt;
    register_grid_functions(rt);
    EventLog& log = rt.arm_log();
    lang::load_path(rt, path.string());
    const RunReport report = rt.run();
    EXPECT_TRUE(report.clean())
        << (report.parked.empty() ? "" : report.parked[0])
        << (report.errors.empty() ? "" : report.errors[0]);
    const CheckReport check = rt.check_history();
    EXPECT_TRUE(check.ok()) << check.to_string();
    EXPECT_GT(check.commits_checked, 0u);
    const TimelineSummary summary = summarize(log.events());
    EXPECT_EQ(summary.processes.size(), rt.stats().processes_spawned)
        << "one lane per spawned process";
  }
}

}  // namespace
}  // namespace sdl
