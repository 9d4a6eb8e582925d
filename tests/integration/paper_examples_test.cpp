// Integration: the shipped .sdl example programs must parse, load, run to
// clean quiescence, and produce their documented results.
#include <gtest/gtest.h>

#include <cstdlib>

#include "lang/analyze.hpp"
#include "lang/compile.hpp"
#include "query/compile.hpp"

namespace sdl {
namespace {

Runtime make_runtime() {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  o.scheduler.replication_width = 4;
  return Runtime(o);
}

void register_grid_functions(Runtime& rt, std::int64_t width) {
  rt.functions().register_function(
      "neighbor", [width](std::span<const Value> a) -> Value {
        const std::int64_t p = a[0].as_int();
        const std::int64_t q = a[1].as_int();
        const std::int64_t dx = p % width - q % width;
        const std::int64_t dy = p / width - q / width;
        return (std::abs(dx) + std::abs(dy)) == 1;
      });
  rt.functions().register_function("T", [](std::span<const Value> a) -> Value {
    return a[0].as_int() >= 128 ? 1 : 0;
  });
}

std::string script(const char* name) {
  return std::string(SDL_EXAMPLES_DIR) + "/" + name;
}

TEST(PaperExamplesTest, Sum1Script) {
  Runtime rt = make_runtime();
  lang::load_path(rt, script("sum1.sdl"));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean()) << (report.parked.empty() ? "" : report.parked[0]);
  EXPECT_EQ(rt.space().count(tup(8, 11 + 22 + 33 + 44 + 55 + 66 + 77 + 88)), 1u);
  EXPECT_GE(rt.consensus().fires(), 3u) << "one barrier per phase";
}

TEST(PaperExamplesTest, Sum2Script) {
  Runtime rt = make_runtime();
  lang::load_path(rt, script("sum2.sdl"));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean()) << (report.parked.empty() ? "" : report.parked[0]);
  EXPECT_EQ(rt.space().count(tup(8, 11 + 22 + 33 + 44 + 55 + 66 + 77 + 88, 4)),
            1u);
  EXPECT_EQ(rt.consensus().fires(), 0u) << "fully asynchronous";
}

TEST(PaperExamplesTest, ComputedHeadProgramsRunCompiled) {
  // Sum1 and Sum2 match "[k - 2**(j-1), a]!": a computed pattern head.
  // Every evaluation of them goes through the plan cache, and none
  // leaves the compiled tier.
  constexpr std::int64_t kTotal = 11 + 22 + 33 + 44 + 55 + 66 + 77 + 88;
  for (const char* name : {"sum1.sdl", "sum2.sdl"}) {
    const PlanCacheStats& stats = plan_cache_stats();
    const std::uint64_t lookups0 = stats.hits.load() + stats.misses.load();
    const std::uint64_t bailouts0 = stats.bailouts.load();
    Runtime rt = make_runtime();
    lang::load_path(rt, script(name));
    ASSERT_TRUE(rt.run().clean()) << name;
    const Tuple total = std::string(name) == "sum1.sdl"
                            ? tup(8, kTotal)
                            : tup(8, kTotal, 4);
    EXPECT_EQ(rt.space().count(total), 1u) << name;
    EXPECT_GT(stats.hits.load() + stats.misses.load(), lookups0) << name;
    EXPECT_EQ(stats.bailouts.load(), bailouts0) << name;
  }
}

TEST(PaperExamplesTest, AllScriptsAnalyzeWithoutErrors) {
  for (const char* name :
       {"sum1.sdl", "sum2.sdl", "sum3.sdl", "find.sdl", "sort.sdl",
        "region_label.sdl", "dining.sdl", "bounded_buffer.sdl",
        "readers_writers.sdl"}) {
    const lang::Program program = lang::parse_file(script(name));
    for (const lang::Diagnostic& d : lang::analyze(program)) {
      EXPECT_NE(d.severity, lang::Severity::Error) << name << ": " << d.to_string();
      EXPECT_NE(d.severity, lang::Severity::Warning)
          << name << ": " << d.to_string();
    }
  }
}

TEST(PaperExamplesTest, Sum3Script) {
  Runtime rt = make_runtime();
  lang::load_path(rt, script("sum3.sdl"));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(rt.space().size(), 1u);
  EXPECT_EQ(rt.space().snapshot()[0].tuple[1],
            Value(11 + 22 + 33 + 44 + 55 + 66 + 77 + 88));
}

TEST(PaperExamplesTest, FindScript) {
  Runtime rt = make_runtime();
  lang::load_path(rt, script("find.sdl"));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(rt.space().count(tup("size", 42)), 1u);
  EXPECT_EQ(rt.space().count(tup("flavor", Value::atom("not_found"))), 1u);
  EXPECT_EQ(rt.space().count(tup("weight", 7)), 1u);
}

TEST(PaperExamplesTest, SortScript) {
  Runtime rt = make_runtime();
  lang::load_path(rt, script("sort.sdl"));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean()) << (report.parked.empty() ? "" : report.parked[0]);
  for (int i = 1; i <= 5; ++i) {
    bool found = false;
    rt.space().scan_key(IndexKey::of_head(4, Value(i)), [&](const Record& r) {
      EXPECT_EQ(r.tuple[1], Value(i * 10)) << "node " << i;
      found = true;
      return true;
    });
    EXPECT_TRUE(found);
  }
}

TEST(PaperExamplesTest, RegionLabelScript) {
  Runtime rt = make_runtime();
  register_grid_functions(rt, 16);
  lang::load_path(rt, script("region_label.sdl"));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  // The bright 2x2 blob {17,18,33,34} shares label 34; all its members
  // must carry it.
  for (const int p : {17, 18, 33, 34}) {
    EXPECT_EQ(rt.space().count(tup("label", p, 34)), 1u) << "pixel " << p;
  }
}

TEST(PaperExamplesTest, DiningScript) {
  Runtime rt = make_runtime();
  lang::load_path(rt, script("dining.sdl"));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rt.space().count(tup("sated", i)), 1u) << "philosopher " << i;
    EXPECT_EQ(rt.space().count(tup("chopstick", i)), 1u) << "chopstick " << i;
  }
}

TEST(PaperExamplesTest, PairingScript) {
  // §2.3: three positive indices pair with values; -3 is dropped; the
  // loop exits via the negation guard.
  Runtime rt = make_runtime();
  lang::load_path(rt, script("pairing.sdl"));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean());
  std::size_t pairs = 0;
  std::size_t values_left = 0;
  for (const Record& r : rt.space().snapshot()) {
    if (r.tuple.arity() == 2 && r.tuple[0].is_int()) {
      EXPECT_GT(r.tuple[0].as_int(), 0);
      ++pairs;
    }
    if (r.tuple.arity() == 2 && r.tuple[0] == Value::atom("value")) ++values_left;
    EXPECT_NE(r.tuple[0], Value::atom("index")) << "all index tuples consumed";
  }
  EXPECT_EQ(pairs, 3u);
  EXPECT_EQ(values_left, 1u);
}

TEST(PaperExamplesTest, BoundedBufferScript) {
  Runtime rt = make_runtime();
  lang::load_path(rt, script("bounded_buffer.sdl"));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean()) << (report.parked.empty() ? "" : report.parked[0]);
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(rt.space().count(tup("consumed", i)), 1u) << "item " << i;
  }
  EXPECT_EQ(rt.space().count(tup("slot")), 3u) << "capacity restored";
}

TEST(PaperExamplesTest, ReadersWritersScript) {
  Runtime rt = make_runtime();
  lang::load_path(rt, script("readers_writers.sdl"));
  const RunReport report = rt.run();
  EXPECT_TRUE(report.clean()) << (report.parked.empty() ? "" : report.parked[0]);
  EXPECT_EQ(rt.space().count(tup("value", 200)), 1u)
      << "both writers applied their +100";
  EXPECT_EQ(rt.space().count(tup("token", 1)), 1u);
  EXPECT_EQ(rt.space().count(tup("token", 2)), 1u);
  EXPECT_EQ(rt.space().count(tup("token", 3)), 1u);
  // Every reader saw one of the three consistent values.
  std::size_t saws = 0;
  rt.space().scan_key(IndexKey::of_head(3, Value::atom("saw")), [&](const Record& r) {
    const std::int64_t v = r.tuple[2].as_int();
    EXPECT_TRUE(v == 0 || v == 100 || v == 200) << "torn read: " << v;
    ++saws;
    return true;
  });
  EXPECT_EQ(saws, 4u);
}

TEST(PaperExamplesTest, ScriptsAreReRunnable) {
  // Loading the same program into two runtimes must not interfere
  // (definitions and atoms are per-runtime / value-identity only).
  Runtime rt1 = make_runtime();
  Runtime rt2 = make_runtime();
  lang::load_path(rt1, script("sum3.sdl"));
  lang::load_path(rt2, script("sum3.sdl"));
  EXPECT_TRUE(rt1.run().clean());
  EXPECT_TRUE(rt2.run().clean());
  EXPECT_EQ(rt1.space().snapshot()[0].tuple[1],
            rt2.space().snapshot()[0].tuple[1]);
}

}  // namespace
}  // namespace sdl
