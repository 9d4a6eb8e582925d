// sdl_run — execute an SDL source file.
//
//   ./build/examples/sdl_run examples/sdl/sum3.sdl
//   ./build/examples/sdl_run --trace examples/sdl/find.sdl
//   ./build/examples/sdl_run --check examples/sdl/sort.sdl
//
// Registers the host functions the paper's examples rely on (neighbor/T,
// over a 16-wide pixel grid) so the region-labeling scripts run as-is.
// Prints the final dataspace and the run report. --check also runs the
// static analyzer before the run and the serializability checker over the
// run's event log after it.
#include <cstring>
#include <fstream>
#include <iostream>

#include "lang/analyze.hpp"
#include "lang/compile.hpp"
#include "trace/timeline.hpp"

using namespace sdl;

int main(int argc, char** argv) {
  bool trace = false;
  bool timeline = false;
  bool stats = false;
  bool check = false;
  const char* html_path = nullptr;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      timeline = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--html") == 0 && i + 1 < argc) {
      html_path = argv[++i];
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) {
    std::cerr << "usage: sdl_run [--trace] [--timeline] [--stats] [--check] "
                 "[--html out.html] <file.sdl>\n";
    return 2;
  }

  Runtime rt;
  if (trace || timeline || check || html_path != nullptr) rt.arm_log();

  constexpr std::int64_t kGridWidth = 16;
  rt.functions().register_function("neighbor", [](std::span<const Value> a) -> Value {
    const std::int64_t p = a[0].as_int();
    const std::int64_t q = a[1].as_int();
    const std::int64_t dx = p % kGridWidth - q % kGridWidth;
    const std::int64_t dy = p / kGridWidth - q / kGridWidth;
    return (dx == 0 || dx == 1 || dx == -1) && (dy == 0 || dy == 1 || dy == -1) &&
           (dx != 0) != (dy != 0);
  });
  rt.functions().register_function("T", [](std::span<const Value> a) -> Value {
    return a[0].as_int() >= 128 ? 1 : 0;
  });

  try {
    lang::Program program = lang::parse_file(path);
    if (check) {
      const std::vector<lang::Diagnostic> diags = lang::analyze(program);
      bool errors = false;
      for (const lang::Diagnostic& d : diags) {
        std::cout << d.to_string() << "\n";
        errors |= d.severity == lang::Severity::Error;
      }
      if (diags.empty()) std::cout << "no diagnostics\n";
      if (errors) return 1;
    }
    lang::load_program(rt, std::move(program));
  } catch (const lang::ParseError& e) {
    std::cerr << "parse error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  const RunReport report = rt.run();

  std::cout << "-- final dataspace (" << rt.space().size() << " tuples) --\n";
  for (const Record& r : rt.space().snapshot()) {
    std::cout << "  " << r.tuple.to_string() << "   " << r.id.to_string() << "\n";
  }
  std::cout << "-- run report --\n"
            << "  completed: " << report.completed << "\n"
            << "  parked:    " << report.still_parked << "\n";
  for (const std::string& p : report.parked) std::cout << "    " << p << "\n";
  for (const std::string& e : report.errors) std::cout << "  error: " << e << "\n";
  if (trace) {
    std::cout << "-- trace (" << rt.event_log()->size() << " events) --\n";
    rt.event_log()->dump_text(std::cout);
  }
  if (timeline) {
    std::cout << "-- timeline --\n";
    render_ascii(summarize(rt.event_log()->events()), std::cout);
  }
  if (stats) {
    std::cout << "-- stats --\n" << rt.stats().to_string();
  }
  // Populated only when SDL_OBS is on: the nonzero-instrument digest of
  // the metrics registry (per-txn spans, lock contention, window costs).
  if (!report.metrics.empty()) {
    std::cout << "-- metrics (SDL_OBS) --\n" << report.metrics;
  }
  if (html_path != nullptr) {
    std::ofstream out(html_path);
    if (!out) {
      std::cerr << "cannot write " << html_path << "\n";
      return 1;
    }
    render_html(summarize(rt.event_log()->events()), out);
    std::cout << "timeline written to " << html_path << "\n";
  }
  if (check) {
    const CheckReport serial = rt.check_history();
    if (!serial.ok()) {
      std::cout << "not serializable: " << serial.to_string() << "\n";
      return 1;
    }
    std::cout << "serializable: " << serial.commits_checked
              << " commits checked\n";
  }
  return report.clean() ? 0 : 1;
}
