// sdl_perfbench — end-to-end benchmark of the SDL runtime.
//
// Runs one seeded workload through the public API and prints one JSON
// result line (last line of stdout). run.py builds this binary, adds the
// host fingerprint and reshapes the line into the benchmark contract.
//
//   sdl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--wrong-expect]
//
// Workloads (sizes are fixed; the seed picks the inputs):
//   sort_views       §3.2 view-scoped pairwise sort, consensus exit
//   sum3_replicated  §3.1 Sum3, one || replication over N values
//   kv_durable       closed-loop host service on Runtime::execute, WAL at
//                    fsync_every=8 plus one loopback follower
//
// A run repeats its workload until --seconds is spent and reports medians
// over repetitions. Set-up and per-transaction cost are CPU time: on a
// shared VM the hypervisor steals up to a third of the CPU for tens of
// seconds at a time, which doubled the wall time of a repetition while its
// CPU time stayed within a few percent. The program workloads run on one
// scheduler worker: with nproc workers their CPU cost per commit followed
// the CPU the host lent the guest (workers contend for the total exclusion
// that consensus sweeps and termination checks take). kv_durable keeps four
// concurrent clients. Wall-clock figures are reported as per-layer metrics
// (wall.*). With --trace 0 the run is untraced and reports end-to-end
// metrics. With --trace 1 the first half of the budget runs untraced and
// the second half with SDL_OBS on plus the benchmark's own spans;
// per-layer metrics come from the traced half and obs.overhead_frac
// compares the two halves' CPU cost per transaction.
// --wrong-expect perturbs one expected value per workload, so the output
// check must fail (run.py --self-test relies on it).
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "lang/compile.hpp"
#include "lang/parser.hpp"
#include "obs/metrics.hpp"
#include "persist/wal.hpp"
#include "process/runtime.hpp"
#include "query/compile.hpp"
#include "repl/repl.hpp"
#include "repl/transport.hpp"

#ifndef SDL_PERFBENCH_BUILD_TYPE
#define SDL_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SDL_PERFBENCH_COMPILER
#define SDL_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace sdl;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---- Workload sizes -------------------------------------------------------

constexpr int kSetupRepeats = 3;  // program set-ups timed per repetition
constexpr int kKvSetups = 80;     // kv_durable set-ups timed per run
constexpr std::size_t kProgramWorkers = 1;  // scheduler workers, see top
constexpr int kSortNodes = 128;
constexpr int kSum3Values = 4096;
constexpr int kKvKeys = 1024;
constexpr int kKvClients = 4;  // capped at nproc
constexpr int kKvOpsPerClient = 12500;  // per repetition
constexpr int kKvReadPercent = 90;
constexpr std::size_t kKvFsyncEvery = 8;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile over raw nanosecond samples, in µs.
double percentile_us(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = std::min(
      v.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]) / 1000.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// CPU time used by every thread of this process, in seconds. Unlike wall
// time it does not grow while the hypervisor runs other guests.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// CPU time of the calling thread, in seconds. Set-up is timed with it:
// the process clock would also charge the WAL flusher, the shipping
// threads and the follower's applier, whose work at that moment depends on
// how far behind they run.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// SplitMix64: the one source of seeded randomness for input generation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t s_;
};

// ---- Spans ----------------------------------------------------------------

// Spans recorded around the benchmark's calls into the runtime, kept in
// memory and written out at the end with self times. Per-operation
// execute spans are folded into one aggregate child per client batch (a
// span per execute would be millions of records per run).
class Spans {
 public:
  static constexpr int kNone = -1;

  void set_enabled(bool on) { enabled_ = on; }

  int begin(const std::string& name, int parent) {
    if (!enabled_) return kNone;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, Clock::now(), {}, 1, 0, 0});
    return static_cast<int>(spans_.size() - 1);
  }

  void end(int id) {
    if (id == kNone) return;
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now;
    s.total_ns = ns_between(s.start, s.end);
    if (s.parent != kNone) {
      spans_[static_cast<std::size_t>(s.parent)].child_ns += s.total_ns;
    }
  }

  // `count` operations of one kind that together took `total_ns`.
  void aggregate(const std::string& name, int parent, std::uint64_t count,
                 std::uint64_t total_ns) {
    if (!enabled_ || count == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, parent, {}, {}, count, total_ns, 0});
    if (parent != kNone) {
      spans_[static_cast<std::size_t>(parent)].child_ns += total_ns;
    }
  }

  // Writes every span and a per-name summary (count, total, self) as JSON.
  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    struct Sum {
      std::uint64_t count = 0, total_ns = 0, self_ns = 0;
    };
    std::map<std::string, Sum> by_name;
    std::ostringstream os;
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::uint64_t self =
          s.total_ns > s.child_ns ? s.total_ns - s.child_ns : 0;
      Sum& sum = by_name[s.name];
      sum.count += s.count;
      sum.total_ns += s.total_ns;
      sum.self_ns += self;
      os << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
         << "\",\"parent\":" << s.parent << ",\"count\":" << s.count
         << ",\"total_ns\":" << s.total_ns << ",\"self_ns\":" << self << "}";
    }
    os << "],\"summary\":{";
    bool first = true;
    for (const auto& [name, sum] : by_name) {
      os << (first ? "" : ",") << "\"" << name << "\":{\"count\":" << sum.count
         << ",\"total_ns\":" << sum.total_ns << ",\"self_ns\":" << sum.self_ns
         << "}";
      first = false;
    }
    os << "}}\n";
    std::ofstream(path) << os.str();
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point start, end;
    std::uint64_t count;
    std::uint64_t total_ns;
    std::uint64_t child_ns;
  };
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Spans g_spans;

struct SpanScope {
  SpanScope(const std::string& name, int parent)
      : id(g_spans.begin(name, parent)) {}
  ~SpanScope() { g_spans.end(id); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id;
};

// ---- Per-layer counters (traced half only) --------------------------------

// Merged log2 histogram over the fresh runtimes of every repetition.
struct Hist {
  obs::LatencyHistogram::Snapshot snap;
  void add(const obs::LatencyHistogram& h) {
    const auto s = h.snapshot();
    snap.count += s.count;
    snap.sum += s.sum;
    snap.max = std::max(snap.max, s.max);
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      snap.buckets[i] += s.buckets[i];
    }
  }
  [[nodiscard]] double us(double q) const {
    return snap.count == 0 ? 0.0 : snap.quantile(q) / 1000.0;
  }
};

struct LayerTotals {
  double attempts = 0, commits = 0, failures = 0, wakes = 0;
  double read_ok = 0, read_retries = 0, read_fallbacks = 0;
  double scanned = 0;
  double window_scanned = 0, window_admitted = 0;
  double sweeps = 0, fires = 0;
  double logged_commits = 0, syncs = 0, wal_bytes = 0;
  double repl_bytes = 0, repl_commits = 0;
  std::vector<double> catchup_ms, lag_records_end;
  Hist wake_to_dispatch, lock_wait, evaluate, wal_flush;

  void add_runtime(Runtime& rt) {
    const Runtime::Stats s = rt.stats();
    attempts += static_cast<double>(s.txn_attempts);
    commits += static_cast<double>(s.txn_commits);
    failures += static_cast<double>(s.txn_failures);
    wakes += static_cast<double>(s.wakes_delivered);
    sweeps += static_cast<double>(s.consensus_sweeps);
    fires += static_cast<double>(s.consensus_fires);
    EngineStats& es = rt.engine().stats();
    read_ok += static_cast<double>(es.read_optimistic.load());
    read_retries += static_cast<double>(es.read_retries.load());
    read_fallbacks += static_cast<double>(es.read_fallbacks.load());
    scanned += static_cast<double>(rt.space().stats().records_scanned);
    obs::MetricsRegistry& m = rt.metrics();
    window_scanned += static_cast<double>(
        m.counter("sdl_window_records_scanned_total").load());
    window_admitted += static_cast<double>(
        m.counter("sdl_window_records_admitted_total").load());
    wake_to_dispatch.add(m.histogram("sdl_wake_to_dispatch_ns"));
    lock_wait.add(m.histogram("sdl_txn_lock_wait_ns"));
    evaluate.add(m.histogram("sdl_txn_evaluate_ns"));
    wal_flush.add(m.histogram("sdl_wal_flush_ns"));
  }
};

// Peak resident set of this process image, from VmHWM. (getrusage's
// ru_maxrss would also count the parent's peak inherited across exec.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// Returns the allocator's free memory to the system and lowers VmHWM to
// the resident set that is left, so that the next peak_rss_mb() reads the
// peak of one repetition alone, not memory that earlier repetitions freed.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM");
}

// ---- Results --------------------------------------------------------------

struct Phase {
  // CPU seconds of the set-up thread for each set-up and its parts.
  std::vector<double> setup_s, parse_s, load_s;
  // Per repetition: process CPU per committed transaction (or acknowledged
  // execute), and the wall-clock figures.
  std::vector<double> cpu_us_per_txn, quiesce_s, txn_per_s;
  // Peak resident set of each repetition, in MiB.
  std::vector<double> peak_rss_mb;
  // kv_durable client latency percentiles, one entry per repetition.
  std::vector<double> read_p50_us, read_p99_us, write_p50_us, write_p99_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  LayerTotals layers;
  std::uint64_t plan_hits = 0, plan_misses = 0, plan_bailouts = 0;

  void fail(std::string what) { errors.push_back(std::move(what)); }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;  // required
  bool trace = false;
  bool wrong_expect = false;
  std::string work_dir;
};

// Inputs of repetition `rep` of a run seeded with `seed`. Each repetition
// gets fresh inputs, so a run's median covers many inputs and the figures
// of two seeds differ less than single inputs do.
std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t rep) {
  return Rng(seed ^ (rep * 0xD1B54A32D192ED03ULL)).next();
}

// Added to one expected value per workload under --wrong-expect.
int g_expect_bias = 0;

// Repeats `rep(i)` until the budget is spent (at least once). A repetition
// starts only if the median repetition so far still fits.
void repeat_for(double budget_s,
                const std::function<void(std::uint64_t)>& rep) {
  const auto t0 = Clock::now();
  std::vector<double> rep_s;
  std::uint64_t i = 0;
  do {
    const auto r0 = Clock::now();
    rep(i++);
    rep_s.push_back(seconds_between(r0, Clock::now()));
  } while (seconds_between(t0, Clock::now()) + median(rep_s) <= budget_s);
}

// ---- Program workloads (generated SDL through src/lang) -------------------

struct ProgramSpec {
  std::string source;
  // Checks the quiescent dataspace; returns an empty string when correct.
  std::function<std::string(const std::vector<Record>&)> check;
};

// A seeded permutation of 0..n-1 with exactly n(n-1)/4 inversions: a
// uniform Lehmer code nudged to the target sum, so the number of swaps
// (and of sort commits) is the same for every seed.
std::vector<int> permutation_with_fixed_inversions(int n, Rng& rng) {
  std::vector<int> code(static_cast<std::size_t>(n));
  long sum = 0;
  for (int i = 0; i < n; ++i) {
    code[static_cast<std::size_t>(i)] =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(n - i)));
    sum += code[static_cast<std::size_t>(i)];
  }
  const long target = static_cast<long>(n) * (n - 1) / 4;
  while (sum != target) {
    const auto i =
        static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)));
    int& c = code[i];
    if (sum < target && c < n - 1 - static_cast<int>(i)) {
      ++c;
      ++sum;
    } else if (sum > target && c > 0) {
      --c;
      --sum;
    }
  }
  std::vector<int> remaining(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) remaining[static_cast<std::size_t>(i)] = i;
  std::vector<int> perm;
  perm.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto at = remaining.begin() + code[static_cast<std::size_t>(i)];
    perm.push_back(*at);
    remaining.erase(at);
  }
  return perm;
}

ProgramSpec sort_views(std::uint64_t seed) {
  const int n = kSortNodes;
  Rng rng(seed);
  const std::vector<int> perm = permutation_with_fixed_inversions(n, rng);
  // Node i (1-based) holds property 10*perm+10 and value atom x<perm>.
  std::ostringstream os;
  os << "process Sort(id1, id2)\n"
        "import [id1, *, *, *], [id2, *, *, *]\n"
        "export [id1, *, *, *], [id2, *, *, *]\n"
        "behavior\n"
        "  *{ exists p1, v1, n1, p2, v2, n2 :\n"
        "       [id1, p1, v1, n1]!, [id2, p2, v2, n2]! when p1 > p2\n"
        "       -> [id1, p2, v2, n1], [id2, p1, v1, n2]\n"
        "   | exists p1, p2 : [id1, p1, *, *], [id2, p2, *, *] when p1 <= p2\n"
        "       ^ exit\n"
        "   }\n"
        "end\n\ninit {\n";
  for (int i = 1; i <= n; ++i) {
    const int v = perm[static_cast<std::size_t>(i - 1)];
    os << "  [" << i << ", " << 10 * v + 10 << ", x" << v << ", ";
    if (i < n) {
      os << i + 1;
    } else {
      os << "nil";
    }
    os << "];\n";
  }
  os << "}\n\n";
  std::vector<int> pairs(static_cast<std::size_t>(n - 1));
  for (int i = 0; i < n - 1; ++i) pairs[static_cast<std::size_t>(i)] = i + 1;
  rng.shuffle(pairs);
  for (int i : pairs) os << "spawn Sort(" << i << ", " << i + 1 << ")\n";

  ProgramSpec spec;
  spec.source = os.str();
  spec.check = [n](const std::vector<Record>& recs) -> std::string {
    if (static_cast<int>(recs.size()) != n) {
      return "expected " + std::to_string(n) + " nodes, got " +
             std::to_string(recs.size());
    }
    // After sorting, node i holds the i-th smallest property, and the
    // (property, value) pairs are the input's: node i = (10*(i-1)+10, x(i-1)).
    std::vector<int> seen(static_cast<std::size_t>(n), 0);
    for (const Record& r : recs) {
      const Tuple& t = r.tuple;
      if (t.arity() != 4 || !t[0].is_int() || !t[1].is_int() ||
          !t[2].is_atom()) {
        return "unexpected tuple " + t.to_string();
      }
      const std::int64_t id = t[0].as_int();
      if (id < 1 || id > n) return "unexpected node " + t.to_string();
      const std::int64_t want_p = 10 * (id - 1) + 10 + g_expect_bias;
      const Value want_v = Value::atom("x" + std::to_string(id - 1));
      const Value want_next = id < n ? Value(static_cast<std::int64_t>(id + 1))
                                     : Value::atom("nil");
      if (t[1].as_int() != want_p || !(t[2] == want_v) ||
          !(t[3] == want_next)) {
        return "node out of order or altered: " + t.to_string();
      }
      ++seen[static_cast<std::size_t>(id - 1)];
    }
    for (int c : seen) {
      if (c != 1) return "node ids are not a permutation of the input";
    }
    return {};
  };
  return spec;
}

// One replication adds pairs of values until a single tuple holds the
// total; every seed does n-1 commits. The seed picks the values and the
// order of their tuples.
ProgramSpec sum3_replicated(std::uint64_t seed) {
  const int n = kSum3Values;
  Rng rng(seed);
  std::vector<std::int64_t> values(static_cast<std::size_t>(n));
  std::int64_t total = 0;
  for (auto& v : values) {
    v = 1 + static_cast<std::int64_t>(rng.below(1000));
    total += v;
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  rng.shuffle(order);

  std::ostringstream os;
  os << "process Sum3\n"
        "behavior\n"
        "  ||{ exists v, a, u, b : [v, a]!, [u, b]! when v != u -> "
        "[u, a + b] }\n"
        "end\n\ninit {\n";
  for (int i : order) {
    os << "  [" << i + 1 << ", " << values[static_cast<std::size_t>(i)]
       << "];\n";
  }
  os << "}\n\nspawn Sum3()\n";

  ProgramSpec spec;
  spec.source = os.str();
  spec.check = [n, total](const std::vector<Record>& recs) -> std::string {
    if (recs.size() != 1) {
      return "expected exactly one tuple, got " + std::to_string(recs.size());
    }
    const Tuple& t = recs[0].tuple;
    if (t.arity() != 2 || !t[0].is_int() || !t[1].is_int() ||
        t[0].as_int() < 1 || t[0].as_int() > n) {
      return "unexpected tuple " + t.to_string();
    }
    if (t[1].as_int() != total + g_expect_bias) {
      return "sum " + std::to_string(t[1].as_int()) + " != " +
             std::to_string(total + g_expect_bias);
    }
    return {};
  };
  return spec;
}

void run_program(ProgramSpec (*make)(std::uint64_t), std::uint64_t seed,
                 double budget_s, bool traced, Phase& out) {
  repeat_for(budget_s, [&](std::uint64_t rep) {
    const ProgramSpec spec = make(rep_seed(seed, rep));
    reset_peak_rss();
    SpanScope rep_span("repetition", Spans::kNone);
    // Set up several times and keep the last runtime: setup_s is a median
    // over many short timings.
    std::optional<Runtime> rt;
    for (int i = 0; i < kSetupRepeats; ++i) {
      rt.reset();
      const double cpu0 = thread_cpu_s();
      std::optional<lang::Program> program;
      {
        SpanScope s("lang.parse_program", rep_span.id);
        program = lang::parse_program(spec.source);
      }
      const double cpu1 = thread_cpu_s();
      {
        SpanScope s("lang.load_program", rep_span.id);
        RuntimeOptions opts;
        opts.scheduler.workers = kProgramWorkers;
        rt.emplace(opts);
        lang::load_program(*rt, std::move(*program));
      }
      const double cpu2 = thread_cpu_s();
      out.parse_s.push_back(cpu1 - cpu0);
      out.load_s.push_back(cpu2 - cpu1);
      out.setup_s.push_back(cpu2 - cpu0);
    }
    const double cpu0 = process_cpu_s();
    const auto t2 = Clock::now();
    RunReport report;
    {
      SpanScope s("Runtime::run", rep_span.id);
      report = rt->run();
    }
    const auto t3 = Clock::now();

    const Runtime::Stats st = rt->stats();
    out.cpu_us_per_txn.push_back(1e6 * (process_cpu_s() - cpu0) /
                                 static_cast<double>(st.txn_commits));
    out.quiesce_s.push_back(seconds_between(t2, t3));
    out.txn_per_s.push_back(static_cast<double>(st.txn_commits) /
                            seconds_between(t2, t3));
    out.attempted += st.txn_commits;

    if (!report.clean()) {
      out.fail("run not clean: parked=" + std::to_string(report.still_parked) +
               " errors=" + std::to_string(report.errors.size()) +
               " timed_out=" + std::to_string(report.timed_out.size()) +
               " killed=" + std::to_string(report.killed.size()));
    }
    if (std::string err = spec.check(rt->space().snapshot()); !err.empty()) {
      out.fail(err);
    }
    out.peak_rss_mb.push_back(peak_rss_mb());
    if (traced) out.layers.add_runtime(*rt);
  });
}

// ---- kv_durable: closed-loop host service ---------------------------------

struct KvOp {
  bool write;
  std::int64_t key;
};

// One client's transactions: the key is a parameter bound in the env, so
// each client resolves one read and one write transaction.
struct KvClient {
  SymbolTable st;
  Transaction read;
  Transaction write;
  Env env;
  int k_slot = 0;
  int v_slot = 0;

  KvClient() {
    read = TxnBuilder()
               .exists({"v"})
               .match(pat({A("kv"), V("k"), V("v")}))
               .build();
    write = TxnBuilder()
                .exists({"v"})
                .match(pat({A("kv"), V("k"), V("v")}), /*retract=*/true)
                .assert_tuple({lit(Value::atom("kv")), evar("k"),
                               add(evar("v"), lit(1))})
                .build();
    k_slot = st.intern("k");
    read.resolve(st);
    write.resolve(st);
    v_slot = *st.lookup("v");
    env.resize(static_cast<std::size_t>(st.size()));
  }
};

std::vector<std::vector<KvOp>> kv_streams(std::uint64_t seed, int clients) {
  Rng rng(seed);
  std::vector<std::vector<KvOp>> streams(static_cast<std::size_t>(clients));
  for (auto& s : streams) {
    s.reserve(kKvOpsPerClient);
    for (int i = 0; i < kKvOpsPerClient; ++i) {
      const bool write = rng.below(100) >= kKvReadPercent;
      s.push_back(KvOp{write, static_cast<std::int64_t>(rng.below(kKvKeys))});
    }
  }
  return streams;
}

// Checks one replica: exactly one [kv, k, acked[k]] per key, nothing else.
std::string check_kv(const std::vector<Record>& recs,
                     const std::vector<std::int64_t>& acked,
                     const char* where) {
  if (recs.size() != acked.size()) {
    return std::string(where) + ": expected " + std::to_string(acked.size()) +
           " keys, got " + std::to_string(recs.size());
  }
  std::vector<int> seen(acked.size(), 0);
  for (const Record& r : recs) {
    const Tuple& t = r.tuple;
    if (t.arity() != 3 || !(t[0] == Value::atom("kv")) || !t[1].is_int() ||
        !t[2].is_int() || t[1].as_int() < 0 ||
        t[1].as_int() >= static_cast<std::int64_t>(acked.size())) {
      return std::string(where) + ": unexpected tuple " + t.to_string();
    }
    const auto k = static_cast<std::size_t>(t[1].as_int());
    const std::int64_t want = acked[k] + (k == 0 ? g_expect_bias : 0);
    if (t[2].as_int() != want || ++seen[k] != 1) {
      return std::string(where) + ": key " + std::to_string(k) + " holds " +
             t[2].to_string() + ", expected " + std::to_string(want);
    }
  }
  return {};
}

// One leader (WAL in a fresh directory) plus one loopback follower.
struct KvCluster {
  std::optional<Runtime> leader;
  std::optional<Runtime> follower;

  explicit KvCluster(const std::string& dir) {
    RuntimeOptions lo;
    lo.scheduler.workers = nproc();
    lo.persist.dir = dir;
    lo.persist.fsync_every = kKvFsyncEvery;
    lo.repl.role = repl::Role::Leader;
    lo.repl.node_id = 1;
    lo.repl.poll_interval_ms = 1;
    leader.emplace(lo);
    for (std::int64_t k = 0; k < kKvKeys; ++k) {
      leader->seed(tup("kv", k, std::int64_t{0}));
    }
    RuntimeOptions fo;
    fo.scheduler.workers = nproc();
    fo.repl.role = repl::Role::Follower;
    fo.repl.node_id = 2;
    fo.repl.poll_interval_ms = 1;
    follower.emplace(fo);
    auto [a, b] = repl::make_loopback_pair();
    leader->repl_leader()->add_follower(std::move(a));
    follower->repl_follower()->attach(std::move(b));
  }
  ~KvCluster() {
    follower.reset();  // detach the follower before its leader goes
    leader.reset();
  }
  KvCluster(const KvCluster&) = delete;
  KvCluster& operator=(const KvCluster&) = delete;
};

// A long-lived service: one cluster and one set of client threads per
// phase; each repetition is one batch of seeded ops from every client,
// followed by a WAL sync, the follower catch-up and the output check.
void serve_kv(KvCluster& cluster, std::uint64_t seed, const std::string& dir,
              double budget_s, bool traced, Phase& out) {
  const int clients =
      static_cast<int>(std::min<unsigned>(kKvClients, nproc()));
  Runtime& leader = *cluster.leader;
  Runtime& follower = *cluster.follower;

  struct ClientBatch {
    std::vector<KvOp> ops;
    std::vector<std::uint32_t> read_ns, write_ns;
    std::vector<std::int64_t> acked;
    std::uint64_t failed = 0;
    std::uint64_t read_total_ns = 0, write_total_ns = 0;
  };
  std::vector<ClientBatch> batches(static_cast<std::size_t>(clients));
  std::vector<std::int64_t> acked(kKvKeys, 0);  // cumulative over batches

  // Closed loop: each client sends its next op when the last returns. The
  // clients meet the main thread at `gate` before and after each batch.
  std::barrier gate(clients + 1);
  std::atomic<bool> stop{false};
  std::vector<std::jthread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      KvClient k;
      ClientBatch& b = batches[static_cast<std::size_t>(c)];
      for (;;) {
        gate.arrive_and_wait();
        if (stop.load()) return;
        for (const KvOp& op : b.ops) {
          k.env[static_cast<std::size_t>(k.k_slot)] = Value(op.key);
          k.env[static_cast<std::size_t>(k.v_slot)] = Value();
          const auto s0 = Clock::now();
          const TxnResult res =
              leader.execute(op.write ? k.write : k.read, k.env);
          const std::uint64_t ns = ns_between(s0, Clock::now());
          const auto ns32 = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(ns, UINT32_MAX));
          if (!res.success) {
            ++b.failed;
          } else if (op.write) {
            ++b.acked[static_cast<std::size_t>(op.key)];
          }
          if (op.write) {
            b.write_ns.push_back(ns32);
            b.write_total_ns += ns;
          } else {
            b.read_ns.push_back(ns32);
            b.read_total_ns += ns;
          }
        }
        gate.arrive_and_wait();
      }
    });
  }
  // Releases the clients on every exit path, so the joins cannot hang.
  struct StopClients {
    std::atomic<bool>& stop;
    std::barrier<>& gate;
    ~StopClients() {
      stop.store(true);
      gate.arrive_and_wait();
    }
  } stop_clients{stop, gate};

  std::vector<std::uint32_t> read_ns, write_ns;
  repeat_for(budget_s, [&](std::uint64_t rep) {
    const auto streams = kv_streams(rep_seed(seed, rep), clients);
    for (int c = 0; c < clients; ++c) {
      ClientBatch& b = batches[static_cast<std::size_t>(c)];
      b.ops = streams[static_cast<std::size_t>(c)];
      b.read_ns.clear();
      b.write_ns.clear();
      b.acked.assign(kKvKeys, 0);
      b.failed = b.read_total_ns = b.write_total_ns = 0;
    }
    reset_peak_rss();
    SpanScope rep_span("repetition", Spans::kNone);
    const int batch_id = g_spans.begin("client_batch", rep_span.id);
    const double cpu0 = process_cpu_s();
    gate.arrive_and_wait();  // start
    const auto c0 = Clock::now();
    gate.arrive_and_wait();  // every client done
    const auto c1 = Clock::now();
    g_spans.end(batch_id);

    // Drain: flush the group-commit tail and wait for the follower.
    const std::uint64_t lag_end = leader.repl_leader()->stats().lag_records;
    {
      SpanScope s("PersistManager::sync", rep_span.id);
      leader.persist()->sync();
    }
    const std::uint64_t target = leader.persist()->shippable_seq();
    const auto d0 = Clock::now();
    {
      SpanScope s("follower_catchup", rep_span.id);
      const auto deadline = d0 + std::chrono::seconds(30);
      while (follower.repl_follower()->applied_seq() < target &&
             Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    const auto d1 = Clock::now();

    std::uint64_t ops = 0;
    read_ns.clear();
    write_ns.clear();
    for (const ClientBatch& b : batches) {
      ops += b.ops.size();
      out.failed += b.failed;
      for (std::size_t k = 0; k < acked.size(); ++k) acked[k] += b.acked[k];
      read_ns.insert(read_ns.end(), b.read_ns.begin(), b.read_ns.end());
      write_ns.insert(write_ns.end(), b.write_ns.begin(), b.write_ns.end());
      g_spans.aggregate("Runtime::execute(read)", batch_id, b.read_ns.size(),
                        b.read_total_ns);
      g_spans.aggregate("Runtime::execute(write)", batch_id, b.write_ns.size(),
                        b.write_total_ns);
    }
    out.attempted += ops;
    out.cpu_us_per_txn.push_back(1e6 * (process_cpu_s() - cpu0) /
                                 static_cast<double>(ops));
    out.quiesce_s.push_back(seconds_between(c0, d1));
    out.txn_per_s.push_back(static_cast<double>(ops) /
                            seconds_between(c0, c1));
    out.read_p50_us.push_back(percentile_us(read_ns, 0.50));
    out.read_p99_us.push_back(percentile_us(read_ns, 0.99));
    out.write_p50_us.push_back(percentile_us(write_ns, 0.50));
    out.write_p99_us.push_back(percentile_us(write_ns, 0.99));
    if (traced) {
      out.layers.catchup_ms.push_back(1000.0 * seconds_between(d0, d1));
      out.layers.lag_records_end.push_back(static_cast<double>(lag_end));
    }

    if (follower.repl_follower()->applied_seq() < target) {
      out.fail("follower did not drain to seq " + std::to_string(target));
    }
    if (std::string e = check_kv(leader.space().snapshot(), acked, "leader");
        !e.empty()) {
      out.fail(e);
    }
    if (std::string e =
            check_kv(follower.space().snapshot(), acked, "follower");
        !e.empty()) {
      out.fail(e);
    }
    out.peak_rss_mb.push_back(peak_rss_mb());
  });

  const repl::ReplFollowerStats fstats = follower.repl_follower()->stats();
  if (fstats.missing_retracts != 0) {
    out.fail("follower missing_retracts=" +
             std::to_string(fstats.missing_retracts));
  }
  if (traced) {
    LayerTotals& L = out.layers;
    L.add_runtime(leader);
    const persist::PersistManager::Stats ps = leader.persist()->stats();
    L.logged_commits += static_cast<double>(ps.logged_commits);
    L.syncs += static_cast<double>(ps.syncs);
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".wal") {
        const persist::WalReadResult w =
            persist::read_wal_segment(entry.path().string());
        if (w.valid_bytes > persist::kWalHeaderSize) {
          L.wal_bytes +=
              static_cast<double>(w.valid_bytes - persist::kWalHeaderSize);
        }
      }
    }
    L.repl_bytes += static_cast<double>(fstats.applied_bytes);
    L.repl_commits += static_cast<double>(fstats.applied_commits);
  }
}

// Builds a cluster in a fresh WAL directory and records the CPU time of
// the set-up thread.
std::unique_ptr<KvCluster> timed_kv_setup(const std::string& dir, Phase& out) {
  fs::remove_all(dir);
  SpanScope s("setup", Spans::kNone);
  const double cpu0 = thread_cpu_s();
  auto cluster = std::make_unique<KvCluster>(dir);
  out.setup_s.push_back(thread_cpu_s() - cpu0);
  return cluster;
}

void run_kv(std::uint64_t seed, const std::string& work_dir, double budget_s,
            bool traced, Phase& out) {
  const std::string dir = work_dir + "/kv-wal";
  {
    const std::unique_ptr<KvCluster> cluster = timed_kv_setup(dir, out);
    serve_kv(*cluster, seed, dir, budget_s, traced, out);
  }
  // The other set-ups are timed after the measured batches: building and
  // tearing down that many clusters first left a different amount of
  // extra heap in every run under the batches' peak_rss_mb.
  for (int i = 1; i < kKvSetups; ++i) timed_kv_setup(dir, out);
}

// ---- Main -----------------------------------------------------------------

void run_phase(const Options& o, double budget_s, bool traced, Phase& out) {
  obs::set_enabled(traced);
  g_spans.set_enabled(traced);
  const PlanCacheStats& pc = plan_cache_stats();
  const std::uint64_t h0 = pc.hits.load(), m0 = pc.misses.load(),
                      b0 = pc.bailouts.load();
  if (o.workload == "sort_views") {
    run_program(sort_views, o.seed, budget_s, traced, out);
  } else if (o.workload == "sum3_replicated") {
    run_program(sum3_replicated, o.seed, budget_s, traced, out);
  } else {
    run_kv(o.seed, o.work_dir, budget_s, traced, out);
  }
  std::fprintf(stderr,
               "%s phase: %zu repetitions, cpu_us_per_txn median %.4f, "
               "wall quiesce_s min %.4f median %.4f max %.4f\n",
               traced ? "traced" : "untraced", out.quiesce_s.size(),
               median(out.cpu_us_per_txn),
               *std::min_element(out.quiesce_s.begin(), out.quiesce_s.end()),
               median(out.quiesce_s),
               *std::max_element(out.quiesce_s.begin(), out.quiesce_s.end()));
  out.plan_hits = pc.hits.load() - h0;
  out.plan_misses = pc.misses.load() - m0;
  out.plan_bailouts = pc.bailouts.load() - b0;
  obs::set_enabled(false);
  g_spans.set_enabled(false);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(Phase& p) {
  return {
      {"setup_s", median(p.setup_s), "s"},
      {"cpu_us_per_txn", median(p.cpu_us_per_txn), "us"},
      {"peak_rss_mb", median(p.peak_rss_mb), "MiB"},
  };
}

// Per-layer metrics from the traced phase; 0 where a layer is not used by
// the workload (e.g. views outside sort_views, the WAL outside kv_durable).
std::vector<Metric> per_layer(Phase& u, Phase& t) {
  const LayerTotals& L = t.layers;
  const double reads = L.read_ok + L.read_fallbacks;
  const double evals = static_cast<double>(t.plan_hits + t.plan_misses);
  const double cost_u = median(u.cpu_us_per_txn);
  const double cost_t = median(t.cpu_us_per_txn);
  return {
      {"lang.parse_s", median(t.parse_s), "s"},
      {"lang.load_s", median(t.load_s), "s"},
      {"process.wakes_per_commit", ratio(L.wakes, L.commits), "ratio"},
      {"process.wake_to_dispatch_us_p50", L.wake_to_dispatch.us(0.5), "us"},
      {"process.commit_ratio", ratio(L.commits, L.attempts), "ratio"},
      {"txn.read_retry_frac", ratio(L.read_retries, reads), "ratio"},
      {"txn.read_fallback_frac", ratio(L.read_fallbacks, reads), "ratio"},
      {"txn.lock_wait_us_p99", L.lock_wait.us(0.99), "us"},
      {"txn.evaluate_us_p50", L.evaluate.us(0.5), "us"},
      {"txn.failures_per_commit", ratio(L.failures, L.commits), "ratio"},
      {"query.plan_cache_hit_frac",
       ratio(static_cast<double>(t.plan_hits), evals), "ratio"},
      {"query.bailout_frac",
       ratio(static_cast<double>(t.plan_bailouts),
             evals + static_cast<double>(t.plan_bailouts)),
       "ratio"},
      {"space.scanned_per_op", ratio(L.scanned, L.attempts), "count"},
      {"view.window_scanned_per_admitted",
       ratio(L.window_scanned, L.window_admitted), "ratio"},
      {"consensus.sweeps_per_fire", ratio(L.sweeps, L.fires), "ratio"},
      {"persist.commits_per_sync", ratio(L.logged_commits, L.syncs), "ratio"},
      {"persist.wal_flush_us_p99", L.wal_flush.us(0.99), "us"},
      {"persist.wal_bytes_per_commit", ratio(L.wal_bytes, L.logged_commits),
       "bytes"},
      {"repl.catchup_ms", median(L.catchup_ms), "ms"},
      {"repl.bytes_per_commit", ratio(L.repl_bytes, L.repl_commits), "bytes"},
      {"repl.lag_records_end", median(L.lag_records_end), "count"},
      {"runtime.read_p50_us", median(t.read_p50_us), "us"},
      {"runtime.read_p99_us", median(t.read_p99_us), "us"},
      {"runtime.write_p50_us", median(t.write_p50_us), "us"},
      {"runtime.write_p99_us", median(t.write_p99_us), "us"},
      {"obs.overhead_frac", ratio(cost_t, cost_u) - 1.0, "ratio"},
      {"wall.quiesce_s", median(t.quiesce_s), "s"},
      {"wall.txn_per_s", median(t.txn_per_s), "1/s"},
  };
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_result(const std::vector<Metric>& metrics,
                  const std::vector<Phase*>& phases, const Options& o) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  for (const Phase* p : phases) {
    attempted += p->attempted;
    failed += p->failed;
    errors.insert(errors.end(), p->errors.begin(), p->errors.end());
  }
  const bool correct = errors.empty() && failed == 0;
  if (!errors.empty()) failed = attempted;  // a failed check fails every op
  for (const std::string& e : errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}, \"build\": {\"type\": \"" << json_escape(SDL_PERFBENCH_BUILD_TYPE)
     << "\", \"compiler\": \"" << json_escape(SDL_PERFBENCH_COMPILER)
     << "\", \"nproc\": " << nproc() << "}, \"workload\": \"" << o.workload
     << "\", \"seed\": " << o.seed << "}";
  std::printf("%s\n", os.str().c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "sdl_perfbench: %s\nusage: sdl_perfbench --workload "
               "<sort_views|sum3_replicated|kv_durable> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--wrong-expect]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "sdl_perfbench: refusing to time an unoptimised build (%s)\n",
               SDL_PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() != "0";
      } else if (a == "--work-dir") {
        o.work_dir = value();
      } else if (a == "--wrong-expect") {
        o.wrong_expect = true;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (o.workload != "sort_views" && o.workload != "sum3_replicated" &&
      o.workload != "kv_durable") {
    return usage("unknown workload");
  }
  if (o.work_dir.empty() || !(o.seconds > 0.0)) {
    return usage("--work-dir and a positive --seconds are required");
  }
  if (o.wrong_expect) g_expect_bias = 1;
  fs::create_directories(o.work_dir);

  try {
    if (!o.trace) {
      Phase untraced;
      run_phase(o, o.seconds, false, untraced);
      print_result(end_to_end(untraced), {&untraced}, o);
    } else {
      Phase untraced;
      Phase traced;
      run_phase(o, o.seconds / 2, false, untraced);
      run_phase(o, o.seconds / 2, true, traced);
      const std::string spans_path =
          o.work_dir + "/spans-" + o.workload + "-" + std::to_string(o.seed) +
          ".json";
      g_spans.write(spans_path);
      std::fprintf(stderr, "spans written to %s\n", spans_path.c_str());
      print_result(per_layer(untraced, traced), {&untraced, &traced}, o);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdl_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
