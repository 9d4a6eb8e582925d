// E20 (overload degradation curve): admission control and graceful
// degradation under open-loop load.
//
// Claim under test: with the admission gate armed, pushing offered load
// past saturation must NOT collapse goodput — the degradation curve
// plateaus because excess arrivals are shed early (admission gate, stale
// drops) instead of queueing into work the system can no longer finish in
// time. Without protection, an open-loop generator past saturation grows
// unbounded queues and goodput (completions within the SLO) falls off a
// cliff.
//
// Methodology (open loop, coordinated-omission-free):
//   * Capacity is calibrated once, closed-loop: W client threads submit
//     requests back-to-back for a short window; completions/s = the
//     saturation rate C.
//   * Each row then offers a FIXED arrival rate (50%, 100%, 200% of C)
//     from pre-scheduled timestamps: arrival i fires at t0 + i/rate,
//     regardless of how the previous request fared. Client w handles
//     arrivals i where i % W == w.
//   * Latency is measured from the SCHEDULED arrival, not submission —
//     time spent queued behind a slow system counts against it (this is
//     what closed-loop benches systematically omit).
//   * A request completing within the SLO counts toward goodput; one shed
//     by the admission gate retries after the RetryAfter hint while its
//     patience lasts, then drops (shed_admission). A client running so
//     far behind schedule that an arrival's patience is already exhausted
//     drops it without submitting (shed_stale — deadline-aware shedding).
//
// Reported per row (machine-readable via --benchmark_format=json):
//   * offered_per_sec / goodput_per_sec — the degradation curve;
//   * goodput_vs_peak — this row's goodput relative to the best row seen
//     so far (the 200%-row value is the plateau gate: >= 0.7 required by
//     run_benches.py --check and CI);
//   * shed_admission / shed_stale — where the excess load went;
//   * p50_ms / p99_ms — completion latency from scheduled arrival;
//   * sheds_total — the runtime's own sdl_admission_shed_total counter
//     (proves the gate, not just client-side patience, did the shedding).
//
// Knobs: SDL_E20_MS (timed window per row, default 800), SDL_E20_THREADS
// (client threads, default 8). CI smoke uses a short window; see
// EXPERIMENTS.md E20 for full-length curves.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace sdl;
using namespace sdl::bench;
using Clock = std::chrono::steady_clock;

constexpr int kCounters = 4;        // contended counter tuples
constexpr int kTxnsPerRequest = 16; // increments per request (sizes the work)
constexpr std::int64_t kSloUs = 10'000;      // goodput SLO, from arrival
constexpr std::int64_t kPatienceUs = 10'000; // give up on a request after this

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

int client_threads() {
  // Floor at 4 even on small boxes: an open-loop generator needs more
  // clients than the admission limit or the gate can never engage (a
  // single synchronous client can hold at most one slot).
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int def = hw > 0 ? std::min(8, std::max(4, hw)) : 4;
  return std::max(1, env_int("SDL_E20_THREADS", def));
}

RuntimeOptions overload_options(int threads) {
  RuntimeOptions opts;
  // Admission gate below the client count so saturation actually engages
  // it.
  opts.max_inflight = static_cast<std::size_t>(std::max(1, threads / 2));
  return opts;
}

void seed_counters(Runtime& rt) {
  for (int k = 0; k < kCounters; ++k) rt.seed(tup("c", k, 0));
}

/// One request = kTxnsPerRequest increments of counter `k`. Returns false
/// if any increment was shed and patience ran out (the request failed).
bool run_request(Runtime& rt, Transaction& txn, Env& env, int k_slot, int k,
                 Clock::time_point give_up) {
  env[static_cast<std::size_t>(k_slot)] = static_cast<std::int64_t>(k);
  for (int i = 0; i < kTxnsPerRequest; ++i) {
    while (true) {
      const TxnResult r = rt.execute(txn, env);
      if (r.success) break;
      if (!r.shed) return false;  // engine failure (shouldn't happen here)
      const auto wake = Clock::now() + std::chrono::microseconds(
                                           std::max<std::int64_t>(
                                               r.retry_after_us, 1));
      if (wake >= give_up) return false;
      std::this_thread::sleep_until(wake);
    }
  }
  return true;
}

/// Per-thread transaction: increment counter ("c", k, n). The env slot
/// for "k" carries the counter id, so one resolved transaction serves
/// every counter (the param-passing idiom process definitions use).
struct ClientTxn {
  SymbolTable st;
  Transaction txn;
  Env env;
  int k_slot = 0;
  ClientTxn() {
    txn = TxnBuilder(TxnType::Delayed)
              .exists({"n"})
              .match(pat({A("c"), E(evar("k")), V("n")}), true)
              .assert_tuple({lit(Value::atom("c")), evar("k"),
                             add(evar("n"), lit(1))})
              .build();
    k_slot = st.intern("k");
    txn.resolve(st);
    env.assign(static_cast<std::size_t>(st.size()), Value{});
  }
};

/// Closed-loop calibration: completions/s with W threads at full tilt.
double calibrate(int threads) {
  static double cached = 0.0;
  if (cached > 0.0) return cached;
  Runtime rt(overload_options(threads));
  seed_counters(rt);
  std::atomic<std::uint64_t> done{0};
  std::atomic<bool> stop{false};
  const auto window = std::chrono::milliseconds(200);
  {
    std::vector<std::jthread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        ClientTxn ct;
        std::uint64_t n = 0;
        int k = t % kCounters;
        while (!stop.load(std::memory_order_relaxed)) {
          const auto give_up = Clock::now() + std::chrono::seconds(1);
          if (run_request(rt, ct.txn, ct.env, ct.k_slot, k, give_up)) ++n;
          k = (k + 1) % kCounters;
        }
        done.fetch_add(n, std::memory_order_relaxed);
      });
    }
    std::this_thread::sleep_for(window);
    stop.store(true, std::memory_order_relaxed);
  }
  cached = static_cast<double>(done.load()) /
           std::chrono::duration<double>(window).count();
  if (cached < 1.0) cached = 1.0;
  return cached;
}

/// Peak goodput across rows run so far (rows execute in registration
/// order, so the 200% row sees the 50%/100% peaks).
double& peak_goodput() {
  static double peak = 0.0;
  return peak;
}

void BM_Overload(benchmark::State& state) {
  const int pct = static_cast<int>(state.range(0));  // % of saturation
  const int threads = client_threads();
  const double capacity = calibrate(threads);
  const double rate = capacity * pct / 100.0;
  const auto duration =
      std::chrono::milliseconds(std::max(100, env_int("SDL_E20_MS", 800)));
  const auto total = static_cast<std::uint64_t>(
      rate * std::chrono::duration<double>(duration).count());

  std::uint64_t goodput = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed_admission = 0;
  std::uint64_t shed_stale = 0;
  std::uint64_t sheds_total = 0;
  std::vector<std::int64_t> latencies_us;
  double elapsed_s = 0.0;

  for (auto _ : state) {
    Runtime rt(overload_options(threads));
    seed_counters(rt);
    // The admission gauges must be visible in the unified export — the
    // operator-facing contract, checked here so a rename fails the bench.
    const std::string json = rt.metrics().to_json();
    for (const char* name : {"sdl_admission_inflight", "sdl_admitted_total",
                             "sdl_admission_shed_total"}) {
      if (json.find(name) == std::string::npos) {
        state.SkipWithError("admission gauge missing from obs export");
        return;
      }
    }

    std::atomic<std::uint64_t> good{0};
    std::atomic<std::uint64_t> comp{0};
    std::atomic<std::uint64_t> adm{0};
    std::atomic<std::uint64_t> stale{0};
    std::vector<std::vector<std::int64_t>> lat(
        static_cast<std::size_t>(threads));
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    const double interval_us = 1e6 / rate;
    {
      std::vector<std::jthread> clients;
      clients.reserve(static_cast<std::size_t>(threads));
      for (int w = 0; w < threads; ++w) {
        clients.emplace_back([&, w] {
          ClientTxn ct;
          auto& mine = lat[static_cast<std::size_t>(w)];
          std::uint64_t g = 0, c = 0, a = 0, s = 0;
          for (std::uint64_t i = w; i < total;
               i += static_cast<std::uint64_t>(threads)) {
            const auto sched =
                t0 + std::chrono::microseconds(
                         static_cast<std::int64_t>(i * interval_us));
            const auto give_up = sched + std::chrono::microseconds(kPatienceUs);
            std::this_thread::sleep_until(sched);
            if (Clock::now() >= give_up) {
              ++s;  // behind schedule past patience: shed without submitting
              continue;
            }
            const int k = static_cast<int>(i) % kCounters;
            if (!run_request(rt, ct.txn, ct.env, ct.k_slot, k, give_up)) {
              ++a;
              continue;
            }
            ++c;
            const auto us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - sched)
                    .count();
            mine.push_back(us);
            if (us <= kSloUs) ++g;
          }
          good.fetch_add(g);
          comp.fetch_add(c);
          adm.fetch_add(a);
          stale.fetch_add(s);
        });
      }
    }
    elapsed_s += std::chrono::duration<double>(Clock::now() - t0).count();
    goodput += good.load();
    completed += comp.load();
    shed_admission += adm.load();
    shed_stale += stale.load();
    sheds_total += rt.admission()->stats().sheds.load();
    for (auto& v : lat) {
      latencies_us.insert(latencies_us.end(), v.begin(), v.end());
    }
  }

  const double goodput_rate = elapsed_s > 0.0 ? goodput / elapsed_s : 0.0;
  state.counters["offered_per_sec"] = rate;
  state.counters["goodput_per_sec"] = goodput_rate;
  state.counters["completed"] = static_cast<double>(completed);
  state.counters["shed_admission"] = static_cast<double>(shed_admission);
  state.counters["shed_stale"] = static_cast<double>(shed_stale);
  state.counters["sheds_total"] = static_cast<double>(sheds_total);
  if (!latencies_us.empty()) {
    std::sort(latencies_us.begin(), latencies_us.end());
    const auto at = [&](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(latencies_us.size() - 1));
      return static_cast<double>(latencies_us[idx]) / 1000.0;
    };
    state.counters["p50_ms"] = at(0.50);
    state.counters["p99_ms"] = at(0.99);
  }
  double& peak = peak_goodput();
  peak = std::max(peak, goodput_rate);
  state.counters["goodput_vs_peak"] = peak > 0.0 ? goodput_rate / peak : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(goodput));
}

BENCHMARK(BM_Overload)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
