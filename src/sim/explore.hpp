// Schedule exploration drivers over the deterministic scheduler mode
// (ISSUE 3 tentpole): seed sweeps with failure minimization, exact replay,
// and an exhaustive small-bound explorer with commutation pruning
// (DPOR-lite — an alternative schedule is skipped when the step it would
// reorder provably commutes with everything it would jump over).
//
// Usage shape (reusable as a ctest fixture):
//
//   auto build = [](std::int64_t seed) {
//     RuntimeOptions o;
//     o.scheduler.deterministic_seed = seed;
//     auto rt = std::make_unique<Runtime>(o);
//     ... define/seed/spawn ...
//     rt->arm_log();
//     return rt;
//   };
//   SweepResult r = sweep_seeds(build, {.seeds = 64});
//   ASSERT_TRUE(r.ok()) << r.first_failure;   // names the reproducing seed
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "process/runtime.hpp"
#include "sim/decision.hpp"

namespace sdl::sim {

/// Builds a fresh runtime and society for one deterministic run. MUST set
/// `scheduler.deterministic_seed = seed` in the options and should call
/// arm_log() when serializability checking is wanted.
using BuildFn = std::function<std::unique_ptr<Runtime>(std::int64_t seed)>;

/// Program-level invariant checked after each run. Returns an empty string
/// when the run is acceptable, a human-readable complaint otherwise.
using CheckFn = std::function<std::string(Runtime&, const RunReport&)>;

struct SweepOptions {
  std::size_t seeds = 64;
  std::uint64_t first_seed = 0;
  /// Run the serializability checker after every run (no-op unless the
  /// builder called arm_log()).
  bool check_serializability = true;
  /// On the first failure, shrink the recorded schedule to a minimal
  /// failing decision prefix (replayed with default continuation).
  bool minimize = true;
};

struct SweepResult {
  std::size_t runs = 0;
  std::size_t failures = 0;
  std::int64_t first_failing_seed = -1;
  /// Full diagnosis of the first failure: the reproducing seed, the
  /// complaint, and the minimized schedule.
  std::string first_failure;
  /// Minimal failing decision prefix (empty when nothing failed or
  /// minimization is off). Feed to replay_trace to reproduce.
  std::vector<std::uint32_t> minimized_choices;
  /// Distinct schedules observed across the sweep (hash of the dispatch
  /// sequence) — how much interleaving coverage the seeds actually bought.
  std::size_t distinct_traces = 0;
  [[nodiscard]] bool ok() const { return failures == 0; }
};

/// Runs `build(seed)` to quiescence for `seeds` consecutive seeds. A run
/// fails when the report carries process errors, the serializability
/// checker objects, or `check` returns a complaint.
SweepResult sweep_seeds(const BuildFn& build, SweepOptions opts = {},
                        const CheckFn& check = nullptr);

struct ReplayResult {
  RunReport report;
  CheckReport check;
  /// Complete decision log of the replayed run.
  std::vector<std::uint32_t> choices;
};

/// Re-runs one exact schedule: the first `choices.size()` decisions are
/// forced, the rest fall to the first ready process.
ReplayResult replay_trace(const BuildFn& build,
                          const std::vector<std::uint32_t>& choices,
                          std::int64_t seed = 0);

struct ExploreOptions {
  /// Hard cap on schedules actually run (the DFS stops, exhausted=false).
  std::size_t max_schedules = 4096;
  /// Decision points beyond this depth are not branched on.
  std::size_t max_depth = 4096;
  /// Skip alternatives whose reordered step commutes with every step it
  /// would jump over (adjacent-bucket independence, SimStep::dependent).
  bool prune_commuting = true;
  bool check_serializability = true;
};

struct ExploreResult {
  std::size_t schedules_run = 0;
  /// Alternatives skipped by the commutation argument.
  std::size_t schedules_pruned = 0;
  std::size_t failures = 0;
  std::string first_failure;
  std::vector<std::uint32_t> failing_choices;
  /// True when the DFS drained within the caps — every non-equivalent
  /// schedule up to max_depth was run.
  bool exhausted = false;
  [[nodiscard]] bool ok() const { return failures == 0; }
};

/// Systematic DFS over schedules of `build(0)`: at every decision point of
/// every executed schedule, each unexplored alternative becomes a new
/// forced prefix. Only for small societies — the space is exponential;
/// pruning removes provably equivalent interleavings, not the blow-up.
ExploreResult explore_schedules(const BuildFn& build, ExploreOptions opts = {},
                                const CheckFn& check = nullptr);

}  // namespace sdl::sim
