// Query compilation: lowering a resolved Query into a flat match program
// executed by the register VM (src/query/vm.hpp), behind a per-query plan
// cache. This is the only query evaluator; the tree-walking join
// interpreter lives in tests/oracle as the differential reference.
//
// Every planning decision is a function of WHICH slots are bound when
// evaluation starts (the binding signature), never of the bound values.
// So we compile once per (binding signature, index epoch):
// replay the planner's pick loop to fix the join order, pre-classify
// every scan (exact bucket / secondary probe / arity sweep), flatten each
// pattern into term ops, and compile guards to bytecode. Evaluation is
// then one linear pass per candidate with no exceptions and no
// re-planning.
//
// Computed pattern terms (an Expr that is not a literal, e.g. Sum1's
// "[k - 2**(j-1), a]!") lower to bytecode too: a CheckExpr term op, an
// ExactExpr scan whose bucket key is computed per step, and a secondary
// probe fed by an ExprProgram. A term is *ready* iff every variable it
// reads is bound before its pattern starts; a pattern is ready iff all
// its terms are, and the planner defers unready patterns exactly as the
// interpreter's rank-2 case does. Terms inside a pattern still see the
// bindings made by earlier terms of that pattern ("[x, x+1]"). A trap
// while evaluating a term rejects: a trap over bound values is permanent
// for the branch, so the branch can yield no match whichever order the
// patterns are tried in. One corner is order-sensitive: a short-circuit
// "and"/"or" term whose skipped operand names an unbound variable is
// unready here, while the interpreter's value-level try_eval would call
// it ready.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "query/query.hpp"
#include "query/vm.hpp"

namespace sdl {

/// One position of a flattened pattern, pre-resolved against the join
/// order's static binding state.
struct TermOp {
  enum class Kind : std::uint8_t {
    Skip,        // wildcard
    CheckConst,  // field must equal `want`
    Bind,        // slot is statically unbound here: bind it (undo-logged)
    Check,       // slot is statically bound here: field must equal env[slot]
    CheckExpr,   // computed term: field must equal `expr`'s value (trap = reject)
  };
  Kind kind = Kind::Skip;
  std::uint32_t field = 0;
  std::int32_t slot = -1;
  Value want;             // CheckConst
  vm::ExprProgram expr;   // CheckExpr
};

/// One join step: which pattern runs at this depth, how its candidates are
/// scanned, and the term ops that accept/reject each candidate.
struct StepPlan {
  enum class Scan : std::uint8_t {
    ExactConst,  // literal head: bucket key precomputed at compile time
    ExactSlot,   // variable head bound upstream: key from env[head_slot]
    ExactExpr,   // ready computed head: key from head_expr (trap = no rows)
    Arity,       // unpinned head: arity-wide sweep
  };
  enum class Second : std::uint8_t { None, Const, Slot, Expr };

  std::size_t pattern_idx = 0;  // original (textual) pattern position
  Scan scan = Scan::Arity;
  IndexKey key;                // ExactConst
  std::int32_t head_slot = -1; // ExactSlot
  vm::ExprProgram head_expr;   // ExactExpr
  std::uint32_t arity = 0;
  Second second = Second::None;  // secondary-index probe (Exact scans only)
  Value second_const;
  std::int32_t second_slot = -1;
  vm::ExprProgram second_expr;  // Second::Expr (trap = no rows)
  std::vector<TermOp> ops;
};

/// A compiled negated group: witness join + optional compiled guard.
struct NegProgram {
  std::vector<StepPlan> steps;
  vm::ExprProgram guard;  // empty = always true
};

/// The complete compiled form of one Query under one binding signature.
/// Immutable after compilation; safe to execute concurrently.
struct MatchProgram {
  Quantifier quantifier = Quantifier::Exists;
  std::size_t pattern_count = 0;
  std::vector<StepPlan> steps;
  std::vector<std::uint8_t> retract;  // by original pattern index
  vm::ExprProgram guard;              // empty = always true
  std::vector<NegProgram> negations;
  int num_regs = 0;  // max register demand across all ExprPrograms

  // Cache key. Bit i of sig[i / 64] is set iff the plan cache's i-th
  // signature slot was bound at evaluation entry.
  std::vector<std::uint64_t> sig;
  std::uint64_t stats_epoch = 0;
  bool planner = true;
};

/// Cumulative plan-cache counters, exported as sdl_plan_cache_* gauges by
/// Runtime::register_gauges. Process-global: the cache itself is
/// per-query, but operators want one set of dials.
struct PlanCacheStats {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> compiles{0};
  std::atomic<std::uint64_t> invalidations{0};  // entries dropped on epoch drift
  /// Evaluations that ran outside the compiled tier. Every query shape
  /// compiles, so this stays 0; it is kept because the end-to-end
  /// benchmark's query.bailout_frac metric reads it.
  std::atomic<std::uint64_t> bailouts{0};
};
PlanCacheStats& plan_cache_stats();

/// Per-query compiled-plan cache, created by Query::resolve and shared by
/// copies of the query (same resolved shape ⇒ same plans). Entries are
/// keyed by (binding signature, planner flag, index-statistics
/// epoch); an epoch bump — the dataspace resized a bucket table, i.e. its
/// population drifted materially — invalidates on next lookup.
class PlanCache {
 public:
  explicit PlanCache(const Query& q);

  /// Returns the compiled program for the current binding signature,
  /// compiling it on a miss. `q` must be the (shape-identical) query this
  /// cache was built from; `env` must already have locals cleared.
  [[nodiscard]] std::shared_ptr<const MatchProgram> acquire(
      const Query& q, const Env& env, std::uint64_t stats_epoch);

 private:
  /// Distinct slots whose boundness shapes the plan: pattern variables
  /// and the variables computed terms read. Any number; the signature
  /// takes one bit per slot.
  std::vector<std::int32_t> sig_slots_;
  std::mutex mu_;
  std::vector<std::shared_ptr<const MatchProgram>> entries_;
};

/// Compiles `e` into `out` (appending nothing else); exposed for tests.
void compile_expr(const ExprPtr& e, vm::ExprProgram& out);

/// Executes a compiled program. `env` is working storage exactly as for
/// Query::evaluate: on Exists-success the winning binding stays in env;
/// all other outcomes leave every binding the program made undone.
[[nodiscard]] QueryOutcome vm_execute(const MatchProgram& prog,
                                      const TupleSource& source, Env& env,
                                      const FunctionRegistry* fns);

}  // namespace sdl
