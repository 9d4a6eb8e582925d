// The reference join interpreter: a tree-walking evaluator for Query,
// kept as the differential oracle for the compiled tier (src/query/
// compile.hpp + vm.hpp), which is the only evaluator the runtime uses.
//
// It re-derives everything per evaluation: the greedy planner calls
// key_spec/try_eval at every join depth, each candidate is matched by
// TuplePattern::match, and guards walk the Expr tree with
// std::invalid_argument as the reject path. That makes it slow and
// obviously faithful to the §2.2 semantics — which is the point of an
// oracle. tests/query/vm_equiv_test.cpp compares Query::evaluate and
// Query::satisfiable_seeded against it shape by shape; E13's
// BM_GuardHeavyInterpreted column times it.
#pragma once

#include <cstddef>
#include <vector>

#include "query/query.hpp"

namespace sdl::oracle {

/// Interpreted counterpart of Query::evaluate: same contract for `env`
/// (local slots cleared on entry; Exists-success leaves the winning
/// binding; every other outcome leaves locals cleared).
[[nodiscard]] QueryOutcome evaluate(const Query& q, const TupleSource& source,
                                    Env& env, const FunctionRegistry* fns);

/// Interpreted counterpart of Query::satisfiable_seeded: pattern
/// `seed_idx` draws its candidates from `seeds`; bindings never escape.
[[nodiscard]] bool satisfiable_seeded(const Query& q, const TupleSource& source,
                                      Env& env, const FunctionRegistry* fns,
                                      std::size_t seed_idx,
                                      const std::vector<const Record*>& seeds);

}  // namespace sdl::oracle
