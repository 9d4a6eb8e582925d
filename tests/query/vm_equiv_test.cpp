// Differential harness for the compiled query tier.
//
// Query::evaluate and Query::satisfiable_seeded run the bytecode match
// program (src/query/compile.hpp) — the runtime's only evaluator. Its
// correctness claim is total equivalence with the tree-walking join
// interpreter kept in tests/oracle: for every query shape, the SAME
// QueryOutcome — success bit, match order, bindings, read sets, retract
// sets — and the same final env, under every binding signature. This
// file discharges that claim three ways:
//
//   * a shape sweep: every execution feature the compiler lowers
//     (exact/arity/secondary scans, joins, wildcards, retract tags,
//     negations, ForAll, seeded probes, guard traps, pre-bound
//     signatures, computed terms, unready patterns, wide signatures)
//     evaluated compiled-vs-oracle on the same data;
//   * a seeded random-query sweep over the same features;
//   * a seeded property test over random expression trees: the VM's
//     value-or-trap must agree with the interpreter's value-or-throw on
//     every tree. Runs under the ASan+UBSan and TSan CI jobs, so the
//     checked arithmetic is exercised with sanitizers watching.
#include "query/compile.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "oracle/join_interpreter.hpp"

namespace sdl {
namespace {

std::uint64_t plan_lookups() {
  const PlanCacheStats& stats = plan_cache_stats();
  return stats.hits.load() + stats.misses.load();
}

/// Evaluates a query compiled and through the oracle over one dataspace
/// and asserts outcome + env equivalence.
struct DiffFixture {
  Dataspace space{16};
  FunctionRegistry fns;

  /// `make` builds the query; `pre` seeds process-persistent bindings
  /// after resolve, before evaluation — the binding-signature dimension
  /// of the cache key.
  QueryOutcome diff(const std::function<Query()>& make,
                    const std::function<void(SymbolTable&, Env&)>& pre = {}) {
    SymbolTable st;
    Query q = make();
    q.resolve(st);
    Env env_c(static_cast<std::size_t>(st.size()));
    if (pre) pre(st, env_c);
    Env env_o = env_c;
    const std::uint64_t lookups0 = plan_lookups();
    const DataspaceSource src(space);
    const QueryOutcome oc = q.evaluate(src, env_c, &fns);
    const QueryOutcome oo = oracle::evaluate(q, src, env_o, &fns);
    EXPECT_GT(plan_lookups(), lookups0)
        << "plan cache never engaged — the comparison is vacuous";
    expect_equiv(oc, oo, env_c, env_o);
    return oc;
  }

  /// Seeded satisfiability, compiled vs oracle; bindings must not escape.
  bool diff_seeded(const std::function<Query()>& make, std::size_t seed_idx,
                   const std::vector<const Record*>& seeds,
                   const std::function<void(SymbolTable&, Env&)>& pre = {}) {
    SymbolTable st;
    Query q = make();
    q.resolve(st);
    Env env_c(static_cast<std::size_t>(st.size()));
    if (pre) pre(st, env_c);
    const Env entry = env_c;
    Env env_o = env_c;
    const std::uint64_t lookups0 = plan_lookups();
    const DataspaceSource src(space);
    const bool sc = q.satisfiable_seeded(src, env_c, &fns, seed_idx, seeds);
    const bool so =
        oracle::satisfiable_seeded(q, src, env_o, &fns, seed_idx, seeds);
    EXPECT_GT(plan_lookups(), lookups0)
        << "plan cache never engaged — the comparison is vacuous";
    EXPECT_EQ(sc, so) << "seed_idx=" << seed_idx;
    EXPECT_EQ(env_c, env_o);
    EXPECT_EQ(env_c, entry) << "seeded probe leaked a binding";
    return sc;
  }

  static void expect_equiv(const QueryOutcome& oc, const QueryOutcome& oi,
                           const Env& env_c, const Env& env_i) {
    EXPECT_EQ(oc.success, oi.success);
    ASSERT_EQ(oc.matches.size(), oi.matches.size());
    for (std::size_t m = 0; m < oc.matches.size(); ++m) {
      const QueryMatch& a = oc.matches[m];
      const QueryMatch& b = oi.matches[m];
      EXPECT_EQ(a.binding, b.binding) << "match " << m << " binding";
      EXPECT_EQ(a.reads, b.reads) << "match " << m << " read set";
      ASSERT_EQ(a.retract.size(), b.retract.size()) << "match " << m;
      for (std::size_t r = 0; r < a.retract.size(); ++r) {
        EXPECT_TRUE(a.retract[r].first == b.retract[r].first);
        EXPECT_EQ(a.retract[r].second, b.retract[r].second);
      }
    }
    EXPECT_EQ(env_c, env_i) << "final environments diverged";
  }
};

/// Binds the process-persistent variable `name` before evaluation.
std::function<void(SymbolTable&, Env&)> bind(std::string name, Value v) {
  return [name = std::move(name), v = std::move(v)](SymbolTable& st, Env& env) {
    env[static_cast<std::size_t>(*st.lookup(name))] = v;
  };
}

TEST(VmEquivTest, ExistsShapesAgree) {
  DiffFixture f;
  f.space.insert(tup("year", 90), 0);
  f.space.insert(tup("year", 80), 0);
  f.space.insert(tup("index", 3), 0);
  f.space.insert(tup("value", 3), 0);
  f.space.insert(tup("value", 4), 0);

  // Membership (all-const pattern).
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.patterns = {pat({A("year"), C(90)})};
                  return q;
                }).success);
  // Binding + guard.
  const QueryOutcome bound = f.diff([] {
    Query q;
    q.local_vars = {"a"};
    q.patterns = {pat({A("year"), V("a")})};
    q.guard = gt(evar("a"), lit(87));
    return q;
  });
  ASSERT_TRUE(bound.success);
  // Guard filters everything.
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.local_vars = {"a"};
                   q.patterns = {pat({A("year"), V("a")})};
                   q.guard = gt(evar("a"), lit(95));
                   return q;
                 }).success);
  // Join across two patterns with a shared variable, plus a wildcard.
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.local_vars = {"p"};
                  q.patterns = {pat({A("index"), V("p")}),
                                pat({A("value"), V("p")}), pat({W(), W()})};
                  return q;
                }).success);
}

TEST(VmEquivTest, RetractTagsAndDistinctnessAgree) {
  DiffFixture f;
  f.space.insert(tup("t", 1), 0);
  f.space.insert(tup("t", 1), 0);
  f.space.insert(tup("t", 2), 0);
  const QueryOutcome out = f.diff([] {
    Query q;
    q.local_vars = {"x", "y"};
    TuplePattern p1 = pat({A("t"), V("x")});
    p1.set_retract(true);
    TuplePattern p2 = pat({A("t"), V("y")});
    p2.set_retract(true);
    q.patterns = {p1, p2};
    q.guard = eq(evar("x"), evar("y"));
    return q;
  });
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.matches[0].retract.size(), 2u);
  EXPECT_NE(out.matches[0].retract[0].second, out.matches[0].retract[1].second)
      << "distinctness: the two patterns must bind two instances";
}

TEST(VmEquivTest, NegationsAgree) {
  DiffFixture f;
  f.space.insert(tup("job", 1), 0);
  f.space.insert(tup("job", 2), 0);
  f.space.insert(tup("done", 1), 0);
  // ∃x: <job,x> with no <done,x> — negation joined on an outer variable.
  const QueryOutcome out = f.diff([] {
    Query q;
    q.local_vars = {"x"};
    q.patterns = {pat({A("job"), V("x")})};
    NegatedGroup g;
    g.patterns = {pat({A("done"), V("x")})};
    q.negations = {g};
    return q;
  });
  ASSERT_TRUE(out.success);
  // Negation with its own local witness + guard.
  f.space.insert(tup("cap", 10), 0);
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.local_vars = {"x"};
                   q.patterns = {pat({A("job"), V("x")})};
                   NegatedGroup g;
                   g.patterns = {pat({A("cap"), V("c")})};
                   g.guard = gt(evar("c"), lit(0));
                   q.negations = {g};
                   return q;
                 }).success)
      << "a cap witness blocks every candidate";
}

TEST(VmEquivTest, ForAllAgrees) {
  DiffFixture f;
  // Vacuous.
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.quantifier = Quantifier::ForAll;
                  q.local_vars = {"x"};
                  q.patterns = {pat({A("none"), V("x")})};
                  return q;
                }).success);
  f.space.insert(tup("n", 1), 0);
  f.space.insert(tup("n", 2), 0);
  f.space.insert(tup("n", 3), 0);
  // Satisfied: one match per binding, in identical order.
  const QueryOutcome all = f.diff([] {
    Query q;
    q.quantifier = Quantifier::ForAll;
    q.local_vars = {"x"};
    TuplePattern p = pat({A("n"), V("x")});
    p.set_retract(true);
    q.patterns = {p};
    q.guard = gt(evar("x"), lit(0));
    return q;
  });
  ASSERT_TRUE(all.success);
  EXPECT_EQ(all.matches.size(), 3u);
  // Violated.
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.quantifier = Quantifier::ForAll;
                   q.local_vars = {"x"};
                   q.patterns = {pat({A("n"), V("x")})};
                   q.guard = lt(evar("x"), lit(3));
                   return q;
                 }).success);
}

TEST(VmEquivTest, SecondaryProbesAgree) {
  DiffFixture f;
  for (int i = 0; i < 8; ++i) f.space.insert(tup("edge", i, i * 10), 0);
  // Constant second field: ExactConst scan + Second::Const.
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.local_vars = {"w"};
                  q.patterns = {pat({A("edge"), C(3), V("w")})};
                  q.guard = eq(evar("w"), lit(30));
                  return q;
                }).success);
  // Second field bound by an earlier pattern: Second::Slot.
  f.space.insert(tup("pick", 5), 0);
  const QueryOutcome out = f.diff([] {
    Query q;
    q.local_vars = {"x", "w"};
    q.patterns = {pat({A("pick"), V("x")}), pat({A("edge"), V("x"), V("w")})};
    return q;
  });
  ASSERT_TRUE(out.success);
}

TEST(VmEquivTest, PlannerOffAndTextualOrderAgree) {
  DiffFixture f;
  for (int i = 0; i < 6; ++i) f.space.insert(tup("wide", i), 0);
  f.space.insert(tup("pin", 4), 0);
  for (const bool planner : {true, false}) {
    const QueryOutcome out = f.diff([planner] {
      Query q;
      q.use_planner = planner;
      q.local_vars = {"x"};
      q.patterns = {pat({A("wide"), V("x")}), pat({A("pin"), V("x")})};
      return q;
    });
    ASSERT_TRUE(out.success) << "planner=" << planner;
  }
}

TEST(VmEquivTest, GuardTrapsRejectInsteadOfCrashing) {
  DiffFixture f;
  f.space.insert(tup("d", 0), 0);
  f.space.insert(tup("d", 2), 0);
  // 10 / x traps on the x=0 candidate; both tiers must skip it and accept
  // x=2.
  const QueryOutcome out = f.diff([] {
    Query q;
    q.local_vars = {"x"};
    q.patterns = {pat({A("d"), V("x")})};
    q.guard = eq(div_(lit(10), evar("x")), lit(5));
    return q;
  });
  ASSERT_TRUE(out.success);
  // INT64_MIN / -1 in a guard: overflow trap, not SIGFPE (satellite 1).
  const Value min_v(std::numeric_limits<std::int64_t>::min());
  f.space.insert(tup("m", -1), 0);
  EXPECT_FALSE(f.diff([min_v] {
                   Query q;
                   q.local_vars = {"x"};
                   q.patterns = {pat({A("m"), V("x")})};
                   q.guard = eq(div_(lit(min_v), evar("x")), lit(0));
                   return q;
                 }).success);
  // Host function throwing std::invalid_argument rejects, both tiers.
  f.fns.register_function("picky", [](std::span<const Value> args) -> Value {
    if (args[0].as_int() < 0) throw std::invalid_argument("negative");
    return args[0];
  });
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.local_vars = {"x"};
                   q.patterns = {pat({A("m"), V("x")})};
                   q.guard = eq(call_fn("picky", {evar("x")}), lit(-1));
                   return q;
                 }).success);
}

TEST(VmEquivTest, PreBoundSignaturesGetDistinctPlans) {
  DiffFixture f;
  f.space.insert(tup("kv", 1, 10), 0);
  f.space.insert(tup("kv", 2, 20), 0);
  const auto make = [] {
    Query q;
    q.local_vars = {"v"};  // k is process-persistent
    q.patterns = {pat({A("kv"), V("k"), V("v")})};
    return q;
  };
  // Unbound k: k and v both bind.
  const QueryOutcome free_k = f.diff(make);
  ASSERT_TRUE(free_k.success);
  // Pre-bound k: the pattern constrains on it (different cache signature,
  // secondary probe on the bound slot).
  const QueryOutcome pinned = f.diff(make, [](SymbolTable& st, Env& env) {
    env[static_cast<std::size_t>(*st.lookup("k"))] = Value(2);
  });
  ASSERT_TRUE(pinned.success);
}

TEST(VmEquivTest, ComputedTermShapesAgree) {
  DiffFixture f;
  f.space.insert(tup("s", 4), 0);
  // <s, 2+2>: a computed term with no variables.
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.patterns = {pat({A("s"), E(add(lit(2), lit(2)))})};
                  return q;
                }).success);
  // §3.1 Sum1's combine step: ∃a,b : [k - 2**(j-1), a]!, [k, b]! — a
  // computed head, ready from the start because k and j are parameters.
  for (int k = 1; k <= 8; ++k) f.space.insert(tup(k, 11 * k), 0);
  const auto sum1 = [] {
    Query q;
    q.local_vars = {"a", "b"};
    TuplePattern lhs =
        pat({E(sub(evar("k"), pow_(lit(2), sub(evar("j"), lit(1))))), V("a")});
    lhs.set_retract(true);
    TuplePattern rhs = pat({V("k"), V("b")});
    rhs.set_retract(true);
    q.patterns = {lhs, rhs};
    return q;
  };
  for (const int j : {1, 2, 3}) {
    const QueryOutcome out = f.diff(sum1, [j](SymbolTable& st, Env& env) {
      env[static_cast<std::size_t>(*st.lookup("k"))] = Value(8);
      env[static_cast<std::size_t>(*st.lookup("j"))] = Value(j);
    });
    ASSERT_TRUE(out.success) << "j=" << j;
    EXPECT_EQ(out.matches[0].retract.size(), 2u);
  }
  // Only j bound: the computed head is unready until [k, b] binds k, so
  // the planner must defer it (rank 2) and still find every pairing.
  // The <s, 4> tuple binds k to an atom, on which the head traps.
  const QueryOutcome all = f.diff(
      [&] {
        Query q = sum1();
        q.quantifier = Quantifier::ForAll;
        return q;
      },
      bind("j", Value(2)));
  ASSERT_TRUE(all.success);
  EXPECT_EQ(all.matches.size(), 6u) << "k = 3..8 each find <k-2, _>";
}

TEST(VmEquivTest, ComputedSecondFieldProbesAgree) {
  DiffFixture f;
  for (int i = 0; i < 8; ++i) f.space.insert(tup("edge", i, i * 10), 0);
  f.space.insert(tup("pick", 2), 0);
  f.space.insert(tup("pick", 5), 0);
  // [edge, x+1, w]: an exact scan with a secondary probe fed by bytecode.
  const QueryOutcome out = f.diff([] {
    Query q;
    q.quantifier = Quantifier::ForAll;
    q.local_vars = {"x", "w"};
    q.patterns = {pat({A("pick"), V("x")}),
                  pat({A("edge"), E(add(evar("x"), lit(1))), V("w")})};
    return q;
  });
  ASSERT_TRUE(out.success);
  EXPECT_EQ(out.matches.size(), 2u);
  // A probe value no tuple carries.
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.local_vars = {"x", "w"};
                   q.patterns = {pat({A("pick"), V("x")}),
                                 pat({A("edge"), E(mul(evar("x"), lit(9))),
                                      V("w")})};
                   return q;
                 }).success);
}

TEST(VmEquivTest, InPatternDependencyAgrees) {
  DiffFixture f;
  f.space.insert(tup(1, 2), 0);
  f.space.insert(tup(2, 4), 0);
  f.space.insert(tup(3, 4), 0);
  f.space.insert(tup(5, 6), 0);
  // [x, x+1]: the computed term reads a variable its own pattern binds
  // one field earlier.
  const QueryOutcome all = f.diff([] {
    Query q;
    q.quantifier = Quantifier::ForAll;
    q.local_vars = {"x"};
    q.patterns = {pat({V("x"), E(add(evar("x"), lit(1)))})};
    return q;
  });
  ASSERT_TRUE(all.success);
  EXPECT_EQ(all.matches.size(), 3u);
  // Reversed, the term reads x before the pattern binds it: no match.
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.local_vars = {"x"};
                   q.patterns = {pat({E(add(evar("x"), lit(1))), V("x")})};
                   return q;
                 }).success);
}

TEST(VmEquivTest, ValueDependentTrapsAgree) {
  DiffFixture f;
  f.space.insert(tup("pick", Value::atom("red")), 0);
  f.space.insert(tup("pick", 3), 0);
  f.space.insert(tup(4, 7), 0);
  f.space.insert(tup("m", 4), 0);
  f.space.insert(tup("w", 1), 0);
  f.space.insert(tup("w", 2), 0);
  // With x bound to the atom red, x+1 traps. The compiled plan tries the
  // computed pattern as soon as x is bound and rejects on the trap; the
  // oracle's try_eval calls it unready and tries [w, z] first. Either
  // way the branch yields nothing, so matches and their order agree.
  const auto make = [](Quantifier quantifier, TuplePattern computed) {
    return [quantifier, computed] {
      Query q;
      q.quantifier = quantifier;
      q.local_vars = {"x", "z"};
      q.patterns = {computed, pat({A("pick"), V("x")}), pat({A("w"), V("z")})};
      return q;
    };
  };
  const TuplePattern computed_head = pat({E(add(evar("x"), lit(1))), W()});
  const TuplePattern computed_second = pat({A("m"), E(add(evar("x"), lit(1)))});
  for (const TuplePattern& computed : {computed_head, computed_second}) {
    EXPECT_TRUE(f.diff(make(Quantifier::Exists, computed)).success);
    const QueryOutcome all = f.diff(make(Quantifier::ForAll, computed));
    ASSERT_TRUE(all.success);
    EXPECT_EQ(all.matches.size(), 2u) << "x=3 pairs with both <w,_>";
  }
}

TEST(VmEquivTest, PlannerOffWithUnboundExpressionAgrees) {
  DiffFixture f;
  f.space.insert(tup("head", 4), 0);
  f.space.insert(tup(5, 50), 0);
  // Textual order evaluates x+1 before anything binds x: no match.
  EXPECT_FALSE(f.diff([] {
                   Query q;
                   q.use_planner = false;
                   q.local_vars = {"x", "b"};
                   q.patterns = {pat({E(add(evar("x"), lit(1))), V("b")}),
                                 pat({A("head"), V("x")})};
                   return q;
                 }).success);
  // The dependent pattern written last: textual order succeeds.
  EXPECT_TRUE(f.diff([] {
                  Query q;
                  q.use_planner = false;
                  q.local_vars = {"x", "b"};
                  q.patterns = {pat({A("head"), V("x")}),
                                pat({E(add(evar("x"), lit(1))), V("b")})};
                  return q;
                }).success);
}

TEST(VmEquivTest, CyclicNotReadyPairAgrees) {
  DiffFixture f;
  f.space.insert(tup(1, 1), 0);
  // Each pattern's computed head needs the variable the other binds: no
  // order can succeed, planner on or off.
  for (const bool planner : {true, false}) {
    EXPECT_FALSE(f.diff([planner] {
                     Query q;
                     q.use_planner = planner;
                     q.local_vars = {"x", "y"};
                     q.patterns = {pat({E(add(evar("x"), lit(1))), V("y")}),
                                   pat({E(add(evar("y"), lit(1))), V("x")})};
                     return q;
                   }).success)
        << "planner=" << planner;
  }
}

TEST(VmEquivTest, SixtyFiveVariablesAgree) {
  DiffFixture f;
  // Two 65-field rows, [row, v0..v63], and a [pick, v64, v0] selector.
  for (const int base : {0, 100}) {
    std::vector<Value> row{Value::atom("row")};
    for (int i = 0; i < 64; ++i) row.emplace_back(base + i);
    f.space.insert(Tuple(std::move(row)), 0);
  }
  f.space.insert(tup("pick", 1, 100), 0);
  f.space.insert(tup("pick", 2, 0), 0);
  const auto make = [] {
    Query q;
    std::vector<Term> terms{A("row")};
    for (int i = 0; i < 64; ++i) {
      q.local_vars.push_back("v" + std::to_string(i));
      terms.push_back(V("v" + std::to_string(i)));
    }
    // v64 is process-persistent: its boundness is signature bit 64.
    q.patterns = {pat(terms), pat({A("pick"), V("v64"), V("v0")})};
    return q;
  };
  const QueryOutcome free_v64 = f.diff(make);
  ASSERT_TRUE(free_v64.success);
  // Bound v64 lands in the signature's second word: a distinct plan,
  // with a secondary probe on [pick, v64, _].
  std::size_t v0_slot = 0;
  const QueryOutcome pinned = f.diff(make, [&](SymbolTable& st, Env& env) {
    env[static_cast<std::size_t>(*st.lookup("v64"))] = Value(1);
    v0_slot = static_cast<std::size_t>(*st.lookup("v0"));
  });
  ASSERT_TRUE(pinned.success);
  EXPECT_EQ(pinned.matches[0].binding[v0_slot], Value(100));
  // One resolved query: each signature compiles once, then hits.
  SymbolTable st;
  Query q = make();
  q.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));
  const DataspaceSource src(f.space);
  const PlanCacheStats& stats = plan_cache_stats();
  const std::uint64_t misses0 = stats.misses.load();
  const std::uint64_t hits0 = stats.hits.load();
  for (int round = 0; round < 2; ++round) {
    env[static_cast<std::size_t>(*st.lookup("v64"))] = Value();
    ASSERT_TRUE(q.evaluate(src, env, &f.fns).success);
    env[static_cast<std::size_t>(*st.lookup("v64"))] = Value(1);
    ASSERT_TRUE(q.evaluate(src, env, &f.fns).success);
  }
  EXPECT_EQ(stats.misses.load() - misses0, 2u) << "one plan per signature";
  EXPECT_EQ(stats.hits.load() - hits0, 2u);
}

TEST(VmEquivTest, SeededProbesAgree) {
  DiffFixture f;
  f.space.insert(tup("a", 1), 0);
  f.space.insert(tup("a", 2), 0);
  f.space.insert(tup("b", 2), 0);
  // Collect the <a,_> records as the delta-seed list, the way the wakeup
  // path would hand them over.
  std::vector<const Record*> seeds;
  f.space.scan_key(IndexKey::of_head(2, Value::atom("a")),
                   [&seeds](const Record& r) {
                     seeds.push_back(&r);
                     return true;
                   });
  ASSERT_EQ(seeds.size(), 2u);
  const auto make = [] {
    Query q;
    q.local_vars = {"x"};
    q.patterns = {pat({A("a"), V("x")}), pat({A("b"), V("x")})};
    return q;
  };
  // seed_idx 0 seeds pattern <a,x> from the delta; seed_idx 1 seeds
  // <b,x> with records that belong to bucket <a,_> — arity matches but
  // heads don't, so the seeded candidates all fail the head check.
  EXPECT_TRUE(f.diff_seeded(make, 0, seeds));
  EXPECT_FALSE(f.diff_seeded(make, 1, seeds));
}

TEST(VmEquivTest, SeededProbesOnComputedTermsAgree) {
  DiffFixture f;
  f.space.insert(tup(3, 33), 0);
  f.space.insert(tup(4, 44), 0);
  f.space.insert(tup("a", 1), 0);
  f.space.insert(tup("a", 2), 0);
  f.space.insert(tup("b", 3), 0);
  std::vector<const Record*> seeds;
  f.space.scan_arity(2, [&seeds](const Record& r) {
    seeds.push_back(&r);
    return true;
  });
  // Sum1's combine step with k bound: the computed head is ready, so the
  // seeded pattern (either one) leads.
  const auto sum1 = [] {
    Query q;
    q.local_vars = {"a", "b"};
    q.patterns = {pat({E(sub(evar("k"), lit(1))), V("a")}),
                  pat({V("k"), V("b")})};
    return q;
  };
  for (const std::size_t seed_idx : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_TRUE(f.diff_seeded(sum1, seed_idx, seeds, bind("k", Value(4))));
    EXPECT_FALSE(f.diff_seeded(sum1, seed_idx, seeds, bind("k", Value(9))));
  }
  // [a, x], [b, x+1]: seeding the computed pattern defers it until x is
  // bound (readiness outranks the seed).
  const auto dep = [] {
    Query q;
    q.local_vars = {"x"};
    q.patterns = {pat({A("a"), V("x")}),
                  pat({A("b"), E(add(evar("x"), lit(1)))})};
    return q;
  };
  EXPECT_TRUE(f.diff_seeded(dep, 0, seeds));
  EXPECT_TRUE(f.diff_seeded(dep, 1, seeds));
}

TEST(VmEquivTest, PlanCacheInvalidatesOnIndexGrowth) {
  DiffFixture f;
  f.space.insert(tup("g", 0), 0);
  SymbolTable st;
  Query q;
  q.local_vars = {"x"};
  q.patterns = {pat({A("g"), V("x")})};
  q.resolve(st);
  Env env(static_cast<std::size_t>(st.size()));
  const auto& stats = plan_cache_stats();
  {
    const DataspaceSource src(f.space);
    ASSERT_TRUE(q.evaluate(src, env, &f.fns).success);
  }
  q.clear_locals(env);
  const std::uint64_t inval0 = stats.invalidations.load();
  const std::uint64_t epoch0 = f.space.stats_epoch();
  // Grow the space until a bucket table resizes (epoch bump = the index
  // statistics the plan was built against have drifted). Distinct integer
  // heads create distinct buckets, which is what forces the resize.
  for (int i = 1; f.space.stats_epoch() == epoch0 && i < 4096; ++i) {
    f.space.insert(tup(i, i, i), 0);
  }
  ASSERT_GT(f.space.stats_epoch(), epoch0) << "growth never resized the index";
  {
    const DataspaceSource src(f.space);
    ASSERT_TRUE(q.evaluate(src, env, &f.fns).success);
  }
  EXPECT_GT(stats.invalidations.load(), inval0)
      << "stale plan survived an index-statistics epoch bump";
}

// ---- Seeded random-query sweep ----

/// Random queries over a small heterogeneous space: one to three patterns
/// whose terms mix literal heads, variables, wildcards and computed terms
/// (arithmetic over variables, some bound to atoms so the terms trap), an
/// optional guard and negation, either quantifier, planner on or off.
/// "p" is process-persistent and may be pre-bound; x, y, z are locals.
class QueryGen {
 public:
  explicit QueryGen(std::uint64_t seed) : rng_(seed) {}

  Query query() {
    Query q;
    q.quantifier = pick(3) == 0 ? Quantifier::ForAll : Quantifier::Exists;
    q.use_planner = pick(4) != 0;
    q.local_vars = {"x", "y", "z"};
    const std::uint32_t n = 1 + pick(3);
    for (std::uint32_t i = 0; i < n; ++i) q.patterns.push_back(pattern());
    if (pick(3) == 0) q.guard = le(var(), var());
    if (pick(4) == 0) q.negations.push_back(NegatedGroup{{pattern()}, nullptr});
    return q;
  }

  /// A field value: mostly small integers, sometimes an atom.
  Value value() {
    return pick(6) == 0 ? Value::atom("red")
                        : Value(static_cast<std::int64_t>(pick(4)));
  }

  std::uint32_t pick(std::uint32_t n) {
    return static_cast<std::uint32_t>(rng_() % n);
  }

 private:
  TuplePattern pattern() {
    std::vector<Term> terms;
    const std::uint32_t arity = 2 + pick(2);
    for (std::uint32_t i = 0; i < arity; ++i) terms.push_back(term(i == 0));
    return TuplePattern(std::move(terms), pick(3) == 0);
  }

  Term term(bool head) {
    switch (pick(head ? 5 : 4)) {
      case 0: return V(name());
      case 1: return W();
      case 2: return E(computed());
      case 3: return C(Value(static_cast<std::int64_t>(pick(4))));
      default: return A(pick(2) == 0 ? "a" : "b");
    }
  }

  ExprPtr computed() {
    switch (pick(3)) {
      case 0: return add(var(), lit(1));
      case 1: return sub(var(), var());
      default: return mul(var(), lit(2));
    }
  }

  ExprPtr var() { return evar(name()); }

  std::string name() {
    static const char* const kNames[] = {"x", "y", "z", "p"};
    return kNames[pick(4)];
  }

  std::mt19937_64 rng_;
};

TEST(VmEquivTest, RandomQueriesAgree) {
  std::size_t successes = 0;
  std::size_t failures = 0;
  std::size_t computed_matches = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    QueryGen gen(seed);
    DiffFixture f;
    for (int i = 0; i < 24; ++i) {
      const Value head = gen.pick(3) == 0
                             ? Value(static_cast<std::int64_t>(gen.pick(4)))
                             : Value::atom(gen.pick(2) == 0 ? "a" : "b");
      if (gen.pick(2) == 0) {
        f.space.insert(Tuple({head, gen.value()}), 0);
      } else {
        f.space.insert(Tuple({head, gen.value(), gen.value()}), 0);
      }
    }
    const Query q = gen.query();
    const std::uint32_t p_kind = gen.pick(3);
    const Value p_value = gen.value();
    const auto pre = [p_kind, p_value](SymbolTable& st, Env& env) {
      if (const auto slot = st.lookup("p"); slot && p_kind != 0) {
        env[static_cast<std::size_t>(*slot)] = p_value;
      }
    };
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + q.to_string());
    const QueryOutcome out = f.diff([&q] { return q; }, pre);
    (out.success ? successes : failures) += 1;
    bool has_computed = false;
    for (const TuplePattern& p : q.patterns) {
      for (const Term& t : p.terms()) {
        has_computed |= t.kind == Term::Kind::Expr && t.expr->op() != Expr::Op::Const;
      }
    }
    if (has_computed) computed_matches += out.matches.size();

    // Seeded probes of the monotone shapes, from a random subset of the
    // space as the delta.
    if (q.quantifier != Quantifier::Exists || !q.negations.empty()) continue;
    std::vector<const Record*> seeds;
    for (const std::uint32_t arity : {2u, 3u}) {
      f.space.scan_arity(arity, [&](const Record& r) {
        if (gen.pick(2) == 0) seeds.push_back(&r);
        return true;
      });
    }
    f.diff_seeded([&q] { return q; }, gen.pick(static_cast<std::uint32_t>(q.patterns.size())),
                  seeds, pre);
  }
  // Vacuity guard: the sweep must reach both outcomes and match computed
  // terms.
  EXPECT_GT(successes, 0u);
  EXPECT_GT(failures, 0u);
  EXPECT_GT(computed_matches, 0u);
}

// ---- Seeded expression property test (runs under ASan+UBSan in CI) ----

/// Random expression trees: every operator the language has, over int,
/// double, bool, atom and variable leaves (some variables unbound). The
/// contract: the VM returns exactly the interpreter's value, or traps
/// exactly when the interpreter throws std::invalid_argument.
class ExprGen {
 public:
  explicit ExprGen(std::uint64_t seed) : rng_(seed) {}

  ExprPtr gen(int depth) {
    if (depth <= 0 || pick(4) == 0) return leaf();
    switch (pick(16)) {
      case 0: return neg(gen(depth - 1));
      case 1: return lnot(gen(depth - 1));
      case 2: return add(gen(depth - 1), gen(depth - 1));
      case 3: return sub(gen(depth - 1), gen(depth - 1));
      case 4: return mul(gen(depth - 1), gen(depth - 1));
      case 5: return div_(gen(depth - 1), gen(depth - 1));
      case 6: return mod(gen(depth - 1), gen(depth - 1));
      case 7: return pow_(gen(depth - 1), gen(depth - 1));
      case 8: return eq(gen(depth - 1), gen(depth - 1));
      case 9: return ne(gen(depth - 1), gen(depth - 1));
      case 10: return lt(gen(depth - 1), gen(depth - 1));
      case 11: return le(gen(depth - 1), gen(depth - 1));
      case 12: return gt(gen(depth - 1), gen(depth - 1));
      case 13: return ge(gen(depth - 1), gen(depth - 1));
      case 14: return land(gen(depth - 1), gen(depth - 1));
      default: return lor(gen(depth - 1), gen(depth - 1));
    }
  }

 private:
  ExprPtr leaf() {
    switch (pick(8)) {
      case 0: return lit(Value(static_cast<std::int64_t>(rng_())));
      case 1: return lit(Value(std::numeric_limits<std::int64_t>::min() +
                               static_cast<std::int64_t>(pick(3))));
      case 2: return lit(Value(std::numeric_limits<std::int64_t>::max() -
                               static_cast<std::int64_t>(pick(3))));
      case 3: return lit(Value(static_cast<std::int64_t>(pick(5)) - 2));
      case 4: return lit(Value(0.5 * static_cast<double>(pick(9)) - 2.0));
      case 5: return lit(Value(pick(2) == 0));
      case 6: return lit(Value::atom(pick(2) == 0 ? "red" : "blue"));
      default:
        // b0/b1 bound, ghost unbound — the Trap::Unbound axis.
        switch (pick(3)) {
          case 0: return evar("b0");
          case 1: return evar("b1");
          default: return evar("ghost");
        }
    }
  }

  std::uint32_t pick(std::uint32_t n) {
    return static_cast<std::uint32_t>(rng_() % n);
  }
  std::mt19937_64 rng_;
};

TEST(VmEquivTest, RandomExpressionsValueOrTrapParity) {
  FunctionRegistry fns;
  fns.register_function("half", [](std::span<const Value> args) -> Value {
    if (!args[0].is_int()) throw std::invalid_argument("half: want int");
    return args[0].as_int() / 2;
  });
  std::size_t trapped = 0;
  std::size_t valued = 0;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    ExprGen gen(seed);
    const ExprPtr e = call_fn("half", {gen.gen(4)});  // exercise Call too
    SymbolTable st;
    e->resolve(st);
    Env env(static_cast<std::size_t>(st.size()));
    if (const auto s = st.lookup("b0")) {
      env[static_cast<std::size_t>(*s)] = Value(std::int64_t{7});
    }
    if (const auto s = st.lookup("b1")) {
      env[static_cast<std::size_t>(*s)] = Value(2.5);
    }
    bool threw = false;
    Value want;
    try {
      want = e->eval(env, &fns);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    vm::ExprProgram prog;
    compile_expr(e, prog);
    std::vector<Value> regs(static_cast<std::size_t>(prog.num_regs));
    const vm::EvalResult got = vm::run(prog, env, &fns, regs);
    if (threw) {
      ++trapped;
      EXPECT_NE(got.trap, vm::Trap::None)
          << "seed " << seed << ": interpreter threw on " << e->to_string()
          << " but the VM produced " << got.value.to_string();
    } else {
      ++valued;
      ASSERT_EQ(got.trap, vm::Trap::None)
          << "seed " << seed << ": VM trapped (" << vm::trap_message(got.trap)
          << ") on " << e->to_string() << " = " << want.to_string();
      const bool both_nan = want.is_double() && got.value.is_double() &&
                            std::isnan(want.as_double()) &&
                            std::isnan(got.value.as_double());
      EXPECT_TRUE(both_nan || want == got.value)
          << "seed " << seed << ": " << e->to_string() << " interpreter="
          << want.to_string() << " vm=" << got.value.to_string();
    }
  }
  // Vacuity guard: the sweep must exercise both result classes.
  EXPECT_GT(trapped, 0u);
  EXPECT_GT(valued, 0u);
}

}  // namespace
}  // namespace sdl
