// Consensus stress: random societies of communities doing random amounts
// of pre-consensus work. Invariants: every community fires exactly once,
// every process completes, no fire happens before a community's work is
// done, and the runtime's event-local detection agrees with the
// whole-society reference sweep (tests/oracle) on every fire.
#include <gtest/gtest.h>

#include <memory>

#include "oracle/consensus_reference.hpp"
#include "sim/explore.hpp"

namespace sdl {
namespace {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 11;
  }
  std::int64_t below(std::int64_t m) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(m));
  }

 private:
  std::uint64_t state_;
};

struct StressParam {
  std::uint64_t seed;
  EngineKind engine;
};

class ConsensusStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(ConsensusStressTest, RandomCommunitiesFireExactlyOnce) {
  Rng rng(GetParam().seed * 101);
  const int communities = 1 + static_cast<int>(rng.below(6));
  const int per_community = 2 + static_cast<int>(rng.below(5));

  RuntimeOptions o;
  o.engine = GetParam().engine;
  o.scheduler.workers = 4;
  oracle::ConsensusOracle reference;  // outlives the runtime's runs
  Runtime rt(o);
  reference.attach(rt);

  // Member(c): consume this community's work items, then consensus-exit
  // when none remain; the consensus asserts a per-member marker.
  ProcessDef member;
  member.name = "Member";
  member.params = {"c", "i"};
  member.view.import(pat({V("c"), W()}));
  member.view.export_(pat({A("fired"), W(), W()}));
  member.body = seq({repeat({
      branch(TxnBuilder()
                 .exists({"w"})
                 .match(pat({E(evar("c")), V("w")}), true)
                 .where(gt(evar("w"), lit(0)))
                 .build()),
      branch(TxnBuilder(TxnType::Consensus)
                 .match(pat({E(evar("c")), C(0)}))
                 .none({pat({E(evar("c")), V("left")})}, gt(evar("left"), lit(0)))
                 .assert_tuple({lit(Value::atom("fired")), evar("c"), evar("i")})
                 .exit_()
                 .build()),
  })});
  rt.define(std::move(member));

  int total_members = 0;
  for (int c = 0; c < communities; ++c) {
    rt.seed(tup(c, 0));  // the anchor tuple members overlap on
    const int work = static_cast<int>(rng.below(12));
    for (int w = 0; w < work; ++w) {
      rt.seed(tup(c, 1 + rng.below(100)));
    }
    for (int i = 0; i < per_community; ++i) {
      rt.spawn("Member", {Value(c), Value(i)});
      ++total_members;
    }
  }

  const RunReport report = rt.run();
  ASSERT_TRUE(report.clean()) << (report.parked.empty() ? "" : report.parked[0]);
  EXPECT_EQ(report.completed, static_cast<std::size_t>(total_members));
  EXPECT_EQ(rt.consensus().fires(), static_cast<std::uint64_t>(communities));
  reference.check_quiescent();
  EXPECT_EQ(reference.divergence(), "");
  EXPECT_EQ(reference.fires_checked(), static_cast<std::size_t>(communities));
  for (int c = 0; c < communities; ++c) {
    // Every member fired, and only after the community's work was drained.
    for (int i = 0; i < per_community; ++i) {
      EXPECT_EQ(rt.space().count(tup("fired", c, i)), 1u)
          << "community " << c << " member " << i;
    }
    std::size_t work_left = 0;
    rt.space().scan_key(IndexKey::of_head(2, Value(c)), [&](const Record& r) {
      if (r.tuple[1].as_int() > 0) ++work_left;
      return true;
    });
    EXPECT_EQ(work_left, 0u) << "community " << c << " fired early";
  }
}

std::vector<StressParam> stress_params() {
  std::vector<StressParam> out;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    out.push_back({seed, EngineKind::Sharded});
    out.push_back({seed, EngineKind::GlobalLock});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(SeedsAndEngines, ConsensusStressTest,
                         ::testing::ValuesIn(stress_params()),
                         [](const ::testing::TestParamInfo<StressParam>& info) {
                           return std::string(info.param.engine ==
                                                      EngineKind::Sharded
                                                  ? "Sharded"
                                                  : "Global") +
                                  "_seed" + std::to_string(info.param.seed);
                         });

TEST(ConsensusStressDeterministic, SweepFiresExactlyOncePerCommunity) {
  // ISSUE 3 satellite: the fires-exactly-once invariant across 64
  // deterministic schedules of a fixed 3-community society, with the
  // serializability checker verifying every fire committed as one
  // atomic composite.
  constexpr int kCommunities = 3;
  constexpr int kPerCommunity = 3;
  const sim::BuildFn build = [](std::int64_t seed) {
    RuntimeOptions o;
    o.scheduler.deterministic_seed = seed;
    auto rt = std::make_unique<Runtime>(o);
    ProcessDef member;
    member.name = "Member";
    member.params = {"c", "i"};
    member.view.import(pat({V("c"), W()}));
    member.view.export_(pat({A("fired"), W(), W()}));
    member.body = seq({repeat({
        branch(TxnBuilder()
                   .exists({"w"})
                   .match(pat({E(evar("c")), V("w")}), true)
                   .where(gt(evar("w"), lit(0)))
                   .build()),
        branch(TxnBuilder(TxnType::Consensus)
                   .match(pat({E(evar("c")), C(0)}))
                   .none({pat({E(evar("c")), V("left")})},
                         gt(evar("left"), lit(0)))
                   .assert_tuple(
                       {lit(Value::atom("fired")), evar("c"), evar("i")})
                   .exit_()
                   .build()),
    })});
    rt->define(std::move(member));
    Rng rng(42);  // fixed society; only the schedule varies with `seed`
    for (int c = 0; c < kCommunities; ++c) {
      rt->seed(tup(c, 0));
      const int work = 1 + static_cast<int>(rng.below(5));
      for (int w = 0; w < work; ++w) rt->seed(tup(c, 1 + rng.below(100)));
      for (int i = 0; i < kPerCommunity; ++i) {
        rt->spawn("Member", {Value(c), Value(i)});
      }
    }
    rt->arm_log();
    return rt;
  };
  const sim::CheckFn check = [](Runtime& rt, const RunReport& report) {
    if (!report.clean()) return std::string("unclean report");
    if (rt.consensus().fires() != kCommunities) {
      return "fires = " + std::to_string(rt.consensus().fires());
    }
    for (int c = 0; c < kCommunities; ++c) {
      for (int i = 0; i < kPerCommunity; ++i) {
        if (rt.space().count(tup("fired", c, i)) != 1) {
          return "community " + std::to_string(c) + " member " +
                 std::to_string(i) + " missed the fire";
        }
      }
    }
    return std::string();
  };
  oracle::SweepOracle reference;
  const sim::SweepResult r = sim::sweep_seeds(
      reference.build(build), {.seeds = 64}, reference.check(check));
  ASSERT_TRUE(r.ok()) << r.first_failure;
  EXPECT_GT(r.distinct_traces, 1u);
  EXPECT_EQ(reference.fires_checked(), 64u * kCommunities);
}

}  // namespace
}  // namespace sdl
