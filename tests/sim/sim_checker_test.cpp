// The serializability checker (ISSUE 3 tentpole, part 2): handcrafted
// histories exercise every violation kind through the pure
// check_history() entry point, then live societies confirm the event log
// plus checker pass end-to-end on correct executions.
#include <gtest/gtest.h>

#include <algorithm>

#include "process/runtime.hpp"

namespace sdl {
namespace {

TupleId id(ProcessId owner, std::uint64_t sequence) {
  return TupleId(owner, sequence);
}

Event entry(std::uint64_t seq, std::vector<TupleId> reads,
            std::vector<TupleId> retracts, std::vector<TupleId> asserts,
            std::uint64_t fire = 0) {
  Event e;
  e.seq = seq;
  e.pid = static_cast<ProcessId>(seq);
  e.consensus_fire = fire;
  e.reads = std::move(reads);
  e.retracts = std::move(retracts);
  e.asserts = std::move(asserts);
  e.label = "txn@" + std::to_string(seq);
  return e;
}

bool has_kind(const CheckReport& r, HistoryViolation::Kind kind) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [kind](const HistoryViolation& v) { return v.kind == kind; });
}

TEST(SimCheckerTest, CleanHistoryPasses) {
  const TupleId x = id(0, 1);
  const TupleId y = id(1, 1);
  const CheckReport r = check_history(
      {x},
      {entry(1, {x}, {x}, {y}),  // consume x, create y
       entry(2, {y}, {}, {})},   // read y
      {y});
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.commits_checked, 2u);
}

TEST(SimCheckerTest, OutOfOrderEntriesAreReplayedBySeq) {
  const TupleId x = id(0, 1);
  const TupleId y = id(1, 1);
  const CheckReport r = check_history(
      {x}, {entry(2, {y}, {}, {}), entry(1, {x}, {x}, {y})}, {y});
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(SimCheckerTest, LostUpdateFlagged) {
  // Seq 2 reads an instance the witness order already retracted: some
  // commit worked from state another commit had destroyed.
  const TupleId x = id(0, 1);
  const CheckReport r = check_history(
      {x}, {entry(1, {x}, {x}, {id(1, 1)}), entry(2, {x}, {}, {id(2, 1)})},
      {id(1, 1), id(2, 1)});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_kind(r, HistoryViolation::Kind::LostUpdate)) << r.to_string();
  EXPECT_NE(r.to_string().find("lost-update"), std::string::npos)
      << r.to_string();
  EXPECT_NE(r.to_string().find("already retracted"), std::string::npos)
      << r.to_string();
}

TEST(SimCheckerTest, DirtyReadOfLaterCommitFlagged) {
  // Seq 1 reads the instance seq 2 creates — no serial order explains it.
  const TupleId y = id(2, 1);
  const CheckReport r = check_history(
      {}, {entry(1, {y}, {}, {}), entry(2, {}, {}, {y})}, {y});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_kind(r, HistoryViolation::Kind::DirtyRead)) << r.to_string();
}

TEST(SimCheckerTest, ReadOfNeverExistingInstanceFlagged) {
  const CheckReport r =
      check_history({}, {entry(1, {id(9, 9)}, {}, {})}, {});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_kind(r, HistoryViolation::Kind::DirtyRead)) << r.to_string();
}

TEST(SimCheckerTest, DoubleRetractFlagged) {
  const TupleId x = id(0, 1);
  const CheckReport r = check_history(
      {x}, {entry(1, {x}, {x}, {}), entry(2, {x}, {x}, {})}, {});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_kind(r, HistoryViolation::Kind::DoubleRetract))
      << r.to_string();
}

TEST(SimCheckerTest, DuplicateAssertFlagged) {
  const TupleId z = id(3, 1);
  const CheckReport r = check_history(
      {}, {entry(1, {}, {}, {z}), entry(2, {}, {}, {z})}, {z});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_kind(r, HistoryViolation::Kind::DuplicateAssert))
      << r.to_string();
}

TEST(SimCheckerTest, ConsensusCompositeReadsCommonPreState) {
  // Two members of one fire both read — and both retract — the anchor
  // instance. As one atomic composite (reads first, retracts deduped per
  // §2.2's composite rule) this is legal; as two independent commits it
  // would be a lost update plus a double retract.
  const TupleId anchor = id(0, 1);
  const CheckReport composite = check_history(
      {anchor},
      {entry(1, {anchor}, {anchor}, {id(1, 1)}, /*fire=*/7),
       entry(2, {anchor}, {anchor}, {id(2, 1)}, /*fire=*/7)},
      {id(1, 1), id(2, 1)});
  EXPECT_TRUE(composite.ok()) << composite.to_string();

  const CheckReport independent = check_history(
      {anchor},
      {entry(1, {anchor}, {anchor}, {id(1, 1)}),
       entry(2, {anchor}, {anchor}, {id(2, 1)})},
      {id(1, 1), id(2, 1)});
  EXPECT_FALSE(independent.ok());
}

TEST(SimCheckerTest, NonContiguousConsensusFireFlagged) {
  // An unrelated commit lands between two members of one fire: the fire
  // was not a single atomic transformation. Reported exactly once.
  const TupleId a = id(0, 1);
  const TupleId b = id(0, 2);
  const CheckReport r = check_history(
      {a, b},
      {entry(1, {a}, {}, {}, /*fire=*/5), entry(2, {b}, {b}, {id(2, 1)}),
       entry(3, {a}, {a}, {id(3, 1)}, /*fire=*/5)},
      {id(2, 1), id(3, 1)});
  EXPECT_FALSE(r.ok());
  const std::size_t atomicity_count = static_cast<std::size_t>(std::count_if(
      r.violations.begin(), r.violations.end(), [](const HistoryViolation& v) {
        return v.kind == HistoryViolation::Kind::ConsensusAtomicity;
      }));
  EXPECT_EQ(atomicity_count, 1u) << r.to_string();
}

TEST(SimCheckerTest, FinalStateDivergenceFlagged) {
  const TupleId x = id(0, 1);
  const TupleId y = id(1, 1);
  // Model ends with {y}; the "real" space still holds x and never got y —
  // the shape a torn commit leaves behind.
  const CheckReport r =
      check_history({x}, {entry(1, {x}, {x}, {y})}, {x});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_kind(r, HistoryViolation::Kind::FinalStateDivergence))
      << r.to_string();
  bool names_both = false;
  for (const HistoryViolation& v : r.violations) {
    if (v.kind == HistoryViolation::Kind::FinalStateDivergence &&
        v.detail.find("missing") != std::string::npos &&
        v.detail.find("unexplained") != std::string::npos) {
      names_both = true;
    }
  }
  EXPECT_TRUE(names_both) << r.to_string();
}

// ------------------------------------------------------ live recordings

ProcessDef incrementer_def() {
  ProcessDef def;
  def.name = "Inc";
  def.body = seq({stmt(TxnBuilder(TxnType::Delayed)
                           .exists({"x"})
                           .match(pat({A("c"), V("x")}), true)
                           .assert_tuple({lit(Value::atom("c")),
                                          add(evar("x"), lit(1))})
                           .build())});
  return def;
}

void run_clean_society(RuntimeOptions o, int procs) {
  Runtime rt(o);
  rt.seed(tup("c", 0));
  rt.define(incrementer_def());
  for (int i = 0; i < procs; ++i) rt.spawn("Inc");
  EventLog& log = rt.arm_log();
  ASSERT_TRUE(rt.run().clean());
  EXPECT_EQ(rt.space().count(tup("c", procs)), 1u);
  const CheckReport r = rt.check_history();
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_GE(r.commits_checked, static_cast<std::size_t>(procs));
  const std::vector<Event> events = log.events();
  EXPECT_GE(std::count_if(events.begin(), events.end(),
                          [](const Event& e) {
                            return e.kind == EventKind::Commit;
                          }),
            procs);
}

TEST(SimCheckerTest, LiveDeterministicSocietyPasses) {
  RuntimeOptions o;
  o.scheduler.deterministic_seed = 21;
  run_clean_society(o, 12);
}

TEST(SimCheckerTest, LiveThreadedShardedSocietyPasses) {
  RuntimeOptions o;
  o.scheduler.workers = 4;
  run_clean_society(o, 24);
}

TEST(SimCheckerTest, LiveGlobalLockSocietyPasses) {
  RuntimeOptions o;
  o.engine = EngineKind::GlobalLock;
  o.scheduler.workers = 4;
  run_clean_society(o, 24);
}

TEST(SimCheckerTest, ConsensusFiresRecordAtomicComposites) {
  // A consensus society: members drain community work, then fire as a
  // set. The recorded history must carry nonzero shared fire ordinals
  // and replay clean.
  RuntimeOptions o;
  o.scheduler.deterministic_seed = 4;
  Runtime rt(o);
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
                 .assert_tuple({lit(Value::atom("fired")), evar("c"), evar("i")})
                 .exit_()
                 .build()),
  })});
  rt.define(std::move(member));
  for (int c = 0; c < 2; ++c) {
    rt.seed(tup(c, 0));
    rt.seed(tup(c, 5));
    for (int i = 0; i < 3; ++i) rt.spawn("Member", {Value(c), Value(i)});
  }
  EventLog& log = rt.arm_log();
  ASSERT_TRUE(rt.run().clean());
  EXPECT_EQ(rt.consensus().fires(), 2u);

  const CheckReport r = rt.check_history();
  EXPECT_TRUE(r.ok()) << r.to_string();
  std::size_t fire_entries = 0;
  std::uint64_t distinct_fires = 0;
  std::uint64_t last_fire = 0;
  for (const Event& e : log.events()) {
    if (e.consensus_fire == 0) continue;
    ++fire_entries;
    if (e.consensus_fire != last_fire) {
      ++distinct_fires;
      last_fire = e.consensus_fire;
    }
  }
  EXPECT_EQ(fire_entries, 6u) << "one entry per member per fire";
  EXPECT_EQ(distinct_fires, 2u) << "members of a fire share its ordinal";
}

}  // namespace
}  // namespace sdl
