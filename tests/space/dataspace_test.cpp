#include "space/dataspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/epoch.hpp"

namespace sdl {
namespace {

TEST(IndexKeyTest, SameHeadSameKey) {
  EXPECT_EQ(IndexKey::of(tup("year", 87)), IndexKey::of(tup("year", 99)));
}

TEST(IndexKeyTest, DifferentArityDifferentKey) {
  const IndexKey a = IndexKey::of(tup("year", 87));
  const IndexKey b = IndexKey::of(tup("year", 87, 1));
  EXPECT_FALSE(a == b);
}

TEST(IndexKeyTest, IntegerHeadsIndexToo) {
  // Array-summation tuples <k, A(k)> have integer heads (§3.1).
  EXPECT_EQ(IndexKey::of(tup(4, 100)), IndexKey::of_head(2, Value(4)));
}

TEST(IndexKeyTest, EmptyTupleKey) {
  const IndexKey k = IndexKey::of(Tuple{});
  EXPECT_EQ(k.arity, 0u);
  EXPECT_EQ(k.head_hash, 0u);
}

TEST(DataspaceTest, RequiresPowerOfTwoShards) {
  EXPECT_THROW(Dataspace(3), std::invalid_argument);
  EXPECT_THROW(Dataspace(0), std::invalid_argument);
  EXPECT_NO_THROW(Dataspace(1));
  EXPECT_NO_THROW(Dataspace(128));
}

TEST(DataspaceTest, InsertAssignsFreshIdsWithOwner) {
  Dataspace d(8);
  const TupleId a = d.insert(tup("year", 87), 5);
  const TupleId b = d.insert(tup("year", 87), 5);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.owner(), 5u);
  EXPECT_EQ(d.size(), 2u);
}

TEST(DataspaceTest, MultisetKeepsDuplicates) {
  Dataspace d(8);
  d.insert(tup("x", 1), 0);
  d.insert(tup("x", 1), 0);
  d.insert(tup("x", 1), 0);
  EXPECT_EQ(d.count(tup("x", 1)), 3u);
}

TEST(DataspaceTest, EraseRemovesExactlyOneInstance) {
  Dataspace d(8);
  d.insert(tup("x", 1), 0);
  const TupleId victim = d.insert(tup("x", 1), 0);
  EXPECT_TRUE(d.erase(IndexKey::of(tup("x", 1)), victim));
  EXPECT_EQ(d.count(tup("x", 1)), 1u);
  EXPECT_FALSE(d.erase(IndexKey::of(tup("x", 1)), victim)) << "double erase";
}

TEST(DataspaceTest, EraseUnknownKeyReturnsFalse) {
  Dataspace d(8);
  EXPECT_FALSE(d.erase(IndexKey::of(tup("ghost")), TupleId(0, 999)));
}

TEST(DataspaceTest, ScanKeyVisitsOnlyThatBucket) {
  Dataspace d(8);
  d.insert(tup("a", 1), 0);
  d.insert(tup("a", 2), 0);
  d.insert(tup("b", 1), 0);
  d.insert(tup("a", 1, 1), 0);  // same head, different arity
  int seen = 0;
  d.scan_key(IndexKey::of_head(2, Value::atom("a")), [&](const Record&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 2);
}

TEST(DataspaceTest, ScanArityCrossesHeads) {
  Dataspace d(8);
  d.insert(tup("a", 1), 0);
  d.insert(tup("b", 2), 0);
  d.insert(tup("c"), 0);
  int seen = 0;
  d.scan_arity(2, [&](const Record&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 2);
}

TEST(DataspaceTest, ScanEarlyStop) {
  Dataspace d(8);
  for (int i = 0; i < 10; ++i) d.insert(tup("k", i), 0);
  int seen = 0;
  d.scan_key(IndexKey::of_head(2, Value::atom("k")), [&](const Record&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3);
}

TEST(DataspaceTest, SnapshotIsSortedAndComplete) {
  Dataspace d(4);
  d.insert(tup("b", 2), 1);
  d.insert(tup("a", 1), 1);
  d.insert(tup("a", 1), 2);
  const std::vector<Record> snap = d.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].tuple, tup("a", 1));
  EXPECT_EQ(snap[1].tuple, tup("a", 1));
  EXPECT_EQ(snap[2].tuple, tup("b", 2));
  EXPECT_LT(snap[0].id, snap[1].id);
}

TEST(DataspaceTest, EmptyBucketIsReclaimed) {
  Dataspace d(8);
  const TupleId id = d.insert(tup("once", 1), 0);
  EXPECT_TRUE(d.erase(IndexKey::of(tup("once", 1)), id));
  int seen = 0;
  d.scan_all([&](const Record&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 0);
  EXPECT_EQ(d.size(), 0u);
}

TEST(DataspaceTest, StatsCountAssertsAndRetracts) {
  Dataspace d(8);
  const TupleId id = d.insert(tup("s", 1), 0);
  d.insert(tup("s", 2), 0);
  d.erase(IndexKey::of(tup("s", 1)), id);
  EXPECT_EQ(d.stats().asserts, 2u);
  EXPECT_EQ(d.stats().retracts, 1u);
}

TEST(DataspaceTest, ShardOfIsStable) {
  Dataspace d(16);
  const IndexKey k = IndexKey::of(tup("year", 87));
  EXPECT_EQ(d.shard_of(k), d.shard_of(k));
  EXPECT_LT(d.shard_of(k), d.shard_count());
}

TEST(DataspaceTest, SecondIndexProbesOnlyMatchingRecords) {
  Dataspace d(8);
  for (int i = 0; i < 100; ++i) d.insert(tup("label", i, i * 2), 0);
  const std::uint64_t before = d.stats().records_scanned;
  int seen = 0;
  d.scan_key_second(IndexKey::of_head(3, Value::atom("label")), Value(42),
                    [&](const Record& r) {
                      EXPECT_EQ(r.tuple, tup("label", 42, 84));
                      ++seen;
                      return true;
                    });
  EXPECT_EQ(seen, 1);
  EXPECT_LE(d.stats().records_scanned - before, 2u)
      << "probe must not scan the bucket";
}

TEST(DataspaceTest, SecondIndexTracksErase) {
  Dataspace d(8);
  d.insert(tup("k", 5, 0), 0);
  const TupleId victim = d.insert(tup("k", 5, 1), 0);
  d.insert(tup("k", 6, 2), 0);
  EXPECT_TRUE(d.erase(IndexKey::of(tup("k", 5, 0)), victim));
  int seen = 0;
  d.scan_key_second(IndexKey::of_head(3, Value::atom("k")), Value(5),
                    [&](const Record& r) {
                      EXPECT_EQ(r.tuple, tup("k", 5, 0));
                      ++seen;
                      return true;
                    });
  EXPECT_EQ(seen, 1);
}

TEST(DataspaceTest, SecondIndexDuplicateSecondFields) {
  Dataspace d(8);
  d.insert(tup("k", 7, 1), 0);
  d.insert(tup("k", 7, 2), 0);
  d.insert(tup("k", 8, 3), 0);
  int seen = 0;
  d.scan_key_second(IndexKey::of_head(3, Value::atom("k")), Value(7),
                    [&](const Record&) {
                      ++seen;
                      return true;
                    });
  EXPECT_EQ(seen, 2);
}

TEST(DataspaceTest, SecondIndexMissIsEmpty) {
  Dataspace d(8);
  d.insert(tup("k", 1), 0);
  int seen = 0;
  d.scan_key_second(IndexKey::of_head(2, Value::atom("k")), Value(99),
                    [&](const Record&) {
                      ++seen;
                      return true;
                    });
  EXPECT_EQ(seen, 0);
}

TEST(DataspaceTest, SecondIndexSurvivesSwapRemoveChurn) {
  Dataspace d(8);
  std::vector<TupleId> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(d.insert(tup("c", i % 5, i), 0));
  // Remove every other instance (exercises position fixups).
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(d.erase(IndexKey::of_head(3, Value::atom("c")), ids[i]));
  }
  for (int s = 0; s < 5; ++s) {
    int seen = 0;
    d.scan_key_second(IndexKey::of_head(3, Value::atom("c")), Value(s),
                      [&](const Record& r) {
                        EXPECT_EQ(r.tuple[1], Value(s));
                        ++seen;
                        return true;
                      });
    EXPECT_EQ(seen, 5) << "second=" << s;
  }
}

TEST(DataspaceTest, RestoreAdvancesOriginatingShardNotBucketShard) {
  // Across a real process restart atoms re-intern in replay order, so the
  // same tuple can hash into a DIFFERENT bucket shard than the one that
  // minted its id. The id itself encodes its minting shard
  // (sequence % shard_count); restore must advance THAT shard's counter —
  // advancing the bucket shard's would let a fresh insert re-mint the
  // restored id. Simulate the restart by restoring under an id whose
  // originating shard differs from the tuple's current bucket shard.
  constexpr std::size_t kShards = 8;
  Dataspace d(kShards);
  const Tuple t = tup("job", 1);
  const std::size_t bucket = d.shard_of(IndexKey::of(t));
  const std::size_t origin = (bucket + 1) % kShards;
  const TupleId restored(/*owner=*/3, /*sequence=*/origin);  // local 0
  d.restore(t, restored);

  // The first insert landing in the origin shard would re-mint sequence
  // `origin` if restore had advanced the wrong counter.
  for (int i = 0; i < 4096; ++i) {
    const Tuple fresh = tup(i, i);
    if (d.shard_of(IndexKey::of(fresh)) != origin) continue;
    const TupleId id = d.insert(fresh, /*owner=*/3);
    ASSERT_NE(id, restored) << "fresh insert re-minted a restored id";
    break;
  }
  EXPECT_EQ(d.count(t), 1u);
}

TEST(DataspaceTest, ManyDistinctHeadsSpreadOverShards) {
  Dataspace d(16);
  std::unordered_set<std::size_t> shards;
  for (int i = 0; i < 256; ++i) {
    shards.insert(d.shard_of(IndexKey::of(tup(i, 0))));
  }
  EXPECT_GT(shards.size(), 4u) << "shard distribution is degenerate";
}

TEST(DataspaceTest, ArityScanSkipsEmptiedBuckets) {
  // A drained Sum3-like space: 4096 distinct heads, all but two consumed.
  // The 4094 emptied buckets stay allocated as tombstones; head-blind
  // scans must walk only the occupied ones.
  Dataspace d(64);
  epoch::Guard guard;
  std::vector<std::pair<IndexKey, TupleId>> placed;
  for (int i = 0; i < 4096; ++i) {
    const Tuple t = tup(i, i);
    placed.emplace_back(IndexKey::of(t), d.insert(t, 0));
  }
  d.insert(tup("wide", 1, 2), 0);
  for (std::size_t i = 2; i < placed.size(); ++i) {
    ASSERT_TRUE(d.erase(placed[i].first, placed[i].second));
  }

  std::uint64_t before = d.stats().buckets_visited;
  int seen = 0;
  d.scan_arity(2, [&](const Record&) {
    ++seen;
    return false;
  });
  EXPECT_EQ(seen, 1);
  EXPECT_LE(d.stats().buckets_visited - before, 2u);

  before = d.stats().buckets_visited;
  seen = 0;
  d.scan_arity(2, [&](const Record& r) {
    EXPECT_EQ(r.tuple.arity(), 2u);
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(d.stats().buckets_visited - before, 2u);

  before = d.stats().buckets_visited;
  seen = 0;
  d.scan_all([&](const Record&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(d.stats().buckets_visited - before, 3u);
}

// Seeded random insert/erase/restore runs over few shards and many heads,
// so buckets empty, revive and the per-shard tables grow several times.
// After every step scan_arity (each arity) and scan_all must return
// exactly the reference multiset.
class DataspaceChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DataspaceChurnProperty, ScansMatchReferenceMultiset) {
  constexpr std::uint32_t kMaxArity = 4;
  std::mt19937_64 rng(GetParam());
  auto below = [&](std::uint64_t n) { return rng() % n; };
  Dataspace d(4);
  epoch::Guard guard;
  using Rows = std::vector<std::pair<TupleId, Tuple>>;
  std::map<TupleId, Tuple> live;
  Rows erased;

  auto sorted = [](Rows v) {
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    return v;
  };
  auto check = [&](int step) {
    Rows all;
    d.scan_all([&](const Record& r) {
      all.emplace_back(r.id, r.tuple);
      return true;
    });
    ASSERT_EQ(sorted(all), Rows(live.begin(), live.end()))
        << "scan_all diverged at step " << step;
    for (std::uint32_t a = 0; a <= kMaxArity; ++a) {
      Rows got;
      d.scan_arity(a, [&](const Record& r) {
        got.emplace_back(r.id, r.tuple);
        return true;
      });
      Rows want;
      for (const auto& [id, t] : live) {
        if (t.arity() == a) want.emplace_back(id, t);
      }
      ASSERT_EQ(sorted(got), want)
          << "scan_arity(" << a << ") diverged at step " << step;
    }
  };

  for (int step = 0; step < 1500; ++step) {
    const std::uint64_t op = below(10);
    if (op < 5 || live.empty()) {
      // Half the inserts land on a few hot heads (buckets that fill,
      // empty and revive), half on a wide range (tombstones, growth).
      const std::uint64_t heads = below(2) == 0 ? 6 : 400;
      const auto arity = static_cast<std::uint32_t>(below(kMaxArity + 1));
      std::vector<Value> fields;
      for (std::uint32_t f = 0; f < arity; ++f) {
        fields.emplace_back(static_cast<std::int64_t>(
            f == 0 ? below(heads) : below(3)));
      }
      Tuple t(std::move(fields));
      const TupleId id = d.insert(t, 1);
      live.emplace(id, std::move(t));
    } else if (op < 9 || erased.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(below(live.size())));
      ASSERT_TRUE(d.erase(IndexKey::of(it->second), it->first));
      erased.emplace_back(it->first, it->second);
      live.erase(it);
    } else {
      const std::size_t k = below(erased.size());
      std::swap(erased[k], erased.back());
      auto [id, t] = std::move(erased.back());
      erased.pop_back();
      d.restore(t, id);
      live.emplace(id, std::move(t));
    }
    check(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(d.size(), live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataspaceChurnProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace sdl
