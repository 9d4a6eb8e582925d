// The dataspace D (§2.1): "a finite but large multiset of tuples".
//
// Storage is content-addressed: tuples are bucketed by an IndexKey derived
// from (arity, first-field value). A pattern whose first term is a constant
// probes exactly one bucket; a pattern whose first term is a variable or
// wildcard walks the NON-EMPTY buckets of its arity. This mirrors the
// standard tuple-space implementation trick and is what experiment E5
// measures.
//
// Emptied buckets stay allocated as tombstones (see BucketNode), so a walk
// over every bucket ever created would cost one step per distinct head
// ever consumed — quadratic over a §3.1 Sum3 run. Each shard therefore
// keeps an arity directory: per arity, an intrusive list of the shard's
// currently occupied buckets. A bucket joins its list when its first
// record is linked and leaves it when its last record is erased, so
// scan_arity costs O(shards + occupied buckets visited) and scan_all
// O(shards + occupied buckets), independent of how many tombstones exist.
//
// Dataspace is deliberately NOT self-synchronizing: the transaction engines
// in src/txn own the locks (GlobalLockEngine one mutex, ShardedEngine one
// reader–writer lock per shard) so that locking policy is an
// interchangeable, benchmarkable decision (experiments E6, E15). Buckets
// are distributed over `shard_count` shards by IndexKey hash.
//
// Since ISSUE 6 the storage layout is LOCK-FREE-READABLE: each shard is an
// open hash table of bucket nodes (chained, append-only) and each bucket
// holds its records in a doubly-linked node list whose forward pointers
// are atomics. That supports three access modes:
//   * mutation (insert, erase, rebuilds) requires that shard's lock
//     EXCLUSIVELY, and the caller must bracket the whole commit with
//     begin_shard_write/end_shard_write (the seqlock protocol below) and
//     hold an epoch::Guard (erase defers node frees through EBR);
//   * locked reads (scan_*, count) require the shard at least SHARED;
//   * OPTIMISTIC reads (the ShardedEngine read path) take no lock at all:
//     inside an epoch::Guard, sample shard_version() (reject odd = writer
//     in progress), traverse via scan_key/scan_arity, then re-validate the
//     sampled versions — identical ⇒ the traversal observed a consistent
//     snapshot; changed ⇒ discard and retry. scan_key_second and every
//     writer-side auxiliary structure (position map, secondary index) are
//     NOT optimistic-safe: they are plain containers read only under locks.
// Whole-space operations (scan_arity, scan_all, snapshot) need every shard
// held in the corresponding mode (or per-shard version validation).
//
// Why the occupancy lists are optimistic-safe: they are linked and
// unlinked only under the shard's exclusive lock, inside the writer's
// begin/end_shard_write bracket, so any reader whose walk overlaps a
// change fails validation. Memory safety needs no validation: directory
// entries and BucketNodes are never freed before the Dataspace dies, and
// an unlinked bucket keeps its `occ_next`, so a reader standing on it can
// finish its walk through live nodes. A bucket relinked while a reader
// stands on it sends the reader back to the list head: the walk may then
// repeat or miss buckets, and validation rejects the attempt (it still
// ends — every such restart takes another writer commit). This is the
// same argument as the table-growth rebuild in ensure_bucket.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/tuple.hpp"

namespace sdl {

/// Bucket address of a tuple: its arity and the hash of its first field.
/// Arity-0 tuples all share head_hash 0.
struct IndexKey {
  std::uint32_t arity = 0;
  std::uint64_t head_hash = 0;

  friend bool operator==(const IndexKey& a, const IndexKey& b) {
    return a.arity == b.arity && a.head_hash == b.head_hash;
  }

  [[nodiscard]] std::size_t hash() const {
    return head_hash * 0x9e3779b97f4a7c15ull + arity;
  }

  /// The bucket a tuple lives in.
  static IndexKey of(const Tuple& t) {
    IndexKey k;
    k.arity = static_cast<std::uint32_t>(t.arity());
    k.head_hash = t.arity() == 0 ? 0 : t[0].hash();
    return k;
  }

  /// The bucket tuples with this (arity, first field) live in.
  static IndexKey of_head(std::size_t arity, const Value& head) {
    IndexKey k;
    k.arity = static_cast<std::uint32_t>(arity);
    k.head_hash = arity == 0 ? 0 : head.hash();
    return k;
  }
};

struct IndexKeyHash {
  std::size_t operator()(const IndexKey& k) const noexcept { return k.hash(); }
};

/// One tuple instance resident in the dataspace.
struct Record {
  TupleId id;
  Tuple tuple;
};

/// Snapshot of the dataspace's instrumentation counters, aggregated over
/// shards. Counters are maintained per shard (single writer under that
/// shard's engine lock) so that hot-path scans and inserts never touch a
/// shared cache line — a measured scaling ceiling otherwise (E6).
struct SpaceStats {
  std::uint64_t asserts = 0;
  std::uint64_t retracts = 0;
  std::uint64_t records_scanned = 0;
  /// Bucket nodes entered by scan_key, scan_arity and scan_all.
  std::uint64_t buckets_visited = 0;
};

/// The tuple store. See file comment for the synchronization contract.
class Dataspace {
 public:
  /// `shard_count` fixes the number of independently lockable shards for
  /// the life of the store. Must be a power of two.
  explicit Dataspace(std::size_t shard_count = 64);
  ~Dataspace();

  Dataspace(const Dataspace&) = delete;
  Dataspace& operator=(const Dataspace&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }
  [[nodiscard]] std::size_t shard_of(const IndexKey& key) const {
    return key.hash() & shard_mask_;
  }

  /// Index-statistics epoch: bumped whenever a shard's bucket table
  /// resizes, i.e. the store's population has drifted by a factor large
  /// enough to re-plan against. The compiled-query plan cache
  /// (src/query/compile.hpp) keys entries by this value, so drift
  /// invalidates stale plans on their next lookup. Monotonic; relaxed
  /// ordering suffices (a racing reader merely recompiles one epoch late).
  [[nodiscard]] std::uint64_t stats_epoch() const {
    return stats_epoch_.load(std::memory_order_relaxed);
  }

  // ------------------------------------------------------------- versions
  // Per-shard seqlock: a writer holding shard si's exclusive lock brackets
  // its commit with begin_shard_write(si) … end_shard_write(si), keeping
  // the version ODD for the full critical section — all of one commit's
  // mutations to a shard land inside one odd window, so an optimistic
  // reader can never validate a half-applied commit. Engines own the
  // bracketing (locking policy lives in src/txn); recovery-time mutation
  // (restore) is quiescent and exempt.

  /// Begin a writer critical section on shard si (version becomes odd).
  /// Caller holds si's exclusive lock; never nests.
  void begin_shard_write(std::size_t si) {
    auto& v = shards_[si].version;
    v.store(v.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  /// End a writer critical section (version becomes even again). Must be
  /// called BEFORE releasing si's exclusive lock.
  void end_shard_write(std::size_t si) {
    auto& v = shards_[si].version;
    v.store(v.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }
  /// Current version of shard si (acquire: the sample point of the
  /// optimistic-read protocol; odd = writer in progress).
  [[nodiscard]] std::uint64_t shard_version(std::size_t si) const {
    return shards_[si].version.load(std::memory_order_acquire);
  }
  /// Relaxed re-read for the validation step — callers issue an acquire
  /// fence between the last traversal load and this (see OptimisticSource).
  [[nodiscard]] std::uint64_t shard_version_validate(std::size_t si) const {
    return shards_[si].version.load(std::memory_order_relaxed);
  }

  // ------------------------------------------------------------ mutation

  /// Inserts a tuple instance owned by `owner`; returns its fresh id.
  /// Caller must hold the lock for shard_of(IndexKey::of(t)) EXCLUSIVELY,
  /// inside a begin/end_shard_write bracket when optimistic readers may
  /// exist (i.e. under ShardedEngine).
  TupleId insert(Tuple t, ProcessId owner);

  /// Removes the instance `id` from the bucket `key` (which the caller
  /// derives from the matched tuple). Returns false if not present.
  /// Caller must hold the lock for shard_of(key) EXCLUSIVELY (bracketed as
  /// for insert) and an epoch::Guard: the record's node is retired through
  /// EBR, not freed, because unlocked readers may still be traversing it.
  bool erase(const IndexKey& key, TupleId id);

  using RecordFn = std::function<bool(const Record&)>;  // return false to stop

  // --------------------------------------------------------------- reads

  /// Visits every record in bucket `key`. Caller holds that shard's lock
  /// (shared mode suffices) OR is an optimistic reader inside an
  /// epoch::Guard with version validation (see file comment).
  void scan_key(const IndexKey& key, const RecordFn& fn) const;

  /// Visits only the records in bucket `key` whose SECOND field equals
  /// `second` — a probe on the per-bucket secondary index. This is what
  /// makes a join pattern like [label, p, l] with `p` already bound a
  /// lookup instead of a bucket scan (the §3.3 worker-model join drops
  /// from O(N³) to O(N²) on it). Caller holds that shard's lock — the
  /// secondary index is a writer-side plain container, NOT safe for
  /// optimistic readers (they fall back to a filtered scan_key).
  void scan_key_second(const IndexKey& key, const Value& second,
                       const RecordFn& fn) const;

  /// Visits every record whose tuple has `arity`, walking only occupied
  /// buckets (crosses all shards — caller holds every shard lock, or
  /// validates every shard version).
  void scan_arity(std::uint32_t arity, const RecordFn& fn) const;

  /// Visits every record, walking only occupied buckets (caller must hold
  /// every shard lock). Counts buckets visited, not records scanned.
  void scan_all(const RecordFn& fn) const;

  /// Full-space walk for serialization (snapshots): visits every record,
  /// no early-stop, no records-scanned noise. Caller must hold every
  /// shard lock (the persistence layer runs it inside Engine::exclusive).
  void for_each_instance(const std::function<void(const Record&)>& fn) const;

  /// Re-inserts an instance under its ORIGINAL id — the recovery path.
  /// The sequence counter of the id's originating shard (recovered from
  /// the id itself, NOT from the tuple's bucket — bucket placement hashes
  /// atom intern ids and is not stable across a process restart) is
  /// advanced past the id so instances asserted after recovery can never
  /// collide with restored ones; this guarantee requires the dataspace to
  /// have the same shard_count the id was created under (the durable
  /// formats stamp it; recovery verifies). Throws if the id is already
  /// resident. Recovery-only: the caller must be quiescent (it may touch
  /// two shards — the bucket and the sequence originator). Bumps `live`
  /// but not the assert counter: the instance was counted when first
  /// asserted.
  void restore(Tuple t, TupleId id);

  /// Number of resident tuple instances (approximate under concurrency:
  /// exact when the caller holds all shard locks).
  [[nodiscard]] std::size_t size() const;

  /// Count of instances structurally equal to `t` (caller holds the
  /// relevant shard lock).
  [[nodiscard]] std::size_t count(const Tuple& t) const;

  /// Snapshot of all resident records, sorted by tuple then id — for tests
  /// and trace dumps (caller must hold every shard lock or be otherwise
  /// quiescent).
  [[nodiscard]] std::vector<Record> snapshot() const;

  /// Aggregated counters (approximate under concurrency).
  [[nodiscard]] SpaceStats stats() const;

 private:
  /// One resident record. `next` is the unlocked-traversal pointer
  /// (atomic, release-published); `prev` is writer-only (only ever
  /// touched under the shard's exclusive lock) so it stays plain.
  /// Unlinked nodes keep their `next` intact — a reader standing on a
  /// just-retracted node can still finish its walk.
  struct Node {
    Record rec;
    std::atomic<Node*> next{nullptr};
    Node* prev = nullptr;
  };

  struct BucketNode;

  /// One arity of a shard's directory: the head of that shard's list of
  /// occupied buckets of `arity`. Created with the shard's first bucket of
  /// its arity, pushed at the directory head, never freed until the
  /// Dataspace dies. `next` is fixed before the entry is published.
  struct ArityEntry {
    ArityEntry(std::uint32_t a, ArityEntry* n) : arity(a), next(n) {}
    const std::uint32_t arity;
    ArityEntry* const next;
    std::atomic<BucketNode*> occupied{nullptr};
  };

  /// One bucket. Allocated on first insert of its key and never freed
  /// until the Dataspace dies (an emptied bucket is a tombstone that the
  /// next insert of the same key revives) — that is what lets readers
  /// traverse the bucket chains and occupancy lists without coordination.
  /// While it holds records the bucket is linked into its arity's
  /// occupancy list: `occ_next` is the reader-visible link (atomic,
  /// release-published, left intact on unlink), `occ_prev` is writer-only.
  /// `position` and `by_second` are writer-side auxiliaries: plain
  /// containers, mutated under the exclusive lock, read only under (at
  /// least shared) locks.
  struct BucketNode {
    BucketNode(const IndexKey& k, ArityEntry& list) : key(k), occ_list(list) {}
    const IndexKey key;
    ArityEntry& occ_list;  // this bucket's arity in the shard directory
    std::atomic<Node*> head{nullptr};
    std::atomic<BucketNode*> chain{nullptr};  // hash-slot chain link
    std::atomic<BucketNode*> occ_next{nullptr};
    BucketNode* occ_prev = nullptr;
    /// TupleId -> node (writer-only; O(1) erase).
    std::unordered_map<TupleId, Node*> position;
    /// hash(second field) -> ids; empty for arity < 2 buckets (writer-only
    /// mutation, locked readers only).
    std::unordered_map<std::uint64_t, std::vector<TupleId>> by_second;
  };

  /// A shard's bucket index: open hashing with per-slot BucketNode chains.
  /// Grown by doubling under the exclusive lock; the superseded table
  /// array is EBR-retired because readers may still be walking it (they
  /// may then miss or repeat buckets — version validation rejects the
  /// attempt; memory safety is what matters here).
  struct Table {
    explicit Table(std::size_t slot_count)
        : mask(slot_count - 1),
          slots(std::make_unique<std::atomic<BucketNode*>[]>(slot_count)) {}
    const std::size_t mask;
    std::unique_ptr<std::atomic<BucketNode*>[]> slots;
  };

  /// Per-shard state. Bucket mutation (and the asserts/retracts/live
  /// counters) happens only under this shard's EXCLUSIVE lock — a single
  /// writer — so those counter writes are load+store, not RMW. The
  /// `scanned` counter is also bumped by readers (shared-mode or
  /// optimistic): concurrent load+store bumps may lose counts, which is
  /// accepted — stats are documented approximate, and an RMW here would
  /// put every concurrent same-shard reader back on one contended cache
  /// line (the exact ceiling the lock-free read path removes, E15).
  /// Atomics keep the unlocked aggregate reads (size()/stats()) and the
  /// unlocked bumps well-defined (no UB, no torn values). `version` sits
  /// on its own cache line: optimistic readers hammer it with loads and
  /// sharing it with writer-updated counters would bounce the line.
  struct Shard {
    std::atomic<Table*> table{nullptr};
    std::atomic<ArityEntry*> arities{nullptr};  // directory, newest first
    std::size_t bucket_nodes = 0;  // writer-only: BucketNodes ever created
    alignas(64) std::atomic<std::uint64_t> version{0};
    alignas(64) std::atomic<std::uint64_t> next_sequence{1};
    std::atomic<std::uint64_t> live{0};
    std::atomic<std::uint64_t> asserts{0};
    std::atomic<std::uint64_t> retracts{0};
    std::atomic<std::uint64_t> scanned{0};
    std::atomic<std::uint64_t> visited{0};  // buckets, bumped like scanned

    static void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
      c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
    }
    static void drop(std::atomic<std::uint64_t>& c) {
      c.store(c.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
    }
  };

  /// Slot index of `key` in `t`. The shard selector consumed the hash's
  /// low bits, so the table consumes the next ones up.
  [[nodiscard]] std::size_t slot_of(const Table& t, const IndexKey& key) const {
    return (key.hash() >> shard_bits_) & t.mask;
  }

  /// Bucket lookup by chain walk (readers and writers alike; writers see
  /// a stable table under their exclusive lock).
  [[nodiscard]] BucketNode* find_bucket(const Shard& shard,
                                        const IndexKey& key) const;

  /// Writer-only: find-or-create, growing the table at load factor 1.
  BucketNode* ensure_bucket(Shard& shard, const IndexKey& key);

  /// Directory lookup (readers and writers alike); null if the shard has
  /// never held a bucket of `arity`.
  [[nodiscard]] static ArityEntry* find_arity(const Shard& shard,
                                              std::uint32_t arity);

  /// Writer-only: link a fresh node at the bucket's head (release-publish),
  /// and the bucket into its occupancy list if it was empty.
  Node* link_record(BucketNode& bucket, Record rec);

  /// Visits the records of every bucket on `list` until fn returns false
  /// (then returns false). Bumps `visited` per bucket entered, and
  /// `scanned` per record when `count_records`.
  static bool walk_occupied(const Shard& shard, const ArityEntry& list,
                            const RecordFn& fn, bool count_records);

  std::unique_ptr<Shard[]> shards_;  // Shard is immovable (atomics)
  std::size_t shard_count_;
  std::size_t shard_mask_;
  std::size_t shard_bits_;
  std::atomic<std::uint64_t> stats_epoch_{0};  // see stats_epoch()
};

}  // namespace sdl
