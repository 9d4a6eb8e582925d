#include "space/dataspace.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/epoch.hpp"

namespace sdl {

namespace {
bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Initial bucket-table slots per shard; doubled at load factor 1.
constexpr std::size_t kInitialSlots = 8;
}  // namespace

Dataspace::Dataspace(std::size_t shard_count) {
  if (!is_power_of_two(shard_count)) {
    throw std::invalid_argument("Dataspace: shard_count must be a power of two");
  }
  shards_ = std::make_unique<Shard[]>(shard_count);
  shard_count_ = shard_count;
  shard_mask_ = shard_count - 1;
  shard_bits_ = static_cast<std::size_t>(std::countr_zero(shard_count));
  for (std::size_t si = 0; si < shard_count_; ++si) {
    shards_[si].table.store(new Table(kInitialSlots),
                            std::memory_order_relaxed);
  }
}

Dataspace::~Dataspace() {
  // Give EBR a chance to hand back nodes retired by erase(); anything a
  // still-pinned thread blocks stays queued (the deleters are
  // self-contained and never touch this object, so late frees are safe).
  epoch::drain();
  for (std::size_t si = 0; si < shard_count_; ++si) {
    Table* t = shards_[si].table.load(std::memory_order_relaxed);
    for (std::size_t slot = 0; slot <= t->mask; ++slot) {
      BucketNode* b = t->slots[slot].load(std::memory_order_relaxed);
      while (b != nullptr) {
        Node* n = b->head.load(std::memory_order_relaxed);
        while (n != nullptr) {
          Node* next = n->next.load(std::memory_order_relaxed);
          delete n;
          n = next;
        }
        BucketNode* chain = b->chain.load(std::memory_order_relaxed);
        delete b;
        b = chain;
      }
    }
    delete t;
    for (ArityEntry* e = shards_[si].arities.load(std::memory_order_relaxed);
         e != nullptr;) {
      ArityEntry* next = e->next;
      delete e;
      e = next;
    }
  }
}

Dataspace::BucketNode* Dataspace::find_bucket(const Shard& shard,
                                              const IndexKey& key) const {
  const Table* t = shard.table.load(std::memory_order_acquire);
  for (BucketNode* b = t->slots[slot_of(*t, key)].load(std::memory_order_acquire);
       b != nullptr; b = b->chain.load(std::memory_order_acquire)) {
    if (b->key == key) return b;
  }
  return nullptr;
}

Dataspace::BucketNode* Dataspace::ensure_bucket(Shard& shard,
                                                const IndexKey& key) {
  if (BucketNode* b = find_bucket(shard, key)) return b;
  Table* t = shard.table.load(std::memory_order_relaxed);
  if (++shard.bucket_nodes > t->mask + 1) {
    // Load factor 1: rebuild at double width. Collect every bucket first
    // (re-chaining destroys the old chains as it goes), then push into the
    // new slots. Readers mid-walk on the old table may see a mix of old
    // and new chain links — that mix is acyclic and every pointer stays a
    // live BucketNode, so the walk is memory-safe; it can miss or repeat
    // buckets, which version validation turns into a retry.
    Table* grown = new Table((t->mask + 1) * 2);
    std::vector<BucketNode*> all;
    all.reserve(shard.bucket_nodes);
    for (std::size_t slot = 0; slot <= t->mask; ++slot) {
      for (BucketNode* b = t->slots[slot].load(std::memory_order_relaxed);
           b != nullptr; b = b->chain.load(std::memory_order_relaxed)) {
        all.push_back(b);
      }
    }
    for (BucketNode* b : all) {
      auto& slot = grown->slots[slot_of(*grown, b->key)];
      b->chain.store(slot.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
      slot.store(b, std::memory_order_release);
    }
    shard.table.store(grown, std::memory_order_release);
    epoch::retire(t, [](void* p) { delete static_cast<Table*>(p); });
    t = grown;
    // Index statistics drifted (population doubled past this table's
    // capacity) — advance the epoch so cached query plans re-compile.
    stats_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  ArityEntry* list = find_arity(shard, key.arity);
  if (list == nullptr) {
    list = new ArityEntry(key.arity,
                          shard.arities.load(std::memory_order_relaxed));
    shard.arities.store(list, std::memory_order_release);
  }
  auto* b = new BucketNode(key, *list);
  auto& slot = t->slots[slot_of(*t, key)];
  b->chain.store(slot.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  slot.store(b, std::memory_order_release);  // publish fully-formed
  return b;
}

Dataspace::ArityEntry* Dataspace::find_arity(const Shard& shard,
                                             std::uint32_t arity) {
  for (ArityEntry* e = shard.arities.load(std::memory_order_acquire);
       e != nullptr; e = e->next) {
    if (e->arity == arity) return e;
  }
  return nullptr;
}

Dataspace::Node* Dataspace::link_record(BucketNode& bucket, Record rec) {
  Node* n = new Node;
  n->rec = std::move(rec);
  Node* head = bucket.head.load(std::memory_order_relaxed);
  n->next.store(head, std::memory_order_relaxed);
  if (head != nullptr) head->prev = n;
  bucket.position.emplace(n->rec.id, n);
  bucket.head.store(n, std::memory_order_release);  // publish fully-formed
  if (head == nullptr) {
    // Empty -> occupied: push the bucket at its occupancy list's head.
    BucketNode* first = bucket.occ_list.occupied.load(std::memory_order_relaxed);
    bucket.occ_prev = nullptr;
    bucket.occ_next.store(first, std::memory_order_release);
    if (first != nullptr) first->occ_prev = &bucket;
    bucket.occ_list.occupied.store(&bucket, std::memory_order_release);
  }
  return n;
}

TupleId Dataspace::insert(Tuple t, ProcessId owner) {
  const IndexKey key = IndexKey::of(t);
  const std::size_t si = shard_of(key);
  Shard& shard = shards_[si];
  // Per-shard sequences interleaved by shard index stay globally unique.
  const std::uint64_t local =
      shard.next_sequence.load(std::memory_order_relaxed);
  shard.next_sequence.store(local + 1, std::memory_order_relaxed);
  const TupleId id(owner, local * shard_count_ + si);

  BucketNode* bucket = ensure_bucket(shard, key);
  if (t.arity() >= 2) bucket->by_second[t[1].hash()].push_back(id);
  link_record(*bucket, Record{id, std::move(t)});
  Shard::bump(shard.live);
  Shard::bump(shard.asserts);
  return id;
}

bool Dataspace::erase(const IndexKey& key, TupleId id) {
  Shard& shard = shards_[shard_of(key)];
  BucketNode* bucket = find_bucket(shard, key);
  if (bucket == nullptr) return false;
  auto pit = bucket->position.find(id);
  if (pit == bucket->position.end()) return false;
  Node* n = pit->second;

  if (n->rec.tuple.arity() >= 2) {
    auto sit = bucket->by_second.find(n->rec.tuple[1].hash());
    if (sit != bucket->by_second.end()) {
      auto& ids = sit->second;
      ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
      if (ids.empty()) bucket->by_second.erase(sit);
    }
  }
  bucket->position.erase(pit);

  // Unlink. The node's own `next` is left intact so a reader standing on
  // it can finish its walk; the node is retired, not freed — a concurrent
  // optimistic reader may still dereference it until the grace period
  // expires (caller holds an epoch::Guard, which makes the grace argument
  // sound — see epoch.hpp "Why writers pin too").
  Node* succ = n->next.load(std::memory_order_relaxed);
  if (succ != nullptr) succ->prev = n->prev;
  if (n->prev != nullptr) {
    n->prev->next.store(succ, std::memory_order_release);
  } else {
    bucket->head.store(succ, std::memory_order_release);
  }
  epoch::retire(n, [](void* p) { delete static_cast<Node*>(p); });

  if (bucket->head.load(std::memory_order_relaxed) == nullptr) {
    // Occupied -> empty: unlink the bucket from its occupancy list. Its
    // own `occ_next` stays intact for a reader standing on it.
    BucketNode* next = bucket->occ_next.load(std::memory_order_relaxed);
    if (next != nullptr) next->occ_prev = bucket->occ_prev;
    if (bucket->occ_prev != nullptr) {
      bucket->occ_prev->occ_next.store(next, std::memory_order_release);
    } else {
      bucket->occ_list.occupied.store(next, std::memory_order_release);
    }
  }

  Shard::drop(shard.live);
  Shard::bump(shard.retracts);
  return true;
}

void Dataspace::scan_key(const IndexKey& key, const RecordFn& fn) const {
  const Shard& shard = shards_[shard_of(key)];
  const BucketNode* bucket = find_bucket(shard, key);
  if (bucket == nullptr) return;
  Shard& counters = const_cast<Shard&>(shard);
  Shard::bump(counters.visited);
  std::uint64_t seen = 0;
  for (const Node* n = bucket->head.load(std::memory_order_acquire);
       n != nullptr; n = n->next.load(std::memory_order_acquire)) {
    ++seen;
    if (!fn(n->rec)) break;
  }
  if (seen != 0) Shard::bump(counters.scanned, seen);
}

void Dataspace::scan_key_second(const IndexKey& key, const Value& second,
                                const RecordFn& fn) const {
  const Shard& shard = shards_[shard_of(key)];
  const BucketNode* bucket = find_bucket(shard, key);
  if (bucket == nullptr) return;
  auto sit = bucket->by_second.find(second.hash());
  if (sit == bucket->by_second.end()) return;
  Shard& counters = const_cast<Shard&>(shard);
  for (const TupleId id : sit->second) {
    Shard::bump(counters.scanned);
    const Record& r = bucket->position.at(id)->rec;
    // Hash collisions: verify the actual field.
    if (r.tuple[1] != second) continue;
    if (!fn(r)) return;
  }
}

bool Dataspace::walk_occupied(const Shard& shard, const ArityEntry& list,
                              const RecordFn& fn, bool count_records) {
  Shard& counters = const_cast<Shard&>(shard);
  std::uint64_t buckets = 0;
  std::uint64_t seen = 0;
  bool more = true;
  for (const BucketNode* b = list.occupied.load(std::memory_order_acquire);
       more && b != nullptr; b = b->occ_next.load(std::memory_order_acquire)) {
    ++buckets;
    for (const Node* n = b->head.load(std::memory_order_acquire);
         n != nullptr; n = n->next.load(std::memory_order_acquire)) {
      ++seen;
      if (!fn(n->rec)) {
        more = false;
        break;
      }
    }
  }
  if (buckets != 0) Shard::bump(counters.visited, buckets);
  if (count_records && seen != 0) Shard::bump(counters.scanned, seen);
  return more;
}

void Dataspace::scan_arity(std::uint32_t arity, const RecordFn& fn) const {
  for (std::size_t si = 0; si < shard_count_; ++si) {
    const ArityEntry* list = find_arity(shards_[si], arity);
    if (list != nullptr && !walk_occupied(shards_[si], *list, fn, true)) {
      return;
    }
  }
}

void Dataspace::scan_all(const RecordFn& fn) const {
  for (std::size_t si = 0; si < shard_count_; ++si) {
    for (const ArityEntry* e =
             shards_[si].arities.load(std::memory_order_acquire);
         e != nullptr; e = e->next) {
      if (!walk_occupied(shards_[si], *e, fn, false)) return;
    }
  }
}

void Dataspace::for_each_instance(
    const std::function<void(const Record&)>& fn) const {
  scan_all([&](const Record& r) {
    fn(r);
    return true;
  });
}

void Dataspace::restore(Tuple t, TupleId id) {
  const IndexKey key = IndexKey::of(t);
  Shard& shard = shards_[shard_of(key)];
  // Advance the sequence counter of the id's ORIGINATING shard past the
  // restored id. Sequences are allocated as local * shard_count +
  // shard_index, so the originator is id.sequence() % shard_count — and
  // only that shard can ever mint a sequence congruent to this one. The
  // bucket shard (shard_of above) is NOT restart-stable: atom hashes use
  // process-local intern ids, so after a real restart the same tuple can
  // bucket elsewhere, and advancing the bucket shard's counter here would
  // let a fresh insert re-mint this exact id.
  Shard& origin = shards_[id.sequence() % shard_count_];
  const std::uint64_t floor = id.sequence() / shard_count_ + 1;
  if (origin.next_sequence.load(std::memory_order_relaxed) < floor) {
    origin.next_sequence.store(floor, std::memory_order_relaxed);
  }
  BucketNode* bucket = ensure_bucket(shard, key);
  if (bucket->position.contains(id)) {
    throw std::logic_error("Dataspace::restore: id already resident: " +
                           id.to_string());
  }
  if (t.arity() >= 2) bucket->by_second[t[1].hash()].push_back(id);
  link_record(*bucket, Record{id, std::move(t)});
  Shard::bump(shard.live);
}

std::size_t Dataspace::size() const {
  std::uint64_t n = 0;
  for (std::size_t si = 0; si < shard_count_; ++si) {
    n += shards_[si].live.load(std::memory_order_relaxed);
  }
  return static_cast<std::size_t>(n);
}

SpaceStats Dataspace::stats() const {
  SpaceStats s;
  for (std::size_t si = 0; si < shard_count_; ++si) {
    const Shard& shard = shards_[si];
    s.asserts += shard.asserts.load(std::memory_order_relaxed);
    s.retracts += shard.retracts.load(std::memory_order_relaxed);
    s.records_scanned += shard.scanned.load(std::memory_order_relaxed);
    s.buckets_visited += shard.visited.load(std::memory_order_relaxed);
  }
  return s;
}

std::size_t Dataspace::count(const Tuple& t) const {
  std::size_t n = 0;
  scan_key(IndexKey::of(t), [&](const Record& r) {
    if (r.tuple == t) ++n;
    return true;
  });
  return n;
}

std::vector<Record> Dataspace::snapshot() const {
  std::vector<Record> out;
  out.reserve(size());
  scan_all([&](const Record& r) {
    out.push_back(r);
    return true;
  });
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    if (a.tuple != b.tuple) return a.tuple < b.tuple;
    return a.id < b.id;
  });
  return out;
}

}  // namespace sdl
