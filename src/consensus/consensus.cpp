#include "consensus/consensus.hpp"

#include <algorithm>
#include <unordered_set>

#include "persist/persist.hpp"

namespace sdl {
namespace {

using ImportList = std::vector<std::pair<TupleId, IndexKey>>;

/// What one pass knows about a process: its scheduling state, read once,
/// and for a parked process its exact imports, collected on first use.
struct Node {
  bool parked = false;  // stable environment; exact imports readable
  bool ready = false;   // parked with at least one consensus offer
  bool imports_known = false;
  ImportList imports;   // sorted by id (parked, not import-all, only)
  int set = -1;         // the set this pass grew it into
};

/// Per-member evaluation result during a fire attempt.
struct MemberPlan {
  Process* p = nullptr;
  bool ok = false;
  const Transaction* txn = nullptr;
  int branch = -1;
  QueryOutcome outcome;
};

bool by_pid(const Process* a, const Process* b) { return a->pid < b->pid; }

bool imports_tuple(const ImportList& imports, TupleId id) {
  auto it = std::lower_bound(
      imports.begin(), imports.end(), id,
      [](const std::pair<TupleId, IndexKey>& e, TupleId v) { return e.first < v; });
  return it != imports.end() && it->first == id;
}

}  // namespace

/// One detection pass's view of the society: states read once, exact
/// imports collected lazily, and the sets grown so far. Lives inside
/// total exclusion with the society locked.
class ConsensusManager::Pass {
 public:
  Pass(const NeighbourIndex& index, const Scheduler::Society& society,
       const Dataspace& space, const FunctionRegistry* fns)
      : index_(index),
        society_(society),
        space_(space),
        fns_(fns),
        space_nonempty_(space.size() > 0) {}

  /// Grows the consensus set of `seed`, stopping at the first member that
  /// is not ready. True, with `members` sorted by pid, when every member
  /// is ready. A seed that is not ready, or already in a set this pass
  /// grew, yields false.
  bool grow(Process* seed, std::vector<Process*>& members);

  [[nodiscard]] std::uint64_t visited() const { return visited_; }

 private:
  Node& node(Process* p);
  const ImportList& imports(Process* p, Node& n);
  /// Does a bucket that a runnable process's summary covers hold a tuple?
  bool coverage_nonempty(const ImportSummary& s) const;
  /// The processes whose summary may cover `key`, into candidates_.
  void collect_candidates(const IndexKey& key);

  const NeighbourIndex& index_;
  const Scheduler::Society& society_;
  const Dataspace& space_;
  const FunctionRegistry* fns_;
  const bool space_nonempty_;
  std::unordered_map<Process*, Node> nodes_;
  std::vector<Process*> candidates_;
  /// Tuples imported by members of sets found blocked: a process that
  /// imports one is in a blocked set. (A blocked set with an import-all
  /// member, D nonempty, holds every process with a nonempty import.)
  std::unordered_set<TupleId> blocked_ids_;
  bool everything_blocked_ = false;
  int next_set_ = 0;
  std::uint64_t visited_ = 0;
};

Node& ConsensusManager::Pass::node(Process* p) {
  auto [it, inserted] = nodes_.try_emplace(p);
  if (inserted) {
    std::scoped_lock state_lock(p->state_mutex);
    it->second.parked = p->state == RunState::Parked;
    it->second.ready = it->second.parked && !p->offers.empty();
  }
  return it->second;
}

const ImportList& ConsensusManager::Pass::imports(Process* p, Node& n) {
  if (!n.imports_known) {
    n.imports_known = true;
    // Only parked processes without an import-all view get here, and a
    // summary that is not import-all implies an engaged, narrowing view.
    p->view_ptr()->collect_import_records(space_, p->env, fns_, n.imports);
  }
  return n.imports;
}

bool ConsensusManager::Pass::coverage_nonempty(const ImportSummary& s) const {
  bool nonempty = false;
  auto any = [&nonempty](const Record&) {
    nonempty = true;
    return false;
  };
  for (const IndexKey& k : s.keys) {
    space_.scan_key(k, any);
    if (nonempty) return true;
  }
  for (std::uint32_t a : s.arities) {
    space_.scan_arity(a, any);
    if (nonempty) return true;
  }
  return false;
}

void ConsensusManager::Pass::collect_candidates(const IndexKey& key) {
  candidates_.clear();
  if (auto it = index_.by_key.find(key); it != index_.by_key.end()) {
    candidates_.insert(candidates_.end(), it->second.begin(), it->second.end());
  }
  if (auto it = index_.by_arity.find(key.arity); it != index_.by_arity.end()) {
    candidates_.insert(candidates_.end(), it->second.begin(), it->second.end());
  }
  candidates_.insert(candidates_.end(), index_.everything.begin(),
                     index_.everything.end());
}

bool ConsensusManager::Pass::grow(Process* seed, std::vector<Process*>& members) {
  Node& s = node(seed);
  if (!s.ready || s.set >= 0) return false;
  const int set = next_set_++;
  s.set = set;
  members.assign(1, seed);
  // The set is blocked: remember what ties a process to it, so a later
  // seed in it is recognised from its own imports, without a scan.
  auto blocked = [&] {
    for (Process* m : members) {
      Node& n = node(m);
      if (m->static_imports.everything) {
        everything_blocked_ = everything_blocked_ || space_nonempty_;
      } else if (n.imports_known) {
        for (const auto& [id, key] : n.imports) blocked_ids_.insert(id);
      }
    }
    return false;
  };
  // Adds `v`, which is linked to the set; false when that blocks the set.
  // A node an earlier seed's growth reached is in the same set, and that
  // set was blocked: a set found all-ready is grown whole, so it would
  // already hold `seed`.
  auto join = [&](Process* v, Node& n) {
    if (n.set == set) return true;
    if (n.set >= 0 || !n.ready) return false;
    n.set = set;
    members.push_back(v);
    return true;
  };

  for (std::size_t head = 0; head < members.size(); ++head) {
    Process* u = members[head];
    ++visited_;
    if (u->static_imports.everything) {
      // Import(u) = D. When D is nonempty, u needs every import-all
      // process and every process with a nonempty import: exact if
      // parked, bucket-level if runnable.
      if (!space_nonempty_) continue;
      if (everything_blocked_ || !blocked_ids_.empty()) return blocked();
      for (const auto& [pid, owned] : society_) {
        Process* v = owned.get();
        if (v == u) continue;
        Node& n = node(v);
        if (n.set == set) continue;
        const bool linked =
            v->static_imports.everything ||
            (n.parked ? !imports(v, n).empty()
                      : coverage_nonempty(v->static_imports));
        if (linked && !join(v, n)) return blocked();
      }
      continue;
    }
    const ImportList& mine = imports(u, node(u));
    for (const auto& [id, key] : mine) {
      if (everything_blocked_ || blocked_ids_.contains(id)) return blocked();
      collect_candidates(key);
      // A runnable candidate's summary covers this tuple, so it is in the
      // set and blocks it — found before anyone's imports are collected.
      // Newest first: processes run roughly in spawn order, so the most
      // recently indexed are the likeliest to be runnable still.
      for (auto it = candidates_.rbegin(); it != candidates_.rend(); ++it) {
        if (*it != u && !node(*it).parked) return blocked();
      }
      for (Process* v : candidates_) {
        if (v == u) continue;
        Node& n = node(v);
        if (n.set == set) continue;
        // An import-all process needs u (D holds u's tuple); another
        // parked process needs u iff it imports this very tuple.
        const bool linked =
            v->static_imports.everything || imports_tuple(imports(v, n), id);
        if (linked && !join(v, n)) return blocked();
      }
    }
  }
  std::sort(members.begin(), members.end(), by_pid);
  return true;
}

ConsensusManager::ConsensusManager(Engine& engine, Scheduler& scheduler)
    : engine_(engine), scheduler_(scheduler) {
  engine_.waits().set_commit_listener(this);
}

ConsensusManager::~ConsensusManager() {
  engine_.waits().set_commit_listener(nullptr);
}

// ------------------------------------------------------ seeds and index

void ConsensusManager::on_spawn(Process& p) {
  const ImportSummary& s = p.static_imports;
  std::scoped_lock lock(mutex_);
  if (s.everything) {
    index_.everything.push_back(&p);
    return;
  }
  for (const IndexKey& k : s.keys) {
    index_.by_key[k].push_back(&p);
    index_.keyed_arity[k.arity].push_back(&p);
  }
  for (std::uint32_t a : s.arities) index_.by_arity[a].push_back(&p);
}

void ConsensusManager::on_retire(const Process& p) {
  const ImportSummary& s = p.static_imports;
  auto drop = [&p](auto& map, const auto& key) {
    auto it = map.find(key);
    if (it == map.end()) return;
    std::erase(it->second, &p);
    if (it->second.empty()) map.erase(it);
  };
  std::scoped_lock lock(mutex_);
  if (s.everything) {
    std::erase(index_.everything, &p);
  } else {
    for (const IndexKey& k : s.keys) {
      drop(index_.by_key, k);
      drop(index_.keyed_arity, k.arity);
    }
    for (std::uint32_t a : s.arities) drop(index_.by_arity, a);
  }
  if (seeding()) seed_neighbours_locked(s);
}

void ConsensusManager::on_park(const Process& p) {
  if (!seeding()) return;
  std::scoped_lock lock(mutex_);
  if (!p.offers.empty()) push_seed_locked(p.pid);
  seed_neighbours_locked(p.static_imports);
}

void ConsensusManager::on_commit(const std::vector<IndexKey>& touched) {
  if (!seeding()) return;
  std::scoped_lock lock(mutex_);
  for (const IndexKey& k : touched) seed_covering_locked(k);
}

void ConsensusManager::push_seed_locked(ProcessId pid) {
  seeds_.push_back(pid);
  if (seeds_.size() >= compact_at_) {
    std::sort(seeds_.begin(), seeds_.end());
    seeds_.erase(std::unique(seeds_.begin(), seeds_.end()), seeds_.end());
    compact_at_ = 2 * seeds_.size() + 64;
  }
}

void ConsensusManager::seed_covering_locked(const IndexKey& key) {
  if (auto it = index_.by_key.find(key); it != index_.by_key.end()) {
    for (const Process* v : it->second) push_seed_locked(v->pid);
  }
  if (auto it = index_.by_arity.find(key.arity); it != index_.by_arity.end()) {
    for (const Process* v : it->second) push_seed_locked(v->pid);
  }
  if (!index_.everything.empty()) seed_everything_ = true;
}

void ConsensusManager::seed_neighbours_locked(const ImportSummary& summary) {
  if (summary.everything) {
    seed_all_ = true;
    return;
  }
  for (const IndexKey& k : summary.keys) seed_covering_locked(k);
  for (std::uint32_t a : summary.arities) {
    for (const auto* map : {&index_.keyed_arity, &index_.by_arity}) {
      if (auto it = map->find(a); it != map->end()) {
        for (const Process* v : it->second) push_seed_locked(v->pid);
      }
    }
    if (!index_.everything.empty()) seed_everything_ = true;
  }
}

std::vector<Process*> ConsensusManager::take_seeds(
    const Scheduler::Society& society) {
  std::vector<Process*> seeds;
  {
    std::scoped_lock lock(mutex_);
    if (seed_all_) {
      seeds.reserve(society.size());
      for (const auto& [pid, p] : society) seeds.push_back(p.get());
    } else {
      seeds.reserve(seeds_.size());
      for (ProcessId pid : seeds_) {
        if (auto it = society.find(pid); it != society.end()) {
          seeds.push_back(it->second.get());
        }
      }
      if (seed_everything_) {
        seeds.insert(seeds.end(), index_.everything.begin(),
                     index_.everything.end());
      }
    }
    seeds_.clear();
    compact_at_ = 64;
    seed_all_ = false;
    seed_everything_ = false;
  }
  std::sort(seeds.begin(), seeds.end(), by_pid);
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

// ------------------------------------------------------------ detection

void ConsensusManager::notify() {
  dirty_.store(true, std::memory_order_release);
  while (!sweeping_.exchange(true, std::memory_order_acq_rel)) {
    while (dirty_.exchange(false, std::memory_order_acq_rel)) {
      while (detect_once()) {
      }
      if (observer_ != nullptr) {
        engine_.exclusive([this]() -> std::vector<IndexKey> {
          scheduler_.with_society([this](const Scheduler::Society& society) {
            observer_->on_quiet(society);
          });
          return {};
        });
      }
    }
    sweeping_.store(false, std::memory_order_release);
    if (!dirty_.load(std::memory_order_acquire)) break;
  }
}

bool ConsensusManager::detect_once() {
  sweeps_.fetch_add(1, std::memory_order_relaxed);
  {
    std::scoped_lock lock(mutex_);
    if (seeds_.empty() && !seed_everything_ && !seed_all_) return false;
  }
  bool fired_any = false;
  bool injected_abort = false;

  // The composite commits return every member's touched keys — with heavy
  // duplication when members share buckets — in one list; exclusive()
  // hands it to WaitSet::publish_batch, which dedupes keys and wakes each
  // affected subscriber exactly once for the whole pass.
  engine_.exclusive([&]() -> std::vector<IndexKey> {
    std::vector<IndexKey> touched;
    scheduler_.with_society([&](const Scheduler::Society& society) {
      const std::vector<Process*> seeds = take_seeds(society);
      // Grow every set from the pre-state first, then fire them in turn,
      // each evaluated against the dataspace the earlier fires left.
      Pass pass(index_, society, engine_.space(), engine_.functions());
      std::vector<std::vector<Process*>> ready_sets;
      std::vector<Process*> members;
      for (Process* seed : seeds) {
        if (pass.grow(seed, members)) ready_sets.push_back(members);
      }
      nodes_visited_.fetch_add(pass.visited(), std::memory_order_relaxed);
      if (observer_ != nullptr) {
        for (const std::vector<Process*>& set : ready_sets) {
          observer_->on_fire(society, set);
        }
      }
      for (const std::vector<Process*>& set : ready_sets) {
        switch (fire(set, touched)) {
          case FireResult::Fired:
            fired_any = true;
            break;
          case FireResult::Aborted:
            injected_abort = true;
            break;
          case FireResult::Reverted:
            break;
        }
      }
    });
    return touched;
  });

  // An injected abort left a fireable set un-fired and re-seeded: report
  // progress so notify() runs another pass (the decision stream has
  // advanced, so a bounded or probabilistic fault eventually lets the
  // fire through).
  return fired_any || injected_abort;
}

ConsensusManager::FireResult ConsensusManager::fire(
    const std::vector<Process*>& members, std::vector<IndexKey>& touched) {
  Dataspace& space = engine_.space();
  const FunctionRegistry* fns = engine_.functions();

  // Claim-to-fire span: from the first member claim to the last member
  // resumed + the composite WAL record logged. Recorded only for sets
  // that actually fire (reverts and injected aborts are not fires).
  obs::RuntimeMetrics* const obs_m =
      (metrics_ != nullptr && obs::enabled()) ? metrics_ : nullptr;
  const std::uint64_t t_claim0 = obs_m != nullptr ? obs::now_ns() : 0;

  // ---- 1. Claim members, taking a copy of each one's offers. ----
  std::vector<Process*> claimed;
  std::vector<std::vector<ConsensusOffer>> offers;
  claimed.reserve(members.size());
  offers.reserve(members.size());
  for (Process* p : members) {
    std::scoped_lock state_lock(p->state_mutex);
    if (p->state != RunState::Parked || p->offers.empty()) break;
    p->state = RunState::Claimed;
    claimed.push_back(p);
    offers.push_back(p->offers);
  }

  // Returns every claimed member to Parked (or Ready, if a wake arrived
  // while it was claimed). `reseed` makes the next pass look at the set
  // again.
  auto revert = [&](bool reseed) {
    for (Process* p : claimed) {
      bool enqueue = false;
      {
        std::scoped_lock state_lock(p->state_mutex);
        if (p->pending_wake) {
          p->pending_wake = false;
          p->state = RunState::Ready;
          enqueue = true;
        } else {
          p->state = RunState::Parked;
        }
      }
      if (enqueue) scheduler_.enqueue_ready(p->pid);
    }
    if (reseed) {
      std::scoped_lock lock(mutex_);
      for (const Process* p : members) push_seed_locked(p->pid);
    }
  };

  if (claimed.size() != members.size()) {
    revert(/*reseed=*/true);
    return FireResult::Reverted;
  }

  // Injection point: every member is Claimed, offers not yet evaluated.
  // FailCommit aborts through the same revert path a lost claim race
  // takes — members return to Parked with offers intact and are seeded
  // again, proving an abort here cannot wedge the set.
  if (faults_ != nullptr) {
    switch (faults_->decide(FaultPoint::ConsensusClaim)) {
      case FaultAction::Delay:
        faults_->delay();
        break;
      case FaultAction::FailCommit:
        injected_aborts_.fetch_add(1, std::memory_order_relaxed);
        revert(/*reseed=*/true);
        return FireResult::Aborted;
      default:
        break;
    }
  }

  // ---- 2. Evaluate every member's offers against the pre-state. ----
  // A member without a satisfiable offer reverts the set unseeded: only a
  // commit into some member's window can change that, and such a commit
  // seeds the member.
  std::vector<MemberPlan> plans;
  plans.reserve(claimed.size());
  for (std::size_t mi = 0; mi < claimed.size(); ++mi) {
    Process* p = claimed[mi];
    MemberPlan plan;
    plan.p = p;
    for (const ConsensusOffer& offer : offers[mi]) {
      QueryOutcome outcome;
      if (p->view_ptr() != nullptr && !p->view_ptr()->imports_everything()) {
        const WindowSource window(space, *p->view_ptr(), p->env, fns, obs_m);
        outcome = offer.txn->query.evaluate(window, p->env, fns);
      } else {
        const DataspaceSource source(space);
        outcome = offer.txn->query.evaluate(source, p->env, fns);
      }
      if (outcome.success) {
        plan.ok = true;
        plan.txn = offer.txn;
        plan.branch = offer.branch;
        plan.outcome = std::move(outcome);
        break;
      }
    }
    if (!plan.ok) {
      revert(/*reseed=*/false);
      return FireResult::Reverted;
    }
    plans.push_back(std::move(plan));
  }

  // Injection point: offers evaluated and satisfiable, composite effects
  // not yet applied — the last instant an abort is still effect-free.
  // FailCommit here must leave the dataspace untouched (nothing below has
  // run) and the members re-parked.
  if (faults_ != nullptr) {
    switch (faults_->decide(FaultPoint::ConsensusCommit)) {
      case FaultAction::Delay:
        faults_->delay();
        break;
      case FaultAction::FailCommit:
        injected_aborts_.fetch_add(1, std::memory_order_relaxed);
        revert(/*reseed=*/true);
        return FireResult::Aborted;
      default:
        break;
    }
  }

  // ---- 3. Composite commit: materialize every member's assertions
  //         against the common pre-state, then all retractions, then all
  //         additions (§2.2's composite rule; materializing first keeps a
  //         throwing field expression from leaving partial effects). ----
  std::vector<std::vector<Tuple>> to_insert(plans.size());
  for (std::size_t pi = 0; pi < plans.size(); ++pi) {
    const MemberPlan& plan = plans[pi];
    Process* p = plan.p;
    for (const QueryMatch& m : plan.outcome.matches) {
      for (const AssertTemplate& a : plan.txn->asserts) {
        std::vector<Value> fields;
        fields.reserve(a.fields.size());
        for (const ExprPtr& fexpr : a.fields) {
          fields.push_back(fexpr->eval(m.binding, fns));
        }
        Tuple t(std::move(fields));
        if (p->view_ptr() != nullptr && !p->view_ptr()->exports_everything()) {
          Env scratch = m.binding;
          if (!p->view_ptr()->exports_tuple(t, scratch, fns)) continue;
        }
        to_insert[pi].push_back(std::move(t));
      }
    }
  }
  // WAL: a consensus fire is ONE atomic record — every member's
  // retractions and assertions under the common fire ordinal, logged
  // below while total exclusion is still held. Recovery replays the
  // record atomically, preserving the composite's all-or-nothing
  // semantics across a crash.
  persist::PersistManager* wal = engine_.persist();
  Engine::DurableEffects durable;
  std::unordered_set<TupleId> retracted;
  for (const MemberPlan& plan : plans) {
    for (const QueryMatch& m : plan.outcome.matches) {
      for (const auto& [key, id] : m.retract) {
        if (!retracted.insert(id).second) continue;
        if (space.erase(key, id) && wal != nullptr) {
          durable.retracts.push_back(id);
        }
        touched.push_back(key);
      }
    }
  }
  // Event log: every member's commit carries the same nonzero fire
  // ordinal and the whole fire is appended as one contiguous block under
  // exclusive() — before any member resumes, so none of their later
  // events can land inside it. The checker replays the block as one
  // atomic composite. Per-member retract sets record the member's
  // *intent*; the composite dedupe is the checker's to reapply.
  EventLog* log = engine_.event_log();
  const std::uint64_t fire_id = fires_.load(std::memory_order_relaxed) + 1;
  std::vector<TxnResult> results(plans.size());
  std::vector<Event> fire_events;
  for (std::size_t pi = 0; pi < plans.size(); ++pi) {
    MemberPlan& plan = plans[pi];
    Process* p = plan.p;
    TxnResult& result = results[pi];
    result.success = true;
    for (Tuple& t : to_insert[pi]) {
      const IndexKey key = IndexKey::of(t);
      Tuple wal_copy;
      if (wal != nullptr) wal_copy = t;
      const TupleId id = space.insert(std::move(t), p->pid);
      result.asserted.push_back(id);
      if (wal != nullptr) durable.asserts.emplace_back(id, std::move(wal_copy));
      touched.push_back(key);
    }
    if (log != nullptr) {
      Event e;
      e.pid = p->pid;
      e.label = plan.txn->to_string();
      e.consensus_fire = fire_id;
      e.asserts = result.asserted;
      for (const QueryMatch& m : plan.outcome.matches) {
        e.reads.insert(e.reads.end(), m.reads.begin(), m.reads.end());
        for (const auto& [key, id] : m.retract) {
          (void)key;
          e.retracts.push_back(id);
        }
      }
      fire_events.push_back(std::move(e));
    }
    result.matches = std::move(plan.outcome.matches);
  }
  if (log != nullptr) log->record_fire(std::move(fire_events));

  // ---- 4. Resume every member with its result. ----
  for (std::size_t pi = 0; pi < plans.size(); ++pi) {
    Process* p = plans[pi].p;
    {
      std::scoped_lock state_lock(p->state_mutex);
      p->consensus_result =
          ConsensusResult{plans[pi].branch, std::move(results[pi])};
      p->state = RunState::Ready;
      p->pending_wake = false;
    }
    scheduler_.enqueue_ready(p->pid);
  }
  if (wal != nullptr && (!durable.retracts.empty() || !durable.asserts.empty())) {
    wal->log_commit(kEnvironmentProcess, fire_id, durable.retracts,
                    durable.asserts);
  }
  fires_.fetch_add(1, std::memory_order_relaxed);
  if (obs_m != nullptr) {
    obs_m->consensus_claim_fire_ns->record(obs::now_ns() - t_claim0);
  }
  return FireResult::Fired;
}

}  // namespace sdl
