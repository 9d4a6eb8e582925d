#include "txn/waitset.hpp"

#include <algorithm>

namespace sdl {

void WaitSet::join(Bucket& bucket, Ticket ticket, Entry& entry) {
  bucket.push_back(Member{ticket, static_cast<std::uint32_t>(entry.pos.size())});
  entry.pos.push_back(bucket.size() - 1);
}

void WaitSet::leave(Bucket& bucket, std::size_t index) {
  if (index + 1 != bucket.size()) {
    const Member moved = bucket.back();
    bucket[index] = moved;
    entries_.at(moved.ticket).pos[moved.slot] = index;
  }
  bucket.pop_back();
}

WaitSet::Ticket WaitSet::subscribe(Interest interest,
                                   std::function<void()> wake) {
  std::scoped_lock lock(mutex_);
  live_subscribers_.fetch_add(1, std::memory_order_release);
  const Ticket ticket = next_ticket_++;
  Entry& entry =
      entries_.emplace(ticket, Entry{std::move(interest), std::move(wake), {}})
          .first->second;
  if (entry.interest.everything) {
    join(all_, ticket, entry);
  } else {
    for (const IndexKey& k : entry.interest.keys) {
      join(by_key_[k], ticket, entry);
    }
    for (std::uint32_t a : entry.interest.arities) {
      join(by_arity_[a], ticket, entry);
    }
  }
  return ticket;
}

void WaitSet::unsubscribe(Ticket ticket) {
  if (ticket == kInvalidTicket) return;
  std::scoped_lock lock(mutex_);
  auto it = entries_.find(ticket);
  if (it == entries_.end()) return;
  const Entry& entry = it->second;
  // Members leave in join order; a member of this same ticket that moves
  // into a vacated index has its pos fixed before its own turn comes.
  std::size_t slot = 0;
  if (entry.interest.everything) {
    leave(all_, entry.pos[slot++]);
  } else {
    for (const IndexKey& k : entry.interest.keys) {
      auto kit = by_key_.find(k);
      leave(kit->second, entry.pos[slot++]);
      if (kit->second.empty()) by_key_.erase(kit);
    }
    for (std::uint32_t a : entry.interest.arities) {
      auto ait = by_arity_.find(a);
      leave(ait->second, entry.pos[slot++]);
      if (ait->second.empty()) by_arity_.erase(ait);
    }
  }
  entries_.erase(it);
  live_subscribers_.fetch_sub(1, std::memory_order_release);
}

void WaitSet::publish(const std::vector<IndexKey>& touched) {
  publish_batch(touched);
}

void WaitSet::publish_batch(std::vector<IndexKey> touched) {
  version_.fetch_add(1, std::memory_order_acq_rel);
  if (listener_ != nullptr) listener_->on_commit(touched);

  // Fast path: no subscribers, nothing to wake. (A subscriber appearing
  // concurrently is safe: the subscribe-then-evaluate discipline means it
  // re-checks the dataspace after subscribing, so this commit cannot be
  // lost — it either sees the commit's effects or a later publish.)
  if (live_subscribers_.load(std::memory_order_acquire) == 0) return;

  bool wake_everyone = false;
  if (faults_ != nullptr) {
    switch (faults_->decide(FaultPoint::WaitSetPublish)) {
      case FaultAction::Delay:
        // Widen the commit→publish window: the committed effects are
        // visible but nobody has been told yet, the exact window the
        // subscribe-first discipline must survive.
        faults_->delay();
        break;
      case FaultAction::SpuriousWake:
        // Escalate this one publish to wake-all: every subscriber gets a
        // wakeup, almost all of them spurious.
        wake_everyone = true;
        break;
      default:
        break;
    }
  }

  // Coalesce: a ForAll retracting N tuples from one bucket, or a composite
  // consensus commit, repeats keys — dedupe before probing the maps so each
  // unique key (and arity) costs one lookup instead of one per occurrence.
  std::sort(touched.begin(), touched.end(),
            [](const IndexKey& a, const IndexKey& b) {
              return a.arity != b.arity ? a.arity < b.arity
                                        : a.head_hash < b.head_hash;
            });
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Collect the wake callbacks under the lock, invoke them after (CP.22).
  std::vector<std::function<void()>> to_wake;
  {
    std::scoped_lock lock(mutex_);
    const bool everyone = wake_everyone || policy() == WakePolicy::WakeAll;
    std::vector<Ticket> tickets;
    if (!everyone) {
      auto collect = [&tickets](const Bucket& bucket) {
        for (const Member& m : bucket) tickets.push_back(m.ticket);
      };
      collect(all_);
      std::uint32_t last_arity = 0;
      bool have_arity = false;
      for (const IndexKey& k : touched) {
        if (auto it = by_key_.find(k); it != by_key_.end()) collect(it->second);
        // touched is sorted by arity: probe by_arity_ once per arity run.
        if (have_arity && k.arity == last_arity) continue;
        last_arity = k.arity;
        have_arity = true;
        if (auto it = by_arity_.find(k.arity); it != by_arity_.end()) {
          collect(it->second);
        }
      }
      // A waiter subscribed to several touched keys is woken once.
      std::sort(tickets.begin(), tickets.end());
      tickets.erase(std::unique(tickets.begin(), tickets.end()), tickets.end());
    }
    if (everyone) {
      to_wake.reserve(entries_.size());
      for (const auto& [ticket, entry] : entries_) to_wake.push_back(entry.wake);
    } else {
      to_wake.reserve(tickets.size());
      for (Ticket t : tickets) {
        auto it = entries_.find(t);
        if (it != entries_.end()) to_wake.push_back(it->second.wake);
      }
    }
  }
  if (faults_ != nullptr && !to_wake.empty() &&
      faults_->decide(FaultPoint::WakeDeliver) == FaultAction::Delay) {
    // Callbacks collected, lock released, not yet invoked: the waiter may
    // already have unsubscribed by the time these run — the stale-wake
    // window that wake() and BlockingWaiter must tolerate.
    faults_->delay();
  }
  wakes_.fetch_add(to_wake.size(), std::memory_order_relaxed);
  for (const auto& wake : to_wake) wake();
}

std::size_t WaitSet::subscriber_count() const {
  std::scoped_lock lock(mutex_);
  return entries_.size();
}

}  // namespace sdl
