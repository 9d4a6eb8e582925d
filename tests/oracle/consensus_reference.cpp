#include "oracle/consensus_reference.hpp"

#include <algorithm>
#include <unordered_map>

namespace sdl::oracle {
namespace {

/// Union-find over node indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

struct Node {
  Process* p = nullptr;
  bool parked = false;      // stable environment; exact imports below
  bool ready = false;       // parked with at least one consensus offer
  bool everything = false;  // Import(p) ⊇ D (import-all view, parked)
  std::vector<std::pair<TupleId, IndexKey>> imports;  // exact (parked only)
};

std::string pids(const std::vector<ProcessId>& v) {
  std::string out = "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out + "}";
}

}  // namespace

std::vector<std::vector<ProcessId>> ready_components(
    const Dataspace& space, const FunctionRegistry* fns,
    const Scheduler::Society& society) {
  // ---- 1. Nodes: snapshot states, gather exact import sets. ----
  std::vector<Node> nodes;
  nodes.reserve(society.size());
  for (const auto& [pid, owned] : society) {
    Node n;
    n.p = owned.get();
    std::scoped_lock state_lock(n.p->state_mutex);
    n.parked = n.p->state == RunState::Parked;
    n.ready = n.parked && !n.p->offers.empty();
    nodes.push_back(std::move(n));
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const Node& a, const Node& b) { return a.p->pid < b.p->pid; });
  const bool space_nonempty = space.size() > 0;
  for (Node& n : nodes) {
    if (!n.parked) continue;  // runnable: its bucket summary is used instead
    const View* view = n.p->view_ptr();
    if (view == nullptr || view->imports_everything()) {
      n.everything = true;
    } else {
      view->collect_import_records(space, n.p->env, fns, n.imports);
    }
  }

  // ---- 2. Needs-graph connected components. ----
  UnionFind uf(nodes.size());
  // exact–exact: two parked processes sharing a tuple instance.
  std::unordered_map<TupleId, std::size_t> owner_of;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].parked || nodes[i].everything) continue;
    for (const auto& [id, key] : nodes[i].imports) {
      auto [it, inserted] = owner_of.emplace(id, i);
      if (!inserted) uf.unite(i, it->second);
    }
  }
  // Import-all processes overlap each other and every process with a
  // nonempty import ∩ D, provided D itself is nonempty.
  if (space_nonempty) {
    auto coverage_nonempty = [&space](const ImportSummary& s) {
      bool nonempty = false;
      auto any = [&nonempty](const Record&) {
        nonempty = true;
        return false;
      };
      for (const IndexKey& k : s.keys) {
        if (!nonempty) space.scan_key(k, any);
      }
      for (std::uint32_t a : s.arities) {
        if (!nonempty) space.scan_arity(a, any);
      }
      return nonempty;
    };
    std::size_t first = nodes.size();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const bool everything_like =
          (nodes[i].parked && nodes[i].everything) ||
          (!nodes[i].parked && nodes[i].p->static_imports.everything);
      if (!everything_like) continue;
      if (first == nodes.size()) {
        first = i;
      } else {
        uf.unite(i, first);
      }
    }
    if (first != nodes.size()) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (i == first) continue;
        if (nodes[i].parked && !nodes[i].everything) {
          if (!nodes[i].imports.empty()) uf.unite(i, first);
        } else if (!nodes[i].parked &&
                   !nodes[i].p->static_imports.everything &&
                   coverage_nonempty(nodes[i].p->static_imports)) {
          uf.unite(i, first);
        }
      }
    }
  }
  // exact–conservative: a parked process's imported tuple falls in a
  // runnable process's bucket summary.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].parked || nodes[i].everything) continue;
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (nodes[j].parked) continue;
      const ImportSummary& summary = nodes[j].p->static_imports;
      if (summary.everything) continue;  // handled above
      for (const auto& [id, key] : nodes[i].imports) {
        if (summary.may_cover(key)) {
          uf.unite(i, j);
          break;
        }
      }
    }
  }

  // ---- 3. Components whose every member is ready. ----
  std::unordered_map<std::size_t, std::vector<std::size_t>> components;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    components[uf.find(i)].push_back(i);
  }
  std::vector<std::vector<ProcessId>> out;
  for (const auto& [root, members] : components) {
    if (!std::all_of(members.begin(), members.end(),
                     [&](std::size_t i) { return nodes[i].ready; })) {
      continue;
    }
    std::vector<ProcessId> set;
    for (std::size_t i : members) set.push_back(nodes[i].p->pid);
    std::sort(set.begin(), set.end());
    out.push_back(std::move(set));
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool satisfiable(const Dataspace& space, const FunctionRegistry* fns,
                 const Scheduler::Society& society,
                 const std::vector<ProcessId>& members) {
  for (ProcessId pid : members) {
    Process* p = society.at(pid).get();
    std::vector<ConsensusOffer> offers;
    {
      std::scoped_lock state_lock(p->state_mutex);
      offers = p->offers;
    }
    bool ok = false;
    for (const ConsensusOffer& offer : offers) {
      QueryOutcome outcome;
      if (p->view_ptr() != nullptr && !p->view_ptr()->imports_everything()) {
        const WindowSource window(space, *p->view_ptr(), p->env, fns);
        outcome = offer.txn->query.evaluate(window, p->env, fns);
      } else {
        const DataspaceSource source(space);
        outcome = offer.txn->query.evaluate(source, p->env, fns);
      }
      if (outcome.success) {
        ok = true;
        break;
      }
    }
    if (!ok) return false;
  }
  return true;
}

void ConsensusOracle::attach(Runtime& rt) {
  rt_ = &rt;
  divergence_.clear();
  fires_checked_ = 0;
  quiet_checked_ = 0;
  rt.consensus().set_observer(this);
}

void ConsensusOracle::on_fire(const Scheduler::Society& society,
                              const std::vector<Process*>& members) {
  ++fires_checked_;
  std::vector<ProcessId> fired;
  for (const Process* p : members) fired.push_back(p->pid);
  const auto reference =
      ready_components(rt_->space(), &rt_->functions(), society);
  if (std::find(reference.begin(), reference.end(), fired) == reference.end()) {
    std::string sets;
    for (const auto& s : reference) sets += " " + pids(s);
    diverge("fired " + pids(fired) +
            ", which is no all-ready reference component; reference:" +
            (sets.empty() ? std::string(" none") : sets));
  }
}

void ConsensusOracle::on_quiet(const Scheduler::Society& society) {
  if (!rt_->scheduler().deterministic()) return;
  check_nothing_fireable(society, "at a quiet point");
}

void ConsensusOracle::check_quiescent() {
  rt_->engine().exclusive([this]() -> std::vector<IndexKey> {
    rt_->scheduler().with_society([this](const Scheduler::Society& society) {
      check_nothing_fireable(society, "after the run");
    });
    return {};
  });
}

void ConsensusOracle::check_nothing_fireable(const Scheduler::Society& society,
                                             const char* where) {
  ++quiet_checked_;
  for (const auto& set :
       ready_components(rt_->space(), &rt_->functions(), society)) {
    if (satisfiable(rt_->space(), &rt_->functions(), society, set)) {
      diverge(std::string("reference would fire ") + pids(set) + " " + where);
      return;
    }
  }
}

void ConsensusOracle::diverge(std::string what) {
  if (divergence_.empty()) divergence_ = std::move(what);
}

sim::BuildFn SweepOracle::build(sim::BuildFn inner) {
  return [this, inner = std::move(inner)](std::int64_t seed) {
    std::unique_ptr<Runtime> rt = inner(seed);
    oracle_.attach(*rt);
    return rt;
  };
}

sim::CheckFn SweepOracle::check(sim::CheckFn inner) {
  return [this, inner = std::move(inner)](Runtime& rt, const RunReport& report) {
    fires_checked_ += oracle_.fires_checked();
    quiet_checked_ += oracle_.quiet_checked();
    if (!oracle_.divergence().empty()) {
      return "consensus oracle: " + oracle_.divergence();
    }
    return inner ? inner(rt, report) : std::string();
  };
}

}  // namespace sdl::oracle
