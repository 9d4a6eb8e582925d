#include "query/pattern.hpp"

namespace sdl {

void TuplePattern::resolve(SymbolTable& symtab) {
  for (Term& t : terms_) {
    switch (t.kind) {
      case Term::Kind::Var:
        t.slot = symtab.intern(t.name);
        break;
      case Term::Kind::Expr:
        t.expr->resolve(symtab);
        break;
      case Term::Kind::Wildcard:
        break;
    }
  }
}

bool TuplePattern::match(const Tuple& t, Env& env, const FunctionRegistry* fns,
                         std::vector<int>& newly_bound) const {
  if (t.arity() != terms_.size()) return false;
  const std::size_t undo_from = newly_bound.size();
  auto undo = [&] {
    for (std::size_t i = undo_from; i < newly_bound.size(); ++i) {
      env[static_cast<std::size_t>(newly_bound[i])] = Value();
    }
    newly_bound.resize(undo_from);
  };

  for (std::size_t i = 0; i < terms_.size(); ++i) {
    const Term& term = terms_[i];
    const Value& field = t[i];
    switch (term.kind) {
      case Term::Kind::Wildcard:
        break;
      case Term::Kind::Var: {
        Value& bound = env[static_cast<std::size_t>(term.slot)];
        if (bound.is_nil()) {
          bound = field;
          newly_bound.push_back(term.slot);
        } else if (bound != field) {
          undo();
          return false;
        }
        break;
      }
      case Term::Kind::Expr: {
        const std::optional<Value> want = term.expr->try_eval(env, fns);
        if (!want.has_value() || *want != field) {
          undo();
          return false;
        }
        break;
      }
    }
  }
  return true;
}

KeySpec TuplePattern::key_spec(const Env& env, const FunctionRegistry* fns) const {
  KeySpec spec;
  spec.arity = static_cast<std::uint32_t>(terms_.size());
  if (terms_.empty()) {
    spec.kind = KeySpec::Kind::Exact;
    spec.key = IndexKey{0, 0};
    return spec;
  }
  const Term& head = terms_.front();
  switch (head.kind) {
    case Term::Kind::Wildcard:
      break;
    case Term::Kind::Var: {
      const Value& bound = env[static_cast<std::size_t>(head.slot)];
      if (!bound.is_nil()) {
        spec.kind = KeySpec::Kind::Exact;
        spec.key = IndexKey::of_head(terms_.size(), bound);
      }
      break;
    }
    case Term::Kind::Expr: {
      if (const std::optional<Value> v = head.expr->try_eval(env, fns)) {
        spec.kind = KeySpec::Kind::Exact;
        spec.key = IndexKey::of_head(terms_.size(), *v);
      }
      break;
    }
  }
  return spec;
}

std::string TuplePattern::to_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) out += ", ";
    const Term& t = terms_[i];
    switch (t.kind) {
      case Term::Kind::Wildcard: out += "*"; break;
      case Term::Kind::Var: out += t.name; break;
      case Term::Kind::Expr: out += t.expr->to_string(); break;
    }
  }
  out += "]";
  if (retract_) out += "!";
  return out;
}

TuplePattern pat(std::vector<Term> terms) { return TuplePattern(std::move(terms)); }
Term V(const std::string& name) { return Term::variable(name); }
Term W() { return Term::wildcard(); }
Term E(ExprPtr e) { return Term::expression(std::move(e)); }
Term C(Value v) { return Term::constant(std::move(v)); }
Term A(std::string_view spelling) { return Term::constant(Value::atom(spelling)); }

}  // namespace sdl
