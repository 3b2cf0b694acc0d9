// Binary apply operators, complement-edge ITE, cofactors and evaluation.
//
// Arithmetic operators (ADD realm, plain edges) go through apply_rec;
// logical operators (BDD realm, complement edges) are expressed as ITE:
//   f & g == ite(f, g, 0),  f | g == ite(f, 1, g),  f ^ g == ite(f, !g, g),
// and !f is a bit flip on the edge. ITE triples are canonicalized to the
// CUDD standard triple before the cache is consulted, so equivalent calls
// (e.g. f&g and g&f, or an AND reached via two different De Morgan forms)
// share one cache slot and one recursion.
#include <algorithm>
#include <cmath>

#include "dd/manager.hpp"
#include "support/assert.hpp"
#include "support/error.hpp"

namespace cfpm::dd {

namespace {

bool is_commutative(Op op) noexcept {
  switch (op) {
    case Op::kPlus:
    case Op::kTimes:
    case Op::kMax:
    case Op::kMin:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
      return true;
    case Op::kMinus:
      return false;
  }
  return false;
}

[[maybe_unused]] bool is_logical(Op op) noexcept {
  return op == Op::kAnd || op == Op::kOr || op == Op::kXor;
}

}  // namespace

double DdManager::apply_terminal(Op op, double a, double b) {
  switch (op) {
    case Op::kPlus:
      return a + b;
    case Op::kMinus:
      return a - b;
    case Op::kTimes:
      return a * b;
    case Op::kMax:
      return std::max(a, b);
    case Op::kMin:
      return std::min(a, b);
    case Op::kAnd:
      return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    case Op::kOr:
      return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
    case Op::kXor:
      return ((a != 0.0) != (b != 0.0)) ? 1.0 : 0.0;
  }
  CFPM_UNREACHABLE("bad Op");
}

// Operand-level simplifications that avoid recursion entirely. Operands
// are plain ADD edges, so edge comparison is function comparison.
Edge DdManager::apply_shortcut(Op op, Edge f, Edge g) const noexcept {
  const Edge zero = add_zero_;
  const Edge one = one_;
  switch (op) {
    case Op::kPlus:
      if (f == zero) return g;
      if (g == zero) return f;
      break;
    case Op::kMinus:
      if (g == zero) return f;
      break;
    case Op::kTimes:
      if (f == zero || g == zero) return zero;
      if (f == one) return g;
      if (g == one) return f;
      break;
    case Op::kMax:
    case Op::kMin:
      if (f == g) return f;
      break;
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
      break;  // logical operators never reach apply (see ite)
  }
  return kNilEdge;
}

Edge DdManager::apply(Op op, Edge f, Edge g) {
  CFPM_ASSERT(f != kNilEdge && g != kNilEdge);
  CFPM_ASSERT(!is_logical(op));  // logical ops route through ite
  ensure_cache();
  maybe_gc();
  return apply_rec(op, f, g);
}

Edge DdManager::apply_rec(Op op, Edge f, Edge g) {
  CFPM_ASSERT(!edge_complemented(f) && !edge_complemented(g));  // ADD realm
  // Cache canonicity for commutative operators: order by edge value (the
  // arena index is the deterministic tie-break the old node id provided).
  if (is_commutative(op) && f > g) std::swap(f, g);

  if (const Edge s = apply_shortcut(op, f, g); s != kNilEdge) {
    ref_edge(s);
    return s;
  }
  const std::uint32_t fi = edge_index(f);
  const std::uint32_t gi = edge_index(g);
  if (is_terminal_index(fi) && is_terminal_index(gi)) {
    return terminal(apply_terminal(op, value_of(fi), value_of(gi)));
  }
  if (const Edge hit = cache_lookup(static_cast<std::uint32_t>(op), f, g,
                                    kNilEdge);
      hit != kNilEdge) {
    ref_edge(hit);
    return hit;
  }

  const std::uint32_t lf = level_of(f);
  const std::uint32_t lg = level_of(g);
  const std::uint32_t level = std::min(lf, lg);
  const std::uint32_t var = var_at_level_[level];

  // Copy the child edges out before recursing: recursion allocates, and an
  // allocation may relocate the arena.
  const Edge ft = (lf == level) ? nodes_[fi].then_edge : f;
  const Edge fe = (lf == level) ? nodes_[fi].else_edge : f;
  const Edge gt = (lg == level) ? nodes_[gi].then_edge : g;
  const Edge ge = (lg == level) ? nodes_[gi].else_edge : g;

  const Edge t = apply_rec(op, ft, gt);
  Edge e;
  try {
    e = apply_rec(op, fe, ge);
  } catch (...) {
    deref_edge(t);  // keep the manager consistent when the recursion unwinds
    throw;
  }
  const Edge r = make_node(var, t, e);  // consumes t, e (also on throw)
  cache_insert(static_cast<std::uint32_t>(op), f, g, kNilEdge, r);
  return r;
}

Edge DdManager::ite(Edge f, Edge g, Edge h) {
  CFPM_ASSERT(f != kNilEdge && g != kNilEdge && h != kNilEdge);
  ensure_cache();
  maybe_gc();
  return ite_rec(f, g, h);
}

// ITE with standard-triple canonicalization (the CUDD reductions): after
// the rewrites below, equivalent triples — however the caller phrased them
// — present identical (f, g, h, kOpIte) keys to the unified cache.
Edge DdManager::ite_rec(Edge f, Edge g, Edge h) {
  const Edge one = one_;
  const Edge zero = edge_not(one_);

  // Constant selector.
  if (f == one) {
    ref_edge(g);
    return g;
  }
  if (f == zero) {
    ref_edge(h);
    return h;
  }
  // Branches that repeat (or complement) the selector collapse to
  // constants: ite(f, f, h) == ite(f, 1, h), ite(f, !f, h) == ite(f, 0, h),
  // ite(f, g, f) == ite(f, g, 0), ite(f, g, !f) == ite(f, g, 1).
  if (f == g) {
    g = one;
  } else if (f == edge_not(g)) {
    g = zero;
  }
  if (f == h) {
    h = zero;
  } else if (f == edge_not(h)) {
    h = one;
  }
  if (g == h) {
    ref_edge(g);
    return g;
  }
  if (g == one && h == zero) {
    ref_edge(f);
    return f;
  }
  if (g == zero && h == one) {
    ref_edge(f);
    return edge_not(f);
  }

  // Swap rules: when one branch is constant (or the branches complement
  // each other) the triple has an equivalent form with the operands
  // reordered; pick the one whose selector comes first by (level, index)
  // so both spellings share a cache slot.
  auto precedes = [this](Edge a, Edge b) noexcept {
    const std::uint32_t la = level_of(a);
    const std::uint32_t lb = level_of(b);
    return la != lb ? la < lb : edge_regular(a) < edge_regular(b);
  };
  if (g == one) {  // f | h == ite(h, 1, f)
    if (precedes(h, f)) std::swap(f, h);
  } else if (h == zero) {  // f & g == ite(g, f, 0)
    if (precedes(g, f)) std::swap(f, g);
  } else if (h == one) {  // !f | g == ite(!g, !f, 1)
    if (precedes(edge_not(g), f)) {
      const Edge nf = edge_not(f);
      f = edge_not(g);
      g = nf;
    }
  } else if (g == zero) {  // !f & h == ite(!h, 0, !f)
    if (precedes(edge_not(h), f)) {
      const Edge nf = edge_not(f);
      f = edge_not(h);
      h = nf;
    }
  } else if (g == edge_not(h)) {  // f XNOR g == ite(g, f, !f)
    if (precedes(g, f)) {
      const Edge of = f;
      f = g;
      g = of;
      h = edge_not(of);
    }
  }
  // Polarity: an uncomplemented selector (swap the branches), then an
  // uncomplemented then-branch (complement the result instead).
  if (edge_complemented(f)) {
    f = edge_not(f);
    std::swap(g, h);
  }
  bool complement_out = false;
  if (edge_complemented(g)) {
    complement_out = true;
    g = edge_not(g);
    h = edge_not(h);
  }

  if (const Edge hit = cache_lookup(kOpIte, f, g, h); hit != kNilEdge) {
    ref_edge(hit);
    return complement_out ? edge_not(hit) : hit;
  }

  // Decompose on the top variable of the three operands. Cofactoring
  // through a complemented edge complements both children.
  const std::uint32_t level = std::min({level_of(f), level_of(g), level_of(h)});
  const std::uint32_t var = var_at_level_[level];
  auto split = [this, level](Edge x, bool then_side) noexcept {
    if (level_of(x) != level) return x;
    const DdNode& n = nodes_[edge_index(x)];
    return (then_side ? n.then_edge : n.else_edge) ^ (x & 1u);
  };
  const Edge t = ite_rec(split(f, true), split(g, true), split(h, true));
  Edge e;
  try {
    e = ite_rec(split(f, false), split(g, false), split(h, false));
  } catch (...) {
    deref_edge(t);
    throw;
  }
  const Edge r = make_node(var, t, e);  // consumes t, e (also on throw)
  cache_insert(kOpIte, f, g, h, r);
  return complement_out ? edge_not(r) : r;
}

Edge DdManager::cofactor_rec(Edge f, std::uint32_t var, bool phase) {
  const std::uint32_t target_level = level_of_var_[var];
  if (level_of(f) > target_level) {
    ref_edge(f);
    return f;
  }
  const std::uint32_t fi = edge_index(f);
  const std::uint32_t fvar = nodes_[fi].var;
  const Edge ft = nodes_[fi].then_edge ^ (f & 1u);
  const Edge fe = nodes_[fi].else_edge ^ (f & 1u);
  if (fvar == var) {
    const Edge r = phase ? ft : fe;
    ref_edge(r);
    return r;
  }
  const Edge t = cofactor_rec(ft, var, phase);
  Edge e;
  try {
    e = cofactor_rec(fe, var, phase);
  } catch (...) {
    deref_edge(t);
    throw;
  }
  return make_node(fvar, t, e);  // consumes t, e (also on throw)
}

// ---------------------------------------------------------------------------
// BDD -> ADD conversion. The complement-edge form and the plain 0/1 ADD
// form of the same function are different diagrams, so this is a memoized
// rebuild: an edge's parity decides whether the 1-leaf underneath means
// 1.0 or 0.0.
// ---------------------------------------------------------------------------

Edge DdManager::bdd_to_add(Edge f) {
  maybe_gc();
  std::unordered_map<Edge, Edge> memo;
  return bdd_to_add_rec(f, memo);
}

Edge DdManager::bdd_to_add_rec(Edge f, std::unordered_map<Edge, Edge>& memo) {
  const std::uint32_t fi = edge_index(f);
  if (is_terminal_index(fi)) {
    const bool truth = (value_of(fi) != 0.0) != edge_complemented(f);
    return terminal(truth ? 1.0 : 0.0);
  }
  if (const auto it = memo.find(f); it != memo.end()) {
    // Memoized results stay live: each is referenced by a parent inside
    // the growing result DAG (or by the recursion stack).
    ref_edge(it->second);
    return it->second;
  }
  const std::uint32_t fvar = nodes_[fi].var;
  const Edge ft = nodes_[fi].then_edge ^ (f & 1u);
  const Edge fe = nodes_[fi].else_edge ^ (f & 1u);
  const Edge t = bdd_to_add_rec(ft, memo);
  Edge e;
  try {
    e = bdd_to_add_rec(fe, memo);
  } catch (...) {
    deref_edge(t);
    throw;
  }
  const Edge r = make_node(fvar, t, e);  // consumes t, e (also on throw)
  memo.emplace(f, r);
  return r;
}

// ---------------------------------------------------------------------------
// Bdd operators.
// ---------------------------------------------------------------------------

namespace {

DdManager* common_manager(const DdHandle& a, const DdHandle& b) {
  CFPM_REQUIRE(!a.is_null() && !b.is_null());
  CFPM_REQUIRE(a.manager() == b.manager());
  return a.manager();
}

}  // namespace

Bdd Bdd::operator&(const Bdd& other) const {
  DdManager* m = common_manager(*this, other);
  return Bdd(m, m->ite(edge_, other.edge_, edge_not(m->one_)));
}

Bdd Bdd::operator|(const Bdd& other) const {
  DdManager* m = common_manager(*this, other);
  return Bdd(m, m->ite(edge_, m->one_, other.edge_));
}

Bdd Bdd::operator^(const Bdd& other) const {
  DdManager* m = common_manager(*this, other);
  return Bdd(m, m->ite(edge_, edge_not(other.edge_), other.edge_));
}

Bdd Bdd::operator!() const {
  CFPM_REQUIRE(!is_null());
  mgr_->ref_edge(edge_);
  return Bdd(mgr_, edge_not(edge_));
}

Bdd Bdd::ite(const Bdd& t, const Bdd& e) const {
  DdManager* m = common_manager(*this, t);
  CFPM_REQUIRE(e.manager() == m);
  return Bdd(m, m->ite(edge_, t.edge_, e.edge_));
}

Bdd Bdd::cofactor(std::uint32_t var, bool phase) const {
  CFPM_REQUIRE(!is_null());
  CFPM_REQUIRE(var < mgr_->num_vars());
  return Bdd(mgr_, mgr_->cofactor_rec(edge_, var, phase));
}

bool Bdd::is_zero() const noexcept {
  return edge_ != kNilEdge && edge_ == edge_not(mgr_->one_);
}

bool Bdd::is_one() const noexcept {
  return edge_ != kNilEdge && edge_ == mgr_->one_;
}

bool Bdd::eval(std::span<const std::uint8_t> assignment) const {
  CFPM_REQUIRE(!is_null());
  Edge e = edge_;
  while (!mgr_->is_terminal_index(edge_index(e))) {
    const DdNode& n = mgr_->nodes_[edge_index(e)];
    CFPM_REQUIRE(n.var < assignment.size());
    e = (assignment[n.var] ? n.then_edge : n.else_edge) ^ (e & 1u);
  }
  const bool truth = mgr_->value_of(edge_index(e)) != 0.0;
  return truth != edge_complemented(e);
}

// ---------------------------------------------------------------------------
// Add operators.
// ---------------------------------------------------------------------------

Add::Add(const Bdd& b) {
  CFPM_REQUIRE(!b.is_null());
  mgr_ = b.manager();
  edge_ = mgr_->bdd_to_add(b.edge_);
}

Add Add::operator+(const Add& other) const {
  DdManager* m = common_manager(*this, other);
  return Add(m, m->apply(Op::kPlus, edge_, other.edge_));
}

Add Add::operator-(const Add& other) const {
  DdManager* m = common_manager(*this, other);
  return Add(m, m->apply(Op::kMinus, edge_, other.edge_));
}

Add Add::operator*(const Add& other) const {
  DdManager* m = common_manager(*this, other);
  return Add(m, m->apply(Op::kTimes, edge_, other.edge_));
}

Add Add::times(double constant) const {
  CFPM_REQUIRE(!is_null());
  Add c = mgr_->constant(constant);
  return *this * c;
}

Add Add::max(const Add& other) const {
  DdManager* m = common_manager(*this, other);
  return Add(m, m->apply(Op::kMax, edge_, other.edge_));
}

Add Add::min(const Add& other) const {
  DdManager* m = common_manager(*this, other);
  return Add(m, m->apply(Op::kMin, edge_, other.edge_));
}

double Add::eval(std::span<const std::uint8_t> assignment) const {
  CFPM_REQUIRE(!is_null());
  Edge e = edge_;
  while (!mgr_->is_terminal_index(edge_index(e))) {
    const DdNode& n = mgr_->nodes_[edge_index(e)];
    CFPM_REQUIRE(n.var < assignment.size());
    e = assignment[n.var] ? n.then_edge : n.else_edge;
  }
  return mgr_->value_of(edge_index(e));
}

Add Add::cofactor(std::uint32_t var, bool phase) const {
  CFPM_REQUIRE(!is_null());
  CFPM_REQUIRE(var < mgr_->num_vars());
  return Add(mgr_, mgr_->cofactor_rec(edge_, var, phase));
}

double Add::terminal_value() const {
  CFPM_REQUIRE(is_terminal_node());
  return mgr_->value_of(edge_index(edge_));
}

}  // namespace cfpm::dd
