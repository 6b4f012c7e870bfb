#include "automata/algebra.hpp"

#include <cstdlib>
#include <deque>
#include <map>
#include <tuple>
#include <vector>

#include "automata/byte_classes.hpp"
#include "automata/determinize.hpp"
#include "automata/thompson.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"

namespace relm::automata {
namespace {

// Cumulative state-budget accounting shared by every sub-construction of
// one compile_ast call.
struct BudgetMeter {
  std::size_t budget = 0;  // 0 = unlimited
  std::size_t used = 0;

  std::size_t remaining() const {
    if (budget == 0) return 0;  // "unlimited" in determinize() terms
    return budget > used ? budget - used : 1;
  }
  void charge(std::size_t states) {
    used += states;
    if (budget != 0 && used > budget) {
      throw relm::StateBudgetError(
          "boolean-algebra construction exceeded the determinization state "
          "budget",
          budget);
    }
  }
};

// The boolean expression tree over NFA leaves that one product construction
// evaluates. Nodes index into AlgebraCompiler::exprs_.
struct Expr {
  enum Kind { kLeaf, kAnd, kNot, kDiff };
  Kind kind;
  std::vector<int> children;  // kAnd: n, kNot: 1, kDiff: 2 (left, right)
  int leaf = -1;              // kLeaf: index into leaves_
};

class AlgebraCompiler {
 public:
  explicit AlgebraCompiler(const AlgebraOptions& options) {
    meter_.budget = options.state_budget;
  }

  Dfa compile(const RegexNode& root) {
    if (has_boolean_ops(root)) {
      static obs::Counter& queries =
          obs::Registry::instance().counter("compile.algebra.queries");
      queries.add();
      if (is_boolean(root)) return compile_boolean(root);
    }
    // Regular operators, with the products of any boolean subtrees embedded
    // in the NFA: one subset construction over the whole tree.
    Dfa dfa = determinize(thompson(root), meter_.remaining());
    meter_.charge(dfa.num_states());
    return trim(std::move(dfa));
  }

 private:
  static bool is_boolean(const RegexNode& node) {
    return node.kind == RegexKind::kIntersect ||
           node.kind == RegexKind::kComplement ||
           node.kind == RegexKind::kDifference;
  }

  // Thompson's NFA of `node`, each boolean subtree compiled by its own
  // product construction and embedded.
  Nfa thompson(const RegexNode& node) {
    return thompson_construct(
        node, [this](const RegexNode& sub) { return compile_boolean(sub); });
  }

  // Flattens a maximal boolean subtree into an expression over NFA leaves
  // and evaluates it with one product construction.
  Dfa compile_boolean(const RegexNode& node) {
    std::vector<Expr> exprs;
    std::vector<Nfa> leaves;
    int root = build_expr(node, exprs, leaves);
    return lazy_product(exprs, leaves, root);
  }

  int build_expr(const RegexNode& node, std::vector<Expr>& exprs,
                 std::vector<Nfa>& leaves) {
    Expr e;
    switch (node.kind) {
      case RegexKind::kIntersect:
        e.kind = Expr::kAnd;
        break;
      case RegexKind::kComplement:
        e.kind = Expr::kNot;
        break;
      case RegexKind::kDifference:
        e.kind = Expr::kDiff;
        break;
      default: {
        // Maximal boolean-free subtree, or a regular operator with boolean
        // descendants: either way it becomes one NFA leaf (Thompson recurses
        // back into compile_boolean for nested products).
        e.kind = Expr::kLeaf;
        e.leaf = static_cast<int>(leaves.size());
        leaves.push_back(thompson(node));
        exprs.push_back(std::move(e));
        return static_cast<int>(exprs.size() - 1);
      }
    }
    for (const auto& child : node.children) {
      e.children.push_back(build_expr(*child, exprs, leaves));
    }
    exprs.push_back(std::move(e));
    return static_cast<int>(exprs.size() - 1);
  }

  // A product state: one epsilon-closed subset per leaf (the empty subset
  // is a valid "dead" value — under complement a dead leaf is accepting),
  // and whether every byte read so far is in the complement universe: `~r`
  // holds only strings over the universe, even where `-` explores its left
  // side's bytes outside it.
  using Subset = std::vector<StateId>;
  struct PState {
    std::vector<Subset> subsets;
    bool in_universe = true;

    friend bool operator<(const PState& a, const PState& b) {
      return std::tie(a.in_universe, a.subsets) <
             std::tie(b.in_universe, b.subsets);
    }
  };

  Dfa lazy_product(const std::vector<Expr>& exprs,
                   const std::vector<Nfa>& leaves, int root) {
    RELM_TRACE_SPAN("automata.algebra.lazy_product");
    static obs::Counter& states = obs::Registry::instance().counter(
        "automata.algebra.lazy_states");

    // Classes split by every leaf's edges and by the universe: each
    // explore_symbols result is then a union of classes, and whether a byte
    // is in the universe is the same across a class.
    ByteClasses classes(256);
    for (const Nfa& leaf : leaves) classes.split_runs(leaf);
    classes.split_set(universe_);
    std::vector<NfaStepper> steppers;
    steppers.reserve(leaves.size());
    for (const Nfa& leaf : leaves) steppers.emplace_back(leaf, classes);

    Dfa out(256);
    std::map<PState, StateId> ids;
    std::deque<const PState*> work;

    auto accepts = [&](const PState& st) { return eval(exprs, leaves, root, st); };

    auto intern = [&](PState st) -> StateId {
      auto it = ids.find(st);
      if (it != ids.end()) return it->second;
      meter_.charge(1);
      states.add();
      StateId id = out.add_state(accepts(st));
      auto [pos, _] = ids.emplace(std::move(st), id);
      work.push_back(&pos->first);
      return id;
    };

    PState start;
    start.subsets.resize(leaves.size());
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const StateId s = leaves[i].start();
      steppers[i].close({&s, 1}, start.subsets[i]);
    }
    out.set_start(intern(std::move(start)));

    // One step per explored class, in order of the classes' smallest bytes:
    // a new product state is interned exactly where a per-byte loop first
    // meets it, so the numbering and the budget match it.
    std::vector<StateId> class_target(classes.size(), kNoState);
    while (!work.empty()) {
      // std::map nodes are stable, so `st` survives the interns below.
      const PState& st = *work.front();
      work.pop_front();
      StateId from = ids.at(st);
      ByteSet syms = explore_symbols(exprs, leaves, root, st);
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        steppers[i].gather(st.subsets[i]);
      }
      for (std::uint32_t c = 1; c < classes.size(); ++c) {
        const Symbol rep = classes.representative(c);
        if (!syms.test(rep)) continue;
        PState next;
        next.subsets.resize(leaves.size());
        for (std::size_t i = 0; i < leaves.size(); ++i) {
          std::span<const StateId> moved = steppers[i].targets(c);
          if (!moved.empty()) steppers[i].close(moved, next.subsets[i]);
        }
        next.in_universe = st.in_universe && universe_.test(rep);
        class_target[c] = intern(std::move(next));
      }
      for (Symbol b : classes.edge_symbols()) {
        if (!syms.test(b)) continue;
        RELM_DCHECK(syms.test(classes.representative(classes.of(b))),
                    "lazy_product: explored bytes must be a union of classes");
        out.add_edge(from, b, class_target[classes.of(b)]);
      }
    }
    return trim(std::move(out));
  }

  bool eval(const std::vector<Expr>& exprs, const std::vector<Nfa>& leaves,
            int node, const PState& st) const {
    const Expr& e = exprs[node];
    switch (e.kind) {
      case Expr::kLeaf: {
        const Nfa& leaf = leaves[e.leaf];
        for (StateId s : st.subsets[e.leaf]) {
          if (leaf.is_final(s)) return true;
        }
        return false;
      }
      case Expr::kAnd:
        for (int c : e.children) {
          if (!eval(exprs, leaves, c, st)) return false;
        }
        return true;
      case Expr::kNot:
        return st.in_universe && !eval(exprs, leaves, e.children[0], st);
      case Expr::kDiff:
        return eval(exprs, leaves, e.children[0], st) &&
               !eval(exprs, leaves, e.children[1], st);
    }
    throw relm::Error("unreachable: unknown algebra expr kind");
  }

  // The symbols worth exploring from a product state: anything outside this
  // set leads to a state from which the expression can never accept (or, for
  // complement, to strings outside universe^* which `~` excludes anyway).
  ByteSet explore_symbols(const std::vector<Expr>& exprs,
                          const std::vector<Nfa>& leaves, int node,
                          const PState& st) const {
    const Expr& e = exprs[node];
    switch (e.kind) {
      case Expr::kLeaf: {
        ByteSet out;
        const Nfa& leaf = leaves[e.leaf];
        for (StateId s : st.subsets[e.leaf]) {
          for (const Edge& edge : leaf.edges(s)) {
            if (edge.symbol != kEpsilon && edge.symbol < 256) {
              out.set(edge.symbol);
            }
          }
        }
        return out;
      }
      case Expr::kAnd: {
        ByteSet out = explore_symbols(exprs, leaves, e.children[0], st);
        for (std::size_t i = 1; i < e.children.size(); ++i) {
          out &= explore_symbols(exprs, leaves, e.children[i], st);
        }
        return out;
      }
      case Expr::kNot:
        return universe_;
      case Expr::kDiff:
        // If the left side dies the difference rejects every extension, so
        // only its symbols matter; the right side is tracked along them.
        return explore_symbols(exprs, leaves, e.children[0], st);
    }
    throw relm::Error("unreachable: unknown algebra expr kind");
  }

  // The complement universe, as `[^...]` has it.
  const ByteSet universe_ = printable_ascii_and_ws();
  BudgetMeter meter_;
};

}  // namespace

Dfa compile_ast(const RegexNode& root, const AlgebraOptions& options) {
  RELM_TRACE_SPAN("automata.algebra.compile");
  return AlgebraCompiler(options).compile(root);
}

std::size_t determinize_budget_from_env() {
  const char* value = std::getenv("RELM_DETERMINIZE_BUDGET");
  if (value == nullptr || *value == '\0') return kDefaultDeterminizeBudget;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') return kDefaultDeterminizeBudget;
  return static_cast<std::size_t>(parsed);  // "0" = unlimited
}

}  // namespace relm::automata
