#include "automata/algebra.hpp"

#include <cstdlib>
#include <deque>
#include <map>
#include <optional>
#include <string>
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
  void charge(std::size_t states,
              const char* construction = "boolean-algebra construction") {
    used += states;
    if (budget != 0 && used > budget) {
      throw relm::StateBudgetError(
          std::string(construction) +
              " exceeded the determinization state budget",
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
  explicit AlgebraCompiler(const AlgebraOptions& options) : opts_(options) {
    meter_.budget = options.state_budget;
  }

  Dfa compile(const RegexNode& root) {
    if (std::optional<std::string> bytes = literal_bytes(root)) {
      return chain(*bytes);
    }
    if (!has_boolean_ops(root)) {
      Nfa nfa = thompson_construct(root);
      Dfa dfa = determinize(nfa, meter_.remaining());
      meter_.charge(dfa.num_states());
      return trim(std::move(dfa));
    }
    static obs::Counter& queries =
        obs::Registry::instance().counter("compile.algebra.queries");
    queries.add();
    if (is_boolean(root)) return compile_boolean(root);
    // Regular operators above boolean subtrees: build an NFA whose leaves
    // embed the boolean results, then determinize the whole thing.
    FragmentBuilder builder(*this);
    auto frag = builder.emit(root);
    Nfa nfa = builder.take(frag);
    Dfa dfa = determinize(nfa, meter_.remaining());
    meter_.charge(dfa.num_states());
    return trim(std::move(dfa));
  }

 private:
  // A literal's minimal DFA: states 0..n in BFS order, byte i from state i
  // to i + 1, final n. Its n + 1 states are charged as subset construction
  // would charge them, so the budget fails exactly where it did for Thompson.
  Dfa chain(const std::string& bytes) {
    meter_.charge(bytes.size() + 1, "literal chain construction");
    Dfa dfa(256);
    dfa.set_start(dfa.add_state(bytes.empty()));
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      StateId next = dfa.add_state(i + 1 == bytes.size());
      dfa.add_edge(next - 1, static_cast<unsigned char>(bytes[i]), next);
    }
    return dfa;
  }

  static bool is_boolean(const RegexNode& node) {
    return node.kind == RegexKind::kIntersect ||
           node.kind == RegexKind::kComplement ||
           node.kind == RegexKind::kDifference;
  }

  // Thompson-style fragment construction that can additionally embed a
  // finished DFA (the result of a nested boolean product) as a leaf.
  class FragmentBuilder {
   public:
    explicit FragmentBuilder(AlgebraCompiler& owner)
        : owner_(owner), nfa_(256) {}

    struct Frag {
      StateId start;
      StateId accept;
    };

    Frag emit(const RegexNode& node) {
      if (AlgebraCompiler::is_boolean(node)) {
        return embed_dfa(owner_.compile_boolean(node));
      }
      switch (node.kind) {
        case RegexKind::kEmptySet:
          return fresh();
        case RegexKind::kEpsilon: {
          Frag f = fresh();
          nfa_.add_edge(f.start, kEpsilon, f.accept);
          return f;
        }
        case RegexKind::kCharClass: {
          Frag f = fresh();
          for_each_byte(node.char_class,
                        [&](unsigned b) { nfa_.add_edge(f.start, b, f.accept); });
          return f;
        }
        case RegexKind::kConcat: {
          Frag whole = emit(*node.children.front());
          for (std::size_t i = 1; i < node.children.size(); ++i) {
            Frag next = emit(*node.children[i]);
            nfa_.add_edge(whole.accept, kEpsilon, next.start);
            whole.accept = next.accept;
          }
          return whole;
        }
        case RegexKind::kAlternate: {
          Frag f = fresh();
          for (const auto& child : node.children) {
            Frag branch = emit(*child);
            nfa_.add_edge(f.start, kEpsilon, branch.start);
            nfa_.add_edge(branch.accept, kEpsilon, f.accept);
          }
          return f;
        }
        case RegexKind::kRepeat:
          return emit_repeat(node);
        case RegexKind::kIntersect:
        case RegexKind::kComplement:
        case RegexKind::kDifference:
          break;  // handled above
      }
      throw relm::Error("unreachable: unknown regex node kind");
    }

    Nfa take(Frag root) {
      nfa_.set_start(root.start);
      nfa_.set_final(root.accept);
      return std::move(nfa_);
    }

   private:
    Frag fresh() {
      StateId s = nfa_.add_state();
      StateId a = nfa_.add_state();
      return Frag{s, a};
    }

    Frag embed_dfa(const Dfa& dfa) {
      Frag f = fresh();
      std::vector<StateId> remap(dfa.num_states());
      for (StateId s = 0; s < dfa.num_states(); ++s) {
        remap[s] = nfa_.add_state();
      }
      for (StateId s = 0; s < dfa.num_states(); ++s) {
        for (const Edge& e : dfa.edges(s)) {
          nfa_.add_edge(remap[s], e.symbol, remap[e.to]);
        }
        if (dfa.is_final(s)) nfa_.add_edge(remap[s], kEpsilon, f.accept);
      }
      nfa_.add_edge(f.start, kEpsilon, remap[dfa.start()]);
      return f;
    }

    Frag emit_repeat(const RegexNode& node) {
      const RegexNode& child = *node.children.front();
      int min = node.repeat_min;
      int max = node.repeat_max;
      if (min == 0 && max == kUnbounded) return emit_star(child);

      Frag whole{kNoState, kNoState};
      auto append = [&](Frag next) {
        if (whole.start == kNoState) {
          whole = next;
        } else {
          nfa_.add_edge(whole.accept, kEpsilon, next.start);
          whole.accept = next.accept;
        }
      };
      for (int i = 0; i < min; ++i) append(emit(child));
      if (max == kUnbounded) {
        append(emit_star(child));
      } else {
        for (int i = min; i < max; ++i) {
          Frag copy = emit(child);
          Frag opt = fresh();
          nfa_.add_edge(opt.start, kEpsilon, copy.start);
          nfa_.add_edge(copy.accept, kEpsilon, opt.accept);
          nfa_.add_edge(opt.start, kEpsilon, opt.accept);
          append(opt);
        }
      }
      if (whole.start == kNoState) {
        Frag f = fresh();
        nfa_.add_edge(f.start, kEpsilon, f.accept);
        return f;
      }
      return whole;
    }

    Frag emit_star(const RegexNode& child) {
      Frag inner = emit(child);
      Frag f = fresh();
      nfa_.add_edge(f.start, kEpsilon, inner.start);
      nfa_.add_edge(f.start, kEpsilon, f.accept);
      nfa_.add_edge(inner.accept, kEpsilon, inner.start);
      nfa_.add_edge(inner.accept, kEpsilon, f.accept);
      return f;
    }

    AlgebraCompiler& owner_;
    Nfa nfa_;
  };

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
        // descendants: either way it becomes one NFA leaf (the fragment
        // builder recurses back into compile_boolean for nested products).
        e.kind = Expr::kLeaf;
        e.leaf = static_cast<int>(leaves.size());
        if (has_boolean_ops(node)) {
          FragmentBuilder builder(*this);
          auto frag = builder.emit(node);
          leaves.push_back(builder.take(frag));
        } else {
          leaves.push_back(thompson_construct(node));
        }
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
    classes.split_set(opts_.universe);
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
        next.in_universe = st.in_universe && opts_.universe.test(rep);
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
        return opts_.universe;
      case Expr::kDiff:
        // If the left side dies the difference rejects every extension, so
        // only its symbols matter; the right side is tracked along them.
        return explore_symbols(exprs, leaves, e.children[0], st);
    }
    throw relm::Error("unreachable: unknown algebra expr kind");
  }

  AlgebraOptions opts_;
  BudgetMeter meter_;
};

}  // namespace

ByteSet AlgebraOptions::kDefaultUniverse() { return printable_ascii_and_ws(); }

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
