#include "testing/eager_algebra.hpp"

#include <vector>

#include "automata/determinize.hpp"
#include "automata/ops.hpp"
#include "automata/thompson.hpp"
#include "util/errors.hpp"

namespace relm::testing {

namespace {

using automata::ByteSet;
using automata::Dfa;
using automata::Edge;
using automata::kEpsilon;
using automata::Nfa;
using automata::RegexKind;
using automata::RegexNode;
using automata::StateId;

class EagerCompiler {
 public:
  explicit EagerCompiler(const automata::AlgebraOptions& options)
      : budget_(options.state_budget),
        universe_(automata::printable_ascii_and_ws()) {}

  Dfa eval(const RegexNode& node) {
    if (!automata::has_boolean_ops(node)) {
      return determinized(automata::thompson_construct(node));
    }
    switch (node.kind) {
      case RegexKind::kIntersect: {
        Dfa acc = eval(*node.children.front());
        for (std::size_t i = 1; i < node.children.size(); ++i) {
          acc = charged(automata::intersect(acc, eval(*node.children[i])));
        }
        return acc;
      }
      case RegexKind::kComplement:
        // `~` is universe-restricted: strings outside universe^* are never
        // in a complement, so drop the operand's other edges first.
        return charged(automata::complement(
            restrict_to(eval(*node.children.front()), universe_), universe_));
      case RegexKind::kDifference: {
        // `-` is exact set difference: complement the right side over every
        // symbol either operand uses, so no string of the left is lost.
        Dfa left = eval(*node.children[0]);
        Dfa right = eval(*node.children[1]);
        const ByteSet wide = universe_ | edge_symbols(left) | edge_symbols(right);
        return charged(
            automata::intersect(left, automata::complement(right, wide)));
      }
      default: {
        Nfa nfa(256);
        const Frag whole = glue(nfa, node);
        nfa.set_start(whole.start);
        nfa.set_final(whole.accept);
        return determinized(nfa);
      }
    }
  }

 private:
  struct Frag {
    StateId start;
    StateId accept;
  };

  // A regular operator above boolean subtrees, built like Thompson's
  // construction with each operand's DFA copied in whole.
  Frag glue(Nfa& nfa, const RegexNode& node) {
    if (!automata::has_boolean_ops(node)) return embed(nfa, eval(node));
    switch (node.kind) {
      case RegexKind::kConcat: {
        Frag whole = glue(nfa, *node.children.front());
        for (std::size_t i = 1; i < node.children.size(); ++i) {
          const Frag next = glue(nfa, *node.children[i]);
          nfa.add_edge(whole.accept, kEpsilon, next.start);
          whole.accept = next.accept;
        }
        return whole;
      }
      case RegexKind::kAlternate: {
        const Frag f = fresh(nfa);
        for (const auto& child : node.children) {
          const Frag branch = glue(nfa, *child);
          nfa.add_edge(f.start, kEpsilon, branch.start);
          nfa.add_edge(branch.accept, kEpsilon, f.accept);
        }
        return f;
      }
      case RegexKind::kRepeat: {
        const Dfa child = eval(*node.children.front());
        Frag whole = fresh(nfa);
        nfa.add_edge(whole.start, kEpsilon, whole.accept);
        auto append = [&](Frag next) {
          nfa.add_edge(whole.accept, kEpsilon, next.start);
          whole.accept = next.accept;
        };
        for (int i = 0; i < node.repeat_min; ++i) append(embed(nfa, child));
        const int optional = node.repeat_max == automata::kUnbounded
                                 ? 1
                                 : node.repeat_max - node.repeat_min;
        for (int i = 0; i < optional; ++i) {
          const Frag copy = embed(nfa, child);
          nfa.add_edge(copy.start, kEpsilon, copy.accept);
          if (node.repeat_max == automata::kUnbounded) {
            nfa.add_edge(copy.accept, kEpsilon, copy.start);
          }
          append(copy);
        }
        return whole;
      }
      default:
        break;
    }
    return embed(nfa, eval(node));
  }

  static Frag fresh(Nfa& nfa) { return Frag{nfa.add_state(), nfa.add_state()}; }

  // Copies `dfa` into `nfa`: a fresh start state ε-leads to its start, and
  // each of its final states ε-leads to a fresh accept state.
  static Frag embed(Nfa& nfa, const Dfa& dfa) {
    const Frag f = fresh(nfa);
    std::vector<StateId> remap(dfa.num_states());
    for (StateId s = 0; s < dfa.num_states(); ++s) remap[s] = nfa.add_state();
    for (StateId s = 0; s < dfa.num_states(); ++s) {
      for (const Edge& e : dfa.edges(s)) {
        nfa.add_edge(remap[s], e.symbol, remap[e.to]);
      }
      if (dfa.is_final(s)) nfa.add_edge(remap[s], kEpsilon, f.accept);
    }
    nfa.add_edge(f.start, kEpsilon, remap[dfa.start()]);
    return f;
  }

  Dfa determinized(const Nfa& nfa) {
    // determinize() reads 0 as unlimited, so a spent budget asks for 1.
    const std::size_t remaining =
        budget_ == 0 ? 0 : (budget_ > used_ ? budget_ - used_ : 1);
    return charged(automata::trim(automata::determinize(nfa, remaining)));
  }

  Dfa charged(Dfa dfa) {
    used_ += dfa.num_states();
    if (budget_ != 0 && used_ > budget_) {
      throw relm::StateBudgetError(
          "eager boolean-algebra evaluation exceeded the determinization "
          "state budget",
          budget_);
    }
    return dfa;
  }

  static ByteSet edge_symbols(const Dfa& dfa) {
    ByteSet out;
    for (StateId s = 0; s < dfa.num_states(); ++s) {
      for (const Edge& e : dfa.edges(s)) {
        if (e.symbol < 256) out.set(e.symbol);
      }
    }
    return out;
  }

  static Dfa restrict_to(const Dfa& dfa, const ByteSet& universe) {
    Dfa out(dfa.num_symbols());
    for (StateId s = 0; s < dfa.num_states(); ++s) out.add_state(dfa.is_final(s));
    for (StateId s = 0; s < dfa.num_states(); ++s) {
      for (const Edge& e : dfa.edges(s)) {
        if (e.symbol < 256 && universe.test(e.symbol)) {
          out.add_edge(s, e.symbol, e.to);
        }
      }
    }
    out.set_start(dfa.start());
    return automata::trim(out);
  }

  std::size_t budget_;
  std::size_t used_ = 0;
  ByteSet universe_;
};

}  // namespace

automata::Dfa compile_ast_eager(const automata::RegexNode& root,
                                const automata::AlgebraOptions& options) {
  return EagerCompiler(options).eval(root);
}

}  // namespace relm::testing
