#include "automata/thompson.hpp"

#include <vector>

#include "util/errors.hpp"

namespace relm::automata {
namespace {

struct Fragment {
  StateId start;
  StateId accept;
};

class Builder {
 public:
  explicit Builder(const BooleanCompiler& boolean)
      : boolean_(boolean), nfa_(256) {}

  Nfa build(const RegexNode& root) {
    Fragment frag = emit(root);
    nfa_.set_start(frag.start);
    nfa_.set_final(frag.accept);
    return std::move(nfa_);
  }

 private:
  Fragment fresh() {
    StateId s = nfa_.add_state();
    StateId a = nfa_.add_state();
    return Fragment{s, a};
  }

  Fragment emit(const RegexNode& node) {
    switch (node.kind) {
      case RegexKind::kEmptySet: {
        // Two disconnected states: nothing is accepted.
        return fresh();
      }
      case RegexKind::kEpsilon: {
        Fragment f = fresh();
        nfa_.add_edge(f.start, kEpsilon, f.accept);
        return f;
      }
      case RegexKind::kCharClass: {
        Fragment f = fresh();
        for_each_byte(node.char_class,
                      [&](unsigned b) { nfa_.add_edge(f.start, b, f.accept); });
        return f;
      }
      case RegexKind::kConcat: {
        Fragment whole = emit(*node.children.front());
        for (std::size_t i = 1; i < node.children.size(); ++i) {
          Fragment next = emit(*node.children[i]);
          nfa_.add_edge(whole.accept, kEpsilon, next.start);
          whole.accept = next.accept;
        }
        return whole;
      }
      case RegexKind::kAlternate: {
        Fragment f = fresh();
        for (const auto& child : node.children) {
          Fragment branch = emit(*child);
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
        // Boolean-algebra nodes compile through the product construction in
        // automata/algebra.hpp, which hands in `boolean_`.
        if (!boolean_) {
          throw relm::Error(
              "thompson_construct: boolean-algebra node requires the algebra "
              "compiler (automata/algebra.hpp)");
        }
        return embed(boolean_(node));
    }
    throw relm::Error("unreachable: unknown regex node kind");
  }

  // A copy of `dfa` whose final states lead to the fragment's accept state.
  Fragment embed(const Dfa& dfa) {
    Fragment f = fresh();
    std::vector<StateId> remap(dfa.num_states());
    for (StateId s = 0; s < dfa.num_states(); ++s) remap[s] = nfa_.add_state();
    for (StateId s = 0; s < dfa.num_states(); ++s) {
      for (const Edge& e : dfa.edges(s)) {
        nfa_.add_edge(remap[s], e.symbol, remap[e.to]);
      }
      if (dfa.is_final(s)) nfa_.add_edge(remap[s], kEpsilon, f.accept);
    }
    nfa_.add_edge(f.start, kEpsilon, remap[dfa.start()]);
    return f;
  }

  Fragment emit_repeat(const RegexNode& node) {
    const RegexNode& child = *node.children.front();
    int min = node.repeat_min;
    int max = node.repeat_max;
    if (min == 0 && max == kUnbounded) return emit_star(child);

    Fragment whole{kNoState, kNoState};
    auto append = [&](Fragment next) {
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
      // Optional tail: each extra copy can be skipped.
      for (int i = min; i < max; ++i) {
        Fragment copy = emit(child);
        Fragment opt = fresh();
        nfa_.add_edge(opt.start, kEpsilon, copy.start);
        nfa_.add_edge(copy.accept, kEpsilon, opt.accept);
        nfa_.add_edge(opt.start, kEpsilon, opt.accept);
        append(opt);
      }
    }

    if (whole.start == kNoState) {
      // r{0} == epsilon
      Fragment f = fresh();
      nfa_.add_edge(f.start, kEpsilon, f.accept);
      return f;
    }
    return whole;
  }

  Fragment emit_star(const RegexNode& child) {
    Fragment inner = emit(child);
    Fragment f = fresh();
    nfa_.add_edge(f.start, kEpsilon, inner.start);
    nfa_.add_edge(f.start, kEpsilon, f.accept);
    nfa_.add_edge(inner.accept, kEpsilon, inner.start);
    nfa_.add_edge(inner.accept, kEpsilon, f.accept);
    return f;
  }

  const BooleanCompiler& boolean_;
  Nfa nfa_;
};

}  // namespace

Nfa thompson_construct(const RegexNode& root, const BooleanCompiler& boolean) {
  return Builder(boolean).build(root);
}

}  // namespace relm::automata
