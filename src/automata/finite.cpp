#include "automata/finite.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string_view>

#include "obs/trace.hpp"
#include "util/errors.hpp"

namespace relm::automata {
namespace {

constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > kSaturated - b ? kSaturated : a + b;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  if (((a | b) >> 32) == 0) return a * b;  // no division on the common path
  return a != 0 && b > kSaturated / a ? kSaturated : a * b;
}

// x·y: |x|·|y| strings, each string of x followed by each of y.
FiniteSize concat_size(FiniteSize x, FiniteSize y) {
  return {saturating_mul(x.strings, y.strings),
          saturating_add(saturating_mul(x.bytes, y.strings),
                         saturating_mul(x.strings, y.bytes))};
}

FiniteSize union_size(FiniteSize x, FiniteSize y) {
  return {saturating_add(x.strings, y.strings),
          saturating_add(x.bytes, y.bytes)};
}

using Strings = std::vector<std::string>;

void append(Strings& out, Strings&& more) {
  if (out.empty()) {
    out = std::move(more);
    return;
  }
  out.insert(out.end(), std::make_move_iterator(more.begin()),
             std::make_move_iterator(more.end()));
}

// Replaces `acc` by acc·L(node). A single byte appends in place, so a
// literal costs its length; an alternation extends one copy of `acc` per
// branch.
void extend(Strings& acc, const RegexNode& node) {
  switch (node.kind) {
    case RegexKind::kEpsilon:
      return;
    case RegexKind::kCharClass: {
      if (node.char_class.count() == 1) {
        for_each_byte(node.char_class, [&](unsigned b) {
          for (std::string& s : acc) s.push_back(static_cast<char>(b));
        });
        return;
      }
      Strings out;
      out.reserve(acc.size() * node.char_class.count());
      for (const std::string& s : acc) {
        for_each_byte(node.char_class, [&](unsigned b) {
          std::string& next = out.emplace_back();
          next.reserve(s.size() + 1);
          next.append(s).push_back(static_cast<char>(b));
        });
      }
      acc = std::move(out);
      return;
    }
    case RegexKind::kConcat:
      for (const auto& child : node.children) extend(acc, *child);
      return;
    case RegexKind::kAlternate: {
      Strings out;
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        // The last branch takes `acc` itself.
        Strings branch;
        if (i + 1 < node.children.size()) {
          branch = acc;
        } else {
          branch = std::move(acc);
        }
        extend(branch, *node.children[i]);
        append(out, std::move(branch));
      }
      acc = std::move(out);
      return;
    }
    case RegexKind::kRepeat: {
      // acc·child^k for k = min..max: one more copy of child per round.
      Strings out;
      for (int k = 0; k < node.repeat_max; ++k) {
        if (k >= node.repeat_min) out.insert(out.end(), acc.begin(), acc.end());
        extend(acc, *node.children.front());
      }
      append(out, std::move(acc));
      acc = std::move(out);
      return;
    }
    default:
      throw relm::Error("finite_strings: tree is not finite and boolean-free");
  }
}

Symbol symbol_of(char c) { return static_cast<unsigned char>(c); }
Symbol symbol_of(Symbol s) { return s; }

// Daciuk et al.'s register: every state whose edges are settled, stored once
// as its final bit and its sorted edges in one flat array, behind an
// open-addressed hash set. intern() returns the equal state when there is
// one, so no two registered states accept the same language.
class Register {
 public:
  Register() : slots_(64, kNoState) {}

  StateId intern(bool is_final, std::span<const Edge> edges) {
    const std::uint64_t h = hash(is_final, edges);
    std::size_t slot = h & (slots_.size() - 1);
    for (; slots_[slot] != kNoState; slot = (slot + 1) & (slots_.size() - 1)) {
      const StateId s = slots_[slot];
      if (hashes_[s] == h && final_[s] == is_final &&
          std::ranges::equal(this->edges(s), edges)) {
        return s;
      }
    }
    const auto id = static_cast<StateId>(hashes_.size());
    hashes_.push_back(h);
    final_.push_back(is_final);
    edges_.insert(edges_.end(), edges.begin(), edges.end());
    first_edge_.push_back(edges_.size());
    slots_[slot] = id;
    if (2 * hashes_.size() > slots_.size()) grow();
    return id;
  }

  // The registered states reachable from `root` (all of them), renumbered
  // in BFS order as minimize() numbers them.
  Dfa emit(StateId root, Symbol num_symbols) const {
    std::vector<StateId> remap(hashes_.size(), kNoState);
    std::vector<StateId> order{root};
    remap[root] = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      for (const Edge& e : edges(order[i])) {
        if (remap[e.to] == kNoState) {
          remap[e.to] = static_cast<StateId>(order.size());
          order.push_back(e.to);
        }
      }
    }
    Dfa dfa(num_symbols);
    for (StateId s : order) dfa.add_state(final_[s]);
    for (StateId s : order) {
      for (const Edge& e : edges(s)) dfa.add_edge(remap[s], e.symbol, remap[e.to]);
    }
    dfa.set_start(0);
    return dfa;
  }

 private:
  std::span<const Edge> edges(StateId s) const {
    return std::span<const Edge>(edges_).subspan(
        first_edge_[s], first_edge_[s + 1] - first_edge_[s]);
  }

  static std::uint64_t hash(bool is_final, std::span<const Edge> edges) {
    std::uint64_t h = is_final ? 0x9e3779b97f4a7c15ull : 0x6a09e667f3bcc909ull;
    for (const Edge& e : edges) {
      h = (h ^ e.symbol) * 0xff51afd7ed558ccdull;
      h = (h ^ e.to) * 0xc4ceb9fe1a85ec53ull;
      h ^= h >> 29;
    }
    return h ^ (h >> 32);
  }

  void grow() {
    slots_.assign(2 * slots_.size(), kNoState);
    for (StateId s = 0; s < hashes_.size(); ++s) {
      std::size_t slot = hashes_[s] & (slots_.size() - 1);
      while (slots_[slot] != kNoState) slot = (slot + 1) & (slots_.size() - 1);
      slots_[slot] = s;
    }
  }

  std::vector<std::uint64_t> hashes_;
  std::vector<bool> final_;
  std::vector<std::size_t> first_edge_{0};
  std::vector<Edge> edges_;
  std::vector<StateId> slots_;
};

template <class Seq>
Dfa build_minimal(std::span<const Seq> sorted, Symbol num_symbols) {
  RELM_TRACE_SPAN("automata.minimal_dfa");
  Register reg;
  // The open states: the path of the last sequence added, root first. A
  // state gains an edge only after every state below it is registered, so
  // their edges share one stack: state d's are edges[first[d]..first[d+1])
  // and the deepest's run to the top. Each state's last edge leads to the
  // next one on the path and is kNoState until that one is registered.
  std::vector<Edge> edges;
  std::vector<std::size_t> first{0};
  std::vector<bool> is_final{false};
  auto register_below = [&](std::size_t keep) {
    while (first.size() > keep + 1) {
      const std::size_t d = first.size() - 1;
      const StateId id =
          reg.intern(is_final[d], std::span<const Edge>(edges).subspan(first[d]));
      edges.resize(first[d]);
      first.pop_back();
      is_final.pop_back();
      edges.back().to = id;
    }
  };
  const Seq* prev = nullptr;
  for (const Seq& word : sorted) {
    std::size_t common = 0;
    if (prev != nullptr) {
      const std::size_t n = std::min(prev->size(), word.size());
      while (common < n && (*prev)[common] == word[common]) ++common;
      const bool ascending =
          common < n ? symbol_of((*prev)[common]) < symbol_of(word[common])
                     : prev->size() <= word.size();
      if (!ascending) throw relm::Error("minimal_dfa: input is not sorted");
    }
    register_below(common);
    for (std::size_t i = common; i < word.size(); ++i) {
      edges.push_back(Edge{symbol_of(word[i]), kNoState});
      first.push_back(edges.size());
      is_final.push_back(false);
    }
    is_final.back() = true;
    prev = &word;
  }
  register_below(0);
  return reg.emit(reg.intern(is_final[0], edges), num_symbols);
}

}  // namespace

std::optional<FiniteSize> finite_size(const RegexNode& node) {
  switch (node.kind) {
    case RegexKind::kEpsilon:
      return FiniteSize{1, 0};
    case RegexKind::kCharClass: {
      const std::uint64_t n = node.char_class.count();
      if (n == 0) return std::nullopt;
      return FiniteSize{n, n};
    }
    case RegexKind::kConcat:
    case RegexKind::kAlternate: {
      const bool concat = node.kind == RegexKind::kConcat;
      FiniteSize total = concat ? FiniteSize{1, 0} : FiniteSize{0, 0};
      for (const auto& child : node.children) {
        std::optional<FiniteSize> part = finite_size(*child);
        if (!part) return std::nullopt;
        total = concat ? concat_size(total, *part) : union_size(total, *part);
      }
      return total;
    }
    case RegexKind::kRepeat: {
      if (node.repeat_max == kUnbounded) return std::nullopt;
      std::optional<FiniteSize> child = finite_size(*node.children.front());
      if (!child) return std::nullopt;
      FiniteSize power{1, 0};  // child^k
      FiniteSize total{0, 0};
      for (int k = 0; k <= node.repeat_max; ++k) {
        if (k >= node.repeat_min) total = union_size(total, power);
        if (total.strings == kSaturated && total.bytes == kSaturated) break;
        power = concat_size(power, *child);
      }
      return total;
    }
    default:  // ∅ and the boolean nodes
      return std::nullopt;
  }
}

std::optional<std::vector<std::string>> finite_strings(
    const RegexNode& ast, const std::optional<FiniteSize>& size,
    std::uint64_t limit) {
  if (!size || size->strings > limit) return std::nullopt;
  Strings strings{std::string()};
  extend(strings, ast);
  // A product of sorted sets of equal-length strings (`[a-z]{3}`) comes out
  // sorted already.
  if (std::is_sorted(strings.begin(), strings.end())) {
    strings.erase(std::unique(strings.begin(), strings.end()), strings.end());
    return strings;
  }
  // Views are trivially copyable, so sorting them moves no string; the
  // result is then built in one pass, duplicates skipped.
  std::vector<std::string_view> views(strings.begin(), strings.end());
  std::sort(views.begin(), views.end());
  Strings sorted;
  sorted.reserve(views.size());
  for (const std::string_view view : views) {
    if (sorted.empty() || sorted.back() != view) sorted.emplace_back(view);
  }
  return sorted;
}

Dfa minimal_dfa(std::span<const std::string> sorted) {
  return build_minimal(sorted, 256);
}

Dfa minimal_dfa(std::span<const std::vector<Symbol>> sorted,
                Symbol num_symbols) {
  return build_minimal(sorted, num_symbols);
}

}  // namespace relm::automata
