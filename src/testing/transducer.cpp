#include "testing/transducer.hpp"

#include <deque>
#include <map>

#include "automata/determinize.hpp"
#include "util/errors.hpp"

namespace relm::testing {

using automata::ByteSet;
using automata::Dfa;
using automata::Edge;
using automata::kEpsilon;
using automata::Nfa;
using automata::StateId;

Fst Fst::identity(const Dfa& language) {
  Fst fst(language.num_symbols());
  for (StateId s = 0; s < language.num_states(); ++s) {
    fst.add_state(language.is_final(s));
  }
  for (StateId s = 0; s < language.num_states(); ++s) {
    for (const Edge& e : language.edges(s)) {
      fst.add_edge(s, e.symbol, e.symbol, e.to);
    }
  }
  fst.set_start(language.start());
  return fst;
}

Fst compose(const Fst& a, const Fst& b) {
  if (a.num_symbols() != b.num_symbols()) {
    throw relm::Error("compose: transducers over different alphabets");
  }
  Fst out(a.num_symbols());
  std::map<std::pair<StateId, StateId>, StateId> ids;
  std::deque<std::pair<StateId, StateId>> work;

  auto intern = [&](StateId qa, StateId qb) {
    auto it = ids.find({qa, qb});
    if (it != ids.end()) return it->second;
    StateId id = out.add_state(a.is_final(qa) && b.is_final(qb));
    ids.emplace(std::make_pair(qa, qb), id);
    work.push_back({qa, qb});
    return id;
  };

  StateId start = intern(a.start(), b.start());
  out.set_start(start);

  while (!work.empty()) {
    auto [qa, qb] = work.front();
    work.pop_front();
    StateId from = ids.at({qa, qb});

    for (const FstEdge& ea : a.edges(qa)) {
      if (ea.out == kEpsilon) {
        // a emits nothing: advance a alone.
        out.add_edge(from, ea.in, kEpsilon, intern(ea.to, qb), ea.weight);
        continue;
      }
      for (const FstEdge& eb : b.edges(qb)) {
        if (eb.in == ea.out) {
          out.add_edge(from, ea.in, eb.out, intern(ea.to, eb.to),
                       ea.weight + eb.weight);
        }
      }
    }
    for (const FstEdge& eb : b.edges(qb)) {
      if (eb.in == kEpsilon) {
        // b consumes nothing: advance b alone.
        out.add_edge(from, kEpsilon, eb.out, intern(qa, eb.to), eb.weight);
      }
    }
  }
  return out;
}

namespace {
Dfa project(const Fst& t, bool output_side) {
  Nfa nfa(t.num_symbols());
  for (StateId s = 0; s < t.num_states(); ++s) nfa.add_state(t.is_final(s));
  for (StateId s = 0; s < t.num_states(); ++s) {
    for (const FstEdge& e : t.edges(s)) {
      nfa.add_edge(s, output_side ? e.out : e.in, e.to);
    }
  }
  nfa.set_start(t.start());
  return automata::minimize(automata::determinize(nfa));
}
}  // namespace

Dfa output_projection(const Fst& t) { return project(t, true); }
Dfa input_projection(const Fst& t) { return project(t, false); }

Dfa apply(const Fst& t, const Dfa& input) {
  return output_projection(compose(Fst::identity(input), t));
}

Fst edit_transducer(int max_edits, const ByteSet& alphabet) {
  if (max_edits < 0) throw relm::Error("edit_transducer: negative distance");
  Fst fst(256);
  for (int e = 0; e <= max_edits; ++e) fst.add_state(true);
  std::vector<unsigned> alpha;
  for (unsigned b = 0; b < 256; ++b) {
    if (alphabet.test(b)) alpha.push_back(b);
  }
  for (int e = 0; e <= max_edits; ++e) {
    for (unsigned c : alpha) {
      fst.add_edge(e, c, c, e);  // copy
      if (e < max_edits) {
        fst.add_edge(e, c, kEpsilon, e + 1);  // deletion
        fst.add_edge(e, kEpsilon, c, e + 1);  // insertion
        for (unsigned d : alpha) {
          if (d != c) fst.add_edge(e, c, d, e + 1);  // substitution
        }
      }
    }
  }
  fst.set_start(0);
  return fst;
}

Fst case_fold_transducer() {
  Fst fst(256);
  StateId s = fst.add_state(true);
  fst.set_start(s);
  ByteSet all = automata::printable_ascii_and_ws();
  for (unsigned c = 0; c < 256; ++c) {
    if (!all.test(c)) continue;
    fst.add_edge(s, c, c, s);
    if (c >= 'a' && c <= 'z') fst.add_edge(s, c, c - 'a' + 'A', s);
    if (c >= 'A' && c <= 'Z') fst.add_edge(s, c, c - 'A' + 'a', s);
  }
  return fst;
}

Fst replace_transducer(std::string_view from, std::string_view to,
                       const ByteSet& passthrough) {
  if (from.empty()) throw relm::Error("replace_transducer: empty source");
  Fst fst(256);
  StateId home = fst.add_state(true);
  fst.set_start(home);
  for (unsigned c = 0; c < 256; ++c) {
    if (passthrough.test(c)) fst.add_edge(home, c, c, home);
  }
  // Consume `from` while emitting nothing, then emit `to`, then return home.
  StateId cur = home;
  for (char c : from) {
    StateId next = fst.add_state(false);
    fst.add_edge(cur, static_cast<unsigned char>(c), kEpsilon, next);
    cur = next;
  }
  for (char c : to) {
    StateId next = fst.add_state(false);
    fst.add_edge(cur, kEpsilon, static_cast<unsigned char>(c), next);
    cur = next;
  }
  fst.add_edge(cur, kEpsilon, kEpsilon, home);
  return fst;
}

}  // namespace relm::testing
