#include "core/preprocessors.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "automata/determinize.hpp"
#include "automata/finite.hpp"
#include "automata/levenshtein.hpp"
#include "automata/ops.hpp"
#include "automata/regex.hpp"
#include "automata/serialize.hpp"
#include "util/errors.hpp"

namespace relm::core {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace

const char* Preprocessor::target_tag(Target t) {
  switch (t) {
    case Target::kBody: return "body";
    case Target::kPrefix: return "prefix";
    case Target::kBoth: return "both";
  }
  return "?";
}

LevenshteinPreprocessor::LevenshteinPreprocessor(int distance, Target target,
                                                 automata::ByteSet alphabet)
    : distance_(distance), target_(target), alphabet_(alphabet) {
  if (distance < 0) throw relm::QueryError("Levenshtein distance must be >= 0");
}

automata::Dfa LevenshteinPreprocessor::apply(const automata::Dfa& language) const {
  return automata::levenshtein_expand(language, distance_, alphabet_);
}

std::string LevenshteinPreprocessor::name() const {
  return "levenshtein(" + std::to_string(distance_) + ")";
}

std::string LevenshteinPreprocessor::cache_key() const {
  // The alphabet participates: distance-1 over digits and distance-1 over
  // printable ASCII are different rewrites.
  std::uint64_t alpha_hash = 0xcbf29ce484222325ull;
  for (std::size_t c = 0; c < alphabet_.size(); ++c) {
    alpha_hash = (alpha_hash ^ (alphabet_[c] ? 0x31u : 0x30u)) * 0x100000001b3ull;
  }
  return "levenshtein:d=" + std::to_string(distance_) + ":t=" +
         target_tag(target_) + ":a=" + hex64(alpha_hash);
}

namespace {

automata::Dfa union_of_literals(std::vector<std::string> strings) {
  std::sort(strings.begin(), strings.end());
  return automata::minimal_dfa(strings);
}

// Both constructors normalize to a minimized DFA, whose canonical numbering
// makes the structural hash a language fingerprint.
std::string filter_key(const automata::Dfa& forbidden, const char* target_tag) {
  return std::string("filter:t=") + target_tag + ":l=" +
         hex64(automata::dfa_structural_hash(forbidden));
}

}  // namespace

FilterPreprocessor::FilterPreprocessor(std::vector<std::string> forbidden,
                                       Target target)
    : forbidden_(union_of_literals(std::move(forbidden))),
      target_(target),
      key_(filter_key(forbidden_, target_tag(target))) {}

FilterPreprocessor::FilterPreprocessor(const std::string& forbidden_regex,
                                       Target target)
    : forbidden_(automata::compile_regex(forbidden_regex)),
      target_(target),
      key_(filter_key(forbidden_, target_tag(target))) {}

automata::Dfa FilterPreprocessor::apply(const automata::Dfa& language) const {
  return automata::minimize(automata::difference(
      language, forbidden_, automata::printable_ascii_and_ws()));
}

std::string CaseInsensitivePreprocessor::cache_key() const {
  return std::string("case_insensitive:t=") + target_tag(target_);
}

automata::Dfa CaseInsensitivePreprocessor::apply(
    const automata::Dfa& language) const {
  automata::Nfa nfa(256);
  for (automata::StateId s = 0; s < language.num_states(); ++s) {
    nfa.add_state(language.is_final(s));
  }
  for (automata::StateId s = 0; s < language.num_states(); ++s) {
    for (const automata::Edge& e : language.edges(s)) {
      nfa.add_edge(s, e.symbol, e.to);
      unsigned char c = static_cast<unsigned char>(e.symbol);
      if (c >= 'a' && c <= 'z') {
        nfa.add_edge(s, c - 'a' + 'A', e.to);
      } else if (c >= 'A' && c <= 'Z') {
        nfa.add_edge(s, c - 'A' + 'a', e.to);
      }
    }
  }
  nfa.set_start(language.start());
  return automata::minimize(automata::determinize(nfa));
}

SynonymPreprocessor::SynonymPreprocessor(
    std::vector<std::pair<std::string, std::vector<std::string>>> synonyms,
    Target target)
    : synonyms_(std::move(synonyms)), target_(target) {
  for (const auto& [word, alternatives] : synonyms_) {
    if (word.empty()) throw relm::QueryError("synonym source word is empty");
    for (const auto& alt : alternatives) {
      if (alt.empty()) throw relm::QueryError("synonym alternative is empty");
    }
  }
}

std::string SynonymPreprocessor::cache_key() const {
  // Length-prefixed concatenation: unambiguous under any word/alternative
  // contents, so distinct synonym tables cannot collide textually.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](std::string_view s) {
    h = (h ^ s.size()) * 0x100000001b3ull;
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  };
  for (const auto& [word, alternatives] : synonyms_) {
    fold(word);
    for (const auto& alt : alternatives) fold(alt);
  }
  return std::string("synonyms:t=") + target_tag(target_) + ":s=" + hex64(h);
}

automata::Dfa SynonymPreprocessor::apply(const automata::Dfa& language) const {
  // Copy the DFA into an NFA, then for every walk spelling a source word,
  // bridge its endpoints with each alternative (Appendix B's optional
  // rewrite, with a multi-character bridge instead of one token edge).
  automata::Nfa nfa(256);
  for (automata::StateId s = 0; s < language.num_states(); ++s) {
    nfa.add_state(language.is_final(s));
  }
  for (automata::StateId s = 0; s < language.num_states(); ++s) {
    for (const automata::Edge& e : language.edges(s)) {
      nfa.add_edge(s, e.symbol, e.to);
    }
  }
  nfa.set_start(language.start());

  for (const auto& [word, alternatives] : synonyms_) {
    for (automata::StateId origin = 0; origin < language.num_states(); ++origin) {
      // Deterministic walk of `word` from origin.
      automata::StateId state = origin;
      bool alive = true;
      for (unsigned char c : word) {
        state = language.next(state, c);
        if (state == automata::kNoState) {
          alive = false;
          break;
        }
      }
      if (!alive) continue;
      for (const std::string& alt : alternatives) {
        automata::StateId cur = origin;
        for (std::size_t i = 0; i + 1 < alt.size(); ++i) {
          automata::StateId next = nfa.add_state(false);
          nfa.add_edge(cur, static_cast<unsigned char>(alt[i]), next);
          cur = next;
        }
        nfa.add_edge(cur, static_cast<unsigned char>(alt.back()), state);
      }
    }
  }
  return automata::minimize(automata::determinize(nfa));
}

}  // namespace relm::core
