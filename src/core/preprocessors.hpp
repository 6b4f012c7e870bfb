#pragma once

#include <memory>
#include <string>
#include <vector>

#include "automata/automaton.hpp"
#include "automata/regex_ast.hpp"

namespace relm::core {

// Query preprocessors (§3.4): transducer-like rewrites of the Natural
// Language Automaton, applied before token compilation. Domain-specific
// invariances — misspellings, synonyms, stop-word removal — are expressed
// here instead of enumerated by hand.
class Preprocessor {
 public:
  enum class Target { kBody, kPrefix, kBoth };

  virtual ~Preprocessor() = default;
  virtual automata::Dfa apply(const automata::Dfa& language) const = 0;
  virtual Target target() const { return Target::kBody; }
  virtual std::string name() const = 0;

  // Stable fingerprint of the preprocessor's *full* configuration — two
  // preprocessors with equal cache_key() must rewrite every language
  // identically. The artifact cache (src/core/pipeline/cache.hpp) folds
  // these into the query's content address; an empty string marks the
  // preprocessor unkeyable and makes queries carrying it bypass the cache
  // (correct, just never cached). All built-ins are keyable.
  virtual std::string cache_key() const { return ""; }

 protected:
  // "body" / "prefix" / "both", for composing cache keys and diagnostics.
  static const char* target_tag(Target t);
};

// Levenshtein automaton composition: expands the language to all strings
// within `distance` character edits. One instance with distance d is
// equivalent to d chained distance-1 preprocessors.
class LevenshteinPreprocessor : public Preprocessor {
 public:
  explicit LevenshteinPreprocessor(int distance,
                                   Target target = Target::kBoth,
                                   automata::ByteSet alphabet = automata::printable_ascii());
  automata::Dfa apply(const automata::Dfa& language) const override;
  Target target() const override { return target_; }
  std::string name() const override;
  std::string cache_key() const override;

 private:
  int distance_;
  Target target_;
  automata::ByteSet alphabet_;
};

// Filter preprocessor: removes a set of strings from the language (maps them
// to the empty string, in the paper's transducer phrasing). Used for the
// LAMBADA no_stop query (§4.4) and for excluding known-bad content.
class FilterPreprocessor : public Preprocessor {
 public:
  // Removes exactly the given strings.
  FilterPreprocessor(std::vector<std::string> forbidden,
                     Target target = Target::kBody);
  // Removes the language of a regex.
  FilterPreprocessor(const std::string& forbidden_regex, Target target);

  automata::Dfa apply(const automata::Dfa& language) const override;
  Target target() const override { return target_; }
  std::string name() const override { return "filter"; }
  std::string cache_key() const override { return key_; }

 private:
  automata::Dfa forbidden_;
  Target target_;
  std::string key_;  // derived once: forbidden_ never changes
};

// Case-insensitivity: every alphabetic transition admits both cases, so the
// query matches regardless of capitalization — the kind of domain invariance
// §3.4 motivates without enumerating variants by hand.
class CaseInsensitivePreprocessor : public Preprocessor {
 public:
  explicit CaseInsensitivePreprocessor(Target target = Target::kBoth)
      : target_(target) {}
  automata::Dfa apply(const automata::Dfa& language) const override;
  Target target() const override { return target_; }
  std::string name() const override { return "case_insensitive"; }
  std::string cache_key() const override;

 private:
  Target target_;
};

// Synonym substitution: an optional rewrite (in the Mihov & Schulz sense the
// paper cites for its shortcut-edge construction) that lets any occurrence
// of a word inside the language also be matched as one of its synonyms.
// Implemented exactly like Appendix B's algorithm, at the character level:
// every walk spelling `word` gains a parallel bridge spelling each synonym.
class SynonymPreprocessor : public Preprocessor {
 public:
  // synonyms[i] = {word, {alternatives...}}.
  SynonymPreprocessor(
      std::vector<std::pair<std::string, std::vector<std::string>>> synonyms,
      Target target = Target::kBody);
  automata::Dfa apply(const automata::Dfa& language) const override;
  Target target() const override { return target_; }
  std::string name() const override { return "synonyms"; }
  std::string cache_key() const override;

 private:
  std::vector<std::pair<std::string, std::vector<std::string>>> synonyms_;
  Target target_;
};

}  // namespace relm::core
