#include <gtest/gtest.h>

#include "automata/levenshtein.hpp"
#include "automata/ops.hpp"
#include "automata/regex.hpp"
#include "core/preprocessors.hpp"
#include "testing/transducer.hpp"
#include "util/errors.hpp"

namespace relm::automata {
namespace {

using relm::testing::apply;
using relm::testing::case_fold_transducer;
using relm::testing::compose;
using relm::testing::edit_transducer;
using relm::testing::Fst;
using relm::testing::input_projection;
using relm::testing::output_projection;
using relm::testing::replace_transducer;

ByteSet abc() {
  ByteSet set;
  for (char c : {'a', 'b', 'c'}) set.set(static_cast<unsigned char>(c));
  return set;
}

// ---------------------------------------------------------------------------
// Identity and projections
// ---------------------------------------------------------------------------

TEST(Transducer, IdentityAppliesToItself) {
  Dfa lang = compile_regex("(cat)|(dog)");
  Fst id = Fst::identity(lang);
  EXPECT_TRUE(equivalent(input_projection(id), lang));
  EXPECT_TRUE(equivalent(output_projection(id), lang));
  EXPECT_TRUE(equivalent(apply(id, lang), lang));
}

TEST(Transducer, ComposeIdentityIsIdentity) {
  Dfa lang = compile_regex("ab*c");
  Fst id = Fst::identity(lang);
  Fst twice = compose(id, id);
  EXPECT_TRUE(equivalent(output_projection(twice), lang));
}

TEST(Transducer, ComposeMismatchedAlphabetsThrow) {
  Fst a(256), b(100);
  a.set_start(a.add_state(true));
  b.set_start(b.add_state(true));
  EXPECT_THROW(compose(a, b), relm::Error);
}

// ---------------------------------------------------------------------------
// Edit transducer == direct Levenshtein construction
// ---------------------------------------------------------------------------

class EditTransducerEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(EditTransducerEquivalence, MatchesLevenshteinExpand) {
  Dfa lang = compile_regex(GetParam());
  Fst editor = edit_transducer(1, abc());
  Dfa via_transducer = apply(editor, lang);
  Dfa direct = levenshtein_expand(lang, 1, abc());
  EXPECT_TRUE(equivalent(via_transducer, direct)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Patterns, EditTransducerEquivalence,
                         ::testing::Values("ab", "(abc)|(ca)", "a+", "a(b|c)a",
                                           "(ab){1,3}", "c"));

TEST(EditTransducer, DistanceTwoByComposition) {
  // Composing two distance-1 transducers equals one distance-2 transducer —
  // the paper's "an edit distance of 2 corresponds to two chained
  // Levenshtein automata", at the transducer level.
  Dfa lang = compile_regex("ab");
  Fst one = edit_transducer(1, abc());
  Dfa chained = apply(one, apply(one, lang));
  Dfa direct = apply(edit_transducer(2, abc()), lang);
  EXPECT_TRUE(equivalent(chained, direct));
  EXPECT_TRUE(equivalent(direct, levenshtein_expand(lang, 2, abc())));
}

TEST(EditTransducer, ZeroDistanceIsIdentity) {
  Dfa lang = compile_regex("(ab)|(ba)");
  EXPECT_TRUE(equivalent(apply(edit_transducer(0, abc()), lang), lang));
}

// ---------------------------------------------------------------------------
// Case folding == CaseInsensitivePreprocessor
// ---------------------------------------------------------------------------

TEST(CaseFold, MatchesPreprocessor) {
  Dfa lang = compile_regex("The Cat\\!");
  Dfa via_transducer = apply(case_fold_transducer(), lang);
  Dfa via_preprocessor = core::CaseInsensitivePreprocessor().apply(lang);
  EXPECT_TRUE(equivalent(via_transducer, via_preprocessor));
  EXPECT_TRUE(via_transducer.accepts_bytes("tHE cAT!"));
}

// ---------------------------------------------------------------------------
// Optional rewrite == SynonymPreprocessor
// ---------------------------------------------------------------------------

TEST(Replace, MatchesSynonymPreprocessor) {
  Dfa lang = compile_regex("the cat ran");
  ByteSet pass = printable_ascii();
  Dfa via_transducer = apply(replace_transducer("cat", "kitten", pass), lang);
  core::SynonymPreprocessor pre(
      std::vector<std::pair<std::string, std::vector<std::string>>>{
          {"cat", {"kitten"}}});
  Dfa via_preprocessor = pre.apply(lang);
  EXPECT_TRUE(equivalent(via_transducer, via_preprocessor));
}

TEST(Replace, OverlappingOccurrences) {
  Dfa lang = compile_regex("abab");
  Dfa rewritten = apply(replace_transducer("ab", "z", printable_ascii()), lang);
  for (const char* s : {"abab", "zab", "abz", "zz"}) {
    EXPECT_TRUE(rewritten.accepts_bytes(s)) << s;
  }
  EXPECT_FALSE(rewritten.accepts_bytes("zb"));
}

TEST(Replace, EmptySourceThrows) {
  EXPECT_THROW(replace_transducer("", "x", printable_ascii()), relm::Error);
}

TEST(Replace, CanDeleteOccurrences) {
  // Rewriting to the empty string: the filter-ish deletion rewrite.
  Dfa lang = compile_regex("a cat sat");
  Dfa rewritten = apply(replace_transducer("cat ", "", printable_ascii()), lang);
  EXPECT_TRUE(rewritten.accepts_bytes("a cat sat"));
  EXPECT_TRUE(rewritten.accepts_bytes("a sat"));
}

// ---------------------------------------------------------------------------
// The paper's framing: tokenization as a transducer (§3.2) in miniature.
// ---------------------------------------------------------------------------

TEST(Transducer, ShortcutRewriteInMiniature) {
  // "the sequence T-h-e is optionally rewritten to The": model the merged
  // token as a private symbol (here byte 0x01) and check both paths exist.
  Dfa lang = compile_regex("The cat");
  Fst rewrite = replace_transducer("The", "\x01", printable_ascii_and_ws());
  Dfa out = apply(rewrite, lang);
  EXPECT_TRUE(out.accepts_bytes("The cat"));            // un-rewritten
  EXPECT_TRUE(out.accepts_bytes("\x01 cat"));           // token shortcut
  EXPECT_FALSE(out.accepts_bytes("\x01\x01 cat"));
}

}  // namespace
}  // namespace relm::automata
