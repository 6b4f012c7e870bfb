#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "automata/algebra.hpp"
#include "automata/byte_classes.hpp"
#include "automata/determinize.hpp"
#include "automata/finite.hpp"
#include "automata/grep.hpp"
#include "automata/io.hpp"
#include "automata/levenshtein.hpp"
#include "automata/ops.hpp"
#include "automata/regex.hpp"
#include "automata/regex_parser.hpp"
#include "automata/thompson.hpp"
#include "automata/walks.hpp"
#include "core/preprocessors.hpp"
#include "testing/canonical_trie.hpp"
#include "testing/determinize_per_byte.hpp"
#include "testing/hopcroft.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace relm::automata {
namespace {

// Enumerates all strings over `alphabet` with length <= max_len.
std::vector<std::string> all_strings(const std::string& alphabet, std::size_t max_len) {
  std::vector<std::string> out{""};
  std::vector<std::string> frontier{""};
  for (std::size_t l = 0; l < max_len; ++l) {
    std::vector<std::string> next;
    for (const auto& s : frontier) {
      for (char c : alphabet) {
        next.push_back(s + c);
        out.push_back(s + c);
      }
    }
    frontier = std::move(next);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser basics
// ---------------------------------------------------------------------------

TEST(RegexParser, RejectsMalformed) {
  EXPECT_THROW(parse_regex("("), relm::RegexError);
  EXPECT_THROW(parse_regex(")"), relm::RegexError);
  EXPECT_THROW(parse_regex("a{2,1}"), relm::RegexError);
  EXPECT_THROW(parse_regex("a{"), relm::RegexError);
  EXPECT_THROW(parse_regex("[a-"), relm::RegexError);
  EXPECT_THROW(parse_regex("*"), relm::RegexError);
  EXPECT_THROW(parse_regex("a**b("), relm::RegexError);
  EXPECT_THROW(parse_regex("\\"), relm::RegexError);
  EXPECT_THROW(parse_regex("\\q"), relm::RegexError);
  EXPECT_THROW(parse_regex("[z-a]"), relm::RegexError);
}

TEST(RegexParser, ErrorCarriesPosition) {
  try {
    parse_regex("abc(");
    FAIL() << "expected RegexError";
  } catch (const relm::RegexError& e) {
    EXPECT_EQ(e.position(), 4u);
  }
}

TEST(RegexParser, ErrorCarriesOperatorSpan) {
  // Counted-repeat bound errors anchor to the whole {m,n} construct.
  try {
    parse_regex("a{3,1}b");
    FAIL() << "expected RegexError";
  } catch (const relm::RegexError& e) {
    EXPECT_EQ(e.position(), 1u);
    EXPECT_EQ(e.length(), 5u);  // "{3,1}"
    EXPECT_NE(std::string(e.what()).find("span 5"), std::string::npos);
  }
}

// Every malformed boolean-algebra form must be rejected with a diagnostic
// anchored at the operator, not wherever the cursor happened to stop.
TEST(RegexParser, RejectsUnbalancedAlgebraOperators) {
  struct Case {
    const char* pattern;
    std::size_t position;  // expected error anchor
  };
  const Case cases[] = {
      {"&a", 0},     // missing left operand
      {"a&", 1},     // missing right operand
      {"a&&b", 1},   // empty middle operand (right of first '&')
      {"-a", 0},     // missing left operand
      {"a-", 1},     // missing right operand
      {"a--b", 1},   // first '-' finds an empty rhs (second '-' stops it)
      {"~", 0},      // complement with nothing to negate
      {"!", 0},
      {"a~", 1},     // trailing complement inside concat
      {"(a&)", 2},   // missing right operand before ')'
      {"(&a)", 1},   // missing left operand after '('
      {"~|a", 0},    // complement directly against an alternation bar
      {"a&|b", 1},   // '&' whose operand is an empty branch
      {"a-&b", 2},   // the '&' inside the rhs has no left operand
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.pattern);
    try {
      parse_regex(c.pattern);
      FAIL() << "expected RegexError for \"" << c.pattern << "\"";
    } catch (const relm::RegexError& e) {
      EXPECT_EQ(e.position(), c.position) << e.what();
    }
  }
}

TEST(RegexParser, EscapedAlgebraCharactersAreLiterals) {
  automata::Dfa dfa = automata::compile_regex("a\\&b\\-c\\~d\\!e");
  EXPECT_TRUE(dfa.accepts_bytes("a&b-c~d!e"));
  EXPECT_FALSE(dfa.accepts_bytes("abcde"));
  // Inside [...] classes, '-' keeps the range meaning and the algebra
  // characters are plain members.
  automata::Dfa cls = automata::compile_regex("[&!~]+");
  EXPECT_TRUE(cls.accepts_bytes("&!~"));
  EXPECT_FALSE(cls.accepts_bytes("a"));
}

TEST(RegexParser, AcceptsPaperQueries) {
  // Queries from the paper's evaluation must parse. Since grammar v2 made
  // `-` and `!` boolean-algebra operators, the literal hyphen/bang uses in
  // the originals are escaped here.
  EXPECT_NO_THROW(parse_regex(
      "https://www.([a-zA-Z0-9]|\\-|_|#|%)+.([a-zA-Z0-9]|\\-|_|#|%|/)+"));
  EXPECT_NO_THROW(parse_regex("My phone number is ([0-9]{3}) ([0-9]{3}) ([0-9]{4})"));
  EXPECT_NO_THROW(parse_regex("The ((cat)|(dog))"));
  EXPECT_NO_THROW(parse_regex(
      "George Washington was born on ((January)|(February)|(March)|(April)|(May)|"
      "(June)|(July)|(August)|(September)|(October)|(November)|(December)) "
      "[0-9]{1,2}, [0-9]{4}"));
  EXPECT_NO_THROW(parse_regex("([a-zA-Z]+)(\\.|\\!|\\?)?(\")?"));
}

// ---------------------------------------------------------------------------
// Property test: our engine agrees with std::regex on a shared dialect
// ---------------------------------------------------------------------------

struct RegexCase {
  const char* pattern;
  const char* alphabet;
};

// Names each case by its strings rather than the bytes of its pointers, so
// the registered test names are the same in every build.
void PrintTo(const RegexCase& c, std::ostream* os) {
  *os << '"' << c.pattern << "\" alphabet \"" << c.alphabet << '"';
}

class RegexAgreement : public ::testing::TestWithParam<RegexCase> {};

TEST_P(RegexAgreement, MatchesStdRegex) {
  const auto& param = GetParam();
  Dfa dfa = compile_regex(param.pattern);
  std::regex reference(param.pattern, std::regex::ECMAScript);
  for (const auto& s : all_strings(param.alphabet, 5)) {
    bool ours = dfa.accepts_bytes(s);
    bool theirs = std::regex_match(s, reference);
    EXPECT_EQ(ours, theirs) << "pattern=" << param.pattern << " input=\"" << s << '"';
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dialect, RegexAgreement,
    ::testing::Values(
        RegexCase{"abc", "abc"},
        RegexCase{"a*", "ab"},
        RegexCase{"a+b?", "ab"},
        RegexCase{"(a|b)*c", "abc"},
        RegexCase{"a{2,3}", "a"},
        RegexCase{"a{2}b{0,2}", "ab"},
        RegexCase{"(ab)+", "ab"},
        RegexCase{"[abc]+", "abcd"},
        RegexCase{"[a-c]x[0-1]", "abcx01"},
        RegexCase{"a(b|c)*d", "abcd"},
        RegexCase{"(a|ab)(c|bc)", "abc"},
        RegexCase{"x(yz)?", "xyz"},
        RegexCase{"(0|1){1,4}", "01"},
        RegexCase{"a|b|c|abc", "abc"},
        RegexCase{"((a)|(bb))*", "ab"},
        RegexCase{"\\.a\\*", ".a*x"},
        RegexCase{"a.c", "abc."},
        RegexCase{"[ab]{2,}", "ab"}));

// ---------------------------------------------------------------------------
// Determinize / minimize
// ---------------------------------------------------------------------------

TEST(Determinize, ResultIsDeterministicAndEquivalent) {
  Dfa dfa = compile_regex_unminimized("(a|ab)(c|bc)");
  // accepts exactly: ac, abc (two derivations), abbc
  EXPECT_TRUE(dfa.accepts_bytes("ac"));
  EXPECT_TRUE(dfa.accepts_bytes("abc"));
  EXPECT_TRUE(dfa.accepts_bytes("abbc"));
  EXPECT_FALSE(dfa.accepts_bytes("a"));
  EXPECT_FALSE(dfa.accepts_bytes("abcc"));
}

TEST(Minimize, ClassicRedundantStates) {
  // (a|b)*abb has a known 4-state minimal DFA.
  Dfa m = minimize(compile_regex_unminimized("(a|b)*abb"));
  EXPECT_EQ(m.num_states(), 4u);
  EXPECT_TRUE(m.accepts_bytes("abb"));
  EXPECT_TRUE(m.accepts_bytes("aabb"));
  EXPECT_TRUE(m.accepts_bytes("babb"));
  EXPECT_FALSE(m.accepts_bytes("ab"));
}

TEST(Minimize, CanonicalFormEnablesEquality) {
  // Structurally different regexes for the same language minimize to equal DFAs.
  EXPECT_EQ(minimize(compile_regex_unminimized("a(b|c)")),
            minimize(compile_regex_unminimized("ab|ac")));
  EXPECT_EQ(minimize(compile_regex_unminimized("(a*)*")),
            minimize(compile_regex_unminimized("a*")));
  EXPECT_EQ(minimize(compile_regex_unminimized("aa*")),
            minimize(compile_regex_unminimized("a+")));
}

TEST(Minimize, EmptyLanguage) {
  Dfa m = minimize(compile_regex_unminimized("a{2}"));
  Dfa never = intersect(compile_regex("a"), compile_regex("b"));
  EXPECT_TRUE(is_empty_language(never));
  EXPECT_FALSE(is_empty_language(m));
}

TEST(Minimize, AllStatesFinal) {
  // a* has every trim state final; regression test for partition init.
  Dfa m = minimize(compile_regex_unminimized("a*"));
  EXPECT_EQ(m.num_states(), 1u);
  EXPECT_TRUE(m.is_final(m.start()));
}

// ---------------------------------------------------------------------------
// Language operations
// ---------------------------------------------------------------------------

TEST(Ops, Intersection) {
  Dfa a = compile_regex("[ab]*");
  Dfa b = compile_regex("(ab)+");
  Dfa both = intersect(a, b);
  EXPECT_TRUE(both.accepts_bytes("ab"));
  EXPECT_TRUE(both.accepts_bytes("abab"));
  EXPECT_FALSE(both.accepts_bytes("aba"));
  EXPECT_TRUE(equivalent(both, b));
}

TEST(Ops, ComplementAndDifference) {
  ByteSet universe;
  for (char c : {'a', 'b'}) universe.set(static_cast<unsigned char>(c));
  Dfa not_a = complement(compile_regex("a"), universe);
  EXPECT_FALSE(not_a.accepts_bytes("a"));
  EXPECT_TRUE(not_a.accepts_bytes(""));
  EXPECT_TRUE(not_a.accepts_bytes("b"));
  EXPECT_TRUE(not_a.accepts_bytes("ab"));

  // Difference: words except stop words — the no_stop filter mechanism (§4.4).
  Dfa words = compile_regex("(the)|(fox)|(ran)");
  Dfa stops = compile_regex("(the)");
  ByteSet letters;
  for (int c = 'a'; c <= 'z'; ++c) letters.set(c);
  Dfa filtered = difference(words, stops, letters);
  EXPECT_FALSE(filtered.accepts_bytes("the"));
  EXPECT_TRUE(filtered.accepts_bytes("fox"));
  EXPECT_TRUE(filtered.accepts_bytes("ran"));
}

TEST(Ops, DoubleComplementIsIdentity) {
  ByteSet universe;
  for (char c : {'x', 'y', 'z'}) universe.set(static_cast<unsigned char>(c));
  Dfa lang = compile_regex("x(y|z)*");
  Dfa twice = complement(complement(lang, universe), universe);
  EXPECT_TRUE(equivalent(lang, twice));
}

TEST(Ops, CountStrings) {
  EXPECT_EQ(count_strings(compile_regex("(cat)|(dog)"), 10), 2u);
  EXPECT_EQ(count_strings(compile_regex("[01]{3}"), 10), 8u);
  EXPECT_EQ(count_strings(compile_regex("a{0,4}"), 10), 5u);
  // Bounded count of an infinite language.
  EXPECT_EQ(count_strings(compile_regex("a*"), 3), 4u);
  // Date pattern from Figure 1: 12 months x 2-digit day space x 4-digit years.
  Dfa dates = compile_regex(
      "((January)|(February)|(March)|(April)|(May)|(June)|(July)|(August)|"
      "(September)|(October)|(November)|(December)) [0-9]{1,2}, [0-9]{4}");
  EXPECT_EQ(count_strings(dates, 64), 12u * (10 + 100) * 10000);
}

TEST(Ops, EnumerateShortestFirst) {
  auto strings = enumerate_strings(compile_regex("a|ab|abb|b"), 10, 10);
  ASSERT_EQ(strings.size(), 4u);
  EXPECT_EQ(strings[0], "a");
  EXPECT_EQ(strings[1], "b");
  EXPECT_EQ(strings[2], "ab");
  EXPECT_EQ(strings[3], "abb");
}

TEST(Ops, EnumerateHonorsLimit) {
  auto strings = enumerate_strings(compile_regex("[ab]*"), 5, 10);
  EXPECT_EQ(strings.size(), 5u);
  EXPECT_EQ(strings[0], "");
}

TEST(Ops, InfiniteLanguageDetection) {
  EXPECT_FALSE(finite_string_count(compile_regex("ab*")).has_value());
  EXPECT_EQ(finite_string_count(compile_regex("ab{0,100}")), 101u);
  EXPECT_EQ(finite_string_count(compile_regex("(cat)|(dog)")), 2u);
}

TEST(Ops, LiteralChainEqualsSubsetConstruction) {
  // The pipeline builds a side that spells one string from that string, as
  // its chain (minimal_dfa); Thompson + subset construction numbers the same
  // n + 1 states in the same BFS order.
  for (const char* pattern : {"", "a", "abc", "a()b", "(ab)(c(d))",
                              "x\\.y\\-z", "\\x00\\xff", "a{2}"}) {
    SCOPED_TRACE(pattern);
    const RegexPtr ast = parse_regex(pattern);
    const std::optional<FiniteSize> size = finite_size(*ast);
    ASSERT_TRUE(size.has_value());
    ASSERT_EQ(size->strings, 1u);
    const Dfa chain = minimal_dfa(*finite_strings(*ast, size, 1));
    EXPECT_EQ(chain, trim(determinize(thompson_construct(*ast))));
    EXPECT_EQ(chain, compile_regex_unminimized(pattern));
  }
  for (const char* pattern : {"a|b", "[ab]c", "a*", "a&a", "~a", "a|a"}) {
    const std::optional<FiniteSize> size = finite_size(*parse_regex(pattern));
    EXPECT_TRUE(!size.has_value() || size->strings != 1) << pattern;
  }
}

TEST(Ops, ShortestStringLength) {
  EXPECT_EQ(shortest_string_length(compile_regex("aaa|aa|aaaa")), 2u);
  EXPECT_EQ(shortest_string_length(compile_regex("a*")), 0u);
  Dfa never = intersect(compile_regex("a"), compile_regex("b"));
  EXPECT_FALSE(shortest_string_length(never).has_value());
}

// ---------------------------------------------------------------------------
// Walk counting (§3.3, Appendix C)
// ---------------------------------------------------------------------------

TEST(Walks, CountsMatchStringCounts) {
  // On a DFA, accepting walks == accepted strings.
  Dfa dfa = compile_regex("(a|b){1,3}");
  WalkCounts walks(dfa, 8);
  EXPECT_DOUBLE_EQ(walks.total(), 2 + 4 + 8);
}

TEST(Walks, PaperExampleLanguage) {
  // The paper's example: language {a, b, bb, bbb}. Uniform sampling of the
  // first transition would pick a 50% of the time; walk weighting must pick
  // it 25% of the time.
  Dfa dfa = compile_regex("a|(b{1,3})");
  WalkCounts walks(dfa, 8);
  EXPECT_DOUBLE_EQ(walks.total(), 4.0);

  util::Pcg32 rng(123);
  int a_count = 0;
  const int kTrials = 20000;
  std::vector<Symbol> walk;
  for (int i = 0; i < kTrials; ++i) {
    ASSERT_TRUE(walks.sample_uniform_walk(dfa, rng, walk));
    if (walk.size() == 1 && walk[0] == static_cast<Symbol>('a')) ++a_count;
  }
  EXPECT_NEAR(static_cast<double>(a_count) / kTrials, 0.25, 0.02);
}

TEST(Walks, UniformOverFixedLengthLanguage) {
  Dfa dfa = compile_regex("[ab]{2}");
  WalkCounts walks(dfa, 4);
  util::Pcg32 rng(99);
  std::map<std::string, int> hits;
  std::vector<Symbol> walk;
  const int kTrials = 12000;
  for (int i = 0; i < kTrials; ++i) {
    ASSERT_TRUE(walks.sample_uniform_walk(dfa, rng, walk));
    std::string s;
    for (Symbol sym : walk) s.push_back(static_cast<char>(sym));
    ++hits[s];
  }
  ASSERT_EQ(hits.size(), 4u);
  for (const auto& [s, n] : hits) {
    EXPECT_NEAR(static_cast<double>(n) / kTrials, 0.25, 0.03) << s;
  }
}

TEST(Walks, LengthBoundTruncatesCycles) {
  Dfa dfa = compile_regex("a*");
  WalkCounts walks(dfa, 3);
  EXPECT_DOUBLE_EQ(walks.total(), 4.0);  // "", a, aa, aaa
  util::Pcg32 rng(1);
  std::vector<Symbol> walk;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(walks.sample_uniform_walk(dfa, rng, walk));
    EXPECT_LE(walk.size(), 3u);
  }
}

TEST(Walks, EmptyLanguage) {
  Dfa never = trim(intersect(compile_regex("a"), compile_regex("b")));
  WalkCounts walks(never, 4);
  EXPECT_DOUBLE_EQ(walks.total(), 0.0);
  util::Pcg32 rng(1);
  std::vector<Symbol> walk;
  EXPECT_FALSE(walks.sample_uniform_walk(never, rng, walk));
}

// ---------------------------------------------------------------------------
// Levenshtein expansion (§3.4)
// ---------------------------------------------------------------------------

ByteSet small_alphabet() {
  ByteSet set;
  for (char c : {'a', 'b', 'c'}) set.set(static_cast<unsigned char>(c));
  return set;
}

TEST(Levenshtein, DistanceZeroIsIdentity) {
  Dfa lang = compile_regex("ab|ba");
  Dfa same = levenshtein_expand(lang, 0, small_alphabet());
  EXPECT_TRUE(equivalent(lang, same));
}

TEST(Levenshtein, MatchesBruteForceDistanceOne) {
  Dfa lang = compile_regex("ab");
  Dfa edited = levenshtein_expand(lang, 1, small_alphabet());
  for (const auto& s : all_strings("abc", 4)) {
    bool in = edited.accepts_bytes(s);
    bool expected = edit_distance(s, "ab") <= 1;
    EXPECT_EQ(in, expected) << '"' << s << '"';
  }
}

TEST(Levenshtein, MatchesBruteForceDistanceTwoMultiString) {
  Dfa lang = compile_regex("(abc)|(ca)");
  Dfa edited = levenshtein_expand(lang, 2, small_alphabet());
  for (const auto& s : all_strings("abc", 5)) {
    std::size_t d = std::min(edit_distance(s, "abc"), edit_distance(s, "ca"));
    EXPECT_EQ(edited.accepts_bytes(s), d <= 2) << '"' << s << '"';
  }
}

TEST(Levenshtein, ChainedCompositionEqualsHigherOrder) {
  // Paper: "an edit distance of 2 corresponds to two chained Levenshtein
  // automata".
  Dfa lang = compile_regex("ab");
  Dfa chained =
      levenshtein_expand(levenshtein_expand(lang, 1, small_alphabet()), 1,
                         small_alphabet());
  Dfa direct = levenshtein_expand(lang, 2, small_alphabet());
  EXPECT_TRUE(equivalent(chained, direct));
}

TEST(Levenshtein, InfiniteLanguage) {
  Dfa lang = compile_regex("a+");
  Dfa edited = levenshtein_expand(lang, 1, small_alphabet());
  EXPECT_TRUE(edited.accepts_bytes(""));    // delete the single a
  EXPECT_TRUE(edited.accepts_bytes("b"));   // substitute
  EXPECT_TRUE(edited.accepts_bytes("ab"));  // insert b
  EXPECT_TRUE(edited.accepts_bytes("aab"));
  EXPECT_FALSE(edited.accepts_bytes("bb"));
  EXPECT_FALSE(edited.accepts_bytes("abb"));
}

TEST(Levenshtein, EditDistanceReference) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("flaw", "lawn"), 2u);
}

// ---------------------------------------------------------------------------
// Grep (the toxicity pipeline's corpus scan, §4.3)
// ---------------------------------------------------------------------------

TEST(Grep, FindsAllNonOverlapping) {
  Dfa pattern = compile_regex("ab+");
  auto matches = grep_strings(pattern, "xxabbbyyabzzb");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], "abbb");  // leftmost-longest
  EXPECT_EQ(matches[1], "ab");
}

TEST(Grep, OffsetsAreCorrect) {
  Dfa pattern = compile_regex("(cat)|(dog)");
  std::string text = "the cat saw the dog and the cat";
  auto matches = grep_all(pattern, text);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(text.substr(matches[0].offset, matches[0].length), "cat");
  EXPECT_EQ(text.substr(matches[1].offset, matches[1].length), "dog");
  EXPECT_EQ(matches[2].offset, 28u);
}

TEST(Grep, NoMatches) {
  EXPECT_TRUE(grep_all(compile_regex("zz"), "abcabc").empty());
}

TEST(Grep, InsultLexiconStyleQuery) {
  // The shape of the paper's §4.3 scan: disjunction of several fixed words.
  Dfa lexicon = compile_regex("(blorg)|(snarf)|(grumph)");
  std::string doc = "he said blorg! then snarf, then blorg again";
  auto matches = grep_strings(lexicon, doc);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0], "blorg");
  EXPECT_EQ(matches[1], "snarf");
  EXPECT_EQ(matches[2], "blorg");
}

// ---------------------------------------------------------------------------
// Dot output
// ---------------------------------------------------------------------------

TEST(Io, DotContainsStatesAndLabels) {
  Dfa dfa = compile_regex("ab");
  std::string dot = to_dot(dfa, byte_symbol_name);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

TEST(Io, SpaceRendersAsGDot) {
  Dfa dfa = compile_regex("a b");
  std::string dot = to_dot(dfa, byte_symbol_name);
  EXPECT_NE(dot.find("Ġ"), std::string::npos);
}

}  // namespace
}  // namespace relm::automata

namespace relm::automata {
namespace {

// ---------------------------------------------------------------------------
// Minimization against the test-side Hopcroft reference
// (testing/hopcroft.hpp): the post-order pass and Moore must both agree with
// it exactly.
// ---------------------------------------------------------------------------

using relm::testing::minimize_hopcroft;

class MinimizationAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(MinimizationAgreement, HopcroftEqualsMoore) {
  Dfa raw = compile_regex_unminimized(GetParam());
  Dfa moore = minimize(raw);
  Dfa hopcroft = minimize_hopcroft(raw);
  EXPECT_EQ(moore.num_states(), hopcroft.num_states()) << GetParam();
  // Both are canonical (BFS-renumbered minimal machines), so structural
  // equality is language equality.
  EXPECT_EQ(moore, hopcroft) << GetParam();
}

// The last four are the compile shapes of a cloze query: a regex-escaped
// passage of about 200 bytes (a literal, compiled as its chain), a 30-word
// disjunction under the cloze suffix, a bounded repeat, and the empty pattern.
INSTANTIATE_TEST_SUITE_P(
    Patterns, MinimizationAgreement,
    ::testing::Values("(a|b)*abb", "a*", "(a|ab)(c|bc)", "((a)|(bb))*",
                      "[a-f]{2,5}", "(cat)|(dog)|(cow)|(c.t)",
                      "x(y|z)*x|zz*", "(0|1(01*0)*1)*",  // binary multiples of 3
                      "a{3,7}b{0,4}", "(the )?((cat)|(dog)) (ran|sat)",
                      "\"I can't believe it,\" Mara said\\. The keeper of the old "
                      "lighthouse had left at dawn \\(without a word\\) and the "
                      "boats \\- all three of them \\- were gone before the tide "
                      "turned\\. Who would follow him now\\? Not the",
                      "((keeper)|(lighthouse)|(boats)|(tide)|(dawn)|(Mara)|(word)|"
                      "(three)|(morning)|(harbor)|(island)|(storm)|(lantern)|"
                      "(rope)|(sailor)|(village)|(mother)|(brother)|(window)|"
                      "(stairs)|(shore)|(night)|(gulls)|(rocks)|(signal)|"
                      "(captain)|(letter)|(winter)|(beacon)|(ferry))"
                      "(\\.|\\!|\\?)?(\")?",
                      "(ab|c){2,4}d", ""));

TEST(Hopcroft, LevenshteinAutomaton) {
  // A bigger machine: the Levenshtein-1 expansion of a sentence prefix.
  Dfa lang = compile_regex("The man was trained in");
  ByteSet alpha;
  for (int c = 'a'; c <= 'z'; ++c) alpha.set(c);
  Nfa nfa(256);
  (void)nfa;
  Dfa edited = levenshtein_expand(lang, 1, alpha);  // already minimized (Moore)
  Dfa again = minimize_hopcroft(edited);
  EXPECT_EQ(again.num_states(), edited.num_states());
  EXPECT_TRUE(equivalent(again, edited));
}

TEST(Hopcroft, EnumerationTrieOverTokenAlphabet) {
  // The canonical lift's token trie (core/compiler.cpp): one path per
  // encoded string over a 774-token vocabulary, with shared suffixes for the
  // post-order pass to merge.
  constexpr Symbol kVocab = 774;
  util::Pcg32 rng(774);
  std::vector<std::vector<Symbol>> endings;
  for (int i = 0; i < 30; ++i) {
    std::vector<Symbol> ending(1 + rng.bounded(3));
    for (Symbol& t : ending) t = rng.bounded(kVocab);
    endings.push_back(ending);
  }
  Dfa trie(kVocab);
  trie.set_start(trie.add_state(false));
  for (int i = 0; i < 400; ++i) {
    std::vector<Symbol> path(1 + rng.bounded(3));
    for (Symbol& t : path) t = rng.bounded(kVocab);
    const auto& ending = endings[rng.bounded(30)];
    path.insert(path.end(), ending.begin(), ending.end());
    if (rng.bounded(2) == 0) path.push_back(kVocab - 1 - rng.bounded(3));
    StateId cur = trie.start();
    for (Symbol t : path) {
      StateId next = trie.next(cur, t);
      if (next == kNoState) {
        next = trie.add_state(false);
        trie.add_edge(cur, t, next);
      }
      cur = next;
    }
    trie.set_final(cur);
  }
  Dfa minimal = minimize(trie);
  EXPECT_LT(minimal.num_states(), trie.num_states());
  EXPECT_EQ(minimal, minimize_hopcroft(trie));
  EXPECT_TRUE(equivalent(minimal, trie));
}

TEST(Hopcroft, EmptyAndTrivial) {
  Dfa never = intersect(compile_regex("a"), compile_regex("b"));
  EXPECT_EQ(minimize_hopcroft(never).num_states(), minimize(never).num_states());
  EXPECT_EQ(minimize_hopcroft(compile_regex_unminimized("a*")),
            minimize(compile_regex_unminimized("a*")));
}

// ---------------------------------------------------------------------------
// Property sweep: randomized regexes, algebraic identities.
// ---------------------------------------------------------------------------

std::string random_regex(util::Pcg32& rng, int depth) {
  if (depth <= 0) {
    static const char* kAtoms[] = {"a", "b", "c", "[ab]", "[bc]", "."};
    return kAtoms[rng.bounded(6)];
  }
  switch (rng.bounded(6)) {
    case 0: return random_regex(rng, depth - 1) + random_regex(rng, depth - 1);
    case 1:
      return "(" + random_regex(rng, depth - 1) + ")|(" +
             random_regex(rng, depth - 1) + ")";
    case 2: return "(" + random_regex(rng, depth - 1) + ")*";
    case 3: return "(" + random_regex(rng, depth - 1) + ")?";
    case 4: return "(" + random_regex(rng, depth - 1) + "){1,2}";
    default: return random_regex(rng, depth - 1);
  }
}

class RandomRegexProperties : public ::testing::TestWithParam<int> {};

TEST_P(RandomRegexProperties, AlgebraicIdentitiesHold) {
  util::Pcg32 rng(static_cast<std::uint64_t>(GetParam()));
  std::string ra = random_regex(rng, 3);
  std::string rb = random_regex(rng, 3);
  SCOPED_TRACE("A=" + ra + "  B=" + rb);
  Dfa a = compile_regex(ra);
  Dfa b = compile_regex(rb);
  ByteSet universe;
  for (char c : {'a', 'b', 'c'}) universe.set(static_cast<unsigned char>(c));

  // Hopcroft agrees with Moore on random machines.
  EXPECT_EQ(minimize_hopcroft(a), a);  // a is already canonical
  // Idempotence.
  EXPECT_TRUE(equivalent(intersect(a, a), a));
  // Commutativity.
  EXPECT_TRUE(equivalent(intersect(a, b), intersect(b, a)));
  // De Morgan over the shared universe (restrict to universe-only strings by
  // intersecting with universe* first).
  Dfa u_star = [&] {
    Dfa d(256);
    StateId s = d.add_state(true);
    d.set_start(s);
    for (unsigned cb = 0; cb < 256; ++cb) {
      if (universe.test(cb)) d.add_edge(s, cb, s);
    }
    return d;
  }();
  Dfa ua = intersect(a, u_star);
  Dfa ub = intersect(b, u_star);
  Dfa lhs = complement(
      intersect(compile_regex("(" + ra + ")|(" + rb + ")"), u_star), universe);
  Dfa rhs = intersect(complement(ua, universe), complement(ub, universe));
  EXPECT_TRUE(equivalent(lhs, rhs));
  // Difference definition.
  EXPECT_TRUE(equivalent(difference(ua, ub, universe),
                         intersect(ua, complement(ub, universe))));
  // Double complement.
  EXPECT_TRUE(equivalent(complement(complement(ua, universe), universe), ua));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRegexProperties,
                         ::testing::Range(1, 21));

class RandomRegexMembership : public ::testing::TestWithParam<int> {};

TEST_P(RandomRegexMembership, EnumerationMembersAccepted) {
  util::Pcg32 rng(1000 + static_cast<std::uint64_t>(GetParam()));
  std::string pattern = random_regex(rng, 3);
  SCOPED_TRACE(pattern);
  Dfa dfa = compile_regex(pattern);
  // Every enumerated string is accepted, and enumeration is sorted by length.
  auto strings = enumerate_strings(dfa, 40, 6);
  std::size_t prev_len = 0;
  for (const auto& s : strings) {
    EXPECT_TRUE(dfa.accepts_bytes(s)) << '"' << s << '"';
    EXPECT_GE(s.size(), prev_len);
    prev_len = s.size();
  }
  // Bounded count is consistent with enumeration when it did not truncate.
  if (strings.size() < 40) {
    std::uint64_t count = count_strings(dfa, 6);
    EXPECT_EQ(count >= strings.size(), true);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRegexMembership,
                         ::testing::Range(1, 16));

}  // namespace
}  // namespace relm::automata

namespace relm::automata {
namespace {

// ---------------------------------------------------------------------------
// Parser robustness: random byte soup must parse or throw, never crash, and
// a successful parse must compile to an automaton.
// ---------------------------------------------------------------------------

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, NeverCrashes) {
  util::Pcg32 rng(5000 + static_cast<std::uint64_t>(GetParam()));
  static const char kSoup[] = "ab(|)*+?{}[]\\.-^0123456789,c ";
  for (int round = 0; round < 200; ++round) {
    std::string pattern;
    std::size_t len = rng.bounded(18);
    for (std::size_t i = 0; i < len; ++i) {
      pattern.push_back(kSoup[rng.bounded(sizeof(kSoup) - 1)]);
    }
    try {
      Dfa dfa = compile_regex(pattern);
      // If it parsed, the automaton is well-formed: accepts() terminates and
      // trim/minimize idempotence holds.
      dfa.accepts_bytes("abc");
      EXPECT_EQ(minimize(dfa), dfa) << pattern;
    } catch (const relm::RegexError&) {
      // Fine: malformed input is rejected with a typed error.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace relm::automata

namespace relm::automata {
namespace {

// ---------------------------------------------------------------------------
// Edge cases and error paths
// ---------------------------------------------------------------------------

TEST(Ops, MismatchedAlphabetsThrow) {
  Dfa bytes = compile_regex("a");
  Dfa tokens(100);
  tokens.set_start(tokens.add_state(true));
  EXPECT_THROW(intersect(bytes, tokens), relm::Error);
}

TEST(Grep, StarPatternMatchesRunsNotEmpties) {
  // Zero-length matches are skipped by contract; "a*" finds the maximal runs.
  auto matches = grep_strings(compile_regex("a*"), "xaaayazaa");
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0], "aaa");
  EXPECT_EQ(matches[1], "a");
  EXPECT_EQ(matches[2], "aa");
}

TEST(RegexParser, NegatedClassAndHexEscape) {
  Dfa not_vowel = compile_regex("[^aeiou]");
  EXPECT_TRUE(not_vowel.accepts_bytes("z"));
  EXPECT_TRUE(not_vowel.accepts_bytes("7"));
  EXPECT_FALSE(not_vowel.accepts_bytes("e"));
  EXPECT_FALSE(not_vowel.accepts_bytes("zz"));

  Dfa hex = compile_regex("\\x41\\x2e");  // "A."
  EXPECT_TRUE(hex.accepts_bytes("A."));
  EXPECT_FALSE(hex.accepts_bytes("A!"));
}

TEST(Walks, CountClampsBeyondTable) {
  Dfa dfa = compile_regex("a{0,2}");
  WalkCounts walks(dfa, 4);
  EXPECT_DOUBLE_EQ(walks.count(dfa.start(), 4), walks.count(dfa.start(), 100));
}

}  // namespace
}  // namespace relm::automata

namespace relm::automata {
namespace {

// ---------------------------------------------------------------------------
// Subset construction over byte classes against the per-byte reference
// (testing/determinize_per_byte.hpp), mostly on NFAs that Thompson does not
// build: Levenshtein, union, concatenation, case-insensitive and embedded
// algebra shapes, interleaved runs, high bytes and a token alphabet.
// ---------------------------------------------------------------------------

using relm::testing::determinize_per_byte;

// determinize must equal the per-byte construction exactly (same numbering)
// and fail a state budget at the same state count.
void expect_matches_per_byte(const Nfa& nfa) {
  const Dfa reference = determinize_per_byte(nfa);
  EXPECT_EQ(determinize(nfa), reference);
  EXPECT_EQ(determinize(nfa, reference.num_states()), reference);
  if (reference.num_states() > 1) {
    EXPECT_THROW(determinize(nfa, reference.num_states() - 1),
                 relm::StateBudgetError);
    EXPECT_THROW(determinize_per_byte(nfa, reference.num_states() - 1),
                 relm::StateBudgetError);
  }
}

// Copies `dfa`'s states and edges into `nfa`; returns the copy's start.
StateId copy_into(Nfa& nfa, const Dfa& dfa, bool keep_finals = true) {
  const StateId base = static_cast<StateId>(nfa.num_states());
  for (StateId s = 0; s < dfa.num_states(); ++s) {
    nfa.add_state(keep_finals && dfa.is_final(s));
  }
  for (StateId s = 0; s < dfa.num_states(); ++s) {
    for (const Edge& e : dfa.edges(s)) nfa.add_edge(base + s, e.symbol, base + e.to);
  }
  return base + dfa.start();
}

TEST(ByteClasses, ClassZeroHoldsBytesOnNoEdgeAndOthersNumberBySmallestByte) {
  Nfa nfa(256);
  for (int i = 0; i < 3; ++i) nfa.add_state();
  // One state, runs interleaved in the edge list: {c, a} to 1, {b} to 2,
  // {d, a} to 1. 'a' and 'c' split apart on the last run.
  nfa.add_edge(0, 'c', 1);
  nfa.add_edge(0, 'a', 1);
  nfa.add_edge(0, 'b', 2);
  nfa.add_edge(0, 'd', 1);
  nfa.add_edge(0, 'a', 1);
  nfa.add_edge(1, kEpsilon, 2);
  ByteClasses classes(256);
  classes.split_runs(nfa);
  ASSERT_EQ(classes.size(), 5u);
  EXPECT_EQ(classes.of('a'), 1u);
  EXPECT_EQ(classes.of('b'), 2u);
  EXPECT_EQ(classes.of('c'), 3u);
  EXPECT_EQ(classes.of('d'), 4u);
  EXPECT_EQ(classes.of('e'), 0u);
  EXPECT_EQ(classes.of(0), 0u);
  EXPECT_EQ(classes.of(255), 0u);
  EXPECT_EQ(classes.representative(3), Symbol{'c'});
  EXPECT_EQ(std::vector<Symbol>(classes.edge_symbols().begin(),
                                classes.edge_symbols().end()),
            (std::vector<Symbol>{'a', 'b', 'c', 'd'}));

  // A run covering a whole class keeps it whole: [a-z] to one target.
  ByteClasses letters(256);
  letters.split_runs(thompson_construct(*parse_regex("[a-z]+")));
  EXPECT_EQ(letters.size(), 2u);
  EXPECT_EQ(letters.of('q'), 1u);
  EXPECT_EQ(letters.representative(1), Symbol{'a'});

  // The universe leaves class 0 even where no edge reads it, as one class.
  letters.split_set(printable_ascii());
  EXPECT_EQ(letters.size(), 3u);
  EXPECT_EQ(letters.of(' '), 1u);
  EXPECT_EQ(letters.of('~'), 1u);
  EXPECT_EQ(letters.of('a'), 2u);
  EXPECT_EQ(letters.of('\n'), 0u);
  EXPECT_EQ(letters.representative(1), Symbol{' '});
}

TEST(ByteClasses, OutOfAlphabetSymbolThrows) {
  Nfa nfa(4);
  nfa.add_state();
  nfa.add_state(true);
  nfa.add_edge(0, 4, 1);
  EXPECT_THROW(determinize(nfa), relm::Error);
}

TEST(DeterminizeByClass, LevenshteinDistanceOneAndTwo) {
  const Dfa sentence = compile_regex("The man was trained in");
  for (int distance : {1, 2}) {
    const Nfa nfa = levenshtein_nfa(sentence, distance, printable_ascii());
    expect_matches_per_byte(nfa);
    EXPECT_EQ(levenshtein_expand(sentence, distance, printable_ascii()),
              minimize(determinize_per_byte(nfa)));
  }
  // An alphabet that is not an interval, over a cyclic language.
  ByteSet vowels;
  for (char c : std::string("aeiouAEIOU")) vowels.set(static_cast<unsigned char>(c));
  expect_matches_per_byte(levenshtein_nfa(compile_regex("(ba|ca)+t"), 2, vowels));
}

TEST(DeterminizeByClass, UnionAndConcatOfDfas) {
  const Dfa a = compile_regex("[a-m]+x|[0-9]");
  const Dfa b = compile_regex("[h-z]*y[a-c]");
  Nfa fork(256);
  const StateId start = fork.add_state();
  fork.set_start(start);
  fork.add_edge(start, kEpsilon, copy_into(fork, a));
  fork.add_edge(start, kEpsilon, copy_into(fork, b));
  expect_matches_per_byte(fork);

  Nfa chained(256);
  chained.set_start(copy_into(chained, a, /*keep_finals=*/false));
  const StateId b_start = copy_into(chained, b);
  for (StateId s = 0; s < a.num_states(); ++s) {
    if (a.is_final(s)) chained.add_edge(s, kEpsilon, b_start);
  }
  expect_matches_per_byte(chained);
}

TEST(DeterminizeByClass, CaseInsensitiveCopyInterleavesRuns) {
  // CaseInsensitivePreprocessor's NFA: every letter edge is followed by its
  // other-case twin to the same target, so runs alternate in case.
  const Dfa language = compile_regex("(the|a) (cat|dog)s?[.!]");
  Nfa nfa(256);
  for (StateId s = 0; s < language.num_states(); ++s) {
    nfa.add_state(language.is_final(s));
  }
  for (StateId s = 0; s < language.num_states(); ++s) {
    for (const Edge& e : language.edges(s)) {
      nfa.add_edge(s, e.symbol, e.to);
      if (e.symbol >= 'a' && e.symbol <= 'z') nfa.add_edge(s, e.symbol - 'a' + 'A', e.to);
    }
  }
  nfa.set_start(language.start());
  expect_matches_per_byte(nfa);
  EXPECT_EQ(core::CaseInsensitivePreprocessor().apply(language),
            minimize(determinize_per_byte(nfa)));
}

TEST(DeterminizeByClass, EmbeddedAlgebraDfa) {
  // The algebra compiler's shape for a regular operator over a boolean
  // subtree: Thompson fragments around an embedded product DFA.
  const Dfa embedded = compile_regex("~[a-c]");
  Nfa nfa(256);
  const StateId start = nfa.add_state();
  const StateId before = nfa.add_state();
  const StateId after = nfa.add_state();
  const StateId accept = nfa.add_state(true);
  nfa.set_start(start);
  for (unsigned b = 'w'; b <= 'z'; ++b) nfa.add_edge(start, b, before);
  const StateId inner = copy_into(nfa, embedded, /*keep_finals=*/false);
  nfa.add_edge(before, kEpsilon, inner);
  for (StateId s = 0; s < embedded.num_states(); ++s) {
    if (embedded.is_final(s)) nfa.add_edge(inner - embedded.start() + s, kEpsilon, after);
  }
  nfa.add_edge(after, 'y', accept);
  nfa.add_edge(after, kEpsilon, start);
  expect_matches_per_byte(nfa);
}

TEST(DeterminizeByClass, InterleavedRunsToTwoTargets) {
  Nfa nfa(256);
  for (int i = 0; i < 4; ++i) nfa.add_state(i == 3);
  nfa.set_start(0);
  for (unsigned b = 'a'; b <= 'j'; ++b) nfa.add_edge(0, b, 1 + (b % 2));
  for (unsigned b = 'e'; b <= 'p'; b += 3) nfa.add_edge(0, b, 2);
  nfa.add_edge(1, 'x', 3);
  nfa.add_edge(2, 'y', 3);
  nfa.add_edge(2, 'x', 0);
  nfa.add_edge(1, kEpsilon, 0);
  expect_matches_per_byte(nfa);
}

TEST(DeterminizeByClass, HighBytes) {
  for (const char* pattern : {"[\\x80-\\xff]+\\xff?(\\xfe|[\\xf0-\\xff])",
                              "(\\xff|a)*\\x80[^\\x00-\\x7f]", "\\xff+\\x00"}) {
    SCOPED_TRACE(pattern);
    expect_matches_per_byte(thompson_construct(*parse_regex(pattern)));
  }
}

// Random NFAs: interleaved runs, duplicate edges, epsilon cycles, over the
// byte alphabet and over a 774-token vocabulary.
TEST(DeterminizeByClass, RandomNfasOverBytesAndTokens) {
  util::Pcg32 rng(774);
  for (Symbol alphabet : {Symbol{256}, Symbol{774}}) {
    for (int trial = 0; trial < 60; ++trial) {
      SCOPED_TRACE("alphabet " + std::to_string(alphabet) + " trial " +
                   std::to_string(trial));
      const StateId n = 2 + rng.bounded(7);
      // A few hot symbols and ranges make overlapping runs likely.
      const Symbol lo = rng.bounded(alphabet - 8);
      Nfa nfa(alphabet);
      for (StateId s = 0; s < n; ++s) nfa.add_state(rng.bounded(3) == 0);
      nfa.set_start(0);
      for (StateId s = 0; s < n; ++s) {
        const int edges = static_cast<int>(rng.bounded(12));
        for (int e = 0; e < edges; ++e) {
          const StateId to = rng.bounded(n);
          switch (rng.bounded(4)) {
            case 0:
              nfa.add_edge(s, kEpsilon, to);
              break;
            case 1: {
              const Symbol first = lo + rng.bounded(8);
              const Symbol last = first + rng.bounded(6);
              for (Symbol b = first; b <= last && b < alphabet; ++b) {
                nfa.add_edge(s, b, to);
              }
              break;
            }
            default:
              nfa.add_edge(s, lo + rng.bounded(8), to);
          }
        }
      }
      expect_matches_per_byte(nfa);
    }
  }
}

}  // namespace
}  // namespace relm::automata

namespace relm::automata {
namespace {

// ---------------------------------------------------------------------------
// Finite languages from their strings (finite.hpp): finite_strings against
// enumeration of the compiled DFA, minimal_dfa against minimize and Hopcroft
// over the trie (testing/canonical_trie.hpp).
// ---------------------------------------------------------------------------

using relm::testing::minimize_hopcroft;
using relm::testing::trie_dfa;

std::vector<std::string> sorted_language(const std::string& pattern) {
  const Dfa dfa = compile_regex(pattern);
  std::optional<std::uint64_t> count = finite_string_count(dfa);
  EXPECT_TRUE(count.has_value()) << pattern;
  std::vector<std::string> strings =
      enumerate_strings(dfa, *count, dfa.num_states() + 1);
  std::sort(strings.begin(), strings.end());
  return strings;
}

void expect_strings_of(const std::string& pattern) {
  SCOPED_TRACE(pattern);
  const RegexPtr ast = parse_regex(pattern);
  std::optional<FiniteSize> size = finite_size(*ast);
  std::optional<std::vector<std::string>> strings =
      finite_strings(*ast, size, 50000);
  ASSERT_TRUE(strings.has_value());
  EXPECT_EQ(*strings, sorted_language(pattern));
  ASSERT_TRUE(size.has_value());
  EXPECT_GE(size->strings, strings->size());
  std::uint64_t bytes = 0;
  for (const std::string& s : *strings) bytes += s.size();
  EXPECT_GE(size->bytes, bytes);
  // The byte DFA built from the strings is the compiled one, numbering
  // included.
  EXPECT_EQ(minimal_dfa(*strings), compile_regex(pattern));
}

TEST(FiniteStrings, WordListWithOptionalSuffixes) {
  expect_strings_of("((cat)|(dog)|(cow))(s)?(\\.|\\!|\\?)?(\")?");
  const RegexPtr words = parse_regex("((cat)|(dog))s?");
  EXPECT_EQ(*finite_strings(*words, finite_size(*words), 100),
            (std::vector<std::string>{"cat", "cats", "dog", "dogs"}));
}

TEST(FiniteStrings, NestedAlternation) {
  expect_strings_of("a(b|(c|(d|e)f)|)g");
  expect_strings_of("((x|y)|(z|(w|v)))((1|2)|3)");
}

TEST(FiniteStrings, BoundedRepeats) {
  expect_strings_of("(ab){0,3}c?");
  expect_strings_of("[xy]{2}");
  expect_strings_of("(a|bc){1,3}d{0,2}");
  const FiniteSize size = *finite_size(*parse_regex("[xy]{2}"));
  EXPECT_EQ(size.strings, 4u);
  EXPECT_EQ(size.bytes, 8u);
}

TEST(FiniteStrings, DuplicatesCountTwiceButSpellOnce) {
  expect_strings_of("(a|a)b");
  const RegexPtr ast = parse_regex("(a|a)b");
  // The limit applies to the count with multiplicity.
  EXPECT_FALSE(finite_strings(*ast, finite_size(*ast), 1).has_value());
  const FiniteSize size = *finite_size(*ast);
  EXPECT_EQ(size.strings, 2u);
  EXPECT_EQ(size.bytes, 4u);
  EXPECT_EQ(*finite_strings(*ast, finite_size(*ast), 2),
            std::vector<std::string>{"ab"});
  expect_strings_of("(x?){3}");  // 8 spellings of 4 strings
}

TEST(FiniteStrings, Epsilon) {
  for (const char* pattern : {"", "()"}) {
    const RegexPtr ast = parse_regex(pattern);
    EXPECT_EQ(*finite_strings(*ast, finite_size(*ast), 1),
              std::vector<std::string>{""});
  }
  expect_strings_of("(|x)y");
  const FiniteSize size = *finite_size(*parse_regex(""));
  EXPECT_EQ(size.strings, 1u);
  EXPECT_EQ(size.bytes, 0u);
}

TEST(FiniteStrings, InfiniteBooleanAndEmptySubtreesAreRefused) {
  for (const char* pattern :
       {"a*", "ab+", "(ab){2,}", "x([a-zA-Z]+)", "a&b", "~a", "(ab)-(a)",
        "a[^\\x00-\\xff]|b", "[^\\x00-\\xff]{0,2}"}) {
    SCOPED_TRACE(pattern);
    const RegexPtr ast = parse_regex(pattern);
    EXPECT_FALSE(finite_size(*ast).has_value());
    EXPECT_FALSE(finite_strings(*ast, finite_size(*ast), 50000).has_value());
  }
  // ∅ anywhere, even where it spells nothing (r{0} is ε).
  std::vector<RegexPtr> parts;
  parts.push_back(RegexNode::literal('a'));
  parts.push_back(RegexNode::repeat(RegexNode::empty_set(), 0, 0));
  const RegexPtr ast = RegexNode::concat(std::move(parts));
  EXPECT_FALSE(finite_size(*ast).has_value());
  EXPECT_FALSE(finite_strings(*ast, finite_size(*ast), 50000).has_value());
  EXPECT_FALSE(finite_size(*RegexNode::empty_set()).has_value());
}

TEST(FiniteStrings, LimitIsExactAndCheckedBeforeBuilding) {
  const RegexPtr ast = parse_regex("[a-c]{2}|d");
  ASSERT_TRUE(finite_strings(*ast, finite_size(*ast), 10).has_value());
  EXPECT_EQ(finite_strings(*ast, finite_size(*ast), 10)->size(), 10u);
  EXPECT_FALSE(finite_strings(*ast, finite_size(*ast), 9).has_value());
  // 26^12 strings: refused by the count, which saturates instead of
  // wrapping; building them would not finish.
  const RegexPtr huge = parse_regex("[a-z]{12}");
  EXPECT_FALSE(finite_strings(*huge, finite_size(*huge), 50000).has_value());
  const FiniteSize saturated = *finite_size(*parse_regex("[a-z]{100}"));
  EXPECT_EQ(saturated.strings, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(saturated.bytes, std::numeric_limits<std::uint64_t>::max());
}

std::vector<std::vector<Symbol>> as_symbols(const std::vector<std::string>& strings) {
  std::vector<std::vector<Symbol>> out;
  for (const std::string& s : strings) {
    out.emplace_back();
    for (unsigned char c : s) out.back().push_back(c);
  }
  return out;
}

// minimal_dfa over `sorted` equals minimize and Hopcroft over the trie.
void expect_matches_trie(const std::vector<std::vector<Symbol>>& sorted,
                         const Dfa& built, Symbol num_symbols) {
  const Dfa trie = trie_dfa(sorted, num_symbols);
  EXPECT_EQ(built, minimize(trie));
  EXPECT_EQ(built, minimize_hopcroft(trie));
}

TEST(MinimalDfa, RandomSortedSetsOverBytes) {
  util::Pcg32 rng(2000);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // A narrow alphabet shares prefixes and suffixes; a few high bytes
    // check the unsigned order.
    const unsigned lo = trial % 3 == 0 ? 0xf0 : 'a';
    std::vector<std::string> strings(1 + rng.bounded(60));
    for (std::string& s : strings) {
      s.resize(rng.bounded(8));
      for (char& c : s) c = static_cast<char>(lo + rng.bounded(4));
    }
    std::sort(strings.begin(), strings.end());
    strings.erase(std::unique(strings.begin(), strings.end()), strings.end());
    const Dfa built = minimal_dfa(strings);
    expect_matches_trie(as_symbols(strings), built, 256);
    EXPECT_EQ(built, minimal_dfa(as_symbols(strings), 256));
  }
}

TEST(MinimalDfa, SequencesOverATokenAlphabet) {
  constexpr Symbol kVocab = 774;
  util::Pcg32 rng(774);
  std::vector<std::vector<Symbol>> endings;
  for (int i = 0; i < 30; ++i) {
    std::vector<Symbol> ending(1 + rng.bounded(3));
    for (Symbol& t : ending) t = rng.bounded(kVocab);
    endings.push_back(ending);
  }
  std::vector<std::vector<Symbol>> sequences;
  for (int i = 0; i < 400; ++i) {
    std::vector<Symbol> path(rng.bounded(4));
    for (Symbol& t : path) t = rng.bounded(kVocab);
    const auto& ending = endings[rng.bounded(30)];
    path.insert(path.end(), ending.begin(), ending.end());
    if (rng.bounded(2) == 0) path.push_back(kVocab - 1 - rng.bounded(3));
    sequences.push_back(path);
  }
  std::sort(sequences.begin(), sequences.end());
  // Duplicates are ignored.
  const Dfa built = minimal_dfa(sequences, kVocab);
  EXPECT_LT(built.num_states(), trie_dfa(sequences, kVocab).num_states());
  expect_matches_trie(sequences, built, kVocab);
  sequences.erase(std::unique(sequences.begin(), sequences.end()),
                  sequences.end());
  EXPECT_EQ(minimal_dfa(sequences, kVocab), built);
}

TEST(MinimalDfa, EmptySetAndEmptyString) {
  const Dfa none = minimal_dfa(std::vector<std::string>{});
  EXPECT_EQ(none.num_states(), 1u);
  EXPECT_FALSE(none.is_final(none.start()));
  expect_matches_trie({}, none, 256);
  EXPECT_EQ(none, minimize(intersect(compile_regex("a"), compile_regex("b"))));

  const Dfa epsilon = minimal_dfa(std::vector<std::string>{""});
  EXPECT_EQ(epsilon.num_states(), 1u);
  EXPECT_TRUE(epsilon.is_final(epsilon.start()));
  expect_matches_trie({{}}, epsilon, 256);
  EXPECT_EQ(epsilon, compile_regex(""));
}

TEST(MinimalDfa, OneStringIsTheLiteralsChain) {
  const std::string text = "The keeper (of the old lighthouse) \xe2\x80\x94 left.";
  const Dfa built = minimal_dfa(std::vector<std::string>{text});
  ASSERT_EQ(built.num_states(), text.size() + 1);
  for (StateId s = 0; s < built.num_states(); ++s) {
    EXPECT_EQ(built.is_final(s), s == text.size());
    if (s < text.size()) {
      ASSERT_EQ(built.edges(s).size(), 1u);
      EXPECT_EQ(built.edges(s)[0],
                (Edge{static_cast<unsigned char>(text[s]), s + 1}));
    }
  }
  EXPECT_EQ(built, compile_ast(*RegexNode::literal_string(text)));
}

TEST(MinimalDfa, UnsortedInputThrows) {
  EXPECT_THROW(minimal_dfa(std::vector<std::string>{"b", "a"}), relm::Error);
  EXPECT_THROW(minimal_dfa(std::vector<std::string>{"ab", "a"}), relm::Error);
  // Bytes order unsigned: 0x80 sorts after 'z'.
  EXPECT_THROW(minimal_dfa(std::vector<std::string>{"\x80", "z"}), relm::Error);
  EXPECT_NO_THROW(minimal_dfa(std::vector<std::string>{"z", "\x80"}));
  EXPECT_THROW(minimal_dfa(std::vector<std::vector<Symbol>>{{5}, {4, 9}}, 10),
               relm::Error);
}

TEST(Trim, KeepsATrimMachineAndItsNumbering) {
  const Dfa url = compile_regex_unminimized(
      "https://www.([a-zA-Z0-9]|\\-|_|#|%)+.([a-zA-Z0-9]|\\-|_|#|%|/)+");
  EXPECT_EQ(trim(url), url);
  // A dead state and an unreachable one still go.
  Dfa dead(256);
  const StateId start = dead.add_state(false);
  const StateId final_state = dead.add_state(true);
  const StateId sink = dead.add_state(false);
  dead.add_state(true);  // unreachable
  dead.add_edge(start, 'a', final_state);
  dead.add_edge(start, 'b', sink);
  dead.set_start(start);
  const Dfa trimmed = trim(dead);
  EXPECT_EQ(trimmed.num_states(), 2u);
  EXPECT_EQ(trimmed, compile_regex("a"));
}

}  // namespace
}  // namespace relm::automata
