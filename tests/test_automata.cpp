#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "automata/determinize.hpp"
#include "automata/grep.hpp"
#include "automata/io.hpp"
#include "automata/levenshtein.hpp"
#include "automata/ops.hpp"
#include "automata/regex.hpp"
#include "automata/regex_parser.hpp"
#include "automata/walks.hpp"
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

TEST(Ops, UnionOf) {
  Dfa u = union_of(compile_regex("cat"), compile_regex("dog"));
  EXPECT_TRUE(u.accepts_bytes("cat"));
  EXPECT_TRUE(u.accepts_bytes("dog"));
  EXPECT_FALSE(u.accepts_bytes("cow"));
  EXPECT_TRUE(equivalent(u, compile_regex("(cat)|(dog)")));
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

TEST(Ops, Concat) {
  Dfa joined = concat(compile_regex("The "), compile_regex("(cat)|(dog)"));
  EXPECT_TRUE(joined.accepts_bytes("The cat"));
  EXPECT_TRUE(joined.accepts_bytes("The dog"));
  EXPECT_FALSE(joined.accepts_bytes("The "));
  EXPECT_TRUE(equivalent(joined, compile_regex("The ((cat)|(dog))")));
}

TEST(Ops, ConcatWithAmbiguousBoundary) {
  // a* . a* == a* — boundary nondeterminism must be resolved correctly.
  Dfa joined = concat(compile_regex("a*"), compile_regex("a*"));
  EXPECT_TRUE(equivalent(joined, compile_regex("a*")));
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
  EXPECT_TRUE(is_infinite_language(compile_regex("ab*")));
  EXPECT_FALSE(is_infinite_language(compile_regex("ab{0,100}")));
  EXPECT_FALSE(is_infinite_language(compile_regex("(cat)|(dog)")));
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
// Hopcroft minimization: must agree exactly with the Moore implementation.
// ---------------------------------------------------------------------------

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

INSTANTIATE_TEST_SUITE_P(
    Patterns, MinimizationAgreement,
    ::testing::Values("(a|b)*abb", "a*", "(a|ab)(c|bc)", "((a)|(bb))*",
                      "[a-f]{2,5}", "(cat)|(dog)|(cow)|(c.t)",
                      "x(y|z)*x|zz*", "(0|1(01*0)*1)*",  // binary multiples of 3
                      "a{3,7}b{0,4}", "(the )?((cat)|(dog)) (ran|sat)"));

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
  EXPECT_TRUE(equivalent(union_of(a, a), a));
  EXPECT_TRUE(equivalent(intersect(a, a), a));
  // Commutativity.
  EXPECT_TRUE(equivalent(union_of(a, b), union_of(b, a)));
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
  Dfa lhs = complement(union_of(ua, ub), universe);
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

TEST(Ops, PrefixClosure) {
  Dfa closed = prefix_closure(compile_regex("The cat"));
  EXPECT_TRUE(closed.accepts_bytes(""));
  EXPECT_TRUE(closed.accepts_bytes("The"));
  EXPECT_TRUE(closed.accepts_bytes("The ca"));
  EXPECT_TRUE(closed.accepts_bytes("The cat"));
  EXPECT_FALSE(closed.accepts_bytes("The cats"));
  EXPECT_FALSE(closed.accepts_bytes("cat"));
}

TEST(Ops, PrefixClosureOfEmptyLanguageStaysEmpty) {
  Dfa never = intersect(compile_regex("a"), compile_regex("b"));
  EXPECT_TRUE(is_empty_language(prefix_closure(never)));
}

TEST(Ops, MismatchedAlphabetsThrow) {
  Dfa bytes = compile_regex("a");
  Dfa tokens(100);
  tokens.set_start(tokens.add_state(true));
  EXPECT_THROW(union_of(bytes, tokens), relm::Error);
  EXPECT_THROW(intersect(bytes, tokens), relm::Error);
  EXPECT_THROW(concat(bytes, tokens), relm::Error);
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
