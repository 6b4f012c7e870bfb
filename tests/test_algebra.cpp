// Tests for the boolean query algebra (src/automata/algebra.*): operator
// semantics, the algebraic laws (decided by dfa_equivalent, not examples),
// the lazy product against the eager reference (testing/eager_algebra.hpp)
// under a state budget, and the distinguishing-word machinery itself.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "automata/algebra.hpp"
#include "automata/determinize.hpp"
#include "automata/ops.hpp"
#include "automata/regex.hpp"
#include "automata/regex_ast.hpp"
#include "automata/regex_parser.hpp"
#include "automata/thompson.hpp"
#include "testing/determinize_per_byte.hpp"
#include "testing/eager_algebra.hpp"
#include "testing/fuzz_targets.hpp"
#include "testing/generators.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace {

using namespace relm;
namespace rt = relm::testing;
using automata::AlgebraOptions;
using automata::compile_ast;
using automata::compile_regex;
using automata::dfa_equivalent;
using automata::Dfa;
using automata::RegexNode;
using automata::RegexPtr;

Dfa compile(const std::string& pattern, AlgebraOptions options = {}) {
  return compile_ast(*automata::parse_regex(pattern), options);
}

// ---------------------------------------------------------------------------
// Operator semantics
// ---------------------------------------------------------------------------

TEST(Algebra, IntersectionKeepsOnlyCommonStrings) {
  Dfa dfa = compile("(ab|cd|ef)&(ab|ef|gh)");
  EXPECT_TRUE(dfa.accepts_bytes("ab"));
  EXPECT_TRUE(dfa.accepts_bytes("ef"));
  EXPECT_FALSE(dfa.accepts_bytes("cd"));
  EXPECT_FALSE(dfa.accepts_bytes("gh"));
}

TEST(Algebra, IntersectionIsNAry) {
  Dfa dfa = compile("[ab]*&[bc]*&[bd]*");
  EXPECT_TRUE(dfa.accepts_bytes(""));
  EXPECT_TRUE(dfa.accepts_bytes("bbb"));
  EXPECT_FALSE(dfa.accepts_bytes("a"));
  EXPECT_FALSE(dfa.accepts_bytes("c"));
}

TEST(Algebra, ComplementIsRelativeToPrintableUniverse) {
  Dfa dfa = compile("~(ab)");
  EXPECT_FALSE(dfa.accepts_bytes("ab"));
  EXPECT_TRUE(dfa.accepts_bytes(""));
  EXPECT_TRUE(dfa.accepts_bytes("a"));
  EXPECT_TRUE(dfa.accepts_bytes("abc"));
  EXPECT_TRUE(dfa.accepts_bytes("hello world\n"));
  // Strings containing non-universe bytes are NOT in the complement: `~r`
  // means universe^* minus L(r), exactly like [^...] means universe minus
  // the listed bytes.
  EXPECT_FALSE(dfa.accepts_bytes(std::string("\x01", 1)));
}

TEST(Algebra, BangAndTildeAreSynonyms) {
  EXPECT_TRUE(dfa_equivalent(compile("!(ab)"), compile("~(ab)")));
}

TEST(Algebra, DifferenceIsExactSetDifference) {
  Dfa dfa = compile("(ab|cd|ef)-(cd)");
  EXPECT_TRUE(dfa.accepts_bytes("ab"));
  EXPECT_TRUE(dfa.accepts_bytes("ef"));
  EXPECT_FALSE(dfa.accepts_bytes("cd"));
}

TEST(Algebra, DifferenceKeepsNonUniverseBytesComplementDrops) {
  // `-` is exact set difference with no universe restriction, so a string
  // with a control byte survives subtraction; `&~` would lose it because the
  // complement operand only contains universe strings. This is the deliberate
  // semantic distinction between the two spellings.
  Dfa minus = compile("(\\x01|b)-(b)");
  EXPECT_TRUE(minus.accepts_bytes(std::string("\x01", 1)));
  EXPECT_FALSE(minus.accepts_bytes("b"));
  Dfa and_not = compile("(\\x01|b)&~(b)");
  EXPECT_FALSE(and_not.accepts_bytes(std::string("\x01", 1)));
}

TEST(Algebra, DifferenceFromComplementKeepsNonUniverseBytes) {
  // `~a` holds only universe strings, so subtracting it from a string with
  // a byte outside the universe removes nothing: \xed - ~a = {"\xed"}.
  RegexPtr ast = automata::parse_regex("\\xed-~a");
  Dfa dfa = compile_ast(*ast);
  EXPECT_TRUE(dfa.accepts_bytes("\xed"));
  EXPECT_FALSE(dfa.accepts_bytes("a"));
  EXPECT_TRUE(dfa_equivalent(dfa, rt::compile_ast_eager(*ast)));
}

TEST(Algebra, FuzzSeed7DifferenceFromComplementMatchesEager) {
  // fuzz_algebra_compile --seed 7, reduced: raw bytes, both outside the
  // universe. ~\xc2 is every universe string, and \x9f is not one.
  RegexPtr ast = automata::parse_regex("\x9f-~\xc2");
  Dfa dfa = compile_ast(*ast);
  EXPECT_TRUE(dfa.accepts_bytes("\x9f"));
  EXPECT_TRUE(dfa_equivalent(dfa, rt::compile_ast_eager(*ast)));
}

TEST(Algebra, OperatorsComposeWithRegularOperators) {
  // Boolean subexpressions nest under concatenation and repetition.
  Dfa dfa = compile("x((ab|cd)-(cd))y");
  EXPECT_TRUE(dfa.accepts_bytes("xaby"));
  EXPECT_FALSE(dfa.accepts_bytes("xcdy"));
  Dfa rep = compile("((a|b)&(a|c))*");
  EXPECT_TRUE(rep.accepts_bytes(""));
  EXPECT_TRUE(rep.accepts_bytes("aaa"));
  EXPECT_FALSE(rep.accepts_bytes("b"));
}

TEST(Algebra, PrecedenceMatchesDocumentedTable) {
  // `|` < `-` < `&` < concat < `~` (see docs/cli.md).
  EXPECT_TRUE(dfa_equivalent(compile("a|b-c"), compile("a|(b-c)")));
  EXPECT_TRUE(dfa_equivalent(compile("ab-c&d"), compile("(ab)-((c)&(d))")));
  EXPECT_TRUE(dfa_equivalent(compile("a&bc"), compile("a&(bc)")));
  EXPECT_TRUE(dfa_equivalent(compile("~ab"), compile("(~a)b")));
  EXPECT_TRUE(dfa_equivalent(compile("~a*"), compile("~(a*)")));
  // `-` is left-associative: a-b-c = (a-b)-c.
  EXPECT_TRUE(dfa_equivalent(compile("a-b-c"), compile("(a-b)-c")));
}

// ---------------------------------------------------------------------------
// Algebraic laws, decided by dfa_equivalent over random ASTs
// ---------------------------------------------------------------------------

class AlgebraLaws : public ::testing::Test {
 protected:
  // Draw boolean-free operand ASTs: the laws quantify over arbitrary regular
  // operands; the operators under test are applied on top.
  RegexPtr draw(util::Pcg32& rng) {
    rt::RegexGenConfig config;
    config.max_depth = 3;
    config.algebra_weight = 0;
    return rt::random_regex(rng, config);
  }
};

TEST_F(AlgebraLaws, DoubleComplementIsIdentity) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    util::Pcg32 rng(seed, 0x11);
    RegexPtr a = draw(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                 rt::pattern_of(*a));
    Dfa lhs = compile_ast(*RegexNode::complement(
        RegexNode::complement(a->clone())));
    // !!A clips A to universe strings: compare against A ∩ universe^*.
    std::vector<RegexPtr> children;
    children.push_back(a->clone());
    children.push_back(RegexNode::repeat(
        RegexNode::char_class_node(automata::printable_ascii_and_ws()), 0,
        automata::kUnbounded));
    Dfa rhs = compile_ast(*RegexNode::intersect(std::move(children)));
    EXPECT_TRUE(dfa_equivalent(lhs, rhs));
  }
}

TEST_F(AlgebraLaws, DeMorgan) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    util::Pcg32 rng(seed, 0x22);
    RegexPtr a = draw(rng);
    RegexPtr b = draw(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                 rt::pattern_of(*a) + " , " + rt::pattern_of(*b));
    // ~(A|B) == ~A & ~B
    std::vector<RegexPtr> alt;
    alt.push_back(a->clone());
    alt.push_back(b->clone());
    Dfa lhs = compile_ast(
        *RegexNode::complement(RegexNode::alternate(std::move(alt))));
    std::vector<RegexPtr> both;
    both.push_back(RegexNode::complement(a->clone()));
    both.push_back(RegexNode::complement(b->clone()));
    Dfa rhs = compile_ast(*RegexNode::intersect(std::move(both)));
    EXPECT_TRUE(dfa_equivalent(lhs, rhs));
    // ~(A&B) == ~A | ~B
    std::vector<RegexPtr> inter;
    inter.push_back(a->clone());
    inter.push_back(b->clone());
    Dfa lhs2 = compile_ast(
        *RegexNode::complement(RegexNode::intersect(std::move(inter))));
    std::vector<RegexPtr> either;
    either.push_back(RegexNode::complement(a->clone()));
    either.push_back(RegexNode::complement(b->clone()));
    Dfa rhs2 = compile_ast(*RegexNode::alternate(std::move(either)));
    EXPECT_TRUE(dfa_equivalent(lhs2, rhs2));
  }
}

TEST_F(AlgebraLaws, DifferenceEqualsIntersectWithComplement) {
  // Over universe-alphabet operands (the generator draws from "abcd"),
  // A - B == A & ~B; the exact-difference distinction only shows up for
  // operands touching non-universe bytes (pinned separately above).
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    util::Pcg32 rng(seed, 0x33);
    RegexPtr a = draw(rng);
    RegexPtr b = draw(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                 rt::pattern_of(*a) + " , " + rt::pattern_of(*b));
    Dfa lhs = compile_ast(*RegexNode::difference(a->clone(), b->clone()));
    std::vector<RegexPtr> both;
    both.push_back(a->clone());
    both.push_back(RegexNode::complement(b->clone()));
    Dfa rhs = compile_ast(*RegexNode::intersect(std::move(both)));
    EXPECT_TRUE(dfa_equivalent(lhs, rhs));
  }
}

TEST_F(AlgebraLaws, SelfIntersectionWithComplementIsEmpty) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    util::Pcg32 rng(seed, 0x44);
    RegexPtr a = draw(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                 rt::pattern_of(*a));
    std::vector<RegexPtr> both;
    both.push_back(a->clone());
    both.push_back(RegexNode::complement(a->clone()));
    Dfa vacuous = compile_ast(*RegexNode::intersect(std::move(both)));
    EXPECT_TRUE(automata::is_empty_language(vacuous));
    Dfa self_diff = compile_ast(*RegexNode::difference(a->clone(), a->clone()));
    EXPECT_TRUE(automata::is_empty_language(self_diff));
  }
}

TEST_F(AlgebraLaws, LazyAndEagerAgree) {
  rt::RegexGenConfig config;
  config.max_depth = 3;
  config.algebra_weight = 2;  // force plenty of boolean nodes
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    util::Pcg32 rng(seed, 0x55);
    RegexPtr ast = rt::random_regex(rng, config);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " +
                 rt::pattern_of(*ast));
    EXPECT_TRUE(dfa_equivalent(compile_ast(*ast), rt::compile_ast_eager(*ast)));
  }
}

// ---------------------------------------------------------------------------
// Lazy determinization under a state budget
// ---------------------------------------------------------------------------

// The adversarial query: the left operand's NFA needs ~2^15 DFA states when
// determinized in isolation ((a|b)*a(a|b){14} — the classic subset-blowup
// family), but intersecting with a 4-state language makes almost all of that
// space unreachable. Lazy evaluation explores only the product states the
// intersection can visit and stays in the tens of states; eager evaluation
// determinizes the leaf first and blows the same budget.
constexpr char kAdversarialPattern[] = "((a|b)*a(a|b){14})&(a{0,3})";
constexpr std::size_t kAdversarialBudget = 4096;

TEST(AlgebraBudget, LazyCompilesAdversarialQueryWithinBudget) {
  AlgebraOptions options;
  options.state_budget = kAdversarialBudget;
  Dfa dfa = compile(kAdversarialPattern, options);
  // The intersection is empty (the left operand needs length >= 15).
  EXPECT_TRUE(automata::is_empty_language(dfa));
}

TEST(AlgebraBudget, EagerExceedsTheSameBudget) {
  AlgebraOptions options;
  options.state_budget = kAdversarialBudget;
  try {
    rt::compile_ast_eager(*automata::parse_regex(kAdversarialPattern), options);
    FAIL() << "expected StateBudgetError";
  } catch (const relm::StateBudgetError& e) {
    EXPECT_EQ(e.budget(), kAdversarialBudget);
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
}

TEST(AlgebraBudget, EagerSucceedsUnbounded) {
  // state_budget = 0: unlimited
  EXPECT_TRUE(dfa_equivalent(
      compile(kAdversarialPattern),
      rt::compile_ast_eager(*automata::parse_regex(kAdversarialPattern))));
}

TEST(AlgebraBudget, TinyBudgetFailsEvenLazy) {
  AlgebraOptions options;
  options.state_budget = 2;
  EXPECT_THROW(compile("(abcdefgh)&(abcdefgh)", options),
               relm::StateBudgetError);
}

TEST(AlgebraBudget, PlainDeterminizeHonoursBudget) {
  automata::Nfa nfa =
      automata::thompson_construct(*automata::parse_regex("(a|b)*a(a|b){10}"));
  EXPECT_THROW(automata::determinize(nfa, 16), relm::StateBudgetError);
  Dfa unbounded = automata::determinize(nfa);
  EXPECT_TRUE(unbounded.accepts_bytes("babbbbbbbbbb"));
}

TEST(AlgebraBudget, LiteralNeedsOneStatePerPrefix) {
  // "abcdef" takes Thompson + subset construction: one state per prefix, 7
  // in all, so budgets of 6 and 7 split compile_ast and determinize the
  // same way (the pipeline's bound for a side built from its strings is the
  // same bytes + 1).
  RegexPtr ast = automata::parse_regex("abcdef");
  AlgebraOptions options;
  options.state_budget = 6;
  EXPECT_THROW(compile_ast(*ast, options), relm::StateBudgetError);
  EXPECT_THROW(automata::determinize(automata::thompson_construct(*ast), 6),
               relm::StateBudgetError);
  options.state_budget = 7;
  EXPECT_EQ(compile_ast(*ast, options).num_states(), 7u);
  EXPECT_EQ(automata::determinize(automata::thompson_construct(*ast), 7)
                .num_states(),
            7u);
}

TEST(AlgebraBudget, EmbeddedProductKeepsItsStateCount) {
  // Regular operators over boolean subtrees. Thompson embeds a subtree's
  // product DFA once per copy the tree makes, and one subset construction
  // runs over the whole NFA; the budget is charged with every product's
  // states, then the subset construction's. `x(a&[ab])+y` charges 2 + 2
  // product states (`+` makes two copies) and 5 subset states, so it
  // compiles at 9 and fails at 8. A cached or renumbered embedded fragment
  // would move these figures.
  struct Case {
    const char* pattern;
    std::size_t states;
    std::size_t budget;
  };
  for (const Case& c : {Case{"x(a&[ab])+y", 5, 9}, Case{"((~a)|b){2}c", 7, 13},
                        Case{"[w-z](~[a-c])y", 5, 8},
                        Case{"(a-(b|c))*d", 3, 5}}) {
    SCOPED_TRACE(c.pattern);
    RegexPtr ast = automata::parse_regex(c.pattern);
    EXPECT_EQ(compile_ast(*ast).num_states(), c.states);
    AlgebraOptions options;
    options.state_budget = c.budget - 1;
    EXPECT_THROW(compile_ast(*ast, options), relm::StateBudgetError);
    options.state_budget = c.budget;
    EXPECT_EQ(compile_ast(*ast, options).num_states(), c.states);
  }
}

TEST(AlgebraBudget, EnvVariableControlsDefault) {
  ASSERT_EQ(setenv("RELM_DETERMINIZE_BUDGET", "12345", 1), 0);
  EXPECT_EQ(automata::determinize_budget_from_env(), 12345u);
  ASSERT_EQ(setenv("RELM_DETERMINIZE_BUDGET", "0", 1), 0);
  EXPECT_EQ(automata::determinize_budget_from_env(), 0u);  // unlimited
  ASSERT_EQ(unsetenv("RELM_DETERMINIZE_BUDGET"), 0);
  EXPECT_EQ(automata::determinize_budget_from_env(),
            automata::kDefaultDeterminizeBudget);
}

// A boolean subtree under regular operators: Thompson embeds the DFA its
// callback compiles, and without a callback it refuses the node.
TEST(Thompson, BooleanNodeNeedsACompiler) {
  for (const char* pattern : {"x(a&b)", "x(a&[ab])+y"}) {
    SCOPED_TRACE(pattern);
    RegexPtr ast = automata::parse_regex(pattern);
    EXPECT_THROW(automata::thompson_construct(*ast), relm::Error);
    const automata::Nfa nfa = automata::thompson_construct(
        *ast, [](const RegexNode& node) { return compile_ast(node); });
    EXPECT_EQ(automata::trim(automata::determinize(nfa)), compile_ast(*ast));
  }
}

// ---------------------------------------------------------------------------
// dfa_equivalent / dfa_distinguishing_word
// ---------------------------------------------------------------------------

TEST(DfaEquivalent, AcceptsHandBuiltEquivalentPair) {
  // Two structurally different machines for "even number of a's".
  Dfa a(2);
  auto a0 = a.add_state(true);
  auto a1 = a.add_state(false);
  a.add_edge(a0, 0, a1);
  a.add_edge(a1, 0, a0);
  a.add_edge(a0, 1, a0);
  a.add_edge(a1, 1, a1);

  Dfa b(2);  // four states, same language (parity duplicated)
  auto b0 = b.add_state(true);
  auto b1 = b.add_state(false);
  auto b2 = b.add_state(true);
  auto b3 = b.add_state(false);
  b.add_edge(b0, 0, b1);
  b.add_edge(b1, 0, b2);
  b.add_edge(b2, 0, b3);
  b.add_edge(b3, 0, b0);
  b.add_edge(b0, 1, b0);
  b.add_edge(b1, 1, b3);
  b.add_edge(b2, 1, b2);
  b.add_edge(b3, 1, b1);
  EXPECT_TRUE(dfa_equivalent(a, b));
  EXPECT_FALSE(automata::dfa_distinguishing_word(a, b).has_value());
}

TEST(DfaEquivalent, RejectsWithShortestWitness) {
  Dfa a = compile_regex("ab*");
  Dfa b = compile_regex("ab*b");
  auto word = automata::dfa_distinguishing_word(a, b);
  ASSERT_TRUE(word.has_value());
  // Shortest distinguishing word is "a" (in L(a), not in L(b)).
  ASSERT_EQ(word->size(), 1u);
  EXPECT_EQ((*word)[0], static_cast<automata::Symbol>('a'));
  EXPECT_FALSE(dfa_equivalent(a, b));
}

TEST(DfaEquivalent, DistinguishesOnMissingEdges) {
  // kNoState (missing transition) must behave as an implicit dead state.
  Dfa a = compile_regex("a");
  Dfa b = compile_regex("a|b");
  auto word = automata::dfa_distinguishing_word(a, b);
  ASSERT_TRUE(word.has_value());
  ASSERT_EQ(word->size(), 1u);
  EXPECT_EQ((*word)[0], static_cast<automata::Symbol>('b'));
}

TEST(DfaEquivalent, EmptyVsEpsilonLanguages) {
  Dfa empty = compile("a&b");       // empty language
  Dfa epsilon = compile_regex("()");  // language { "" }
  auto word = automata::dfa_distinguishing_word(empty, epsilon);
  ASSERT_TRUE(word.has_value());
  EXPECT_TRUE(word->empty());  // "" itself is the witness
  EXPECT_TRUE(dfa_equivalent(empty, compile("c&d")));
}

TEST(DfaEquivalent, ThrowsOnAlphabetMismatch) {
  Dfa bytes(256);
  bytes.add_state(true);
  Dfa tokens(500);
  tokens.add_state(true);
  EXPECT_THROW((void)dfa_equivalent(bytes, tokens), relm::Error);
}

// ---------------------------------------------------------------------------
// Fuzz corpus: the regex seeds
// ---------------------------------------------------------------------------

// tests/fuzz_corpus/*.regex hold patterns random bytes rarely produce:
// overlapping ranges, negated classes, complements and differences against
// the universe. Each must compile within fuzz_algebra_compile's budget, agree
// with the eager reference, determinize (when boolean-free) exactly as the
// per-byte reference does, and pass the fuzz targets themselves
// (scripts/fuzz.sh replays them through every structured target).
TEST(FuzzCorpus, RegexSeedsCompileAndAgreeWithReferences) {
  std::vector<std::filesystem::path> seeds;
  for (const auto& entry :
       std::filesystem::directory_iterator(RELM_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".regex") seeds.push_back(entry.path());
  }
  std::sort(seeds.begin(), seeds.end());
  ASSERT_GE(seeds.size(), 6u);
  for (const auto& path : seeds) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path, std::ios::binary);
    const std::string pattern{std::istreambuf_iterator<char>(in), {}};
    ASSERT_FALSE(pattern.empty());
    RegexPtr ast = automata::parse_regex(pattern);
    AlgebraOptions options;
    options.state_budget = 4096;
    const Dfa lazy = compile_ast(*ast, options);
    EXPECT_TRUE(dfa_equivalent(lazy, rt::compile_ast_eager(*ast)));
    if (!automata::has_boolean_ops(*ast)) {
      const automata::Nfa nfa = automata::thompson_construct(*ast);
      EXPECT_EQ(automata::determinize(nfa), rt::determinize_per_byte(nfa));
    }
    EXPECT_EQ(rt::fuzz_algebra_compile(
                  reinterpret_cast<const std::uint8_t*>(pattern.data()),
                  pattern.size()),
              0);
    EXPECT_EQ(rt::fuzz_regex_parser(reinterpret_cast<const std::uint8_t*>(pattern.data()),
                                    pattern.size()),
              0);
  }
}

}  // namespace
