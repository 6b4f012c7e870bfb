#pragma once

#include <bit>
#include <bitset>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace relm::automata {

// Character set over the byte alphabet. Regular-expression atoms are always
// sets (a literal `a` is the singleton set {a}); this collapses literals,
// escapes like \d, `.` and bracket classes into one node kind.
using ByteSet = std::bitset<256>;

// Calls f(b) for every member b of `set` in ascending order, a 64-bit word at
// a time, so a set costs its members rather than 256 bit tests.
template <class F>
void for_each_byte(const ByteSet& set, F&& f) {
  constexpr ByteSet low_word(~0ull);
  for (unsigned word = 0; word < 4; ++word) {
    std::uint64_t bits = ((set >> (64 * word)) & low_word).to_ullong();
    for (; bits != 0; bits &= bits - 1) {
      f(64 * word + static_cast<unsigned>(std::countr_zero(bits)));
    }
  }
}

enum class RegexKind {
  kEmptySet,    // ∅ — matches nothing
  kEpsilon,     // ε — matches the empty string
  kCharClass,   // one symbol drawn from a ByteSet
  kConcat,      // r1 r2 ... rn
  kAlternate,   // r1 | r2 | ... | rn
  kRepeat,      // r{min,max}; max == kUnbounded means r{min,}
  // Boolean query algebra (ISSUE 9). These are not regular operators in the
  // Thompson sense: they compile through the algebra product/subset
  // construction (automata/algebra.hpp), not thompson_construct.
  kIntersect,   // r1 & r2 & ... & rn — strings in every child language
  kComplement,  // ~r — strings over the text universe NOT in L(r)
  kDifference,  // r1 - r2 — L(r1) \ L(r2)
};

inline constexpr int kUnbounded = -1;

struct RegexNode;
using RegexPtr = std::unique_ptr<RegexNode>;

struct RegexNode {
  RegexKind kind;
  ByteSet char_class;             // kCharClass
  std::vector<RegexPtr> children; // kConcat / kAlternate / kRepeat (1 child)
  int repeat_min = 0;             // kRepeat
  int repeat_max = 0;             // kRepeat; kUnbounded for open-ended

  static RegexPtr empty_set();
  static RegexPtr epsilon();
  static RegexPtr char_class_node(ByteSet set);
  static RegexPtr literal(unsigned char c);
  static RegexPtr literal_string(std::string_view text);
  static RegexPtr concat(std::vector<RegexPtr> children);
  static RegexPtr alternate(std::vector<RegexPtr> children);
  static RegexPtr repeat(RegexPtr child, int min, int max);
  static RegexPtr intersect(std::vector<RegexPtr> children);
  static RegexPtr complement(RegexPtr child);
  static RegexPtr difference(RegexPtr left, RegexPtr right);

  RegexPtr clone() const;
};

// True iff the tree contains any boolean-algebra node (kIntersect,
// kComplement, kDifference). Such trees must compile through
// automata/algebra.hpp; thompson_construct rejects them.
bool has_boolean_ops(const RegexNode& node);

// Named byte sets shared by the parser and the Levenshtein preprocessor.
// The paper's queries operate over ASCII (§B notes Unicode needs byte-level
// rewrites, which our byte alphabet supports but the built-in classes target
// printable ASCII).
ByteSet printable_ascii();          // 0x20..0x7e
ByteSet printable_ascii_and_ws();   // printable plus \t \n \r
ByteSet digit_set();                // [0-9]
ByteSet word_set();                 // [A-Za-z0-9_]
ByteSet space_set();                // [ \t\n\r\f\v]

}  // namespace relm::automata
