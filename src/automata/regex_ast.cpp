#include "automata/regex_ast.hpp"

namespace relm::automata {

RegexPtr RegexNode::empty_set() {
  auto node = std::make_unique<RegexNode>();
  node->kind = RegexKind::kEmptySet;
  return node;
}

RegexPtr RegexNode::epsilon() {
  auto node = std::make_unique<RegexNode>();
  node->kind = RegexKind::kEpsilon;
  return node;
}

RegexPtr RegexNode::char_class_node(ByteSet set) {
  auto node = std::make_unique<RegexNode>();
  node->kind = RegexKind::kCharClass;
  node->char_class = set;
  return node;
}

RegexPtr RegexNode::literal(unsigned char c) {
  ByteSet set;
  set.set(c);
  return char_class_node(set);
}

RegexPtr RegexNode::literal_string(std::string_view text) {
  std::vector<RegexPtr> parts;
  parts.reserve(text.size());
  for (unsigned char c : text) parts.push_back(literal(c));
  return concat(std::move(parts));
}

RegexPtr RegexNode::concat(std::vector<RegexPtr> children) {
  if (children.empty()) return epsilon();
  if (children.size() == 1) return std::move(children.front());
  auto node = std::make_unique<RegexNode>();
  node->kind = RegexKind::kConcat;
  node->children = std::move(children);
  return node;
}

RegexPtr RegexNode::alternate(std::vector<RegexPtr> children) {
  if (children.empty()) return empty_set();
  if (children.size() == 1) return std::move(children.front());
  auto node = std::make_unique<RegexNode>();
  node->kind = RegexKind::kAlternate;
  node->children = std::move(children);
  return node;
}

RegexPtr RegexNode::repeat(RegexPtr child, int min, int max) {
  auto node = std::make_unique<RegexNode>();
  node->kind = RegexKind::kRepeat;
  node->children.push_back(std::move(child));
  node->repeat_min = min;
  node->repeat_max = max;
  return node;
}

RegexPtr RegexNode::intersect(std::vector<RegexPtr> children) {
  if (children.size() == 1) return std::move(children.front());
  auto node = std::make_unique<RegexNode>();
  node->kind = RegexKind::kIntersect;
  node->children = std::move(children);
  return node;
}

RegexPtr RegexNode::complement(RegexPtr child) {
  auto node = std::make_unique<RegexNode>();
  node->kind = RegexKind::kComplement;
  node->children.push_back(std::move(child));
  return node;
}

RegexPtr RegexNode::difference(RegexPtr left, RegexPtr right) {
  auto node = std::make_unique<RegexNode>();
  node->kind = RegexKind::kDifference;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

bool has_boolean_ops(const RegexNode& node) {
  if (node.kind == RegexKind::kIntersect ||
      node.kind == RegexKind::kComplement ||
      node.kind == RegexKind::kDifference) {
    return true;
  }
  for (const auto& child : node.children) {
    if (has_boolean_ops(*child)) return true;
  }
  return false;
}

RegexPtr RegexNode::clone() const {
  auto node = std::make_unique<RegexNode>();
  node->kind = kind;
  node->char_class = char_class;
  node->repeat_min = repeat_min;
  node->repeat_max = repeat_max;
  node->children.reserve(children.size());
  for (const auto& child : children) node->children.push_back(child->clone());
  return node;
}

ByteSet printable_ascii() {
  ByteSet set;
  for (int c = 0x20; c <= 0x7e; ++c) set.set(c);
  return set;
}

ByteSet printable_ascii_and_ws() {
  ByteSet set = printable_ascii();
  set.set('\t');
  set.set('\n');
  set.set('\r');
  return set;
}

ByteSet digit_set() {
  ByteSet set;
  for (int c = '0'; c <= '9'; ++c) set.set(c);
  return set;
}

ByteSet word_set() {
  ByteSet set = digit_set();
  for (int c = 'a'; c <= 'z'; ++c) set.set(c);
  for (int c = 'A'; c <= 'Z'; ++c) set.set(c);
  set.set('_');
  return set;
}

ByteSet space_set() {
  ByteSet set;
  for (char c : {' ', '\t', '\n', '\r', '\f', '\v'}) set.set(static_cast<unsigned char>(c));
  return set;
}

}  // namespace relm::automata
