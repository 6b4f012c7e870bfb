#pragma once

#include <functional>

#include "automata/automaton.hpp"
#include "automata/regex_ast.hpp"

namespace relm::automata {

// Compiles a boolean-algebra subtree (`&`, `~`, `-`) to a DFA over bytes.
using BooleanCompiler = std::function<Dfa(const RegexNode&)>;

// Thompson construction: regex AST -> epsilon-NFA over the byte alphabet.
// Bounded repetitions r{m,n} are expanded structurally (m mandatory copies
// followed by n-m optional ones), matching the textbook treatment the paper
// cites (Hopcroft et al., 2007). A boolean-algebra node has no Thompson
// fragment: `boolean` compiles it, once per copy the tree makes, and its DFA
// is copied in as the node's fragment. Without `boolean` such a node throws
// relm::Error.
Nfa thompson_construct(const RegexNode& root,
                       const BooleanCompiler& boolean = {});

}  // namespace relm::automata
