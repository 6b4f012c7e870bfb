#pragma once

#include <string_view>

#include "automata/automaton.hpp"

namespace relm::automata {

// One-call pipeline: parse -> Thompson -> determinize -> minimize (a
// literal pattern skips Thompson and determinize: it is its chain DFA).
// This is the "Natural Language Automaton" of §3.1: a minimal byte-level DFA
// equivalent to the regular expression. Throws relm::RegexError on parse
// failure.
Dfa compile_regex(std::string_view pattern);

// As above but without minimization (useful when the caller will immediately
// compose further and minimize once at the end).
Dfa compile_regex_unminimized(std::string_view pattern);

}  // namespace relm::automata
