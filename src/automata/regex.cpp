#include "automata/regex.hpp"

#include "automata/algebra.hpp"
#include "automata/determinize.hpp"
#include "automata/regex_parser.hpp"
#include "automata/thompson.hpp"
#include "obs/trace.hpp"

namespace relm::automata {

Dfa compile_regex(std::string_view pattern) {
  Dfa dfa = compile_regex_unminimized(pattern);
  RELM_TRACE_SPAN("regex.minimize");
  return minimize(dfa);
}

Dfa compile_regex_unminimized(std::string_view pattern) {
  RegexPtr ast;
  {
    RELM_TRACE_SPAN("regex.parse");
    ast = parse_regex(pattern);
  }
  // Boolean-algebra patterns (and plain ones alike) compile through the
  // algebra compiler under the environment-configured state budget; a
  // boolean-free AST goes through thompson + budgeted determinize.
  AlgebraOptions options;
  options.state_budget = determinize_budget_from_env();
  RELM_TRACE_SPAN("regex.determinize");
  return compile_ast(*ast, options);
}

}  // namespace relm::automata
