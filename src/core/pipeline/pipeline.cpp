#include "core/pipeline/pipeline.hpp"

#include "automata/algebra.hpp"
#include "automata/determinize.hpp"
#include "automata/finite.hpp"
#include "automata/ops.hpp"
#include "automata/regex_parser.hpp"
#include "automata/thompson.hpp"
#include "core/token_masks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"

namespace relm::core::pipeline {

namespace {

// The determinization state budget: the query's, else the environment's.
std::size_t state_budget(const SimpleSearchQuery& query) {
  return query.determinize_state_budget != 0
             ? query.determinize_state_budget
             : automata::determinize_budget_from_env();
}

// How a side's character DFA is built (pipeline.hpp).
enum class Construction { kStrings, kAlgebra, kThompson };

struct Plan {
  Construction how = Construction::kThompson;
  std::optional<automata::FiniteSize> size;  // finite_size of the side's AST
  bool encode = false;  // kStrings: token_lift encodes the strings
};

// A side compiles from its strings (docs/automata.md, "Pipeline") when it
// spells exactly one string, or when the canonical lift would enumerate its
// strings anyway (canonical strategy, no preprocessor, at most
// canonical_enumeration_budget strings counted with multiplicity; only then
// does token_lift encode them). Either way subset construction could not
// have run out of states: finite_size rules out dead NFA states, so subset
// construction makes at most one state per distinct prefix of the language,
// and there are at most bytes + 1 of those. A boolean tree has no
// finite_size.
Plan plan_of(const SimpleSearchQuery& query, Side side,
             const automata::RegexNode& ast, std::size_t budget) {
  bool enumerates = query.tokenization_strategy ==
                    TokenizationStrategy::kCanonicalTokens;
  for (const auto& pre : query.preprocessors) {
    if (pre->target() == side || pre->target() == Side::kBoth) enumerates = false;
  }
  Plan plan{Construction::kThompson, automata::finite_size(ast), false};
  if (!plan.size) {
    if (automata::has_boolean_ops(ast)) plan.how = Construction::kAlgebra;
  } else if (budget == 0 || plan.size->bytes < budget) {
    plan.encode = enumerates &&
                  plan.size->strings <= query.canonical_enumeration_budget;
    if (plan.encode || plan.size->strings == 1) plan.how = Construction::kStrings;
  }
  return plan;
}

// Runs one stage under its "compile.pass.<name>" span (a literal: spans
// store names by pointer, and the record names the stage by the span's
// suffix) and records its wall time.
template <class Body>
void stage(const char* span, std::vector<PassRecord>* records, Body&& body) {
  util::Timer timer;
  {
    obs::Span trace(span);
    body();
  }
  if (records) {
    records->push_back({span + sizeof("compile.pass.") - 1, timer.seconds()});
  }
}

}  // namespace

CompileState run_to_state(const SimpleSearchQuery& query, Side side,
                          const tokenizer::BpeTokenizer& tok,
                          std::vector<PassRecord>* records) {
  RELM_TRACE_SPAN("compile.query");
  CompileState s;
  const std::size_t budget = state_budget(query);
  Plan plan;
  stage("compile.pass.parse", records, [&] {
    RELM_TRACE_SPAN("regex.parse");  // legacy name, kept for trace tooling
    s.pattern = component_pattern(query, side);
    s.ast = automata::parse_regex(s.pattern);
  });
  stage("compile.pass.thompson", records, [&] {
    RELM_TRACE_SPAN("regex.thompson");  // legacy name, kept for trace tooling
    plan = plan_of(query, side, *s.ast, budget);
    if (plan.how == Construction::kThompson) {
      s.nfa = automata::thompson_construct(*s.ast);
    }
  });
  stage("compile.pass.determinize", records, [&] {
    // One state budget covers the whole stage: subset construction, or the
    // algebra's product and subset constructions.
    switch (plan.how) {
      case Construction::kStrings:
        // plan_of bounded the count already.
        s.strings = automata::finite_strings(*s.ast, plan.size,
                                             plan.size->strings);
        s.chars = automata::minimal_dfa(*s.strings);
        break;
      case Construction::kAlgebra:
        s.chars = automata::compile_ast(*s.ast, {.state_budget = budget});
        break;
      case Construction::kThompson:
        s.chars = automata::trim(automata::determinize(*s.nfa, budget));
        break;
    }
  });
  stage("compile.pass.minimize", records, [&] {
    // minimal_dfa's result is minimal already.
    if (plan.how != Construction::kStrings) {
      s.chars = automata::minimize(*s.chars);
    }
  });
  stage("compile.pass.preprocess", records, [&] {
    for (const auto& pre : query.preprocessors) {
      if (pre->target() == side || pre->target() == Side::kBoth) {
        s.chars = pre->apply(*s.chars);
      }
    }
    // An empty language (a vacuous algebra query like `a & !a`, or a
    // preprocessor that filtered everything out) is NOT an error: the
    // component records it and executors return zero matches with zero
    // model calls (the empty-language fast path).
  });
  stage("compile.pass.token_lift", records, [&] {
    s.tokens = plan.encode
                   ? canonical_token_automaton(*s.strings, tok)
                   : compile_token_automaton(
                         *s.chars, tok, query.tokenization_strategy,
                         query.canonical_enumeration_budget);
  });
  stage("compile.pass.token_masks", records, [&] {
    // The budget depends only on the automaton (never on executor flags),
    // keeping cached/fresh/reloaded compiles byte-identical.
    s.tokens->masks = budgeted_token_masks(s.tokens->dfa);
  });
  return s;
}

CompileResult run(const SimpleSearchQuery& query, Side side,
                  const tokenizer::BpeTokenizer& tok) {
  std::vector<PassRecord> passes;
  CompileState state = run_to_state(query, side, tok, &passes);
  if (!state.tokens) throw relm::QueryError("pipeline made no token automaton");
  return CompileResult{std::move(*state.tokens), std::move(passes)};
}

std::shared_ptr<const Component> compile_component(
    const SimpleSearchQuery& query, Side side,
    const tokenizer::BpeTokenizer& tok, const ArtifactKey& key) {
  auto component = std::make_shared<Component>();
  component->key = key;
  component->vocab_fingerprint = tok.fingerprint();
  component->strategy = query.tokenization_strategy;
  if (side == Side::kPrefix && query.query_string.prefix_str.empty()) {
    component->automaton = epsilon_token_automaton(tok);
    component->automaton.masks =
        budgeted_token_masks(component->automaton.dfa);
  } else {
    component->automaton = run(query, side, tok).automaton;
  }
  component->empty_language =
      automata::is_empty_language(component->automaton.dfa);
  if (component->empty_language) {
    static obs::Counter& empties =
        obs::Registry::instance().counter("compile.empty_language");
    empties.add();
  }
  return component;
}

}  // namespace relm::core::pipeline
