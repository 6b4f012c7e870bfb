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

// Each pass opens its own trace span with a distinct literal (the macro
// stores names by pointer), so flame graphs show the compile chain stage by
// stage alongside the aggregate "compile.query" span.

// The determinization state budget: the query's, else the environment's.
std::size_t state_budget(const CompileState& s) {
  return s.query->determinize_state_budget != 0
             ? s.query->determinize_state_budget
             : automata::determinize_budget_from_env();
}

// True when the side compiles from its strings (docs/automata.md,
// "Pipeline"): the canonical lift would enumerate them anyway (canonical
// strategy, no preprocessor, at most canonical_enumeration_budget strings
// counted with multiplicity), and the old path could not have run out of
// states. finite_size rules out dead NFA states, so subset construction
// makes at most one state per distinct prefix of the language, and there
// are at most bytes + 1 of those; a literal's bound is its chain's n + 1.
bool compiles_from_strings(const CompileState& s) {
  if (s.query->tokenization_strategy != TokenizationStrategy::kCanonicalTokens) {
    return false;
  }
  for (const auto& pre : s.query->preprocessors) {
    if (pre->target() == s.side || pre->target() == Side::kBoth) return false;
  }
  const std::optional<automata::FiniteSize> size = automata::finite_size(*s.ast);
  const std::size_t budget = state_budget(s);
  return size && size->strings <= s.query->canonical_enumeration_budget &&
         (budget == 0 || size->bytes < budget);
}

class ParsePass : public Pass {
 public:
  const char* name() const override { return "parse"; }
  void run(CompileState& s) const override {
    RELM_TRACE_SPAN("compile.pass.parse");
    RELM_TRACE_SPAN("regex.parse");  // legacy name, kept for trace tooling
    s.pattern = component_pattern(*s.query, s.side);
    s.ast = automata::parse_regex(s.pattern);
  }
};

class ThompsonPass : public Pass {
 public:
  const char* name() const override { return "thompson"; }
  void run(CompileState& s) const override {
    RELM_TRACE_SPAN("compile.pass.thompson");
    RELM_TRACE_SPAN("regex.thompson");  // legacy name, kept for trace tooling
    // Boolean-algebra ASTs have no Thompson form, and a side compiled from
    // its strings or a literal needs none; the determinize pass compiles
    // them (minimal_dfa, or the algebra product construction or the
    // literal's chain in automata::compile_ast).
    if (!automata::has_boolean_ops(*s.ast) && !compiles_from_strings(s) &&
        !automata::literal_bytes(*s.ast)) {
      s.nfa = automata::thompson_construct(*s.ast);
    }
  }
};

class DeterminizePass : public Pass {
 public:
  const char* name() const override { return "determinize"; }
  void run(CompileState& s) const override {
    RELM_TRACE_SPAN("compile.pass.determinize");
    // One state budget covers the whole pass: subset construction for plain
    // NFAs, lazy product/subset construction for boolean-algebra ASTs.
    const std::size_t budget = state_budget(s);
    if (!s.nfa && compiles_from_strings(s)) {
      s.strings = automata::finite_strings(
          *s.ast, s.query->canonical_enumeration_budget);
      s.chars = automata::minimal_dfa(*s.strings);
      return;
    }
    if (s.nfa) {
      s.chars = automata::trim(automata::determinize(*s.nfa, budget));
      return;
    }
    automata::AlgebraOptions options;
    options.state_budget = budget;
    s.chars = automata::compile_ast(*s.ast, options);
  }
};

class MinimizePass : public Pass {
 public:
  const char* name() const override { return "minimize"; }
  void run(CompileState& s) const override {
    RELM_TRACE_SPAN("compile.pass.minimize");
    if (!s.strings) s.chars = automata::minimize(*s.chars);  // else minimal
  }
};

class PreprocessPass : public Pass {
 public:
  const char* name() const override { return "preprocess"; }
  void run(CompileState& s) const override {
    RELM_TRACE_SPAN("compile.pass.preprocess");
    for (const auto& pre : s.query->preprocessors) {
      if (pre->target() == s.side || pre->target() == Side::kBoth) {
        s.chars = pre->apply(*s.chars);
      }
    }
    // An empty language (a vacuous algebra query like `a & !a`, or a
    // preprocessor that filtered everything out) is NOT an error: the
    // component records it and executors return zero matches with zero
    // model calls (the empty-language fast path).
  }
};

class TokenLiftPass : public Pass {
 public:
  const char* name() const override { return "token_lift"; }
  void run(CompileState& s) const override {
    RELM_TRACE_SPAN("compile.pass.token_lift");
    if (s.strings) {
      s.tokens = canonical_token_automaton(*s.strings, *s.tok);
      return;
    }
    s.tokens = compile_token_automaton(*s.chars, *s.tok,
                                       s.query->tokenization_strategy,
                                       s.query->canonical_enumeration_budget);
  }
};

class TokenMasksPass : public Pass {
 public:
  const char* name() const override { return "token_masks"; }
  void run(CompileState& s) const override {
    RELM_TRACE_SPAN("compile.pass.token_masks");
    // The budget depends only on the automaton (never on executor flags),
    // keeping cached/fresh/reloaded compiles byte-identical.
    s.tokens->masks = budgeted_token_masks(s.tokens->dfa);
  }
};

}  // namespace

const Pipeline& Pipeline::standard() {
  static const Pipeline pipeline = [] {
    Pipeline p;
    p.add(std::make_unique<ParsePass>());
    p.add(std::make_unique<ThompsonPass>());
    p.add(std::make_unique<DeterminizePass>());
    p.add(std::make_unique<MinimizePass>());
    p.add(std::make_unique<PreprocessPass>());
    p.add(std::make_unique<TokenLiftPass>());
    p.add(std::make_unique<TokenMasksPass>());
    return p;
  }();
  return pipeline;
}

Pipeline& Pipeline::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

std::vector<const char*> Pipeline::pass_names() const {
  std::vector<const char*> names;
  names.reserve(passes_.size());
  for (const auto& pass : passes_) names.push_back(pass->name());
  return names;
}

CompileState Pipeline::run_to_state(const SimpleSearchQuery& query, Side side,
                                    const tokenizer::BpeTokenizer& tok,
                                    std::vector<PassRecord>* records) const {
  RELM_TRACE_SPAN("compile.query");
  CompileState state;
  state.query = &query;
  state.side = side;
  state.tok = &tok;
  for (const auto& pass : passes_) {
    util::Timer timer;
    pass->run(state);
    if (records) records->push_back({pass->name(), timer.seconds()});
  }
  return state;
}

CompileResult Pipeline::run(const SimpleSearchQuery& query, Side side,
                            const tokenizer::BpeTokenizer& tok) const {
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
    component->automaton = Pipeline::standard().run(query, side, tok).automaton;
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
