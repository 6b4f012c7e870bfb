#include "core/analyzer.hpp"

#include <cstdint>
#include <cstdio>
#include <optional>

#include "automata/ops.hpp"
#include "automata/walks.hpp"
#include "core/pipeline/pipeline.hpp"

namespace relm::core {

QueryAnalysis analyze_query(const SimpleSearchQuery& query,
                            const tokenizer::BpeTokenizer& tok) {
  QueryAnalysis analysis;

  // One pipeline run per side yields both the post-preprocessor character
  // automaton (an intermediate of the preprocess pass) and the final token
  // automaton — the analyzer no longer re-derives the char DFAs on its own.
  // An empty prefix never enters the pipeline; its language is {ε}, a
  // single-state machine.
  const pipeline::Pipeline& standard = pipeline::Pipeline::standard();
  pipeline::CompileState body =
      standard.run_to_state(query, pipeline::Side::kBody, tok);
  std::optional<pipeline::CompileState> prefix;
  if (!query.query_string.prefix_str.empty()) {
    prefix = standard.run_to_state(query, pipeline::Side::kPrefix, tok);
  }
  const automata::Dfa& body_chars = *body.chars;
  analysis.prefix_char_states = prefix ? prefix->chars->num_states() : 1;
  analysis.body_char_states = body_chars.num_states();
  analysis.body_infinite = automata::is_infinite_language(body_chars);
  analysis.body_string_count = automata::count_strings(
      body_chars, analysis.body_infinite ? 64 : body_chars.num_states() + 1);
  analysis.shortest_match_length = automata::shortest_string_length(body_chars);

  const TokenAutomaton epsilon = epsilon_token_automaton(tok);
  const automata::Dfa& prefix_ta = prefix ? prefix->tokens->dfa : epsilon.dfa;
  const automata::Dfa& body_ta = body.tokens->dfa;
  analysis.prefix_token_states = prefix_ta.num_states();
  analysis.prefix_token_edges = prefix_ta.num_edges();
  analysis.body_token_states = body_ta.num_states();
  analysis.body_token_edges = body_ta.num_edges();
  analysis.dynamic_canonical = body.tokens->dynamic_canonical;

  const std::size_t horizon = query.sequence_length.value_or(64);
  automata::WalkCounts prefix_walks(prefix_ta, horizon);
  automata::WalkCounts body_walks(body_ta, horizon);
  analysis.prefix_token_paths = prefix_walks.total();
  analysis.body_token_paths = body_walks.total();
  for (automata::StateId s = 0; s < body_ta.num_states(); ++s) {
    analysis.max_body_branching =
        std::max(analysis.max_body_branching,
                 static_cast<double>(body_ta.edges(s).size()));
  }

  // Exhaustion needs roughly one model call per distinct path node; paths x
  // average depth bounds it, branching caps per-node fanout. Per sample, the
  // random traversal costs one call per body token step.
  analysis.exhaustive_call_estimate =
      analysis.prefix_token_paths * std::max(1.0, analysis.body_token_paths);
  analysis.per_sample_call_estimate =
      static_cast<double>(analysis.shortest_match_length.value_or(0)) / 2.0 + 2.0;

  return analysis;
}

std::string QueryAnalysis::summary() const {
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      "character level:\n"
      "  prefix DFA states: %zu\n"
      "  body DFA states:   %zu\n"
      "  body language:     %s (%llu strings%s)\n"
      "  shortest match:    %s\n"
      "token level:\n"
      "  prefix automaton:  %zu states, %zu edges, %.3g paths\n"
      "  body automaton:    %zu states, %zu edges, %.3g paths\n"
      "  canonicalization:  %s\n"
      "  max branching:     %.0f\n"
      "estimates:\n"
      "  exhaustive search: ~%.3g model calls upper bound\n"
      "  random sampling:   ~%.1f model calls per sample\n",
      prefix_char_states, body_char_states,
      body_infinite ? "infinite" : "finite",
      static_cast<unsigned long long>(body_string_count),
      body_string_count == UINT64_MAX ? " (saturated)"
                                      : (body_infinite ? " within 64 chars" : ""),
      shortest_match_length ? std::to_string(*shortest_match_length).c_str()
                            : "(empty language)",
      prefix_token_states, prefix_token_edges, prefix_token_paths,
      body_token_states, body_token_edges, body_token_paths,
      dynamic_canonical ? "dynamic pruning (infinite/over-budget language)"
                        : "exact (enumerated or all-encodings)",
      max_body_branching, exhaustive_call_estimate, per_sample_call_estimate);
  return buffer;
}

}  // namespace relm::core
