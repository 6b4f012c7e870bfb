// Constrained decoding beyond validation (§3: "while ReLM is motivated by
// LLM validation, it can be used in other constrained decoding applications
// (e.g., generation from keywords)").
//
// Part 1 generates the model's most natural sentences containing the
// keywords "lantern" and "harbor" from a template space — exact, fast, and
// ranked by probability.
//
// Part 2 tries the same with free prose around the keywords and shows why
// that is hard for *any* left-to-right method: beams die at the automaton
// boundary before "committing" to the keyword, and exact search must wade
// through every higher-probability prose prefix first. This is precisely the
// limitation the paper's conclusion names — "left-to-right autoregressive
// decoding has an affinity toward suffix completions" — left as future work.

#include <cstdio>

#include "core/relm.hpp"
#include "experiments/setup.hpp"

using namespace relm;
using namespace relm::experiments;

int main() {
  World world = build_world(WorldConfig::scaled(0.5));

  // --- Part 1: keywords in a template space ---------------------------------
  core::SimpleSearchQuery query;
  query.query_string.query_str =
      "((The)|(A)) ((engineer)|(farmer)|(captain)|(baker)|(gardener)|"
      "(merchant)|(traveler)) ((repaired)|(carried)|(traded)|(polished)|"
      "(sketched)|(collected)) the lantern near the harbor.";
  query.decoding.top_k = 40;
  query.max_results = 5;
  query.max_expansions = 4000;

  std::printf("part 1 — keywords 'lantern'+'harbor' over a template space "
              "(2x7x6 = 84 candidates):\n");
  auto outcome = search(*world.xl, *world.tokenizer, query);
  for (const auto& result : outcome.results) {
    std::printf("  %7.2f  \"%s\"\n", result.log_prob, result.text.c_str());
  }
  std::printf("  [%zu llm calls]\n\n", outcome.stats.llm_calls);

  // --- Part 2: keywords in free prose ----------------------------------------
  core::SimpleSearchQuery loose;
  loose.query_string.query_str =
      "[A-Z][a-z ]{2,40}lantern[a-z ]{1,24}harbor(\\.|\\!)";
  loose.decoding.top_k = 40;
  loose.max_results = 3;
  loose.max_expansions = 4000;
  loose.sequence_length = 24;

  std::printf("part 2 — the same keywords in free prose:\n");
  auto exact = search(*world.xl, *world.tokenizer, loose);
  std::printf("  shortest path, %zu-expansion budget: %zu results "
              "(%zu llm calls)\n",
              loose.max_expansions, exact.results.size(),
              exact.stats.llm_calls);

  loose.search_strategy = core::SearchStrategy::kBeam;
  loose.beam_width = 32;
  auto beam = search(*world.xl, *world.tokenizer, loose);
  std::printf("  beam width 32:               %zu results (%zu llm calls)\n",
              beam.results.size(), beam.stats.llm_calls);
  for (const auto& result : beam.results) {
    std::printf("    %7.2f  \"%s\"\n", result.log_prob, result.text.c_str());
  }

  std::printf(
      "\nwhy part 2 struggles: every high-probability prose prefix matches\n"
      "[a-z ]* until the automaton finally demands 'lantern', so exact search\n"
      "must exhaust all likelier prefixes first, and beams die at the class\n"
      "boundary before committing to the keyword. The paper's conclusion\n"
      "calls this out — autoregressive decoding favors suffix completions —\n"
      "and anchoring keywords in structure (part 1) is the practical fix.\n");
  return 0;
}
