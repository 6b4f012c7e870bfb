// Microbenchmarks (google-benchmark) for ReLM's graph-compiler pipeline:
// regex compilation, token-automaton construction (the O(V k m_max)
// shortcut-edge algorithm of §3.2/§B), canonical enumeration, Levenshtein
// expansion, and walk counting. These are the ablation measurements DESIGN.md
// calls out for the compiler's design choices.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>

#include "automata/algebra.hpp"
#include "automata/determinize.hpp"
#include "automata/levenshtein.hpp"
#include "automata/regex_parser.hpp"
#include "automata/regex.hpp"
#include "automata/thompson.hpp"
#include "automata/walks.hpp"
#include "core/compiler.hpp"
#include "core/pipeline/cache.hpp"
#include "core/pipeline/pipeline.hpp"
#include "experiments/setup.hpp"

namespace {

using namespace relm;

const experiments::World& world() {
  static experiments::World w = experiments::build_world(
      experiments::WorldConfig::scaled(0.25));
  return w;
}

const char* kUrlPattern =
    "https://www.([a-zA-Z0-9]|\\-|_|#|%)+.([a-zA-Z0-9]|\\-|_|#|%|/)+";
const char* kDatePattern =
    "((January)|(February)|(March)|(April)|(May)|(June)|(July)|(August)|"
    "(September)|(October)|(November)|(December)) [0-9]{1,2}, [0-9]{4}";

void BM_RegexCompileUrl(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(automata::compile_regex(kUrlPattern));
  }
}
BENCHMARK(BM_RegexCompileUrl);

// Subset construction of the URL body's Thompson NFA alone (42 subsets,
// 3,373 edges): one closure and one intern per byte class, not per byte.
void BM_DeterminizeUrlBody(benchmark::State& state) {
  const std::string body = std::string(kUrlPattern).substr(std::strlen("https://www."));
  const automata::Nfa nfa = automata::thompson_construct(*automata::parse_regex(body));
  automata::Dfa dfa(1);
  for (auto _ : state) {
    dfa = automata::determinize(nfa);
    benchmark::DoNotOptimize(dfa);
  }
  state.counters["dfa_states"] = static_cast<double>(dfa.num_states());
  state.counters["dfa_edges"] = static_cast<double>(dfa.num_edges());
}
BENCHMARK(BM_DeterminizeUrlBody);

void BM_RegexCompileDate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(automata::compile_regex(kDatePattern));
  }
}
BENCHMARK(BM_RegexCompileDate);

// Boolean-algebra compilation through the on-the-fly product/subset
// construction. The pattern is the adversarial case it exists for: the left
// operand's subset space is ~2^15 states, but intersecting with a 4-string
// language makes almost all of it unreachable, so only the reachable
// product is explored.
const char* kAlgebraPattern = "((a|b)*a(a|b){14})&(a{0,3})";

void BM_CompileAlgebraLazy(benchmark::State& state) {
  automata::RegexPtr ast = automata::parse_regex(kAlgebraPattern);
  for (auto _ : state) {
    benchmark::DoNotOptimize(automata::compile_ast(*ast));
  }
}
BENCHMARK(BM_CompileAlgebraLazy);

void BM_TokenAutomatonAllTokensUrl(benchmark::State& state) {
  automata::Dfa chars = automata::compile_regex(kUrlPattern);
  (void)world();  // build the shared world outside the timed region
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compile_token_automaton(
        chars, *world().tokenizer, core::TokenizationStrategy::kAllTokens));
  }
  state.counters["dfa_states"] = static_cast<double>(chars.num_states());
}
BENCHMARK(BM_TokenAutomatonAllTokensUrl);

void BM_TokenAutomatonCanonicalDate(benchmark::State& state) {
  // Finite language: exercises the enumerate-and-encode path (§3.2 option 1)
  // from a DFA, as a preprocessed side takes it.
  automata::Dfa chars = automata::compile_regex(
      "((January)|(February)|(March)) [0-9]{1,2}");
  (void)world();  // build the shared world outside the timed region
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compile_token_automaton(
        chars, *world().tokenizer, core::TokenizationStrategy::kCanonicalTokens));
  }
}
BENCHMARK(BM_TokenAutomatonCanonicalDate);

void BM_LevenshteinExpandWord(benchmark::State& state) {
  automata::Dfa lang = automata::compile_regex("The man was trained in");
  int distance = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        automata::levenshtein_expand(lang, distance, automata::printable_ascii()));
  }
}
BENCHMARK(BM_LevenshteinExpandWord)->Arg(1)->Arg(2);

// Minimization of a mid-sized unminimized finite language: an acyclic
// machine, so minimize takes the post-order pass.
void BM_MinimizeFiniteWords(benchmark::State& state) {
  automata::Dfa big = automata::compile_regex_unminimized(
      "((the )|(a ))?((cat)|(dog)|(cow)|(fox)|(owl))s? ((ran)|(sat)|(slept))"
      "( (quickly|slowly|quietly))?");
  for (auto _ : state) {
    benchmark::DoNotOptimize(automata::minimize(big));
  }
  state.counters["input_states"] = static_cast<double>(big.num_states());
}
BENCHMARK(BM_MinimizeFiniteWords);

// Minimization of the URL body's unminimized character DFA: cyclic, so
// minimize runs Moore refinement.
void BM_MinimizeUrl(benchmark::State& state) {
  automata::Dfa url = automata::compile_regex_unminimized(kUrlPattern);
  for (auto _ : state) {
    benchmark::DoNotOptimize(automata::minimize(url));
  }
  state.counters["input_states"] = static_cast<double>(url.num_states());
}
BENCHMARK(BM_MinimizeUrl);

// One cloze-style prefix component: a regex-escaped passage of about 200
// bytes through the full component pipeline (parse, its one string, the
// chain built from it, the canonical automaton of its encoding, token
// masks).
void BM_CompileLiteralPrefix(benchmark::State& state) {
  core::SimpleSearchQuery query;
  query.query_string.prefix_str =
      "\"I can't believe it,\" Mara said\\. The keeper of the old lighthouse "
      "had left at dawn \\(without a word\\) and the boats \\- all three of "
      "them \\- were gone before the tide turned\\. Who would follow him "
      "now\\? Not the";
  query.query_string.query_str = query.query_string.prefix_str + " ([a-z]+)";
  query.tokenization_strategy = core::TokenizationStrategy::kCanonicalTokens;
  (void)world();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pipeline::compile_component(
        query, core::pipeline::Side::kPrefix, *world().tokenizer,
        core::pipeline::ArtifactKey{}));
  }
}
BENCHMARK(BM_CompileLiteralPrefix);

// One cloze word-list body component: a 30-word disjunction under the cloze
// suffix through the full component pipeline (parse, its 240 strings, their
// minimal DFA, the canonical automaton of their encodings, token masks).
void BM_CompileWordListBody(benchmark::State& state) {
  core::SimpleSearchQuery query;
  query.query_string.query_str =
      " ((keeper)|(lighthouse)|(boats)|(tide)|(dawn)|(Mara)|(word)|(three)|"
      "(morning)|(harbor)|(island)|(storm)|(lantern)|(rope)|(sailor)|"
      "(village)|(mother)|(brother)|(window)|(stairs)|(shore)|(night)|"
      "(gulls)|(rocks)|(signal)|(captain)|(letter)|(winter)|(beacon)|(ferry))"
      "(\\.|\\!|\\?)?(\")?";
  query.tokenization_strategy = core::TokenizationStrategy::kCanonicalTokens;
  (void)world();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pipeline::compile_component(
        query, core::pipeline::Side::kBody, *world().tokenizer,
        core::pipeline::ArtifactKey{}));
  }
}
BENCHMARK(BM_CompileWordListBody);

// A finite canonical body whose strings far outnumber its states: `[a-z]{3}`
// spells 17,576 strings (under the 50,000 enumeration budget) with a
// 4-state minimal DFA, so building the byte DFA from its strings costs more
// than subset construction would; the canonical lift encodes all of them
// either way.
void BM_CompileFiniteCombinatorialBody(benchmark::State& state) {
  core::SimpleSearchQuery query;
  query.query_string.query_str = "[a-z]{3}";
  query.tokenization_strategy = core::TokenizationStrategy::kCanonicalTokens;
  (void)world();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pipeline::compile_component(
        query, core::pipeline::Side::kBody, *world().tokenizer,
        core::pipeline::ArtifactKey{}));
  }
}
BENCHMARK(BM_CompileFiniteCombinatorialBody);

void BM_WalkCounts(benchmark::State& state) {
  automata::Dfa lang = automata::levenshtein_expand(
      automata::compile_regex("The man was trained in"), 1,
      automata::printable_ascii());
  core::TokenAutomaton ta = core::compile_token_automaton(
      lang, *world().tokenizer, core::TokenizationStrategy::kAllTokens);
  for (auto _ : state) {
    automata::WalkCounts walks(ta.dfa, 40);
    benchmark::DoNotOptimize(walks.total());
  }
  state.counters["token_states"] = static_cast<double>(ta.dfa.num_states());
}
BENCHMARK(BM_WalkCounts);

// Cold vs warm query compilation through the pass pipeline and the artifact
// cache (docs/ARCHITECTURE.md). Cold runs the full seven-pass chain every
// iteration; warm hits the in-memory content-addressed cache. The ratio is
// the cache's reason to exist — the CI bench gate watches both.
core::SimpleSearchQuery cache_bench_query() {
  core::SimpleSearchQuery query;
  query.query_string.query_str = kDatePattern;
  query.tokenization_strategy = core::TokenizationStrategy::kCanonicalTokens;
  return query;
}

void BM_CompileQueryCold(benchmark::State& state) {
  core::SimpleSearchQuery query = cache_bench_query();
  (void)world();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::pipeline::compile_query_artifact(query, *world().tokenizer));
  }
}
BENCHMARK(BM_CompileQueryCold);

void BM_CompileQueryWarm(benchmark::State& state) {
  core::SimpleSearchQuery query = cache_bench_query();
  core::pipeline::ArtifactCache cache;
  // Prime outside the timed region; every timed iteration is a cache hit.
  (void)core::pipeline::compile_cached(query, *world().tokenizer, &cache);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::pipeline::compile_cached(query, *world().tokenizer, &cache));
  }
  state.counters["cache_hits"] = static_cast<double>(cache.stats().hits);
}
BENCHMARK(BM_CompileQueryWarm);

void BM_BpeEncode(benchmark::State& state) {
  const std::string text =
      "The man was trained in computer science at the lighthouse. "
      "Documentation lives at https://www.example.org/path now.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(world().tokenizer->encode(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_BpeEncode);

}  // namespace

BENCHMARK_MAIN();
