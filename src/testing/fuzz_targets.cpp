#include "testing/fuzz_targets.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/invariants.hpp"
#include "automata/algebra.hpp"
#include "automata/determinize.hpp"
#include "automata/finite.hpp"
#include "automata/ops.hpp"
#include "automata/regex_parser.hpp"
#include "automata/serialize.hpp"
#include "automata/thompson.hpp"
#include "core/compiled_query.hpp"
#include "core/pipeline/artifact.hpp"
#include "core/pipeline/cache.hpp"
#include "core/query.hpp"
#include "model/decoding.hpp"
#include "model/ngram_model.hpp"
#include "testing/determinize_per_byte.hpp"
#include "testing/eager_algebra.hpp"
#include "testing/generators.hpp"
#include "testing/hopcroft.hpp"
#include "testing/json.hpp"
#include "testing/oracle.hpp"
#include "testing/rule_mask.hpp"
#include "util/errors.hpp"

namespace relm::testing {

namespace {

// Invariant failure inside a fuzz target: print and abort so both libFuzzer
// and the fallback driver register a crash at this input.
[[noreturn]] void die(const char* target, const std::string& why) {
  std::fprintf(stderr, "%s: invariant violated: %s\n", target, why.c_str());
  std::abort();
}

}  // namespace

int fuzz_regex_parser(const std::uint8_t* data, std::size_t size) {
  std::string pattern(reinterpret_cast<const char*>(data), size);
  automata::RegexPtr ast;
  try {
    ast = automata::parse_regex(pattern);
  } catch (const relm::Error&) {
    return 0;  // rejection is the expected path for malformed patterns
  }
  // Renderer/parser agreement: what the parser accepted, pattern_of must be
  // able to print, and the printed form must parse again.
  std::string rendered;
  try {
    rendered = pattern_of(*ast);
  } catch (const relm::Error& e) {
    // Only the empty-set node is unprintable, and the parser never emits it.
    die("fuzz_regex_parser", std::string("unprintable parsed AST: ") + e.what());
  }
  try {
    automata::RegexPtr again = automata::parse_regex(rendered);
    (void)again;
  } catch (const relm::Error& e) {
    die("fuzz_regex_parser",
        "re-render of accepted pattern failed to parse: \"" + rendered +
            "\": " + e.what());
  }
  return 0;
}

int fuzz_dfa_loader(const std::uint8_t* data, std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  automata::Dfa dfa(1);  // placeholder; Dfa has no default constructor
  try {
    dfa = automata::load_dfa(in);
  } catch (const relm::Error&) {
    return 0;
  }
  analysis::InvariantReport report;
  analysis::check_dfa(dfa, report, "fuzzed");
  if (!report.ok()) die("fuzz_dfa_loader", report.to_string());
  return 0;
}

int fuzz_artifact_loader(const std::uint8_t* data, std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  std::optional<core::pipeline::Component> component;
  try {
    component = core::pipeline::load_component(in);
  } catch (const relm::Error&) {
    return 0;
  }
  analysis::InvariantReport report;
  analysis::check_component(*component, /*tok=*/nullptr, report, "fuzzed");
  if (!report.ok()) die("fuzz_artifact_loader", report.to_string());
  return 0;
}

int fuzz_algebra_compile(const std::uint8_t* data, std::size_t size) {
  // Bound the pattern: compile cost grows with pattern size and the point
  // here is operator interaction, not giant inputs.
  if (size > 64) size = 64;
  std::string pattern(reinterpret_cast<const char*>(data), size);
  automata::RegexPtr ast;
  try {
    ast = automata::parse_regex(pattern);
  } catch (const relm::Error&) {
    return 0;
  }
  automata::AlgebraOptions options;
  options.state_budget = 4096;  // adversarial complements must terminate
  automata::Dfa lazy_dfa(1);
  try {
    lazy_dfa = automata::compile_ast(*ast, options);
  } catch (const relm::StateBudgetError&) {
    return 0;  // over budget is an accepted outcome, not a finding
  } catch (const relm::Error& e) {
    die("fuzz_algebra_compile",
        std::string("non-budget compile failure on accepted parse: ") +
            e.what());
  }
  analysis::InvariantReport report;
  analysis::check_dfa(lazy_dfa, report, "algebra-lazy");
  if (!report.ok()) die("fuzz_algebra_compile", report.to_string());
  // A boolean-free pattern compiles through Thompson and subset
  // construction, and minimizes by the post-order pass or Moore; every
  // combination must equal Hopcroft over the Thompson path exactly.
  // compile_ast fit the budget, so this subset construction of the same NFA
  // does too. Subset construction over byte classes must equal the per-byte
  // reference structurally, and the Hopcroft side is built from the
  // reference.
  if (!automata::has_boolean_ops(*ast)) {
    const automata::Nfa nfa = automata::thompson_construct(*ast);
    const automata::Dfa subsets = determinize_per_byte(nfa);
    if (automata::determinize(nfa) != subsets) {
      die("fuzz_algebra_compile",
          "subset construction over byte classes differs from the per-byte "
          "reference on \"" + pattern + "\"");
    }
    automata::Dfa reference = minimize_hopcroft(automata::trim(subsets));
    if (automata::minimize(lazy_dfa) != reference) {
      die("fuzz_algebra_compile",
          "minimize(compile_ast) differs from Hopcroft over Thompson on \"" +
              pattern + "\"");
    }
    // Every tree the pipeline compiles from its strings under the default
    // enumeration budget (one string, or at most the budget's strings, and
    // fewer bytes than the state budget) must give that DFA from them too.
    const std::uint64_t limit =
        core::SimpleSearchQuery().canonical_enumeration_budget;
    const std::optional<automata::FiniteSize> size = automata::finite_size(*ast);
    if (size && size->strings <= limit && size->bytes < options.state_budget) {
      const std::optional<std::vector<std::string>> strings =
          automata::finite_strings(*ast, size, limit);
      if (!strings) {
        die("fuzz_algebra_compile",
            "finite_strings refused a tree finite_size admits: \"" + pattern +
                "\"");
      }
      if (automata::minimal_dfa(*strings) != reference) {
        die("fuzz_algebra_compile",
            "minimal_dfa(finite_strings) differs from Hopcroft over Thompson "
            "on \"" + pattern + "\"");
      }
    }
  }
  // Differential check against the eager reference when it also fits the
  // budget: same language, or one of the two compilers is wrong.
  try {
    automata::Dfa eager_dfa = compile_ast_eager(*ast, options);
    if (!automata::dfa_equivalent(lazy_dfa, eager_dfa)) {
      die("fuzz_algebra_compile",
          "lazy and eager compiles disagree on \"" + pattern + "\"");
    }
  } catch (const relm::StateBudgetError&) {
    // Eager paying more than lazy is expected (it is why lazy exists).
  }
  return 0;
}

int fuzz_repro_json(const std::uint8_t* data, std::size_t size) {
  std::string text(reinterpret_cast<const char*>(data), size);
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const relm::Error&) {
    return 0;
  }
  TrialCase trial;
  try {
    trial = TrialCase::from_json(doc);
  } catch (const relm::Error&) {
    return 0;  // structurally valid JSON that is not a repro file
  }
  // A loaded case must round-trip: dump -> parse -> from_json -> dump equal.
  std::string dumped = trial.to_json().dump();
  TrialCase again;
  try {
    again = TrialCase::from_json(Json::parse(dumped));
  } catch (const relm::Error& e) {
    die("fuzz_repro_json",
        std::string("serialized case failed to re-load: ") + e.what());
  }
  if (again.to_json().dump() != dumped) {
    die("fuzz_repro_json", "case does not round-trip byte-identically");
  }
  return 0;
}

int fuzz_canonical_settlement(const std::uint8_t* data, std::size_t size) {
  std::size_t at = 0;
  auto next = [&] { return at < size ? data[at++] : std::uint8_t{0}; };
  std::vector<std::string> vocab{"", "a", "b", "c"};
  const std::size_t merged = next() % 9;
  for (std::size_t m = 0; m < merged; ++m) {
    std::string token(2 + next() % 3, 'a');
    for (char& c : token) c = static_cast<char>('a' + next() % 3);
    if (std::find(vocab.begin(), vocab.end(), token) == vocab.end()) {
      vocab.push_back(token);
    }
  }
  const auto tok = tokenizer::BpeTokenizer::from_vocab(vocab);
  core::SimpleSearchQuery query;
  query.query_string = {"[abc]+", ""};
  query.tokenization_strategy = core::TokenizationStrategy::kCanonicalTokens;
  const core::CompiledQuery compiled = core::CompiledQuery::from_artifact(
      core::pipeline::compile_cached(query, tok, nullptr), tok);
  if (!compiled.dynamic_canonical()) {
    die("fuzz_canonical_settlement",
        "[abc]+ compiled without dynamic canonicality");
  }

  const std::size_t max_tok = tok.max_token_length();
  std::vector<tokenizer::TokenId> path;
  std::string text;
  core::CompiledQuery::CanonState state;
  bool doom_checked = false;
  while (at < size && path.size() < 8) {
    path.push_back(
        static_cast<tokenizer::TokenId>(1 + next() % (vocab.size() - 1)));
    text += tok.token_string(path.back());
    compiled.canonical_prefix_advance(path, text, state);
    const bool cut = state.doomed() && state.doomed_at + max_tok <= text.size();
    if (distance_rule_cuts(tok, path, text) != cut) {
      die("fuzz_canonical_settlement",
          "distance rule and settlement disagree on \"" + text + "\"");
    }
    if (state.doomed() && !doom_checked) {
      doom_checked = true;
      if (canonical_continuation_exists(tok, path, text, "abc", max_tok + 1)) {
        die("fuzz_canonical_settlement",
            "doomed body \"" + text + "\" has a canonical continuation");
      }
    }
  }
  return 0;
}

int fuzz_rule_mask(const std::uint8_t* data, std::size_t size) {
  std::size_t at = 0;
  auto next = [&] { return at < size ? data[at++] : std::uint8_t{0}; };
  auto next16 = [&] { return static_cast<std::size_t>(next()) << 8 | next(); };
  const std::size_t V = 1 + next16() % 2048;
  // A palette byte b is the value -b/8, or -inf for 255.
  std::vector<double> palette(1 + next() % 8);
  for (double& v : palette) {
    const std::uint8_t b = next();
    v = b == 255 ? -std::numeric_limits<double>::infinity() : -b / 8.0;
  }
  const std::uint8_t flags = next();
  model::DecodingRules rules;
  switch (flags & 3) {
    case 0: rules.top_k = 1 + next() % 64; break;
    case 1: {
      // V/8 - 2 .. V/8 + 2, the edge of the sampled pivot's range.
      const std::size_t k = V / 8 + next() % 5;
      rules.top_k = static_cast<int>(k > 2 ? k - 2 : 1);
      break;
    }
    case 2: rules.top_k = static_cast<int>(V + 1 - next() % 3); break;
    default: rules.top_k = static_cast<int>(1 + next16() % (V + 1)); break;
  }
  if (flags & 4) rules.top_p = (1 + next()) / 256.0;
  if (flags & 8) {
    const double temperatures[] = {0.25, 0.5, 0.7, 1.3, 2.0, 4.0};
    rules.temperature = temperatures[next() % 6];
  }
  if (flags & 16) rules.top_k.reset();

  // The rest of the bytes, cycled, pick each token's palette value.
  const std::size_t rest = at < size ? size - at : 0;
  std::vector<double> row(V);
  for (std::size_t t = 0; t < V; ++t) {
    row[t] = palette[rest == 0 ? 0 : data[at + t % rest] % palette.size()];
  }
  // A row needs one finite value: temperature normalizes over them.
  if (std::none_of(row.begin(), row.end(), [](double v) { return std::isfinite(v); })) {
    row[V - 1] = 0.0;
  }
  const std::string mismatch = rule_mask_mismatch(row, rules);
  if (!mismatch.empty()) die("fuzz_rule_mask", mismatch);
  return 0;
}

int fuzz_distribution_key(const std::uint8_t* data, std::size_t size) {
  using tokenizer::TokenId;
  std::size_t at = 0;
  auto next = [&] { return at < size ? data[at++] : std::uint8_t{0}; };
  const std::size_t vocab = 2 + next() % 7;  // EOS is token 0
  model::NgramModel::Config config;
  config.order = 1 + next() % 5;
  config.alpha = (1 + next() % 8) / 4.0;
  const bool reload = next() % 2 == 1;
  const std::size_t capacity = 4 + next() % 61;
  std::vector<std::vector<TokenId>> corpus(1 + next() % 8);
  for (auto& seq : corpus) {
    seq.resize(next() % 13);
    for (TokenId& t : seq) t = next() % vocab;
  }
  std::shared_ptr<const model::NgramModel> model =
      model::NgramModel::train_on_tokens(vocab, 0, corpus, config);
  if (reload) {
    std::stringstream saved;
    model->save(saved);
    model = model::NgramModel::load(saved);
  }

  // The rest of the bytes: up to 32 contexts of up to order + 1 tokens,
  // each random or (odd lead byte) a window of the corpus, so that stored
  // contexts of every order come up.
  std::vector<std::vector<TokenId>> contexts;
  while (at < size && contexts.size() < 32) {
    const std::uint8_t lead = next();
    std::vector<TokenId>& ctx = contexts.emplace_back(lead / 2 % (config.order + 2));
    const std::vector<TokenId>& seq = corpus[next() % corpus.size()];
    const std::size_t end = seq.empty() ? 0 : next() % (seq.size() + 1);
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      const bool window = lead % 2 == 1 && i < end;
      ctx[ctx.size() - 1 - i] = window ? seq[end - 1 - i] : next() % vocab;
    }
  }

  auto bitwise_equal = [](const std::vector<double>& a, const std::vector<double>& b) {
    return std::ranges::equal(a, b, [](double x, double y) {
      return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
    });
  };
  std::vector<std::vector<double>> rows;
  std::map<std::vector<TokenId>, std::size_t> first_with_key;
  std::vector<TokenId> scratch;
  for (std::size_t c = 0; c < contexts.size(); ++c) {
    const std::span<const TokenId> key = model->distribution_key(contexts[c], scratch);
    rows.push_back(model->next_log_probs(contexts[c]));
    if (key.size() > model->relevant_context_length()) {
      die("fuzz_distribution_key", "key longer than the relevant context");
    }
    const auto [it, inserted] =
        first_with_key.emplace(std::vector<TokenId>(key.begin(), key.end()), c);
    if (!inserted && !bitwise_equal(rows[it->second], rows[c])) {
      die("fuzz_distribution_key", "contexts with one key have different rows");
    }
    if (key.size() == model->relevant_context_length() &&
        !std::ranges::equal(model->distribution_key(it->first, scratch), it->first)) {
      die("fuzz_distribution_key", "a full-length key is not its own key");
    }
  }

  // Two rounds through a cache that evicts: one context per call, then the
  // whole list in one call under a top-k rule.
  model::CachingModel cached(model, capacity);
  model::DecodingRules rules;
  rules.top_k = 2;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t c = 0; c < contexts.size(); ++c) {
      if (!bitwise_equal(cached.next_log_probs(contexts[c]), rows[c])) {
        die("fuzz_distribution_key", "cached row differs from the model's");
      }
    }
    const std::vector<model::LanguageModel::Row> served = cached.next_rows(contexts, rules);
    for (std::size_t c = 0; c < contexts.size(); ++c) {
      if (!bitwise_equal(*served[c].log_probs, rows[c]) ||
          *served[c].mask != model::allowed_tokens(rows[c], rules)) {
        die("fuzz_distribution_key", "cached row or mask differs from the model's");
      }
    }
  }
  if (cached.entries() > capacity) die("fuzz_distribution_key", "cache over capacity");
  return 0;
}

}  // namespace relm::testing
