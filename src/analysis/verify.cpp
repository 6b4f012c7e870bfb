#include "analysis/verify.hpp"

#include <algorithm>
#include <filesystem>
#include <unordered_set>

#include "core/compiled_query.hpp"
#include "core/pipeline/artifact.hpp"
#include "core/query.hpp"
#include "tokenizer/serialize.hpp"
#include "util/errors.hpp"

namespace relm::analysis {

void verify_tokenizer(const tokenizer::BpeTokenizer& tok,
                      InvariantReport& report) {
  if (tok.vocab_size() == 0) {
    report.fail("tokenizer.vocab-empty", "tokenizer has an empty vocabulary");
    return;
  }
  if (tok.eos() >= tok.vocab_size()) {
    report.fail("tokenizer.eos-range",
                "EOS token " + std::to_string(tok.eos()) +
                    " outside the vocabulary of " +
                    std::to_string(tok.vocab_size()));
    return;
  }
  std::unordered_set<std::string> seen;
  for (tokenizer::TokenId t = 0; t < tok.vocab_size(); ++t) {
    const std::string& s = tok.token_string(t);
    if (s.empty() && t != tok.eos()) {
      report.fail("tokenizer.empty-token",
                  "token " + std::to_string(t) +
                      " has an empty string but is not EOS");
      continue;
    }
    if (!seen.insert(s).second) {
      report.fail("tokenizer.duplicate-token",
                  "token string of id " + std::to_string(t) +
                      " appears more than once in the vocabulary");
    }
    if (s.size() > tok.max_token_length()) {
      report.fail("tokenizer.token-length",
                  "token " + std::to_string(t) + " is " +
                      std::to_string(s.size()) +
                      " bytes, above max_token_length " +
                      std::to_string(tok.max_token_length()));
    }
    // Canonical encoding must round-trip every vocabulary string: greedy
    // longest-match is stable under re-encoding (§3.2), so decode(encode(s))
    // changing the bytes means the trie and the vocabulary disagree.
    if (!s.empty()) {
      std::vector<tokenizer::TokenId> enc = tok.encode(s);
      if (tok.decode(enc) != s) {
        report.fail("tokenizer.round-trip",
                    "token " + std::to_string(t) +
                        " does not survive encode/decode");
      }
    }
  }
}

void verify_model(const model::NgramModel& model,
                  const tokenizer::BpeTokenizer& tok, const std::string& name,
                  InvariantReport& report, const ModelCheckOptions& options) {
  if (model.vocab_size() != tok.vocab_size()) {
    report.fail("artifact.vocab-mismatch",
                name + " vocabulary (" + std::to_string(model.vocab_size()) +
                    ") does not match the tokenizer (" +
                    std::to_string(tok.vocab_size()) + ")");
  }
  if (model.eos() != tok.eos()) {
    report.fail("artifact.eos-mismatch",
                name + " EOS (" + std::to_string(model.eos()) +
                    ") does not match the tokenizer EOS (" +
                    std::to_string(tok.eos()) + ")");
  }
  check_ngram_model(model, report, options, name);
}

void verify_query_compilation(const tokenizer::BpeTokenizer& tok,
                              const std::vector<std::string>& patterns,
                              InvariantReport& report) {
  for (const std::string& pattern : patterns) {
    for (core::TokenizationStrategy strategy :
         {core::TokenizationStrategy::kCanonicalTokens,
          core::TokenizationStrategy::kAllTokens}) {
      core::SimpleSearchQuery query;
      query.query_string.query_str = pattern;
      query.tokenization_strategy = strategy;
      const char* kind =
          strategy == core::TokenizationStrategy::kAllTokens ? "all" : "canonical";
      try {
        core::CompiledQuery compiled = core::CompiledQuery::compile(query, tok);
        check_compiled_query(compiled, report,
                             "query[" + pattern + "," + kind + "]");
      } catch (const relm::Error& e) {
        // The probe patterns are fixed valid regexes; failure to compile one
        // is itself a broken invariant of the (tokenizer, compiler) pair.
        report.fail("query.compile",
                    "pattern \"" + pattern + "\" (" + kind +
                        ") failed to compile: " + e.what());
      }
    }
  }
}

InvariantReport verify_artifact_dir(const std::string& dir,
                                    const VerifyOptions& options) {
  InvariantReport report;

  tokenizer::BpeTokenizer tok =
      tokenizer::load_tokenizer_file(dir + "/tokenizer.relm");
  verify_tokenizer(tok, report);

  for (const char* name : {"sim-xl", "sim-small"}) {
    std::shared_ptr<model::NgramModel> model =
        model::NgramModel::load_file(dir + "/" + name + ".relm");
    verify_model(*model, tok, name, report, options.model);
  }

  if (options.check_queries) {
    verify_query_compilation(tok, options.probe_patterns, report);
  }
  return report;
}

std::size_t verify_compile_cache_dir(const std::string& cache_dir,
                                     const tokenizer::BpeTokenizer* tok,
                                     InvariantReport& report) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(cache_dir, ec)) {
    report.fail("cache.missing-dir",
                cache_dir + " is not a readable directory");
    return 0;
  }

  // Sort for deterministic report ordering across filesystems.
  std::vector<std::string> entries;
  for (const fs::directory_entry& entry : fs::directory_iterator(cache_dir)) {
    if (entry.path().extension() == ".relmc") {
      entries.push_back(entry.path().string());
    }
  }
  std::sort(entries.begin(), entries.end());

  for (const std::string& path : entries) {
    const std::string stem = fs::path(path).stem().string();
    core::pipeline::Component component;
    try {
      component = core::pipeline::load_component_file(path);
    } catch (const relm::Error& e) {
      // The cache treats a corrupt entry as a miss and recompiles over it;
      // verify's job is to surface it anyway.
      report.fail("cache.corrupt-entry", path + ": " + e.what());
      continue;
    }
    // The filename is the lookup key: a mismatch means the entry can be
    // served for a query it was not compiled from.
    auto expected = core::pipeline::ArtifactKey::from_hex(stem);
    if (!expected) {
      report.fail("cache.entry-name",
                  path + ": filename is not a 32-hex-digit component key");
    } else if (!(component.key == *expected)) {
      report.fail("cache.key-mismatch",
                  path + ": stored key " + component.key.hex() +
                      " does not match the filename");
    }
    check_component(component, tok, report, "cache[" + stem + "]");
  }
  return entries.size();
}

}  // namespace relm::analysis
