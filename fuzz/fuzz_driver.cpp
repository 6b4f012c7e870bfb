// Unified driver for the structured fuzz targets (src/testing/fuzz_targets.*).
// Compiled once per target: CMake defines RELM_FUZZ_TARGET to the entry
// point's name (fuzz_regex_parser, fuzz_dfa_loader, ...). Most targets parse
// the bytes; fuzz_canonical_settlement decodes them into a vocabulary and a
// token path, fuzz_rule_mask into a distribution and decoding rules, and
// fuzz_distribution_key into a token corpus and contexts, so any byte
// string is a valid case.
//
// Two personalities, selected at configure time:
//   - RELM_LIBFUZZER (Clang only): exports LLVMFuzzerTestOneInput and links
//     -fsanitize=fuzzer, i.e. a real coverage-guided libFuzzer binary.
//   - otherwise: a plain main() that replays any corpus files given as
//     arguments and then drives the target with seeded random inputs — no
//     coverage guidance, but the same entry points, the same crash-on-bug
//     contract, deterministic under --seed, and buildable with any C++20
//     compiler (the CI fuzz-smoke job runs this under ASan).
//
//   usage: <fuzzer> [--runs N] [--seed S] [--max-len L] [corpus files...]

#include <cstddef>
#include <cstdint>

#include "testing/fuzz_targets.hpp"

#ifndef RELM_FUZZ_TARGET
#error "RELM_FUZZ_TARGET must name a relm::testing fuzz entry point"
#endif

#ifdef RELM_LIBFUZZER

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return relm::testing::RELM_FUZZ_TARGET(data, size);
}

#else  // fallback loop driver

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace {

// Random inputs biased toward the targets' grammars: raw bytes almost never
// get past the first parser check, so half the cases draw from printable
// ASCII plus the metacharacters the formats use, which reaches meaningfully
// deeper states even without coverage feedback.
std::string random_input(relm::util::Pcg32& rng, std::size_t max_len) {
  static const char kStructured[] =
      "abcd(){}[]|*+?.,\\^-$0123456789:\"eovsux \n";
  std::size_t len = rng.bounded(static_cast<std::uint32_t>(max_len) + 1);
  std::string out;
  out.reserve(len);
  bool structured = rng.uniform() < 0.5;
  for (std::size_t i = 0; i < len; ++i) {
    if (structured) {
      out += kStructured[rng.bounded(sizeof kStructured - 1)];
    } else {
      out += static_cast<char>(rng.bounded(256));
    }
  }
  return out;
}

int run_bytes(const std::string& bytes) {
  return relm::testing::RELM_FUZZ_TARGET(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
}

}  // namespace

int main(int argc, char** argv) {
  long runs = 10000;
  std::uint64_t seed = 1;
  std::size_t max_len = 512;
  std::vector<std::string> corpus;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      runs = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--max-len") == 0 && i + 1 < argc) {
      max_len = static_cast<std::size_t>(std::strtol(argv[++i], nullptr, 10));
    } else {
      corpus.push_back(argv[i]);
    }
  }

  for (const std::string& path : corpus) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read corpus file %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    run_bytes(buffer.str());
  }

  relm::util::Pcg32 rng(seed);
  for (long i = 0; i < runs; ++i) run_bytes(random_input(rng, max_len));
  std::printf("%s: %zu corpus inputs + %ld random inputs ok (seed %llu)\n",
              argv[0], corpus.size(), runs,
              static_cast<unsigned long long>(seed));
  return 0;
}

#endif  // RELM_LIBFUZZER
