#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/pipeline/artifact.hpp"

namespace relm::core::pipeline {

struct ArtifactCacheConfig {
  // In-memory components across all shards. 0 disables the cache entirely
  // (lookups miss unconditionally and inserts drop, including disk).
  std::size_t capacity = 256;

  // Optional on-disk store. When non-empty, misses fall through to
  // "<disk_dir>/<key hex>.relmc" and fresh components are persisted there,
  // so they survive process restarts. Created on first store.
  std::string disk_dir;
};

// Content-addressed cache of compiled query components: a sharded in-memory
// LRU in front of an optional on-disk store, keyed by component key (see
// derive_component_key for what it covers — notably the vocabulary
// fingerprint, so a retrained tokenizer can never serve stale automata).
// Queries that share a prefix or a body share its component.
//
// Correctness stance: a cache hit hands back the component shared_ptr
// verbatim; components are immutable, so cached and fresh compiles are
// byte-identical by construction (tests/test_pipeline.cpp proves it
// end-to-end through the executors). A corrupt or truncated disk entry is
// counted, discarded, and recompiled over — never trusted, never fatal.
//
// Thread-safe. Counters also mirror into the obs registry as
// compile_cache.{hit,miss,evict,load,store,corrupt}.
class ArtifactCache {
 public:
  explicit ArtifactCache(ArtifactCacheConfig config = {});
  ~ArtifactCache();
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  // Memory first, then disk (a disk hit is promoted into memory). Null on
  // miss or when `key` is zero (unkeyable side). Not a hit or miss.
  std::shared_ptr<const Component> lookup(const ArtifactKey& key);

  // Inserts into memory (evicting LRU entries beyond capacity) and, when a
  // disk store is configured, persists atomically (temp file + rename).
  // Zero keys are ignored.
  void insert(const ArtifactKey& key,
              std::shared_ptr<const Component> component);

  struct Stats {
    std::size_t hits = 0;         // compile_cached calls that compiled none
    std::size_t misses = 0;       // ... that compiled a component
    std::size_t evictions = 0;    // the rest count components
    std::size_t disk_loads = 0;   // lookups served from disk
    std::size_t disk_stores = 0;
    std::size_t disk_errors = 0;  // corrupt/unreadable entries skipped
    std::size_t entries = 0;      // current in-memory size
  };
  Stats stats() const;

  const ArtifactCacheConfig& config() const { return config_; }
  bool enabled() const { return config_.capacity > 0; }

  // The process-global cache relm::search and the CLI compile through.
  // Defaults to in-memory only; RELM_COMPILE_CACHE=<dir> in the environment
  // adds a disk store and RELM_COMPILE_CACHE=off disables caching.
  static ArtifactCache& global();

  // Replaces the global cache's configuration (CLI flags). Existing entries
  // are dropped.
  static void configure_global(ArtifactCacheConfig config);

 private:
  friend std::shared_ptr<const QueryArtifact> compile_cached(
      const SimpleSearchQuery&, const tokenizer::BpeTokenizer&, ArtifactCache*);

  struct Shard;
  Shard& shard_for(const ArtifactKey& key);
  std::string disk_path(const ArtifactKey& key) const;
  void insert_memory_(Shard& shard, const ArtifactKey& key,
                      const std::shared_ptr<const Component>& component);

  ArtifactCacheConfig config_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

// Compile-through-cache: derives the query's two component keys, serves
// each from the cache or compiles it (compile_component) and stores the
// result, then assembles the artifact (assemble_artifact). A side with an
// unkeyable preprocessor (or a null/disabled cache) compiles fresh. This is
// the entry point relm::search and CompiledQuery::compile route through.
std::shared_ptr<const QueryArtifact> compile_cached(
    const SimpleSearchQuery& query, const tokenizer::BpeTokenizer& tok,
    ArtifactCache* cache = &ArtifactCache::global());

}  // namespace relm::core::pipeline
