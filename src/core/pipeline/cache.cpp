#include "core/pipeline/cache.hpp"

#include <atomic>
#include <cstdlib>
#include <filesystem>

#include <unistd.h>

#include "core/pipeline/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"

namespace relm::core::pipeline {

namespace {

struct GlobalCounters {
  obs::Counter& hit = obs::Registry::instance().counter("compile_cache.hit");
  obs::Counter& miss = obs::Registry::instance().counter("compile_cache.miss");
  obs::Counter& evict = obs::Registry::instance().counter("compile_cache.evict");
  obs::Counter& load = obs::Registry::instance().counter("compile_cache.load");
  obs::Counter& store = obs::Registry::instance().counter("compile_cache.store");
  obs::Counter& corrupt =
      obs::Registry::instance().counter("compile_cache.corrupt");
};

GlobalCounters& counters() {
  static GlobalCounters c;
  return c;
}

}  // namespace

ArtifactCache::ArtifactCache(ArtifactCacheConfig config)
    : config_(std::move(config)) {}

std::string ArtifactCache::disk_path(const ArtifactKey& key) const {
  return config_.disk_dir + "/" + key.hex() + ".relmc";
}

void ArtifactCache::count(std::size_t Stats::*field) {
  util::ScopedLock lock(mutex_);
  ++(stats_.*field);
}

std::shared_ptr<const Component> ArtifactCache::lookup(const ArtifactKey& key) {
  if (!enabled() || key.is_zero()) return nullptr;
  {
    util::ScopedLock lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->component;
    }
  }

  if (!config_.disk_dir.empty()) {
    const std::string path = disk_path(key);
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
      try {
        auto component =
            std::make_shared<const Component>(load_component_file(path));
        if (component->key != key) {
          throw relm::Error("stored key does not match its filename");
        }
        count(&Stats::disk_loads);
        counters().load.add();
        insert_memory_(key, component);
        return component;
      } catch (const relm::Error&) {
        // Corrupt entry: count it and fall through to a miss. The caller
        // recompiles and insert() overwrites the bad file.
        count(&Stats::disk_errors);
        counters().corrupt.add();
      }
    }
  }
  return nullptr;
}

void ArtifactCache::insert_memory_(
    const ArtifactKey& key, const std::shared_ptr<const Component>& component) {
  util::ScopedLock lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->component = component;
    return;
  }
  lru_.push_front(Entry{key, component});
  index_[key] = lru_.begin();
  while (lru_.size() > config_.capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    counters().evict.add();
  }
}

void ArtifactCache::insert(const ArtifactKey& key,
                           std::shared_ptr<const Component> component) {
  if (!enabled() || key.is_zero() || !component) return;
  insert_memory_(key, component);

  if (config_.disk_dir.empty()) return;
  try {
    std::error_code ec;
    std::filesystem::create_directories(config_.disk_dir, ec);
    // Unique temp name per store (the process id, then a per-process
    // sequence number), then an atomic rename: concurrent processes warming
    // the same directory never expose a partial file. Forked children
    // inherit the sequence, so the process id is what keeps them apart.
    static std::atomic<std::uint64_t> store_seq{0};
    const std::string path = disk_path(key);
    const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "-" +
                            std::to_string(store_seq.fetch_add(1));
    save_component_file(*component, tmp);
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      std::filesystem::remove(tmp, ec);
      count(&Stats::disk_errors);
      return;
    }
    count(&Stats::disk_stores);
    counters().store.add();
  } catch (const relm::Error&) {
    // An unwritable disk store degrades to memory-only; it must never fail
    // the compile that produced the component.
    count(&Stats::disk_errors);
  }
}

ArtifactCache::Stats ArtifactCache::stats() const {
  util::ScopedLock lock(mutex_);
  Stats stats = stats_;
  stats.entries = lru_.size();
  return stats;
}

namespace {

// Written at first use or by configure_global (tests). A compile that uses
// the global cache holds this lock only to read the pointer.
util::Mutex g_global_mutex{util::LockRank::kCompileCacheConfig};
std::unique_ptr<ArtifactCache> g_global RELM_GUARDED_BY(g_global_mutex);

ArtifactCacheConfig global_config_from_env() {
  ArtifactCacheConfig config;
  if (const char* dir = std::getenv("RELM_COMPILE_CACHE"); dir && *dir) {
    std::string value = dir;
    if (value == "off" || value == "0") {
      config.capacity = 0;
    } else {
      config.disk_dir = value;
    }
  }
  return config;
}

}  // namespace

ArtifactCache& ArtifactCache::global() {
  util::ScopedLock lock(g_global_mutex);
  if (!g_global) {
    g_global = std::make_unique<ArtifactCache>(global_config_from_env());
  }
  return *g_global;
}

void ArtifactCache::configure_global(ArtifactCacheConfig config) {
  util::ScopedLock lock(g_global_mutex);
  g_global = std::make_unique<ArtifactCache>(std::move(config));
}

std::shared_ptr<const QueryArtifact> compile_cached(
    const SimpleSearchQuery& query, const tokenizer::BpeTokenizer& tok,
    ArtifactCache* cache) {
  if (cache && !cache->enabled()) cache = nullptr;
  bool compiled = false;
  auto component = [&](Side side) {
    const ArtifactKey key =
        derive_component_key(query, side, tok).value_or(ArtifactKey{});
    if (cache) {
      if (auto hit = cache->lookup(key)) return hit;
    }
    auto fresh = compile_component(query, side, tok, key);
    compiled = true;
    if (cache) cache->insert(key, fresh);
    return fresh;
  };
  auto body = component(Side::kBody);
  auto prefix = component(Side::kPrefix);
  if (cache) {
    cache->count(compiled ? &ArtifactCache::Stats::misses
                          : &ArtifactCache::Stats::hits);
    (compiled ? counters().miss : counters().hit).add();
  }
  return std::make_shared<const QueryArtifact>(
      assemble_artifact(std::move(prefix), std::move(body)));
}

QueryArtifact compile_query_artifact(const SimpleSearchQuery& query,
                                     const tokenizer::BpeTokenizer& tok) {
  return *compile_cached(query, tok, nullptr);
}

}  // namespace relm::core::pipeline
