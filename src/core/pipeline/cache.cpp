#include "core/pipeline/cache.hpp"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <list>
#include <unordered_map>

#include <unistd.h>

#include "core/pipeline/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"
#include "util/sync.hpp"

namespace relm::core::pipeline {

namespace {

constexpr std::size_t kShards = 8;

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

struct ArtifactCache::Shard {
  struct Entry {
    ArtifactKey key;
    std::shared_ptr<const Component> component;
  };
  struct KeyHash {
    std::size_t operator()(const ArtifactKey& k) const noexcept {
      return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ull));
    }
  };

  mutable util::Mutex mutex{util::LockRank::kCompileCacheShard};
  // front = most recently used
  std::list<Entry> lru RELM_GUARDED_BY(mutex);
  std::unordered_map<ArtifactKey, std::list<Entry>::iterator, KeyHash> index
      RELM_GUARDED_BY(mutex);
  // Set once in the ArtifactCache constructor before any concurrent use,
  // immutable afterwards — so not lock-guarded.
  std::size_t capacity = 0;

  // Instance counters (the obs registry mirrors are process-global).
  std::atomic<std::size_t> evictions{0};
  std::atomic<std::size_t> disk_loads{0};
  std::atomic<std::size_t> disk_stores{0};
  std::atomic<std::size_t> disk_errors{0};
};

ArtifactCache::ArtifactCache(ArtifactCacheConfig config)
    : config_(std::move(config)), shards_(new Shard[kShards]) {
  // Ceiling split so capacities below kShards still cache something per
  // shard they land in.
  const std::size_t per_shard = (config_.capacity + kShards - 1) / kShards;
  for (std::size_t i = 0; i < kShards; ++i) shards_[i].capacity = per_shard;
}

ArtifactCache::~ArtifactCache() = default;

ArtifactCache::Shard& ArtifactCache::shard_for(const ArtifactKey& key) {
  return shards_[key.lo % kShards];
}

std::string ArtifactCache::disk_path(const ArtifactKey& key) const {
  return config_.disk_dir + "/" + key.hex() + ".relmc";
}

std::shared_ptr<const Component> ArtifactCache::lookup(const ArtifactKey& key) {
  if (!enabled() || key.is_zero()) return nullptr;
  Shard& shard = shard_for(key);
  {
    util::ScopedLock lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
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
        shard.disk_loads.fetch_add(1, std::memory_order_relaxed);
        counters().load.add();
        insert_memory_(shard, key, component);
        return component;
      } catch (const relm::Error&) {
        // Corrupt entry: count it and fall through to a miss. The caller
        // recompiles and insert() overwrites the bad file.
        shard.disk_errors.fetch_add(1, std::memory_order_relaxed);
        counters().corrupt.add();
      }
    }
  }
  return nullptr;
}

void ArtifactCache::insert_memory_(
    Shard& shard, const ArtifactKey& key,
    const std::shared_ptr<const Component>& component) {
  util::ScopedLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    it->second->component = component;
    return;
  }
  shard.lru.push_front(Shard::Entry{key, component});
  shard.index[key] = shard.lru.begin();
  while (shard.lru.size() > shard.capacity) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
    counters().evict.add();
  }
}

void ArtifactCache::insert(const ArtifactKey& key,
                           std::shared_ptr<const Component> component) {
  if (!enabled() || key.is_zero() || !component) return;
  Shard& shard = shard_for(key);
  insert_memory_(shard, key, component);

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
      shard.disk_errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    shard.disk_stores.fetch_add(1, std::memory_order_relaxed);
    counters().store.add();
  } catch (const relm::Error&) {
    // An unwritable disk store degrades to memory-only; it must never fail
    // the compile that produced the component.
    shard.disk_errors.fetch_add(1, std::memory_order_relaxed);
  }
}

ArtifactCache::Stats ArtifactCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kShards; ++i) {
    const Shard& s = shards_[i];
    stats.evictions += s.evictions.load(std::memory_order_relaxed);
    stats.disk_loads += s.disk_loads.load(std::memory_order_relaxed);
    stats.disk_stores += s.disk_stores.load(std::memory_order_relaxed);
    stats.disk_errors += s.disk_errors.load(std::memory_order_relaxed);
    util::ScopedLock lock(s.mutex);
    stats.entries += s.lru.size();
  }
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
    (compiled ? cache->misses_ : cache->hits_).fetch_add(1);
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
