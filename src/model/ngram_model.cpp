#include "model/ngram_model.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <list>
#include <unordered_set>

#include "model/decoding.hpp"
#include "obs/metrics.hpp"
#include "util/errors.hpp"
#include "util/sync.hpp"

namespace relm::model {

std::uint64_t NgramModel::context_key(std::span<const TokenId> ctx) {
  // 64-bit keys over short contexts make collisions (which would silently
  // merge two contexts' statistics) vanishingly unlikely at this scale.
  return hash_tokens(ctx);
}

std::shared_ptr<NgramModel> NgramModel::train(
    const tokenizer::BpeTokenizer& tok, const std::vector<std::string>& documents,
    const Config& config, const std::vector<std::string>& subword_prior_documents) {
  util::Pcg32 rng(config.encoding_seed);
  std::vector<std::vector<TokenId>> sequences;
  sequences.reserve(documents.size() + subword_prior_documents.size());
  for (const std::string& doc : documents) {
    if (config.non_canonical_document_rate > 0.0 &&
        rng.uniform() < config.non_canonical_document_rate) {
      sequences.push_back(
          tok.encode_random(doc, rng, config.non_canonical_step_prob));
    } else {
      sequences.push_back(tok.encode(doc));
    }
  }
  for (const std::string& doc : subword_prior_documents) {
    sequences.push_back(tok.encode_random(doc, rng, /*step_prob=*/0.5));
  }
  return train_on_tokens(tok.vocab_size(), tok.eos(), sequences, config);
}

std::shared_ptr<NgramModel> NgramModel::train_on_tokens(
    std::size_t vocab_size, TokenId eos,
    const std::vector<std::vector<TokenId>>& sequences, const Config& config) {
  if (config.order < 1) throw relm::Error("n-gram order must be >= 1");
  auto model = std::shared_ptr<NgramModel>(new NgramModel());
  model->config_ = config;
  model->vocab_size_ = vocab_size;
  model->eos_ = eos;
  model->tables_.resize(config.order);

  for (const auto& seq : sequences) {
    // EOS acts as both document start and end marker: the empty context plus
    // EOS-delimited boundaries give the model document-initial statistics.
    std::vector<TokenId> wrapped;
    wrapped.reserve(seq.size() + 2);
    wrapped.push_back(eos);
    wrapped.insert(wrapped.end(), seq.begin(), seq.end());
    wrapped.push_back(eos);
    model->count_sequence(wrapped);
  }
  return model;
}

void NgramModel::count_sequence(const std::vector<TokenId>& seq) {
  // Position i predicts seq[i] from the k tokens before it, for every
  // context length k < order. Position 0 (the leading EOS) is context only.
  for (std::size_t i = 1; i < seq.size(); ++i) {
    for (std::size_t k = 0; k < tables_.size(); ++k) {
      if (k > i) break;
      std::span<const TokenId> ctx(seq.data() + (i - k), k);
      ContextStats& stats = tables_[k][context_key(ctx)];
      ++stats.counts[seq[i]];
      ++stats.total;
    }
  }
}

std::vector<double> NgramModel::next_log_probs(std::span<const TokenId> context) const {
  const std::size_t V = vocab_size_;
  // Start from uniform and interpolate upward through the orders.
  std::vector<double> probs(V, 1.0 / static_cast<double>(V));

  // Generation is document-anchored: a context shorter than the window is
  // implicitly preceded by the document boundary (GPT-2's <|endoftext|>),
  // matching how training sequences are EOS-wrapped.
  std::vector<TokenId> anchored;
  if (context.size() + 1 < tables_.size()) {
    anchored.reserve(context.size() + 1);
    anchored.push_back(eos_);
    anchored.insert(anchored.end(), context.begin(), context.end());
    context = anchored;
  }

  const std::size_t max_k = std::min(context.size(), tables_.size() - 1);
  for (std::size_t k = 0; k <= max_k; ++k) {
    std::span<const TokenId> ctx = context.subspan(context.size() - k, k);
    auto it = tables_[k].find(context_key(ctx));
    if (it == tables_[k].end()) continue;  // unseen context: keep backoff
    const ContextStats& stats = it->second;
    // Witten-Bell-flavored interpolation weight: contexts with many distinct
    // continuations lean more on the backoff distribution.
    const double fanout = static_cast<double>(stats.counts.size());
    const double lambda = config_.alpha * fanout /
                          (static_cast<double>(stats.total) + config_.alpha * fanout);
    for (double& p : probs) p *= lambda;
    const double scale = (1.0 - lambda) / static_cast<double>(stats.total);
    for (const auto& [token, count] : stats.counts) {
      probs[token] += scale * static_cast<double>(count);
    }
  }

  std::vector<double> log_probs(V);
  for (std::size_t t = 0; t < V; ++t) {
    log_probs[t] = std::log(probs[t]);
  }
  return log_probs;
}

void NgramModel::save(std::ostream& out) const {
  out << "RELM_NGRAM v1\n";
  out << config_.order << ' ' << config_.alpha << ' '
      << config_.max_sequence_length << ' ' << vocab_size_ << ' ' << eos_
      << '\n';
  for (std::size_t k = 0; k < tables_.size(); ++k) {
    out << "table " << k << ' ' << tables_[k].size() << '\n';
    for (const auto& [key, stats] : tables_[k]) {
      out << std::hex << key << std::dec << ' ' << stats.total << ' '
          << stats.counts.size();
      for (const auto& [token, count] : stats.counts) {
        out << ' ' << token << ' ' << count;
      }
      out << '\n';
    }
  }
}

std::shared_ptr<NgramModel> NgramModel::load(std::istream& in) {
  std::string magic, version;
  in >> magic >> version;
  if (magic != "RELM_NGRAM" || version != "v1") {
    throw relm::Error("not a RELM_NGRAM v1 model file");
  }
  auto model = std::shared_ptr<NgramModel>(new NgramModel());
  in >> model->config_.order >> model->config_.alpha >>
      model->config_.max_sequence_length >> model->vocab_size_ >> model->eos_;
  if (!in || model->config_.order == 0) {
    throw relm::Error("model file: corrupt header");
  }
  model->tables_.resize(model->config_.order);
  for (std::size_t k = 0; k < model->config_.order; ++k) {
    std::string tag;
    std::size_t index = 0, contexts = 0;
    in >> tag >> index >> contexts;
    if (!in || tag != "table" || index != k) {
      throw relm::Error("model file: corrupt table header");
    }
    model->tables_[k].reserve(contexts);
    for (std::size_t i = 0; i < contexts; ++i) {
      std::uint64_t key = 0;
      ContextStats stats;
      std::size_t entries = 0;
      in >> std::hex >> key >> std::dec >> stats.total >> entries;
      for (std::size_t e = 0; e < entries; ++e) {
        TokenId token = 0;
        std::uint32_t count = 0;
        in >> token >> count;
        stats.counts.emplace(token, count);
      }
      if (!in) throw relm::Error("model file: truncated");
      model->tables_[k].emplace(key, std::move(stats));
    }
  }
  return model;
}

void NgramModel::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw relm::Error("cannot open for writing: " + path);
  save(out);
}

std::shared_ptr<NgramModel> NgramModel::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw relm::Error("cannot open for reading: " + path);
  return load(in);
}

void NgramModel::visit_context_rows(
    const std::function<void(const ContextRowView&)>& fn) const {
  for (std::size_t k = 0; k < tables_.size(); ++k) {
    for (const auto& [key, stats] : tables_[k]) {
      fn(ContextRowView{k, key, stats.total, &stats.counts});
    }
  }
}

std::size_t NgramModel::num_contexts() const {
  std::size_t n = 0;
  for (const auto& table : tables_) n += table.size();
  return n;
}

std::vector<double> UniformModel::next_log_probs(std::span<const TokenId>) const {
  return std::vector<double>(vocab_size_,
                             -std::log(static_cast<double>(vocab_size_)));
}

// ---------------------------------------------------------------------------
// CachingModel: sharded LRU over relevant-suffix keys
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kCacheShards = 16;

// Process-wide cache metrics (docs/OBSERVABILITY.md). The per-shard counters
// below remain the per-instance attribution surface (SearchStats diffs
// cache_stats() snapshots against a baseline); the registry accumulates the
// same events across every CachingModel so --metrics and bench snapshots see
// global cache behaviour. "hits" counts evaluations saved, including batch
// dedup joins; "batch_dedup" counts the joins alone.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& batch_dedup;
  obs::Counter& inflight_dedup;
  obs::Gauge& entries;

  static CacheMetrics& get() {
    static CacheMetrics m{obs::Registry::instance().counter("model.cache.hits"),
                          obs::Registry::instance().counter("model.cache.misses"),
                          obs::Registry::instance().counter("model.cache.evictions"),
                          obs::Registry::instance().counter("model.cache.batch_dedup"),
                          obs::Registry::instance().counter("model.cache.inflight_dedup"),
                          obs::Registry::instance().gauge("model.cache.entries")};
    return m;
  }
};

}  // namespace

struct CachingModel::Shard {
  struct Entry {
    std::uint64_t hash;
    std::vector<TokenId> suffix;  // stored to rule out hash collisions
    // Shared so hits hand the buffers out without copying them; eviction
    // merely drops the cache's references while readers keep theirs.
    std::shared_ptr<const std::vector<double>> log_probs;
    // The mask last built over log_probs and the exact rules it was built
    // for; null until a restricted request fills it.
    DecodingRules mask_rules;
    std::shared_ptr<const util::TokenBitset> mask;
  };
  using Iter = std::list<Entry>::iterator;

  mutable util::Mutex mutex{util::LockRank::kModelCacheShard};
  // Set once in the CachingModel constructor before any concurrent use, and
  // immutable afterwards — so not lock-guarded.
  std::size_t capacity = 0;  // this shard's entry budget
  // LRU list, front = most recently used; the index maps a suffix hash to
  // every live entry with that hash (collisions resolved by comparison).
  std::list<Entry> lru RELM_GUARDED_BY(mutex);
  std::unordered_map<std::uint64_t, std::vector<Iter>> index RELM_GUARDED_BY(mutex);
  std::size_t hits RELM_GUARDED_BY(mutex) = 0;
  std::size_t misses RELM_GUARDED_BY(mutex) = 0;
  std::size_t evictions RELM_GUARDED_BY(mutex) = 0;

  // The live entry for `suffix`, or lru.end().
  Iter locate(std::uint64_t hash, std::span<const TokenId> suffix)
      RELM_REQUIRES(mutex) {
    auto bucket = index.find(hash);
    if (bucket != index.end()) {
      for (Iter entry_it : bucket->second) {
        if (std::ranges::equal(entry_it->suffix, suffix)) return entry_it;
      }
    }
    return lru.end();
  }

  // Looks up `suffix` for one request, refreshing recency and counting the
  // hit or miss; null on miss. `retry` retracts the miss the request's
  // previous probe counted (it then waited for another caller's evaluation
  // of the suffix), so every request counts once. The entry may be read
  // only while `mutex` is held.
  const Entry* find(std::uint64_t hash, std::span<const TokenId> suffix,
                    bool retry) RELM_REQUIRES(mutex) {
    if (retry) --misses;
    const Iter entry_it = locate(hash, suffix);
    if (entry_it == lru.end()) {
      ++misses;
      return nullptr;
    }
    ++hits;
    // Recency order only matters once eviction is plausible; below half
    // capacity the splice is pure overhead on the hit path.
    if (lru.size() * 2 >= capacity) lru.splice(lru.begin(), lru, entry_it);
    return &*entry_it;
  }

  // Stores `row` for `suffix`: a live entry takes its mask, otherwise a new
  // entry is inserted, evicting the LRU tail to stay within capacity.
  void store(std::uint64_t hash, std::span<const TokenId> suffix,
             const Row& row, const DecodingRules& rules) RELM_REQUIRES(mutex) {
    if (const Iter live = locate(hash, suffix); live != lru.end()) {
      if (row.mask) {
        live->mask_rules = rules;
        live->mask = row.mask;
      }
      return;
    }
    if (capacity == 0) return;
    while (lru.size() >= capacity) {
      const Entry& victim = lru.back();
      auto victim_bucket = index.find(victim.hash);
      auto& entries = victim_bucket->second;
      auto last = std::prev(lru.end());
      entries.erase(std::find(entries.begin(), entries.end(), last));
      if (entries.empty()) index.erase(victim_bucket);
      lru.pop_back();
      ++evictions;
      CacheMetrics::get().evictions.add();
      CacheMetrics::get().entries.add(-1.0);
    }
    lru.push_front(Entry{hash, std::vector<TokenId>(suffix.begin(), suffix.end()),
                         row.log_probs, rules, row.mask});
    index[hash].push_back(lru.begin());
    CacheMetrics::get().entries.add(1.0);
  }
};

// Dedup table for computations currently in flight: a thread that misses on
// a suffix another thread is already evaluating waits here instead of
// evaluating the model a second time. Keyed by suffix hash only — the
// full-suffix comparison happens at the shard on re-probe, so a hash
// collision costs a spurious wait, never a wrong result. Ranked BEFORE the
// cache shards (kModelCacheInflight < kModelCacheShard): the claim/erase
// sites never hold a shard lock, so the one legal nesting direction is
// inflight -> shard.
struct CachingModel::Inflight {
  mutable util::Mutex mutex{util::LockRank::kModelCacheInflight};
  util::CondVar done;
  std::unordered_set<std::uint64_t> pending RELM_GUARDED_BY(mutex);
};

CachingModel::CachingModel(std::shared_ptr<const LanguageModel> inner,
                           std::size_t capacity)
    : inner_(std::move(inner)),
      capacity_(capacity),
      shards_(std::make_unique<Shard[]>(kCacheShards)),
      inflight_(std::make_unique<Inflight>()) {
  // Distribute the entry budget so shard capacities sum exactly to
  // capacity_: the bound counts entries across the whole cache, not keys or
  // shards (a rounded-up per-shard quota would overshoot small capacities).
  for (std::size_t s = 0; s < kCacheShards; ++s) {
    shards_[s].capacity = capacity_ / kCacheShards +
                          (s < capacity_ % kCacheShards ? 1 : 0);
  }
}

CachingModel::~CachingModel() {
  // The entries gauge tracks live entries across every CachingModel; this
  // instance's entries disappear with it.
  CacheMetrics::get().entries.add(-static_cast<double>(entries()));
}

CachingModel::Shard& CachingModel::shard_for(std::uint64_t hash) const {
  // hash_tokens' per-step mixing leaves the high bits correlated for short
  // suffixes (nearby token ids cluster into a few shards), so run the value
  // through a full-avalanche finalizer (MurmurHash3 fmix64) before taking
  // shard bits. The raw hash still keys the in-shard bucket.
  std::uint64_t x = hash;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return shards_[x & (kCacheShards - 1)];
}

template <typename ContextAt>
void CachingModel::serve(ContextAt context_at, const DecodingRules& rules,
                         std::span<Row> out) const {
  CacheMetrics& metrics = CacheMetrics::get();
  const bool restricted = !rules.unrestricted();

  // A distinct suffix this round evaluates (a miss) or masks (a hit whose
  // stored mask is missing or was built for other rules); job_rows[j] is
  // its row. outputs[0] owns the work, later outputs reuse it.
  struct Job {
    std::uint64_t hash;
    std::span<const TokenId> suffix;
    bool evaluate;
    std::vector<std::size_t> outputs;
  };
  // This round's in-flight claims, released however the round ends so
  // waiters wake and re-probe (after the entries are stored).
  struct Claims {
    Inflight& table;
    std::vector<std::uint64_t> hashes;
    ~Claims() { release(); }
    void release() {
      if (hashes.empty()) return;
      util::ScopedLock lock(table.mutex);
      for (std::uint64_t hash : hashes) table.pending.erase(hash);
      hashes.clear();
      table.done.notify_all();
    }
  };

  // Rows whose suffix another caller was evaluating; re-probed next round.
  std::vector<std::size_t> waiting;
  for (bool retry = false;; retry = true) {
    const std::vector<std::size_t> todo = std::move(waiting);
    waiting.clear();
    std::vector<Job> jobs;
    std::vector<Row> job_rows;
    Claims claims{*inflight_, {}};
    const std::size_t probes = retry ? todo.size() : out.size();
    for (std::size_t p = 0; p < probes; ++p) {
      const std::size_t i = retry ? todo[p] : p;
      const std::span<const TokenId> suffix = relevant_suffix(*inner_, context_at(i));
      const std::uint64_t hash = hash_tokens(suffix);
      Shard& shard = shard_for(hash);
      bool hit = false;
      {
        util::ScopedLock lock(shard.mutex);
        if (const Shard::Entry* entry = shard.find(hash, suffix, retry)) {
          hit = true;
          out[i].log_probs = entry->log_probs;
          if (restricted && entry->mask_rules == rules) out[i].mask = entry->mask;
        }
      }
      if (hit) {
        metrics.hits.add();
        if (!restricted || out[i].mask) {
          out[i].mask_reused = restricted;
          continue;
        }
      }
      const auto job = std::find_if(jobs.begin(), jobs.end(), [&](const Job& j) {
        return j.hash == hash && std::ranges::equal(j.suffix, suffix);
      });
      if (job != jobs.end()) {
        job->outputs.push_back(i);
        if (!hit) {
          // The probe counted a miss, but this round's pending evaluation
          // serves the row without another model call: reclassify, so hit
          // rates reflect evaluations saved.
          util::ScopedLock lock(shard.mutex);
          --shard.misses;
          ++shard.hits;
          metrics.hits.add();
          metrics.batch_dedup.add();
        }
        continue;
      }
      if (!hit) {
        bool claimed = false;
        {
          util::ScopedLock lock(inflight_->mutex);
          claimed = inflight_->pending.insert(hash).second;
        }
        if (!claimed) {
          metrics.inflight_dedup.add();
          waiting.push_back(i);
          continue;
        }
        claims.hashes.push_back(hash);
        metrics.misses.add();
      }
      jobs.push_back(Job{hash, suffix, !hit, {i}});
      job_rows.push_back(Row{out[i].log_probs, nullptr, false});
    }

    std::vector<std::vector<TokenId>> eval_contexts;
    for (const Job& job : jobs) {
      if (job.evaluate) eval_contexts.emplace_back(job.suffix.begin(), job.suffix.end());
    }
    if (!eval_contexts.empty()) {
      std::vector<Row> fresh = inner_->next_rows(eval_contexts, DecodingRules{});
      std::size_t e = 0;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j].evaluate) job_rows[j].log_probs = std::move(fresh[e++].log_probs);
      }
    }
    fill_rule_masks(job_rows, rules);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      Shard& shard = shard_for(jobs[j].hash);
      util::ScopedLock lock(shard.mutex);
      shard.store(jobs[j].hash, jobs[j].suffix, job_rows[j], rules);
    }
    claims.release();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (std::size_t k = 0; k < jobs[j].outputs.size(); ++k) {
        Row& row = out[jobs[j].outputs[k]];
        row = job_rows[j];
        row.mask_reused = restricted && k > 0;
      }
    }

    if (waiting.empty()) return;
    util::ScopedLock lock(inflight_->mutex);
    for (const std::size_t i : waiting) {
      const std::uint64_t hash = hash_tokens(relevant_suffix(*inner_, context_at(i)));
      while (inflight_->pending.count(hash) > 0) inflight_->done.wait(lock);
    }
  }
}

std::vector<double> CachingModel::next_log_probs(std::span<const TokenId> context) const {
  Row row;
  serve([&](std::size_t) { return context; }, DecodingRules{}, {&row, 1});
  return *row.log_probs;
}

std::vector<std::vector<double>> CachingModel::next_log_probs_batch(
    std::span<const std::vector<TokenId>> contexts) const {
  std::vector<std::vector<double>> out;
  out.reserve(contexts.size());
  for (const Row& row : next_rows(contexts, DecodingRules{})) {
    out.push_back(*row.log_probs);
  }
  return out;
}

std::vector<LanguageModel::Row> CachingModel::next_rows(
    std::span<const std::vector<TokenId>> contexts,
    const DecodingRules& rules) const {
  std::vector<Row> out(contexts.size());
  serve([&](std::size_t i) { return std::span<const TokenId>(contexts[i]); },
        rules, out);
  return out;
}

std::optional<LanguageModel::CacheStats> CachingModel::cache_stats() const {
  CacheStats stats;
  for (std::size_t s = 0; s < kCacheShards; ++s) {
    const Shard& shard = shards_[s];
    util::ScopedLock lock(shard.mutex);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.entries += shard.lru.size();
  }
  return stats;
}

std::size_t CachingModel::hits() const { return cache_stats()->hits; }
std::size_t CachingModel::misses() const { return cache_stats()->misses; }
std::size_t CachingModel::evictions() const { return cache_stats()->evictions; }
std::size_t CachingModel::entries() const { return cache_stats()->entries; }

}  // namespace relm::model
