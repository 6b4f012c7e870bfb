#include "model/ngram_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <type_traits>
#include <utility>

#include "model/decoding.hpp"
#include "model/logit_cache_table.hpp"
#include "obs/metrics.hpp"
#include "util/errors.hpp"
#include "util/sync.hpp"

namespace relm::model {

namespace {

// MurmurHash3's fmix64 finalizer: full avalanche, so any bit range of the
// result is usable as a table index.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Counts the (context key, token) observations of one context length in an
// open-addressing table: linear probing, at most half full.
class PairCounter {
 public:
  struct Entry {
    std::uint64_t key;
    TokenId token;
    std::uint32_t count;  // 0 marks an empty slot
  };

  void add(std::uint64_t key, TokenId token) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    Entry& slot = probe(slots_, key, token);
    if (slot.count == 0) {
      slot.key = key;
      slot.token = token;
      ++used_;
    }
    ++slot.count;
  }

  // The counted entries in (key, token) order; leaves the counter empty.
  std::vector<Entry> take_sorted() {
    std::vector<Entry> entries = std::exchange(slots_, {});
    used_ = 0;
    std::erase_if(entries, [](const Entry& e) { return e.count == 0; });
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      return a.key != b.key ? a.key < b.key : a.token < b.token;
    });
    return entries;
  }

 private:
  static Entry& probe(std::vector<Entry>& slots, std::uint64_t key, TokenId token) {
    const std::size_t mask = slots.size() - 1;
    for (std::size_t s = mix64(key + token * 0x9e3779b97f4a7c15ULL) & mask;;
         s = (s + 1) & mask) {
      Entry& slot = slots[s];
      if (slot.count == 0 || (slot.key == key && slot.token == token)) return slot;
    }
  }

  void grow() {
    std::vector<Entry> old = std::exchange(
        slots_, std::vector<Entry>(std::max<std::size_t>(1024, 2 * slots_.size())));
    for (const Entry& e : old) {
      if (e.count != 0) probe(slots_, e.key, e.token) = e;
    }
  }

  std::vector<Entry> slots_;
  std::size_t used_ = 0;
};

}  // namespace

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

  // EOS acts as both document start and end marker: the empty context plus
  // EOS-delimited boundaries give the model document-initial statistics.
  // Document d occupies stream[starts[d], starts[d + 1]).
  std::vector<TokenId> stream;
  std::vector<std::size_t> starts;
  for (const auto& seq : sequences) {
    starts.push_back(stream.size());
    stream.push_back(eos);
    stream.insert(stream.end(), seq.begin(), seq.end());
    stream.push_back(eos);
  }
  starts.push_back(stream.size());

  // Position i of a document predicts its token from the k tokens before
  // it, for every context length k < order; position 0 (the leading EOS) is
  // context only. One context length at a time, so one counter is alive.
  for (std::size_t k = 0; k < config.order; ++k) {
    PairCounter counter;
    for (std::size_t d = 0; d + 1 < starts.size(); ++d) {
      for (std::size_t i = starts[d] + std::max<std::size_t>(k, 1);
           i < starts[d + 1]; ++i) {
        counter.add(context_key({stream.data() + i - k, k}), stream[i]);
      }
    }
    Table& table = model->tables_[k];
    for (const PairCounter::Entry& e : counter.take_sorted()) {
      if (table.rows.empty() || table.rows.back().key != e.key) {
        table.rows.push_back(ContextRow{
            e.key, 0, 0.0, 0.0,
            static_cast<std::uint32_t>(table.continuations.size()), 0});
      }
      ContextRow& row = table.rows.back();
      row.total += e.count;
      ++row.size;
      table.continuations.push_back(Continuation{e.token, e.count});
    }
  }
  model->finish();
  return model;
}

void NgramModel::finish() {
  for (Table& table : tables_) {
    for (ContextRow& row : table.rows) {
      // Witten-Bell-flavored interpolation weight: contexts with many
      // distinct continuations lean more on the backoff distribution.
      const double fanout = static_cast<double>(row.size);
      row.lambda = config_.alpha * fanout /
                   (static_cast<double>(row.total) + config_.alpha * fanout);
      row.scale = (1.0 - row.lambda) / static_cast<double>(row.total);
    }
    for (const Continuation& c : table.continuations) {
      if (c.token >= vocab_size_) out_of_vocabulary_ = true;
    }
    table.slots.assign(std::bit_ceil(std::max<std::size_t>(2, 2 * table.rows.size())), 0);
    const std::size_t mask = table.slots.size() - 1;
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      std::size_t s = mix64(table.rows[r].key) & mask;
      while (table.slots[s] != 0) s = (s + 1) & mask;
      table.slots[s] = static_cast<std::uint32_t>(r + 1);
    }
  }
  // Start from uniform and interpolate the empty context's row, once. A
  // model with out-of-vocabulary rows never evaluates, so it keeps uniform.
  base_.assign(vocab_size_, 1.0 / static_cast<double>(vocab_size_));
  const ContextRow* row = tables_[0].find(context_key({}));
  if (row && !out_of_vocabulary_) tables_[0].interpolate(*row, base_);
}

const NgramModel::ContextRow* NgramModel::Table::find(std::uint64_t key) const {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t s = mix64(key) & mask;; s = (s + 1) & mask) {
    const std::uint32_t r = slots[s];
    if (r == 0) return nullptr;
    if (rows[r - 1].key == key) return &rows[r - 1];
  }
}

void NgramModel::Table::interpolate(const ContextRow& row,
                                    std::span<double> probs) const {
  for (double& p : probs) p *= row.lambda;
  for (const Continuation& c : run(row)) {
    probs[c.token] += row.scale * static_cast<double>(c.count);
  }
}

std::vector<double> NgramModel::next_log_probs(std::span<const TokenId> context) const {
  if (out_of_vocabulary_) {
    throw relm::Error("n-gram model counts tokens outside its vocabulary of " +
                      std::to_string(vocab_size_));
  }
  std::vector<double> probs = base_;

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
  for (std::size_t k = 1; k <= max_k; ++k) {
    const Table& table = tables_[k];
    // An unseen context keeps the backoff distribution.
    if (const ContextRow* row = table.find(context_key(context.last(k)))) {
      table.interpolate(*row, probs);
    }
  }
  for (double& p : probs) p = std::log(p);
  return probs;
}

std::span<const TokenId> NgramModel::distribution_key(std::span<const TokenId> context,
                                                      std::vector<TokenId>& scratch) const {
  // Anchored as next_log_probs anchors it: only the longest order tried can
  // reach the anchoring EOS.
  const bool anchored = context.size() + 1 < tables_.size();
  std::size_t k = std::min(context.size() + (anchored ? 1 : 0), tables_.size() - 1);
  if (anchored && k > 0) {
    scratch.assign(1, eos_);
    scratch.insert(scratch.end(), context.begin(), context.end());
    if (tables_[k].find(context_key(scratch))) return scratch;
    --k;
  }
  for (; k > 0; --k) {
    const std::span<const TokenId> suffix = context.last(k);
    if (tables_[k].find(context_key(suffix))) return suffix;
  }
  return {};
}

void NgramModel::save(std::ostream& out) const {
  out << "RELM_NGRAM v1\n";
  out << config_.order << ' ' << config_.alpha << ' '
      << config_.max_sequence_length << ' ' << vocab_size_ << ' ' << eos_
      << '\n';
  for (std::size_t k = 0; k < tables_.size(); ++k) {
    const Table& table = tables_[k];
    out << "table " << k << ' ' << table.rows.size() << '\n';
    for (const ContextRow& row : table.rows) {
      out << std::hex << row.key << std::dec << ' ' << row.total << ' '
          << row.size;
      for (const Continuation& c : table.run(row)) {
        out << ' ' << c.token << ' ' << c.count;
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
    // Rows as stored, their continuations appended to one array.
    std::vector<ContextRow> rows;
    std::vector<Continuation> stored;
    for (std::size_t i = 0; i < contexts && in; ++i) {
      ContextRow row{};
      std::size_t entries = 0;
      in >> std::hex >> row.key >> std::dec >> row.total >> entries;
      row.begin = static_cast<std::uint32_t>(stored.size());
      for (std::size_t e = 0; e < entries && in; ++e) {
        Continuation c{};
        in >> c.token >> c.count;
        stored.push_back(c);
      }
      // Row spans are 32-bit offsets into the table's continuations.
      if (stored.size() > std::numeric_limits<std::uint32_t>::max()) {
        throw relm::Error("model file: table too large");
      }
      row.size = static_cast<std::uint32_t>(stored.size() - row.begin);
      rows.push_back(row);
    }
    if (!in) throw relm::Error("model file: truncated");

    // Canonical layout whatever the file's order: rows by key, each run by
    // token. A repeated key or token keeps its first occurrence.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const ContextRow& a, const ContextRow& b) { return a.key < b.key; });
    rows.erase(std::unique(rows.begin(), rows.end(),
                           [](const ContextRow& a, const ContextRow& b) {
                             return a.key == b.key;
                           }),
               rows.end());
    Table& table = model->tables_[k];
    for (ContextRow row : rows) {
      const auto first = stored.begin() + row.begin;
      auto last = first + row.size;
      std::stable_sort(first, last, [](const Continuation& a, const Continuation& b) {
        return a.token < b.token;
      });
      last = std::unique(first, last, [](const Continuation& a, const Continuation& b) {
        return a.token == b.token;
      });
      row.begin = static_cast<std::uint32_t>(table.continuations.size());
      row.size = static_cast<std::uint32_t>(last - first);
      table.continuations.insert(table.continuations.end(), first, last);
      table.rows.push_back(row);
    }
  }
  model->finish();
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
    for (const ContextRow& row : tables_[k].rows) {
      fn(ContextRowView{k, row.key, row.total, tables_[k].run(row)});
    }
  }
}

std::size_t NgramModel::num_contexts() const {
  std::size_t n = 0;
  for (const Table& table : tables_) n += table.rows.size();
  return n;
}

std::vector<double> UniformModel::next_log_probs(std::span<const TokenId>) const {
  return std::vector<double>(vocab_size_,
                             -std::log(static_cast<double>(vocab_size_)));
}

// ---------------------------------------------------------------------------
// CachingModel: sharded LRU over distribution keys
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kCacheShards = std::size_t{1} << LogitCacheTable::kShardBits;

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
  obs::Gauge& entries;

  static CacheMetrics& get() {
    static CacheMetrics m{obs::Registry::instance().counter("model.cache.hits"),
                          obs::Registry::instance().counter("model.cache.misses"),
                          obs::Registry::instance().counter("model.cache.evictions"),
                          obs::Registry::instance().counter("model.cache.batch_dedup"),
                          obs::Registry::instance().gauge("model.cache.entries")};
    return m;
  }
};

}  // namespace

struct CachingModel::Shard {
  mutable util::Mutex mutex{util::LockRank::kModelCacheShard};
  LogitCacheTable table RELM_GUARDED_BY(mutex);
  std::size_t hits RELM_GUARDED_BY(mutex) = 0;
  std::size_t misses RELM_GUARDED_BY(mutex) = 0;
  std::size_t evictions RELM_GUARDED_BY(mutex) = 0;
};

CachingModel::CachingModel(std::shared_ptr<const LanguageModel> inner,
                           std::size_t capacity)
    : inner_(std::move(inner)),
      capacity_(capacity),
      shards_(std::make_unique<Shard[]>(kCacheShards)) {
  // Distribute the entry budget so shard capacities sum exactly to
  // capacity_: the bound counts entries across the whole cache, not keys or
  // shards (a rounded-up per-shard quota would overshoot small capacities).
  for (std::size_t s = 0; s < kCacheShards; ++s) {
    util::ScopedLock lock(shards_[s].mutex);
    shards_[s].table = LogitCacheTable(capacity_ / kCacheShards +
                                       (s < capacity_ % kCacheShards ? 1 : 0));
  }
}

CachingModel::~CachingModel() {
  // The entries gauge tracks live entries across every CachingModel; this
  // instance's entries disappear with it.
  CacheMetrics::get().entries.add(-static_cast<double>(entries()));
}

CachingModel::Shard& CachingModel::shard_for(std::uint64_t hash) const {
  return shards_[hash & (kCacheShards - 1)];
}

template <typename ContextAt>
void CachingModel::serve(ContextAt context_at, const DecodingRules& rules,
                         std::span<Row> out) const {
  CacheMetrics& metrics = CacheMetrics::get();
  const bool restricted = !rules.unrestricted();

  // A distinct key this call evaluates (a miss) or masks (a hit whose stored
  // mask is missing or was built for other rules); job_rows[j] is its row.
  // outputs[0] owns the work, later outputs reuse it. A key that points into
  // `scratch`, which the next context reuses, is copied into `owned`, whose
  // buffer moves with the job when `jobs` grows; any other key is a span of
  // the call's own contexts. A job evaluates through the relevant suffix of
  // its first context.
  struct Job {
    std::uint64_t hash;
    std::span<const TokenId> key;
    std::vector<TokenId> owned;
    std::span<const TokenId> suffix;
    bool evaluate;
    std::vector<std::size_t> outputs;
  };
  static_assert(std::is_nothrow_move_constructible_v<Job>);
  std::vector<Job> jobs;
  std::vector<Row> job_rows;
  std::vector<TokenId> scratch;

  auto open_job = [&](std::size_t i, std::uint64_t hash,
                      std::span<const TokenId> key,
                      std::span<const TokenId> suffix, bool evaluate) {
    Job& job = jobs.emplace_back(Job{hash, key, {}, suffix, evaluate, {i}});
    const std::less_equal<const TokenId*> le;
    if (!key.empty() && le(scratch.data(), key.data()) &&
        le(key.data() + key.size(), scratch.data() + scratch.size())) {
      job.owned.assign(key.begin(), key.end());
      job.key = job.owned;
    }
    job_rows.push_back(Row{out[i].log_probs, nullptr, false});
  };
  // Serves out[i] under `key` from this call's jobs or the shards and
  // returns true, or returns false having changed nothing.
  auto lookup = [&](std::size_t i, std::uint64_t hash,
                    std::span<const TokenId> key, std::span<const TokenId> suffix) {
    Shard& shard = shard_for(hash);
    const auto job = std::find_if(jobs.begin(), jobs.end(), [&](const Job& j) {
      return j.hash == hash && std::ranges::equal(j.key, key);
    });
    if (job != jobs.end()) {
      // A repeat of a key this call already serves joins its job: a hit, so
      // hit rates reflect the evaluations saved.
      job->outputs.push_back(i);
      {
        util::ScopedLock lock(shard.mutex);
        ++shard.hits;
      }
      metrics.hits.add();
      if (job->evaluate) metrics.batch_dedup.add();
      return true;
    }
    {
      util::ScopedLock lock(shard.mutex);
      const LogitCacheTable::Entry* entry = shard.table.lookup(hash, key);
      if (!entry) return false;
      ++shard.hits;
      out[i].log_probs = entry->log_probs;
      if (restricted && entry->mask_rules == rules) out[i].mask = entry->mask;
    }
    metrics.hits.add();
    if (!restricted || out[i].mask) {
      out[i].mask_reused = restricted;
    } else {
      open_job(i, hash, key, suffix, false);
    }
    return true;
  };

  // hash_tokens' per-step mixing leaves the high bits correlated for short
  // keys (nearby token ids cluster), so the shard and the slot in it come
  // from a full-avalanche finalizer of it.
  auto hash_of = [](std::span<const TokenId> key) { return mix64(hash_tokens(key)); };
  const std::size_t full = inner_->relevant_context_length();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::span<const TokenId> suffix = relevant_suffix(*inner_, context_at(i));
    // A full-length suffix is its own key if anything is stored under it.
    std::uint64_t hash = 0;
    const bool direct = suffix.size() == full;
    if (direct) {
      hash = hash_of(suffix);
      if (lookup(i, hash, suffix, suffix)) continue;
    }
    const std::span<const TokenId> key = inner_->distribution_key(suffix, scratch);
    // A key that is the suffix itself has already missed.
    if (!direct || !std::ranges::equal(key, suffix)) {
      hash = hash_of(key);
      if (lookup(i, hash, key, suffix)) continue;
    }
    // A miss; its shard counts it when the job stores the row.
    metrics.misses.add();
    open_job(i, hash, key, suffix, true);
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
    {
      Shard& shard = shard_for(jobs[j].hash);
      util::ScopedLock lock(shard.mutex);
      if (jobs[j].evaluate) ++shard.misses;
      const std::size_t entries = shard.table.size();
      if (shard.table.store(jobs[j].hash, jobs[j].key, job_rows[j], rules)) {
        ++shard.evictions;
        metrics.evictions.add();
      }
      if (shard.table.size() > entries) metrics.entries.add(1.0);
    }
    for (std::size_t k = 0; k < jobs[j].outputs.size(); ++k) {
      Row& row = out[jobs[j].outputs[k]];
      row = job_rows[j];
      row.mask_reused = restricted && k > 0;
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
    stats.entries += shard.table.size();
  }
  return stats;
}

std::size_t CachingModel::hits() const { return cache_stats()->hits; }
std::size_t CachingModel::misses() const { return cache_stats()->misses; }
std::size_t CachingModel::evictions() const { return cache_stats()->evictions; }
std::size_t CachingModel::entries() const { return cache_stats()->entries; }

}  // namespace relm::model
