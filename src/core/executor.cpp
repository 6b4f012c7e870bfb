#include "core/executor.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/generate/gen_stream.hpp"
#include "model/decoding.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace relm::core {

using model::LanguageModel;
using tokenizer::TokenId;

namespace {

// Registry-backed executor metrics (docs/OBSERVABILITY.md catalogue). The
// per-search SearchStats counters stay the per-query attribution surface;
// these accumulate the same events process-wide so --metrics and the bench
// snapshots can attribute cost without a search handle.
struct ExecutorMetrics {
  obs::Counter& llm_calls;
  obs::Counter& expansions;
  obs::Counter& pruned_rules;
  obs::Counter& pruned_non_canonical;
  obs::Counter& mask_words_scanned;
  obs::Counter& mask_pruned;
  obs::Counter& results;
  obs::Histogram& batch_size;
  // Async-pipeline surface (docs/OBSERVABILITY.md): evaluations per pipeline
  // round (the occupancy the controller achieved), nodes popped ahead of
  // settlement, nodes deferred by the budget clamp, evaluations that never
  // beat the last emission, and selections cut by the cost horizon.
  obs::Histogram& batch_occupancy;
  obs::Counter& speculative_expanded;
  obs::Counter& speculative_cancelled;
  obs::Counter& speculative_wasted;
  obs::Counter& horizon_clips;

  // Adds the step counters accrued since `before`.
  void add(const CompiledQuery::StepCounters& now,
           const CompiledQuery::StepCounters& before = {}) {
    pruned_rules.add(now.pruned_by_rules - before.pruned_by_rules);
    pruned_non_canonical.add(now.pruned_non_canonical -
                             before.pruned_non_canonical);
    mask_words_scanned.add(now.mask_words_scanned - before.mask_words_scanned);
    mask_pruned.add(now.mask_pruned - before.mask_pruned);
  }

  static ExecutorMetrics& get() {
    static ExecutorMetrics m{
        obs::Registry::instance().counter("executor.llm_calls"),
        obs::Registry::instance().counter("executor.expansions"),
        obs::Registry::instance().counter("executor.pruned_by_rules"),
        obs::Registry::instance().counter("executor.pruned_non_canonical"),
        obs::Registry::instance().counter("executor.mask_words_scanned"),
        obs::Registry::instance().counter("executor.mask_pruned"),
        obs::Registry::instance().counter("executor.results"),
        obs::Registry::instance().histogram(
            "executor.batch.size", obs::Histogram::default_size_bounds()),
        obs::Registry::instance().histogram(
            "executor.batch_occupancy", obs::Histogram::default_size_bounds()),
        obs::Registry::instance().counter("executor.speculative_expanded"),
        obs::Registry::instance().counter("executor.speculative_cancelled"),
        obs::Registry::instance().counter("executor.speculative_wasted"),
        obs::Registry::instance().counter("executor.speculative_horizon_clips")};
    return m;
  }
};

// Snapshot of the model's cache counters at search start; deltas against it
// attribute cache work to this search in SearchStats.
model::LanguageModel::CacheStats cache_baseline_of(
    const model::LanguageModel& model, bool& has_cache) {
  if (auto stats = model.cache_stats()) {
    has_cache = true;
    return *stats;
  }
  has_cache = false;
  return {};
}

void fill_cache_stats(const model::LanguageModel& model,
                      const model::LanguageModel::CacheStats& baseline,
                      bool has_cache, SearchStats& stats) {
  if (!has_cache) return;
  auto current = model.cache_stats();
  if (!current) return;
  stats.cache_hits = current->hits - baseline.hits;
  stats.cache_misses = current->misses - baseline.misses;
  stats.cache_evictions = current->evictions - baseline.evictions;
}

}  // namespace

std::size_t sequence_budget(const SimpleSearchQuery& query,
                            const model::LanguageModel& model) {
  return std::min(query.sequence_length.value_or(model.max_sequence_length()),
                  model.max_sequence_length());
}

// ---------------------------------------------------------------------------
// ShortestPathSearch
// ---------------------------------------------------------------------------

ShortestPathSearch::ShortestPathSearch(const model::LanguageModel& model,
                                       const CompiledQuery& compiled,
                                       const SimpleSearchQuery& query)
    : model_(model), compiled_(compiled), query_(query) {
  cache_baseline_ = cache_baseline_of(model_, model_has_cache_);
  Node root;
  root.set = compiled_.initial();
  root.parent = -1;
  root.token = 0;
  root.cost = 0.0;
  root.depth = 0;
  root.body_len = 0;
  root.terminal = false;
  // The node arena grows to roughly branching × expansions; pre-sizing it
  // keeps retirement from stalling on arena reallocation mid-round.
  nodes_.reserve(std::min<std::size_t>(
      std::max<std::size_t>(query_.max_expansions, 1024), 1u << 16));
  nodes_.push_back(root);
  frontier_.push(QueueEntry{0.0, 0});
}

void ShortestPathSearch::path_tail_into(std::int32_t node, std::size_t len,
                                        std::vector<TokenId>& out) const {
  out.resize(len);
  std::int32_t cur = node;
  for (std::size_t i = len; i > 0; --i) {
    out[i - 1] = nodes_[cur].token;
    cur = nodes_[cur].parent;
  }
}

void ShortestPathSearch::refresh_cache_stats() {
  fill_cache_stats(model_, cache_baseline_, model_has_cache_, stats_);
}

// Queues `node_id` onto pending_results_ when it is a match. Retirement calls
// it for every settled node, in deterministic order.
void ShortestPathSearch::emit_if_result(std::int32_t id) {
  const bool is_result =
      nodes_[id].terminal ||
      (!query_.require_eos && compiled_.is_match(nodes_[id].set));
  if (!is_result) return;

  // Only result nodes pay for a full path reconstruction.
  std::vector<TokenId> tokens;
  path_tail_into(id, nodes_[id].depth, tokens);
  if (nodes_[id].terminal) tokens.pop_back();  // drop EOS from the tuple
  std::string text = compiled_.tokenizer().decode(tokens);
  // Final canonicality gate (§3.2 option 2): the incremental check can
  // only reject *settled* deviations; at emission the string is complete,
  // so the body tokens must equal the canonical encoding exactly.
  if (compiled_.dynamic_canonical()) {
    const std::uint32_t body_len = nodes_[id].body_len;
    std::span<const TokenId> body(tokens.data() + (tokens.size() - body_len),
                                  body_len);
    // The body text is the tail of the already-decoded result text; the
    // settled boundary carried on the node lets the finalizer walk only the
    // unsettled suffix.
    std::size_t body_bytes = 0;
    for (TokenId t : body) {
      body_bytes += compiled_.tokenizer().token_string(t).size();
    }
    std::string_view body_text(text.data() + (text.size() - body_bytes),
                               body_bytes);
    if (!compiled_.canonical_body(body, body_text, nodes_[id].canon)) {
      ++stats_.pruned_non_canonical;
      return;
    }
  }
  // No dedup here: a costlier encoding of a text can reach this point
  // before a cheaper one is discovered (speculative rounds pop ahead of
  // discovery). Dedup happens at release time in next(), once the result
  // is provably optimal.
  stats_.elapsed_seconds = timer_.seconds();
  pending_results_.push(PendingResult{
      nodes_[id].cost,
      SearchResult{std::move(tokens), std::move(text), -nodes_[id].cost,
                   stats_.llm_calls, stats_.elapsed_seconds}});
}

void ShortestPathSearch::make_task(std::int32_t node_id,
                                   SlotTask& task) const {
  const Node& node = nodes_[node_id];
  task.set = node.set;
  path_tail_into(node_id,
                 std::min<std::size_t>(node.depth, model_.relevant_context_length()),
                 task.context);
  task.body_prefix.clear();
  task.body_text.clear();
  task.canon = node.canon;
  if (compiled_.dynamic_canonical()) {
    // The body token subsequence is the last body_len tokens of the path;
    // captured here because workers must not walk nodes_ (the coordinator
    // reallocates it while they run).
    path_tail_into(node_id, node.body_len, task.body_prefix);
    const tokenizer::BpeTokenizer& tok = compiled_.tokenizer();
    for (TokenId id : task.body_prefix) {
      task.body_text.append(tok.token_string(id));
    }
  }
}

void ShortestPathSearch::evaluate_slot(const SlotTask& task,
                                       SlotOutput& out) const {
  out.row = std::move(model_.next_rows({&task.context, 1}, query_.decoding).front());
  RELM_DCHECK(out.row.log_probs->size() == model_.vocab_size(),
              "model distribution size must equal the vocabulary");
  compiled_.decode_step(task.set, out.row.mask.get(), model_.eos(),
                        {task.body_prefix, task.body_text, task.canon}, out.step);
}

void ShortestPathSearch::pump() {
  RELM_TRACE_SPAN("executor.pump");
  ExecutorMetrics& metrics = ExecutorMetrics::get();
  const CompiledQuery::StepCounters counters_before = stats_;
  const std::size_t results_before = pending_results_.size();
  const std::size_t seq_limit = sequence_budget(query_, model_);

  // ---- Selection: a pure function of (frontier, budget, knobs) — never of
  // thread count or timing, which is what keeps outputs byte-identical
  // across 1/2/4/8 threads.
  const std::size_t target = std::max<std::size_t>(query_.target_occupancy, 1);
  const std::size_t cap = std::max<std::size_t>(query_.max_in_flight, 1);
  const std::size_t budget_left =
      query_.max_expansions > stats_.expansions
          ? query_.max_expansions - stats_.expansions
          : 0;
  // Occupancy controller: track frontier depth toward 2x the target (the
  // classic keep-the-pipe-full setpoint), floor 1, ceiling max_in_flight.
  const std::size_t want = std::min(
      cap, std::max<std::size_t>(
               1, std::min(frontier_.size(), 2 * target)));

  round_slots_.clear();
  round_tasks_.clear();
  double round_min = 0.0;
  bool have_min = false;
  while (round_slots_.size() < want && !frontier_.empty()) {
    const QueueEntry top = frontier_.top();
    const std::int32_t id = top.node;
    if (nodes_[id].expanded) {  // defensive: ids are pushed exactly once
      frontier_.pop();
      continue;
    }
    if (!have_min) {
      round_min = top.cost;
      have_min = true;
    } else if (top.cost > round_min + query_.speculation_horizon) {
      // Speculating past the horizon is nearly always wasted: this node's
      // children cannot settle before everything cheaper drains.
      ++stats_.horizon_clips;
      break;
    }
    const bool needs_eval =
        !nodes_[id].terminal && nodes_[id].depth < seq_limit;
    if (needs_eval && round_tasks_.size() >= budget_left) {
      // Budget clamp mid-selection: defer the node (the first eval of a
      // round is always admitted — next() only pumps with budget left — so
      // this cannot stall the search).
      ++stats_.speculative_cancelled;
      break;
    }
    frontier_.pop();
    nodes_[id].expanded = true;
    std::size_t eval = SIZE_MAX;
    if (needs_eval) {
      eval = round_tasks_.size();
      // Grow-and-fill instead of push_back: slots past the high-water mark
      // are constructed once, then refilled in place every round.
      if (round_tasks_.size() == eval) round_tasks_.resize(eval + 1);
      make_task(id, round_tasks_[eval]);
      nodes_[id].evaluated = true;
    }
    round_slots_.push_back(PipeSlot{id, eval});
  }
  if (round_slots_.empty()) return;
  if (round_slots_.size() > 1) {
    stats_.speculative_expanded += round_slots_.size() - 1;
  }
  const std::size_t n_tasks = round_tasks_.size();

  // ---- Submission: one async batch, no barrier. Each task is a pure
  // function of its SlotTask writing only its own output slot (the
  // resize happens before submission; workers never touch the vectors
  // themselves).
  if (round_outputs_.size() < n_tasks) round_outputs_.resize(n_tasks);
  util::ThreadPool::AsyncBatch batch;
  if (n_tasks > 0) {
    batch = util::ThreadPool::shared().submit(
        n_tasks, [this](std::size_t i) {
          evaluate_slot(round_tasks_[i], round_outputs_[i]);
        });
  }

  // ---- Retirement, in submission order: slot i's children/match land
  // while slots > i are still evaluating. All shared-state mutation (node
  // allocation, frontier pushes, stats) happens here, on the coordinator.
  for (const PipeSlot& slot : round_slots_) {
    if (slot.eval == SIZE_MAX) {
      emit_if_result(slot.node);
      continue;
    }
    batch.wait(slot.eval);
    batch.rethrow_if_error();
    ++stats_.llm_calls;
    ++stats_.expansions;
    const SlotOutput& out = round_outputs_[slot.eval];
    const std::vector<double>& lp = *out.row.log_probs;
    stats_ += out.step.counters;
    count_mask(out.row, stats_);

    const Node parent = nodes_[slot.node];  // copy: nodes_ reallocates below
    for (std::size_t s = 0; s < out.step.steps.size(); ++s) {
      const CompiledQuery::Step& step = out.step.steps[s];
      Node child;
      child.set = step.next;
      child.parent = slot.node;
      child.token = step.token;
      RELM_DCHECK(step.token < lp.size(),
                  "compiled query emitted a token outside the vocabulary");
      child.cost = parent.cost - lp[step.token];
      RELM_DCHECK(!std::isnan(child.cost) && child.cost >= parent.cost - 1e-9,
                  "Dijkstra edge costs must be non-negative (-log p)");
      child.depth = parent.depth + 1;
      child.body_len = step.body_advanced ? parent.body_len + 1 : 0;
      child.canon = out.step.canon[s];
      child.terminal = false;
      nodes_.push_back(child);
      frontier_.push(
          QueueEntry{child.cost, static_cast<std::int32_t>(nodes_.size() - 1)});
    }
    // EOS closure (require_eos): a match's terminated child, unless the
    // rule mask cuts EOS.
    const bool wants_eos = query_.require_eos && compiled_.is_match(parent.set);
    if (wants_eos && !out.step.eos_allowed) ++stats_.pruned_by_rules;
    if (wants_eos && out.step.eos_allowed) {
      Node child = parent;
      child.parent = slot.node;
      child.token = model_.eos();
      child.cost = parent.cost - lp[child.token];
      child.depth = parent.depth + 1;
      child.terminal = true;
      child.expanded = false;
      child.evaluated = false;
      nodes_.push_back(child);
      frontier_.push(
          QueueEntry{child.cost, static_cast<std::int32_t>(nodes_.size() - 1)});
    }
    emit_if_result(slot.node);
  }
  batch.wait_all();
  batch.rethrow_if_error();

  ++stats_.pump_rounds;
  refresh_cache_stats();
  metrics.llm_calls.add(n_tasks);
  metrics.expansions.add(n_tasks);
  metrics.add(stats_, counters_before);
  metrics.results.add(pending_results_.size() - results_before);
  metrics.batch_size.observe(static_cast<double>(round_slots_.size()));
  if (n_tasks > 0) {
    metrics.batch_occupancy.observe(static_cast<double>(n_tasks));
  }
  if (round_slots_.size() > 1) {
    metrics.speculative_expanded.add(round_slots_.size() - 1);
  }
}

void ShortestPathSearch::count_speculative_waste() {
  if (waste_counted_) return;
  waste_counted_ = true;
  std::size_t wasted = 0;
  for (const Node& node : nodes_) {
    if (node.evaluated && (!any_emitted_ || node.cost > last_emitted_cost_)) {
      ++wasted;
    }
  }
  stats_.speculative_wasted = wasted;
  ExecutorMetrics::get().speculative_wasted.add(wasted);
}

std::optional<SearchResult> ShortestPathSearch::next() {
  if (error_) std::rethrow_exception(error_);
  // Empty-language fast path: a vacuous query (`a & !a`) has no frontier
  // worth expanding — return exhausted with zero model calls.
  if (compiled_.empty_language()) {
    stats_.elapsed_seconds = timer_.seconds();
    return std::nullopt;
  }
  for (;;) {
    // A pending match is settled once no frontier node could still tie it:
    // every undiscovered path must extend some frontier node, so it can only
    // cost more. The comparison is STRICT — an equal-cost frontier node may
    // itself be an undiscovered member of the same tie class, and holding the
    // release until the whole class is pending makes tie emission follow the
    // heap's canonical (cost, token-path) order instead of discovery order.
    // Discovery order depends on max_in_flight and the speculation horizon
    // (and is why rounds of different widths would otherwise disagree on
    // exact-cost ties); the settled class is identical for all of them, so
    // draining it from the heap is what keeps their outputs byte-identical.
    // When the expansion budget is spent the frontier is dead and the
    // held-back matches drain in cost order.
    const bool budget_spent = stats_.expansions >= query_.max_expansions;
    while (!pending_results_.empty() &&
           (budget_spent || frontier_.empty() ||
            pending_results_.top().cost < frontier_.top().cost)) {
      if (emitted_ >= query_.max_results) {
        count_speculative_waste();
        return std::nullopt;
      }
      SearchResult result =
          std::move(const_cast<PendingResult&>(pending_results_.top()).result);
      pending_results_.pop();
      if (dedup_text_ && !emitted_texts_.insert(result.text).second) continue;
      ++emitted_;
      last_emitted_cost_ = -result.log_prob;
      any_emitted_ = true;
      return result;
    }
    if (emitted_ >= query_.max_results) {
      count_speculative_waste();
      return std::nullopt;
    }
    if (budget_spent) {
      count_speculative_waste();
      return std::nullopt;
    }
    if (frontier_.empty()) {
      stats_.elapsed_seconds = timer_.seconds();
      count_speculative_waste();
      return std::nullopt;
    }
    try {
      pump();
    } catch (...) {
      // The round already marked its nodes expanded; resuming would lose
      // their subtrees without a signal.
      error_ = std::current_exception();
      throw;
    }
  }
}

std::vector<SearchResult> ShortestPathSearch::all() {
  std::vector<SearchResult> out;
  while (auto result = next()) out.push_back(std::move(*result));
  return out;
}

// ---------------------------------------------------------------------------
// RandomSampler
// ---------------------------------------------------------------------------

RandomSampler::RandomSampler(const model::LanguageModel& model,
                             const CompiledQuery& compiled,
                             const SimpleSearchQuery& query, std::uint64_t seed)
    : model_(model),
      compiled_(compiled),
      query_(query),
      prefix_walks_(compiled.prefix_automaton(), sequence_budget(query, model)),
      // Stream 0 of the counter-based scheme is Pcg32(seed) exactly, so the
      // sampler's draw sequence is unchanged by the StreamRng extraction
      // (pinned bit-for-bit by a regression test). The generate engine seeds
      // stream i of the same scheme for its i-th concurrent stream.
      rng_(util::StreamRng::stream(seed, 0)) {
  cache_baseline_ = cache_baseline_of(model_, model_has_cache_);
}

void RandomSampler::refresh_cache_stats() {
  fill_cache_stats(model_, cache_baseline_, model_has_cache_, stats_);
}

std::optional<SearchResult> RandomSampler::sample_once() {
  RELM_TRACE_SPAN("executor.sample");
  // Empty-language fast path: every attempt would dead-end; skip the model.
  if (compiled_.empty_language()) return std::nullopt;
  ++stats_.sample_attempts;
  generate::GenerateStats attempt;
  generate::GenStream stream(model_, compiled_, query_, prefix_walks_, {},
                             rng_);
  stream.activate(attempt);
  std::vector<TokenId> context;
  while (stream.state() == generate::StreamState::kRunning) {
    if (!stream.needs_model()) {
      stream.advance_no_model(attempt);
      continue;
    }
    const std::span<const TokenId> suffix = stream.context();
    context.assign(suffix.begin(), suffix.end());
    const LanguageModel::Row row =
        std::move(model_.next_rows({&context, 1}, query_.decoding).front());
    ++attempt.llm_calls;
    count_mask(row, stats_);
    stream.advance(row, attempt);
  }
  rng_ = stream.rng();

  stats_.llm_calls += attempt.llm_calls;
  stats_ += attempt;  // the step counters
  stats_.sample_dead_ends += attempt.streams_dead_end;
  refresh_cache_stats();
  ExecutorMetrics& metrics = ExecutorMetrics::get();
  metrics.llm_calls.add(attempt.llm_calls);
  metrics.add(attempt);
  if (stream.state() != generate::StreamState::kDone) return std::nullopt;
  metrics.results.add(1);

  SearchResult result = *stream.result();
  const std::size_t prefix_len = result.tokens.size() - stream.body_len();
  last_prefix_text_ = compiled_.tokenizer().decode(
      std::span<const TokenId>(result.tokens.data(), prefix_len));
  stats_.elapsed_seconds = timer_.seconds();
  result.llm_calls_at_emission = stats_.llm_calls;
  result.seconds_at_emission = stats_.elapsed_seconds;
  return result;
}

std::vector<SearchResult> RandomSampler::sample_all() {
  std::vector<SearchResult> out;
  // Empty-language fast path: nothing to sample, zero model calls.
  if (compiled_.empty_language()) {
    stats_.elapsed_seconds = timer_.seconds();
    return out;
  }
  const std::size_t max_attempts =
      query_.num_samples * query_.max_sample_attempts_factor;
  std::size_t attempts = 0;
  while (out.size() < query_.num_samples && attempts < max_attempts) {
    ++attempts;
    if (auto result = sample_once()) out.push_back(std::move(*result));
  }
  stats_.elapsed_seconds = timer_.seconds();
  return out;
}

// ---------------------------------------------------------------------------
// BeamSearch
// ---------------------------------------------------------------------------

BeamSearch::BeamSearch(const model::LanguageModel& model,
                       const CompiledQuery& compiled,
                       const SimpleSearchQuery& query)
    : model_(model), compiled_(compiled), query_(query) {
  cache_baseline_ = cache_baseline_of(model_, model_has_cache_);
}

void BeamSearch::refresh_cache_stats() {
  fill_cache_stats(model_, cache_baseline_, model_has_cache_, stats_);
}

std::vector<SearchResult> BeamSearch::run() {
  RELM_TRACE_SPAN("executor.beam");
  // Empty-language fast path: no beam can ever reach a match.
  if (compiled_.empty_language()) {
    stats_.elapsed_seconds = timer_.seconds();
    return {};
  }
  ExecutorMetrics& metrics = ExecutorMetrics::get();
  const std::size_t seq_limit = sequence_budget(query_, model_);
  const std::size_t width = std::max<std::size_t>(query_.beam_width, 1);
  const TokenId eos = model_.eos();
  const tokenizer::BpeTokenizer& tok = compiled_.tokenizer();

  std::vector<Beam> beams(1);
  beams[0].set = compiled_.initial();
  std::vector<SearchResult> matches;
  std::unordered_map<std::string, std::size_t> emitted;  // text -> match index

  auto record_match = [&](const Beam& beam, double final_log_prob) {
    // Final canonicality gate, as in the other traversals.
    if (!compiled_.canonical_body(beam.body().tokens, beam.body_text, beam.canon)) {
      ++stats_.pruned_non_canonical;
      return;
    }
    std::string text = tok.decode(beam.tokens);
    // Text dedup keeps the most probable token path for each string —
    // matching ShortestPathSearch, whose cheapest-first pops make its
    // first-wins dedup equivalent. Beam matches are recorded in depth
    // order, not cost order, so first-wins here would keep an arbitrary
    // (possibly worse) encoding of the same string.
    auto [it, inserted] = emitted.emplace(text, matches.size());
    if (!inserted) {
      if (final_log_prob > matches[it->second].log_prob) {
        stats_.elapsed_seconds = timer_.seconds();
        matches[it->second] =
            SearchResult{beam.tokens, std::move(text), final_log_prob,
                         stats_.llm_calls, stats_.elapsed_seconds};
      }
      return;
    }
    stats_.elapsed_seconds = timer_.seconds();
    matches.push_back(SearchResult{beam.tokens, std::move(text), final_log_prob,
                                   stats_.llm_calls, stats_.elapsed_seconds});
  };

  // Each step evaluates every live beam in one batched (parallel) model
  // call instead of a per-beam serial loop; contexts are trimmed to the
  // model's relevant suffix, which lets a CachingModel share entries across
  // beams with a common tail.
  auto beam_contexts = [&](const std::vector<Beam>& live) {
    std::vector<std::vector<TokenId>> contexts;
    contexts.reserve(live.size());
    for (const Beam& beam : live) {
      std::span<const TokenId> suffix = model::relevant_suffix(model_, beam.tokens);
      contexts.emplace_back(suffix.begin(), suffix.end());
    }
    return contexts;
  };

  // Candidates carry their parent beam and step; only the `width` survivors
  // of the cut build a token path.
  struct Candidate {
    std::size_t parent;
    CompiledQuery::Step step;
    double log_prob;
    CompiledQuery::CanonState canon;
  };
  std::vector<Candidate> candidates;
  CompiledQuery::StepOutput out;
  for (std::size_t step = 0; step < seq_limit && !beams.empty(); ++step) {
    RELM_TRACE_SPAN("executor.beam_step");
    const std::vector<LanguageModel::Row> rows =
        model_.next_rows(beam_contexts(beams), query_.decoding);
    RELM_DCHECK(rows.size() == beams.size(),
                "batched model evaluation must return one row per beam");
    stats_.llm_calls += beams.size();
    stats_.expansions += beams.size();
    metrics.llm_calls.add(beams.size());
    metrics.expansions.add(beams.size());
    metrics.batch_size.observe(static_cast<double>(beams.size()));

    candidates.clear();
    for (std::size_t b = 0; b < beams.size(); ++b) {
      const Beam& beam = beams[b];
      count_mask(rows[b], stats_);
      const std::vector<double>& lp = *rows[b].log_probs;
      compiled_.decode_step(beam.set, rows[b].mask.get(), eos, beam.body(), out);
      stats_ += out.counters;

      // A match at this beam is recorded now (it may fall out of the beam).
      if (compiled_.is_match(beam.set)) {
        if (!query_.require_eos) {
          record_match(beam, beam.log_prob);
        } else if (out.eos_allowed) {
          record_match(beam, beam.log_prob + lp[eos]);
        }
      }
      for (std::size_t s = 0; s < out.steps.size(); ++s) {
        candidates.push_back(Candidate{b, out.steps[s],
                                       beam.log_prob + lp[out.steps[s].token],
                                       out.canon[s]});
      }
    }

    if (candidates.size() > width) {
      std::partial_sort(candidates.begin(),
                        candidates.begin() + static_cast<std::ptrdiff_t>(width),
                        candidates.end(), [](const Candidate& a, const Candidate& b) {
                          return a.log_prob > b.log_prob;
                        });
      candidates.resize(width);
    }
    std::vector<Beam> next;
    next.reserve(candidates.size());
    for (const Candidate& c : candidates) {
      const Beam& parent = beams[c.parent];
      Beam& child = next.emplace_back();
      child.tokens = parent.tokens;
      child.tokens.push_back(c.step.token);
      child.set = c.step.next;
      child.log_prob = c.log_prob;
      if (c.step.body_advanced) {
        child.body_len = parent.body_len + 1;
        child.body_text = parent.body_text + tok.token_string(c.step.token);
        child.canon = c.canon;
      }
    }
    beams = std::move(next);
  }

  // Sequence limit reached: surviving beams that sit on a match state are
  // still results — unless the query requires EOS termination, in which case
  // the EOS token itself would exceed the sequence budget. That mirrors
  // ShortestPathSearch, whose EOS closure refuses to extend a path already
  // at the limit: a terminated match needs room for its EOS.
  if (!query_.require_eos) {
    for (const Beam& beam : beams) {
      if (compiled_.is_match(beam.set)) record_match(beam, beam.log_prob);
    }
  }

  std::sort(matches.begin(), matches.end(),
            [](const SearchResult& a, const SearchResult& b) {
              return a.log_prob > b.log_prob;
            });
  if (matches.size() > query_.max_results) matches.resize(query_.max_results);
  stats_.elapsed_seconds = timer_.seconds();
  refresh_cache_stats();
  metrics.add(stats_);
  metrics.results.add(matches.size());
  return matches;
}

}  // namespace relm::core
