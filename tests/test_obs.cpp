// Tests for the observability layer (src/obs): metrics registry correctness
// under ThreadPool concurrency (the tsan CI job includes every test whose
// name contains "Obs"), span nesting/ordering, and a round-trip check that
// the emitted Chrome-trace JSON parses and contains the expected phase
// names for an in-process query.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/relm.hpp"
#include "model/ngram_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace relm::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to round-trip what obs emits (objects,
// arrays, strings, numbers, booleans). Parse failures throw std::runtime_error
// so a malformed trace fails the test with a position.
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v;

  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  double number() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at " + std::to_string(pos_) +
                             ": " + why);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': literal("true"); return JsonValue{true};
      case 'f': literal("false"); return JsonValue{false};
      case 'n': literal("null"); return JsonValue{nullptr};
      default: return JsonValue{number()};
    }
  }
  void literal(const std::string& lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) fail("bad literal");
    pos_ += lit.size();
  }
  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u': pos_ += 4; out += '?'; break;  // tests don't need \u
          default: out += e; break;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }
  double number() {
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::string("+-.eE").find(text_[pos_]) != std::string::npos)) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return std::stod(text_.substr(start, pos_ - start));
  }
  JsonValue object() {
    expect('{');
    auto obj = std::make_shared<JsonObject>();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{obj};
    }
    for (;;) {
      std::string key = string();
      expect(':');
      (*obj)[key] = value();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return JsonValue{obj};
    }
  }
  JsonValue array() {
    expect('[');
    auto arr = std::make_shared<JsonArray>();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{arr};
    }
    for (;;) {
      arr->push_back(value());
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return JsonValue{arr};
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterAddValueReset) {
  Counter& c = Registry::instance().counter("test.obs.counter_basic");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, SameNameReturnsSameHandle) {
  Counter& a = Registry::instance().counter("test.obs.counter_same");
  Counter& b = Registry::instance().counter("test.obs.counter_same");
  EXPECT_EQ(&a, &b);
}

TEST(ObsMetrics, KindMismatchThrows) {
  Registry::instance().counter("test.obs.kind_mismatch");
  EXPECT_THROW(Registry::instance().gauge("test.obs.kind_mismatch"),
               std::logic_error);
  EXPECT_THROW(Registry::instance().histogram("test.obs.kind_mismatch"),
               std::logic_error);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  Gauge& g = Registry::instance().gauge("test.obs.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsMetrics, HistogramBucketsCountSum) {
  const double bounds[] = {1.0, 10.0, 100.0};
  Histogram& h =
      Registry::instance().histogram("test.obs.hist_buckets", bounds);
  h.reset();
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (le semantics)
  h.observe(5.0);    // bucket 1
  h.observe(50.0);   // bucket 2
  h.observe(500.0);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 556.5);
  EXPECT_DOUBLE_EQ(h.mean(), 556.5 / 5.0);
  std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

// Striped counters fold to an exact total once writers have joined. Runs the
// adds through ThreadPool::parallel_for so the tsan job sees the same
// write path the executor uses.
TEST(ObsMetrics, CounterConcurrentUnderThreadPool) {
  Counter& c = Registry::instance().counter("test.obs.counter_mt");
  c.reset();
  util::ThreadPool pool(4);
  const std::size_t tasks = 64;
  const std::size_t adds_per_task = 1000;
  pool.parallel_for(tasks, [&](std::size_t) {
    for (std::size_t i = 0; i < adds_per_task; ++i) c.add();
  });
  EXPECT_EQ(c.value(), tasks * adds_per_task);
}

TEST(ObsMetrics, HistogramConcurrentUnderThreadPool) {
  Histogram& h = Registry::instance().histogram(
      "test.obs.hist_mt", Histogram::default_size_bounds());
  h.reset();
  util::ThreadPool pool(4);
  const std::size_t tasks = 64;
  const std::size_t per_task = 200;
  pool.parallel_for(tasks, [&](std::size_t t) {
    for (std::size_t i = 0; i < per_task; ++i) {
      h.observe(static_cast<double>(t % 8));
    }
  });
  EXPECT_EQ(h.count(), tasks * per_task);
  std::uint64_t total = 0;
  for (std::uint64_t b : h.bucket_counts()) total += b;
  EXPECT_EQ(total, tasks * per_task);
}

TEST(ObsMetrics, SnapshotJsonRoundTrips) {
  Registry::instance().counter("test.obs.snap_counter").add(7);
  Registry::instance().gauge("test.obs.snap_gauge").set(3.0);
  Registry::instance()
      .histogram("test.obs.snap_hist", Histogram::default_size_bounds())
      .observe(2.0);
  std::string json = Registry::instance().snapshot().to_json();
  JsonValue root = JsonParser(json).parse();
  ASSERT_TRUE(root.is_object());
  const JsonObject& counters = root.object().at("counters").object();
  EXPECT_GE(counters.at("test.obs.snap_counter").number(), 7.0);
  const JsonObject& gauges = root.object().at("gauges").object();
  EXPECT_DOUBLE_EQ(gauges.at("test.obs.snap_gauge").number(), 3.0);
  const JsonObject& hist =
      root.object().at("histograms").object().at("test.obs.snap_hist").object();
  EXPECT_GE(hist.at("count").number(), 1.0);
  EXPECT_FALSE(hist.at("buckets").array().empty());
}

// ---------------------------------------------------------------------------
// Tracing spans
// ---------------------------------------------------------------------------

TEST(ObsTrace, DisabledSpanRecordsNothing) {
  Trace::start();  // clear any prior events
  Trace::stop();
  const std::size_t before = Trace::event_count();
  { RELM_TRACE_SPAN("test.disabled"); }
  EXPECT_EQ(Trace::event_count(), before);
}

TEST(ObsTrace, SpanNestingAndOrdering) {
  Trace::start();
  {
    Span outer("test.outer");
    { Span inner("test.inner"); }
  }
  Trace::stop();
  EXPECT_EQ(Trace::event_count(), 2u);

  std::ostringstream out;
  Trace::write_chrome_trace(out);
  JsonValue root = JsonParser(out.str()).parse();
  const JsonArray& events = root.object().at("traceEvents").array();
  ASSERT_EQ(events.size(), 2u);
  const JsonObject* outer = nullptr;
  const JsonObject* inner = nullptr;
  for (const JsonValue& e : events) {
    const JsonObject& obj = e.object();
    if (obj.at("name").str() == "test.outer") outer = &obj;
    if (obj.at("name").str() == "test.inner") inner = &obj;
    EXPECT_EQ(obj.at("ph").str(), "X");
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // RAII nesting: the inner interval lies within the outer interval.
  const double outer_ts = outer->at("ts").number();
  const double outer_end = outer_ts + outer->at("dur").number();
  const double inner_ts = inner->at("ts").number();
  const double inner_end = inner_ts + inner->at("dur").number();
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);
}

TEST(ObsTrace, SpanFeedsLatencyHistogram) {
  Trace::start();
  { RELM_TRACE_SPAN("test_hist_phase"); }
  Trace::stop();
  Histogram& h =
      Registry::instance().histogram("span.test_hist_phase.seconds");
  EXPECT_GE(h.count(), 1u);
}

// Spans recorded from pool threads land in per-thread buffers; all of them
// must survive into the serialized trace (tsan-covered).
TEST(ObsTrace, ConcurrentSpansFromThreadPool) {
  Trace::start();
  util::ThreadPool pool(4);
  const std::size_t tasks = 32;
  pool.parallel_for(tasks, [&](std::size_t) {
    RELM_TRACE_SPAN("test.concurrent");
  });
  Trace::stop();
  EXPECT_GE(Trace::event_count(), tasks);
  std::ostringstream out;
  Trace::write_chrome_trace(out);
  JsonValue root = JsonParser(out.str()).parse();
  std::size_t seen = 0;
  for (const JsonValue& e : root.object().at("traceEvents").array()) {
    if (e.object().at("name").str() == "test.concurrent") ++seen;
  }
  EXPECT_EQ(seen, tasks);
}

TEST(ObsTrace, JsonlEveryLineParses) {
  Trace::start();
  { RELM_TRACE_SPAN("test.jsonl_a"); }
  { RELM_TRACE_SPAN("test.jsonl_b"); }
  Trace::stop();
  std::ostringstream out;
  Trace::write_jsonl(out);
  std::istringstream in(out.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue v = JsonParser(line).parse();
    ASSERT_TRUE(v.is_object());
    EXPECT_TRUE(v.object().contains("name"));
    ++lines;
  }
  EXPECT_GE(lines, 2u);
}

// ---------------------------------------------------------------------------
// End-to-end: an in-process query, traced, must produce a parseable Chrome
// trace containing the parse/determinize/compile/executor phases.
// ---------------------------------------------------------------------------

TEST(ObsTrace, QueryTraceContainsExpectedPhases) {
  std::string text;
  for (int i = 0; i < 40; ++i) {
    text += "The cat sat on the mat. The dog ran far. ";
  }
  tokenizer::BpeTokenizer::TrainConfig tok_config;
  tok_config.vocab_size = 300;
  tokenizer::BpeTokenizer tok =
      tokenizer::BpeTokenizer::train(text, tok_config);
  model::NgramModel::Config model_config;
  model_config.order = 3;
  model_config.max_sequence_length = 32;
  std::vector<std::string> docs(20, "The cat sat on the mat.");
  std::shared_ptr<model::NgramModel> model =
      model::NgramModel::train(tok, docs, model_config);

  // An infinite body, so the compile runs subset construction (a finite
  // canonical one compiles from its strings instead).
  core::SimpleSearchQuery query;
  query.query_string.query_str = "The ((cat)|(dog))+";
  query.max_results = 2;

  Trace::start();
  SearchOutcome outcome = search(*model, tok, query);
  Trace::stop();
  EXPECT_FALSE(outcome.results.empty());

  std::ostringstream out;
  Trace::write_chrome_trace(out);
  JsonValue root = JsonParser(out.str()).parse();
  std::vector<std::string> names;
  for (const JsonValue& e : root.object().at("traceEvents").array()) {
    names.push_back(e.object().at("name").str());
  }
  auto has = [&](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("regex.parse"));
  EXPECT_TRUE(has("automata.determinize"));
  EXPECT_TRUE(has("compile.query"));
  EXPECT_TRUE(has("executor.pump"));
  EXPECT_TRUE(has("relm.search"));
}

}  // namespace
}  // namespace relm::obs
