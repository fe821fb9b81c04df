#pragma once
// Program-independent pieces of the benchmark: the seeded generator,
// latency statistics, the span tracer, the pass/fail tally and the JSON
// result line.  Nothing here includes an sva header, so the harness tests
// exercise it without a flow.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double ms_since(Clock::time_point t0);

/// splitmix64: the benchmark's inputs depend on --seed and nothing else.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                  ///< [0, 1)
  std::size_t below(std::size_t n);  ///< [0, n)
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Mean of the two middle samples (the sample itself for odd counts).
double median(std::vector<double> samples);

/// Nearest-rank quantile: the sample at rank ceil(p * n), p in parts per
/// 100000 so the rank is exact integer arithmetic.
double quantile_pcm(std::vector<double> samples, std::uint32_t p_pcm);

/// The tail latency: the highest percentile of the ladder 50, 75, 90, 95,
/// 99, 99.9, 99.99 that leaves at least `min_beyond` samples above it.
/// With fewer than 2 * min_beyond samples it falls back to the median and
/// says so through `beyond`.
struct TailPick {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
TailPick pick_tail(const std::vector<double>& samples,
                   std::size_t min_beyond = 10);

/// FNV-1a 64 over bytes, rendered as 16 hex digits.
std::string fnv1a_hex(const std::string& bytes);

/// Drop analyze's "(N circuits, T threads, X s)" wall-time trailer, the
/// one line that differs between two runs of the same job.
std::string strip_wall_trailer(const std::string& text);

// --- tracing -------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into spans(), -1 for a root
  std::uint64_t op = 0;       ///< the op the span belongs to
  std::uint32_t tid = 0;      ///< small per-thread number
};

/// In-memory span recorder.  begin()/end() are thread-safe; each thread
/// nests its own spans, so the parent of a span is the innermost span the
/// same thread has open.  Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled = false);
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int begin(std::string name, std::uint64_t op);
  void end(int id);

  std::vector<Span> spans() const;
  void clear();
  /// Chrome trace-event JSON ("X" events, microseconds); `meta` is a JSON
  /// object body placed under "otherData".
  std::string chrome_json(const std::string& meta) const;

 private:
  std::int64_t ns_of(Clock::time_point t) const;
  std::uint32_t thread_number();

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> thread_ids_;
};

/// RAII span; a no-op on a disabled tracer.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, std::uint64_t op = 0)
      : tracer_(&tracer), id_(tracer.begin(std::move(name), op)) {}
  ~SpanScope() { tracer_->end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once).
std::vector<double> self_times_ms(const std::vector<Span>& spans);

struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
/// One row per span name, sorted by name.
std::vector<LayerRow> layer_table(const std::vector<Span>& spans);
/// Self times (ms) of every span called `name`, in recording order.
std::vector<double> self_ms_of(const std::vector<Span>& spans,
                               const std::vector<double>& self,
                               const std::string& name);

// --- results -------------------------------------------------------------

/// Ops attempted and failed, with the first few failure reasons kept for
/// stderr.  Thread-safe.
class Tally {
 public:
  void pass();
  void fail(const std::string& why);
  /// pass() when ok, else fail(why).
  void check(bool ok, const std::string& why);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  std::vector<std::string> reasons() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Metrics in insertion order; a NaN value is written as null (absent).
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void absent(const std::string& name, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }
  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string result_json(const Tally& tally) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
