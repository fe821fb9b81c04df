#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <thread>

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::size_t Rng::below(std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

/// 1-based nearest rank of the p_pcm quantile of n samples.
std::size_t rank_of(std::size_t n, std::uint32_t p_pcm) {
  const std::size_t r = (n * p_pcm + 99999) / 100000;
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double quantile_pcm(std::vector<double> samples, std::uint32_t p_pcm) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  return samples[rank_of(samples.size(), p_pcm) - 1];
}

TailPick pick_tail(const std::vector<double>& samples,
                   std::size_t min_beyond) {
  static constexpr std::uint32_t kLadder[] = {50000, 75000, 90000, 95000,
                                              99000, 99900, 99990};
  TailPick pick;
  pick.samples = samples.size();
  if (samples.empty()) {
    pick.value = std::numeric_limits<double>::quiet_NaN();
    return pick;
  }
  std::uint32_t chosen = kLadder[0];
  for (std::uint32_t p : kLadder)
    if (samples.size() - rank_of(samples.size(), p) >= min_beyond) chosen = p;
  pick.percentile = chosen / 1000.0;
  pick.beyond = samples.size() - rank_of(samples.size(), chosen);
  pick.value = quantile_pcm(samples, chosen);
  return pick;
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string strip_wall_trailer(const std::string& text) {
  std::string out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const bool trailer = !line.empty() && line.front() == '(' &&
                         line.find(" circuits, ") != std::string::npos &&
                         line.size() >= 3 &&
                         line.compare(line.size() - 3, 3, " s)") == 0;
    if (trailer) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// --- tracing -------------------------------------------------------------

namespace {

/// Per-thread stack of open spans, tagged with the owning tracer.
thread_local std::vector<std::pair<const Tracer*, int>> t_open;

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t Tracer::ns_of(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::uint32_t Tracer::thread_number() {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (const auto& [k, n] : thread_ids_)
    if (k == key) return n;
  const auto n = static_cast<std::uint32_t>(thread_ids_.size() + 1);
  thread_ids_.emplace_back(key, n);
  return n;
}

int Tracer::begin(std::string name, std::uint64_t op) {
  if (!enabled_) return -1;
  const std::int64_t now = ns_of(Clock::now());
  int parent = -1;
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
    if (it->first == this) {
      parent = it->second;
      break;
    }
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now, now, parent, op, thread_number()});
  }
  t_open.emplace_back(this, id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const std::int64_t now = ns_of(Clock::now());
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
    if (it->first == this && it->second == id) {
      t_open.erase(std::next(it).base());
      break;
    }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::string Tracer::chrome_json(const std::string& meta) const {
  const std::vector<Span> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{" + meta +
                    "},\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + json_string(s.name) + ",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf,
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%llu}}",
                  s.start_ns * 1e-3, (s.end_ns - s.start_ns) * 1e-3, s.tid, i,
                  s.parent, static_cast<unsigned long long>(s.op));
    out += buf;
  }
  out += "]}\n";
  return out;
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;
    for (auto [a, b] : iv) {
      a = std::max(a, cursor);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = static_cast<double>(hi - lo - covered) * 1e-6;
  }
  return self;
}

std::vector<LayerRow> layer_table(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ms(spans);
  std::vector<LayerRow> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(rows.begin(), rows.end(), [&](const LayerRow& r) {
      return r.name == spans[i].name;
    });
    if (it == rows.end()) {
      rows.push_back({spans[i].name, 0, 0.0, 0.0});
      it = std::prev(rows.end());
    }
    ++it->count;
    it->total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
    it->self_ms += self[i];
  }
  std::sort(rows.begin(), rows.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.name < b.name; });
  return rows;
}

std::vector<double> self_ms_of(const std::vector<Span>& spans,
                               const std::vector<double>& self,
                               const std::string& name) {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == name) out.push_back(self[i]);
  return out;
}

// --- results -------------------------------------------------------------

void Tally::pass() {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
}

void Tally::fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  ++failed_;
  if (reasons_.size() < 20) reasons_.push_back(why);
}

void Tally::check(bool ok, const std::string& why) {
  if (ok)
    pass();
  else
    fail(why);
}

std::uint64_t Tally::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::uint64_t Tally::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::string> Tally::reasons() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reasons_;
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

void MetricSet::absent(const std::string& name, const std::string& unit) {
  add(name, std::numeric_limits<double>::quiet_NaN(), unit);
}

std::string MetricSet::result_json(const Tally& tally) const {
  std::string out = "{\"correct\": ";
  out += tally.failed() == 0 && tally.attempted() > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted());
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(items_[i].first) + ": {\"value\": " +
           json_number(items_[i].second.first) +
           ", \"unit\": " + json_string(items_[i].second.second) + "}";
  }
  out += "}}";
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
