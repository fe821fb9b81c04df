// Tests of the benchmark harness: latency statistics, span self time,
// the seeded daemon schedule, and the correctness oracle.

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "harness.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, NearestRankQuantile) {
  const std::vector<double> v = one_to(1000);
  EXPECT_DOUBLE_EQ(quantile_pcm(v, 50000), 500.0);
  EXPECT_DOUBLE_EQ(quantile_pcm(v, 99000), 990.0);
  EXPECT_DOUBLE_EQ(quantile_pcm(v, 100000), 1000.0);
}

TEST(Stats, TailIsHighestPercentileWithTenBeyond) {
  TailPick t = pick_tail(one_to(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_DOUBLE_EQ(t.value, 990.0);

  // One sample fewer leaves only 9 beyond p99, so p95 it is.
  t = pick_tail(one_to(999));
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.beyond, 49u);

  t = pick_tail(one_to(200));
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.value, 190.0);

  t = pick_tail(one_to(10000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(Stats, TooFewSamplesFallBackToTheMedianAndSaySo) {
  const TailPick t = pick_tail(one_to(15));
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_LT(t.beyond, 10u);
  EXPECT_EQ(t.samples, 15u);
}

TEST(Stats, TailIgnoresInputOrder) {
  std::vector<double> v = one_to(500);
  Rng rng(3);
  rng.shuffle(v);
  const TailPick t = pick_tail(v);
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_DOUBLE_EQ(t.value, 475.0);
  EXPECT_EQ(t.beyond, 25u);
}

TEST(Spans, SelfTimeSubtractsChildrenOnce) {
  // root [0,100] ms; children [10,30] and [20,50] overlap; a grandchild
  // [12,15] inside the first child.
  const std::int64_t ms = 1000000;
  std::vector<Span> spans = {
      {"root", 0, 100 * ms, -1, 1, 1},
      {"a", 10 * ms, 30 * ms, 0, 1, 1},
      {"b", 20 * ms, 50 * ms, 0, 1, 1},
      {"a.inner", 12 * ms, 15 * ms, 1, 1, 1},
  };
  const std::vector<double> self = self_times_ms(spans);
  EXPECT_NEAR(self[0], 60.0, 1e-9);  // 100 - union([10,30],[20,50]) = 100-40
  EXPECT_NEAR(self[1], 17.0, 1e-9);
  EXPECT_NEAR(self[2], 30.0, 1e-9);
  EXPECT_NEAR(self[3], 3.0, 1e-9);

  const std::vector<LayerRow> rows = layer_table(spans);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "a");
  EXPECT_NEAR(rows[0].total_ms, 20.0, 1e-9);
  EXPECT_NEAR(rows[0].self_ms, 17.0, 1e-9);
}

TEST(Spans, ChildClippedToItsParent) {
  const std::int64_t ms = 1000000;
  const std::vector<Span> spans = {{"p", 0, 10 * ms, -1, 0, 1},
                                   {"c", 5 * ms, 20 * ms, 0, 0, 1}};
  EXPECT_NEAR(self_times_ms(spans)[0], 5.0, 1e-9);
}

TEST(Spans, TracerLinksNestedSpansToTheirParent) {
  Tracer tracer(true);
  {
    SpanScope outer(tracer, "outer", 7);
    { SpanScope inner(tracer, "inner", 7); }
    { SpanScope second(tracer, "second", 7); }
  }
  { SpanScope root(tracer, "next", 8); }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[3].op, 8u);
  const std::vector<double> self = self_times_ms(spans);
  EXPECT_LE(self[0], (spans[0].end_ns - spans[0].start_ns) * 1e-6);
  const std::string json = tracer.chrome_json("\"seed\": 1");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
}

TEST(Spans, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { SpanScope s(tracer, "x", 1); }
  EXPECT_TRUE(tracer.spans().empty());
}

std::vector<std::pair<std::string, bool>> draw_keys(std::uint64_t seed,
                                                    std::size_t n) {
  MixSequence sequence(seed);
  std::vector<std::pair<std::string, bool>> out;
  for (std::size_t i = 0; i < n; ++i) {
    const MixDraw d = sequence.next();
    out.emplace_back(d.request->key, d.repeat);
  }
  return out;
}

TEST(Schedule, SameSeedSameRequests) {
  const auto a = draw_keys(42, 500);
  EXPECT_EQ(a, draw_keys(42, 500));
  const auto c = draw_keys(43, 500);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] == c[i]) ++same;
  EXPECT_LT(same, a.size() / 2);
}

TEST(Schedule, MixSharesAndRepeats) {
  MixSequence sequence(7);
  std::size_t analyze = 0, ssta = 0, optimize = 0, repeats = 0;
  std::map<std::string, std::size_t> last_drawn;
  for (std::size_t i = 0; i < 2000; ++i) {
    const MixDraw d = sequence.next();
    ASSERT_NE(d.request, nullptr);
    if (d.request->kind == MixKind::Analyze) ++analyze;
    if (d.request->kind == MixKind::Ssta) ++ssta;
    if (d.request->kind == MixKind::Optimize) ++optimize;
    if (d.repeat) {
      ++repeats;
      // A repeat names a spec the sequence drew before.
      ASSERT_EQ(last_drawn.count(d.request->key), 1u);
    }
    last_drawn[d.request->key] = i;
  }
  // Whole blocks of 20 kinds: the shares are exact.
  EXPECT_EQ(analyze, 1200u);
  EXPECT_EQ(ssta, 500u);
  EXPECT_EQ(optimize, 300u);
  EXPECT_NEAR(repeats / static_cast<double>(analyze + ssta), kDaemonRepeatShare,
              0.03);
}

TEST(Oracle, StripsOnlyTheWallTimeTrailer) {
  EXPECT_EQ(strip_wall_trailer("a\n(10 circuits, 4 threads, 0.01 s)\nb\n"),
            "a\nb\n");
  EXPECT_EQ(strip_wall_trailer("(keep me)\n"), "(keep me)\n");
}

TEST(Oracle, ReorderedGoldenRows) {
  const std::string golden =
      "exit 0\n--- output\nName  X\n----  -\nC1    1\nC2    2\nC3    3\n";
  EXPECT_EQ(reorder_analyze_digest(golden, {"C3", "C1", "C2"}),
            "exit 0\n--- output\nName  X\n----  -\nC3    3\nC1    1\nC2    2\n");
  EXPECT_EQ(reorder_analyze_digest(golden, {"C9"}), "");
}

TEST(Oracle, SameAtDecimals) {
  EXPECT_TRUE(same_at(1.97434, 1.9743, 4));
  EXPECT_FALSE(same_at(1.97436, 1.9743, 4));
}

TEST(Oracle, MismatchedOutputCountsAsAFailedOp) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::current_path() /
                       ("perfbench_oracle_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::copy(PERFBENCH_REF_DIR, dir, fs::copy_options::recursive);
  const References good = References::load(dir.string());

  // Tamper with one digit of the C432 row of the analyze golden.
  const std::string path = (dir / "golden" / "analyze.txt").string();
  std::string text = read_text_file(path);
  const std::size_t at = text.find("1.974");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 5, "1.975");
  write_text(path, text);
  const References bad = References::load(dir.string());

  const auto flow = make_cold_flow((dir / "cache").string());
  Tracer tracer(false);
  Tally ok_tally, bad_tally;
  SweepWorkload ok_sweep(*flow, good, ok_tally, tracer);
  SweepWorkload bad_sweep(*flow, bad, bad_tally, tracer);
  std::vector<std::string> order = table2_circuits();
  Rng rng(5);
  rng.shuffle(order);
  EXPECT_TRUE(ok_sweep.op(0, order));
  EXPECT_FALSE(bad_sweep.op(0, order));
  EXPECT_EQ(ok_tally.attempted(), 1u);
  EXPECT_EQ(ok_tally.failed(), 0u);
  EXPECT_EQ(bad_tally.attempted(), 1u);
  EXPECT_EQ(bad_tally.failed(), 1u);

  MetricSet metrics;
  metrics.add("p50_ms", 1.5, "ms");
  EXPECT_EQ(metrics.result_json(bad_tally),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
            "\"metrics\": {\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
  fs::remove_all(dir);
}
