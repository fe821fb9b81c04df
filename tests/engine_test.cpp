// Execution-engine tests: thread pool semantics (the parallel_for claim
// loop), bit-exactness of STA run concurrently on the pool's lanes,
// schedule-independence, claim order and timer accounting of the batch
// runner, and the context library's dense table against the device CDs it
// is built from.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "engine/batch.hpp"
#include "engine/options.hpp"
#include "engine/thread_pool.hpp"
#include "netlist/iscas85.hpp"
#include "opt/sizing.hpp"
#include "place/context.hpp"
#include "server/jobs.hpp"
#include "util/diagnostics.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"

namespace sva {
namespace {

/// Flow construction runs library OPC; share one instance across tests.
const SvaFlow& shared_flow() {
  static const SvaFlow* flow = new SvaFlow(FlowConfig{});
  return *flow;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (std::size_t grain : {0u, 1u, 7u}) {
      std::vector<std::atomic<int>> hits(1000);
      pool.parallel_for(
          0, hits.size(),
          [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          },
          grain);
      for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1)
            << "index " << i << " @ " << threads << " threads, grain "
            << grain;
    }
  }
}

TEST(ThreadPoolTest, ZeroThreadPoolRunsIndicesInAscendingOrder) {
  ThreadPool pool(0);
  std::vector<std::size_t> order;
  pool.parallel_for(5, 55, [&](std::size_t i) { order.push_back(i); }, 3);
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t k = 0; k < order.size(); ++k) EXPECT_EQ(order[k], 5 + k);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // The caller of every loop is one of its lanes and never waits on a
  // helper that has not started, so nesting cannot deadlock -- not even
  // when the outer loop occupies the pool's only worker.
  for (std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    std::atomic<int> total{0};
    pool.parallel_for(
        0, 8,
        [&](std::size_t) {
          pool.parallel_for(0, 64, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
          });
        },
        1);
    EXPECT_EQ(total.load(), 8 * 64) << threads << " threads";
  }
}

TEST(ThreadPoolTest, ZeroThreadPoolRunsWorkOnWaiters) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> total{0};
  std::atomic<int> elsewhere{0};
  auto count = [&](std::size_t) {
    total.fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() != caller)
      elsewhere.fetch_add(1, std::memory_order_relaxed);
  };
  pool.parallel_for(0, 100, count);
  EXPECT_EQ(total.load(), 100);

  // Nested on a pool with no workers: the waiting caller runs it all.
  pool.parallel_for(0, 2, [&](std::size_t) { pool.parallel_for(0, 5, count); });
  EXPECT_EQ(total.load(), 110);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  // A throwing chunk does not stop the others; the failure surfaces at
  // the call after the join.
  EXPECT_THROW(pool.parallel_for(
                   0, 4,
                   [&](std::size_t i) {
                     if (i == 0) throw std::runtime_error("task failed");
                     ran.fetch_add(1, std::memory_order_relaxed);
                   },
                   1),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 3);
}

void expect_same_analysis(const CircuitAnalysis& a, const CircuitAnalysis& b,
                          const std::string& what) {
  EXPECT_EQ(a.name, b.name) << what;
  EXPECT_EQ(a.gate_count, b.gate_count) << what;
  EXPECT_EQ(a.trad_nom_ps, b.trad_nom_ps) << what;
  EXPECT_EQ(a.trad_bc_ps, b.trad_bc_ps) << what;
  EXPECT_EQ(a.trad_wc_ps, b.trad_wc_ps) << what;
  EXPECT_EQ(a.sva_nom_ps, b.sva_nom_ps) << what;
  EXPECT_EQ(a.sva_bc_ps, b.sva_bc_ps) << what;
  EXPECT_EQ(a.sva_wc_ps, b.sva_wc_ps) << what;
  EXPECT_EQ(a.arc_class_counts, b.arc_class_counts) << what;
}

TEST(EngineStaTest, ParallelStaBitIdenticalToSerial) {
  const SvaFlow& flow = shared_flow();
  // C3540 has the widest levels; C880 is a small circuit.  Every lane of
  // every pool runs the same worst-case SVA pass on one shared Sta.
  for (const char* name : {"C880", "C3540"}) {
    const Netlist netlist = flow.make_benchmark(name);
    const Placement placement = flow.make_placement(netlist);
    const Sta sta(netlist, flow.characterized(), flow.config().sta);
    const auto nps = extract_nps(placement);
    const auto versions = assign_versions(nps, flow.config().bins);
    const SvaCornerScale wc(netlist, flow.context_library(), versions,
                            flow.config().budget, Corner::Worst,
                            flow.config().arc_policy, &nps);
    const StaResult serial = sta.run(wc);
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      std::vector<StaResult> got(threads + 1);
      pool.parallel_for(0, got.size(),
                        [&](std::size_t i) { got[i] = sta.run(wc); }, 1);
      for (const StaResult& parallel : got) {
        // Exact equality, not near-equality: running concurrently must
        // not change a single bit of the propagation.
        EXPECT_EQ(parallel.arrival_ps, serial.arrival_ps)
            << name << " @ " << threads << " threads";
        EXPECT_EQ(parallel.slew_ps, serial.slew_ps);
        EXPECT_EQ(parallel.from_net, serial.from_net);
        EXPECT_EQ(parallel.critical_delay_ps, serial.critical_delay_ps);
        EXPECT_EQ(parallel.critical_po_net, serial.critical_po_net);
        EXPECT_EQ(parallel.critical_path, serial.critical_path);
      }
    }
  }
}

TEST(EngineBatchTest, ResultsIndependentOfThreadCountAndSchedule) {
  const SvaFlow& flow = shared_flow();
  const std::vector<std::string> names = {"C432", "C880"};

  // Serial references through the plain analyze() path.
  std::vector<CircuitAnalysis> reference;
  for (const std::string& name : names) {
    const Netlist netlist = flow.make_benchmark(name);
    const Placement placement = flow.make_placement(netlist);
    reference.push_back(flow.analyze(netlist, placement));
  }

  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const BatchRunner runner(flow, pool);
    // Two runs per pool: the second sees a warm cache and a different
    // task interleaving; both must reproduce the serial result exactly.
    for (int round = 0; round < 2; ++round) {
      const BatchResult batch = runner.run_names(names);
      ASSERT_EQ(batch.analyses.size(), names.size());
      for (std::size_t i = 0; i < names.size(); ++i)
        expect_same_analysis(batch.analyses[i], reference[i],
                             names[i] + " @ " + std::to_string(threads) +
                                 " threads, round " + std::to_string(round));
    }
  }
}

/// run_analyze_job's report without its `(N circuits, T threads, S s)`
/// line, the one line that names the pool and the wall time.
std::string report_without_wall_line(const JobResult& result) {
  std::string text = result.output;
  const std::size_t at = text.rfind(" circuits, ");
  const std::size_t begin = text.rfind('\n', at) + 1;
  const std::size_t end = text.find('\n', at);
  return text.erase(begin, end + 1 - begin);
}

TEST(EngineBatchTest, AnalyzeJobBitIdenticalAtAnyThreadCount) {
  // The whole Table 2 job: every digit of the report is independent of
  // the pool it runs on.
  AnalyzeJobSpec spec;
  for (const BenchmarkSpec& b : iscas85_specs()) spec.circuits.push_back(b.name);
  ThreadPool one(1);
  const JobResult reference = run_analyze_job(shared_flow(), one, spec, nullptr);
  ASSERT_EQ(reference.exit_code, kExitOk) << reference.output;
  const std::string expected = report_without_wall_line(reference);
  EXPECT_NE(expected.find("C7552"), std::string::npos) << expected;
  for (std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const JobResult r = run_analyze_job(shared_flow(), pool, spec, nullptr);
    EXPECT_EQ(r.exit_code, kExitOk) << threads;
    EXPECT_EQ(report_without_wall_line(r), expected) << threads << " threads";
  }
}

TEST(EngineBatchTest, StartsLargestJobFirst) {
  // On a pool with no workers the caller claims jobs one by one, so the
  // order of the per-job failure diagnostics is the claim order: gate
  // count descending, ties in job order, unknown names last.  A slot
  // restored from a prior run is not run at all.
  const SvaFlow& flow = shared_flow();
  const std::vector<BatchJob> jobs = {{"C432"}, {"nope"}, {"C7552"},
                                      {"C880"}, {"C1355"}, {"C499"}};
  BatchResult prior;
  prior.analyses.resize(jobs.size());
  prior.outcomes.assign(jobs.size(), {false, "cancelled", true});
  prior.outcomes[5] = {true, "", false};  // C499 already final
  prior.analyses[5].name = "C499";

  ThreadPool pool(0);
  const BatchRunner runner(flow, pool);
  Diagnostics::global().reset();
  FailPoints::set("batch.job", "throw");
  const BatchResult result = runner.run(jobs, &prior);
  FailPoints::clear_all();
  std::vector<std::string> claimed;
  for (const Diagnostic& d : Diagnostics::global().snapshot())
    if (d.code == "batch_job_failed") claimed.push_back(d.message);
  Diagnostics::global().reset();

  const std::vector<std::string> expected = {
      "job 2 (C7552)", "job 4 (C1355)", "job 3 (C880)", "job 0 (C432)",
      "job 1 (nope)"};
  ASSERT_EQ(claimed.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k)
    EXPECT_EQ(claimed[k].rfind(expected[k] + " failed", 0), 0u)
        << k << ": " << claimed[k];
  EXPECT_TRUE(result.outcomes[5].ok);
  EXPECT_EQ(result.failed_count(), 5u);
}

TEST(EngineBatchTest, AnalyzeTimerCountsOnlyItsOwnJob) {
  // Each lane runs one job at a time, so the analyze time summed over all
  // jobs cannot exceed lanes x the batch's wall time.  A thread that ran
  // other jobs while it waited inside analyze() would break this bound by
  // a wide margin.  Nothing here depends on host speed.
  const SvaFlow& flow = shared_flow();
  std::vector<std::string> names;
  for (const BenchmarkSpec& b : iscas85_specs()) names.push_back(b.name);
  TimerStat& analyze = MetricsRegistry::global().timer("flow.analyze");
  TimerStat& batch = MetricsRegistry::global().timer("batch.run");
  for (std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    const BatchRunner runner(flow, pool);
    const double analyze0 = analyze.seconds();
    const double batch0 = batch.seconds();
    const std::uint64_t calls0 = analyze.count();
    ASSERT_TRUE(runner.run_names(names).all_ok());
    const double analyze_s = analyze.seconds() - analyze0;
    const double batch_s = batch.seconds() - batch0;
    EXPECT_EQ(analyze.count() - calls0, names.size());
    EXPECT_GT(analyze_s, 0.0);
    EXPECT_LE(analyze_s, static_cast<double>(pool.thread_count() + 1) * batch_s)
        << threads << " threads";
  }
}

/// Every (cell, version, arc) entry of `library`'s table against the mean
/// printed CD of the arc's devices, bit for bit.
void expect_table_matches_printed_cd_mean(const ContextLibrary& library,
                                          const char* what) {
  const std::size_t bins = library.bins().count();
  const std::vector<CharacterizedCell>& cells = library.characterized().cells;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const CellMaster& master = cells[ci].master;
    for (std::size_t vi = 0; vi < library.bins().version_count(); ++vi) {
      const VersionKey key = version_key(vi, bins);
      for (std::size_t ai = 0; ai < master.arcs().size(); ++ai) {
        const std::vector<std::size_t>& devices =
            master.arcs()[ai].device_indices;
        double sum = 0.0;
        for (std::size_t di : devices)
          sum += library.device_printed_cd(ci, key, di);
        const Nm mean = sum / static_cast<double>(devices.size());
        ASSERT_EQ(library.arc_effective_length(ci, key, ai), mean)
            << what << " cell " << ci << " version " << vi << " arc " << ai;
        ASSERT_EQ(library.arc_delay_scale(ci, key, ai),
                  mean / master.tech().gate_length)
            << what;
      }
    }
  }
}

TEST(ContextLibraryTest, TableMatchesDevicePrintedCdMeanBitwise) {
  const SvaFlow& flow = shared_flow();
  expect_table_matches_printed_cd_mean(flow.context_library(), "3 bins");

  // The 2- and 5-bin schemes of the bin-count ablation.
  const ContextBins two({600.0}, {300.0, 600.0});
  const ContextBins five({350.0, 450.0, 550.0, 600.0},
                         {300.0, 350.0, 450.0, 550.0, 600.0});
  for (const auto& [bins, what] :
       {std::pair{two, "2 bins"}, std::pair{five, "5 bins"}}) {
    const ContextLibrary library(flow.characterized(),
                                 flow.library_opc_results(),
                                 flow.boundary_model(), bins);
    expect_table_matches_printed_cd_mean(library, what);
  }

  const SizedLibrary sized(flow.library(), flow.config().electrical,
                           flow.library_opc_results(), flow.boundary_model(),
                           flow.config().bins);
  expect_table_matches_printed_cd_mean(sized.context_library(), "sized");
}

TEST(ContextLibraryTest, TableReadsAreBoundsChecked) {
  const ContextLibrary& library = shared_flow().context_library();
  const std::size_t cells = library.characterized().cells.size();
  const std::size_t arcs =
      library.characterized().cells[0].master.arcs().size();
  const VersionKey ok{};
  EXPECT_THROW(library.arc_effective_length(cells, ok, 0), PreconditionError);
  EXPECT_THROW(library.arc_effective_length(0, ok, arcs), PreconditionError);
  const VersionKey bad{0, 0, 0, static_cast<std::uint8_t>(
                                    library.bins().count())};
  EXPECT_THROW(library.arc_effective_length(0, bad, 0), PreconditionError);
}

TEST(EngineOptionsTest, DefaultsWhenNoFlagsPresent) {
  std::vector<std::string> args = {"C432", "C880"};
  const EngineOptions opts = extract_engine_options(args);
  EXPECT_EQ(opts.threads, ThreadPool::default_thread_count());
  EXPECT_FALSE(opts.metrics);
  EXPECT_FALSE(opts.no_cache);
  EXPECT_EQ(args, (std::vector<std::string>{"C432", "C880"}));
}

TEST(EngineOptionsTest, CacheFlagsParsed) {
  std::vector<std::string> args = {"C432", "--cache-dir", "/tmp/x",
                                   "--no-cache"};
  const EngineOptions opts = extract_engine_options(args);
  EXPECT_EQ(opts.cache_dir, "/tmp/x");
  EXPECT_TRUE(opts.no_cache);
  EXPECT_FALSE(opts.cache_enabled());
  EXPECT_EQ(args, (std::vector<std::string>{"C432"}));
}

TEST(EngineOptionsTest, CacheEnabledByDefault) {
  std::vector<std::string> args = {"C432"};
  const EngineOptions opts = extract_engine_options(args);
  EXPECT_FALSE(opts.no_cache);
  EXPECT_FALSE(opts.cache_dir.empty());
  EXPECT_TRUE(opts.cache_enabled());
}

TEST(EngineOptionsTest, StripsFlagsAnywhereInTheList) {
  std::vector<std::string> args = {"--metrics", "C432", "--threads", "7",
                                   "C880"};
  const EngineOptions opts = extract_engine_options(args);
  EXPECT_EQ(opts.threads, 7u);
  EXPECT_TRUE(opts.metrics);
  EXPECT_EQ(args, (std::vector<std::string>{"C432", "C880"}));
}

TEST(EngineOptionsTest, ThreadsZeroIsAccepted) {
  std::vector<std::string> args = {"--threads", "0"};
  EXPECT_EQ(extract_engine_options(args).threads, 0u);
}

TEST(EngineOptionsTest, MissingValueThrowsUniformMessage) {
  std::vector<std::string> args = {"--threads"};
  try {
    extract_engine_options(args);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "--threads requires a value");
  }
}

TEST(EngineOptionsTest, MalformedValueThrowsUniformMessage) {
  for (const char* bad : {"abc", "3x", "-2", ""}) {
    std::vector<std::string> args = {"--threads", bad};
    try {
      extract_engine_options(args);
      FAIL() << "expected an exception for '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--threads expects a non-negative integer, "
                            "got '") +
                    bad + "'");
    }
  }
}

TEST(EngineOptionsTest, SizeFlagParserSharedBySubcommands) {
  EXPECT_EQ(parse_size_flag("--max-moves", "12"), 12u);
  EXPECT_THROW(parse_size_flag("--max-moves", "1.5"), std::runtime_error);
  EXPECT_THROW(parse_size_flag("-n", "-1"), std::runtime_error);
}

TEST(EngineOptionsTest, DoubleFlagParserSharedBySubcommands) {
  EXPECT_DOUBLE_EQ(parse_double_flag("--clock", "2.25"), 2.25);
  EXPECT_THROW(parse_double_flag("--clock", "0"), std::runtime_error);
  EXPECT_THROW(parse_double_flag("--clock", "-3"), std::runtime_error);
  EXPECT_THROW(parse_double_flag("--clock", "2ns"), std::runtime_error);
}

TEST(EngineOptionsTest, FlagValueAdvancesPastTheValue) {
  const std::vector<std::string> args = {"--clock", "2.0", "--metrics"};
  std::size_t i = 0;
  EXPECT_EQ(flag_value(args, i), "2.0");
  EXPECT_EQ(i, 1u);
}

}  // namespace
}  // namespace sva
