// Robustness tests: the fault-injection framework (failpoints), the
// structured diagnostics sink, bounded retry, snapshot quarantine, the
// graceful-degradation paths (per-cell OPC fallback, per-job batch
// isolation), and a chaos sweep over every registered failpoint.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cell/library.hpp"
#include "cell/library_opc.hpp"
#include "core/flow.hpp"
#include "engine/batch.hpp"
#include "engine/options.hpp"
#include "engine/thread_pool.hpp"
#include "util/cache_gc.hpp"
#include "util/cancel.hpp"
#include "util/checkpoint.hpp"
#include "util/diagnostics.hpp"
#include "util/failpoint.hpp"
#include "util/filelock.hpp"
#include "util/metrics.hpp"
#include "util/retry.hpp"
#include "util/serialize.hpp"

namespace sva {
namespace {

/// Flow construction runs library OPC; share one fault-free instance.
const SvaFlow& shared_flow() {
  static const SvaFlow* flow = new SvaFlow(FlowConfig{});
  return *flow;
}

/// Every test starts and ends with no armed failpoint and a clean
/// diagnostics sink, so injected faults can never leak across tests.
class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::clear_all();
    Diagnostics::global().reset();
  }
  void TearDown() override {
    FailPoints::clear_all();
    Diagnostics::global().reset();
  }
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sva_robust_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Quarantine names carry a ".<pid>.<counter>" suffix (collision-proof
/// across concurrent processes), so tests match by prefix.
std::size_t quarantine_count(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".corrupt";
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path(), ec))
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
  return n;
}

bool quarantine_exists(const std::string& path) {
  return quarantine_count(path) > 0;
}

// ------------------------------------------------------------ failpoints

using FailPointTest = RobustnessTest;

TEST_F(FailPointTest, DisabledByDefault) {
  EXPECT_FALSE(FailPoints::any_active());
  SVA_FAILPOINT("robust.test.nothing");  // must be a no-op
  EXPECT_EQ(FailPoints::fired_count("robust.test.nothing"), 0u);
}

TEST_F(FailPointTest, ThrowActionFiresEveryHit) {
  FailPoints::set("robust.test.site", "throw");
  EXPECT_TRUE(FailPoints::any_active());
  for (int i = 0; i < 3; ++i)
    EXPECT_THROW(SVA_FAILPOINT("robust.test.site"), FailPointError);
  EXPECT_EQ(FailPoints::fired_count("robust.test.site"), 3u);
  // An armed site does not affect other sites.
  SVA_FAILPOINT("robust.test.other");
}

TEST_F(FailPointTest, InjectedFaultIsAnSvaError) {
  FailPoints::set("robust.test.site", "throw");
  // FailPointError must flow through the same handlers as real faults.
  EXPECT_THROW(SVA_FAILPOINT("robust.test.site"), Error);
}

TEST_F(FailPointTest, OffAndClearDisarm) {
  FailPoints::set("robust.test.site", "throw");
  FailPoints::set("robust.test.site", "off");
  EXPECT_FALSE(FailPoints::any_active());
  SVA_FAILPOINT("robust.test.site");

  FailPoints::set("robust.test.site", "throw");
  FailPoints::clear("robust.test.site");
  EXPECT_FALSE(FailPoints::any_active());
  SVA_FAILPOINT("robust.test.site");
}

TEST_F(FailPointTest, ProbEndpointsAreExact) {
  FailPoints::set("robust.test.p0", "prob(0.0)");
  for (int i = 0; i < 100; ++i) SVA_FAILPOINT("robust.test.p0");
  EXPECT_EQ(FailPoints::fired_count("robust.test.p0"), 0u);

  FailPoints::set("robust.test.p1", "prob(1.0)");
  EXPECT_THROW(SVA_FAILPOINT("robust.test.p1"), FailPointError);
}

TEST_F(FailPointTest, KeyedProbDecisionIsDeterministic) {
  FailPoints::set("robust.test.keyed", "prob(0.5)");
  // The decision is a pure hash of (name, key): replaying the same key
  // must replay the same outcome, hit after hit.
  std::vector<bool> first;
  for (std::uint64_t key = 0; key < 64; ++key) {
    bool threw = false;
    try {
      SVA_FAILPOINT_KEYED("robust.test.keyed", key);
    } catch (const FailPointError&) {
      threw = true;
    }
    first.push_back(threw);
  }
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t key = 0; key < 64; ++key) {
      bool threw = false;
      try {
        SVA_FAILPOINT_KEYED("robust.test.keyed", key);
      } catch (const FailPointError&) {
        threw = true;
      }
      EXPECT_EQ(threw, first[key]) << "key " << key;
    }
  }
  // At p=0.5 over 64 keys, an all-pass or all-fail split would mean the
  // hash is not mixing (probability 2^-63 for a real uniform).
  std::size_t fired = 0;
  for (const bool b : first) fired += b ? 1u : 0u;
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, first.size());
}

TEST_F(FailPointTest, UnkeyedProbRerollsPerHit) {
  FailPoints::set("robust.test.roll", "prob(0.5)");
  // Each unkeyed hit draws a fresh counter key, so across 64 hits both
  // outcomes must appear (this is what lets a retry succeed).
  std::size_t threw = 0;
  for (int i = 0; i < 64; ++i) {
    try {
      SVA_FAILPOINT("robust.test.roll");
    } catch (const FailPointError&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0u);
  EXPECT_LT(threw, 64u);
}

TEST_F(FailPointTest, DelayActionSleepsAndContinues) {
  FailPoints::set("robust.test.delay", "delay(5)");
  const auto t0 = std::chrono::steady_clock::now();
  SVA_FAILPOINT("robust.test.delay");  // must not throw
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(5));
  EXPECT_EQ(FailPoints::fired_count("robust.test.delay"), 1u);
}

TEST_F(FailPointTest, CorruptHonouredOnlyWhereSupported) {
  FailPoints::set("robust.test.corrupt", "corrupt");
  EXPECT_EQ(FailPoints::hit("robust.test.corrupt", FailPoints::kNoKey,
                            /*supports_corrupt=*/true),
            FailAction::Corrupt);
  // A site without a payload treats corrupt as throw.
  EXPECT_THROW(SVA_FAILPOINT("robust.test.corrupt"), FailPointError);
}

TEST_F(FailPointTest, ConfigureParsesCommaList) {
  FailPoints::configure(
      "robust.test.a=throw,robust.test.b=prob(0.25),robust.test.c=delay(1)");
  EXPECT_THROW(SVA_FAILPOINT("robust.test.a"), FailPointError);
  SVA_FAILPOINT("robust.test.c");
  EXPECT_EQ(FailPoints::fired_count("robust.test.c"), 1u);
}

TEST_F(FailPointTest, MalformedSpecsRejectedBeforeArming) {
  for (const char* bad :
       {"explode", "prob(2)", "prob(-0.1)", "prob(x)", "prob(", "delay(-1)",
        "delay(abc)", "prob(0.5)x"}) {
    EXPECT_THROW(FailPoints::set("robust.test.bad", bad), PreconditionError)
        << bad;
    EXPECT_FALSE(FailPoints::any_active()) << bad;
  }
  EXPECT_THROW(FailPoints::configure("=throw"), PreconditionError);
  EXPECT_THROW(FailPoints::configure("noequals"), PreconditionError);
  EXPECT_THROW(FailPoints::set("", "throw"), PreconditionError);
}

TEST_F(FailPointTest, ConfigureFromEnvArmsAndCounts) {
  ::setenv("SVA_FAILPOINTS", "robust.test.env=throw", 1);
  EXPECT_EQ(FailPoints::configure_from_env(), 1u);
  ::unsetenv("SVA_FAILPOINTS");
  EXPECT_THROW(SVA_FAILPOINT("robust.test.env"), FailPointError);
}

TEST_F(FailPointTest, CatalogueListsEveryWiredSite) {
  const std::vector<std::string>& sites = FailPoints::catalogue();
  for (const char* expected :
       {"serialize.read", "serialize.write", "serialize.rename",
        "flow.setup_load",
        "opc.cell_solve", "engine.task", "batch.job", "checkpoint.write",
        "cache.lock"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << expected;
  }
}

// ----------------------------------------------------------- diagnostics

using DiagnosticsTest = RobustnessTest;

TEST_F(DiagnosticsTest, ReportCountsAndSnapshots) {
  Diagnostics& diag = Diagnostics::global();
  diag_warn("opc", "opc_cell_degraded", "cell NAND2 fell back");
  diag_error("batch", "batch_job_failed", "job 0 (C432) failed");
  diag_info("flow", "setup_note", "warm start");

  EXPECT_EQ(diag.count(DiagSeverity::Warning), 1u);
  EXPECT_EQ(diag.count(DiagSeverity::Error), 1u);
  EXPECT_EQ(diag.count(DiagSeverity::Info), 1u);
  EXPECT_EQ(diag.count_code("opc_cell_degraded"), 1u);
  EXPECT_EQ(diag.count_code("no_such_code"), 0u);

  const std::vector<Diagnostic> entries = diag.snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].component, "opc");
  EXPECT_EQ(entries[0].code, "opc_cell_degraded");
  EXPECT_EQ(entries[1].severity, DiagSeverity::Error);
}

TEST_F(DiagnosticsTest, RenderListsEntriesAndSummary) {
  Diagnostics& diag = Diagnostics::global();
  EXPECT_TRUE(diag.render().empty());
  diag_warn("flow", "setup_quarantined", "snapshot x quarantined");
  const std::string report = diag.render();
  EXPECT_NE(report.find("setup_quarantined"), std::string::npos);
  EXPECT_NE(report.find("flow"), std::string::npos);
  EXPECT_NE(report.find("1 warning"), std::string::npos);

  diag.reset();
  EXPECT_TRUE(diag.render().empty());
  EXPECT_EQ(diag.count(DiagSeverity::Warning), 0u);
}

TEST_F(DiagnosticsTest, SeverityTotalsExactPastStorageCap) {
  Diagnostics& diag = Diagnostics::global();
  const std::size_t n = Diagnostics::kMaxStored + 17;
  for (std::size_t i = 0; i < n; ++i)
    diag_warn("soak", "soak_overflow", "entry");
  EXPECT_EQ(diag.count(DiagSeverity::Warning), n);
  // Stored detail is bounded; totals are not.
  EXPECT_EQ(diag.snapshot().size(), Diagnostics::kMaxStored);
  EXPECT_EQ(diag.count_code("soak_overflow"), Diagnostics::kMaxStored);
}

TEST_F(DiagnosticsTest, ConcurrentReportsAllCounted) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i)
        diag_warn("stress", "stress_code", "m");
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Diagnostics::global().count(DiagSeverity::Warning),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST_F(DiagnosticsTest, ReportsFeedMetrics) {
  const std::uint64_t before =
      MetricsRegistry::global().counter("diag.metrics_probe").value();
  diag_warn("test", "metrics_probe", "x");
  diag_warn("test", "metrics_probe", "y");
  EXPECT_EQ(MetricsRegistry::global().counter("diag.metrics_probe").value(),
            before + 2);
}

// ----------------------------------------------------------------- retry

using RetryTest = RobustnessTest;

TEST_F(RetryTest, TransientFailureEventuallySucceeds) {
  int attempts = 0;
  const int value = with_retry("unit", RetryPolicy{}, [&] {
    if (++attempts < 3) throw SerializeError("transient");
    return 42;
  });
  EXPECT_EQ(value, 42);
  EXPECT_EQ(attempts, 3);
}

TEST_F(RetryTest, ExhaustedAttemptsRethrowLastError) {
  int attempts = 0;
  RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_THROW(with_retry("unit", policy,
                          [&]() -> int {
                            ++attempts;
                            throw SerializeError("persistent");
                          }),
               SerializeError);
  EXPECT_EQ(attempts, 3);
}

TEST_F(RetryTest, FileMissingIsPermanentNotRetried) {
  int attempts = 0;
  EXPECT_THROW(with_retry("unit", RetryPolicy{},
                          [&]() -> int {
                            ++attempts;
                            throw FileMissingError("no such file");
                          }),
               FileMissingError);
  EXPECT_EQ(attempts, 1);
}

TEST_F(RetryTest, InjectedFaultsAreRetriable) {
  // A FailPointError is an sva::Error, so an injected transient read
  // fault goes down the same retry path as a real one.
  FailPoints::set("robust.test.retry", "throw");
  int attempts = 0;
  RetryPolicy policy;
  policy.max_attempts = 2;
  EXPECT_THROW(with_retry("unit", policy,
                          [&]() -> int {
                            ++attempts;
                            SVA_FAILPOINT("robust.test.retry");
                            return 0;
                          }),
               FailPointError);
  EXPECT_EQ(attempts, 2);
}

// ----------------------------------------- quarantine & cache degradation
//
// The setup snapshot (setup_*.svac) is the one persistent cache: every
// fault on its load or save degrades to a cold construction that still
// succeeds.

using CacheFaultTest = RobustnessTest;

/// Flow configuration persisting its setup snapshot in `dir`.
FlowConfig cached_config(const std::string& dir) {
  FlowConfig cfg;
  cfg.cache_dir = dir;
  return cfg;
}

/// The setup snapshot the default configuration reads and writes in `dir`.
std::string setup_snapshot_path(const std::string& dir) {
  return shared_flow().setup_cache_file_path(dir);
}

/// Fresh directory holding a healthy setup snapshot (written once by a
/// fault-free cold construction, then copied).
std::string seeded_dir(const std::string& name) {
  static const std::string seed = [] {
    const std::string dir = fresh_dir("setup_seed");
    const SvaFlow flow(cached_config(dir));
    return dir;
  }();
  const std::string dir = fresh_dir(name);
  std::filesystem::copy_file(setup_snapshot_path(seed),
                             setup_snapshot_path(dir));
  return dir;
}

TEST_F(CacheFaultTest, CorruptSnapshotQuarantinedOnce) {
  const std::string dir = fresh_dir("quarantine");
  const std::string path = setup_snapshot_path(dir);
  std::ofstream(path, std::ios::binary) << std::string(64, '\x42');

  const std::uint64_t quarantined_before =
      MetricsRegistry::global().counter("flow.setup_quarantined").value();
  const SvaFlow flow(cached_config(dir));
  EXPECT_FALSE(flow.setup_from_cache());
  EXPECT_EQ(quarantine_count(path), 1u);
  EXPECT_EQ(
      MetricsRegistry::global().counter("flow.setup_quarantined").value(),
      quarantined_before + 1);
  EXPECT_EQ(Diagnostics::global().count_code("setup_quarantined"), 1u);

  // The cold construction replaced the bad file with a healthy snapshot,
  // so the next run starts warm instead of re-parsing the bad one.
  const SvaFlow next(cached_config(dir));
  EXPECT_TRUE(next.setup_from_cache());
  EXPECT_EQ(Diagnostics::global().count_code("setup_quarantined"), 1u);
  EXPECT_EQ(quarantine_count(path), 1u);
}

TEST_F(CacheFaultTest, InjectedLoadFaultQuarantines) {
  const std::string dir = seeded_dir("loadfault");
  FailPoints::set("flow.setup_load", "throw");
  const SvaFlow flow(cached_config(dir));
  EXPECT_FALSE(flow.setup_from_cache());
  EXPECT_GE(FailPoints::fired_count("flow.setup_load"), 1u);
  EXPECT_TRUE(quarantine_exists(setup_snapshot_path(dir)));
  EXPECT_EQ(Diagnostics::global().count_code("setup_quarantined"), 1u);
}

TEST_F(CacheFaultTest, ReadFaultDoesNotQuarantineTheFile) {
  const std::string dir = seeded_dir("readfault");
  const std::string path = setup_snapshot_path(dir);

  // Transport failure on every attempt: degrade to a cold start but leave
  // the (possibly fine) file in place.
  FailPoints::set("serialize.read", "throw");
  const SvaFlow flow(cached_config(dir));
  EXPECT_FALSE(flow.setup_from_cache());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(quarantine_exists(path));
  EXPECT_EQ(Diagnostics::global().count_code("setup_read_failed"), 1u);
  EXPECT_EQ(Diagnostics::global().count_code("setup_quarantined"), 0u);

  // Once the transport heals, the snapshot loads cleanly.
  FailPoints::clear_all();
  const SvaFlow healed(cached_config(dir));
  EXPECT_TRUE(healed.setup_from_cache());
}

TEST_F(CacheFaultTest, SaveFaultLeavesNoPartialFile) {
  const std::string dir = fresh_dir("savefault");
  const std::string path = setup_snapshot_path(dir);

  // The snapshot write fails; construction itself must not.
  FailPoints::set("serialize.write", "throw");
  const SvaFlow flow(cached_config(dir));
  EXPECT_GE(FailPoints::fired_count("serialize.write"), 1u);
  EXPECT_FALSE(flow.setup_from_cache());
  EXPECT_FALSE(std::filesystem::exists(path));
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  FailPoints::clear_all();

  // Nothing was persisted, so the next construction is cold as well.
  const SvaFlow next(cached_config(dir));
  EXPECT_FALSE(next.setup_from_cache());
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST_F(CacheFaultTest, RenameFaultLeavesNoTempFiles) {
  const std::string dir = fresh_dir("renamefault");
  FailPoints::set("serialize.rename", "throw");
  EXPECT_THROW(atomic_write_file(dir + "/x.svac", "payload"), FailPointError);
  FailPoints::clear_all();
  // The temp file was cleaned up and the target never appeared.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

TEST_F(CacheFaultTest, CorruptWriteIsRejectedAtLoad) {
  const std::string dir = fresh_dir("corruptwrite");
  const std::string path = setup_snapshot_path(dir);

  // A corrupted save goes to disk (one payload byte flipped); the
  // checksum must catch it on load and quarantine the file.
  FailPoints::set("serialize.write", "corrupt");
  { const SvaFlow seed(cached_config(dir)); }
  FailPoints::clear_all();
  ASSERT_TRUE(std::filesystem::exists(path));

  const SvaFlow flow(cached_config(dir));
  EXPECT_FALSE(flow.setup_from_cache());
  EXPECT_TRUE(quarantine_exists(path));
  // The cold recomputation is the fault-free setup, bit for bit.
  ASSERT_EQ(flow.library_opc_results().size(),
            shared_flow().library_opc_results().size());
  for (std::size_t i = 0; i < flow.library_opc_results().size(); ++i)
    EXPECT_EQ(flow.library_opc_results()[i].device_cd,
              shared_flow().library_opc_results()[i].device_cd);
}

TEST_F(CacheFaultTest, RepeatedQuarantinesNeverCollide) {
  const std::string dir = fresh_dir("quarantine_twice");
  const std::string path = setup_snapshot_path(dir);
  // Two corruption episodes in a row: each quarantine must land in its
  // own uniquely-named file (pid + counter suffix), never clobber the
  // evidence of the previous one.
  for (int episode = 0; episode < 2; ++episode) {
    std::ofstream(path, std::ios::binary) << std::string(64, '\x42');
    const SvaFlow flow(cached_config(dir));
    EXPECT_FALSE(flow.setup_from_cache());
  }
  EXPECT_EQ(quarantine_count(path), 2u);
}

// ------------------------------------------------- OPC graceful fallback

using OpcDegradeTest = RobustnessTest;

const CellLibrary& test_library() {
  static const CellLibrary library = build_standard_library();
  return library;
}

const OpcEngine& test_engine() {
  static const LithoProcess* proc =
      new LithoProcess(OpticsConfig{}, 90.0, 240.0);
  static const OpcEngine* engine = new OpcEngine(*proc, OpcConfig{});
  return *engine;
}

TEST_F(OpcDegradeTest, FallbackIsUniformDrawnCd) {
  const CellMaster& master = test_library().masters()[0];
  const LibraryOpcCellResult fb = library_opc_fallback(master);
  EXPECT_TRUE(fb.degraded);
  EXPECT_EQ(fb.images_simulated, 0u);
  ASSERT_EQ(fb.device_cd.size(), master.devices().size());
  for (std::size_t i = 0; i < fb.device_cd.size(); ++i) {
    EXPECT_EQ(fb.device_cd[i], master.tech().gate_length);
    EXPECT_EQ(fb.device_mask_width[i], master.tech().gate_length);
  }
}

TEST_F(OpcDegradeTest, DegradePolicyIsolatesEveryFailedCell) {
  FailPoints::set("opc.cell_solve", "throw");
  const std::vector<LibraryOpcCellResult> results =
      library_opc_all(test_library().masters(), test_engine(), {},
                      FaultPolicy::Degrade);
  ASSERT_EQ(results.size(), test_library().size());
  for (const LibraryOpcCellResult& r : results) EXPECT_TRUE(r.degraded);
  EXPECT_EQ(Diagnostics::global().count_code("opc_cell_degraded"),
            test_library().size());
}

TEST_F(OpcDegradeTest, StrictPolicyPropagatesTheFault) {
  FailPoints::set("opc.cell_solve", "throw");
  EXPECT_THROW(library_opc_all(test_library().masters(), test_engine(), {},
                               FaultPolicy::Strict),
               FailPointError);
}

TEST_F(OpcDegradeTest, KeyedProbClassifiesCellsDeterministically) {
  // prob() keyed by cell name: the same subset of cells degrades on every
  // run and every thread schedule.
  FailPoints::set("opc.cell_solve", "prob(0.8)");
  const auto first = library_opc_all(test_library().masters(), test_engine(),
                                     {}, FaultPolicy::Degrade);
  const auto second = library_opc_all(test_library().masters(), test_engine(),
                                      {}, FaultPolicy::Degrade);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].degraded, second[i].degraded) << "cell " << i;
    if (first[i].degraded) {
      EXPECT_EQ(first[i].device_cd, second[i].device_cd);
    }
  }
}

TEST_F(OpcDegradeTest, DegradedFlowSetupIsNeverPersisted) {
  const std::string dir = fresh_dir("degradedsetup");
  FailPoints::set("opc.cell_solve", "throw");
  FlowConfig cfg;
  cfg.cache_dir = dir;
  const SvaFlow flow(cfg);
  EXPECT_TRUE(flow.setup_degraded());
  EXPECT_FALSE(std::filesystem::exists(flow.setup_cache_file_path(dir)));
  FailPoints::clear_all();

  // The degraded flow still analyzes end to end with sane outputs.
  const CircuitAnalysis a = flow.analyze_benchmark("C432");
  EXPECT_GT(a.gate_count, 0u);
  EXPECT_GT(a.trad_nom_ps, 0.0);
  EXPECT_GT(a.sva_wc_ps, 0.0);
  EXPECT_GE(a.trad_wc_ps, a.trad_bc_ps);
}

TEST_F(OpcDegradeTest, StrictFlowConstructionThrows) {
  FailPoints::set("opc.cell_solve", "throw");
  FlowConfig cfg;
  cfg.fault_policy = FaultPolicy::Strict;
  EXPECT_THROW(SvaFlow{cfg}, FailPointError);
}

// The cold-setup fan-out resolves per-master faults after the join, in
// master order, so what a fault does never depends on the schedule.

void expect_same_setup(const SvaFlow& a, const SvaFlow& b) {
  ASSERT_EQ(a.library_opc_results().size(), b.library_opc_results().size());
  for (std::size_t i = 0; i < a.library_opc_results().size(); ++i) {
    const LibraryOpcCellResult& x = a.library_opc_results()[i];
    const LibraryOpcCellResult& y = b.library_opc_results()[i];
    EXPECT_EQ(x.degraded, y.degraded) << "cell " << i;
    EXPECT_EQ(x.device_cd, y.device_cd) << "cell " << i;
    EXPECT_EQ(x.device_mask_width, y.device_mask_width) << "cell " << i;
    EXPECT_EQ(x.images_simulated, y.images_simulated) << "cell " << i;
  }
  ASSERT_EQ(a.pitch_points().size(), b.pitch_points().size());
  for (std::size_t i = 0; i < a.pitch_points().size(); ++i) {
    EXPECT_EQ(a.pitch_points()[i].printed_cd, b.pitch_points()[i].printed_cd);
    EXPECT_EQ(a.pitch_points()[i].mask_bias, b.pitch_points()[i].mask_bias);
  }
}

void expect_same_diagnostics(const std::vector<Diagnostic>& a,
                             const std::vector<Diagnostic>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].severity, b[i].severity) << "diagnostic " << i;
    EXPECT_EQ(a[i].component, b[i].component) << "diagnostic " << i;
    EXPECT_EQ(a[i].code, b[i].code) << "diagnostic " << i;
    EXPECT_EQ(a[i].message, b[i].message) << "diagnostic " << i;
  }
}

TEST_F(OpcDegradeTest, ColdFanOutDegradesTheSameCellsInMasterOrder) {
  FailPoints::set("opc.cell_solve", "prob(0.8)");
  const SvaFlow first{FlowConfig{}};
  const std::vector<Diagnostic> first_diags = Diagnostics::global().snapshot();
  Diagnostics::global().reset();
  const SvaFlow second{FlowConfig{}};
  const std::vector<Diagnostic> second_diags =
      Diagnostics::global().snapshot();
  Diagnostics::global().reset();
  expect_same_setup(first, second);
  expect_same_diagnostics(first_diags, second_diags);

  // ...and the same as the serial library_opc_all, diagnostic for
  // diagnostic.
  const std::vector<LibraryOpcCellResult> serial =
      library_opc_all(test_library().masters(), first.opc_engine(), {},
                      FaultPolicy::Degrade);
  expect_same_diagnostics(first_diags, Diagnostics::global().snapshot());
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(first.library_opc_results()[i].degraded, serial[i].degraded);
    degraded += serial[i].degraded ? 1 : 0;
  }
  EXPECT_TRUE(first.setup_degraded());
  EXPECT_GT(degraded, 0u);
  EXPECT_LT(degraded, serial.size());
}

TEST_F(OpcDegradeTest, PoolTaskFaultsLeaveColdSetupIntact) {
  // engine.task fires in the pool's task wrapper before the body; every
  // item it skips runs on the constructing thread instead.
  FailPoints::set("engine.task", "throw");
  const SvaFlow faulted{FlowConfig{}};
  if (ThreadPool::default_thread_count() > 1) {
    EXPECT_GT(FailPoints::fired_count("engine.task"), 0u);
  }
  FailPoints::clear_all();
  EXPECT_FALSE(faulted.setup_degraded());
  expect_same_setup(faulted, shared_flow());
}

TEST_F(OpcDegradeTest, StrictColdFanOutReportsTheFirstMaster) {
  FailPoints::set("opc.cell_solve", "throw");
  FlowConfig cfg;
  cfg.fault_policy = FaultPolicy::Strict;
  EXPECT_THROW(SvaFlow{cfg}, FailPointError);
  const std::vector<Diagnostic> diags = Diagnostics::global().snapshot();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, DiagSeverity::Error);
  EXPECT_EQ(diags[0].code, "opc_cell_failed");
  EXPECT_EQ(diags[0].message.rfind(
                "cell " + test_library().masters()[0].name() + " ", 0),
            0u)
      << diags[0].message;
}

// ------------------------------------------------- batch fault isolation

using BatchFaultTest = RobustnessTest;

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

TEST_F(BatchFaultTest, AllJobsFailButTheBatchSurvives) {
  const SvaFlow& flow = shared_flow();
  ThreadPool pool(2);
  const BatchRunner runner(flow, pool);
  FailPoints::set("batch.job", "throw");
  const BatchResult batch = runner.run_names({"C432", "C880"});
  ASSERT_EQ(batch.outcomes.size(), 2u);
  EXPECT_FALSE(batch.all_ok());
  EXPECT_EQ(batch.failed_count(), 2u);
  for (std::size_t i = 0; i < batch.analyses.size(); ++i) {
    EXPECT_FALSE(batch.outcomes[i].ok);
    EXPECT_NE(batch.outcomes[i].error.find("batch.job"), std::string::npos);
    // Failed slot: name kept, numbers deterministically zeroed.
    EXPECT_FALSE(batch.analyses[i].name.empty());
    EXPECT_EQ(batch.analyses[i].gate_count, 0u);
    EXPECT_EQ(batch.analyses[i].trad_wc_ps, 0.0);
  }
  EXPECT_EQ(Diagnostics::global().count_code("batch_job_failed"), 2u);
}

TEST_F(BatchFaultTest, ProbFaultClassifiesJobsDeterministically) {
  const SvaFlow& flow = shared_flow();
  const std::vector<std::string> names = {"C432", "C499", "C880", "C1355"};

  // Fault-free reference (serial analyze path).
  FailPoints::clear_all();
  std::vector<CircuitAnalysis> reference;
  for (const std::string& name : names)
    reference.push_back(flow.analyze_benchmark(name));

  FailPoints::set("batch.job", "prob(0.5)");
  ThreadPool pool(2);
  const BatchRunner runner(flow, pool);
  const BatchResult first = runner.run_names(names);
  const BatchResult second = runner.run_names(names);
  ASSERT_EQ(first.outcomes.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    // prob() is keyed by circuit name: the classification repeats exactly.
    EXPECT_EQ(first.outcomes[i].ok, second.outcomes[i].ok) << names[i];
    if (first.outcomes[i].ok) {
      // Surviving jobs are bit-identical to a fault-free run.
      expect_same_analysis(first.analyses[i], reference[i], names[i]);
      expect_same_analysis(second.analyses[i], reference[i], names[i]);
    } else {
      EXPECT_EQ(first.analyses[i].name, names[i]);
      EXPECT_EQ(first.analyses[i].gate_count, 0u);
    }
  }
}

TEST_F(BatchFaultTest, StrictBatchRaisesFirstFailureInJobOrder) {
  const SvaFlow& flow = shared_flow();
  ThreadPool pool(2);
  BatchOptions options;
  options.keep_going = false;
  const BatchRunner runner(flow, pool, options);
  FailPoints::set("batch.job", "throw");
  try {
    runner.run_names({"C432", "C880"});
    FAIL() << "expected the batch to raise";
  } catch (const Error& e) {
    // Deterministic: always the first failed job in job order, whatever
    // order the scheduler ran them in.
    EXPECT_NE(std::string(e.what()).find("batch job 0 (C432)"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(BatchFaultTest, TaskFaultSurfacesAtWaitNotTerminate) {
  FailPoints::set("engine.task", "throw");
  for (std::size_t threads : {0u, 2u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    // The injected fault fires before each chunk's body, on the caller as
    // on the helpers; it must be captured and rethrown at the call after
    // the join, never escape a worker thread.
    EXPECT_THROW(pool.parallel_for(
                     0, 4,
                     [&](std::size_t) {
                       ran.fetch_add(1, std::memory_order_relaxed);
                     },
                     1),
                 FailPointError);
    EXPECT_EQ(ran.load(), 0) << threads << " threads";
  }
}

// ----------------------------------------------- cancellation & deadlines

using CancelTest = RobustnessTest;

TEST_F(CancelTest, ExitCodeContractIsStable) {
  // Documented in README "Exit codes"; scripts/check.sh asserts on these.
  EXPECT_EQ(kExitOk, 0);
  EXPECT_EQ(kExitFatal, 1);
  EXPECT_EQ(kExitUsage, 2);
  EXPECT_EQ(kExitJobsFailed, 3);
  EXPECT_EQ(kExitCancelled, 4);
}

TEST_F(CancelTest, TokenLifecycle) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.poll());
  EXPECT_EQ(token.reason(), CancelReason::None);
  token.check();  // clear token: no-op

  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.poll());
  EXPECT_EQ(token.reason(), CancelReason::Api);
  EXPECT_THROW(token.check(), CancelledError);

  token.reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::None);
}

TEST_F(CancelTest, FirstTripsReasonWins) {
  CancelToken token;
  token.request_cancel(CancelReason::Signal, SIGINT);
  token.request_cancel(CancelReason::Deadline);
  EXPECT_EQ(token.reason(), CancelReason::Signal);
  EXPECT_EQ(token.signal_number(), SIGINT);
}

TEST_F(CancelTest, DeadlineExpiryTripsOnPoll) {
  CancelToken token;
  token.set_deadline(Deadline::after_seconds(0.0));
  // The flag itself only flips on a poll (cancelled() stays a pure load).
  EXPECT_TRUE(token.poll());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::Deadline);

  const Deadline never;
  EXPECT_FALSE(never.valid());
  EXPECT_FALSE(never.expired());
  const Deadline later = Deadline::after_seconds(3600.0);
  EXPECT_TRUE(later.valid());
  EXPECT_FALSE(later.expired());
  EXPECT_GT(later.remaining_seconds(), 3000.0);
}

TEST_F(CancelTest, CancelledErrorBypassesFaultHandlers) {
  // CancelledError is deliberately NOT an sva::Error: the degradation
  // handlers (batch keep-going, OPC fallback) catch Error and must never
  // swallow a cancellation.
  static_assert(!std::is_base_of_v<Error, CancelledError>);
  static_assert(std::is_base_of_v<std::runtime_error, CancelledError>);
}

TEST_F(CancelTest, ParallelForStopsBetweenChunks) {
  for (std::size_t threads : {0u, 2u, 8u}) {
    ThreadPool pool(threads);
    CancelToken token;
    token.request_cancel();
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(
        pool.parallel_for(
            0, 1000,
            [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); },
            0, &token),
        CancelledError);
    // Pre-tripped token: every chunk checks before running its indices.
    EXPECT_EQ(ran.load(), 0u) << threads << " threads";

    // A null token costs nothing and runs everything.
    pool.parallel_for(0, 100, [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 100u);
  }
}

TEST_F(CancelTest, ParallelForSkipsBodiesAfterTrip) {
  // A body trips the token mid-loop: chunks claimed later skip their
  // bodies and the call throws CancelledError.  With no workers the
  // caller claims in ascending order, so exactly the prefix ran.
  for (std::size_t threads : {0u, 2u}) {
    ThreadPool pool(threads);
    CancelToken token;
    std::vector<std::atomic<int>> hits(1000);
    EXPECT_THROW(pool.parallel_for(
                     0, hits.size(),
                     [&](std::size_t i) {
                       if (i == 10) token.request_cancel();
                       hits[i].fetch_add(1, std::memory_order_relaxed);
                     },
                     1, &token),
                 CancelledError);
    std::size_t ran = 0;
    for (const std::atomic<int>& h : hits) {
      EXPECT_LE(h.load(), 1);
      ran += static_cast<std::size_t>(h.load());
    }
    EXPECT_EQ(hits[10].load(), 1);
    if (threads == 0) {
      EXPECT_EQ(ran, 11u);
    } else {
      EXPECT_LT(ran, hits.size());
    }
  }
}

// ------------------------------------------------- file locks & takeover

using FileLockTest = RobustnessTest;

TEST_F(FileLockTest, ExclusionAndRelease) {
  const std::string dir = fresh_dir("filelock");
  const std::string target = dir + "/data.svac";
  FileLock first = FileLock::acquire(target);
  EXPECT_TRUE(first.held());
  EXPECT_TRUE(std::filesystem::exists(lock_sidecar_path(target)));

  // Same-process second open contends (flock is per open-file-description).
  FileLock second = FileLock::try_acquire(target, /*timeout_ms=*/50);
  EXPECT_FALSE(second.held());

  first.release();
  EXPECT_FALSE(first.held());
  FileLock third = FileLock::try_acquire(target, /*timeout_ms=*/50);
  EXPECT_TRUE(third.held());
  // The sidecar is never unlinked on release (unlink would race takeover).
  third.release();
  EXPECT_TRUE(std::filesystem::exists(lock_sidecar_path(target)));
}

TEST_F(FileLockTest, CreatesMissingCacheDirectory) {
  // The lock is taken before the write that would otherwise create the
  // cache directory, so acquire() must create it (cold first run).
  const std::string dir = fresh_dir("filelock_cold") + "/nested/cache";
  ASSERT_FALSE(std::filesystem::exists(dir));
  const FileLock lock = FileLock::acquire(dir + "/ctx.svac");
  EXPECT_TRUE(lock.held());
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

TEST_F(FileLockTest, DeadHolderIsTakenOver) {
  const std::string dir = fresh_dir("filelock_stale");
  const std::string target = dir + "/data.svac";
  // Hold the flock (so acquire() sees "busy") but record a PID that is
  // guaranteed dead -- a reaped child -- as the holder.  That is exactly
  // the broken state a crashed process leaves on an flock-emulating
  // filesystem, and the half-timeout takeover must recover from it.
  FileLock holder = FileLock::acquire(target);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(child, nullptr, 0), child);
  std::ofstream(lock_sidecar_path(target), std::ios::trunc)
      << static_cast<long>(child) << "\n";

  const std::uint64_t takeovers_before =
      MetricsRegistry::global().counter("filelock.takeovers").value();
  const FileLock taken = FileLock::acquire(target, /*timeout_ms=*/400);
  EXPECT_TRUE(taken.held());
  EXPECT_EQ(MetricsRegistry::global().counter("filelock.takeovers").value(),
            takeovers_before + 1);
  EXPECT_GE(Diagnostics::global().count_code("lock_takeover"), 1u);
}

TEST_F(FileLockTest, LiveHolderTimesOutInsteadOfTakeover) {
  const std::string dir = fresh_dir("filelock_live");
  const std::string target = dir + "/data.svac";
  const FileLock holder = FileLock::acquire(target);
  // The sidecar records our (alive) PID: the takeover check must refuse
  // and the second acquire must time out.
  EXPECT_THROW(FileLock::acquire(target, /*timeout_ms=*/120), Error);
  EXPECT_TRUE(holder.held());
}

TEST_F(FileLockTest, InjectedLockFaultFires) {
  FailPoints::set("cache.lock", "throw");
  EXPECT_THROW(FileLock::acquire(fresh_dir("filelock_fp") + "/x"),
               FailPointError);
}

// --------------------------------------------------- checkpoint envelope

using CheckpointTest = RobustnessTest;

TEST_F(CheckpointTest, RoundTripPreservesPayload) {
  const std::string path = fresh_dir("ckpt") + "/state.ckpt";
  const std::string payload = "\x01\x02payload bytes\xff";
  write_checkpoint(path, "eco", /*content_hash=*/0xabcdefull, payload);
  EXPECT_EQ(read_checkpoint(path, "eco", 0xabcdefull), payload);
  // kAnyHash skips the identity check (used by inspection tools).
  EXPECT_EQ(read_checkpoint(path, "eco", kAnyHash), payload);
  EXPECT_EQ(checkpoint_content_hash(path, "eco"), 0xabcdefull);
}

TEST_F(CheckpointTest, MismatchesAreRefused) {
  const std::string dir = fresh_dir("ckpt_bad");
  const std::string path = dir + "/state.ckpt";
  write_checkpoint(path, "eco", 7, "payload");
  // Wrong kind (an optimize checkpoint fed to analyze --resume).
  EXPECT_THROW(read_checkpoint(path, "batch", kAnyHash), SerializeError);
  // Wrong content hash (resumed against different inputs).
  EXPECT_THROW(read_checkpoint(path, "eco", 8), SerializeError);
  // Missing file.
  EXPECT_THROW(read_checkpoint(dir + "/nope.ckpt", "eco", kAnyHash),
               FileMissingError);
  // Flipped byte: the checksum rejects it.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(-1, std::ios::end);
  const int last = f.get();
  f.seekp(-1, std::ios::end);
  f.put(static_cast<char>(last ^ 0x5a));
  f.close();
  EXPECT_THROW(read_checkpoint(path, "eco", kAnyHash), SerializeError);
}

TEST_F(CheckpointTest, InjectedWriteFaultLeavesNoFile) {
  const std::string path = fresh_dir("ckpt_fp") + "/state.ckpt";
  FailPoints::set("checkpoint.write", "throw");
  EXPECT_THROW(write_checkpoint(path, "eco", 1, "p"), FailPointError);
  EXPECT_FALSE(std::filesystem::exists(path));
}

// --------------------------------------- batch cancellation & resumption

using BatchCancelTest = RobustnessTest;

TEST_F(BatchCancelTest, PreTrippedTokenCancelsEverySlot) {
  const SvaFlow& flow = shared_flow();
  ThreadPool pool(2);
  CancelToken token;
  token.request_cancel();
  BatchOptions options;
  options.cancel = &token;
  const BatchRunner runner(flow, pool, options);
  const BatchResult batch = runner.run({{"C432"}, {"C880"}});
  ASSERT_EQ(batch.outcomes.size(), 2u);
  EXPECT_EQ(batch.cancelled_count(), 2u);
  // Cancelled is incomplete, not failed: no failure diagnostics, and the
  // two counts never overlap.
  EXPECT_EQ(batch.failed_count(), 0u);
  EXPECT_FALSE(batch.all_ok());
  EXPECT_EQ(Diagnostics::global().count_code("batch_job_failed"), 0u);
  for (const BatchJobOutcome& o : batch.outcomes) {
    EXPECT_TRUE(o.cancelled);
    EXPECT_FALSE(o.ok);
  }
}

TEST_F(BatchCancelTest, CheckpointResumeIsBitIdentical) {
  const SvaFlow& flow = shared_flow();
  ThreadPool pool(2);
  const std::vector<BatchJob> jobs = {{"C432"}, {"C499"}, {"C880"}};
  const BatchRunner runner(flow, pool);
  const BatchResult reference = runner.run(jobs);
  ASSERT_TRUE(reference.all_ok());

  // Interrupt after job 0: journal a partial result whose middle slot is
  // cancelled, reload it, and resume.  The merged result must equal the
  // uninterrupted reference bit for bit (final slots copied, cancelled
  // slots recomputed -- and each job is a pure function of flow+circuit).
  BatchResult partial = reference;
  partial.outcomes[1] = BatchJobOutcome{false, "cancelled", true};
  partial.analyses[1] = CircuitAnalysis{};
  partial.analyses[1].name = jobs[1].circuit;
  partial.outcomes[2] = BatchJobOutcome{false, "cancelled", true};
  partial.analyses[2] = CircuitAnalysis{};
  partial.analyses[2].name = jobs[2].circuit;

  const std::string ckpt = fresh_dir("batch_ckpt") + "/batch.ckpt";
  save_batch_checkpoint(ckpt, flow, jobs, partial);
  const BatchResult prior = load_batch_checkpoint(ckpt, flow, jobs);
  EXPECT_EQ(prior.cancelled_count(), 2u);
  EXPECT_EQ(prior.failed_count(), 0u);

  const std::uint64_t resumed_before =
      MetricsRegistry::global().counter("batch.jobs_resumed").value();
  const BatchResult resumed = runner.run(jobs, &prior);
  EXPECT_TRUE(resumed.all_ok());
  EXPECT_EQ(MetricsRegistry::global().counter("batch.jobs_resumed").value(),
            resumed_before + 1);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    expect_same_analysis(resumed.analyses[i], reference.analyses[i],
                         jobs[i].circuit);
}

TEST_F(BatchCancelTest, CheckpointRefusesDifferentJobList) {
  const SvaFlow& flow = shared_flow();
  ThreadPool pool(2);
  const std::vector<BatchJob> jobs = {{"C432"}};
  const BatchRunner runner(flow, pool);
  const BatchResult result = runner.run(jobs);
  const std::string ckpt = fresh_dir("batch_ckpt_id") + "/batch.ckpt";
  save_batch_checkpoint(ckpt, flow, jobs, result);
  // Same file, different job list: the content hash must refuse it.
  const std::vector<BatchJob> other = {{"C880"}};
  EXPECT_THROW(load_batch_checkpoint(ckpt, flow, other), SerializeError);
  EXPECT_NE(batch_content_hash(flow, jobs), batch_content_hash(flow, other));
}

// -------------------------------------------------------------- cache GC

using CacheGcTest = RobustnessTest;

void set_age(const std::string& path, std::chrono::minutes age) {
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now() - age);
}

void write_file(const std::string& path, std::size_t bytes) {
  std::ofstream(path, std::ios::binary) << std::string(bytes, 'x');
}

TEST_F(CacheGcTest, AgeRulesAndProtectedNames) {
  const std::string dir = fresh_dir("gc_age");
  write_file(dir + "/live.svac", 100);
  write_file(dir + "/old.svac", 100);
  set_age(dir + "/old.svac", std::chrono::minutes(60 * 24 * 40));
  write_file(dir + "/orphan.svac.tmp.123.4", 100);
  set_age(dir + "/orphan.svac.tmp.123.4", std::chrono::minutes(30));
  write_file(dir + "/fresh.svac.tmp.123.5", 100);
  write_file(dir + "/evidence.svac.corrupt.123.6", 100);
  set_age(dir + "/evidence.svac.corrupt.123.6",
          std::chrono::minutes(60 * 24 * 40));
  write_file(dir + "/held.svac.lock", 10);
  set_age(dir + "/held.svac.lock", std::chrono::minutes(60 * 24 * 400));
  write_file(dir + "/run.ckpt", 10);
  set_age(dir + "/run.ckpt", std::chrono::minutes(60 * 24 * 400));

  const CacheGcStats stats = run_cache_gc(dir, CacheGcConfig{});
  // Aged snapshot, aged quarantine, orphaned temp: gone.
  EXPECT_FALSE(std::filesystem::exists(dir + "/old.svac"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/orphan.svac.tmp.123.4"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/evidence.svac.corrupt.123.6"));
  // Live snapshot and fresh temp: kept.
  EXPECT_TRUE(std::filesystem::exists(dir + "/live.svac"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/fresh.svac.tmp.123.5"));
  // Locks and checkpoints are never GC targets, whatever their age.
  EXPECT_TRUE(std::filesystem::exists(dir + "/held.svac.lock"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/run.ckpt"));
  EXPECT_EQ(stats.removed_files, 3u);
}

TEST_F(CacheGcTest, SizeBudgetEvictsOldestFirst) {
  const std::string dir = fresh_dir("gc_size");
  write_file(dir + "/a.svac", 600);
  set_age(dir + "/a.svac", std::chrono::minutes(300));
  write_file(dir + "/b.svac", 600);
  set_age(dir + "/b.svac", std::chrono::minutes(200));
  write_file(dir + "/c.svac", 600);
  set_age(dir + "/c.svac", std::chrono::minutes(100));

  CacheGcConfig cfg;
  cfg.max_total_bytes = 1300;  // fits two of the three
  const CacheGcStats stats = run_cache_gc(dir, cfg);
  EXPECT_FALSE(std::filesystem::exists(dir + "/a.svac"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/b.svac"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/c.svac"));
  EXPECT_EQ(stats.removed_files, 1u);
  EXPECT_EQ(stats.removed_bytes, 600u);
  EXPECT_LE(stats.kept_bytes, cfg.max_total_bytes);

  // Missing directory: a clean no-op, not an error.
  const CacheGcStats none = run_cache_gc(dir + "/does_not_exist");
  EXPECT_EQ(none.scanned_files, 0u);
  EXPECT_EQ(none.removed_files, 0u);
}

// ------------------------------------------------------------ chaos sweep

using ChaosTest = RobustnessTest;

/// Sites whose faults touch only cache/persistence paths: every such
/// fault is retried or degrades to a cold start, so analysis results must
/// stay bit-identical to a fault-free run.
bool analysis_safe_site(const std::string& site) {
  return site.rfind("serialize.", 0) == 0 || site == "flow.setup_load" ||
         site == "cache.lock";
}

TEST_F(ChaosTest, EveryCatalogueSiteSurvivesProbabilisticFaults) {
  const std::vector<std::string> names = {"C432", "C880"};

  // Fault-free seed run: builds the setup snapshot the chaos iterations
  // warm-start from, and the bit-identical reference.
  const std::string seed_dir = fresh_dir("chaos_seed");
  FlowConfig seed_cfg;
  seed_cfg.cache_dir = seed_dir;
  const SvaFlow seed_flow(seed_cfg);
  ASSERT_FALSE(seed_flow.setup_degraded());
  std::vector<CircuitAnalysis> reference;
  for (const std::string& name : names)
    reference.push_back(seed_flow.analyze_benchmark(name));

  for (const std::string& site : FailPoints::catalogue()) {
    SCOPED_TRACE("failpoint " + site);
    // Fresh copy of the seeded cache per site: a quarantine in one
    // iteration must not starve the next.
    const std::string dir = fresh_dir("chaos_" + site);
    std::filesystem::copy(seed_dir, dir,
                          std::filesystem::copy_options::recursive |
                              std::filesystem::copy_options::overwrite_existing);

    FailPoints::clear_all();
    Diagnostics::global().reset();
    FailPoints::set(site, "prob(0.3)");

    // Construction must always survive under the default Degrade policy,
    // whatever the armed site does to the cache or the OPC solves.
    FlowConfig cfg;
    cfg.cache_dir = dir;
    const SvaFlow flow(cfg);

    ThreadPool pool(2);
    const BatchRunner runner(flow, pool);
    bool batch_threw = false;
    BatchResult batch;
    try {
      batch = runner.run_names(names);
    } catch (const Error&) {
      // Only a fault in the pool's own task wrapper escapes run() under
      // keep-going; everything else is isolated per job.
      batch_threw = true;
      EXPECT_EQ(site, "engine.task");
    }
    if (batch_threw) continue;

    // Every job is classified, never silently dropped.
    ASSERT_EQ(batch.analyses.size(), names.size());
    ASSERT_EQ(batch.outcomes.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (batch.outcomes[i].ok) {
        EXPECT_EQ(batch.analyses[i].name, names[i]);
        EXPECT_GT(batch.analyses[i].gate_count, 0u);
      } else {
        EXPECT_FALSE(batch.outcomes[i].error.empty());
        EXPECT_EQ(batch.analyses[i].gate_count, 0u);
      }
    }

    if (analysis_safe_site(site)) {
      // Cache-only faults: retried or degraded to cold characterization,
      // which is bit-identical to the warm path.
      EXPECT_FALSE(flow.setup_degraded());
      for (std::size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(batch.outcomes[i].ok) << names[i];
        expect_same_analysis(batch.analyses[i], reference[i], site);
      }
    } else if (site == "batch.job") {
      // Keyed classification: a second run repeats it exactly, and the
      // surviving jobs still match the reference bit for bit.
      const BatchResult again = runner.run_names(names);
      for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(batch.outcomes[i].ok, again.outcomes[i].ok) << names[i];
        if (batch.outcomes[i].ok)
          expect_same_analysis(batch.analyses[i], reference[i], site);
      }
    }
  }
}

}  // namespace
}  // namespace sva
