// Persistent setup-snapshot benchmark: cold vs warm start.
//
// The flow's characterization stage -- library OPC of every master plus
// the post-OPC pitch->CD gratings -- dominates startup (tens of ms of
// litho simulation).  Both products are pure functions of the
// configuration, so the setup snapshot stores them once and later runs
// restore bit-identical products from disk.  The 81-version context
// expansion is not persisted: ContextLibrary builds its whole dense table
// at construction.  This bench reports:
//
//   * setup stage: SvaFlow construction cold (full OPC) vs warm (snapshot
//     restore), products asserted bit-identical;
//   * table build: ContextLibrary construction for the flow's library and
//     for the ECO sizing ladder's expanded library;
//   * per Table-2 circuit: flow construction + analyze, cold vs warm, with
//     the two analyses asserted bit-identical.
//
// Writes BENCH_cache.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "engine/thread_pool.hpp"
#include "opt/sizing.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

using namespace sva;

namespace {

const std::vector<std::string> kTable2Circuits = {"C432", "C880", "C1355",
                                                  "C1908", "C3540"};
constexpr int kRepeats = 3;
constexpr int kTableRepeats = 5;

std::uint64_t ns_of(const std::chrono::steady_clock::time_point& t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

FlowConfig config_with_cache(const std::string& dir) {
  FlowConfig cfg;
  cfg.cache_dir = dir;
  return cfg;
}

/// Best-of-kTableRepeats wall time of one ContextLibrary construction.
std::uint64_t time_table_build(const CharacterizedLibrary& characterized,
                               const std::vector<LibraryOpcCellResult>& opc,
                               const SvaFlow& flow) {
  std::uint64_t best = ~0ull;
  for (int r = 0; r < kTableRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const ContextLibrary library(characterized, opc, flow.boundary_model(),
                                 flow.config().bins);
    best = std::min(best, ns_of(t0));
  }
  return best;
}

void assert_identical(const CircuitAnalysis& a, const CircuitAnalysis& b) {
  SVA_ASSERT_MSG(a.trad_nom_ps == b.trad_nom_ps &&
                     a.trad_bc_ps == b.trad_bc_ps &&
                     a.trad_wc_ps == b.trad_wc_ps &&
                     a.sva_nom_ps == b.sva_nom_ps &&
                     a.sva_bc_ps == b.sva_bc_ps &&
                     a.sva_wc_ps == b.sva_wc_ps &&
                     a.arc_class_counts == b.arc_class_counts,
                 "warm analysis differs from cold");
}

}  // namespace

int main() {
  std::printf("=== Persistent setup snapshot: cold vs warm ===\n\n");
  const std::string cache_dir = ".bench_cache_tmp";
  std::filesystem::remove_all(cache_dir);

  // Seed flow: cold construction that also writes the setup snapshot.
  const SvaFlow flow{config_with_cache(cache_dir)};
  SVA_ASSERT(!flow.setup_from_cache());
  const std::size_t cells = flow.context_library().characterized().cells.size();
  const std::size_t versions = flow.config().bins.version_count();

  // --- Setup stage: library OPC + pitch characterization. ------------
  std::uint64_t setup_cold = ~0ull, setup_warm = ~0ull;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const SvaFlow cold{FlowConfig{}};
    setup_cold = std::min(setup_cold, ns_of(t0));

    const auto t1 = std::chrono::steady_clock::now();
    const SvaFlow warm{config_with_cache(cache_dir)};
    setup_warm = std::min(setup_warm, ns_of(t1));
    SVA_ASSERT(warm.setup_from_cache());
    SVA_ASSERT_MSG(warm.pitch_points().size() == cold.pitch_points().size(),
                   "warm pitch table differs");
    for (std::size_t i = 0; i < cold.pitch_points().size(); ++i)
      SVA_ASSERT_MSG(warm.pitch_points()[i].printed_cd ==
                         cold.pitch_points()[i].printed_cd,
                     "warm pitch CD differs from cold");
    for (std::size_t ci = 0; ci < cold.library_opc_results().size(); ++ci)
      SVA_ASSERT_MSG(warm.library_opc_results()[ci].device_cd ==
                         cold.library_opc_results()[ci].device_cd,
                     "warm library-OPC CDs differ from cold");
  }
  const double setup_speedup =
      static_cast<double>(setup_cold) / static_cast<double>(setup_warm);
  std::printf("setup stage (library OPC + pitch gratings):\n");
  std::printf("  cold characterize: %8.3f ms\n", setup_cold * 1e-6);
  std::printf("  warm restore:      %8.3f ms   (speedup %.1fx)\n\n",
              setup_warm * 1e-6, setup_speedup);

  // --- Table build: ContextLibrary construction. ---------------------
  // The sized library's variants reuse their base cell's library-OPC CDs.
  const SizedLibrary sized(flow.library(), flow.config().electrical,
                           flow.library_opc_results(), flow.boundary_model(),
                           flow.config().bins);
  const std::size_t sized_cells = sized.characterized().cells.size();
  std::vector<LibraryOpcCellResult> sized_opc;
  for (std::size_t ci = 0; ci < sized_cells; ++ci)
    sized_opc.push_back(flow.library_opc_results()[sized.base_of(ci)]);
  const std::uint64_t flow_table =
      time_table_build(flow.characterized(), flow.library_opc_results(), flow);
  const std::uint64_t sized_table =
      time_table_build(sized.characterized(), sized_opc, flow);
  std::printf("context table build (ContextLibrary construction):\n");
  std::printf("  flow library:  %4zu slots  %8.3f ms\n", cells * versions,
              flow_table * 1e-6);
  std::printf("  sized library: %4zu slots  %8.3f ms\n\n",
              sized_cells * versions, sized_table * 1e-6);

  // --- Per Table-2 circuit: startup + analyze. -----------------------
  // Cold: flow construction (full OPC) + analyze.  Warm: flow
  // construction off the setup snapshot + analyze -- what consecutive CLI
  // runs of the same circuit pay.
  Table table({"Testcase", "Cold ms", "Warm ms", "Speedup"});
  std::vector<std::string> rows_json;
  for (const std::string& name : kTable2Circuits) {
    std::uint64_t cold_ns = ~0ull, warm_ns = ~0ull;
    for (int r = 0; r < kRepeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const SvaFlow cold{FlowConfig{}};
      const CircuitAnalysis a = cold.analyze_benchmark(name);
      cold_ns = std::min(cold_ns, ns_of(t0));

      const auto t1 = std::chrono::steady_clock::now();
      const SvaFlow warm{config_with_cache(cache_dir)};
      const CircuitAnalysis b = warm.analyze_benchmark(name);
      warm_ns = std::min(warm_ns, ns_of(t1));
      SVA_ASSERT(warm.setup_from_cache());
      assert_identical(a, b);
    }
    const double speedup =
        static_cast<double>(cold_ns) / static_cast<double>(warm_ns);
    table.add_row({name, fmt(cold_ns * 1e-6, 3), fmt(warm_ns * 1e-6, 3),
                   fmt(speedup, 1)});
    rows_json.push_back("{\"bench\": \"" + name + "\", \"cold_ns\": " +
                        std::to_string(cold_ns) + ", \"warm_ns\": " +
                        std::to_string(warm_ns) + ", \"speedup\": " +
                        fmt(speedup, 2) + "}");
  }
  std::printf("%s\n", table.render().c_str());

  // --- JSON artifact. ------------------------------------------------
  std::string json = "{\n  \"bench\": \"cache\",\n  \"nproc\": ";
  json += std::to_string(ThreadPool::default_thread_count());
  json += ",\n  \"note\": \"cold setup runs library OPC + pitch gratings "
          "across nproc lanes, so setup_speedup shrinks with more cores; "
          "*_table_build_ns is one ContextLibrary construction (device "
          "geometry + every (cell, version, arc) entry), best of " +
          std::to_string(kTableRepeats) + "\",\n  \"cells\": ";
  json += std::to_string(cells);
  json += ",\n  \"versions_per_cell\": ";
  json += std::to_string(versions);
  json += ",\n  \"setup_cold_ns\": ";
  json += std::to_string(setup_cold);
  json += ",\n  \"setup_warm_ns\": ";
  json += std::to_string(setup_warm);
  json += ",\n  \"setup_speedup\": ";
  json += fmt(setup_speedup, 2);
  json += ",\n  \"flow_table_slots\": ";
  json += std::to_string(cells * versions);
  json += ",\n  \"flow_table_build_ns\": ";
  json += std::to_string(flow_table);
  json += ",\n  \"sized_table_slots\": ";
  json += std::to_string(sized_cells * versions);
  json += ",\n  \"sized_table_build_ns\": ";
  json += std::to_string(sized_table);
  json += ",\n  \"circuits\": [\n";
  for (std::size_t i = 0; i < rows_json.size(); ++i) {
    json += "    ";
    json += rows_json[i];
    json += (i + 1 < rows_json.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  write_text_file("BENCH_cache.json", json);
  std::printf("wrote BENCH_cache.json\n");

  std::filesystem::remove_all(cache_dir);
  return 0;
}
