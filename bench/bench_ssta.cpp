// Block-based SSTA vs Monte-Carlo and vs corner methodologies.
//
// Two questions, answered per Table-2 circuit:
//
//   1. Runtime: one canonical SSTA pass against the 10k-sample
//      context-aware Monte-Carlo it replaces (expected >= 50x).
//   2. Guard-band: the traditional full-budget corner spread and the
//      paper's SVA corner spread, against the true +-3-sigma spread of
//      the delay distribution (analytical, MC-validated).  The SVA
//      corners remove the systematic pitch/focus components; the
//      fraction of the corner->SSTA gap they close is the headline
//      "spread capture" number in EXPERIMENTS.md.
//
// Corner scales here use a CD-only budget (other_process_fraction = 0)
// so corners, SSTA, and MC all describe the same variation source.
//
// Writes BENCH_ssta.json, with the host's core count and the process
// peak RSS after each circuit (monotonic, so a row bounds the memory of
// every circuit up to it; C7552 runs last and is the largest).

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/corners.hpp"
#include "core/flow.hpp"
#include "core/scales.hpp"
#include "core/statistical.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "ssta/propagate.hpp"
#include "sta/sta.hpp"
#include "util/strings.hpp"

using namespace sva;

namespace {

const std::vector<std::string> kCircuits = {"C432", "C880", "C1908",
                                            "C7552"};
constexpr std::size_t kMcSamples = 10000;
constexpr int kSstaRepeats = 5;

std::uint64_t ns_of(const std::chrono::steady_clock::time_point& t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace

int main() {
  std::printf("=== Block-based SSTA vs Monte-Carlo and corners ===\n\n");
  const SvaFlow flow{FlowConfig{}};

  // CD-only budget: what the statistical engines model, and therefore
  // the apples-to-apples basis for the corner spreads.
  CdBudget budget = flow.config().budget;
  budget.other_process_fraction = 0.0;
  const Nm l_nom = flow.library().master(0).tech().gate_length;

  Table table({"Testcase", "SSTA ms", "MC ms", "Speedup", "Trad ps",
               "SVA ps", "6-sigma ps", "Capture", "Peak MB"});
  std::vector<std::string> rows_json;

  for (const std::string& name : kCircuits) {
    const Netlist netlist = flow.make_benchmark(name);
    const Placement placement = flow.make_placement(netlist);
    const std::vector<VersionKey> versions = flow.bind_versions(placement);

    // --- analytical SSTA (best of kSstaRepeats, engine setup included).
    SstaVariationModel model;
    model.budget = budget;
    model.policy = flow.config().arc_policy;
    std::uint64_t ssta_ns = ~0ull;
    CanonicalDelay critical;
    for (int r = 0; r < kSstaRepeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const SstaEngine engine(netlist, flow.characterized(),
                              flow.context_library(), versions, model,
                              flow.config().sta);
      critical = engine.run().critical;
      ssta_ns = std::min(ssta_ns, ns_of(t0));
    }

    // --- 10k-sample context-aware Monte-Carlo (one full run).
    const Sta sta(netlist, flow.characterized(), flow.config().sta);
    const ContextAwareSampler sampler(netlist, flow.context_library(),
                                      versions, budget,
                                      flow.config().arc_policy);
    MonteCarloConfig mc;
    mc.samples = kMcSamples;
    const auto t_mc = std::chrono::steady_clock::now();
    const Summary mc_summary = run_monte_carlo(sta, sampler, mc).summary();
    const std::uint64_t mc_ns = ns_of(t_mc);

    // --- corner spreads on the same CD-only budget.
    const double trad_bc =
        sta.run(TraditionalCornerScale(l_nom, budget, Corner::Best))
            .critical_delay_ps;
    const double trad_wc =
        sta.run(TraditionalCornerScale(l_nom, budget, Corner::Worst))
            .critical_delay_ps;
    const double sva_bc =
        sta.run(SvaCornerScale(netlist, flow.context_library(), versions,
                               budget, Corner::Best, flow.config().arc_policy))
            .critical_delay_ps;
    const double sva_wc =
        sta.run(SvaCornerScale(netlist, flow.context_library(), versions,
                               budget, Corner::Worst, flow.config().arc_policy))
            .critical_delay_ps;

    const double trad_spread = trad_wc - trad_bc;
    const double sva_spread = sva_wc - sva_bc;
    const double ssta_spread = 6.0 * critical.sigma_ps();
    // Fraction of the corner-vs-true-spread gap the SVA corners close.
    const double capture =
        (trad_spread - sva_spread) / (trad_spread - ssta_spread);
    const double speedup =
        static_cast<double>(mc_ns) / static_cast<double>(ssta_ns);
    const double mean_err =
        (critical.mean_ps - mc_summary.mean) / mc_summary.mean;
    const double sigma_err =
        (critical.sigma_ps() - mc_summary.stddev) / mc_summary.stddev;
    const double rss_mb = peak_rss_mb();

    std::printf("%s: SSTA mean %s ps sigma %s ps (MC mean err %s%%, "
                "sigma err %s%%)\n",
                name.c_str(), fmt(critical.mean_ps, 1).c_str(),
                fmt(critical.sigma_ps(), 2).c_str(),
                fmt(mean_err * 100.0, 2).c_str(),
                fmt(sigma_err * 100.0, 2).c_str());
    table.add_row({name, fmt(ssta_ns * 1e-6, 2), fmt(mc_ns * 1e-6, 1),
                   fmt(speedup, 0) + "x", fmt(trad_spread, 1),
                   fmt(sva_spread, 1), fmt(ssta_spread, 1),
                   fmt_pct(capture, 1), fmt(rss_mb, 1)});

    std::string row = "{\"bench\": \"";
    row += name;
    row += "\", \"ssta_ns\": ";
    row += std::to_string(ssta_ns);
    row += ", \"mc_ns\": ";
    row += std::to_string(mc_ns);
    row += ", \"speedup\": ";
    row += fmt(speedup, 1);
    row += ", \"ssta_mean_ps\": ";
    row += fmt(critical.mean_ps, 3);
    row += ", \"ssta_sigma_ps\": ";
    row += fmt(critical.sigma_ps(), 3);
    row += ", \"mc_mean_ps\": ";
    row += fmt(mc_summary.mean, 3);
    row += ", \"mc_sigma_ps\": ";
    row += fmt(mc_summary.stddev, 3);
    row += ", \"trad_spread_ps\": ";
    row += fmt(trad_spread, 3);
    row += ", \"sva_spread_ps\": ";
    row += fmt(sva_spread, 3);
    row += ", \"ssta_spread_ps\": ";
    row += fmt(ssta_spread, 3);
    row += ", \"spread_capture\": ";
    row += fmt(capture, 4);
    row += ", \"peak_rss_mb\": ";
    row += fmt(rss_mb, 1);
    row += "}";
    rows_json.push_back(row);
  }

  std::printf("\n%s\n", table.render().c_str());

  std::string json = "{\n  \"bench\": \"ssta\",\n  \"nproc\": ";
  json += std::to_string(std::thread::hardware_concurrency());
  json += ",\n  \"mc_samples\": ";
  json += std::to_string(kMcSamples);
  json += ",\n  \"circuits\": [\n";
  for (std::size_t i = 0; i < rows_json.size(); ++i) {
    json += "    ";
    json += rows_json[i];
    json += (i + 1 < rows_json.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  write_text_file("BENCH_ssta.json", json);
  std::printf("wrote BENCH_ssta.json\n");
  return 0;
}
