// Compiled flat-STA kernel benchmark: the data-oriented program of
// sta/compiled.hpp vs the scalar netlist interpreter (Sta::run_scalar),
// plus the incremental what-if path (the kernel's dirty-record sweep) vs a
// full recompute.
//
// Every compiled wall is only reported after asserting bit-identity with
// the scalar result on the same scale -- a speedup that changed an answer
// would be worthless.  A failed identity check is the only failing exit;
// speedups are printed, never gated, because they depend on the host.
// Writes BENCH_kernel.json.
//
// `--smoke` runs one small circuit once (CI sanitizer leg): compile, one
// full-graph pass per engine, identity check, no JSON artifact.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "netlist/iscas85.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "sta/compiled.hpp"
#include "sta/scale.hpp"
#include "sta/sta.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace sva;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

MatrixScale random_scale(const Netlist& nl, const CellLibrary& lib,
                         const std::string& tag) {
  Rng rng(tag);
  std::vector<std::vector<double>> factors(nl.gates().size());
  for (std::size_t gi = 0; gi < nl.gates().size(); ++gi) {
    factors[gi].resize(lib.master(nl.gates()[gi].cell_index).arcs().size());
    for (double& f : factors[gi]) f = rng.uniform(0.85, 1.25);
  }
  return MatrixScale(std::move(factors));
}

void require_bit_identical(const StaResult& a, const StaResult& b,
                           const std::string& what) {
  bool ok = a.arrival_ps.size() == b.arrival_ps.size() &&
            std::bit_cast<std::uint64_t>(a.critical_delay_ps) ==
                std::bit_cast<std::uint64_t>(b.critical_delay_ps);
  for (std::size_t ni = 0; ok && ni < a.arrival_ps.size(); ++ni)
    ok = std::bit_cast<std::uint64_t>(a.arrival_ps[ni]) ==
             std::bit_cast<std::uint64_t>(b.arrival_ps[ni]) &&
         std::bit_cast<std::uint64_t>(a.slew_ps[ni]) ==
             std::bit_cast<std::uint64_t>(b.slew_ps[ni]);
  if (!ok) {
    std::fprintf(stderr, "BIT-IDENTITY VIOLATION: %s\n", what.c_str());
    std::exit(1);
  }
}

struct CircuitRow {
  std::string name;
  std::size_t gates = 0;
  std::size_t arcs = 0;
  double scalar_ms = 0.0;
  double compiled_ms = 0.0;
  double speedup = 0.0;
  double incr_full_ms = 0.0;   ///< full recompute per what-if
  double incr_ms = 0.0;        ///< dirty-sweep propagation per what-if
  double incr_speedup = 0.0;
  double cone_fraction = 0.0;  ///< gates touched / total, mean
};

/// Best-of-`repeats` wall of `passes` calls to `fn` (ms per call).
template <typename Fn>
double best_wall_ms(int repeats, int passes, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_s();
    for (int p = 0; p < passes; ++p) fn();
    best = std::min(best, (now_s() - t0) * 1e3 / passes);
  }
  return best;
}

CircuitRow bench_circuit(const std::string& name, const CellLibrary& lib,
                         const CharacterizedLibrary& charlib, int repeats,
                         int passes) {
  const Netlist nl = generate_iscas85_like(name, lib);
  const Sta sta(nl, charlib);
  const MatrixScale scale = random_scale(nl, lib, "bench-" + name);

  CircuitRow row;
  row.name = name;
  row.gates = nl.gates().size();
  row.arcs = sta.compiled().arc_count();

  require_bit_identical(sta.run(scale), sta.run_scalar(scale), name);
  row.scalar_ms =
      best_wall_ms(repeats, passes, [&] { (void)sta.run_scalar(scale); });
  row.compiled_ms =
      best_wall_ms(repeats, passes, [&] { (void)sta.run(scale); });
  row.speedup = row.scalar_ms / row.compiled_ms;

  // Incremental what-if: repeated 3-gate scale edits, dirty cone vs
  // full recompute (what the ECO candidate loop pays per candidate).
  Rng rng("incr-" + name);
  std::vector<std::vector<double>> factors(nl.gates().size());
  for (std::size_t gi = 0; gi < nl.gates().size(); ++gi)
    factors[gi].assign(lib.master(nl.gates()[gi].cell_index).arcs().size(),
                       1.0);
  const StaResult base = sta.run(MatrixScale(factors));

  std::vector<std::vector<std::size_t>> edit_seeds;
  std::vector<MatrixScale> edit_scales;
  for (int e = 0; e < 32; ++e) {
    std::vector<std::size_t> changed;
    auto edited = factors;
    for (int k = 0; k < 3; ++k) {
      const auto gi = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(nl.gates().size()) - 1));
      changed.push_back(gi);
      for (double& f : edited[gi]) f = rng.uniform(0.85, 1.25);
    }
    edit_seeds.push_back(changed);
    edit_scales.emplace_back(std::move(edited));
  }

  Counter& touched = MetricsRegistry::global().counter(
      "sta.kernel.incremental_gates_touched");
  const std::uint64_t touched0 = touched.value();
  row.incr_ms = best_wall_ms(repeats, 1, [&] {
    for (std::size_t e = 0; e < edit_scales.size(); ++e)
      (void)sta.run_incremental(edit_scales[e], base, edit_seeds[e]);
  }) / static_cast<double>(edit_scales.size());
  row.incr_full_ms = best_wall_ms(repeats, 1, [&] {
    for (const MatrixScale& s : edit_scales) (void)sta.run(s);
  }) / static_cast<double>(edit_scales.size());
  row.incr_speedup = row.incr_full_ms / row.incr_ms;
  row.cone_fraction =
      static_cast<double>(touched.value() - touched0) /
      static_cast<double>(repeats * edit_scales.size() * nl.gates().size());
  return row;
}

std::string row_json(const CircuitRow& r) {
  std::string j = "{\"bench\": \"" + r.name + "\"";
  j += ", \"gates\": " + std::to_string(r.gates);
  j += ", \"arcs\": " + std::to_string(r.arcs);
  j += ", \"scalar_ms\": " + fmt(r.scalar_ms, 4);
  j += ", \"compiled_ms\": " + fmt(r.compiled_ms, 4);
  j += ", \"speedup\": " + fmt(r.speedup, 2);
  j += ", \"whatif_full_ms\": " + fmt(r.incr_full_ms, 4);
  j += ", \"whatif_incr_ms\": " + fmt(r.incr_ms, 4);
  j += ", \"whatif_speedup\": " + fmt(r.incr_speedup, 2);
  j += ", \"cone_fraction\": " + fmt(r.cone_fraction, 4);
  j += "}";
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const CellLibrary lib = build_standard_library();
  const CharacterizedLibrary charlib = characterize_library(lib);

  if (smoke) {
    const Netlist nl = generate_iscas85_like("C432", lib);
    const Sta sta(nl, charlib);
    const MatrixScale scale = random_scale(nl, lib, "smoke");
    require_bit_identical(sta.run(scale), sta.run_scalar(scale), "smoke");
    const StaResult incr =
        sta.run_incremental(scale, sta.run(scale), {0, 1, 2});
    require_bit_identical(sta.run(scale), incr, "smoke incremental");
    std::printf("smoke ok: %zu gates, %zu arcs, %zu/%zu tables unique\n",
                sta.compiled().gate_count(), sta.compiled().arc_count(),
                sta.compiled().tables_unique(),
                sta.compiled().tables_total());
    return 0;
  }

  std::printf("=== Compiled flat STA kernel vs scalar interpreter ===\n\n");
  const std::vector<std::string> circuits = {"C2670", "C5315", "C6288",
                                             "C7552"};
  Table table({"Testcase", "Gates", "Arcs", "Scalar ms", "Compiled ms",
               "Speedup", "WhatIf full ms", "WhatIf incr ms", "Speedup",
               "Cone"});
  std::vector<std::string> rows_json;
  double largest_speedup = 0.0;
  for (const std::string& name : circuits) {
    const CircuitRow row = bench_circuit(name, lib, charlib,
                                         /*repeats=*/9, /*passes=*/40);
    table.add_row({row.name, std::to_string(row.gates),
                   std::to_string(row.arcs), fmt(row.scalar_ms, 3),
                   fmt(row.compiled_ms, 3), fmt(row.speedup, 2),
                   fmt(row.incr_full_ms, 3), fmt(row.incr_ms, 3),
                   fmt(row.incr_speedup, 2), fmt(row.cone_fraction, 3)});
    rows_json.push_back(row_json(row));
    largest_speedup = row.speedup;  // circuits are sorted by size
  }
  std::printf("%s\n", table.render().c_str());

  // Decomposition on the largest circuit: factor gather (virtual call +
  // matrix lookup per arc, paid identically by the scalar path) vs the
  // flat evaluate loop itself.
  {
    const Netlist nl = generate_iscas85_like("C7552", lib);
    const Sta sta(nl, charlib);
    const MatrixScale scale = random_scale(nl, lib, "bench-C7552");
    StaResult result = sta.run(scale);
    std::vector<double> factors;
    sta.compiled().gather_factors(scale, factors);
    std::vector<double> loads(result.arrival_ps.size());
    for (std::size_t ni = 0; ni < loads.size(); ++ni)
      loads[ni] = sta.net_load_ff(ni);
    const double gather_ms = best_wall_ms(
        5, 40, [&] { sta.compiled().gather_factors(scale, factors); });
    const double eval_ms = best_wall_ms(5, 40, [&] {
      sta.compiled().evaluate_span(0, sta.compiled().gate_count(),
                                   factors.data(), loads.data(), result);
    });
    std::printf("C7552 decomposition: gather %.4f ms, evaluate %.4f ms\n",
                gather_ms, eval_ms);
  }

  // Compile cost + arena stats for the largest circuit.
  const Netlist big = generate_iscas85_like("C7552", lib);
  const double t0 = now_s();
  const Sta big_sta(big, charlib);
  const double compile_ms = (now_s() - t0) * 1e3;
  std::printf("C7552 compile %.2f ms, arena %zu bytes, tables %zu/%zu "
              "unique\n",
              compile_ms, big_sta.compiled().arena_bytes(),
              big_sta.compiled().tables_unique(),
              big_sta.compiled().tables_total());

  std::string json = "{\"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"circuits\": [\n  ";
  for (std::size_t i = 0; i < rows_json.size(); ++i) {
    if (i) json += ",\n  ";
    json += rows_json[i];
  }
  json += "\n], \"compile_ms_largest\": " + fmt(compile_ms, 2);
  json += ", \"arena_bytes\": " +
          std::to_string(big_sta.compiled().arena_bytes());
  json += ", \"tables_unique\": " +
          std::to_string(big_sta.compiled().tables_unique());
  json += ", \"tables_total\": " +
          std::to_string(big_sta.compiled().tables_total());
  json += "}\n";
  write_text_file("BENCH_kernel.json", json);
  std::printf("wrote BENCH_kernel.json\n");

  // The exit status gates only on bit-identity (require_bit_identical
  // exits 1); the speedup depends on the host and is reported, not gated.
  std::printf("largest-circuit speedup %.2fx\n", largest_speedup);
  return 0;
}
