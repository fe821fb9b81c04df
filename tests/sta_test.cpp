// Tests for the sta module: load computation, arrival/slew propagation,
// critical paths, and scale-provider semantics, including hand-computed
// delays on a tiny netlist.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>

#include "engine/thread_pool.hpp"
#include "sta/compiled.hpp"
#include "util/metrics.hpp"
#include "netlist/iscas85.hpp"
#include "sta/scale.hpp"
#include "sta/sta.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sva {
namespace {

const CellLibrary& lib() {
  static const CellLibrary library = build_standard_library();
  return library;
}

const CharacterizedLibrary& charlib() {
  static const CharacterizedLibrary cl = characterize_library(lib());
  return cl;
}

/// pi -> INV -> INV -> PO chain.
Netlist inv_chain(std::size_t length) {
  Netlist nl(lib(), "chain");
  std::size_t net = nl.add_primary_input("pi");
  for (std::size_t i = 0; i < length; ++i)
    net = nl.add_gate("u" + std::to_string(i), lib().index_of("INV_X1"),
                      {net});
  nl.mark_primary_output(net);
  return nl;
}

TEST(Sta, NetLoadMatchesHandComputation) {
  const Netlist nl = inv_chain(2);
  StaConfig config;
  const Sta sta(nl, charlib(), config);
  // Net 1 (output of u0) drives u1's pin A plus wire cap for one sink.
  const double pin_cap = charlib().cells[lib().index_of("INV_X1")]
                             .master.pin("A")
                             .input_cap_ff;
  EXPECT_NEAR(sta.net_load_ff(1), pin_cap + config.wire_cap_per_sink_ff,
              1e-12);
  // Final net: PO load only (no sinks).
  EXPECT_NEAR(sta.net_load_ff(2), config.po_load_ff, 1e-12);
}

TEST(Sta, ChainDelayMatchesHandComputation) {
  const Netlist nl = inv_chain(1);
  StaConfig config;
  config.wire_delay_per_sink_ps = 0.0;
  const Sta sta(nl, charlib(), config);
  const StaResult r = sta.run(UnitScale{});

  const auto& arc = charlib().cells[lib().index_of("INV_X1")].arc_for("A");
  const double expected =
      arc.nldm.delay_ps(config.input_slew_ps, config.po_load_ff);
  EXPECT_NEAR(r.critical_delay_ps, expected, 1e-9);
}

TEST(Sta, TwoStageChainPropagatesSlew) {
  const Netlist nl = inv_chain(2);
  StaConfig config;
  config.wire_delay_per_sink_ps = 0.0;
  const Sta sta(nl, charlib(), config);
  const StaResult r = sta.run(UnitScale{});

  const auto& arc = charlib().cells[lib().index_of("INV_X1")].arc_for("A");
  const double load1 = sta.net_load_ff(1);
  const double d1 = arc.nldm.delay_ps(config.input_slew_ps, load1);
  const double s1 = arc.nldm.output_slew_ps(config.input_slew_ps, load1);
  const double d2 = arc.nldm.delay_ps(s1, config.po_load_ff);
  EXPECT_NEAR(r.critical_delay_ps, d1 + d2, 1e-9);
  EXPECT_NEAR(r.slew_ps[1], s1, 1e-9);
}

TEST(Sta, WireDelayAdds) {
  const Netlist nl = inv_chain(2);
  StaConfig with;
  with.wire_delay_per_sink_ps = 10.0;
  StaConfig without;
  without.wire_delay_per_sink_ps = 0.0;
  const double d_with =
      Sta(nl, charlib(), with).run(UnitScale{}).critical_delay_ps;
  const double d_without =
      Sta(nl, charlib(), without).run(UnitScale{}).critical_delay_ps;
  // Two nets feed gates (pi and the middle net), one sink each.
  EXPECT_NEAR(d_with - d_without, 20.0, 1e-9);
}

TEST(Sta, UniformScaleSlowsEverything) {
  const Netlist nl = generate_iscas85_like("C432", lib());
  const Sta sta(nl, charlib());
  const double nominal = sta.run(UnitScale{}).critical_delay_ps;
  const double slow = sta.run(UniformScale{1.1}).critical_delay_ps;
  const double fast = sta.run(UniformScale{0.9}).critical_delay_ps;
  EXPECT_GT(slow, nominal);
  EXPECT_LT(fast, nominal);
}

TEST(Sta, CriticalPathIsConnected) {
  const Netlist nl = generate_iscas85_like("C880", lib());
  const Sta sta(nl, charlib());
  const StaResult r = sta.run(UnitScale{});
  ASSERT_FALSE(r.critical_path.empty());
  // Consecutive gates on the path must be connected.
  for (std::size_t i = 1; i < r.critical_path.size(); ++i) {
    const std::size_t prev_out = nl.gates()[r.critical_path[i - 1]].output_net;
    bool connected = false;
    for (std::size_t net : nl.gates()[r.critical_path[i]].fanin_nets)
      connected |= net == prev_out;
    EXPECT_TRUE(connected) << "path break at position " << i;
  }
  // The path ends at the critical PO's driver.
  EXPECT_EQ(nl.gates()[r.critical_path.back()].output_net,
            r.critical_po_net);
}

TEST(Sta, ArrivalsMonotoneAlongPath) {
  const Netlist nl = generate_iscas85_like("C432", lib());
  const Sta sta(nl, charlib());
  const StaResult r = sta.run(UnitScale{});
  double prev = -1.0;
  for (std::size_t gi : r.critical_path) {
    const double a = r.arrival_ps[nl.gates()[gi].output_net];
    EXPECT_GT(a, prev);
    prev = a;
  }
}

TEST(Sta, PoWorstArrivalIsCriticalDelay) {
  const Netlist nl = generate_iscas85_like("C432", lib());
  const Sta sta(nl, charlib());
  const StaResult r = sta.run(UnitScale{});
  for (std::size_t ni = 0; ni < nl.nets().size(); ++ni)
    if (nl.nets()[ni].is_primary_output) {
      EXPECT_LE(r.arrival_ps[ni], r.critical_delay_ps + 1e-9);
    }
}

TEST(Sta, RequiresPrimaryOutput) {
  Netlist nl(lib(), "nopo");
  const std::size_t pi = nl.add_primary_input("pi");
  nl.add_gate("u0", lib().index_of("INV_X1"), {pi});
  const Sta sta(nl, charlib());
  EXPECT_THROW(sta.run(UnitScale{}), PreconditionError);
}

TEST(StaIncremental, MatchesFullRunAfterLocalChange) {
  const Netlist nl = generate_iscas85_like("C880", lib());
  const Sta sta(nl, charlib());
  const UnitScale base;
  const StaResult before = sta.run(base);

  // Perturb a handful of gates' scales.
  std::vector<std::vector<double>> factors(nl.gates().size());
  for (std::size_t gi = 0; gi < nl.gates().size(); ++gi)
    factors[gi].assign(
        lib().master(nl.gates()[gi].cell_index).arcs().size(), 1.0);
  const std::vector<std::size_t> changed = {3, 57, 200};
  for (std::size_t gi : changed)
    for (double& f : factors[gi]) f = 1.2;
  const MatrixScale perturbed(std::move(factors));

  const StaResult full = sta.run(perturbed);
  const StaResult incr = sta.run_incremental(perturbed, before, changed);
  ASSERT_EQ(full.arrival_ps.size(), incr.arrival_ps.size());
  for (std::size_t ni = 0; ni < full.arrival_ps.size(); ++ni) {
    EXPECT_DOUBLE_EQ(full.arrival_ps[ni], incr.arrival_ps[ni]) << ni;
    EXPECT_DOUBLE_EQ(full.slew_ps[ni], incr.slew_ps[ni]) << ni;
  }
  EXPECT_DOUBLE_EQ(full.critical_delay_ps, incr.critical_delay_ps);
  EXPECT_EQ(full.critical_path, incr.critical_path);
}

TEST(StaIncremental, NoChangeIsIdentity) {
  const Netlist nl = generate_iscas85_like("C432", lib());
  const Sta sta(nl, charlib());
  const UnitScale base;
  const StaResult before = sta.run(base);
  const StaResult incr = sta.run_incremental(base, before, {});
  EXPECT_DOUBLE_EQ(incr.critical_delay_ps, before.critical_delay_ps);
}

TEST(StaIncremental, ChangedEverythingStillExact) {
  const Netlist nl = generate_iscas85_like("C432", lib());
  const Sta sta(nl, charlib());
  const StaResult before = sta.run(UnitScale{});
  std::vector<std::size_t> all(nl.gates().size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const UniformScale slow(1.15);
  const StaResult full = sta.run(slow);
  const StaResult incr = sta.run_incremental(slow, before, all);
  EXPECT_DOUBLE_EQ(full.critical_delay_ps, incr.critical_delay_ps);
}

TEST(StaIncremental, RejectsMismatchedPrevious) {
  const Netlist a = generate_iscas85_like("C432", lib());
  const Netlist b = generate_iscas85_like("C880", lib());
  const Sta sta_a(a, charlib());
  const Sta sta_b(b, charlib());
  const StaResult r_a = sta_a.run(UnitScale{});
  EXPECT_THROW(sta_b.run_incremental(UnitScale{}, r_a, {0}),
               PreconditionError);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Full StaResult equality through std::bit_cast, so even a last-ulp
/// divergence fails.
void expect_bit_identical(const StaResult& a, const StaResult& b,
                          const std::string& what) {
  ASSERT_EQ(a.arrival_ps.size(), b.arrival_ps.size()) << what;
  for (std::size_t ni = 0; ni < a.arrival_ps.size(); ++ni) {
    ASSERT_EQ(bits(a.arrival_ps[ni]), bits(b.arrival_ps[ni]))
        << what << " arrival net " << ni;
    ASSERT_EQ(bits(a.slew_ps[ni]), bits(b.slew_ps[ni]))
        << what << " slew net " << ni;
    ASSERT_EQ(a.from_net[ni], b.from_net[ni]) << what << " from net " << ni;
  }
  ASSERT_EQ(bits(a.critical_delay_ps), bits(b.critical_delay_ps)) << what;
  ASSERT_EQ(a.critical_po_net, b.critical_po_net) << what;
  ASSERT_EQ(a.critical_path, b.critical_path) << what;
}

/// Randomized equivalence: drive a long sequence of random arc-scale
/// edits through run_incremental, checking identity against a fresh full
/// pass after EVERY edit.  Each incremental result becomes the next
/// edit's `previous`, so errors would compound -- exactly the way the ECO
/// loop uses the API.  Since the incremental sweep and the full pass share the compiled kernel, every
/// edit is also checked bitwise against the independent scalar
/// interpreter.  Every eighth edit additionally re-scales the gate of the
/// lowest-index kernel record, so the sweep starts at the bottom of the
/// graph and covers all of it.
void random_edit_sequence_stays_exact(const std::string& bench,
                                      std::size_t edits) {
  const Netlist nl = generate_iscas85_like(bench, lib());
  const Sta sta(nl, charlib());
  Rng rng(bench);
  const std::size_t first_record_gate = sta.compiled().gate_record(0).gate;

  std::vector<std::vector<double>> factors(nl.gates().size());
  for (std::size_t gi = 0; gi < nl.gates().size(); ++gi)
    factors[gi].assign(
        lib().master(nl.gates()[gi].cell_index).arcs().size(), 1.0);

  StaResult current = sta.run(MatrixScale(factors));
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t n_changes =
        static_cast<std::size_t>(rng.uniform_int(1, 5));
    std::vector<std::size_t> changed;
    for (std::size_t c = 0; c < n_changes; ++c) {
      const auto g = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(nl.gates().size()) - 1));
      if (std::find(changed.begin(), changed.end(), g) != changed.end())
        continue;
      changed.push_back(g);
      for (double& f : factors[g]) f = rng.uniform(0.85, 1.25);
    }
    if (e % 8 == 0 && std::find(changed.begin(), changed.end(),
                                first_record_gate) == changed.end()) {
      changed.push_back(first_record_gate);
      for (double& f : factors[first_record_gate]) f = rng.uniform(0.85, 1.25);
    }
    const MatrixScale scale(factors);
    const StaResult incr = sta.run_incremental(scale, current, changed);
    expect_bit_identical(incr, sta.run_scalar(scale),
                         "scalar edit " + std::to_string(e));
    const StaResult full = sta.run(scale);
    ASSERT_EQ(full.arrival_ps.size(), incr.arrival_ps.size());
    for (std::size_t ni = 0; ni < full.arrival_ps.size(); ++ni) {
      ASSERT_DOUBLE_EQ(full.arrival_ps[ni], incr.arrival_ps[ni])
          << "edit " << e << " net " << ni;
      ASSERT_DOUBLE_EQ(full.slew_ps[ni], incr.slew_ps[ni])
          << "edit " << e << " net " << ni;
    }
    ASSERT_DOUBLE_EQ(full.critical_delay_ps, incr.critical_delay_ps)
        << "edit " << e;
    ASSERT_EQ(full.critical_path, incr.critical_path) << "edit " << e;
    current = incr;
  }
}

TEST(StaIncremental, RandomEditSequenceStaysExactC432) {
  random_edit_sequence_stays_exact("C432", 60);
}

TEST(StaIncremental, RandomEditSequenceStaysExactC880) {
  random_edit_sequence_stays_exact("C880", 40);
}

// Property: scaling delay by f scales the pure-gate-delay portion; with
// zero wire delay the critical delay is within the scale bracket
// [f_min, f_max] of nominal.
class ScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(ScaleSweep, DelayScalesWithinBracket) {
  const double f = GetParam();
  const Netlist nl = generate_iscas85_like("C432", lib());
  StaConfig config;
  config.wire_delay_per_sink_ps = 0.0;
  const Sta sta(nl, charlib(), config);
  const double nominal = sta.run(UnitScale{}).critical_delay_ps;
  const double scaled = sta.run(UniformScale{f}).critical_delay_ps;
  // The scaled path delay cannot move outside the uniform bracket (slew
  // effects keep it close to linear but path switching keeps it bounded).
  if (f > 1.0) {
    EXPECT_GE(scaled, nominal);
    EXPECT_LE(scaled, nominal * f * 1.1);
  } else {
    EXPECT_LE(scaled, nominal);
    EXPECT_GE(scaled, nominal * f * 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, ScaleSweep,
                         ::testing::Values(0.85, 0.95, 1.05, 1.2));

// ---------------------------------------------------------------------------
// Compiled-kernel differential fuzzing: run() executes the flat compiled
// program (sta/compiled.hpp) and must be BIT-identical -- not just close --
// to the scalar interpreter run_scalar() under every scale provider, thread
// count, override set, and incremental seed set.  All comparisons below go
// through expect_bit_identical.

/// Random per-(gate, arc) factors in [0.8, 1.3), seeded by `tag`.
MatrixScale random_scale(const Netlist& nl, const std::string& tag) {
  Rng rng(tag);
  std::vector<std::vector<double>> factors(nl.gates().size());
  for (std::size_t gi = 0; gi < nl.gates().size(); ++gi) {
    factors[gi].resize(lib().master(nl.gates()[gi].cell_index).arcs().size());
    for (double& f : factors[gi]) f = rng.uniform(0.8, 1.3);
  }
  return MatrixScale(std::move(factors));
}

TEST(StaKernel, CompiledMatchesScalarBitwiseAllCircuits) {
  for (const BenchmarkSpec& spec : iscas85_specs()) {
    const Netlist nl = generate_iscas85_like(spec.name, lib());
    const Sta sta(nl, charlib());
    const MatrixScale scale = random_scale(nl, "kernel-" + spec.name);
    expect_bit_identical(sta.run(scale), sta.run_scalar(scale), spec.name);
    expect_bit_identical(sta.run(UnitScale{}), sta.run_scalar(UnitScale{}),
                         spec.name + " unit");
  }
}

TEST(StaKernel, CompiledMatchesScalarUnderRandomScaleFuzz) {
  const Netlist nl = generate_iscas85_like("C880", lib());
  const Sta sta(nl, charlib());
  for (int round = 0; round < 25; ++round) {
    const MatrixScale scale =
        random_scale(nl, "fuzz-" + std::to_string(round));
    expect_bit_identical(sta.run(scale), sta.run_scalar(scale),
                         "round " + std::to_string(round));
  }
}

TEST(StaKernel, ParallelIsBitIdenticalAcrossThreadCounts) {
  // Jobs run their STA passes concurrently on the pool's lanes; one
  // shared Sta must give every lane the serial answer bit for bit.
  const Netlist nl = generate_iscas85_like("C2670", lib());
  const Sta sta(nl, charlib());
  const MatrixScale scale = random_scale(nl, "threads");
  const StaResult reference = sta.run(scale);
  for (std::size_t threads : {0u, 1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<StaResult> got(8);
    pool.parallel_for(0, got.size(),
                      [&](std::size_t i) { got[i] = sta.run(scale); }, 1);
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_bit_identical(reference, got[i],
                           "threads=" + std::to_string(threads) + " lane " +
                               std::to_string(i));
  }
}

TEST(StaKernel, SlackFromCompiledRunMatchesScalarRun) {
  const Netlist nl = generate_iscas85_like("C1355", lib());
  const Sta sta(nl, charlib());
  const MatrixScale scale = random_scale(nl, "slack");
  const double clock = sta.run(scale).critical_delay_ps * 1.05;
  const SlackResult a = sta.run_with_slack(scale, clock);
  const SlackResult b = sta.slack_from(scale, sta.run_scalar(scale), clock);
  ASSERT_EQ(a.slack_ps.size(), b.slack_ps.size());
  for (std::size_t ni = 0; ni < a.slack_ps.size(); ++ni)
    ASSERT_EQ(bits(a.slack_ps[ni]), bits(b.slack_ps[ni])) << ni;
  ASSERT_EQ(bits(a.worst_slack_ps), bits(b.worst_slack_ps));
  ASSERT_EQ(a.worst_slack_net, b.worst_slack_net);
}

TEST(StaKernel, ArenaDeduplicatesSharedTables) {
  const Netlist nl = generate_iscas85_like("C432", lib());
  const Sta sta(nl, charlib());
  // Symmetric arcs (e.g. XOR2's repeated A/B devices) produce content-
  // identical tables; the arena must fold them.
  EXPECT_GT(sta.compiled().tables_total(), sta.compiled().tables_unique());
  EXPECT_GT(sta.compiled().arena_bytes(), 0u);
  EXPECT_EQ(sta.compiled().gate_count(), nl.gates().size());
}

/// Cells grouped by identical input-pin name sequences -- the
/// set_gate_cell / GateCellOverride pin-compatibility domain.
std::vector<std::size_t> compatible_cells(std::size_t cell_index) {
  const auto input_pins = [](std::size_t ci) {
    std::vector<std::string> names;
    for (const Pin& p : lib().master(ci).pins())
      if (!p.is_output) names.push_back(p.name);
    return names;
  };
  const std::vector<std::string> want = input_pins(cell_index);
  std::vector<std::size_t> out;
  for (std::size_t ci = 0; ci < lib().size(); ++ci)
    if (input_pins(ci) == want) out.push_back(ci);
  return out;
}

/// Long random what-if fuzz: masters swapped hypothetically through
/// run_what_if must match a full compiled run on a REALLY mutated netlist
/// (fresh Sta) bit for bit, round after round, with each what-if result
/// feeding the next round's `previous` after committing the swaps.
TEST(StaKernel, WhatIfOverridesMatchMutatedNetlistBitwise) {
  Netlist nl = generate_iscas85_like("C880", lib());
  Rng rng("whatif");
  Sta sta(nl, charlib());
  const UnitScale scale;
  StaResult current = sta.run(scale);

  for (int round = 0; round < 12; ++round) {
    // Pick up to 4 distinct gates and a pin-compatible replacement each.
    std::vector<Sta::GateCellOverride> overrides;
    for (int k = 0; k < 4; ++k) {
      const auto gi = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(nl.gates().size()) - 1));
      const auto already = [&](const Sta::GateCellOverride& o) {
        return o.gate == gi;
      };
      if (std::find_if(overrides.begin(), overrides.end(), already) !=
          overrides.end())
        continue;
      const std::vector<std::size_t> group =
          compatible_cells(nl.gates()[gi].cell_index);
      const std::size_t pick = group[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(group.size()) - 1))];
      overrides.push_back({gi, pick});
    }

    const StaResult what_if = sta.run_what_if(scale, current, overrides, {});

    // Oracle: actually mutate a copy of the netlist and analyze fresh.
    Netlist mutated = nl;
    for (const Sta::GateCellOverride& o : overrides)
      mutated.set_gate_cell(o.gate, o.cell_index);
    const Sta oracle(mutated, charlib());
    expect_bit_identical(what_if, oracle.run(scale),
                         "round " + std::to_string(round));
    expect_bit_identical(what_if, oracle.run_scalar(scale),
                         "scalar round " + std::to_string(round));

    // Commit the swaps for the next round (exercises update_gate_master's
    // compiled-program refresh).
    for (const Sta::GateCellOverride& o : overrides) {
      nl.set_gate_cell(o.gate, o.cell_index);
      sta.update_gate_master(o.gate);
    }
    current = sta.run(scale);
    expect_bit_identical(current, oracle.run(scale),
                         "commit round " + std::to_string(round));
  }
}

TEST(StaKernel, WhatIfCombinedOverridesAndScaleSeedsStayExact) {
  const Netlist nl = generate_iscas85_like("C1908", lib());
  const Sta sta(nl, charlib());
  Rng rng("combined");

  std::vector<std::vector<double>> factors(nl.gates().size());
  for (std::size_t gi = 0; gi < nl.gates().size(); ++gi)
    factors[gi].assign(
        lib().master(nl.gates()[gi].cell_index).arcs().size(), 1.0);
  StaResult current = sta.run(MatrixScale(factors));

  for (int round = 0; round < 10; ++round) {
    // Scale edits...
    std::vector<std::size_t> changed;
    for (int k = 0; k < 3; ++k) {
      const auto gi = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(nl.gates().size()) - 1));
      changed.push_back(gi);
      for (double& f : factors[gi]) f = rng.uniform(0.85, 1.25);
    }
    // ...plus hypothetical master swaps in the same what-if call.
    std::vector<Sta::GateCellOverride> overrides;
    const auto gi = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(nl.gates().size()) - 1));
    const std::vector<std::size_t> group =
        compatible_cells(nl.gates()[gi].cell_index);
    overrides.push_back({gi, group[static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(group.size()) -
                                        1))]});

    const MatrixScale scale(factors);
    const StaResult what_if =
        sta.run_what_if(scale, current, overrides, changed);

    Netlist mutated = nl;
    for (const Sta::GateCellOverride& o : overrides)
      mutated.set_gate_cell(o.gate, o.cell_index);
    const Sta oracle(mutated, charlib());
    expect_bit_identical(what_if, oracle.run(scale),
                         "round " + std::to_string(round));
    expect_bit_identical(what_if, oracle.run_scalar(scale),
                         "scalar round " + std::to_string(round));

    // Next round continues from the no-override state of the edited scale.
    current = sta.run_incremental(scale, current, changed);
  }
}

/// ECO pricing runs many what-ifs concurrently against one Sta: four
/// threads evaluating the same candidate set must each reproduce the
/// serial results bit for bit (and stay race-free under TSan).
TEST(StaKernel, ConcurrentWhatIfsMatchSerialBitwise) {
  const Netlist nl = generate_iscas85_like("C1355", lib());
  const Sta sta(nl, charlib());
  const MatrixScale scale = random_scale(nl, "concurrent");
  const StaResult base = sta.run(scale);
  Rng rng("concurrent-whatif");

  std::vector<std::vector<Sta::GateCellOverride>> candidates;
  for (int c = 0; c < 24; ++c) {
    const auto gi = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(nl.gates().size()) - 1));
    const std::vector<std::size_t> group =
        compatible_cells(nl.gates()[gi].cell_index);
    candidates.push_back({{gi, group[static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(group.size()) -
                                          1))]}});
  }
  std::vector<StaResult> serial;
  for (const auto& overrides : candidates)
    serial.push_back(sta.run_what_if(scale, base, overrides, {}));

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<StaResult>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (const auto& overrides : candidates)
        got[t].push_back(sta.run_what_if(scale, base, overrides, {}));
    });
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), serial.size());
    for (std::size_t c = 0; c < serial.size(); ++c)
      expect_bit_identical(got[t][c], serial[c],
                           "thread " + std::to_string(t) + " candidate " +
                               std::to_string(c));
  }
}

TEST(StaKernel, IncrementalCountsTouchedGates) {
  const Netlist nl = generate_iscas85_like("C2670", lib());
  const Sta sta(nl, charlib());
  const StaResult before = sta.run(UnitScale{});

  Counter& touched = MetricsRegistry::global().counter(
      "sta.kernel.incremental_gates_touched");
  Counter& total =
      MetricsRegistry::global().counter("sta.kernel.incremental_gates_total");
  const std::uint64_t touched0 = touched.value();
  const std::uint64_t total0 = total.value();

  // A single late-level seed must re-evaluate a small cone, not the graph.
  std::vector<std::vector<double>> factors(nl.gates().size());
  for (std::size_t gi = 0; gi < nl.gates().size(); ++gi)
    factors[gi].assign(
        lib().master(nl.gates()[gi].cell_index).arcs().size(), 1.0);
  const std::size_t seed = nl.gates().size() - 1;
  for (double& f : factors[seed]) f = 1.3;
  sta.run_incremental(MatrixScale(std::move(factors)), before, {seed});

  const std::uint64_t cone = touched.value() - touched0;
  EXPECT_EQ(total.value() - total0, nl.gates().size());
  EXPECT_GE(cone, 1u);
  EXPECT_LT(cone, nl.gates().size() / 4);
}

}  // namespace
}  // namespace sva
