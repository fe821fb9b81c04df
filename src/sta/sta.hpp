#pragma once
// Static timing analysis over a mapped combinational netlist.
//
// Standard late-mode block-based STA: arrival times and slews propagate in
// topological order through NLDM lookups; the design delay is the worst
// arrival over primary outputs.  Corners are realized by running the same
// propagation with different ArcScaleProviders (traditional uniform
// corners, or the paper's context/classification-aware corners).
//
// Two interchangeable engines produce bit-identical results:
//
//   * the compiled flat kernel (see sta/compiled.hpp) runs every analysis
//     but the reference one: run() full passes and the run_incremental()/
//     run_what_if() dirty sweeps.  The levelized graph
//     is flattened once into structure-of-arrays arc records over a
//     deduplicated NLDM table arena, evaluated by one tight per-gate body.
//   * run_scalar() interprets the netlist directly; it is the readable
//     reference implementation and the oracle the kernel is differentially
//     fuzzed against (tests/sta_test.cpp).
//
// Incremental re-analysis (run_incremental / run_what_if) sweeps the
// kernel's level-major gate records upward from the lowest dirty one,
// evaluating only dirty gates: O(cone) gate evaluations per edit instead
// of a full pass.

#include <memory>
#include <vector>

#include "cell/characterize.hpp"
#include "netlist/netlist.hpp"
#include "sta/scale.hpp"

namespace sva {

class CompiledTiming;
struct WhatIfOverlay;

struct StaConfig {
  double input_slew_ps = 20.0;      ///< slew at primary inputs
  double po_load_ff = 4.0;          ///< load on primary outputs
  double wire_cap_per_sink_ff = 0.4;  ///< lumped net wire cap per sink
  /// Interconnect delay added per net, per sink (ps).  Wire delay does not
  /// depend on poly CD, so it is *not* scaled by any corner -- exactly why
  /// the CD-corner spread is a fraction of total path delay in real
  /// designs (the paper's corner libraries likewise vary only the process
  /// parameters, holding everything else fixed).
  double wire_delay_per_sink_ps = 6.0;
};

struct StaResult {
  std::vector<double> arrival_ps;  ///< per net
  std::vector<double> slew_ps;     ///< per net
  double critical_delay_ps = 0.0;  ///< worst arrival over POs
  std::size_t critical_po_net = 0;
  /// Critical path as gate indices from inputs to the critical PO.
  std::vector<std::size_t> critical_path;
  /// Arrival-setting fanin net per net (kNoDriver for PIs); the
  /// backtracking state run_incremental() needs to stay exact.
  std::vector<std::size_t> from_net;
};

/// Arrival + required-time + slack view of one analysis.
struct SlackResult {
  StaResult timing;
  std::vector<double> required_ps;  ///< per net (clock at POs)
  std::vector<double> slack_ps;     ///< required - arrival, per net
  double worst_slack_ps = 0.0;
  std::size_t worst_slack_net = 0;

  bool meets_timing() const { return worst_slack_ps >= 0.0; }
};

class Sta {
 public:
  /// The netlist and characterized library must outlive the Sta object;
  /// the characterized library must be index-aligned with the netlist's
  /// cell library.  Construction compiles the flat timing program
  /// (sta.kernel.* metrics record compile time and arena stats).
  Sta(const Netlist& netlist, const CharacterizedLibrary& library,
      const StaConfig& config = {});
  ~Sta();
  Sta(Sta&&) noexcept;
  Sta& operator=(Sta&&) noexcept;

  /// Late-mode analysis with the given per-arc delay scaling, executed on
  /// the compiled flat kernel.  Bit-identical to run_scalar(scale).
  StaResult run(const ArcScaleProvider& scale) const;

  /// Reference scalar interpreter: walks the netlist gate by gate through
  /// the characterized-cell tables.  Same results as run() bit for bit;
  /// kept as the readable specification and differential-test oracle.
  StaResult run_scalar(const ArcScaleProvider& scale) const;

  /// Late-mode analysis plus required times and slacks against a clock
  /// period (backward min-propagation of required times through the same
  /// arc delays the forward pass used).
  SlackResult run_with_slack(const ArcScaleProvider& scale,
                             double clock_period_ps) const;

  /// Incremental re-analysis: starting from `previous` (computed with a
  /// scale that differed only at `changed_gates`), re-propagate arrivals
  /// and slews from the changed gates forward on the compiled kernel: a
  /// sweep over level-major gate records from the lowest dirty one that
  /// evaluates only dirty gates, pruning fan-out cones as soon as a gate's
  /// outputs stop changing.  Exact: the result equals run(scale) bit for
  /// bit.  Worst case degenerates to a full pass; typical what-if edits
  /// touch a small cone, and only that cone is evaluated.
  StaResult run_incremental(const ArcScaleProvider& scale,
                            const StaResult& previous,
                            const std::vector<std::size_t>& changed_gates)
      const;

  /// A hypothetical master swap for candidate evaluation: analyze as if
  /// `gate` were an instance of `cell_index` (a pin-compatible
  /// drive-strength variant) without mutating the netlist.
  struct GateCellOverride {
    std::size_t gate = 0;
    std::size_t cell_index = 0;
  };

  /// Candidate-scoped what-if analysis: incremental re-propagation from
  /// `previous` as if the overridden gates had swapped masters (their own
  /// arcs change AND the pin caps they present to their fanin nets change,
  /// so the fanin drivers are re-evaluated too) and as if `scale` had
  /// additionally changed at `scale_changed_gates`.  Runs the same dirty
  /// sweep as run_incremental, with the overridden gates evaluated through
  /// their hypothetical masters' compiled tables and the affected drivers
  /// against the hypothetical loads.  Exact: equals a full run() -- and
  /// run_scalar() -- on a really mutated netlist, bit for bit.  Const and
  /// allocation-local, so any number of candidates can be evaluated
  /// concurrently against one Sta.
  StaResult run_what_if(const ArcScaleProvider& scale,
                        const StaResult& previous,
                        const std::vector<GateCellOverride>& cell_overrides,
                        const std::vector<std::size_t>& scale_changed_gates)
      const;

  /// Required times + slacks for an already-computed forward result (the
  /// backward min-propagation of run_with_slack without re-running the
  /// forward pass).  `timing` must come from this Sta with this `scale`.
  SlackResult slack_from(const ArcScaleProvider& scale, StaResult timing,
                         double clock_period_ps) const;

  /// Re-sync the cached net loads and the compiled arc records after the
  /// netlist swapped `gate`'s master in place (Netlist::set_gate_cell):
  /// the gate's fanin nets see different pin caps and the gate evaluates
  /// through different tables.  Call after every committed sizing move.
  void update_gate_master(std::size_t gate);

  /// Capacitive load seen by a net's driver (fF).
  double net_load_ff(std::size_t net) const;

  const StaConfig& config() const { return config_; }

  /// The compiled flat program (compile stats for benches/reports).
  const CompiledTiming& compiled() const { return *compiled_; }

 private:
  /// Recompute one gate's output arrival/slew/from in `result` through
  /// the characterized-cell tables (run_scalar's interpreter step).
  void evaluate_gate(const ArcScaleProvider& scale, std::size_t gate,
                     StaResult& result) const;
  /// compute_net_load with the what-if's hypothetical masters swapped in
  /// (identical FP summation order, so hypothetical == committed bitwise).
  double compute_net_load_overlay(std::size_t net,
                                  const WhatIfOverlay& overlay) const;
  /// Shared driver of run_incremental / run_what_if: copy `previous`,
  /// run the compiled dirty sweep from `seed_gates`, count and finalize.
  StaResult propagate_incremental(
      const ArcScaleProvider& scale, const StaResult& previous,
      const std::vector<std::size_t>& seed_gates,
      const WhatIfOverlay* overlay) const;
  /// Fill critical delay / PO / path from arrivals and from_net.
  void finalize_result(StaResult& result) const;
  StaResult make_result() const;
  double compute_net_load(std::size_t net) const;

  const Netlist* netlist_;
  const CharacterizedLibrary* library_;
  StaConfig config_;
  std::vector<double> load_cache_;  ///< per net, precomputed
  /// Per net: wire_delay_per_sink_ps * sink count, precomputed with the
  /// same FP product the scalar path used to re-derive per evaluation.
  std::vector<double> wire_delay_cache_;
  /// Per library cell, its characterized arcs in input-pin order.  Kills
  /// the per-evaluation input_pins_of() string-vector allocation and the
  /// string-compare arc_for() resolution on every lookup path.
  std::vector<std::vector<const CharacterizedArc*>> cell_arcs_;
  /// Per library cell, its input-pin caps in pin order (fF).
  std::vector<std::vector<double>> cell_pin_caps_;
  std::vector<std::size_t> po_nets_;  ///< ascending, for finalize
  std::unique_ptr<CompiledTiming> compiled_;
  /// Cached metric handles (creation locks the registry; the what-if path
  /// is too hot to take that lock per candidate).
  class Counter* incr_touched_ = nullptr;
  class Counter* incr_total_ = nullptr;
};

}  // namespace sva
