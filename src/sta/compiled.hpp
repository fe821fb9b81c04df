#pragma once
// Data-oriented flat STA kernel: the levelized timing graph compiled once
// into structure-of-arrays arc records plus a packed, deduplicated NLDM
// table arena ("timing bytecode").  It is the one evaluation engine behind
// every non-reference analysis: full passes (Sta::run) and incremental
// and what-if re-timing (Sta::run_incremental / run_what_if).
//
// The scalar path (Sta::run_scalar) interprets the netlist on every pass:
// it chases GateInst -> CharacterizedCell -> NldmTable -> LookupTable2D
// pointers and calls through four non-inlined interpolation helpers per
// table lookup.  CompiledTiming flattens everything those lookups need --
// fanin net, precomputed wire delay, arena offsets of the (shared-axis)
// delay/slew tables -- into one contiguous ArcRec per (gate, fanin pin),
// grouped per gate and per topological level.  A full-graph pass is then
// a single tight loop over flat arrays with a branch-free segment search
// and inlined bilinear interpolation.
//
// Incremental passes reuse the same per-gate body through a dirty sweep
// over gate-record indices.  Records are laid out level-major and every
// sink of a gate sits at a strictly higher level, hence at a strictly
// higher record index: scanning upward from the lowest dirty record,
// evaluating dirty records and flagging the sinks of any gate whose
// arrival or slew changed is a valid dataflow order that visits only the
// dirty cone.  A what-if substitutes a hypothetical master's interned
// table row and a hypothetical output-net load for the touched gates.
//
// Bit-identity by construction: every delay/slew value is computed with
// exactly the FP operation sequence of LookupTable2D::at (segment index =
// upper_bound semantics; lerp over the load axis at both slew-axis grid
// lines, then lerp over the slew axis; each lerp is y0 + ((x-x0)/(x1-x0))
// * (y1-y0)), and the per-gate worst-arrival reduction visits arcs in the
// same fanin order.  tests/sta_test.cpp asserts the equivalence bitwise
// against the scalar oracle across circuits, scales, thread counts,
// incremental seed sets and what-if overrides.
//
// The arena deduplicates tables by FNV-1a content hash (equal axes and
// values verified bytewise on hash hit): symmetric arcs of one master and
// width-scaled drive variants share table content, so the arena stays a
// fraction of the naive per-arc copy.  Compile stats are published as
// sta.kernel.* metrics.

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "sta/sta.hpp"

namespace sva {

/// The hypothetical state of one Sta::run_what_if: gates evaluated
/// through another master's tables, and nets whose driver sees another
/// load.  Both lists are sorted by key before the first lookup.
struct WhatIfOverlay {
  std::vector<Sta::GateCellOverride> cells;  ///< sorted by gate
  /// (net, absolute load fF), sorted by net: the affected fanin nets'
  /// loads recomputed from scratch with the hypothetical masters' pin
  /// caps, in the exact summation order Sta uses for committed loads --
  /// so a what-if result is bit-identical to a fresh analysis of a
  /// really-mutated netlist.
  std::vector<std::pair<std::size_t, double>> loads;

  /// The overriding master of `gate`, or nullptr.
  const std::size_t* cell_of(std::size_t gate) const;
  /// The overridden load of `net`, or nullptr.
  const double* load_of(std::size_t net) const;
};

class CompiledTiming {
 public:
  /// Packed reference to one deduplicated NLDM table pair in the arena.
  /// x is the input-slew axis, y the load axis; delay and slew values are
  /// row-major (ix * ny + iy) exactly like LookupTable2D.
  struct TableRef {
    std::uint32_t x_off = 0, y_off = 0;  ///< axis offsets into the arena
    std::uint32_t d_off = 0, s_off = 0;  ///< delay/slew value offsets
    std::uint32_t nx = 0, ny = 0;
    std::uint32_t arc_index = 0;  ///< index into the master's arcs()
  };

  /// One flat timing-arc record: everything the inner loop needs, plus
  /// the (gate, table.arc_index) pair the per-run factor gather feeds to
  /// the ArcScaleProvider.  The gather walks arcs flat: a per-gate nested
  /// loop mispredicts its variable-length inner exit and measured 2x
  /// slower, hence the gate index here as well as in GateRec.
  struct ArcRec {
    std::uint32_t in_net = 0;
    std::uint32_t gate = 0;   ///< netlist gate index (factor gather)
    TableRef table;           ///< the gate's master tables for this pin
    double wire_delay = 0.0;  ///< precomputed per-sink wire delay (ps)
  };

  /// One gate: a contiguous arc span, the output net it writes, and the
  /// netlist gate it compiles (factor lookups and what-if overrides of
  /// the incremental sweep).
  struct GateRec {
    std::uint32_t first_arc = 0;
    std::uint32_t arc_count = 0;
    std::uint32_t out_net = 0;
    std::uint32_t gate = 0;  ///< netlist gate index
  };

  /// Compile the program.  `levels` is the level-bucketed topological
  /// order the Sta constructor builds; gate records are laid out in that
  /// order, so every sink record lies above its driver's record.
  CompiledTiming(const Netlist& netlist, const CharacterizedLibrary& library,
                 const StaConfig& config,
                 const std::vector<std::vector<std::size_t>>& levels);

  /// Bind the per-net loads the kernel will evaluate against: for each
  /// net, the load-axis segment and interpolation parameter are resolved
  /// once here instead of once per arc per run (loads only change on
  /// committed master swaps).  Must be called before evaluate_span and
  /// re-called (or update_net_load'ed) whenever a bound load changes.
  void bind_loads(const double* loads, std::size_t count);
  void update_net_load(std::size_t net, double load);

  /// Resolve the per-arc scale factors for one run (one virtual call per
  /// arc, the same count the scalar path pays).  Throws InvariantError on
  /// a non-positive factor, like the scalar path.
  void gather_factors(const ArcScaleProvider& scale,
                      std::vector<double>& out) const;

  /// Evaluate gate records [first, last): for each gate, the worst
  /// arrival/slew/fanin over its arcs, written to result's arrays.  All
  /// fanins of a gate live at strictly lower levels, so evaluating the
  /// records in index order is a valid dataflow order.
  void evaluate_span(std::size_t first, std::size_t last,
                     const double* factors, const double* loads,
                     StaResult& result) const;

  /// Incremental re-evaluation of `result` in place: mark the records of
  /// `seed_gates` dirty, then sweep record indices upward from the lowest
  /// dirty one, evaluating each dirty gate and marking the sinks of every
  /// gate whose output arrival or slew changed.  Factors come straight
  /// from `scale` for the touched arcs only.  `overlay`, when non-null,
  /// substitutes hypothetical masters and output-net loads.  Const and
  /// allocation-local: concurrent calls on one CompiledTiming are safe.
  /// Returns the number of gates evaluated.
  std::size_t propagate_dirty(const ArcScaleProvider& scale,
                              const std::vector<std::size_t>& seed_gates,
                              const WhatIfOverlay* overlay, const double* loads,
                              StaResult& result) const;

  /// Re-point one gate's arc records at another master's tables after an
  /// in-place pin-compatible swap (Netlist::set_gate_cell).
  void refresh_gate(std::size_t gate, std::size_t cell_index);

  const GateRec& gate_record(std::size_t r) const { return gates_[r]; }
  std::size_t gate_count() const { return gates_.size(); }
  std::size_t arc_count() const { return arcs_.size(); }

  /// Compile stats (also published as sta.kernel.* metrics).
  std::size_t tables_total() const { return tables_total_; }
  std::size_t tables_unique() const { return tables_unique_; }
  std::size_t arena_bytes() const { return arena_.size() * sizeof(double); }

 private:
  /// A net's load as the per-gate body consumes it: the raw load (per-
  /// arc axis search on the generic path) and, under uniform axes, its
  /// load-axis segment and interpolation parameter.
  struct LoadPoint {
    double load = 0.0;
    std::uint32_t seg = 0;
    double t = 0.0;
  };

  TableRef intern_table(const NldmTable& nldm, std::uint32_t arc_index);
  std::uint32_t intern_axis(const std::vector<double>& axis);
  /// Resolve an arbitrary load (update_net_load's exact formula).
  LoadPoint load_point(double load) const;
  template <std::size_t NX>
  void evaluate_records(std::size_t first, std::size_t last,
                        const double* factors, const double* loads,
                        StaResult& result) const;
  template <std::size_t NX>
  std::size_t sweep_dirty(const ArcScaleProvider& scale,
                          std::vector<char>& dirty, std::size_t lo,
                          std::size_t hi, const WhatIfOverlay* overlay,
                          const double* loads, StaResult& result) const;

  std::vector<double> arena_;    ///< packed axes + values, deduplicated
  std::vector<ArcRec> arcs_;     ///< grouped per gate, gates level-major
  std::vector<GateRec> gates_;   ///< level-major topological order
  std::vector<std::uint32_t> gate_rec_of_;  ///< netlist gate -> GateRec
  /// CSR fan-out per gate record: the records of its output net's sinks
  /// (all strictly greater than the record itself).
  std::vector<std::uint32_t> sink_begin_;
  std::vector<std::uint32_t> sinks_;
  /// Per library cell, the interned tables of its arcs in input-pin
  /// order; refresh_gate copies from here on master swaps, and the
  /// incremental sweep reads a what-if's hypothetical masters here.
  std::vector<std::vector<TableRef>> cell_tables_;
  /// content hash -> indices into unique_tables_ (collision chain).
  std::vector<std::pair<std::uint64_t, TableRef>> unique_tables_;
  /// (content hash, arena offset, length) of each interned axis.  Axes
  /// are deduplicated independently of values: every characterized table
  /// uses the same slew/load axes, so after interning the whole library
  /// shares ONE x-axis and ONE y-axis copy -- which is what lets the
  /// kernel hoist the load-axis segment search out of the arc loop.
  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>>
      unique_axes_;
  std::size_t tables_total_ = 0;
  std::size_t tables_unique_ = 0;
  /// True when every arc shares one (x_off, y_off, nx, ny): the fast
  /// per-gate body then uses the bound per-net load interpolants.
  bool uniform_axes_ = false;
  std::uint32_t x_off_ = 0, y_off_ = 0, nx_ = 0, ny_ = 0;
  /// Per net: load-axis segment index and interpolation parameter
  /// (load - y0) / (y1 - y0), resolved by bind_loads.  The parameter is
  /// the exact double interp::lerp would derive, so reusing it across
  /// every arc of the run preserves bit-identity.
  std::vector<std::uint32_t> load_seg_;
  std::vector<double> load_t_;
};

}  // namespace sva
