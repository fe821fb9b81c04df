#include "sta/compiled.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "engine/metrics.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace sva {

namespace {

/// Branch-free segment search with upper_bound semantics: the number of
/// axis entries <= x is exactly upper_bound(axis, x) - begin, so clamping
/// (count - 1) into [0, n-2] reproduces interp::segment_index bit for bit
/// on the strictly increasing axes NldmTable guarantees.
inline std::size_t seg_lookup(const double* axis, std::size_t n, double x) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += axis[i] <= x ? 1u : 0u;
  const std::size_t raw = count == 0 ? 0 : count - 1;
  const std::size_t hi = n - 2;
  return raw > hi ? hi : raw;
}

/// seg_lookup with a compile-time axis length: the comparison loop
/// unrolls to straight-line branch-free code.
template <std::size_t N>
inline std::size_t seg_lookup_fixed(const double* axis, double x) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < N; ++i) count += axis[i] <= x ? 1u : 0u;
  const std::size_t raw = count == 0 ? 0 : count - 1;
  const std::size_t hi = N - 2;
  return raw > hi ? hi : raw;
}

std::uint64_t hash_doubles(const std::vector<double>& v, std::uint64_t seed) {
  return fnv1a64(v.data(), v.size() * sizeof(double), seed);
}

bool doubles_equal(const double* a, const std::vector<double>& b) {
  return std::memcmp(a, b.data(), b.size() * sizeof(double)) == 0;
}

}  // namespace

std::uint32_t CompiledTiming::intern_axis(const std::vector<double>& axis) {
  const std::uint64_t h = hash_doubles(axis, 0xcbf29ce484222325ull);
  for (const auto& [hash, off, len] : unique_axes_) {
    if (hash != h || len != axis.size()) continue;
    if (doubles_equal(&arena_[off], axis)) return off;
  }
  const auto off = static_cast<std::uint32_t>(arena_.size());
  arena_.insert(arena_.end(), axis.begin(), axis.end());
  unique_axes_.emplace_back(h, off, static_cast<std::uint32_t>(axis.size()));
  return off;
}

CompiledTiming::TableRef CompiledTiming::intern_table(
    const NldmTable& nldm, std::uint32_t arc_index) {
  const LookupTable2D& delay = nldm.delay_table();
  const LookupTable2D& slew = nldm.slew_table();
  // NldmTable guarantees shared axes and a >= 2x2 grid, which is exactly
  // what the branch-free kernel assumes.
  SVA_ASSERT(delay.nx() >= 2 && delay.ny() >= 2);
  ++tables_total_;

  std::uint64_t h = hash_doubles(delay.x_axis(), 0xcbf29ce484222325ull);
  h = hash_doubles(delay.y_axis(), h);
  h = hash_doubles(delay.values(), h);
  h = hash_doubles(slew.values(), h);

  for (const auto& [hash, ref] : unique_tables_) {
    if (hash != h) continue;
    // Verify bytewise on hash hit so a collision can never alias two
    // different tables.
    if (ref.nx != delay.nx() || ref.ny != delay.ny()) continue;
    if (!doubles_equal(&arena_[ref.x_off], delay.x_axis()) ||
        !doubles_equal(&arena_[ref.y_off], delay.y_axis()) ||
        !doubles_equal(&arena_[ref.d_off], delay.values()) ||
        !doubles_equal(&arena_[ref.s_off], slew.values()))
      continue;
    TableRef hit = ref;
    hit.arc_index = arc_index;
    return hit;
  }

  const auto append = [this](const std::vector<double>& v) {
    const auto off = static_cast<std::uint32_t>(arena_.size());
    arena_.insert(arena_.end(), v.begin(), v.end());
    return off;
  };
  TableRef ref;
  // Axes intern separately from values: characterization uses one shared
  // slew/load grid, so distinct tables still converge on one axis copy.
  ref.x_off = intern_axis(delay.x_axis());
  ref.y_off = intern_axis(delay.y_axis());
  ref.d_off = append(delay.values());
  ref.s_off = append(slew.values());
  ref.nx = static_cast<std::uint32_t>(delay.nx());
  ref.ny = static_cast<std::uint32_t>(delay.ny());
  ref.arc_index = arc_index;
  unique_tables_.emplace_back(h, ref);
  ++tables_unique_;
  return ref;
}

CompiledTiming::CompiledTiming(
    const Netlist& netlist, const CharacterizedLibrary& library,
    const StaConfig& config,
    const std::vector<std::vector<std::size_t>>& levels) {
  MetricsRegistry& metrics = MetricsRegistry::global();
  const ScopedTimer timer(metrics.timer("sta.kernel.compile"));

  // Intern every library cell's arc tables (not just the masters in use):
  // ECO sizing swaps gates to drive-strength variants in place, and
  // refresh_gate must find the variant's tables already in the arena.
  cell_tables_.resize(library.cells.size());
  for (std::size_t ci = 0; ci < library.cells.size(); ++ci) {
    const CharacterizedCell& cell = library.cells[ci];
    for (const Pin& pin : cell.master.pins()) {
      if (pin.is_output) continue;
      const CharacterizedArc& arc = cell.arc_for(pin.name);
      cell_tables_[ci].push_back(
          intern_table(arc.nldm, static_cast<std::uint32_t>(arc.arc_index)));
    }
  }

  // Flatten gates level-major so each level is a contiguous span.
  gate_rec_of_.assign(netlist.gates().size(), 0);
  gates_.reserve(netlist.gates().size());
  for (const std::vector<std::size_t>& level : levels) {
    for (std::size_t gi : level) {
      const GateInst& gate = netlist.gates()[gi];
      const std::vector<TableRef>& tables = cell_tables_[gate.cell_index];
      SVA_ASSERT(tables.size() == gate.fanin_nets.size());
      GateRec rec;
      rec.first_arc = static_cast<std::uint32_t>(arcs_.size());
      rec.arc_count = static_cast<std::uint32_t>(gate.fanin_nets.size());
      rec.out_net = static_cast<std::uint32_t>(gate.output_net);
      rec.gate = static_cast<std::uint32_t>(gi);
      gate_rec_of_[gi] = static_cast<std::uint32_t>(gates_.size());
      gates_.push_back(rec);
      for (std::size_t pi = 0; pi < gate.fanin_nets.size(); ++pi) {
        const std::size_t in_net = gate.fanin_nets[pi];
        ArcRec arc;
        arc.in_net = static_cast<std::uint32_t>(in_net);
        arc.gate = static_cast<std::uint32_t>(gi);
        arc.table = tables[pi];
        // Same two operands the scalar path multiplies per evaluation,
        // so the precomputed product is the identical double.
        arc.wire_delay =
            config.wire_delay_per_sink_ps *
            static_cast<double>(netlist.nets()[in_net].sinks.size());
        arcs_.push_back(arc);
      }
    }
  }

  // Fan-out in record space for the dirty sweep.  Its correctness rests
  // on every sink record lying strictly above its driver's record.
  sink_begin_.reserve(gates_.size() + 1);
  sinks_.reserve(arcs_.size());  // one sink pin per arc
  for (std::size_t r = 0; r < gates_.size(); ++r) {
    sink_begin_.push_back(static_cast<std::uint32_t>(sinks_.size()));
    for (const NetSink& sink : netlist.nets()[gates_[r].out_net].sinks) {
      const std::uint32_t sr = gate_rec_of_[sink.gate];
      SVA_ASSERT(sr > r);
      sinks_.push_back(sr);
    }
  }
  sink_begin_.push_back(static_cast<std::uint32_t>(sinks_.size()));

  // One shared (x_off, y_off, nx, ny) across every arc enables the fast
  // evaluate path: the load-axis search hoists to bind_loads and one
  // slew-axis interpolation parameter serves both the delay and slew
  // tables.  True whenever characterization used one grid (always, for
  // this library); the generic per-arc path remains as fallback.
  uniform_axes_ = !arcs_.empty();
  if (uniform_axes_) {
    x_off_ = arcs_[0].table.x_off;
    y_off_ = arcs_[0].table.y_off;
    nx_ = arcs_[0].table.nx;
    ny_ = arcs_[0].table.ny;
    for (const std::vector<TableRef>& tables : cell_tables_)
      for (const TableRef& t : tables)
        uniform_axes_ = uniform_axes_ && t.x_off == x_off_ &&
                        t.y_off == y_off_ && t.nx == nx_ && t.ny == ny_;
  }
  load_seg_.assign(netlist.nets().size(), 0);
  load_t_.assign(netlist.nets().size(), 0.0);

  metrics.counter("sta.kernel.compiles").add();
  metrics.counter("sta.kernel.tables_total").add(tables_total_);
  metrics.counter("sta.kernel.tables_deduped")
      .add(tables_total_ - tables_unique_);
  metrics.counter("sta.kernel.arena_bytes").add(arena_bytes());
}

CompiledTiming::LoadPoint CompiledTiming::load_point(double load) const {
  LoadPoint p;
  p.load = load;
  if (!uniform_axes_) return p;
  const double* ys = arena_.data() + y_off_;
  const std::size_t j = seg_lookup(ys, ny_, load);
  p.seg = static_cast<std::uint32_t>(j);
  // The exact quotient interp::lerp computes for this axis segment.
  p.t = (load - ys[j]) / (ys[j + 1] - ys[j]);
  return p;
}

void CompiledTiming::update_net_load(std::size_t net, double load) {
  if (!uniform_axes_) return;
  SVA_REQUIRE(net < load_seg_.size());
  const LoadPoint p = load_point(load);
  load_seg_[net] = p.seg;
  load_t_[net] = p.t;
}

void CompiledTiming::bind_loads(const double* loads, std::size_t count) {
  SVA_REQUIRE(count == load_seg_.size());
  for (std::size_t ni = 0; ni < count; ++ni)
    update_net_load(ni, loads[ni]);
}

void CompiledTiming::gather_factors(const ArcScaleProvider& scale,
                                    std::vector<double>& out) const {
  out.resize(arcs_.size());
  for (std::size_t a = 0; a < arcs_.size(); ++a) {
    const double factor = scale.scale(arcs_[a].gate, arcs_[a].table.arc_index);
    SVA_ASSERT_MSG(factor > 0.0, "arc scale must be positive");
    out[a] = factor;
  }
}

namespace {

/// The one per-gate body of every kernel pass: the worst arrival/slew/
/// fanin over a gate's arcs, written to its output net.  `table_of(pi)`
/// yields pin pi's tables (the record's own, or a what-if master's row)
/// and `factor_of(pi, table)` its scale factor.  Bilinear interpolation
/// follows LookupTable2D::at's exact FP order: the load-axis lerps are
/// expanded around the parameter ty, and the slew-axis quotient tx is
/// computed once and reused by the slew lookup (at() recomputes the
/// identical doubles).  With NX > 0 every table shares the slew axis `xs`
/// of compile-time length NX (the segment search unrolls to branch-free
/// straight-line code) and the load grid width `ny`, and (seg, t) of the
/// pre-resolved load point serve every arc.  NX == 0 is the generic path:
/// both axes are searched per arc in the arc's own tables.
template <std::size_t NX, typename TableOf, typename FactorOf>
inline void eval_gate(const CompiledTiming::ArcRec* arcs, std::size_t count,
                      TableOf&& table_of, FactorOf&& factor_of,
                      double load, std::size_t seg, double t,
                      const double* arena, const double* xs, std::size_t ny,
                      std::size_t out_net, double* arrival, double* slew,
                      std::size_t* from) {
  double worst_arrival = -1.0;
  double worst_slew = 0.0;
  std::size_t worst_from = kNoDriver;
  for (std::size_t pi = 0; pi < count; ++pi) {
    const CompiledTiming::ArcRec& arc = arcs[pi];
    const CompiledTiming::TableRef& table = table_of(pi);
    const double factor = factor_of(pi, table);
    const double in_slew = slew[arc.in_net];
    std::size_t i = 0, j = seg, row = ny;
    double tx = 0.0, ty = t;
    if constexpr (NX > 0) {
      i = seg_lookup_fixed<NX>(xs, in_slew);
      tx = (in_slew - xs[i]) / (xs[i + 1] - xs[i]);
    } else {
      const double* ax = arena + table.x_off;
      const double* ay = arena + table.y_off;
      i = seg_lookup(ax, table.nx, in_slew);
      j = seg_lookup(ay, table.ny, load);
      row = table.ny;
      tx = (in_slew - ax[i]) / (ax[i + 1] - ax[i]);
      ty = (load - ay[j]) / (ay[j + 1] - ay[j]);
    }
    const double* d = arena + table.d_off + i * row + j;
    const double d_lo = d[0] + ty * (d[1] - d[0]);
    const double d_hi = d[row] + ty * (d[row + 1] - d[row]);
    const double delay = d_lo + tx * (d_hi - d_lo);
    const double arr = arrival[arc.in_net] + arc.wire_delay + factor * delay;
    if (arr > worst_arrival) {
      worst_arrival = arr;
      const double* s = arena + table.s_off + i * row + j;
      const double s_lo = s[0] + ty * (s[1] - s[0]);
      const double s_hi = s[row] + ty * (s[row + 1] - s[row]);
      worst_slew = factor * (s_lo + tx * (s_hi - s_lo));
      worst_from = arc.in_net;
    }
  }
  arrival[out_net] = worst_arrival;
  slew[out_net] = worst_slew;
  from[out_net] = worst_from;
}

/// Call fn with the slew-axis length as a compile-time constant.  The
/// instantiated lengths cover the characterization grids in use; anything
/// else (or non-uniform axes, nx == 0) takes the generic path with
/// identical results and un-hoisted searches.
template <typename Fn>
decltype(auto) with_axis_length(std::uint32_t nx, Fn&& fn) {
  switch (nx) {
    case 5: return fn(std::integral_constant<std::size_t, 5>{});
    case 7: return fn(std::integral_constant<std::size_t, 7>{});
    case 8: return fn(std::integral_constant<std::size_t, 8>{});
    default: return fn(std::integral_constant<std::size_t, 0>{});
  }
}

}  // namespace

template <std::size_t NX>
void CompiledTiming::evaluate_records(std::size_t first, std::size_t last,
                                      const double* factors,
                                      const double* loads,
                                      StaResult& result) const {
  const double* arena = arena_.data();
  const double* xs = arena + x_off_;
  const GateRec* gates = gates_.data();
  const ArcRec* all_arcs = arcs_.data();
  const std::uint32_t* load_seg = load_seg_.data();
  const double* load_t = load_t_.data();
  double* arrival = result.arrival_ps.data();
  double* slew = result.slew_ps.data();
  std::size_t* from = result.from_net.data();
  for (std::size_t g = first; g < last; ++g) {
    const GateRec& gate = gates[g];
    const std::size_t out = gate.out_net;
    const ArcRec* arcs = all_arcs + gate.first_arc;
    const double* f = factors + gate.first_arc;
    eval_gate<NX>(
        arcs, gate.arc_count,
        [arcs](std::size_t pi) -> const TableRef& { return arcs[pi].table; },
        [f](std::size_t pi, const TableRef&) { return f[pi]; },
        // Only the generic path reads the raw load.
        NX > 0 ? 0.0 : loads[out], load_seg[out], load_t[out], arena, xs,
        ny_, out, arrival, slew, from);
  }
}

void CompiledTiming::evaluate_span(std::size_t first, std::size_t last,
                                   const double* factors, const double* loads,
                                   StaResult& result) const {
  with_axis_length(uniform_axes_ ? nx_ : 0u, [&](auto nx) {
    evaluate_records<decltype(nx)::value>(first, last, factors, loads, result);
  });
}

const std::size_t* WhatIfOverlay::cell_of(std::size_t gate) const {
  const auto it = std::lower_bound(
      cells.begin(), cells.end(), gate,
      [](const Sta::GateCellOverride& o, std::size_t g) { return o.gate < g; });
  return it != cells.end() && it->gate == gate ? &it->cell_index : nullptr;
}

const double* WhatIfOverlay::load_of(std::size_t net) const {
  const auto it = std::lower_bound(
      loads.begin(), loads.end(), net,
      [](const std::pair<std::size_t, double>& e, std::size_t n) {
        return e.first < n;
      });
  return it != loads.end() && it->first == net ? &it->second : nullptr;
}

template <std::size_t NX>
std::size_t CompiledTiming::sweep_dirty(const ArcScaleProvider& scale,
                                        std::vector<char>& dirty,
                                        std::size_t lo, std::size_t hi,
                                        const WhatIfOverlay* overlay,
                                        const double* loads,
                                        StaResult& result) const {
  const double* arena = arena_.data();
  const double* xs = arena + x_off_;
  double* arrival = result.arrival_ps.data();
  double* slew = result.slew_ps.data();
  std::size_t* from = result.from_net.data();
  std::size_t touched = 0;
  for (std::size_t r = lo; r <= hi; ++r) {
    if (!dirty[r]) continue;
    ++touched;
    const GateRec& gate = gates_[r];
    const std::size_t out = gate.out_net;
    LoadPoint load{loads[out], load_seg_[out], load_t_[out]};
    const TableRef* row = nullptr;  // hypothetical master's tables
    if (overlay != nullptr) {
      if (const std::size_t* cell = overlay->cell_of(gate.gate))
        row = cell_tables_[*cell].data();
      if (const double* l = overlay->load_of(out)) load = load_point(*l);
    }
    const ArcRec* arcs = arcs_.data() + gate.first_arc;
    const double old_arrival = arrival[out];
    const double old_slew = slew[out];
    eval_gate<NX>(
        arcs, gate.arc_count,
        [arcs, row](std::size_t pi) -> const TableRef& {
          return row != nullptr ? row[pi] : arcs[pi].table;
        },
        [&scale, &gate](std::size_t, const TableRef& table) {
          const double factor = scale.scale(gate.gate, table.arc_index);
          SVA_ASSERT_MSG(factor > 0.0, "arc scale must be positive");
          return factor;
        },
        load.load, load.seg, load.t, arena, xs, ny_, out, arrival, slew,
        from);
    if (arrival[out] == old_arrival && slew[out] == old_slew)
      continue;  // cone converged: fan-out unaffected
    for (std::uint32_t s = sink_begin_[r]; s < sink_begin_[r + 1]; ++s) {
      dirty[sinks_[s]] = 1;
      hi = std::max<std::size_t>(hi, sinks_[s]);
    }
  }
  return touched;
}

std::size_t CompiledTiming::propagate_dirty(
    const ArcScaleProvider& scale, const std::vector<std::size_t>& seed_gates,
    const WhatIfOverlay* overlay, const double* loads,
    StaResult& result) const {
  if (seed_gates.empty()) return 0;
  std::vector<char> dirty(gates_.size(), 0);
  std::size_t lo = gates_.size(), hi = 0;
  for (std::size_t gi : seed_gates) {
    SVA_REQUIRE(gi < gate_rec_of_.size());
    const std::size_t r = gate_rec_of_[gi];
    dirty[r] = 1;
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  return with_axis_length(uniform_axes_ ? nx_ : 0u, [&](auto nx) {
    return sweep_dirty<decltype(nx)::value>(scale, dirty, lo, hi, overlay,
                                            loads, result);
  });
}

void CompiledTiming::refresh_gate(std::size_t gate, std::size_t cell_index) {
  SVA_REQUIRE(gate < gate_rec_of_.size());
  SVA_REQUIRE(cell_index < cell_tables_.size());
  const GateRec& rec = gates_[gate_rec_of_[gate]];
  const std::vector<TableRef>& tables = cell_tables_[cell_index];
  SVA_REQUIRE_MSG(tables.size() == rec.arc_count,
                  "replacement master must be pin-compatible");
  for (std::size_t pi = 0; pi < tables.size(); ++pi)
    arcs_[rec.first_arc + pi].table = tables[pi];
}

}  // namespace sva
