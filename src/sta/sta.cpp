#include "sta/sta.hpp"

#include <algorithm>
#include <utility>

#include "engine/metrics.hpp"
#include "sta/compiled.hpp"
#include "util/error.hpp"

namespace sva {

Sta::Sta(const Netlist& netlist, const CharacterizedLibrary& library,
         const StaConfig& config)
    : netlist_(&netlist), library_(&library), config_(config) {
  SVA_REQUIRE(library.cells.size() == netlist.library().size());
  SVA_REQUIRE(config.input_slew_ps > 0.0);
  SVA_REQUIRE(config.po_load_ff >= 0.0);
  SVA_REQUIRE(config.wire_cap_per_sink_ff >= 0.0);

  // Resolve every library cell's arcs and pin caps by input-pin position
  // once, so no evaluation path ever allocates pin-name vectors or
  // resolves arcs by string compare again.
  cell_arcs_.resize(library.cells.size());
  cell_pin_caps_.resize(library.cells.size());
  for (std::size_t ci = 0; ci < library.cells.size(); ++ci) {
    const CharacterizedCell& cell = library.cells[ci];
    for (const Pin& pin : cell.master.pins()) {
      if (pin.is_output) continue;
      cell_arcs_[ci].push_back(&cell.arc_for(pin.name));
      cell_pin_caps_[ci].push_back(pin.input_cap_ff);
    }
  }

  // Precompute net loads (sink pin caps + wire + PO load) and per-net
  // wire delays.
  load_cache_.assign(netlist.nets().size(), 0.0);
  wire_delay_cache_.assign(netlist.nets().size(), 0.0);
  for (std::size_t ni = 0; ni < netlist.nets().size(); ++ni) {
    load_cache_[ni] = compute_net_load(ni);
    wire_delay_cache_[ni] =
        config_.wire_delay_per_sink_ps *
        static_cast<double>(netlist.nets()[ni].sinks.size());
    if (netlist.nets()[ni].is_primary_output) po_nets_.push_back(ni);
  }

  // Bucket gates by logic level (each bucket in topological-order
  // sequence) for the level-major kernel layout.  Also freezes the
  // netlist's lazy topological-order cache up front, making concurrent
  // const use of the netlist race-free.
  const std::vector<std::size_t> gate_level = netlist.gate_levels();
  std::size_t max_level = 0;
  for (std::size_t gi : netlist.topological_order())
    max_level = std::max(max_level, gate_level[gi]);
  std::vector<std::vector<std::size_t>> levels(
      netlist.gates().empty() ? 0 : max_level + 1);
  for (std::size_t gi : netlist.topological_order())
    levels[gate_level[gi]].push_back(gi);

  compiled_ =
      std::make_unique<CompiledTiming>(netlist, library, config_, levels);
  compiled_->bind_loads(load_cache_.data(), load_cache_.size());

  MetricsRegistry& metrics = MetricsRegistry::global();
  incr_touched_ = &metrics.counter("sta.kernel.incremental_gates_touched");
  incr_total_ = &metrics.counter("sta.kernel.incremental_gates_total");
}

Sta::~Sta() = default;
Sta::Sta(Sta&&) noexcept = default;
Sta& Sta::operator=(Sta&&) noexcept = default;

double Sta::compute_net_load(std::size_t net_index) const {
  const Netlist& nl = *netlist_;
  const Net& net = nl.nets()[net_index];
  double load =
      config_.wire_cap_per_sink_ff * static_cast<double>(net.sinks.size());
  for (const NetSink& sink : net.sinks) {
    const GateInst& g = nl.gates()[sink.gate];
    const std::vector<double>& caps = cell_pin_caps_[g.cell_index];
    SVA_ASSERT(sink.pin_index < caps.size());
    load += caps[sink.pin_index];
  }
  if (net.is_primary_output) load += config_.po_load_ff;
  return load;
}

double Sta::net_load_ff(std::size_t net) const {
  SVA_REQUIRE(net < load_cache_.size());
  return load_cache_[net];
}

void Sta::update_gate_master(std::size_t gate) {
  SVA_REQUIRE(gate < netlist_->gates().size());
  for (std::size_t net : netlist_->gates()[gate].fanin_nets) {
    load_cache_[net] = compute_net_load(net);
    compiled_->update_net_load(net, load_cache_[net]);
  }
  compiled_->refresh_gate(gate, netlist_->gates()[gate].cell_index);
}

double Sta::compute_net_load_overlay(std::size_t net_index,
                                     const WhatIfOverlay& overlay) const {
  const Netlist& nl = *netlist_;
  const Net& net = nl.nets()[net_index];
  double load =
      config_.wire_cap_per_sink_ff * static_cast<double>(net.sinks.size());
  for (const NetSink& sink : net.sinks) {
    const std::size_t* cell = overlay.cell_of(sink.gate);
    const std::size_t cell_index =
        cell != nullptr ? *cell : nl.gates()[sink.gate].cell_index;
    load += cell_pin_caps_[cell_index][sink.pin_index];
  }
  if (net.is_primary_output) load += config_.po_load_ff;
  return load;
}

void Sta::evaluate_gate(const ArcScaleProvider& scale, std::size_t gi,
                        StaResult& result) const {
  const GateInst& gate = netlist_->gates()[gi];
  const std::vector<const CharacterizedArc*>& arcs =
      cell_arcs_[gate.cell_index];
  const double load = load_cache_[gate.output_net];

  double worst_arrival = -1.0;
  double worst_slew = 0.0;
  std::size_t worst_from = kNoDriver;
  for (std::size_t pi = 0; pi < gate.fanin_nets.size(); ++pi) {
    const std::size_t in_net = gate.fanin_nets[pi];
    const CharacterizedArc& arc = *arcs[pi];
    const double factor = scale.scale(gi, arc.arc_index);
    SVA_ASSERT_MSG(factor > 0.0, "arc scale must be positive");
    const double in_slew = result.slew_ps[in_net];
    const double wire_delay = wire_delay_cache_[in_net];
    const double arrival = result.arrival_ps[in_net] + wire_delay +
                           factor * arc.nldm.delay_ps(in_slew, load);
    if (arrival > worst_arrival) {
      worst_arrival = arrival;
      worst_slew = factor * arc.nldm.output_slew_ps(in_slew, load);
      worst_from = in_net;
    }
  }
  result.arrival_ps[gate.output_net] = worst_arrival;
  result.slew_ps[gate.output_net] = worst_slew;
  result.from_net[gate.output_net] = worst_from;
}

void Sta::finalize_result(StaResult& result) const {
  const Netlist& nl = *netlist_;
  result.critical_delay_ps = 0.0;
  result.critical_path.clear();
  SVA_REQUIRE_MSG(!po_nets_.empty(), "netlist has no primary outputs");
  for (std::size_t ni : po_nets_) {
    if (result.arrival_ps[ni] >= result.critical_delay_ps) {
      result.critical_delay_ps = result.arrival_ps[ni];
      result.critical_po_net = ni;
    }
  }

  std::size_t net = result.critical_po_net;
  while (net != kNoDriver && !nl.nets()[net].is_primary_input()) {
    const std::size_t gi = nl.nets()[net].driver_gate;
    result.critical_path.push_back(gi);
    net = result.from_net[net];
  }
  std::reverse(result.critical_path.begin(), result.critical_path.end());
}

StaResult Sta::make_result() const {
  const Netlist& nl = *netlist_;
  StaResult result;
  result.arrival_ps.assign(nl.nets().size(), 0.0);
  result.slew_ps.assign(nl.nets().size(), config_.input_slew_ps);
  result.from_net.assign(nl.nets().size(), kNoDriver);
  return result;
}

StaResult Sta::run(const ArcScaleProvider& scale) const {
  StaResult result = make_result();
  std::vector<double> factors;
  compiled_->gather_factors(scale, factors);
  // Serial full pass: levels are laid out back to back, so the whole
  // graph is one contiguous gate-record span.
  compiled_->evaluate_span(0, compiled_->gate_count(), factors.data(),
                           load_cache_.data(), result);
  finalize_result(result);
  return result;
}

StaResult Sta::run_scalar(const ArcScaleProvider& scale) const {
  const Netlist& nl = *netlist_;
  StaResult result = make_result();
  for (std::size_t gi : nl.topological_order())
    evaluate_gate(scale, gi, result);
  finalize_result(result);
  return result;
}

StaResult Sta::propagate_incremental(
    const ArcScaleProvider& scale, const StaResult& previous,
    const std::vector<std::size_t>& seed_gates,
    const WhatIfOverlay* overlay) const {
  const Netlist& nl = *netlist_;
  SVA_REQUIRE(previous.arrival_ps.size() == nl.nets().size());
  SVA_REQUIRE(previous.slew_ps.size() == nl.nets().size());
  SVA_REQUIRE(previous.from_net.size() == nl.nets().size());

  StaResult result = previous;
  const std::size_t touched = compiled_->propagate_dirty(
      scale, seed_gates, overlay, load_cache_.data(), result);
  incr_touched_->add(touched);
  incr_total_->add(nl.gates().size());
  finalize_result(result);
  return result;
}

StaResult Sta::run_incremental(
    const ArcScaleProvider& scale, const StaResult& previous,
    const std::vector<std::size_t>& changed_gates) const {
  return propagate_incremental(scale, previous, changed_gates, nullptr);
}

StaResult Sta::run_what_if(
    const ArcScaleProvider& scale, const StaResult& previous,
    const std::vector<GateCellOverride>& cell_overrides,
    const std::vector<std::size_t>& scale_changed_gates) const {
  const Netlist& nl = *netlist_;

  WhatIfOverlay overlay;
  overlay.cells = cell_overrides;
  // stable_sort keeps insertion order among equal keys, so cell_of
  // returns the first-inserted override for a gate.
  std::stable_sort(overlay.cells.begin(), overlay.cells.end(),
                   [](const GateCellOverride& a, const GateCellOverride& b) {
                     return a.gate < b.gate;
                   });

  std::vector<std::size_t> seeds = scale_changed_gates;
  std::vector<std::size_t> affected_nets;
  for (const GateCellOverride& o : cell_overrides) {
    SVA_REQUIRE(o.gate < nl.gates().size());
    SVA_REQUIRE(o.cell_index < library_->cells.size());
    const GateInst& gate = nl.gates()[o.gate];
    SVA_REQUIRE_MSG(cell_pin_caps_[o.cell_index].size() ==
                        cell_pin_caps_[gate.cell_index].size(),
                    "override master must be pin-compatible");
    seeds.push_back(o.gate);
    // The swap changes the pin caps this gate presents to its fanin
    // nets: those nets' drivers see a different load.
    affected_nets.insert(affected_nets.end(), gate.fanin_nets.begin(),
                         gate.fanin_nets.end());
  }
  std::sort(affected_nets.begin(), affected_nets.end());
  affected_nets.erase(
      std::unique(affected_nets.begin(), affected_nets.end()),
      affected_nets.end());
  for (std::size_t net : affected_nets) {
    // Recompute the load from scratch under the overlay rather than
    // patching the cache with a delta: the fresh summation is the exact
    // double a committed set_gate_cell would produce.
    const double load = compute_net_load_overlay(net, overlay);
    if (load == load_cache_[net]) continue;  // e.g. same-cap variant
    overlay.loads.emplace_back(net, load);
    if (!nl.nets()[net].is_primary_input())
      seeds.push_back(nl.nets()[net].driver_gate);
  }
  return propagate_incremental(scale, previous, seeds, &overlay);
}

SlackResult Sta::run_with_slack(const ArcScaleProvider& scale,
                                double clock_period_ps) const {
  return slack_from(scale, run(scale), clock_period_ps);
}

SlackResult Sta::slack_from(const ArcScaleProvider& scale, StaResult timing,
                            double clock_period_ps) const {
  SVA_REQUIRE(clock_period_ps > 0.0);
  const Netlist& nl = *netlist_;
  SVA_REQUIRE(timing.arrival_ps.size() == nl.nets().size());
  SlackResult out;
  out.timing = std::move(timing);

  constexpr double kInf = 1e18;
  out.required_ps.assign(nl.nets().size(), kInf);
  for (std::size_t ni = 0; ni < nl.nets().size(); ++ni)
    if (nl.nets()[ni].is_primary_output)
      out.required_ps[ni] = clock_period_ps;

  // Backward pass in reverse topological order, re-deriving each arc's
  // delay from the forward pass's slews.
  const auto& topo = nl.topological_order();
  for (std::size_t idx = topo.size(); idx-- > 0;) {
    const std::size_t gi = topo[idx];
    const GateInst& gate = nl.gates()[gi];
    const double out_required = out.required_ps[gate.output_net];
    if (out_required >= kInf) continue;  // drives nothing timed
    const std::vector<const CharacterizedArc*>& arcs =
        cell_arcs_[gate.cell_index];
    const double load = load_cache_[gate.output_net];
    for (std::size_t pi = 0; pi < gate.fanin_nets.size(); ++pi) {
      const std::size_t in_net = gate.fanin_nets[pi];
      const CharacterizedArc& arc = *arcs[pi];
      const double factor = scale.scale(gi, arc.arc_index);
      const double wire_delay = wire_delay_cache_[in_net];
      const double delay =
          wire_delay +
          factor * arc.nldm.delay_ps(out.timing.slew_ps[in_net], load);
      out.required_ps[in_net] =
          std::min(out.required_ps[in_net], out_required - delay);
    }
  }

  out.slack_ps.assign(nl.nets().size(), kInf);
  out.worst_slack_ps = kInf;
  for (std::size_t ni = 0; ni < nl.nets().size(); ++ni) {
    if (out.required_ps[ni] >= kInf) continue;  // untimed net
    out.slack_ps[ni] = out.required_ps[ni] - out.timing.arrival_ps[ni];
    if (out.slack_ps[ni] < out.worst_slack_ps) {
      out.worst_slack_ps = out.slack_ps[ni];
      out.worst_slack_net = ni;
    }
  }
  SVA_ASSERT_MSG(out.worst_slack_ps < kInf, "no timed nets found");
  return out;
}

}  // namespace sva
