#include "netlist/netlist.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace sva {

Netlist::Netlist(const CellLibrary& library, std::string name)
    : library_(&library), name_(std::move(name)) {}

std::size_t Netlist::add_primary_input(const std::string& name) {
  SVA_REQUIRE_MSG(topo_cache_.empty(),
                  "netlist is frozen after topological_order()");
  Net net;
  net.name = name;
  nets_.push_back(std::move(net));
  return nets_.size() - 1;
}

const std::vector<std::string>& Netlist::input_pins_of(
    std::size_t cell_index) const {
  return library_->input_pins(cell_index);
}

std::size_t Netlist::add_gate(const std::string& name, std::size_t cell_index,
                              const std::vector<std::size_t>& fanins) {
  SVA_REQUIRE_MSG(topo_cache_.empty(),
                  "netlist is frozen after topological_order()");
  SVA_REQUIRE(cell_index < library_->size());
  const auto& input_pins = input_pins_of(cell_index);
  SVA_REQUIRE_MSG(fanins.size() == input_pins.size(),
                  "fanin count must equal the master's input pin count");
  for (std::size_t n : fanins) SVA_REQUIRE(n < nets_.size());

  const std::size_t gate_index = gates_.size();
  Net out;
  out.name = name + "_out";
  out.driver_gate = gate_index;
  nets_.push_back(std::move(out));
  const std::size_t out_net = nets_.size() - 1;

  GateInst gate;
  gate.name = name;
  gate.cell_index = cell_index;
  gate.fanin_nets = fanins;
  gate.output_net = out_net;
  gates_.push_back(std::move(gate));

  for (std::size_t pin = 0; pin < fanins.size(); ++pin)
    nets_[fanins[pin]].sinks.push_back({gate_index, pin});
  return out_net;
}

void Netlist::set_gate_cell(std::size_t gate, std::size_t cell_index) {
  SVA_REQUIRE(gate < gates_.size());
  SVA_REQUIRE(cell_index < library_->size());
  SVA_REQUIRE_MSG(
      input_pins_of(cell_index) == input_pins_of(gates_[gate].cell_index),
      "replacement master must have identical input pins");
  gates_[gate].cell_index = cell_index;
}

void Netlist::mark_primary_output(std::size_t net) {
  SVA_REQUIRE(net < nets_.size());
  nets_[net].is_primary_output = true;
}

std::size_t Netlist::primary_input_count() const {
  std::size_t n = 0;
  for (const Net& net : nets_)
    if (net.is_primary_input()) ++n;
  return n;
}

std::size_t Netlist::primary_output_count() const {
  std::size_t n = 0;
  for (const Net& net : nets_)
    if (net.is_primary_output) ++n;
  return n;
}

const std::vector<std::size_t>& Netlist::topological_order() const {
  if (!topo_cache_.empty() || gates_.empty()) return topo_cache_;
  // Kahn's algorithm over gate->gate dependencies.
  std::vector<std::size_t> pending(gates_.size(), 0);
  for (std::size_t gi = 0; gi < gates_.size(); ++gi)
    for (std::size_t net : gates_[gi].fanin_nets)
      if (!nets_[net].is_primary_input()) ++pending[gi];

  std::vector<std::size_t> ready;
  for (std::size_t gi = 0; gi < gates_.size(); ++gi)
    if (pending[gi] == 0) ready.push_back(gi);

  topo_cache_.reserve(gates_.size());
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const std::size_t gi = ready[head];
    topo_cache_.push_back(gi);
    for (const NetSink& sink : nets_[gates_[gi].output_net].sinks)
      if (--pending[sink.gate] == 0) ready.push_back(sink.gate);
  }
  SVA_ASSERT_MSG(topo_cache_.size() == gates_.size(),
                 "netlist contains a combinational cycle");
  return topo_cache_;
}

std::vector<std::size_t> Netlist::gate_levels() const {
  std::vector<std::size_t> level(gates_.size(), 0);
  for (std::size_t gi : topological_order()) {
    std::size_t lvl = 0;
    for (std::size_t net : gates_[gi].fanin_nets) {
      if (nets_[net].is_primary_input()) continue;
      lvl = std::max(lvl, level[nets_[net].driver_gate] + 1);
    }
    level[gi] = lvl;
  }
  return level;
}

void Netlist::validate() const {
  for (const GateInst& g : gates_) {
    SVA_REQUIRE(g.cell_index < library_->size());
    SVA_REQUIRE(g.output_net < nets_.size());
    SVA_REQUIRE(input_pins_of(g.cell_index).size() == g.fanin_nets.size());
    for (std::size_t n : g.fanin_nets) SVA_REQUIRE(n < nets_.size());
  }
  for (std::size_t ni = 0; ni < nets_.size(); ++ni) {
    const Net& net = nets_[ni];
    if (!net.is_primary_input()) {
      SVA_REQUIRE(net.driver_gate < gates_.size());
      SVA_REQUIRE(gates_[net.driver_gate].output_net == ni);
    }
    for (const NetSink& s : net.sinks) {
      SVA_REQUIRE(s.gate < gates_.size());
      SVA_REQUIRE(gates_[s.gate].fanin_nets.at(s.pin_index) == ni);
    }
  }
  topological_order();  // throws on cycles
}

}  // namespace sva
