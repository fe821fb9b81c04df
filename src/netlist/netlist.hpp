#pragma once
// Gate-level netlist mapped onto the standard-cell library.
//
// Combinational only: the ISCAS85 benchmarks the paper evaluates are
// combinational circuits timed from primary inputs to primary outputs.
// Nets have a single driver (a gate output or a primary input) and any
// number of sinks (gate input pins or primary outputs).

#include <string>
#include <vector>

#include "cell/library.hpp"

namespace sva {

inline constexpr std::size_t kNoDriver = static_cast<std::size_t>(-1);

struct NetSink {
  std::size_t gate = 0;       ///< sink gate index
  std::size_t pin_index = 0;  ///< index into the master's *input* pin list
};

struct Net {
  std::string name;
  std::size_t driver_gate = kNoDriver;  ///< kNoDriver => primary input
  std::vector<NetSink> sinks;
  bool is_primary_output = false;

  bool is_primary_input() const { return driver_gate == kNoDriver; }
};

struct GateInst {
  std::string name;
  std::size_t cell_index = 0;            ///< master index in the library
  std::vector<std::size_t> fanin_nets;   ///< one per master input pin
  std::size_t output_net = 0;
};

/// A combinational mapped netlist.  The library reference must outlive the
/// netlist.
class Netlist {
 public:
  explicit Netlist(const CellLibrary& library, std::string name = "top");

  const std::string& name() const { return name_; }
  const CellLibrary& library() const { return *library_; }

  /// Create a primary-input net; returns its net index.
  std::size_t add_primary_input(const std::string& name);

  /// Create a gate of the given master driven by `fanins` (one net per
  /// master input pin, in pin order); returns the gate's output net index.
  std::size_t add_gate(const std::string& name, std::size_t cell_index,
                       const std::vector<std::size_t>& fanins);

  /// Mark a net as a primary output.
  void mark_primary_output(std::size_t net);

  /// Swap a gate's master for a pin-compatible one (same input pin names
  /// in the same order, e.g. a drive-strength variant).  Connectivity and
  /// topology are untouched, so the cached topological order stays valid;
  /// callers holding derived per-cell state (an Sta's net-load cache) must
  /// re-sync it.  Used by ECO gate sizing.
  void set_gate_cell(std::size_t gate, std::size_t cell_index);

  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<GateInst>& gates() const { return gates_; }

  std::size_t primary_input_count() const;
  std::size_t primary_output_count() const;

  /// Input-pin names of a gate's master, in fanin order.
  const std::vector<std::string>& input_pins_of(std::size_t cell_index) const;

  /// Gates in topological order (fanins before the gate).  Cached after
  /// first call; the netlist must not be modified afterwards.
  const std::vector<std::size_t>& topological_order() const;

  /// Logic level of each gate (PIs at level 0; gate level = 1 + max fanin
  /// gate level).
  std::vector<std::size_t> gate_levels() const;

  /// Validate: every fanin net exists, fanin counts match master input
  /// pins, the graph is acyclic, every PO net exists.  Throws on error.
  void validate() const;

 private:
  const CellLibrary* library_;
  std::string name_;
  std::vector<Net> nets_;
  std::vector<GateInst> gates_;
  mutable std::vector<std::size_t> topo_cache_;
};

}  // namespace sva
