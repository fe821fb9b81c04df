#pragma once
// The synthetic 90 nm standard-cell library: the "10 most frequently used
// cells" of the paper's experiment (Sec. 4).
//
// Layout intent: internal gate spacings are deliberately varied across the
// masters (stacked gates at sub-contacted-pitch spacing, relaxed spacings
// around 400 nm, and single isolated gates) so that every device class of
// the paper's Fig. 5 -- isolated, dense, self-compensated -- occurs in
// synthesized designs.

#include <string>
#include <vector>

#include "cell/cell_master.hpp"

namespace sva {

/// A library is an ordered list of masters; ordering is stable and indices
/// are used as cell ids by the netlist module.
class CellLibrary {
 public:
  using Masters = std::vector<CellMaster>;

  explicit CellLibrary(Masters masters);

  const std::vector<CellMaster>& masters() const { return masters_; }
  const CellMaster& master(std::size_t index) const;
  const CellMaster& by_name(const std::string& name) const;
  std::size_t index_of(const std::string& name) const;
  std::size_t size() const { return masters_.size(); }

  /// Input-pin names of a master, in fanin order (built once; the library
  /// is immutable after construction).
  const std::vector<std::string>& input_pins(std::size_t index) const;

 private:
  std::vector<CellMaster> masters_;
  std::vector<std::vector<std::string>> input_pins_;  ///< per master
};

/// Build the 10-cell library.  Masters (in index order): INV_X1, INV_X2,
/// BUF_X1, NAND2_X1, NAND3_X1, NOR2_X1, NOR3_X1, AOI21_X1, OAI21_X1,
/// XOR2_X1.
CellLibrary build_standard_library(const CellTech& tech = CellTech{});

}  // namespace sva
