#pragma once
// Drive-strength ladder for ECO gate sizing.
//
// The base library's masters are expanded with width-scaled variants
// (cell/characterize.hpp: identical footprint and poly geometry, device
// widths multiplied by a ladder of factors).  Because printing depends
// only on poly geometry, every variant shares its base cell's library-OPC
// printed CDs, boundary-device behaviour, and context classification --
// swapping a placed gate between rungs of the ladder never perturbs the
// placement, any neighbour's nps, or any arc's corner factors.  Only the
// electrical characterization changes: a wider rung drives harder
// (R ~ 1/multiplier) but presents proportionally larger pin caps to its
// fanin nets.  That trade -- speed here, load upstream -- is exactly what
// the ECO loop's exact what-if evaluation arbitrates.
//
// Layout invariant: the base masters keep their indices [0, base_count),
// so netlists generated against the expanded library are structurally
// identical to ones generated against the base library (the ISCAS85
// generator draws cells from the fixed 10-entry mix at indices 0..9).
// Variants are appended after the base block.

#include <memory>
#include <vector>

#include "cell/characterize.hpp"
#include "cell/context_library.hpp"
#include "cell/library.hpp"
#include "cell/library_opc.hpp"
#include "litho/cd_model.hpp"

namespace sva {

class SizedLibrary {
 public:
  /// The default ladder: a sub-unit rung for downsizing plus three
  /// upsizing rungs with ~1.45x steps.  Must contain 1.0 (the base cell
  /// itself is a rung) and be strictly increasing.
  static std::vector<double> default_multipliers();

  /// Expand `base` with width variants and re-derive the timing views the
  /// ECO loop needs.  `base_opc` is index-aligned with `base` (each
  /// variant reuses its base cell's entry -- the poly geometry it was
  /// measured on is unchanged).  `boundary_model` must outlive this
  /// object; everything else is copied or owned.
  SizedLibrary(const CellLibrary& base, const ElectricalTech& electrical,
               const std::vector<LibraryOpcCellResult>& base_opc,
               const CdModel& boundary_model, const ContextBins& bins,
               std::vector<double> multipliers = default_multipliers());

  // Non-copyable: internal components hold cross-references.
  SizedLibrary(const SizedLibrary&) = delete;
  SizedLibrary& operator=(const SizedLibrary&) = delete;

  /// The expanded library (base masters first, variants appended).
  const CellLibrary& library() const { return *library_; }
  const CharacterizedLibrary& characterized() const { return characterized_; }
  const ContextLibrary& context_library() const { return *context_; }

  std::size_t base_count() const { return base_count_; }
  const std::vector<double>& multipliers() const { return multipliers_; }

  /// Ladder navigation.  `cell` is any expanded-library index.
  std::size_t base_of(std::size_t cell) const;
  std::size_t rung_of(std::size_t cell) const;  ///< index into multipliers()
  std::size_t at_rung(std::size_t base, std::size_t rung) const;
  bool can_upsize(std::size_t cell) const;
  bool can_downsize(std::size_t cell) const;
  std::size_t upsized(std::size_t cell) const;    ///< one rung up
  std::size_t downsized(std::size_t cell) const;  ///< one rung down

  /// Device-width multiplier of a cell relative to its base master (the
  /// ECO loop's area proxy: footprints are identical, so active area
  /// scales with total device width).
  double multiplier_of(std::size_t cell) const;

 private:
  std::vector<double> multipliers_;
  std::size_t base_count_ = 0;
  std::size_t unit_rung_ = 0;  ///< index of multiplier 1.0
  std::unique_ptr<CellLibrary> library_;
  CharacterizedLibrary characterized_;
  std::unique_ptr<ContextLibrary> context_;
  std::vector<std::size_t> base_of_;               // per expanded cell
  std::vector<std::size_t> rung_of_;               // per expanded cell
  std::vector<std::vector<std::size_t>> ladder_;   // [base][rung] -> cell
};

}  // namespace sva
