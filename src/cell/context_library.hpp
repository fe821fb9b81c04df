#pragma once
// Context-expanded timing library: the paper's "81 versions of each cell".
//
// A placed cell's printing environment is summarized by four neighbour
// poly spacings -- nps_LT, nps_RT, nps_LB, nps_RB (Fig. 4) -- each binned
// into a small number of bins (3 by default, giving 3^4 = 81 versions).
// For every version:
//
//   * interior devices keep the printed CD measured by library-based OPC
//     in the dummy environment (placement-independent within the ROI);
//   * boundary devices (left-most / right-most gate stripe) get their CD
//     from the post-OPC pitch->CD lookup table, evaluated at the bin's
//     representative spacing on the outside and the geometric spacing on
//     the inside.
//
// The paper uses the *lower* bin extreme as the representative "to be
// pessimistic in our timing estimates" (dense prints larger -> slower).
//
// Every (cell, version, arc) effective length is a pure function of the
// library, so the constructor computes all of them once into one flat
// immutable table; arc_effective_length() is a bounds-checked read of it,
// safe from any number of threads.

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "cell/characterize.hpp"
#include "cell/library.hpp"
#include "cell/library_opc.hpp"
#include "litho/cd_model.hpp"

namespace sva {

/// Binning scheme for neighbour poly spacings.
class ContextBins {
 public:
  /// Default: the paper's three bins with representatives at the lower
  /// extremes {300, 400, 600} nm and edges at 400/600 nm.
  ContextBins();

  /// Custom scheme: `upper_edges` are the exclusive upper bounds of all
  /// bins but the last (strictly increasing); `representatives` has one
  /// spacing per bin (= upper_edges.size() + 1 entries).
  ContextBins(std::vector<Nm> upper_edges, std::vector<Nm> representatives);

  std::size_t count() const { return representatives_.size(); }
  std::size_t bin_of(Nm spacing) const;
  Nm representative(std::size_t bin) const;

  const std::vector<Nm>& upper_edges() const { return upper_edges_; }
  const std::vector<Nm>& representatives() const { return representatives_; }

  /// Number of cell versions the scheme induces (count^4).
  std::size_t version_count() const;

 private:
  std::vector<Nm> upper_edges_;
  std::vector<Nm> representatives_;
};

/// One cell version: bin index per corner spacing.
struct VersionKey {
  std::uint8_t lt = 0;  ///< left-top (PMOS side) neighbour spacing bin
  std::uint8_t rt = 0;  ///< right-top
  std::uint8_t lb = 0;  ///< left-bottom (NMOS side)
  std::uint8_t rb = 0;  ///< right-bottom

  friend bool operator==(const VersionKey&, const VersionKey&) = default;
};

/// Flatten / unflatten version keys given a bin count.
std::size_t version_index(const VersionKey& key, std::size_t bins);
VersionKey version_key(std::size_t index, std::size_t bins);

/// Effective printing context of one device in one version: the clear
/// spacings to the nearest poly on each side (already resolved through
/// bins for boundary devices; geometric for interior ones).
struct DeviceContext {
  Nm s_left = 0.0;
  Nm s_right = 0.0;
};

class ContextLibrary {
 public:
  /// `characterized` and `boundary_model` must outlive the ContextLibrary.
  /// `library_opc_cds` is index-aligned with the characterized cells.
  ContextLibrary(const CharacterizedLibrary& characterized,
                 std::vector<LibraryOpcCellResult> library_opc_cds,
                 const CdModel& boundary_model, ContextBins bins);

  const ContextBins& bins() const { return bins_; }
  const CharacterizedLibrary& characterized() const { return *characterized_; }

  /// Spacings seen by a device in a given version (boundary sides resolved
  /// through the bin representatives).
  DeviceContext device_context(std::size_t cell, const VersionKey& version,
                               std::size_t device) const;

  /// Spacings seen by a device given *measured* outside spacings (the raw
  /// nps values before binning).  Used when labeling devices from the
  /// physical layout, as the paper does in Sec. 3.2, and by the
  /// exposure-dose analysis where small continuous spacing shifts matter.
  /// `outside_left`/`outside_right` are ignored for non-boundary sides.
  DeviceContext device_context_measured(std::size_t cell, std::size_t device,
                                        Nm outside_left,
                                        Nm outside_right) const;

  /// Printed gate length of a device in a given version (nm).
  Nm device_printed_cd(std::size_t cell, const VersionKey& version,
                       std::size_t device) const;

  /// Effective gate length of an arc = mean printed CD of its devices
  /// (paper: simple averaging; delay varies ~linearly with gate length).
  /// Read from the table built at construction.
  Nm arc_effective_length(std::size_t cell, const VersionKey& version,
                          std::size_t arc) const;

  /// Delay scale factor of an arc in a version: L_eff / L_drawn.
  double arc_delay_scale(std::size_t cell, const VersionKey& version,
                         std::size_t arc) const;

  /// Library-OPC printed CD of a device in the dummy environment (the
  /// version-independent part).
  Nm interior_cd(std::size_t cell, std::size_t device) const;

  /// FNV-1a digest of everything the per-(cell, version) characterization
  /// depends on: the binning config, every master's geometry and arc
  /// structure, the library-OPC printed CDs, and the boundary CD model
  /// (captured by sampling it over the spacing range of interest).  Two
  /// ContextLibrary instances with equal hashes produce bit-identical
  /// version expansions, so ECO checkpoints key on it.  Computed once (the
  /// inputs are immutable) and memoized; safe to call concurrently.
  std::uint64_t content_hash() const;

 private:
  struct DeviceGeometry {
    bool boundary_left = false;
    bool boundary_right = false;
    Nm internal_left = 0.0;   ///< spacing to next gate inside the cell
    Nm internal_right = 0.0;  ///< (radius of influence if none)
  };

  std::uint64_t compute_content_hash() const;
  /// Mean printed CD of an arc's devices: the value each table entry holds.
  Nm mean_arc_cd(std::size_t cell, const VersionKey& version,
                 std::size_t arc) const;

  const CharacterizedLibrary* characterized_;
  mutable std::once_flag hash_once_;
  mutable std::uint64_t hash_value_ = 0;
  std::vector<LibraryOpcCellResult> library_opc_;
  const CdModel* boundary_model_;
  ContextBins bins_;
  std::vector<std::vector<DeviceGeometry>> geometry_;  // [cell][device]
  /// Effective length of (cell, version, arc) at
  /// length_offset_[cell] + version_index * arcs(cell) + arc.
  std::vector<Nm> lengths_;
  std::vector<std::size_t> length_offset_;  // per cell
};

}  // namespace sva
