#pragma once
// Library-based OPC (paper Sec. 3.1.1, Fig. 3).
//
// Instead of correcting every cell instance in its true placement context
// (full-chip OPC), each library master is corrected once inside an
// emulated "typical placement environment": dummy poly geometries placed
// beside the cell stand in for the neighbouring cells.  Devices away from
// the cell boundary see an environment nearly identical to any real
// placement (the radius of influence is ~600 nm), so their measured
// printed CD transfers; boundary devices are handled separately with the
// pitch->CD lookup table.

#include <exception>
#include <vector>

#include "cell/cell_master.hpp"
#include "opc/engine.hpp"
#include "util/diagnostics.hpp"

namespace sva {

struct LibraryOpcConfig {
  /// Clear gap between the cell outline and the dummy poly on each side.
  /// Emulates the typical abutted-neighbour boundary poly distance.
  Nm dummy_gap = 200.0;
  /// Width of the dummy poly lines (drawn gate length by default 0 means
  /// "use the master's gate length").
  Nm dummy_width = 0.0;
};

struct LibraryOpcCellResult {
  /// Printed CD per device (index-aligned with master.devices()); 0 on
  /// print failure.
  std::vector<Nm> device_cd;
  /// Corrected mask width per device.
  std::vector<Nm> device_mask_width;
  std::size_t images_simulated = 0;
  /// True when the per-cell solve failed and this result is the uniform
  /// drawn-CD fallback (see library_opc_fallback): the cell times exactly
  /// like the traditional uniform corner, the same conservative stance
  /// variation-aware flows take when variation data is missing.  Degraded
  /// results are never persisted to the setup snapshot.
  bool degraded = false;
};

/// Build the dummy environment layout for a master: the master's layout
/// plus one full-height dummy line on each side.  Exposed for tests and
/// for the Fig. 3 illustration in the examples.
Layout library_opc_environment(const CellMaster& master,
                               const LibraryOpcConfig& config);

/// Run library OPC on one master.
LibraryOpcCellResult library_opc_cell(const CellMaster& master,
                                      const OpcEngine& engine,
                                      const LibraryOpcConfig& config = {});

/// Degraded stand-in for a failed per-cell solve: every device prints at
/// its drawn CD, so downstream characterization sees the uniform
/// traditional corner for this cell (delay scale 1 at nominal; corner
/// shifts come from the full uniform budget).
LibraryOpcCellResult library_opc_fallback(const CellMaster& master);

/// One master's solve before the fault policy is applied: the result, or
/// the exception the solve threw.
struct LibraryOpcAttempt {
  LibraryOpcCellResult result;
  std::exception_ptr error;
};

/// library_opc_cell with any failure captured instead of thrown, so
/// solves can run on any thread and be judged afterwards.
LibraryOpcAttempt try_library_opc_cell(const CellMaster& master,
                                       const OpcEngine& engine,
                                       const LibraryOpcConfig& config = {});

/// The fault rule of library-based OPC, applied to `attempts`
/// (index-aligned with `masters`) in master order, so the outcome does not
/// depend on the order the solves ran in.  Under FaultPolicy::Degrade each
/// failed cell yields library_opc_fallback(master), a warning diagnostic
/// (code "opc_cell_degraded") and the "opc.cells_degraded" metric.  Under
/// Strict the lowest-index failure is reported as an error diagnostic
/// (code "opc_cell_failed", naming the cell) and rethrown; `attempts` may
/// then end at that failure.
std::vector<LibraryOpcCellResult> resolve_library_opc(
    const std::vector<CellMaster>& masters,
    std::vector<LibraryOpcAttempt> attempts, FaultPolicy policy);

/// Run library OPC on every master of a library, serially; results
/// index-aligned with the library.  Failures follow resolve_library_opc:
/// under Degrade the remaining masters still solve, under Strict the first
/// failure stops the loop and propagates.
std::vector<LibraryOpcCellResult> library_opc_all(
    const std::vector<CellMaster>& masters, const OpcEngine& engine,
    const LibraryOpcConfig& config = {},
    FaultPolicy policy = FaultPolicy::Strict);

}  // namespace sva
