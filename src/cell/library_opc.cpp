#include "cell/library_opc.hpp"

#include "opc/cutline.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/serialize.hpp"

namespace sva {

Layout library_opc_environment(const CellMaster& master,
                               const LibraryOpcConfig& config) {
  SVA_REQUIRE(config.dummy_gap > 0.0);
  Layout env = master.layout();
  const CellTech& tech = master.tech();
  const Nm w = config.dummy_width > 0.0 ? config.dummy_width
                                        : tech.gate_length;
  // Left and right dummy poly, full gate height (Fig. 3: "dummy poly
  // geometries inserted to emulate the impact of neighboring cells").
  env.add(Layer::DummyPoly, Rect::make(-config.dummy_gap - w, tech.poly_y_lo,
                                       -config.dummy_gap, tech.poly_y_hi));
  env.add(Layer::DummyPoly,
          Rect::make(master.width() + config.dummy_gap, tech.poly_y_lo,
                     master.width() + config.dummy_gap + w, tech.poly_y_hi));
  return env;
}

LibraryOpcCellResult library_opc_cell(const CellMaster& master,
                                      const OpcEngine& engine,
                                      const LibraryOpcConfig& config) {
  // Keyed by cell name: a prob() fault degrades the same deterministic
  // subset of masters in every run and on every thread schedule.
  SVA_FAILPOINT_KEYED(
      "opc.cell_solve",
      fnv1a64(master.name().data(), master.name().size()));
  const Layout env = library_opc_environment(master, config);
  // Tag each poly shape with its gate index; the master's layout() emits
  // gates first, so shape i < gates().size() is gate i.
  std::vector<long> tags(env.size(), -1);
  for (std::size_t i = 0; i < master.gates().size(); ++i)
    tags[i] = static_cast<long>(i);

  const CellTech& tech = master.tech();
  const Nm y_n = 0.5 * (tech.nmos_y_lo + tech.nmos_y_hi);
  const Nm y_p = 0.5 * (tech.pmos_y_lo + tech.pmos_y_hi);

  LibraryOpcCellResult result;
  result.device_cd.assign(master.devices().size(), 0.0);
  result.device_mask_width.assign(master.devices().size(), 0.0);

  for (const auto& [y, type] :
       {std::pair{y_n, DeviceType::Nmos}, std::pair{y_p, DeviceType::Pmos}}) {
    const OpcProblem problem = extract_cutline(env, y, tags);
    const OpcResult corrected = engine.correct(problem);
    result.images_simulated += corrected.images_simulated;
    for (std::size_t di = 0; di < master.devices().size(); ++di) {
      const Device& d = master.devices()[di];
      if (d.type != type) continue;
      const auto& line = corrected.by_tag(static_cast<long>(d.gate_index));
      result.device_cd[di] = line.printed_cd;
      result.device_mask_width[di] = line.line.mask_width();
    }
  }
  return result;
}

LibraryOpcCellResult library_opc_fallback(const CellMaster& master) {
  LibraryOpcCellResult result;
  const Nm drawn = master.tech().gate_length;
  result.device_cd.assign(master.devices().size(), drawn);
  result.device_mask_width.assign(master.devices().size(), drawn);
  result.images_simulated = 0;
  result.degraded = true;
  return result;
}

LibraryOpcAttempt try_library_opc_cell(const CellMaster& master,
                                       const OpcEngine& engine,
                                       const LibraryOpcConfig& config) {
  LibraryOpcAttempt attempt;
  try {
    attempt.result = library_opc_cell(master, engine, config);
  } catch (...) {
    attempt.error = std::current_exception();
  }
  return attempt;
}

std::vector<LibraryOpcCellResult> resolve_library_opc(
    const std::vector<CellMaster>& masters,
    std::vector<LibraryOpcAttempt> attempts, FaultPolicy policy) {
  SVA_REQUIRE(attempts.size() <= masters.size());
  std::vector<LibraryOpcCellResult> out;
  out.reserve(attempts.size());
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    LibraryOpcAttempt& attempt = attempts[i];
    if (!attempt.error) {
      out.push_back(std::move(attempt.result));
      continue;
    }
    const CellMaster& m = masters[i];
    try {
      std::rethrow_exception(attempt.error);
    } catch (const std::exception& e) {
      if (policy == FaultPolicy::Strict) {
        diag_error("opc", "opc_cell_failed",
                   "cell " + m.name() + " OPC solve failed (" + e.what() +
                       ")");
        throw;
      }
      out.push_back(library_opc_fallback(m));
      MetricsRegistry::global().counter("opc.cells_degraded").add();
      diag_warn("opc", "opc_cell_degraded",
                "cell " + m.name() + " OPC solve failed (" + e.what() +
                    "); using uniform drawn-CD fallback");
    }
  }
  SVA_REQUIRE(out.size() == masters.size());
  return out;
}

std::vector<LibraryOpcCellResult> library_opc_all(
    const std::vector<CellMaster>& masters, const OpcEngine& engine,
    const LibraryOpcConfig& config, FaultPolicy policy) {
  std::vector<LibraryOpcAttempt> attempts;
  attempts.reserve(masters.size());
  for (const CellMaster& m : masters) {
    attempts.push_back(try_library_opc_cell(m, engine, config));
    if (policy == FaultPolicy::Strict && attempts.back().error) break;
  }
  return resolve_library_opc(masters, std::move(attempts), policy);
}

}  // namespace sva
