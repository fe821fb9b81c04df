#include "core/flow.hpp"

#include <chrono>
#include <cstdio>

#include <algorithm>

#include "engine/metrics.hpp"
#include "engine/thread_pool.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/filelock.hpp"
#include "util/logging.hpp"
#include "util/retry.hpp"
#include "util/serialize.hpp"

namespace sva {
namespace {

double seconds_since(
    const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

SvaFlow::SvaFlow(const FlowConfig& config)
    : config_(config),
      library_(build_standard_library(config.cell_tech)),
      characterized_(characterize_library(library_, config.electrical)),
      wafer_(config.wafer_optics, config.cell_tech.gate_length,
             config.cell_tech.gate_length + config.anchor_spacing),
      model_(config.opc_model_optics, config.cell_tech.gate_length,
             config.cell_tech.gate_length + config.anchor_spacing),
      engine_(model_, wafer_, config.opc) {
  config_.budget.validate();

  const auto t0 = std::chrono::steady_clock::now();
  if (!config_.cache_dir.empty() && try_load_setup(config_.cache_dir)) {
    setup_from_cache_ = true;
    MetricsRegistry::global().counter("flow.setup_disk_hits").add();
    log_info("flow: characterization setup restored from ",
             setup_cache_file_path(config_.cache_dir));
  } else {
    if (!config_.cache_dir.empty())
      MetricsRegistry::global().counter("flow.setup_disk_misses").add();
    log_info("flow: library OPC of ", library_.size(), " masters and ",
             config_.table_spacings.size(), " pitch gratings on ",
             ThreadPool::default_thread_count(), " lanes");
    run_setup_solves();
    setup_degraded_ = std::any_of(
        library_opc_.begin(), library_opc_.end(),
        [](const LibraryOpcCellResult& r) { return r.degraded; });
    if (setup_degraded_)
      MetricsRegistry::global().counter("flow.setup_degraded").add();
    // Never persist a degraded setup: the fallback CDs are a conservative
    // stand-in, not characterization data a later healthy run should
    // warm-start from.
    if (!config_.cache_dir.empty() && !setup_degraded_) {
      try {
        save_setup(config_.cache_dir);
      } catch (const std::exception& e) {
        log_warn("flow: setup snapshot failed (", e.what(), ")");
      }
    }
  }
  setup_opc_seconds_ = seconds_since(t0);

  boundary_model_ = std::make_unique<TableCdModel>(
      config_.cell_tech.gate_length, post_opc_spacing_table(pitch_points_),
      config_.cell_tech.radius_of_influence);
  context_ = std::make_unique<ContextLibrary>(
      characterized_, library_opc_, *boundary_model_, config_.bins);
}

void SvaFlow::run_setup_solves() {
  // Every master's library OPC and every grating's pitch solve is an
  // independent pure function of the engine, so the 20-odd solves run as
  // one flat fan-out into index-aligned slots: the results are
  // bit-identical to the serial library_opc_all and
  // characterize_post_opc_pitch at any thread count.  The pool lives only
  // for this block and the constructing thread is its last lane (a 1-CPU
  // host runs a plain loop).
  const std::vector<CellMaster>& masters = library_.masters();
  const std::size_t n_masters = masters.size();
  const std::size_t n_items = n_masters + config_.table_spacings.size();
  std::vector<LibraryOpcAttempt> opc(n_masters);
  std::vector<PostOpcPitchPoint> points(config_.table_spacings.size());
  std::vector<std::exception_ptr> point_errors(points.size());
  std::vector<char> done(n_items, 0);
  // Item bodies never throw: a failure lands in its slot and is judged
  // after the join, in index order, whatever the schedule.
  auto solve = [&](std::size_t i) {
    if (i < n_masters) {
      opc[i] = try_library_opc_cell(masters[i], engine_, config_.library_opc);
    } else {
      const std::size_t j = i - n_masters;
      try {
        points[j] = characterize_post_opc_pitch(
            engine_, config_.cell_tech.gate_length,
            {config_.table_spacings[j]})[0];
      } catch (...) {
        point_errors[j] = std::current_exception();
      }
    }
    done[i] = 1;
  };
  {
    ThreadPool pool(ThreadPool::default_thread_count() - 1);
    try {
      pool.parallel_for(0, n_items, solve, 1);
    } catch (const FailPointError&) {
      // An injected pool-task fault skipped its item before the body ran;
      // the loop below runs it here instead.
    }
  }
  for (std::size_t i = 0; i < n_items; ++i)
    if (!done[i]) solve(i);

  library_opc_ = resolve_library_opc(masters, std::move(opc),
                                     config_.fault_policy);
  for (const std::exception_ptr& error : point_errors)
    if (error) std::rethrow_exception(error);
  pitch_points_ = std::move(points);
}

std::uint64_t SvaFlow::setup_content_hash() const {
  Fnv1aHasher h;
  const CellTech& t = config_.cell_tech;
  h.f64(t.gate_length).f64(t.cell_height).f64(t.site_width);
  h.f64(t.poly_y_lo).f64(t.poly_y_hi);
  h.f64(t.nmos_y_lo).f64(t.nmos_y_hi).f64(t.pmos_y_lo).f64(t.pmos_y_hi);
  h.f64(t.contacted_pitch).f64(t.radius_of_influence);
  const ElectricalTech& e = config_.electrical;
  h.f64(e.r_unit_kohm).f64(e.w_unit).f64(e.c_gate_ff).f64(e.c_parasitic_ff);
  h.f64(e.c_par_per_um).f64(e.t_intrinsic_ps).f64(e.slew_sensitivity);
  h.f64(e.slew_gain).f64(e.slew_floor_ps);
  for (const OpticsConfig* o :
       {&config_.wafer_optics, &config_.opc_model_optics}) {
    h.f64(o->wavelength).f64(o->na).f64(o->sigma_inner).f64(o->sigma_outer);
    h.u64(static_cast<std::uint64_t>(o->source_radial));
    h.u64(static_cast<std::uint64_t>(o->source_azimuthal));
    h.f64(o->resist_diffusion_length);
  }
  const OpcConfig& c = config_.opc;
  h.u64(static_cast<std::uint64_t>(c.max_iterations));
  h.f64(c.damping).f64(c.mask_grid).f64(c.min_width).f64(c.min_space);
  h.f64(c.max_bias).f64(c.convergence_epe).f64(c.radius_of_influence);
  h.f64(config_.library_opc.dummy_gap).f64(config_.library_opc.dummy_width);
  h.vec_f64(config_.table_spacings);
  h.f64(config_.anchor_spacing);
  h.vec_f64(config_.bins.upper_edges());
  h.vec_f64(config_.bins.representatives());
  // Master structure.  The geometry itself is a pure function of the tech
  // already hashed, so name + device/arc counts suffice to catch a
  // different library.
  h.u64(library_.size());
  for (const CellMaster& m : library_.masters()) {
    h.str(m.name());
    h.u64(m.devices().size());
    h.u64(m.arcs().size());
  }
  return h.digest();
}

std::string SvaFlow::setup_cache_file_path(const std::string& dir) const {
  char name[64];
  std::snprintf(name, sizeof(name), "setup_%016llx.svac",
                static_cast<unsigned long long>(setup_content_hash()));
  return dir + "/" + name;
}

bool SvaFlow::try_load_setup(const std::string& dir) {
  const std::string path = setup_cache_file_path(dir);
  std::string bytes;
  try {
    bytes = with_retry("flow setup read", RetryPolicy{},
                       [&] { return read_file_bytes(path); });
  } catch (const FileMissingError&) {
    // No snapshot yet: the normal first run, not worth a warning.
    log_debug("flow: no setup snapshot at ", path);
    return false;
  } catch (const Error& e) {
    // Transport failure that survived the retries; the file itself may be
    // intact, so leave it in place for the next run.
    diag_warn("flow", "setup_read_failed",
              std::string("setup cold start: ") + e.what());
    return false;
  }

  // Parse and validate everything -- including a checksum of the payload
  // bytes -- before committing, so a corrupt snapshot can never yield
  // wrong characterization data.
  std::vector<LibraryOpcCellResult> opc;
  std::vector<PostOpcPitchPoint> points;
  try {
    SVA_FAILPOINT("flow.setup_load");
    ByteReader r(bytes);
    if (r.u32() != kSetupMagic) throw SerializeError("bad magic");
    if (r.u32() != kSetupFormatVersion)
      throw SerializeError("unsupported format version");
    if (r.u64() != setup_content_hash())
      throw SerializeError("content hash mismatch (stale snapshot)");
    const std::uint64_t payload_hash = r.u64();
    if (fnv1a64_words(bytes.data() + (bytes.size() - r.remaining()),
                      r.remaining()) != payload_hash)
      throw SerializeError("payload checksum mismatch");
    const std::uint64_t n_masters = r.u64();
    if (n_masters != library_.size())
      throw SerializeError("master count mismatch");
    opc.reserve(library_.size());
    for (std::size_t i = 0; i < library_.size(); ++i) {
      LibraryOpcCellResult res;
      res.device_cd = r.vec_f64();
      res.device_mask_width = r.vec_f64();
      res.images_simulated = static_cast<std::size_t>(r.u64());
      if (res.device_cd.size() != library_.masters()[i].devices().size() ||
          res.device_mask_width.size() != res.device_cd.size())
        throw SerializeError("device count mismatch");
      opc.push_back(std::move(res));
    }
    const std::uint64_t n_points = r.u64();
    if (n_points != config_.table_spacings.size())
      throw SerializeError("pitch point count mismatch");
    points.reserve(config_.table_spacings.size());
    for (std::size_t i = 0; i < config_.table_spacings.size(); ++i) {
      PostOpcPitchPoint p;
      p.spacing = r.f64();
      p.printed_cd = r.f64();
      p.mask_bias = r.f64();
      if (p.spacing != config_.table_spacings[i])
        throw SerializeError("pitch spacing mismatch");
      points.push_back(p);
    }
    r.expect_end();
  } catch (const Error& e) {
    // The snapshot failed validation: quarantine it so later runs
    // cold-start on a clean miss instead of re-parsing a bad file.
    quarantine_file(path);
    MetricsRegistry::global().counter("flow.setup_quarantined").add();
    diag_warn("flow", "setup_quarantined",
              "setup snapshot " + path + " quarantined (" + e.what() +
                  "); cold start");
    return false;
  }

  library_opc_ = std::move(opc);
  pitch_points_ = std::move(points);
  return true;
}

void SvaFlow::save_setup(const std::string& dir) const {
  ByteWriter payload;
  payload.u64(library_opc_.size());
  for (const LibraryOpcCellResult& res : library_opc_) {
    payload.vec_f64(res.device_cd);
    payload.vec_f64(res.device_mask_width);
    payload.u64(res.images_simulated);
  }
  payload.u64(pitch_points_.size());
  for (const PostOpcPitchPoint& p : pitch_points_) {
    payload.f64(p.spacing);
    payload.f64(p.printed_cd);
    payload.f64(p.mask_bias);
  }

  ByteWriter file;
  file.u32(kSetupMagic);
  file.u32(kSetupFormatVersion);
  file.u64(setup_content_hash());
  file.u64(fnv1a64_words(payload.bytes().data(), payload.size()));
  // Per-file advisory lock: concurrent processes cold-starting the same
  // configuration serialize their snapshot writes instead of racing the
  // temp+rename (last-writer-wins is correct either way -- the contents
  // are identical -- but the lock keeps temp-file churn bounded).
  const FileLock lock = FileLock::acquire(setup_cache_file_path(dir));
  atomic_write_file(setup_cache_file_path(dir),
                    file.bytes() + payload.bytes());
  log_debug("flow: setup snapshot saved to ", setup_cache_file_path(dir));
}

Netlist SvaFlow::make_benchmark(const std::string& name) const {
  return generate_iscas85_like(name, library_);
}

Placement SvaFlow::make_placement(const Netlist& netlist) const {
  return Placement(netlist, config_.placement);
}

std::vector<VersionKey> SvaFlow::bind_versions(
    const Placement& placement) const {
  return assign_versions(extract_nps(placement), config_.bins);
}

CircuitAnalysis SvaFlow::analyze(const Netlist& netlist,
                                 const Placement& placement,
                                 const CancelToken* cancel) const {
  SVA_REQUIRE(&placement.netlist() == &netlist);
  ScopedTimer timer(MetricsRegistry::global().timer("flow.analyze"));
  const Nm l_nom = config_.cell_tech.gate_length;
  const Sta sta(netlist, characterized_, config_.sta);

  CircuitAnalysis out;
  out.name = netlist.name();
  out.gate_count = netlist.gates().size();

  // Traditional corners: the drawn-length library plus uniform
  // full-budget corners.
  const UnitScale trad_nom;
  const TraditionalCornerScale trad_bc(l_nom, config_.budget, Corner::Best);
  const TraditionalCornerScale trad_wc(l_nom, config_.budget, Corner::Worst);

  // In-context corners with the expanded library.  Delay tables come from
  // the binned versions (the context library's table); device labels use
  // the measured spacings.  Annotating once and deriving the three corner
  // factor matrices is exactly what three SvaCornerScale constructions
  // would compute, without re-annotating per corner.
  const std::vector<InstanceNps> nps = extract_nps(placement);
  const std::vector<VersionKey> versions = assign_versions(nps, config_.bins);
  const std::vector<std::vector<ArcAnnotation>> annotations =
      annotate_arcs(netlist, *context_, versions, config_.budget,
                    config_.arc_policy, 0.0, &nps);
  const MatrixScale sva_nom(
      corner_factors(netlist, annotations, config_.budget, Corner::Nominal));
  const MatrixScale sva_bc(
      corner_factors(netlist, annotations, config_.budget, Corner::Best));
  const MatrixScale sva_wc(
      corner_factors(netlist, annotations, config_.budget, Corner::Worst));

  out.arc_class_counts.assign(3, 0);
  for (const auto& gate : annotations)
    for (const ArcAnnotation& ann : gate)
      ++out.arc_class_counts[static_cast<std::size_t>(ann.arc_class)];

  const ArcScaleProvider* scales[6] = {&trad_nom, &trad_bc, &trad_wc,
                                       &sva_nom, &sva_bc, &sva_wc};
  double* fields[6] = {&out.trad_nom_ps, &out.trad_bc_ps, &out.trad_wc_ps,
                       &out.sva_nom_ps, &out.sva_bc_ps, &out.sva_wc_ps};
  for (std::size_t i = 0; i < 6; ++i) {
    if (cancel) cancel->check();
    *fields[i] = sta.run(*scales[i]).critical_delay_ps;
  }
  return out;
}

CircuitAnalysis SvaFlow::analyze_benchmark(const std::string& name) const {
  const Netlist netlist = make_benchmark(name);
  const Placement placement = make_placement(netlist);
  return analyze(netlist, placement);
}

}  // namespace sva
