#include "cell/context_library.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/serialize.hpp"

namespace sva {

ContextBins::ContextBins()
    : ContextBins({400.0, 600.0}, {300.0, 400.0, 600.0}) {}

ContextBins::ContextBins(std::vector<Nm> upper_edges,
                         std::vector<Nm> representatives)
    : upper_edges_(std::move(upper_edges)),
      representatives_(std::move(representatives)) {
  SVA_REQUIRE(representatives_.size() == upper_edges_.size() + 1);
  for (std::size_t i = 1; i < upper_edges_.size(); ++i)
    SVA_REQUIRE_MSG(upper_edges_[i] > upper_edges_[i - 1],
                    "bin edges must be strictly increasing");
  for (Nm r : representatives_) SVA_REQUIRE(r > 0.0);
}

std::size_t ContextBins::bin_of(Nm spacing) const {
  for (std::size_t i = 0; i < upper_edges_.size(); ++i)
    if (spacing < upper_edges_[i]) return i;
  return upper_edges_.size();
}

Nm ContextBins::representative(std::size_t bin) const {
  SVA_REQUIRE(bin < representatives_.size());
  return representatives_[bin];
}

std::size_t ContextBins::version_count() const {
  const std::size_t b = count();
  return b * b * b * b;
}

std::size_t version_index(const VersionKey& key, std::size_t bins) {
  SVA_REQUIRE(key.lt < bins && key.rt < bins && key.lb < bins &&
              key.rb < bins);
  return ((static_cast<std::size_t>(key.lt) * bins + key.rt) * bins +
          key.lb) *
             bins +
         key.rb;
}

VersionKey version_key(std::size_t index, std::size_t bins) {
  SVA_REQUIRE(bins > 0 && index < bins * bins * bins * bins);
  VersionKey key;
  key.rb = static_cast<std::uint8_t>(index % bins);
  index /= bins;
  key.lb = static_cast<std::uint8_t>(index % bins);
  index /= bins;
  key.rt = static_cast<std::uint8_t>(index % bins);
  index /= bins;
  key.lt = static_cast<std::uint8_t>(index);
  return key;
}

ContextLibrary::ContextLibrary(const CharacterizedLibrary& characterized,
                               std::vector<LibraryOpcCellResult> library_opc,
                               const CdModel& boundary_model, ContextBins bins)
    : characterized_(&characterized),
      library_opc_(std::move(library_opc)),
      boundary_model_(&boundary_model),
      bins_(std::move(bins)) {
  SVA_REQUIRE(library_opc_.size() == characterized.cells.size());

  geometry_.resize(characterized.cells.size());
  for (std::size_t ci = 0; ci < characterized.cells.size(); ++ci) {
    const CellMaster& master = characterized.cells[ci].master;
    SVA_REQUIRE_MSG(
        library_opc_[ci].device_cd.size() == master.devices().size(),
        "library-OPC results must cover every device");
    const Nm roi = master.tech().radius_of_influence;
    auto& devices = geometry_[ci];
    devices.resize(master.devices().size());
    for (std::size_t di = 0; di < master.devices().size(); ++di) {
      const Device& d = master.devices()[di];
      const PolyGate& g = master.gates()[d.gate_index];
      DeviceGeometry geo;
      geo.boundary_left = d.gate_index == master.leftmost_gate();
      geo.boundary_right = d.gate_index == master.rightmost_gate();
      // Nearest poly feature inside the cell on each side that overlaps
      // this device vertically (other gate stripes always do; stubs only
      // if they reach into the device's diffusion strip).
      const Rect dev_rect = master.device_gate_rect(di);
      Nm left = roi;
      Nm right = roi;
      for (const PolyGate& other : master.gates()) {
        if (other.x_center < g.x_center)
          left = std::min(left, g.x_lo() - other.x_hi());
        if (other.x_center > g.x_center)
          right = std::min(right, other.x_lo() - g.x_hi());
      }
      for (const Rect& stub : master.poly_stubs()) {
        if (!stub.y_overlaps(dev_rect)) continue;
        if (stub.x_hi <= g.x_lo())
          left = std::min(left, g.x_lo() - stub.x_hi);
        if (stub.x_lo >= g.x_hi())
          right = std::min(right, stub.x_lo - g.x_hi());
      }
      geo.internal_left = left;
      geo.internal_right = right;
      devices[di] = geo;
    }
  }

  // Characterize every (cell, version) slot exactly once.  The slots count
  // as "context_cache.misses"; annotate_arcs counts its reads as hits.
  const std::size_t versions = bins_.version_count();
  length_offset_.resize(characterized.cells.size());
  for (std::size_t ci = 0; ci < characterized.cells.size(); ++ci) {
    length_offset_[ci] = lengths_.size();
    const std::size_t arcs = characterized.cells[ci].master.arcs().size();
    for (std::size_t vi = 0; vi < versions; ++vi) {
      const VersionKey key = version_key(vi, bins_.count());
      for (std::size_t ai = 0; ai < arcs; ++ai)
        lengths_.push_back(mean_arc_cd(ci, key, ai));
    }
  }
  MetricsRegistry::global()
      .counter("context_cache.misses")
      .add(characterized.cells.size() * versions);
}

DeviceContext ContextLibrary::device_context(std::size_t cell,
                                             const VersionKey& version,
                                             std::size_t device) const {
  SVA_REQUIRE(cell < geometry_.size());
  SVA_REQUIRE(device < geometry_[cell].size());
  const DeviceGeometry& geo = geometry_[cell][device];
  const CellMaster& master = characterized_->cells[cell].master;
  const Device& d = master.devices()[device];
  const bool pmos = d.type == DeviceType::Pmos;

  // nps_* are measured device-to-neighbour-poly, so a bin representative
  // is already the full outside spacing (it includes the edge clearance).
  DeviceContext ctx{geo.internal_left, geo.internal_right};
  if (geo.boundary_left) {
    const std::size_t bin = pmos ? version.lt : version.lb;
    ctx.s_left = std::min(ctx.s_left, bins_.representative(bin));
  }
  if (geo.boundary_right) {
    const std::size_t bin = pmos ? version.rt : version.rb;
    ctx.s_right = std::min(ctx.s_right, bins_.representative(bin));
  }
  return ctx;
}

DeviceContext ContextLibrary::device_context_measured(
    std::size_t cell, std::size_t device, Nm outside_left,
    Nm outside_right) const {
  SVA_REQUIRE(cell < geometry_.size());
  SVA_REQUIRE(device < geometry_[cell].size());
  const DeviceGeometry& geo = geometry_[cell][device];
  DeviceContext ctx{geo.internal_left, geo.internal_right};
  if (geo.boundary_left) ctx.s_left = std::min(ctx.s_left, outside_left);
  if (geo.boundary_right) ctx.s_right = std::min(ctx.s_right, outside_right);
  return ctx;
}

Nm ContextLibrary::interior_cd(std::size_t cell, std::size_t device) const {
  SVA_REQUIRE(cell < library_opc_.size());
  SVA_REQUIRE(device < library_opc_[cell].device_cd.size());
  return library_opc_[cell].device_cd[device];
}

Nm ContextLibrary::device_printed_cd(std::size_t cell,
                                     const VersionKey& version,
                                     std::size_t device) const {
  SVA_REQUIRE(cell < geometry_.size());
  const DeviceGeometry& geo = geometry_[cell][device];
  if (!geo.boundary_left && !geo.boundary_right)
    return interior_cd(cell, device);
  const CellMaster& master = characterized_->cells[cell].master;
  const DeviceContext ctx = device_context(cell, version, device);
  return boundary_model_->printed_cd_nominal(master.tech().gate_length,
                                             ctx.s_left, ctx.s_right);
}

Nm ContextLibrary::arc_effective_length(std::size_t cell,
                                        const VersionKey& version,
                                        std::size_t arc) const {
  SVA_REQUIRE(cell < length_offset_.size());
  const std::size_t arcs = characterized_->cells[cell].master.arcs().size();
  SVA_REQUIRE(arc < arcs);
  return lengths_[length_offset_[cell] +
                  version_index(version, bins_.count()) * arcs + arc];
}

Nm ContextLibrary::mean_arc_cd(std::size_t cell, const VersionKey& version,
                               std::size_t arc) const {
  const TimingArc& a = characterized_->cells[cell].master.arcs()[arc];
  double sum = 0.0;
  for (std::size_t di : a.device_indices)
    sum += device_printed_cd(cell, version, di);
  return sum / static_cast<double>(a.device_indices.size());
}

double ContextLibrary::arc_delay_scale(std::size_t cell,
                                       const VersionKey& version,
                                       std::size_t arc) const {
  const Nm length = arc_effective_length(cell, version, arc);
  return length / characterized_->cells[cell].master.tech().gate_length;
}

std::uint64_t ContextLibrary::content_hash() const {
  std::call_once(hash_once_, [&] { hash_value_ = compute_content_hash(); });
  return hash_value_;
}

std::uint64_t ContextLibrary::compute_content_hash() const {
  Fnv1aHasher h;
  // Binning config: edges decide which version an instance binds to,
  // representatives decide what a boundary device sees inside a version.
  h.vec_f64(bins_.upper_edges());
  h.vec_f64(bins_.representatives());

  for (std::size_t ci = 0; ci < characterized_->cells.size(); ++ci) {
    const CellMaster& master = characterized_->cells[ci].master;
    h.str(master.name());
    h.f64(master.tech().gate_length);
    h.f64(master.tech().radius_of_influence);
    // Per-device printing inputs: boundary classification, internal
    // spacings, device polarity (selects the top/bottom nps corner), and
    // the library-OPC interior CD.
    h.u64(master.devices().size());
    for (std::size_t di = 0; di < master.devices().size(); ++di) {
      const DeviceGeometry& geo = geometry_[ci][di];
      h.u64((geo.boundary_left ? 1u : 0u) | (geo.boundary_right ? 2u : 0u));
      h.f64(geo.internal_left);
      h.f64(geo.internal_right);
      h.u64(static_cast<std::uint64_t>(master.devices()[di].type));
      h.f64(library_opc_[ci].device_cd[di]);
    }
    // Arc structure: which devices average into each effective length.
    h.u64(master.arcs().size());
    for (const TimingArc& arc : master.arcs()) {
      h.u64(arc.device_indices.size());
      for (std::size_t di : arc.device_indices) h.u64(di);
    }
  }

  // The boundary model has no serializable internals in general (it is an
  // abstract CdModel), so capture its behaviour by sampling the nominal
  // printed CD over the spacing range the versions can query.  Any model
  // change that could alter a cached value perturbs at least one sample.
  if (!characterized_->cells.empty()) {
    const CellTech& tech = characterized_->cells[0].master.tech();
    const Nm w = tech.gate_length;
    std::vector<Nm> samples = bins_.representatives();
    for (Nm s = 100.0; s <= 700.0; s += 25.0) samples.push_back(s);
    for (Nm s : samples) {
      h.f64(boundary_model_->printed_cd_nominal(w, s, s));
      h.f64(boundary_model_->printed_cd_nominal(
          w, s, tech.radius_of_influence));
    }
  }
  return h.digest();
}

}  // namespace sva
