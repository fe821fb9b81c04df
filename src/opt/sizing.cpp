#include "opt/sizing.hpp"

#include <cmath>
#include <string>

#include "util/error.hpp"

namespace sva {

namespace {

std::string variant_name(const CellMaster& base, double multiplier) {
  const int pct = static_cast<int>(std::lround(multiplier * 100.0));
  return base.name() + "_W" + std::to_string(pct);
}

}  // namespace

std::vector<double> SizedLibrary::default_multipliers() {
  return {0.65, 1.0, 1.45, 2.1, 3.0};
}

SizedLibrary::SizedLibrary(const CellLibrary& base,
                           const ElectricalTech& electrical,
                           const std::vector<LibraryOpcCellResult>& base_opc,
                           const CdModel& boundary_model,
                           const ContextBins& bins,
                           std::vector<double> multipliers)
    : multipliers_(std::move(multipliers)), base_count_(base.size()) {
  SVA_REQUIRE(base_opc.size() == base.size());
  SVA_REQUIRE_MSG(!multipliers_.empty(), "empty sizing ladder");
  unit_rung_ = multipliers_.size();
  for (std::size_t r = 0; r < multipliers_.size(); ++r) {
    SVA_REQUIRE_MSG(multipliers_[r] > 0.0, "multipliers must be positive");
    SVA_REQUIRE_MSG(r == 0 || multipliers_[r] > multipliers_[r - 1],
                    "multipliers must be strictly increasing");
    if (std::abs(multipliers_[r] - 1.0) < 1e-12) unit_rung_ = r;
  }
  SVA_REQUIRE_MSG(unit_rung_ < multipliers_.size(),
                  "the ladder must contain 1.0 (the base cell is a rung)");

  // Base masters keep their indices; variants are appended base-major.
  CellLibrary::Masters masters(base.masters());
  ladder_.assign(base_count_, std::vector<std::size_t>(multipliers_.size()));
  base_of_.resize(base_count_);
  rung_of_.resize(base_count_);
  std::vector<LibraryOpcCellResult> opc(base_opc);
  for (std::size_t b = 0; b < base_count_; ++b) {
    base_of_[b] = b;
    rung_of_[b] = unit_rung_;
    ladder_[b][unit_rung_] = b;
    for (std::size_t r = 0; r < multipliers_.size(); ++r) {
      if (r == unit_rung_) continue;
      ladder_[b][r] = masters.size();
      base_of_.push_back(b);
      rung_of_.push_back(r);
      masters.push_back(scale_device_widths(
          base.master(b), multipliers_[r],
          variant_name(base.master(b), multipliers_[r])));
      opc.push_back(base_opc[b]);
    }
  }

  library_ = std::make_unique<CellLibrary>(std::move(masters));
  characterized_ = characterize_library(*library_, electrical);
  context_ = std::make_unique<ContextLibrary>(characterized_, std::move(opc),
                                              boundary_model, bins);
}

std::size_t SizedLibrary::base_of(std::size_t cell) const {
  SVA_REQUIRE(cell < base_of_.size());
  return base_of_[cell];
}

std::size_t SizedLibrary::rung_of(std::size_t cell) const {
  SVA_REQUIRE(cell < rung_of_.size());
  return rung_of_[cell];
}

std::size_t SizedLibrary::at_rung(std::size_t base, std::size_t rung) const {
  SVA_REQUIRE(base < base_count_);
  SVA_REQUIRE(rung < multipliers_.size());
  return ladder_[base][rung];
}

bool SizedLibrary::can_upsize(std::size_t cell) const {
  return rung_of(cell) + 1 < multipliers_.size();
}

bool SizedLibrary::can_downsize(std::size_t cell) const {
  return rung_of(cell) > 0;
}

std::size_t SizedLibrary::upsized(std::size_t cell) const {
  SVA_REQUIRE(can_upsize(cell));
  return ladder_[base_of(cell)][rung_of(cell) + 1];
}

std::size_t SizedLibrary::downsized(std::size_t cell) const {
  SVA_REQUIRE(can_downsize(cell));
  return ladder_[base_of(cell)][rung_of(cell) - 1];
}

double SizedLibrary::multiplier_of(std::size_t cell) const {
  return multipliers_[rung_of(cell)];
}

}  // namespace sva
