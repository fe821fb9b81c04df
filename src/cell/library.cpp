#include "cell/library.hpp"

#include "util/error.hpp"

namespace sva {
namespace {

/// Per-gate entry of a compact master spec.
struct GateSpec {
  Nm x_center;        ///< gate centre within the cell
  const char* pin;    ///< driving input pin
  Nm wp;              ///< PMOS width
  Nm wn;              ///< NMOS width
};

CellMaster make_cell(const char* name, int width_sites,
                     std::initializer_list<GateSpec> gates,
                     std::initializer_list<const char*> input_pins,
                     const CellTech& tech) {
  CellMaster cell(name, width_sites * tech.site_width, tech);
  for (const char* p : input_pins) cell.add_pin(p, /*is_output=*/false);
  cell.add_pin("Y", /*is_output=*/true);

  int index = 0;
  for (const GateSpec& g : gates) {
    const std::size_t gi = cell.add_gate(g.x_center, tech.gate_length);
    cell.add_device("MP" + std::to_string(index), DeviceType::Pmos, gi, g.wp,
                    g.pin);
    cell.add_device("MN" + std::to_string(index), DeviceType::Nmos, gi, g.wn,
                    g.pin);
    ++index;
  }
  // One arc per input pin; the devices in the worst-case transition are
  // the ones gated by that pin (paper Sec. 3.1.2: "devices are fixed for
  // the worst-case transition").
  for (const char* p : input_pins) {
    std::vector<std::size_t> involved;
    for (std::size_t d = 0; d < cell.devices().size(); ++d)
      if (cell.devices()[d].input_pin == p) involved.push_back(d);
    cell.add_arc(p, "Y", std::move(involved));
  }
  cell.validate();
  return cell;
}

}  // namespace

CellLibrary::CellLibrary(std::vector<CellMaster> masters)
    : masters_(std::move(masters)) {
  SVA_REQUIRE(!masters_.empty());
  input_pins_.resize(masters_.size());
  for (std::size_t i = 0; i < masters_.size(); ++i)
    for (const Pin& p : masters_[i].pins())
      if (!p.is_output) input_pins_[i].push_back(p.name);
}

const CellMaster& CellLibrary::master(std::size_t index) const {
  SVA_REQUIRE(index < masters_.size());
  return masters_[index];
}

const std::vector<std::string>& CellLibrary::input_pins(
    std::size_t index) const {
  SVA_REQUIRE(index < input_pins_.size());
  return input_pins_[index];
}

const CellMaster& CellLibrary::by_name(const std::string& name) const {
  return masters_[index_of(name)];
}

std::size_t CellLibrary::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < masters_.size(); ++i)
    if (masters_[i].name() == name) return i;
  throw PreconditionError("library has no cell named " + name);
}

namespace {

/// Boundary poly stubs (landing pads / routing poly) added to some
/// masters.  They de-align the top and bottom neighbour spacings seen by
/// the adjacent cell, populating all four nps_* dimensions in placements.
void add_boundary_stubs(CellLibrary::Masters& masters, const CellTech& tech) {
  // Boundary design rules observed here: every poly feature keeps >= 70 nm
  // clearance from the cell outline (so abutted neighbours are >= 140 nm
  // apart, the minimum spacing that prints without bridging) and stubs
  // keep >= 140 nm to their nearest gate.
  // NOR2: top-left landing pad.
  masters[5].add_poly_stub(
      Rect::make(70.0, tech.pmos_y_lo + 300.0, 160.0, tech.poly_y_hi));
  // NAND3: bottom-left routing stub.
  masters[4].add_poly_stub(Rect::make(
      70.0, tech.poly_y_lo, 160.0, tech.nmos_y_hi - 200.0));
  // OAI21: top-right landing pad.
  masters[8].add_poly_stub(Rect::make(
      masters[8].width() - 160.0, tech.pmos_y_lo + 200.0,
      masters[8].width() - 70.0, tech.poly_y_hi));
}

}  // namespace

CellLibrary build_standard_library(const CellTech& tech) {
  std::vector<CellMaster> masters;

  // Gate x positions encode the intended proximity classes:
  //   pitch 250 (spacing 160)  -> dense (below contacted pitch 340)
  //   pitch 400 (spacing 310)  -> intermediate / self-compensating
  //   pitch 470+ or lone gate  -> isolated
  masters.push_back(make_cell("INV_X1", 3,
                              {{255, "A", 1000, 660}},
                              {"A"}, tech));
  masters.push_back(make_cell("INV_X2", 4,
                              {{225, "A", 1000, 660},
                               {475, "A", 1000, 660}},
                              {"A"}, tech));
  masters.push_back(make_cell("BUF_X1", 5,
                              {{225, "A", 620, 420},
                               {595, "A", 1240, 830}},
                              {"A"}, tech));
  masters.push_back(make_cell("NAND2_X1", 4,
                              {{215, "A", 900, 900},
                               {465, "B", 900, 900}},
                              {"A", "B"}, tech));
  masters.push_back(make_cell("NAND3_X1", 6,
                              {{350, "A", 900, 1200},
                               {600, "B", 900, 1200},
                               {850, "C", 900, 1200}},
                              {"A", "B", "C"}, tech));
  masters.push_back(make_cell("NOR2_X1", 5,
                              {{360, "A", 1400, 660},
                               {620, "B", 1400, 660}},
                              {"A", "B"}, tech));
  masters.push_back(make_cell("NOR3_X1", 5,
                              {{195, "A", 1800, 660},
                               {455, "B", 1800, 660},
                               {715, "C", 1800, 660}},
                              {"A", "B", "C"}, tech));
  masters.push_back(make_cell("AOI21_X1", 6,
                              {{195, "A", 1200, 800},
                               {445, "B", 1200, 800},
                               {845, "C", 1200, 800}},
                              {"A", "B", "C"}, tech));
  masters.push_back(make_cell("OAI21_X1", 7,
                              {{175, "A", 1200, 800},
                               {575, "B", 1200, 800},
                               {825, "C", 1200, 800}},
                              {"A", "B", "C"}, tech));
  masters.push_back(make_cell("XOR2_X1", 8,
                              {{275, "A", 1000, 700},
                               {525, "B", 1000, 700},
                               {995, "A", 1000, 700},
                               {1245, "B", 1000, 700}},
                              {"A", "B"}, tech));
  add_boundary_stubs(masters, tech);
  return CellLibrary(std::move(masters));
}

}  // namespace sva
