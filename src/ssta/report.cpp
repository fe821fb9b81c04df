#include "ssta/report.hpp"

#include <algorithm>
#include <cstdio>

#include "report/csv.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace sva {

namespace {

std::string num(double v, int decimals) { return fmt(v, decimals); }

}  // namespace

std::string criticality_csv(const Netlist& netlist, const SstaResult& ssta,
                            const CriticalityResult& crit) {
  const std::vector<std::string> header = {
      "kind",        "gate", "pin", "net", "criticality", "arrival_mean_ps",
      "arrival_sigma_ps"};
  std::vector<std::vector<std::string>> rows;

  for (std::size_t i = 0; i < ssta.po_nets.size(); ++i) {
    const std::size_t ni = ssta.po_nets[i];
    rows.push_back({"endpoint", "", "", netlist.nets()[ni].name,
                    num(ssta.po_tightness[i], 6),
                    num(ssta.arrival[ni].mean_ps, 3),
                    num(ssta.arrival[ni].sigma_ps(), 3)});
  }

  for (std::size_t gi = 0; gi < netlist.gates().size(); ++gi) {
    const GateInst& gate = netlist.gates()[gi];
    const auto& pins = netlist.input_pins_of(gate.cell_index);
    for (std::size_t pi = 0; pi < gate.fanin_nets.size(); ++pi) {
      const std::size_t in_net = gate.fanin_nets[pi];
      rows.push_back({"arc", gate.name, pins[pi], netlist.nets()[in_net].name,
                      num(crit.arc_criticality[gi][pi], 6),
                      num(ssta.arrival[in_net].mean_ps, 3),
                      num(ssta.arrival[in_net].sigma_ps(), 3)});
    }
  }

  for (std::size_t ni = 0; ni < netlist.nets().size(); ++ni) {
    if (!netlist.nets()[ni].is_primary_input()) continue;
    rows.push_back({"input", "", "", netlist.nets()[ni].name,
                    num(crit.net_criticality[ni], 6), "0.000", "0.000"});
  }

  return rows_to_csv(header, rows);
}

std::string ssta_text_report(const Netlist& netlist, const SstaResult& ssta,
                             const CriticalityResult& crit, double quantile,
                             double clock_period_ps) {
  (void)crit;
  std::string out;
  const CanonicalDelay& c = ssta.critical;
  out += netlist.name() + ": block-based SSTA (" +
         std::to_string(netlist.gates().size()) + " gates, " +
         std::to_string(ssta.po_nets.size()) + " endpoints)\n";
  out += "  critical delay: mean " + num(units::ps_to_ns(c.mean_ps), 4) +
         " ns, sigma " + num(c.sigma_ps(), 2) + " ps (focus " +
         num(c.a_focus_ps, 2) + ", global " + num(c.a_global_ps, 2) +
         ", local " + num(c.local_ps, 2) + ")\n";
  out += "  q" + fmt_pct(quantile, 2) + ": " +
         num(units::ps_to_ns(ssta.quantile_ps(quantile)), 4) + " ns\n";
  if (clock_period_ps > 0.0)
    out += "  yield at clock " + num(units::ps_to_ns(clock_period_ps), 3) + " ns: " +
           fmt_pct(ssta.yield_at(clock_period_ps), 3) + "\n";

  // Top endpoints by criticality; net-index order breaks ties so the
  // listing is deterministic.
  std::vector<std::size_t> order(ssta.po_nets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ssta.po_tightness[a] > ssta.po_tightness[b];
                   });
  const std::size_t top = std::min<std::size_t>(5, order.size());
  out += "  top critical endpoints:\n";
  for (std::size_t i = 0; i < top; ++i) {
    const std::size_t k = order[i];
    const std::size_t ni = ssta.po_nets[k];
    out += "    " + pad_right(netlist.nets()[ni].name, 12) + " criticality " +
           num(ssta.po_tightness[k], 4) + "  mean " +
           num(units::ps_to_ns(ssta.arrival[ni].mean_ps), 4) + " ns  sigma " +
           num(ssta.arrival[ni].sigma_ps(), 2) + " ps\n";
  }
  return out;
}

}  // namespace sva
