// Table 1 reproduction: library-based OPC vs full-chip OPC.
//
// Paper: "N-i% denotes % of devices with less than i% error compared to
// full-chip OPC. ... about 50% of all devices corrected in a library-based
// OPC fashion fall within 1% error while nearly all devices have a printed
// gate length within +-6% of full-chip OPC.  Library OPC Runtime is 90
// seconds for 10 masters"; full-chip runtimes grow with design size
// (~1100 s for a small design on their testbed).
//
// We compare, for every device of every placed instance, the printed CD
// predicted by library OPC (master corrected once in the dummy
// environment) against the printed CD after true full-chip OPC, and time
// both flows.  Absolute seconds differ from the paper's 2004 testbed; the
// shape to check is the accuracy profile and the runtime scaling.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/flow.hpp"
#include "engine/thread_pool.hpp"
#include "place/fullchip_opc.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace sva;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  std::printf("=== Table 1: library-based OPC vs full-chip OPC ===\n\n");

  const SvaFlow flow{FlowConfig{}};
  const double library_seconds = flow.setup_opc_seconds();

  Table table({"Testcase", "#Gates", "#Devices", "N-1%", "N-3%", "N-6%",
               "Periphery N-6%", "Runtime (s)"});
  std::string csv = "testcase,gates,devices,n1,n3,n6,periphery_n6,seconds\n";

  for (const char* name : {"C432", "C880", "C1355", "C1908", "C3540"}) {
    const Netlist netlist = flow.make_benchmark(name);
    const Placement placement = flow.make_placement(netlist);

    const auto t0 = std::chrono::steady_clock::now();
    const FullChipOpcResult full = full_chip_opc(placement, flow.opc_engine());
    const double seconds = seconds_since(t0);

    // Per-device error of the library-OPC prediction vs full-chip truth.
    std::vector<double> all_errors;
    std::vector<double> periphery_errors;
    for (std::size_t gi = 0; gi < netlist.gates().size(); ++gi) {
      const std::size_t ci = netlist.gates()[gi].cell_index;
      const auto& lib_cd = flow.library_opc_results()[ci].device_cd;
      const CellMaster& master = flow.library().master(ci);
      for (std::size_t di = 0; di < lib_cd.size(); ++di) {
        const Nm truth = full.device_cd[gi][di];
        if (truth <= 0.0 || lib_cd[di] <= 0.0) continue;
        const double err = 100.0 * (lib_cd[di] - truth) / truth;
        all_errors.push_back(err);
        if (master.is_boundary_device(di)) periphery_errors.push_back(err);
      }
    }

    const double n1 = fraction_within(all_errors, 1.0);
    const double n3 = fraction_within(all_errors, 3.0);
    const double n6 = fraction_within(all_errors, 6.0);
    const double pn6 = periphery_errors.empty()
                           ? 1.0
                           : fraction_within(periphery_errors, 6.0);
    table.add_row({name, std::to_string(netlist.gates().size()),
                   std::to_string(all_errors.size()), fmt_pct(n1, 1),
                   fmt_pct(n3, 1), fmt_pct(n6, 1), fmt_pct(pn6, 1),
                   fmt(seconds, 2)});
    csv += std::string(name) + "," + std::to_string(netlist.gates().size()) +
           "," + std::to_string(all_errors.size()) + "," + fmt(n1, 4) + "," +
           fmt(n3, 4) + "," + fmt(n6, 4) + "," + fmt(pn6, 4) + "," +
           fmt(seconds, 3) + "\n";
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("Library OPC runtime: %.3f s wall, %zu threads, for %zu "
              "masters + %zu pitch gratings; full-chip OPC is serial "
              "(paper shape: orders of magnitude below full-chip, which "
              "scales with design size)\n",
              library_seconds, ThreadPool::default_thread_count(),
              flow.library().size(), flow.config().table_spacings.size());
  std::printf("paper reference: ~50%% of devices within 1%%, nearly all "
              "within 6%%; most error-prone devices on the cell "
              "periphery\n");

  write_text_file("table1_opc.csv", csv);
  std::printf("\nwrote table1_opc.csv\n");
  return 0;
}
