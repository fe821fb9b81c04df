#pragma once
// Pinned references the benchmark checks every output against (files
// under perfbench/ref/), and the canonical digest of a job result.
//
//   table2.csv   Table 2 rows of the 10 built-in circuits, 4 decimals
//                (the first five rows are table2_timing.csv's);
//   anchor.txt   the C432 anchor row as the CLI prints it;
//   ssta.csv     SSTA critical-delay mean and sigma, 3 decimals
//                (C432/C880/C1908 from BENCH_ssta.json);
//   eco.csv      ECO closure rows: moves, candidates, final worst slack
//                (C432/C880/C1355 from BENCH_eco.json);
//   golden/*.txt job digests (exit code, output without the wall-time
//                trailer, artifact sizes and hashes).

#include <map>
#include <string>
#include <vector>

namespace sva {
struct JobResult;
}

namespace perfbench {

struct Table2Ref {
  std::string circuit;
  std::size_t gates = 0;
  /// trad nom/bc/wc, sva nom/bc/wc in ns, then the reduction fraction.
  double values[7] = {};
};

struct SstaRef {
  std::string circuit;
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
};

struct EcoRef {
  std::string circuit;
  std::string corner;  ///< "sva" or "trad"
  double clock_ps = 0.0;
  std::size_t moves = 0;
  std::size_t candidates = 0;
  double final_ws_ps = 0.0;
};

class References {
 public:
  /// Reads every reference file under `dir`; throws std::runtime_error
  /// when one is missing or malformed.
  static References load(const std::string& dir);

  const std::vector<Table2Ref>& table2() const { return table2_; }
  const std::string& anchor_circuit() const { return anchor_circuit_; }
  const std::string& anchor() const { return anchor_; }
  const SstaRef* ssta(const std::string& circuit) const;
  const EcoRef* eco(const std::string& circuit,
                    const std::string& corner) const;
  /// Contents of golden/<key>.txt; throws when absent.
  const std::string& golden(const std::string& key) const;

 private:
  std::string dir_;
  std::vector<Table2Ref> table2_;
  std::string anchor_circuit_;
  std::string anchor_;
  std::vector<SstaRef> ssta_;
  std::vector<EcoRef> eco_;
  std::map<std::string, std::string> golden_;
};

/// Canonical text of a job result: exit code, error, the output without
/// its wall-time trailer, and each artifact's path, size and FNV-1a hash.
std::string job_digest(const sva::JobResult& result);

/// The digest an analyze job over `order` must produce, built from the
/// golden digest of the same circuits in any other order (the rows of
/// the Table 2 report are independent of each other).  Empty when a
/// circuit of `order` has no golden row.
std::string reorder_analyze_digest(const std::string& golden,
                                   const std::vector<std::string>& order);

/// `value` and `ref` agree when both print the same with `decimals`
/// fractional digits.
bool same_at(double value, double ref, int decimals);

std::string read_text_file(const std::string& path);
void write_text(const std::string& path, const std::string& text);

}  // namespace perfbench
