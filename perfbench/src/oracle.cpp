#include "oracle.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <dirent.h>

#include "harness.hpp"
#include "server/jobs.hpp"

namespace perfbench {

namespace {

std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::istringstream in(read_text_file(path));
  std::vector<std::vector<std::string>> rows;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (header) {
      header = false;
      continue;
    }
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  return rows;
}

void need_columns(const std::vector<std::string>& row, std::size_t n,
                  const std::string& file) {
  if (row.size() != n)
    throw std::runtime_error("malformed row in " + file);
}

}  // namespace

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

References References::load(const std::string& dir) {
  References refs;
  refs.dir_ = dir;
  for (const auto& row : read_csv(dir + "/table2.csv")) {
    need_columns(row, 9, "table2.csv");
    Table2Ref r;
    r.circuit = row[0];
    r.gates = std::stoul(row[1]);
    for (int i = 0; i < 7; ++i) r.values[i] = std::stod(row[2 + i]);
    refs.table2_.push_back(r);
  }
  std::istringstream anchor(read_text_file(dir + "/anchor.txt"));
  anchor >> refs.anchor_circuit_ >> refs.anchor_;
  if (refs.anchor_.empty()) throw std::runtime_error("malformed anchor.txt");
  for (const auto& row : read_csv(dir + "/ssta.csv")) {
    need_columns(row, 3, "ssta.csv");
    refs.ssta_.push_back({row[0], std::stod(row[1]), std::stod(row[2])});
  }
  for (const auto& row : read_csv(dir + "/eco.csv")) {
    need_columns(row, 6, "eco.csv");
    refs.eco_.push_back({row[0], row[1], std::stod(row[2]), std::stoul(row[3]),
                         std::stoul(row[4]), std::stod(row[5])});
  }
  const std::string golden_dir = dir + "/golden";
  if (DIR* d = ::opendir(golden_dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".txt") == 0)
        refs.golden_[name.substr(0, name.size() - 4)] =
            read_text_file(golden_dir + "/" + name);
    }
    ::closedir(d);
  }
  if (refs.table2_.empty() || refs.ssta_.empty() || refs.eco_.empty() ||
      refs.golden_.empty())
    throw std::runtime_error("incomplete references in " + dir);
  return refs;
}

const SstaRef* References::ssta(const std::string& circuit) const {
  for (const SstaRef& r : ssta_)
    if (r.circuit == circuit) return &r;
  return nullptr;
}

const EcoRef* References::eco(const std::string& circuit,
                              const std::string& corner) const {
  for (const EcoRef& r : eco_)
    if (r.circuit == circuit && r.corner == corner) return &r;
  return nullptr;
}

const std::string& References::golden(const std::string& key) const {
  const auto it = golden_.find(key);
  if (it == golden_.end())
    throw std::runtime_error("no golden/" + key + ".txt in " + dir_);
  return it->second;
}

std::string job_digest(const sva::JobResult& result) {
  std::string out = "exit " + std::to_string(result.exit_code) + "\n";
  if (result.cancelled) out += "cancelled\n";
  if (!result.error.empty()) out += "error " + result.error + "\n";
  for (const sva::JobArtifact& a : result.artifacts)
    out += "artifact " + a.path + " " + std::to_string(a.bytes.size()) + " " +
           fnv1a_hex(a.bytes) + "\n";
  out += "--- output\n";
  out += strip_wall_trailer(result.output);
  return out;
}

std::string reorder_analyze_digest(const std::string& golden,
                                   const std::vector<std::string>& order) {
  // Layout: digest preamble up to "--- output", then the table header and
  // its rule, then one row per circuit starting with the circuit name.
  const std::string marker = "--- output\n";
  const std::size_t at = golden.find(marker);
  if (at == std::string::npos) return {};
  std::istringstream in(golden.substr(at + marker.size()));
  std::string header, rule, line;
  std::getline(in, header);
  std::getline(in, rule);
  std::map<std::string, std::string> rows;
  while (std::getline(in, line)) {
    const std::string name = line.substr(0, line.find(' '));
    rows[name] = line;
  }
  std::string out = golden.substr(0, at + marker.size());
  out += header + "\n" + rule + "\n";
  for (const std::string& c : order) {
    const auto it = rows.find(c);
    if (it == rows.end()) return {};
    out += it->second + "\n";
  }
  return out;
}

bool same_at(double value, double ref, int decimals) {
  char a[64], b[64];
  std::snprintf(a, sizeof a, "%.*f", decimals, value);
  std::snprintf(b, sizeof b, "%.*f", decimals, ref);
  return std::string(a) == b;
}

}  // namespace perfbench
