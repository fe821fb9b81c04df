#pragma once
// Thread-safe structured diagnostics: the machine-readable record of every
// degradation the system survived.
//
// Logging answers "what happened, in order"; this sink answers "what went
// wrong, classified".  Every graceful-degradation site -- a quarantined
// cache snapshot, a per-cell OPC fallback, an isolated batch-job failure --
// reports one Diagnostic with a severity, the component that degraded, a
// stable error code scripts can grep/assert on, and a human message.  Each
// report also logs at the matching level and feeds MetricsRegistry
// ("diagnostics.warning", "diag.<code>", ...), so --metrics shows degraded
// runs and --diagnostics renders the full classified report.
//
// Severity totals are exact even past the storage cap; only the per-entry
// detail is bounded (soak runs cannot grow memory without bound).

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sva {

/// How a flow reacts to a recoverable fault: Strict propagates (fail
/// fast, exit non-zero); Degrade falls back to the documented conservative
/// behaviour and records a Diagnostic.  The CLI's --strict/--keep-going.
enum class FaultPolicy { Strict, Degrade };

enum class DiagSeverity { Info = 0, Warning = 1, Error = 2 };

const char* severity_label(DiagSeverity severity);  ///< "info"/"warning"/"error"

struct Diagnostic {
  DiagSeverity severity = DiagSeverity::Info;
  std::string component;  ///< subsystem: "batch", "opc", "flow", ...
  std::string code;       ///< stable machine-readable code (DESIGN.md §10)
  std::string message;    ///< human detail (circuit name, path, cause)
};

class Diagnostics {
 public:
  /// Process-wide sink; all degradation sites report here.
  static Diagnostics& global();

  void report(DiagSeverity severity, std::string component, std::string code,
              std::string message);

  std::vector<Diagnostic> snapshot() const;
  /// Total reports at `severity` (exact, including entries past the cap).
  std::uint64_t count(DiagSeverity severity) const;
  /// Stored entries whose code is `code` (capped at kMaxStored).
  std::size_t count_code(const std::string& code) const;

  /// Classified report for the CLI --diagnostics flag: one line per entry
  /// plus a severity summary; empty string when nothing was reported.
  std::string render() const;

  void reset();

  /// Stored-entry cap; severity totals keep counting past it.
  static constexpr std::size_t kMaxStored = 10000;

 private:
  mutable std::mutex mu_;
  std::vector<Diagnostic> entries_;
  std::uint64_t dropped_ = 0;
  std::uint64_t totals_[3] = {0, 0, 0};
};

/// Shorthands used at degradation sites.
void diag_info(std::string component, std::string code, std::string message);
void diag_warn(std::string component, std::string code, std::string message);
void diag_error(std::string component, std::string code, std::string message);

}  // namespace sva
