#pragma once
// Cooperative cancellation and wall-clock deadlines for long runs.
//
// A CancelToken is a shared flag that long loops poll at iteration
// granularity: the batch runner between jobs, SvaFlow::analyze between
// corner runs, the ECO optimizer between commit iterations,
// parallel_for between chunks.  Nothing is ever interrupted mid-computation -- a
// cancelled operation finishes (or discards) the unit it is on and stops
// at the next poll site, which is what makes checkpointed state always a
// prefix of an uninterrupted run.
//
// Two poll tiers keep the hot paths free:
//   cancelled()  one relaxed atomic load -- safe anywhere, any frequency;
//   poll()       cancelled() plus the deadline comparison; expiry trips
//                the flag, so after the first expired poll every
//                subsequent cancelled() sees it too.
//
// Signals: install_cancel_signal_handlers() routes SIGINT/SIGTERM into
// global_cancel_token() with an async-signal-safe handler (two lock-free
// atomic stores, nothing else).  The CLI installs it once at startup; the
// run then winds down cooperatively and exits with the documented
// "cancelled" exit code after writing its checkpoint.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/error.hpp"

namespace sva {

/// Raised at a poll site once the token is tripped.  Deliberately NOT an
/// sva::Error subclass: cancellation is not a fault, and the graceful-
/// degradation handlers (batch job isolation, cache cold-start fallbacks)
/// must never swallow it as one.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Why a token tripped; the first request wins and is sticky.
enum class CancelReason : int {
  None = 0,
  Api = 1,
  Signal = 2,
  Deadline = 3,
  /// The server watchdog declared the job stuck (no heartbeat progress).
  Watchdog = 4,
};

const char* cancel_reason_name(CancelReason reason);

/// A wall-clock deadline (monotonic clock, so a system-time step can
/// neither extend nor shorten a run).  Value type; cheap to copy.
class Deadline {
 public:
  /// No deadline: never expires.
  Deadline() = default;

  static Deadline after_seconds(double seconds);

  bool valid() const { return valid_; }
  bool expired() const {
    return valid_ && std::chrono::steady_clock::now() >= at_;
  }
  /// Seconds until expiry (negative once past); +inf when not valid().
  double remaining_seconds() const;

 private:
  std::chrono::steady_clock::time_point at_{};
  bool valid_ = false;
};

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Hot-path check: one relaxed load, no clock read.  True once the
  /// token tripped (request_cancel or an expired deadline seen by poll).
  bool cancelled() const {
    return tripped_.load(std::memory_order_relaxed);
  }

  /// Iteration-granularity check: cancelled() plus the deadline
  /// comparison.  An expired deadline trips the flag, so the transition
  /// is observed exactly once and is sticky.
  bool poll() const;

  /// poll(), throwing CancelledError when tripped.  The message names the
  /// reason ("cancelled by signal", "deadline exceeded", ...).
  void check() const;

  /// Trip the token.  First caller's reason sticks.  Async-signal-safe
  /// when called with CancelReason::Signal (lock-free atomic stores only).
  void request_cancel(CancelReason reason = CancelReason::Api,
                      int signal_number = 0) const;

  /// Arm (or replace) the wall-clock deadline.  Not thread-safe against
  /// concurrent poll() -- arm before handing the token to workers.
  void set_deadline(const Deadline& deadline) { deadline_ = deadline; }
  const Deadline& deadline() const { return deadline_; }

  /// Liveness hook for the server watchdog: while set, every poll()
  /// increments `beat` (relaxed), so a watchdog distinguishes "long but
  /// cooperative" from "stuck between poll sites".  cancelled() stays one
  /// relaxed load and never beats.  Arm before handing the token to
  /// workers, like set_deadline.
  void set_heartbeat(std::atomic<std::uint64_t>* beat) { heartbeat_ = beat; }

  CancelReason reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_acquire));
  }
  /// Signal number behind a CancelReason::Signal trip (0 otherwise).
  int signal_number() const {
    return signo_.load(std::memory_order_acquire);
  }

  /// Re-arm for another run (tests; the CLI never resets).
  void reset();

 private:
  mutable std::atomic<bool> tripped_{false};
  mutable std::atomic<int> reason_{0};
  mutable std::atomic<int> signo_{0};
  Deadline deadline_;
  std::atomic<std::uint64_t>* heartbeat_ = nullptr;
};

/// The process-wide token the CLI threads through every command.
CancelToken& global_cancel_token();

/// Route SIGINT and SIGTERM into global_cancel_token().  Idempotent.  The
/// handler performs only lock-free atomic stores; a second signal while
/// the first is still winding down is absorbed by the sticky flag (send
/// SIGKILL to force an immediate kill).
void install_cancel_signal_handlers();

}  // namespace sva
