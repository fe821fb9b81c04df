#pragma once
// The analyze/optimize job bodies shared by the direct CLI path and the
// `sva serve` daemon.
//
// A job spec is everything that shapes the result; run_*_job executes it
// against a hot SvaFlow/SizedLibrary and returns the exact bytes a direct
// CLI run prints (output text + named artifacts) plus the exit code.
// Both the local commands and the daemon executor call the same two
// functions, so a result shipped over the socket is bit-identical to the
// local run by construction -- there is no second rendering path to
// drift.  (The one nondeterministic line, analyze's "(N circuits, T
// threads, X s)" wall-time trailer, is nondeterministic between *any*
// two runs; comparisons strip it exactly as scripts/check.sh always has.)
//
// Checkpoint/resume stays a local-only affair: the daemon never journals
// client runs (specs arrive with empty paths), while the local commands
// plumb --checkpoint/--resume through the same spec fields.

#include <cstdint>
#include <string>
#include <vector>

#include "opt/eco.hpp"
#include "util/cancel.hpp"

namespace sva {

class SvaFlow;
class SizedLibrary;
class ThreadPool;

/// One multi-circuit corner-analysis job (the `analyze` command).
struct AnalyzeJobSpec {
  std::vector<std::string> circuits;
  /// Fail fast on the first job fault instead of per-slot isolation.
  bool strict = false;
  /// Local-only: resume from / journal to these checkpoint paths.  Both
  /// empty for daemon jobs.
  std::string resume_path;
  std::string checkpoint_path;
};

/// One ECO optimization job (the `optimize` command).  Defaults mirror
/// EcoConfig so a spec built from bare CLI args behaves identically.
struct OptimizeJobSpec {
  std::string circuit;
  double clock_period_ps = 0.0;  ///< <= 0: EcoConfig's auto clock
  std::uint64_t max_moves = EcoConfig{}.max_moves;
  double window_ps = EcoConfig{}.near_critical_window_ps;
  std::uint8_t corner_mode = 0;  ///< 0 = SvaWorst, 1 = TraditionalWorst
  /// Where the caller wants the trajectory CSV; becomes an artifact name
  /// (the *caller* writes it -- the daemon never touches client paths).
  /// Empty: no CSV artifact.
  std::string csv_path = "eco_trajectory.csv";
  /// Local-only checkpoint plumbing; empty for daemon jobs.
  std::string resume_path;
  std::string checkpoint_path;

  EcoCornerMode mode() const {
    return corner_mode == 0 ? EcoCornerMode::SvaWorst
                            : EcoCornerMode::TraditionalWorst;
  }
};

/// One block-based SSTA job (the `ssta` command).
struct SstaJobSpec {
  std::string circuit;
  double clock_period_ps = 0.0;  ///< <= 0: no yield line
  double quantile = 0.999;       ///< reported upper quantile, in (0,1)
  /// Monte-Carlo cross-check sample count (0 = skip; deterministic seed,
  /// so the cross-check lines are byte-stable too).
  std::uint64_t mc_samples = 0;
  /// Chip-global share of the residual sigma, in [0,1].
  double global_share = 0.0;
  /// Criticality report CSV artifact name (caller writes it); empty: none.
  std::string csv_path = "ssta_criticality.csv";
};

/// A file the job produced, to be written by whichever process faces the
/// user (the local command or the remote client).
struct JobArtifact {
  std::string path;
  std::string bytes;
};

/// Terminal state of one job.  Exactly one of three shapes:
///   error non-empty         -> the job raised; output/artifacts empty
///   cancelled               -> wind-down text in output, exit code 4
///   otherwise               -> output + artifacts, exit code 0/1/3
struct JobResult {
  int exit_code = 0;
  std::string output;  ///< the direct run's stdout text (pre-artifact)
  std::vector<JobArtifact> artifacts;
  bool cancelled = false;
  std::uint8_t cancel_reason = 0;  ///< CancelReason as u8
  std::string error;               ///< non-empty => the job failed fatally
  /// Daemon-internal, never serialized: the executor lane crashed before
  /// the job ran (injected lane fault).  The server drops the connection
  /// without a response so the client's transient-retry path -- not its
  /// "server error" path -- handles it; nothing observable happened.
  bool lane_crashed = false;
};

/// Run a corner-analysis batch against a constructed flow.  Handles
/// resume, cancellation wind-down, and checkpoint journalling exactly as
/// the pre-daemon cmd_analyze did; a non-null `cancel` is polled at job
/// and STA-level granularity.
JobResult run_analyze_job(const SvaFlow& flow, ThreadPool& pool,
                          const AnalyzeJobSpec& spec,
                          const CancelToken* cancel);

/// Run an ECO optimization against a constructed flow + sized library.
JobResult run_optimize_job(const SvaFlow& flow, const SizedLibrary& sized,
                           ThreadPool& pool, const OptimizeJobSpec& spec,
                           const CancelToken* cancel);

/// Run a block-based SSTA analysis (canonical propagation + criticality,
/// optional Monte-Carlo cross-check) against a constructed flow.  A
/// non-fatal spec or circuit fault comes back as an error result with a
/// structured diagnostic rather than an exception, mirroring the batch
/// runner's per-job isolation.  Propagation is serial (no circuit has
/// levels wide enough to pay for a split), so `pool` is unused; it stays
/// in the signature so every job entry point takes the same arguments.
/// A non-null `cancel` is polled per gate and per MC sample.
JobResult run_ssta_job(const SvaFlow& flow, ThreadPool& pool,
                       const SstaJobSpec& spec, const CancelToken* cancel);

/// Deliver a finished job to the user: print the output text, write each
/// artifact (with the "wrote <path>" trailer the CLI always printed), or
/// report the error on stderr.  Returns the process exit code.  Shared
/// by the local commands and the remote client, so both faces of a job
/// are byte-identical.
int emit_job_result(const JobResult& result);

}  // namespace sva
