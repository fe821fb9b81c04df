#include "server/jobs.hpp"

#include <cstdarg>
#include <cstdio>
#include <utility>

#include "core/flow.hpp"
#include "core/statistical.hpp"
#include "engine/batch.hpp"
#include "engine/options.hpp"
#include "engine/thread_pool.hpp"
#include "opt/sizing.hpp"
#include "opt/trajectory.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "ssta/criticality.hpp"
#include "ssta/propagate.hpp"
#include "ssta/report.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace sva {

namespace {

void appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  out += buf;
}

/// The wind-down trailer of a cancelled run: reason, and where the
/// journal went (empty `ckpt` => none was written).  Byte-for-byte the
/// text the pre-daemon CLI printed.
void append_cancel_report(std::string& out, const CancelToken& token,
                          const std::string& ckpt) {
  appendf(out, "run cancelled (%s)%s\n", cancel_reason_name(token.reason()),
          token.reason() == CancelReason::Deadline ? ": deadline exceeded"
                                                   : "");
  if (!ckpt.empty())
    appendf(out, "checkpoint written to %s; continue with --resume %s\n",
            ckpt.c_str(), ckpt.c_str());
}

JobResult cancelled_result(std::string output, const CancelToken& token) {
  JobResult result;
  result.exit_code = kExitCancelled;
  result.output = std::move(output);
  result.cancelled = true;
  result.cancel_reason = static_cast<std::uint8_t>(token.reason());
  return result;
}

}  // namespace

JobResult run_analyze_job(const SvaFlow& flow, ThreadPool& pool,
                          const AnalyzeJobSpec& spec,
                          const CancelToken* cancel) {
  BatchOptions batch_opts;
  batch_opts.keep_going = !spec.strict;
  batch_opts.cancel = cancel;
  std::vector<BatchJob> jobs;
  jobs.reserve(spec.circuits.size());
  for (const std::string& name : spec.circuits) jobs.push_back({name});
  // --resume: reload the interrupted run's journal (hash-verified against
  // this flow + job list) so final slots are copied, not recomputed.
  BatchResult prior;
  const bool resuming = !spec.resume_path.empty();
  if (resuming) prior = load_batch_checkpoint(spec.resume_path, flow, jobs);
  const BatchRunner runner(flow, pool, batch_opts);
  const BatchResult batch = runner.run(jobs, resuming ? &prior : nullptr);
  JobResult result;
  if (batch.cancelled_count() > 0) {
    // Journal the final slots and report the documented cancelled exit
    // code.  A failed journal write (disk full, injected fault) does not
    // mask the cancellation -- it only costs the resume file.  Daemon
    // jobs arrive with no checkpoint path and simply skip the journal.
    std::string ckpt = spec.checkpoint_path;
    if (!ckpt.empty()) {
      try {
        save_batch_checkpoint(ckpt, flow, jobs, batch);
      } catch (const std::exception& e) {
        log_warn("checkpoint write failed (", e.what(), ")");
        ckpt.clear();
      }
    }
    appendf(result.output, "%zu/%zu jobs complete\n",
            jobs.size() - batch.cancelled_count(), jobs.size());
    append_cancel_report(result.output, *cancel, ckpt);
    result.exit_code = kExitCancelled;
    result.cancelled = true;
    result.cancel_reason = static_cast<std::uint8_t>(cancel->reason());
    return result;
  }
  Table table({"Testcase", "#Gates", "Trad Nom", "Trad BC", "Trad WC",
               "New Nom", "New BC", "New WC", "Reduction"});
  for (std::size_t ji = 0; ji < batch.analyses.size(); ++ji) {
    const CircuitAnalysis& a = batch.analyses[ji];
    if (!batch.outcomes[ji].ok) {
      table.add_row({a.name, "FAILED", "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    table.add_row({a.name, std::to_string(a.gate_count),
                   fmt(units::ps_to_ns(a.trad_nom_ps), 3),
                   fmt(units::ps_to_ns(a.trad_bc_ps), 3),
                   fmt(units::ps_to_ns(a.trad_wc_ps), 3),
                   fmt(units::ps_to_ns(a.sva_nom_ps), 3),
                   fmt(units::ps_to_ns(a.sva_bc_ps), 3),
                   fmt(units::ps_to_ns(a.sva_wc_ps), 3),
                   fmt_pct(a.uncertainty_reduction(), 1)});
  }
  result.output += table.render();
  appendf(result.output, "(%zu circuits, %zu threads, %.2f s)\n",
          batch.analyses.size(), pool.thread_count(), batch.wall_seconds);
  if (!batch.all_ok()) {
    appendf(result.output,
            "%zu job(s) failed; run with --diagnostics for details\n",
            batch.failed_count());
    result.exit_code = kExitJobsFailed;
  }
  return result;
}

JobResult run_optimize_job(const SvaFlow& flow, const SizedLibrary& sized,
                           ThreadPool& pool, const OptimizeJobSpec& spec,
                           const CancelToken* cancel) {
  EcoConfig eco;
  eco.clock_period_ps = spec.clock_period_ps;
  eco.max_moves = spec.max_moves;
  eco.near_critical_window_ps = spec.window_ps;
  eco.mode = spec.mode();
  eco.budget = flow.config().budget;
  eco.arc_policy = flow.config().arc_policy;
  eco.sta = flow.config().sta;
  Netlist netlist = generate_iscas85_like(spec.circuit, sized.library());
  EcoOptimizer optimizer(sized, std::move(netlist), flow.config().placement,
                         eco);
  // --resume: replay the interrupted run's journal (hash-verified, each
  // move witness-checked bit-for-bit) before continuing the loop.
  if (!spec.resume_path.empty()) optimizer.restore(spec.resume_path);
  const EcoResult eco_result = optimizer.run(&pool, cancel);
  if (eco_result.cancelled) {
    std::string ckpt = spec.checkpoint_path;
    if (!ckpt.empty()) {
      try {
        optimizer.checkpoint(ckpt);
      } catch (const std::exception& e) {
        log_warn("checkpoint write failed (", e.what(), ")");
        ckpt.clear();
      }
    }
    std::string output;
    appendf(output, "%zu move(s) committed before cancellation\n",
            eco_result.moves_committed());
    append_cancel_report(output, *cancel, ckpt);
    return cancelled_result(std::move(output), *cancel);
  }
  JobResult result;
  result.output = trajectory_table(eco_result);
  if (!spec.csv_path.empty())
    result.artifacts.push_back({spec.csv_path, trajectory_csv(eco_result)});
  result.exit_code = eco_result.met_timing ? kExitOk : kExitFatal;
  return result;
}

JobResult run_ssta_job(const SvaFlow& flow, ThreadPool& /*pool*/,
                       const SstaJobSpec& spec, const CancelToken* cancel) {
  JobResult result;
  try {
    if (!(spec.quantile > 0.0 && spec.quantile < 1.0))
      throw Error("ssta quantile must be in (0,1)");
    if (!(spec.global_share >= 0.0 && spec.global_share <= 1.0))
      throw Error("ssta global share must be in [0,1]");

    const Netlist netlist = flow.make_benchmark(spec.circuit);
    const Placement placement = flow.make_placement(netlist);
    const std::vector<VersionKey> versions = flow.bind_versions(placement);

    SstaVariationModel model;
    model.budget = flow.config().budget;
    model.policy = flow.config().arc_policy;
    model.global_share = spec.global_share;
    const SstaEngine engine(netlist, flow.characterized(),
                            flow.context_library(), versions, model,
                            flow.config().sta);
    const SstaResult ssta = engine.run(cancel);
    const CriticalityResult crit = compute_criticality(netlist, ssta);

    result.output = ssta_text_report(netlist, ssta, crit, spec.quantile,
                                     spec.clock_period_ps);
    if (spec.mc_samples > 0) {
      // Deterministic-seed Monte-Carlo cross-check against the same
      // variation model (the context-aware sampler is the oracle the
      // canonical engine approximates).
      const Sta sta(netlist, flow.characterized(), flow.config().sta);
      const ContextAwareSampler sampler(
          netlist, flow.context_library(), versions, flow.config().budget,
          flow.config().arc_policy, spec.global_share);
      MonteCarloConfig mc;
      mc.samples = spec.mc_samples;
      const DelayDistribution dist = run_monte_carlo(sta, sampler, mc, cancel);
      const Summary s = dist.summary();
      const CanonicalDelay& c = ssta.critical;
      appendf(result.output,
              "  Monte-Carlo cross-check (%zu samples): mean %s ns (%+.2f%%),"
              " sigma %s ps (%+.2f%%)\n",
              static_cast<std::size_t>(mc.samples),
              fmt(units::ps_to_ns(s.mean), 4).c_str(),
              100.0 * (c.mean_ps - s.mean) / s.mean,
              fmt(s.stddev, 2).c_str(),
              s.stddev > 0.0 ? 100.0 * (c.sigma_ps() - s.stddev) / s.stddev
                             : 0.0);
    }
    if (!spec.csv_path.empty())
      result.artifacts.push_back(
          {spec.csv_path, criticality_csv(netlist, ssta, crit)});
    result.exit_code = kExitOk;
  } catch (const CancelledError&) {
    std::string output;
    append_cancel_report(output, *cancel, std::string());
    return cancelled_result(std::move(output), *cancel);
  } catch (const std::exception& e) {
    // Per-job isolation, matching the batch runner: a bad circuit name or
    // injected fault costs this job only and leaves a structured trace.
    diag_error("ssta", "ssta_job_failed",
               spec.circuit + ": " + std::string(e.what()));
    result = JobResult{};
    result.exit_code = kExitFatal;
    result.error = e.what();
  }
  return result;
}

int emit_job_result(const JobResult& result) {
  if (!result.error.empty()) {
    std::fprintf(stderr, "error: %s\n", result.error.c_str());
    return result.exit_code != 0 ? result.exit_code : kExitFatal;
  }
  std::fwrite(result.output.data(), 1, result.output.size(), stdout);
  for (const JobArtifact& artifact : result.artifacts) {
    write_text_file(artifact.path, artifact.bytes);
    std::printf("wrote %s\n", artifact.path.c_str());
  }
  return result.exit_code;
}

}  // namespace sva
