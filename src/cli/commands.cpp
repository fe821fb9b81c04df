#include "cli/commands.hpp"

#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "cell/liberty_writer.hpp"
#include "core/flow.hpp"
#include "engine/thread_pool.hpp"
#include "litho/pitch_curve.hpp"
#include "netlist/bench_format.hpp"
#include "netlist/verilog.hpp"
#include "opt/sizing.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "server/client.hpp"
#include "server/jobs.hpp"
#include "server/server.hpp"
#include "sta/path_report.hpp"
#include "util/cache_gc.hpp"
#include "util/cancel.hpp"
#include "util/serialize.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace sva {

namespace {

/// Flow configuration with the persistent-cache directory plumbed in, so
/// SvaFlow construction itself warm-starts (library OPC + pitch table
/// restored from the setup snapshot).
FlowConfig flow_config(const EngineOptions& opts) {
  FlowConfig cfg;
  if (opts.cache_enabled()) cfg.cache_dir = opts.cache_dir;
  cfg.fault_policy = opts.fault_policy();
  return cfg;
}

/// The checkpoint file a cancelled run journals to: --checkpoint PATH, or
/// the command's documented default in the working directory.
std::string checkpoint_path(const EngineOptions& opts,
                            const char* command_default) {
  return opts.checkpoint_path.empty() ? command_default
                                      : opts.checkpoint_path;
}

/// Remote jobs run in the daemon's process; checkpoint journals would
/// land on the server's disk where no --resume can find them, so the
/// combination is refused up front.
void reject_checkpoint_flags_remote(const EngineOptions& opts) {
  if (!opts.resume_path.empty() || !opts.checkpoint_path.empty())
    throw std::runtime_error(
        "--resume/--checkpoint cannot be combined with --connect "
        "(daemon jobs are not journalled)");
}

/// --deadline SEC as the per-request deadline_ms a daemon job carries.
std::uint64_t remote_deadline_ms(const EngineOptions& opts) {
  return opts.deadline_seconds > 0.0
             ? static_cast<std::uint64_t>(opts.deadline_seconds * 1000.0)
             : 0;
}

/// --retries N as the client's transient-retry budget.
ClientRetryConfig client_retry(const EngineOptions& opts) {
  ClientRetryConfig retry;
  retry.retries = static_cast<int>(opts.retries);
  return retry;
}

int cmd_list(std::vector<std::string>&, const EngineOptions&) {
  Table table({"Benchmark", "PIs", "POs", "Gates"});
  for (const auto& spec : iscas85_specs())
    table.add_row({spec.name, std::to_string(spec.primary_inputs),
                   std::to_string(spec.primary_outputs),
                   std::to_string(spec.gate_count)});
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_analyze(std::vector<std::string>& args, const EngineOptions& opts) {
  if (args.empty()) return usage();
  AnalyzeJobSpec spec;
  spec.circuits = args;
  spec.strict = opts.strict;
  if (!opts.connect_path.empty()) {
    reject_checkpoint_flags_remote(opts);
    return run_remote_analyze(opts.connect_path,
                              {spec, remote_deadline_ms(opts)},
                              client_retry(opts));
  }
  spec.resume_path = opts.resume_path;
  spec.checkpoint_path = checkpoint_path(opts, "sva_analyze.ckpt");
  const SvaFlow flow{flow_config(opts)};
  ThreadPool pool(opts.threads);
  const JobResult result =
      run_analyze_job(flow, pool, spec, &global_cancel_token());
  return emit_job_result(result);
}

int cmd_paths(std::vector<std::string>& args, const EngineOptions& opts) {
  if (args.empty()) return usage();
  const std::string name = args[0];
  std::size_t k = 3;
  for (std::size_t i = 1; i < args.size(); ++i)
    if (args[i] == "-n") k = parse_size_flag("-n", flag_value(args, i));
  const SvaFlow flow{flow_config(opts)};
  const Netlist netlist = flow.make_benchmark(name);
  const Placement placement = flow.make_placement(netlist);
  const Sta sta(netlist, flow.characterized(), flow.config().sta);
  const auto nps = extract_nps(placement);
  const auto versions = assign_versions(nps, flow.config().bins);
  const SvaCornerScale wc(netlist, flow.context_library(), versions,
                          flow.config().budget, Corner::Worst,
                          flow.config().arc_policy, &nps);
  const StaResult result = sta.run(wc);
  const auto paths = worst_paths(netlist, sta, wc, k);
  std::printf("%s: SVA worst-case design delay %.3f ns\n\n", name.c_str(),
              units::ps_to_ns(result.critical_delay_ps));
  std::printf("%s", render_paths(netlist, paths, result).c_str());
  return 0;
}

/// optimize's circuit + flag tokens -> job spec; shared by cmd_optimize
/// and `sva batch` file lines so both paths accept the same grammar.
OptimizeJobSpec parse_optimize_spec(const std::vector<std::string>& args) {
  OptimizeJobSpec spec;
  spec.circuit = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string flag = args[i];
    if (flag == "--clock") {
      spec.clock_period_ps =
          parse_double_flag(flag, flag_value(args, i)) * 1000.0;
    } else if (flag == "--max-moves") {
      spec.max_moves = parse_size_flag(flag, flag_value(args, i));
    } else if (flag == "--window") {
      spec.window_ps = parse_double_flag(flag, flag_value(args, i));
    } else if (flag == "--corner") {
      const std::string& mode = flag_value(args, i);
      if (mode == "sva") {
        spec.corner_mode = 0;
      } else if (mode == "trad") {
        spec.corner_mode = 1;
      } else {
        throw std::runtime_error("--corner expects 'sva' or 'trad', got '" +
                                 mode + "'");
      }
    } else if (flag == "--csv") {
      spec.csv_path = flag_value(args, i);
    } else {
      throw std::runtime_error("unknown optimize flag '" + flag + "'");
    }
  }
  return spec;
}

/// ssta's circuit + flag tokens -> job spec (same sharing as above).
SstaJobSpec parse_ssta_spec(const std::vector<std::string>& args) {
  SstaJobSpec spec;
  spec.circuit = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string flag = args[i];
    if (flag == "--clock") {
      spec.clock_period_ps =
          parse_double_flag(flag, flag_value(args, i)) * 1000.0;
    } else if (flag == "--quantile") {
      spec.quantile = parse_double_flag(flag, flag_value(args, i));
    } else if (flag == "--mc") {
      spec.mc_samples = parse_size_flag(flag, flag_value(args, i));
    } else if (flag == "--global-share") {
      spec.global_share = parse_double_flag(flag, flag_value(args, i));
    } else if (flag == "--csv") {
      spec.csv_path = flag_value(args, i);
    } else {
      throw std::runtime_error("unknown ssta flag '" + flag + "'");
    }
  }
  return spec;
}

int cmd_optimize(std::vector<std::string>& args, const EngineOptions& opts) {
  if (args.empty()) return usage();
  OptimizeJobSpec spec = parse_optimize_spec(args);
  if (!opts.connect_path.empty()) {
    reject_checkpoint_flags_remote(opts);
    return run_remote_optimize(opts.connect_path,
                               {spec, remote_deadline_ms(opts)},
                               client_retry(opts));
  }
  spec.resume_path = opts.resume_path;
  spec.checkpoint_path = checkpoint_path(opts, "sva_optimize.ckpt");
  const SvaFlow flow{flow_config(opts)};
  const SizedLibrary sized(flow.library(), flow.config().electrical,
                           flow.library_opc_results(), flow.boundary_model(),
                           flow.config().bins);
  ThreadPool pool(opts.threads);
  const JobResult result =
      run_optimize_job(flow, sized, pool, spec, &global_cancel_token());
  return emit_job_result(result);
}

int cmd_ssta(std::vector<std::string>& args, const EngineOptions& opts) {
  if (args.empty()) return usage();
  SstaJobSpec spec = parse_ssta_spec(args);
  if (!opts.connect_path.empty()) {
    reject_checkpoint_flags_remote(opts);
    return run_remote_ssta(opts.connect_path, {spec, remote_deadline_ms(opts)},
                           client_retry(opts));
  }
  const SvaFlow flow{flow_config(opts)};
  ThreadPool pool(opts.threads);
  const JobResult result =
      run_ssta_job(flow, pool, spec, &global_cancel_token());
  return emit_job_result(result);
}

/// `sva batch FILE --connect URI`: ship every job line of FILE to the
/// daemon in one BatchRequest over one connection.  Each non-empty,
/// non-'#' line is `analyze|optimize|ssta <args...>` with exactly the
/// grammar of the standalone command; results come back in file order,
/// and a malformed or failing line poisons only its own slot.
int cmd_batch(std::vector<std::string>& args, const EngineOptions& opts) {
  if (args.size() != 1) return usage();
  if (opts.connect_path.empty()) {
    std::fprintf(stderr, "batch requires --connect URI\n");
    return usage();
  }
  reject_checkpoint_flags_remote(opts);
  const std::string text = read_file_bytes(args[0]);

  BatchRequest request;
  std::vector<std::string> labels;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;

    std::vector<std::string> tokens;
    std::size_t pos = 0;
    while (pos < line.size()) {
      while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
      const std::size_t start = pos;
      while (pos < line.size() && !std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
      if (pos > start) tokens.push_back(line.substr(start, pos - start));
    }
    if (tokens.empty() || tokens[0][0] == '#') continue;

    const std::string verb = tokens[0];
    std::vector<std::string> rest(tokens.begin() + 1, tokens.end());
    if (rest.empty())
      throw std::runtime_error("batch line '" + line +
                               "': expected a benchmark after '" + verb + "'");
    BatchItem item;
    if (verb == "analyze") {
      AnalyzeJobSpec spec;
      spec.circuits = rest;
      spec.strict = opts.strict;
      item.kind = static_cast<std::uint8_t>(MsgType::AnalyzeRequest);
      item.body = encode_analyze_request({spec, remote_deadline_ms(opts)});
    } else if (verb == "optimize") {
      item.kind = static_cast<std::uint8_t>(MsgType::OptimizeRequest);
      item.body = encode_optimize_request(
          {parse_optimize_spec(rest), remote_deadline_ms(opts)});
    } else if (verb == "ssta") {
      item.kind = static_cast<std::uint8_t>(MsgType::SstaRequest);
      item.body = encode_ssta_request(
          {parse_ssta_spec(rest), remote_deadline_ms(opts)});
    } else {
      throw std::runtime_error("batch line '" + line +
                               "': unknown job kind '" + verb +
                               "' (expected analyze, optimize, or ssta)");
    }
    request.items.push_back(std::move(item));
    labels.push_back(line);
  }
  if (request.items.empty())
    throw std::runtime_error("batch file '" + args[0] +
                             "' contains no job lines");
  return run_remote_batch(opts.connect_path, request, labels,
                          client_retry(opts));
}

int cmd_serve(std::vector<std::string>& args, const EngineOptions& opts) {
  ServerConfig cfg;
  // The daemon caches clean analyze/ssta results by default; --result-cache 0
  // turns it off.
  cfg.result_cache_capacity = 128;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string flag = args[i];
    if (flag == "--socket") {
      cfg.socket_path = flag_value(args, i);
    } else if (flag == "--listen") {
      cfg.listen_address = flag_value(args, i);
    } else if (flag == "--max-conns") {
      cfg.max_conns = parse_size_flag(flag, flag_value(args, i));
      if (cfg.max_conns == 0)
        throw std::runtime_error("--max-conns expects a positive integer");
    } else if (flag == "--read-timeout-ms") {
      cfg.conn_limits.read_timeout_ms =
          parse_size_flag(flag, flag_value(args, i));
    } else if (flag == "--write-timeout-ms") {
      cfg.conn_limits.write_timeout_ms =
          parse_size_flag(flag, flag_value(args, i));
    } else if (flag == "--idle-timeout-ms") {
      cfg.conn_limits.idle_timeout_ms =
          parse_size_flag(flag, flag_value(args, i));
    } else if (flag == "--queue-depth") {
      cfg.queue_depth = parse_size_flag(flag, flag_value(args, i));
      if (cfg.queue_depth == 0)
        throw std::runtime_error("--queue-depth expects a positive integer");
    } else if (flag == "--lanes") {
      cfg.lanes = parse_size_flag(flag, flag_value(args, i));
      if (cfg.lanes == 0)
        throw std::runtime_error("--lanes expects a positive integer");
    } else if (flag == "--result-cache") {
      cfg.result_cache_capacity = parse_size_flag(flag, flag_value(args, i));
    } else if (flag == "--watchdog-stall-ms") {
      cfg.watchdog_stall_ms = parse_size_flag(flag, flag_value(args, i));
    } else if (flag == "--watchdog-grace-ms") {
      cfg.watchdog_grace_ms = parse_size_flag(flag, flag_value(args, i));
    } else {
      throw std::runtime_error("unknown serve flag '" + flag + "'");
    }
  }
  if (cfg.socket_path.empty() && cfg.listen_address.empty()) {
    std::fprintf(stderr,
                 "serve requires --socket PATH and/or --listen HOST:PORT\n");
    return usage();
  }
  // Announce the bound endpoints on stdout: with --listen HOST:0 the
  // kernel picks the port, and scripts discover it from this line.
  cfg.announce = true;
  // Pay the expensive setup exactly once: the flow (library OPC, pitch
  // table, context table) stays hot for every job the daemon answers.
  const SvaFlow flow{flow_config(opts)};
  ThreadPool pool(opts.threads);
  TimingServer server(flow, cfg);
  return server.serve(pool, &global_cancel_token());
}

int cmd_metrics(std::vector<std::string>& args, const EngineOptions& opts) {
  if (opts.connect_path.empty()) {
    std::fprintf(stderr, "metrics requires --connect PATH\n");
    return usage();
  }
  bool json = false;
  for (const std::string& flag : args) {
    if (flag == "--json") {
      json = true;
    } else {
      throw std::runtime_error("unknown metrics flag '" + flag + "'");
    }
  }
  const MetricsResponse m = fetch_remote_metrics(opts.connect_path);
  if (json)
    std::printf("%s\n", m.json.c_str());
  else
    std::printf("server metrics:\n%s",
                m.rendered.empty() ? "  (none)\n" : m.rendered.c_str());
  return 0;
}

int cmd_ping(std::vector<std::string>&, const EngineOptions& opts) {
  if (opts.connect_path.empty()) {
    std::fprintf(stderr, "ping requires --connect PATH\n");
    return usage();
  }
  HealthResponse h;
  try {
    h = fetch_remote_health(opts.connect_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: daemon unreachable (%s)\n", e.what());
    return kExitFatal;
  }
  std::string lanes;
  for (const char state : h.lane_states) {
    if (!lanes.empty()) lanes += ' ';
    lanes += lane_state_name(static_cast<LaneState>(state));
  }
  std::printf("daemon healthy: uptime %.1f s, queue %llu/%llu, "
              "jobs served %llu, lanes poisoned %llu\n"
              "lanes: %s\n",
              static_cast<double>(h.uptime_ms) / 1000.0,
              static_cast<unsigned long long>(h.queue_depth),
              static_cast<unsigned long long>(h.queue_capacity),
              static_cast<unsigned long long>(h.jobs_served),
              static_cast<unsigned long long>(h.lanes_poisoned),
              lanes.c_str());
  return kExitOk;
}

int cmd_shutdown(std::vector<std::string>&, const EngineOptions& opts) {
  if (opts.connect_path.empty()) {
    std::fprintf(stderr, "shutdown requires --connect PATH\n");
    return usage();
  }
  request_remote_shutdown(opts.connect_path);
  std::printf("server draining\n");
  return 0;
}

int cmd_pitch_curve(std::vector<std::string>& args, const EngineOptions&) {
  const std::string out_path = args.empty() ? "" : args[0];
  const OpticsConfig optics;
  const LithoProcess process(optics, 90.0, 240.0);
  const auto curve =
      through_pitch_curve(process, 90.0, pitch_sweep(240.0, 1000.0, 30));
  Series series{"printed CD", {}, {}};
  for (const auto& p : curve) {
    series.x.push_back(p.pitch);
    series.y.push_back(p.cd);
    std::printf("%8.1f  %8.3f\n", p.pitch, p.cd);
  }
  if (!out_path.empty()) {
    write_text_file(out_path, series_to_csv({series}));
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_export_lib(std::vector<std::string>& args, const EngineOptions& opts) {
  if (args.empty()) return usage();
  const std::string path = args[0];
  const bool expanded =
      args.size() > 1 && (args[1] == "--expanded" || args[1] == "-x");
  const SvaFlow flow{flow_config(opts)};
  const std::string lib =
      expanded ? to_liberty_expanded(flow.characterized(),
                                     flow.context_library(), "sva90_context")
               : to_liberty(flow.characterized(), "sva90");
  write_text_file(path, lib);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), lib.size());
  return 0;
}

int cmd_verilog(std::vector<std::string>& args, const EngineOptions& opts) {
  if (args.size() < 2) return usage();
  const SvaFlow flow{flow_config(opts)};
  const Netlist netlist = flow.make_benchmark(args[0]);
  write_verilog_file(args[1], netlist);
  std::printf("wrote %s (%zu gates)\n", args[1].c_str(),
              netlist.gates().size());
  return 0;
}

int cmd_bench_file(std::vector<std::string>& args, const EngineOptions& opts) {
  if (args.empty()) return usage();
  const std::string path = args[0];
  const SvaFlow flow{flow_config(opts)};
  const Netlist netlist =
      load_bench_file(path, flow.library(), "bench_design");
  const Placement placement = flow.make_placement(netlist);
  const CircuitAnalysis a = flow.analyze(netlist, placement);
  std::printf("%s: %zu gates\n", path.c_str(), a.gate_count);
  std::printf("  traditional: %.3f / %.3f / %.3f ns\n",
              units::ps_to_ns(a.trad_nom_ps), units::ps_to_ns(a.trad_bc_ps),
              units::ps_to_ns(a.trad_wc_ps));
  std::printf("  SVA-aware:   %.3f / %.3f / %.3f ns  (reduction %s)\n",
              units::ps_to_ns(a.sva_nom_ps), units::ps_to_ns(a.sva_bc_ps),
              units::ps_to_ns(a.sva_wc_ps),
              fmt_pct(a.uncertainty_reduction(), 1).c_str());
  return 0;
}

/// One eviction pass over the cache directory (also runs pre-dispatch when
/// --cache-gc accompanies another command; main.cpp reuses this handler).
int cmd_cache_gc(std::vector<std::string>&, const EngineOptions& opts) {
  CacheGcConfig cfg;
  cfg.max_total_bytes = opts.cache_gc_max_mb * std::size_t{1024} * 1024;
  cfg.max_age_days = opts.cache_gc_max_age_days;
  const CacheGcStats stats = run_cache_gc(opts.cache_dir, cfg);
  std::printf("%s (%s)\n", stats.summary().c_str(), opts.cache_dir.c_str());
  return kExitOk;
}

}  // namespace

const std::vector<CommandSpec>& command_table() {
  static const std::vector<CommandSpec> kTable = {
      {"analyze", cmd_analyze, "analyze <bench...>",
       "corner analysis (traditional vs SVA); --connect runs it remotely"},
      {"paths", cmd_paths, "paths <bench> [-n K]",
       "worst K paths under the SVA WC corner"},
      {"optimize", cmd_optimize, "optimize <bench> [flags]",
       "variation-aware ECO: size + respace until the clock\n"
       "                         is met (flags: --clock NS, --max-moves K,\n"
       "                         --window PS, --corner sva|trad, --csv PATH;\n"
       "                         default clock: 97% of the unoptimized\n"
       "                         corner delay); --connect runs it remotely"},
      {"ssta", cmd_ssta, "ssta <bench> [flags]",
       "block-based statistical STA: canonical first-order\n"
       "                         delays, Clark max, per-arc criticality\n"
       "                         (flags: --clock NS, --quantile Q, --mc N,\n"
       "                         --global-share F, --csv PATH; default CSV:\n"
       "                         ssta_criticality.csv); --connect runs it\n"
       "                         remotely"},
      {"batch", cmd_batch, "batch <file>",
       "ship every job line of <file> (analyze/optimize/ssta\n"
       "                         <args...>, '#' comments) to the daemon at\n"
       "                         --connect in one connection; results arrive\n"
       "                         in file order and a bad line fails only its\n"
       "                         own slot"},
      {"serve", cmd_serve, "serve --socket PATH|--listen HOST:PORT [flags]",
       "long-lived daemon: load the library once, then answer\n"
       "                         analyze/optimize/ssta jobs from concurrent\n"
       "                         clients over a Unix socket and/or TCP\n"
       "                         (flags: --queue-depth N (8), --lanes N\n"
       "                         (hardware), --result-cache N (128, 0 = off),\n"
       "                         --max-conns N (64), --read-timeout-ms /\n"
       "                         --write-timeout-ms / --idle-timeout-ms MS\n"
       "                         (0 = off), --watchdog-stall-ms MS,\n"
       "                         --watchdog-grace-ms MS)"},
      {"metrics", cmd_metrics, "metrics [--json]",
       "server-wide metrics of the daemon at --connect PATH"},
      {"ping", cmd_ping, "ping",
       "health-probe the daemon at --connect PATH (exit 0 when\n"
       "                         it answers: uptime, queue, lane states)"},
      {"shutdown", cmd_shutdown, "shutdown",
       "gracefully drain the daemon at --connect PATH"},
      {"pitch-curve", cmd_pitch_curve, "pitch-curve [out.csv]",
       "through-pitch printed-CD curve"},
      {"export-lib", cmd_export_lib, "export-lib <out.lib> [--expanded]",
       "write the (expanded) .lib"},
      {"verilog", cmd_verilog, "verilog <bench> <out.v>",
       "dump a benchmark as Verilog"},
      {"bench", cmd_bench_file, "bench <file.bench>",
       "analyze an ISCAS .bench netlist"},
      {"list", cmd_list, "list", "built-in benchmark circuits"},
      {"cache-gc", cmd_cache_gc, "cache-gc",
       "evict old/oversized cache entries, then exit"},
  };
  return kTable;
}

int usage() {
  std::printf("usage: sva-timing <command> [args] [--threads N] [--metrics]\n");
  for (const CommandSpec& cmd : command_table())
    std::printf("  %-22s %s\n", cmd.usage_line, cmd.summary);
  std::printf(
      "global options:\n"
      "  --threads N            worker threads for analyze/optimize/serve\n"
      "                         (default: hardware concurrency)\n"
      "  --metrics              print engine counters/timers on exit\n"
      "  --metrics-json PATH    write the metrics snapshot as JSON to PATH\n"
      "                         on exit ('-' = stdout)\n"
      "  --connect URI          ship analyze/optimize/ssta/batch to the\n"
      "                         `serve` daemon at this endpoint (no local\n"
      "                         library build); URI is unix:PATH,\n"
      "                         tcp:HOST:PORT, or a bare socket path\n"
      "  --retries N            with --connect: retry transient daemon\n"
      "                         failures (busy, refused, dropped before a\n"
      "                         response) up to N times with exponential\n"
      "                         backoff + jitter (default 0)\n"
      "  --cache-dir DIR        persistent context-library cache directory\n"
      "                         (default: $SVA_CACHE_DIR or .sva_cache)\n"
      "  --no-cache             run cold; neither load nor save the cache\n"
      "  --keep-going           degrade gracefully on recoverable faults\n"
      "                         (default; warnings via --diagnostics)\n"
      "  --strict               fail fast: any recoverable fault aborts\n"
      "                         the run with exit code 1\n"
      "  --diagnostics          print the structured diagnostics report\n"
      "                         (severity, component, error code) on exit\n"
      "  --deadline SEC         wall-clock time box: expiry winds the run\n"
      "                         down cooperatively (checkpointing where\n"
      "                         supported) and exits with code 4; with\n"
      "                         --connect it rides along as the job's\n"
      "                         server-side deadline\n"
      "  --checkpoint PATH      where a cancelled analyze/optimize journals\n"
      "                         its state (default sva_<command>.ckpt)\n"
      "  --resume PATH          continue an interrupted analyze/optimize\n"
      "                         from its checkpoint; the final result is\n"
      "                         bit-identical to an uninterrupted run\n"
      "  --cache-gc             run cache eviction before the command\n"
      "                         (knobs: --cache-gc-max-mb N, default 512;\n"
      "                         --cache-gc-max-age-days D, default 30)\n"
      "fault injection:\n"
      "  SVA_FAILPOINTS=name=action,...   arm failpoints (actions: throw,\n"
      "                         prob(p), delay(ms), corrupt); see DESIGN.md\n"
      "exit codes:\n"
      "  0  success (degradations possible; inspect --diagnostics)\n"
      "  1  fatal error, or any fault under --strict, or a busy/failed\n"
      "     daemon job\n"
      "  2  usage error\n"
      "  3  --keep-going run completed but one or more jobs failed\n"
      "  4  cancelled (SIGINT/SIGTERM or --deadline); analyze/optimize\n"
      "     write a checkpoint first -- continue with --resume\n"
      "  (optimize: 1 also means the clock was not met)\n");
  return kExitUsage;
}

int dispatch_command(const std::string& command,
                     std::vector<std::string>& args,
                     const EngineOptions& opts) {
  for (const CommandSpec& cmd : command_table())
    if (command == cmd.name) return cmd.handler(args, opts);
  return usage();
}

}  // namespace sva
